"""Benchmark of the vixsabr package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a vixsabr source checkout; it imports the
package from ./src and writes only under ./.bench_work (removed at the
end) and ./.bench_trace.  Operations run in a closed loop with one
client: each starts when the previous one has finished and been
checked.  The first operation is a warm-up and is not timed.  A run
measures whole rounds of operations (one grid pass, one set of smile
seeds, or one operation) for at most --seconds, and at least one round.

Workloads (the seed is the Monte Carlo seed, or orders the grid):

  cli_default    diagnose, forwards, smile and converge --strike 0.15
                 (README maturities) at the default config, 2 threads
  smile_dense    smile over 161 strikes geomspace(0.03, 0.5), 2 threads,
                 at 6 Monte Carlo seeds drawn from the workload seed
  diagnose_grid  diagnose for one (beta, rho, omega) of a 30-point grid
  nested_vix     estimate_vix_nested, 500 x 1000 x 30, cap-binding
                 config, 2 threads

BENCHMARK.json lists cli_default and smile_dense.  diagnose_grid and
nested_vix run the same way by name, but on a 2-vCPU VM whose speed
moved by up to 1.4x over minutes their throughput spread over ten seeds
came close to, or passed, the largest bound allowed; their layers stay
measured inside cli_default and by the traced run's probes.

--trace 0 measures end-to-end metrics.  --trace 1 alternates untraced
and traced rounds of the same operations, reports per-layer metrics per
traced round and the tracing overhead, then runs the probes in
probes.py.  Human-readable lines come first; the last line of standard
output is one JSON object.

Which end-to-end metrics each layer should move:

  mc           op_p50_s, work_per_s, time_to_se_s on cli_default and
               nested_vix; nothing on diagnose_grid
  model        op_p50_s on cli_default and nested_vix
  pricing      op_p50_s, work_per_s on smile_dense; a little on cli_default
  scale        op_p50_s on diagnose_grid; a little on cli_default
  asymptotics  smile_dense and cli_default
  cli          setup_s, and op_p50_s on every workload
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "vixsabr" / "__init__.py").is_file():
    sys.exit(f"bench: no package source under {SRC}; run from a vixsabr checkout")
sys.path.insert(0, str(SRC))

import vixsabr  # noqa: E402

if Path(vixsabr.__file__).resolve().parent != (SRC / "vixsabr").resolve():
    sys.exit(f"bench: imported vixsabr from {vixsabr.__file__}, not from {SRC}")

import probes  # noqa: E402
from spans import CAP_REPLAY, Tracer  # noqa: E402
from workloads import FULL, WORKLOADS, Sizes, Workload  # noqa: E402

SETUP_REPEATS = 3
TAIL_BEYOND = 10
# Computed bytes per path-step of the step kernel: one float64 normal
# read, the state read and the state written.  Temporaries and cache
# misses are not counted.
BYTES_PER_PATH_STEP = 24

# Reported in the JSON result.  op_p50_s, op_tail_s, time_to_se_s and
# fail_frac are printed only: a median op time takes the speed of
# whichever host phase held most of a run, while throughput averages
# over the phases, and the other three are not defined, or are 0, on
# some workloads.
END_TO_END = {"work_per_s": "1/s", "setup_s": "s", "peak_mem_mb": "MB"}

PER_LAYER = {
    "mc.simulate_capped_paths.s": "s",
    "mc.simulate_capped_paths.calls": "count",
    "mc.path_steps_per_s": "1/s",
    "mc.evolve_capped.s": "s",
    "mc.rng_dispatch.s": "s",
    "mc.simulate_capped_paths.t1_s": "s",
    "mc.simulate_capped_paths.t2_s": "s",
    "mc.thread_speedup.simulate_capped_paths": "ratio",
    "mc.estimate_vix_nested.t1_s": "s",
    "mc.estimate_vix_nested.t2_s": "s",
    "mc.thread_speedup.estimate_vix_nested": "ratio",
    "mc.price_vix_option.s": "s",
    "mc.price_vix_option.calls": "count",
    "mc.estimate_vix_nested.s": "s",
    "mc.inner_path_steps_per_s": "1/s",
    "mc.cap_bind_frac.diffusion": "ratio",
    "mc.cap_bind_frac.drift": "ratio",
    "mc.bytes_computed": "bytes",
    "model.capped_vol_diffusion.calls": "count",
    "model.capped_vol_diffusion.s": "s",
    "model.capped_vol_drift.calls": "count",
    "model.capped_vol_drift.s": "s",
    "pricing.smile_from_paths.s": "s",
    "pricing.implied_vol.calls": "count",
    "pricing.implied_vol.s": "s",
    "pricing.bs_price.calls": "count",
    "pricing.iv_ok_ratio": "ratio",
    "pricing.rate_convergence_study.s": "s",
    "scale.explosion_verdict.s": "s",
    "scale.scale_function_limit.s": "s",
    "scale.feller_test_function.s": "s",
    "scale.martingale_diagnostic.s": "s",
    "scale.quad.calls": "count",
    "scale.quad.neval": "count",
    "scale.quad.us_per_eval": "us",
    "scale.scale_exponent.calls": "count",
    "asymptotics.limiting_implied_vol.calls": "count",
    "asymptotics.limiting_implied_vol.s": "s",
    "asymptotics.rate_function.s": "s",
    "cli.config_load.s": "s",
    "cli.self.s": "s",
    "cli.output_bytes": "bytes",
    "cli.digest_match": "count",
    **{f"setup.import_s.{m}": "s" for m in probes.MODULES},
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}


def ratio(num: float, den: float) -> float:
    return num / den if den > 0.0 else 0.0


def tail(times: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least TAIL_BEYOND samples above it, as
    (percentile, value); None with too few samples."""
    ordered = sorted(times)
    rank = len(ordered) - TAIL_BEYOND - 1
    if rank < 0:
        return None
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


def in_rounds(seconds: float, run_round) -> None:
    """Call run_round at least once, and again while the longest round
    so far still fits in the remaining seconds.

    Whole rounds keep the mix of operations the same in every run.
    """
    start = time.perf_counter()
    longest = 0.0
    while True:
        began = time.perf_counter()
        run_round()
        longest = max(longest, time.perf_counter() - began)
        if time.perf_counter() - start + longest > seconds:
            return


@dataclass
class Tally:
    """Attempted and failed operations, with the reasons for failures."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    fingerprints: dict = field(default_factory=dict)
    statuses: Counter = field(default_factory=Counter)

    def count(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def add(self, workload: Workload, op, outcome) -> None:
        problems = list(outcome.problems)
        first = self.fingerprints.setdefault(op, outcome.fingerprint)
        if outcome.fingerprint != first:
            problems.append("output differs from an earlier run of the same input")
        self.statuses.update(outcome.statuses)
        self.count(f"{workload.name}[{op}]", problems)


def run_op(workload: Workload, op, tally: Tally, tracer: Tracer | None = None):
    """Run one operation; return its seconds and its checked outcome."""
    workload.clear_outputs()
    if tracer is not None:
        tracer.op = tally.attempted
    start = time.perf_counter()
    raw = workload.execute(op)
    seconds = time.perf_counter() - start
    outcome = workload.inspect(op, raw)
    tally.add(workload, op, outcome)
    return seconds, outcome


def end_to_end(workload: Workload, seconds: float, tally: Tally) -> tuple[dict, list]:
    setup = probes.setup_times(ROOT, SETUP_REPEATS)
    # tracemalloc sees every Python and numpy allocation but slows Python
    # code, so it watches only the untimed warm-up operation.
    tracemalloc.start()
    try:
        run_op(workload, workload.ops()[0], tally)
        peak_mem = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    samples = []
    in_rounds(seconds, lambda: samples.extend(run_op(workload, op, tally)
                                              for op in workload.ops()))
    times = [s for s, _ in samples]
    n = len(times)
    p50 = statistics.median(times)
    work = sum(o.work for _, o in samples)
    metrics = {
        "work_per_s": work / sum(times),
        "setup_s": statistics.median(setup),
        "peak_mem_mb": peak_mem,
    }
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines = [
        f"op_p50_s      {p50:.6g} s  (median of n={n})",
        f"work_per_s    {metrics['work_per_s']:.6g} {workload.unit}/s  (n={n})",
    ]
    t = tail(times)
    lines.append(f"op_tail_s     {t[1]:.6g} s  (p{t[0]:.4g}, n={n})" if t else
                 f"op_tail_s     n/a  (n={n}: a percentile with {TAIL_BEYOND} "
                 f"samples beyond it needs n > {TAIL_BEYOND})")
    if workload.se_target is not None:
        se = statistics.median(o.std_error for _, o in samples)
        lines.append(f"time_to_se_s  {p50 * (se / workload.se_target) ** 2:.6g} s  "
                      f"(std error {se:.4g} -> target {workload.se_target:g}, n={n})")
    else:
        lines.append("time_to_se_s  n/a  (not a Monte Carlo workload with a "
                     "stated standard-error target)")
    lines += [
        f"setup_s       {metrics['setup_s']:.6g} s  (median of n={len(setup)} "
        "fresh interpreters)",
        f"peak_mem_mb   {peak_mem:.6g} MB  (peak allocated during the n=1 "
        "warm-up operation, by tracemalloc)",
        f"peak_rss_mb   {peak_rss:.6g} MB  (peak resident size of the whole run, "
        "n=1; informational, varies with thread timing)",
        f"fail_frac     {ratio(tally.failed, tally.attempted):.6g}  "
        f"({tally.failed} of n={tally.attempted})",
    ]
    return metrics, lines


def traced(workload: Workload, seconds: float, tally: Tally, sizes: Sizes,
           workdir: Path) -> tuple[dict, list, Tracer]:
    """Alternate untraced and traced rounds, then run the probes."""
    run_op(workload, workload.ops()[0], tally)
    tracer = Tracer()
    plain, with_trace = [], []

    def pair():
        plain.append(sum(run_op(workload, op, tally)[0] for op in workload.ops()))
        with tracer.installed():
            with_trace.append(sum(run_op(workload, op, tally, tracer)[0]
                                  for op in workload.ops()))

    in_rounds(seconds, pair)
    rounds = len(with_trace)
    spans = tracer.totals()
    counts = tracer.counts

    # Replay one round, outside the timed and traced ones, to count the
    # path-steps at which each cap binds.
    caps = Tracer()
    if "model.capped_vol_diffusion" in spans:
        with caps.installed(spans=(), counted=CAP_REPLAY, quad=False):
            for op in workload.ops():
                run_op(workload, op, tally)

    sim_1, sim_2, sim_same = probes.thread_times(
        probes.simulate_probe(sizes, workload.seed), repeats=3)
    nest_1, nest_2, nest_same = probes.thread_times(
        probes.nested_probe(sizes, workload.seed), repeats=1)
    for label, same in (("simulate_capped_paths", sim_same),
                        ("estimate_vix_nested", nest_same)):
        tally.count(f"threads[{label}]",
                    [] if same else ["1- and 2-thread results differ"])
    kernel = probes.kernel_seconds(sizes)
    digests, problems = probes.digest_matches(sizes, workdir)
    tally.count("digest", problems)
    imports = probes.import_times(ROOT)

    def span(name: str, key: str = "s") -> float:
        return spans.get(name, {}).get(key, 0.0) / rounds

    def count(name: str) -> float:
        return counts[name] / rounds

    statuses = {k: v for k, v in counts.items() if k.startswith("pricing.status.")}
    metrics = {
        "mc.simulate_capped_paths.s": span("mc.simulate_capped_paths"),
        "mc.simulate_capped_paths.calls": span("mc.simulate_capped_paths", "calls"),
        "mc.path_steps_per_s": ratio(count("mc.path_steps"),
                                     span("mc.simulate_capped_paths")),
        "mc.evolve_capped.s": kernel,
        "mc.rng_dispatch.s": sim_1 - kernel,
        "mc.simulate_capped_paths.t1_s": sim_1,
        "mc.simulate_capped_paths.t2_s": sim_2,
        "mc.thread_speedup.simulate_capped_paths": ratio(sim_1, sim_2),
        "mc.estimate_vix_nested.t1_s": nest_1,
        "mc.estimate_vix_nested.t2_s": nest_2,
        "mc.thread_speedup.estimate_vix_nested": ratio(nest_1, nest_2),
        "mc.price_vix_option.s": span("mc.price_vix_option"),
        "mc.price_vix_option.calls": span("mc.price_vix_option", "calls"),
        "mc.estimate_vix_nested.s": span("mc.estimate_vix_nested"),
        "mc.inner_path_steps_per_s": ratio(count("mc.inner_path_steps"),
                                           span("mc.estimate_vix_nested")),
        "mc.cap_bind_frac.diffusion": ratio(caps.counts["cap.diffusion.bound"],
                                            caps.counts["cap.diffusion.path_steps"]),
        "mc.cap_bind_frac.drift": ratio(caps.counts["cap.drift.bound"],
                                        caps.counts["cap.drift.path_steps"]),
        "mc.bytes_computed": BYTES_PER_PATH_STEP * (
            count("mc.path_steps") + count("mc.inner_path_steps")),
        "model.capped_vol_diffusion.calls": span("model.capped_vol_diffusion", "calls"),
        "model.capped_vol_diffusion.s": span("model.capped_vol_diffusion"),
        "model.capped_vol_drift.calls": span("model.capped_vol_drift", "calls"),
        "model.capped_vol_drift.s": span("model.capped_vol_drift"),
        "pricing.smile_from_paths.s": span("pricing.smile_from_paths"),
        "pricing.implied_vol.calls": span("pricing.implied_vol", "calls"),
        "pricing.implied_vol.s": span("pricing.implied_vol"),
        "pricing.bs_price.calls": count("pricing.bs_price.calls"),
        "pricing.iv_ok_ratio": ratio(statuses.get("pricing.status.ok", 0),
                                     sum(statuses.values())),
        "pricing.rate_convergence_study.s": span("pricing.rate_convergence_study"),
        "scale.explosion_verdict.s": span("scale.explosion_verdict"),
        "scale.scale_function_limit.s": span("scale.scale_function_limit"),
        "scale.feller_test_function.s": span("scale.feller_test_function"),
        "scale.martingale_diagnostic.s": span("scale.martingale_diagnostic"),
        "scale.quad.calls": span("scale.quad", "calls"),
        "scale.quad.neval": count("scale.quad.neval"),
        "scale.quad.us_per_eval": 1e6 * ratio(span("scale.quad"),
                                              count("scale.quad.neval")),
        "scale.scale_exponent.calls": count("scale.scale_exponent.calls"),
        "asymptotics.limiting_implied_vol.calls":
            span("asymptotics.limiting_implied_vol", "calls"),
        "asymptotics.limiting_implied_vol.s": span("asymptotics.limiting_implied_vol"),
        "asymptotics.rate_function.s": span("asymptotics.rate_function"),
        "cli.config_load.s": span("cli.config_load"),
        "cli.self.s": span("cli.command", "self_s"),
        "cli.output_bytes": count("cli.output_bytes"),
        "cli.digest_match": digests,
        **{f"setup.import_s.{m}": s for m, s in imports.items()},
        "trace.overhead_frac": ratio(sum(with_trace), sum(plain)) - 1.0,
        "trace.spans": len(tracer.spans) / rounds,
    }
    lines = [
        f"traced rounds {rounds}, untraced rounds {len(plain)}, "
        f"{len(workload.ops())} op(s) per round; span times and counts are per "
        "traced round, model.* times summed over worker threads",
        f"tracing overhead {metrics['trace.overhead_frac']:+.4f} of the untraced "
        f"round time ({sum(with_trace):.4g} s traced vs {sum(plain):.4g} s untraced)",
        f"digest oracle: {digests} of {2 * len(probes.DIGEST_FILES)} files match "
        "at the pinned seed (1 and 2 threads)",
        "mc.bytes_computed is computed from array sizes: "
        f"{BYTES_PER_PATH_STEP} bytes per path-step",
    ]
    lines += [f"{name:42s} {value:.6g} {PER_LAYER[name]}"
              for name, value in metrics.items()]
    return metrics, lines, tracer


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be in [0, 2**64)")
    if not args.seconds > 0.0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None, sizes: Sizes = FULL) -> int:
    args = parse_args(argv)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    tally = Tally()
    try:
        workload = WORKLOADS[args.workload](args.seed, sizes, workdir)
        if args.trace:
            metrics, lines, tracer = traced(workload, args.seconds, tally, sizes,
                                            workdir)
            units = PER_LAYER
            trace_dir = ROOT / ".bench_trace"
            trace_dir.mkdir(exist_ok=True)
            spans_path = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(spans_path)
            lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
        else:
            metrics, lines = end_to_end(workload, args.seconds, tally)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    total = sum(tally.statuses.values())
    record = {
        "workload": args.workload, "seed": args.seed, "threads": workload.threads,
        "loop": "closed, 1 client",
        "strike_status_shares": {k: v / total for k, v in sorted(tally.statuses.items())},
        "machine": probes.machine(ROOT),
    }
    if args.trace:
        record["cap_bind_frac"] = {k: metrics[f"mc.cap_bind_frac.{k}"]
                                   for k in ("diffusion", "drift")}
    print(f"workload {args.workload}: seed {args.seed}, {workload.threads} threads, "
          f"closed loop with 1 client, trace {args.trace}")
    for line in lines:
        print("  " + line)
    for problem in tally.problems[:20]:
        print("  FAILED " + problem)
    print("record " + json.dumps(record))
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"bench: non-finite metrics {bad}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
