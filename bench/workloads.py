"""Workloads of the vixsabr benchmark.

A workload builds its inputs from the benchmark seed and runs one
operation at a time through ``vixsabr.cli.main`` or the public library
functions.  ``execute`` is the timed part; ``inspect`` reads and checks
the outputs after the clock has stopped.

Every name the operations call is looked up on its module at call time
(``cli.main``, ``mc.estimate_vix_nested``), so the traced run can wrap
those bindings.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import random
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from vixsabr import cli, mc
from vixsabr.mc import McConfig
from vixsabr.model import CapSpec, SabrParams

ORACLE_PATH = Path(__file__).resolve().parent / "oracle.json"

PINNED_SEED = 12345
THREADS = 2
README_MATURITIES = [0.2, 0.1, 0.05, 0.025]
CONVERGE_STRIKE = 0.15
DIGEST_FILES = ("forward_table.csv", "smile.csv", "converge.csv", "diagnose.json")

# (beta, rho, omega) of the diagnose grid, all at v0 = GRID_V0.
GRID = tuple(itertools.product((0.0, 0.25, 0.5, 0.75, 0.9),
                               (-0.2, -0.5, -0.9), (0.5, 1.0)))
GRID_V0 = 0.1

# Monte Carlo seeds per round of smile_dense.
SMILE_SEEDS = 6

# Cap-binding configuration of the nested estimator: the caps bind on a
# visible share of path-steps here, and on none at the package defaults.
NESTED_MODEL = dict(beta=0.5, rho=-0.7, omega=1.5, v0=0.5)
NESTED_CAPS = dict(vol_cap=1.8, drift_cap=0.3)

# quad's default absolute tolerance: diagnose fields closer than this
# to their reference are equal, whatever their relative difference.
DIAGNOSE_RTOL = 1e-10
DIAGNOSE_ATOL = 1e-12


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the benchmark uses FULL, its tests use TINY."""

    mc: dict          # McConfig overrides for the CLI workloads ({} = defaults)
    dense_strikes: int
    grid: tuple
    nested: dict      # McConfig fields of the nested estimator
    probe: dict       # McConfig fields of the kernel and thread probes


FULL = Sizes(
    mc={},
    dense_strikes=161,
    grid=GRID,
    nested=dict(n_paths=500, inner_paths=1000, inner_steps=30),
    probe=dict(n_paths=100_000, n_steps=100),
)
TINY = Sizes(
    mc={"n_paths": 3000, "n_steps": 10},
    dense_strikes=9,
    grid=GRID[:3],
    nested=dict(n_paths=16, n_steps=10, inner_paths=200, inner_steps=5),
    probe=dict(n_paths=3000, n_steps=10),
)


@dataclass
class Outcome:
    """What one operation produced, as far as the benchmark checks it."""

    problems: list = field(default_factory=list)
    work: float = 0.0
    fingerprint: str = ""
    std_error: float | None = None
    statuses: Counter = field(default_factory=Counter)
    digests: dict = field(default_factory=dict)


def load_oracle() -> dict:
    with open(ORACLE_PATH) as handle:
        return json.load(handle)


def model_key(model: dict) -> str:
    return json.dumps([model[k] for k in ("beta", "rho", "omega", "v0")])


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; return its exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code, err.getvalue()


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def diagnose_problems(payload: dict, expected: dict) -> list[str]:
    problems = []
    for key, want in expected.items():
        got = payload.get(key)
        if isinstance(want, float):
            same = isinstance(got, (int, float)) and math.isclose(
                got, want, rel_tol=DIAGNOSE_RTOL, abs_tol=DIAGNOSE_ATOL)
        else:
            same = got == want
        if not same:
            problems.append(f"diagnose.json {key}: got {got!r}, reference {want!r}")
    return problems


def smile_problems(rows: list[dict]) -> tuple[list[str], Counter]:
    problems, statuses = [], Counter()
    for row in rows:
        status = row["status"]
        statuses[status] += 1
        if status not in ("ok", "below", "above"):
            problems.append(f"smile K={row['strike']}: unknown status {status}")
        if status != "ok":
            continue
        iv, lo, hi = (float(row[k]) for k in ("implied_vol", "iv_lo", "iv_hi"))
        price, se = float(row["price"]), float(row["price_se"])
        if not lo <= iv <= hi:
            problems.append(f"smile K={row['strike']}: iv {iv} outside [{lo}, {hi}]")
        if not (math.isfinite(price) and se > 0.0):
            problems.append(f"smile K={row['strike']}: price {price}, se {se}")
    return problems, statuses


def converge_problems(rows: list[dict]) -> list[str]:
    problems = []
    for row in rows:
        if row["statistically_zero"] == "true":
            continue
        values = [float(row[k]) for k in ("minus_t_log_price", "rate_function", "gap")]
        if not _finite(*values):
            problems.append(f"converge T={row['maturity']}: non-finite {values}")
    return problems


def forward_problems(rows: list[dict]) -> list[str]:
    problems = []
    for row in rows:
        value, se = float(row["forward"]), float(row["forward_se"])
        if not (_finite(value, se) and value > 0.0 and se > 0.0):
            problems.append(f"forward rho={row['rho']}: value {value}, se {se}")
    return problems


def _read_csv(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


class Workload:
    """One workload: its inputs, its timed operation and its checks."""

    name = ""
    unit = ""           # domain unit of work_per_s
    se_target = None    # target of time_to_se_s, for Monte Carlo workloads

    def __init__(self, seed: int, sizes: Sizes, workdir: Path,
                 threads: int = THREADS):
        self.seed = seed
        self.sizes = sizes
        self.threads = threads
        self.dir = workdir / self.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.oracle = load_oracle()
        self.reference = {model_key(e["model"]): e["report"]
                          for e in self.oracle["diagnose"]}

    def _config(self, name: str, payload: dict) -> str:
        path = self.dir / name
        path.write_text(json.dumps(payload))
        return str(path)

    def _argv(self, *extra: str, seed: int | None = None) -> list[str]:
        seed = self.seed if seed is None else seed
        return ["--threads", str(self.threads), "--seed", str(seed),
                "--out", str(self.dir / "out"), *extra]

    def ops(self) -> list:
        """One round of operation inputs, in seed order."""
        return [self.name]

    def clear_outputs(self) -> None:
        """Remove earlier outputs, so a command that writes nothing fails."""
        out = self.dir / "out"
        if out.is_dir():
            for path in out.iterdir():
                path.unlink()

    def execute(self, op):
        raise NotImplementedError

    def inspect(self, op, raw) -> Outcome:
        raise NotImplementedError

    def _exit_problems(self, results) -> list[str]:
        return [f"{cmd} exited {code}: {err.strip()[-300:]}"
                for cmd, code, err in results if code != 0]

    def _read_outputs(self, names) -> dict:
        out = self.dir / "out"
        return {name: (out / name).read_bytes() for name in names
                if (out / name).is_file()}


class CliDefault(Workload):
    """The four README commands at the default config."""

    name = "cli_default"
    unit = "path-steps"
    se_target = 1e-4

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        mc_section = {"mc": self.sizes.mc} if self.sizes.mc else {}
        base = ["--config", self._config("base.json", mc_section)] if mc_section else []
        conv = self._config("converge.json",
                            {"maturities": README_MATURITIES, **mc_section})
        strike = ["--strike", str(CONVERGE_STRIKE)]
        self.commands = [
            ("diagnose", base + self._argv("diagnose")),
            ("forwards", base + self._argv("forwards")),
            ("smile", base + self._argv("smile")),
            ("converge", ["--config", conv] + self._argv("converge", *strike)),
        ]
        config = cli.RunConfig.from_dict(mc_section)
        self.path_steps = config.mc.n_paths * config.mc.n_steps

    def execute(self, op):
        return [(cmd, *run_cli(argv)) for cmd, argv in self.commands]

    def inspect(self, op, raw) -> Outcome:
        outcome = Outcome(problems=self._exit_problems(raw))
        files = self._read_outputs(DIGEST_FILES)
        missing = set(DIGEST_FILES) - set(files)
        if missing:
            outcome.problems.append(f"missing outputs {sorted(missing)}")
            return outcome
        outcome.digests = {n: hashlib.sha256(d).hexdigest() for n, d in files.items()}
        outcome.fingerprint = hashlib.sha256(
            "".join(outcome.digests[n] for n in DIGEST_FILES).encode()).hexdigest()

        forwards = _read_csv(files["forward_table.csv"])
        smile = _read_csv(files["smile.csv"])
        converge = _read_csv(files["converge.csv"])
        outcome.problems += forward_problems(forwards)
        smile_bad, outcome.statuses = smile_problems(smile)
        outcome.problems += smile_bad
        outcome.problems += converge_problems(converge)
        default_model = cli.RunConfig().model
        outcome.problems += diagnose_problems(
            json.loads(files["diagnose.json"]),
            self.reference[model_key(vars(default_model))])

        # Path-steps simulated: one simulation per forward row, one for
        # the smile and one per converge maturity.
        outcome.work = self.path_steps * (len(forwards) + 1 + len(converge))
        rho = float(default_model.rho)
        ses = [float(r["forward_se"]) for r in forwards if float(r["rho"]) == rho]
        outcome.std_error = ses[0] if ses else None
        return outcome


class SmileDense(Workload):
    """One smile over 161 strikes, most of the work in Black pricing and
    implied-vol inversion, with the out-of-bounds branch exercised.

    Only strikes whose price can be inverted cost inversions, and their
    number moves with the Monte Carlo seed (140 to 155 of 161 over seeds
    1 to 5).  A round therefore prices the smile at SMILE_SEEDS seeds
    drawn from the workload seed, so that the work of a run does not
    rest on one seed's draw.
    """

    name = "smile_dense"
    unit = "strikes"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.strikes = [float(k) for k in
                        np.geomspace(0.03, 0.5, self.sizes.dense_strikes)]
        payload = {"strikes": self.strikes}
        if self.sizes.mc:
            payload["mc"] = self.sizes.mc
        config = ["--config", self._config("smile.json", payload)]
        rng = random.Random(self.seed)
        self.argvs = {}
        for _ in range(SMILE_SEEDS):
            seed = rng.getrandbits(63)
            self.argvs[seed] = config + self._argv("smile", seed=seed)

    def ops(self) -> list:
        return list(self.argvs)

    def execute(self, op):
        return [("smile", *run_cli(self.argvs[op]))]

    def inspect(self, op, raw) -> Outcome:
        outcome = Outcome(problems=self._exit_problems(raw))
        files = self._read_outputs(["smile.csv"])
        if "smile.csv" not in files:
            outcome.problems.append("missing smile.csv")
            return outcome
        rows = _read_csv(files["smile.csv"])
        bad, outcome.statuses = smile_problems(rows)
        outcome.problems += bad
        if len(rows) != len(self.strikes):
            outcome.problems.append(f"smile has {len(rows)} rows, "
                                    f"expected {len(self.strikes)}")
        outcome.work = len(rows)
        outcome.fingerprint = hashlib.sha256(files["smile.csv"]).hexdigest()
        return outcome


class DiagnoseGrid(Workload):
    """``diagnose`` over a (beta, rho, omega) grid: quadrature only."""

    name = "diagnose_grid"
    unit = "configs"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.models = []
        self.argvs = []
        for i, (beta, rho, omega) in enumerate(self.sizes.grid):
            model = dict(beta=beta, rho=rho, omega=omega, v0=GRID_V0)
            path = self._config(f"grid{i:02d}.json", {"model": model})
            self.models.append(model)
            self.argvs.append(["--config", path] + self._argv("diagnose"))
        self.order = list(range(len(self.models)))
        random.Random(self.seed).shuffle(self.order)

    def ops(self) -> list:
        return list(self.order)

    def execute(self, op):
        return [("diagnose", *run_cli(self.argvs[op]))]

    def inspect(self, op, raw) -> Outcome:
        outcome = Outcome(problems=self._exit_problems(raw), work=1.0)
        files = self._read_outputs(["diagnose.json"])
        if "diagnose.json" not in files:
            outcome.problems.append("missing diagnose.json")
            return outcome
        expected = self.reference.get(model_key(self.models[op]))
        if expected is None:
            outcome.problems.append(f"no reference for {self.models[op]}")
        else:
            outcome.problems += diagnose_problems(json.loads(files["diagnose.json"]),
                                                  expected)
        outcome.fingerprint = hashlib.sha256(files["diagnose.json"]).hexdigest()
        return outcome


class NestedVix(Workload):
    """The nested finite-window VIX estimator in a cap-binding config."""

    name = "nested_vix"
    unit = "inner path-steps"
    se_target = 1e-3

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.params = SabrParams(**NESTED_MODEL)
        self.caps = CapSpec.from_params(self.params, **NESTED_CAPS)
        self.mc = McConfig(seed=self.seed, **self.sizes.nested)

    def execute(self, op):
        return mc.estimate_vix_nested(self.params, self.caps, self.mc,
                                      n_threads=self.threads)

    def inspect(self, op, result) -> Outcome:
        outcome = Outcome()
        if result.violation_fraction != 0.0:
            outcome.problems.append(
                f"sandwich violation fraction {result.violation_fraction}")
        if not np.all(result.lower <= result.upper):
            outcome.problems.append("lower bound above upper bound")
        if not (np.all(np.isfinite(result.vix)) and np.all(result.vix > 0.0)
                and np.all(np.isfinite(result.inner_std_error))):
            outcome.problems.append("non-finite or non-positive VIX estimate")
        outcome.work = self.mc.n_paths * self.mc.inner_paths * self.mc.inner_steps
        outcome.std_error = float(np.mean(result.inner_std_error))
        outcome.fingerprint = hashlib.sha256(
            result.vix.tobytes() + result.inner_std_error.tobytes()).hexdigest()
        return outcome


WORKLOADS = {w.name: w for w in (CliDefault, SmileDense, DiagnoseGrid, NestedVix)}
