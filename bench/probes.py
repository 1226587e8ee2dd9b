"""Measurements made outside the workload's operations.

Set-up time in fresh interpreters, import time per module, the capped
step kernel alone, 1- versus 2-thread timings on identical inputs, the
output-digest oracle, and the machine the run is on.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import vixsabr
from vixsabr import cli, mc
from vixsabr.mc import McConfig
from vixsabr.model import CapSpec, SabrParams

from workloads import DIGEST_FILES, NESTED_CAPS, NESTED_MODEL, PINNED_SEED, \
    CliDefault, Sizes, load_oracle

# One block of paths of the simulator: it draws and steps paths in
# blocks of this many (vixsabr.mc._BLOCK_PATHS).
BLOCK_PATHS = 16384

# Modules whose cumulative import time is reported.
MODULES = ("vixsabr", "vixsabr.model", "vixsabr.scale", "vixsabr.mc",
           "vixsabr.asymptotics", "vixsabr.pricing", "vixsabr.cli")

_SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, 'src')\n"
    "import vixsabr\n"
    "vixsabr.RunConfig.from_dict({})\n"
    "print(time.perf_counter() - t0)\n"
)


def setup_times(root: Path, repeats: int) -> list[float]:
    """Seconds for a fresh interpreter to import vixsabr and build a RunConfig."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE], cwd=root,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def import_times(root: Path) -> dict[str, float]:
    """Cumulative import seconds of each vixsabr module, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         "import sys; sys.path.insert(0, 'src'); import vixsabr"],
        cwd=root, capture_output=True, text=True, timeout=120, check=True)
    found = {}
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() in MODULES:
            found[fields[2].strip()] = int(fields[1]) / 1e6
    return {name: found.get(name, 0.0) for name in MODULES}


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def kernel_seconds(sizes: Sizes, repeats: int = 5) -> float:
    """The capped step kernel alone, on pre-drawn normals of one block's
    shape, scaled to the probe's path count."""
    config = cli.RunConfig()
    params, caps = config.model, config.caps
    shape = (sizes.probe["n_steps"], min(BLOCK_PATHS, sizes.probe["n_paths"]))
    normals = np.random.default_rng(0).standard_normal(shape)
    times = [_timed(lambda: mc.evolve_capped(params.v0, normals, config.mc.horizon,
                                             params, caps))[0]
             for _ in range(repeats)]
    return statistics.median(times) * sizes.probe["n_paths"] / shape[1]


def thread_times(fn, repeats: int) -> tuple[float, float, bool]:
    """Median seconds of fn(1) and fn(2), alternating, and whether every
    result equals the first one bit for bit."""
    times = {1: [], 2: []}
    results = []
    for _ in range(repeats):
        for threads in (1, 2):
            seconds, result = _timed(lambda: fn(threads))
            times[threads].append(seconds)
            results.append(result)
    same = all(np.array_equal(results[0], r) for r in results[1:])
    return statistics.median(times[1]), statistics.median(times[2]), same


def simulate_probe(sizes: Sizes, seed: int):
    config = cli.RunConfig()
    mc_config = McConfig(seed=seed, **sizes.probe)
    return lambda threads: mc.simulate_capped_paths(
        config.model, config.caps, mc_config, n_threads=threads).terminal_values


def nested_probe(sizes: Sizes, seed: int):
    params = SabrParams(**NESTED_MODEL)
    caps = CapSpec.from_params(params, **NESTED_CAPS)
    mc_config = McConfig(seed=seed, **sizes.nested)
    return lambda threads: mc.estimate_vix_nested(
        params, caps, mc_config, n_threads=threads).vix


def pinned_outputs(sizes: Sizes, workdir: Path, threads: int):
    """The checked outcome of one cli_default operation at the pinned seed."""
    workload = CliDefault(PINNED_SEED, sizes, workdir, threads=threads)
    workload.clear_outputs()
    return workload.inspect(None, workload.execute(None))


def digest_matches(sizes: Sizes, workdir: Path) -> tuple[int, list[str]]:
    """Run cli_default at the pinned seed with 1 and 2 threads; count the
    output files whose SHA-256 equals the recorded one."""
    recorded = load_oracle()["digests"]
    matches, problems = 0, []
    for threads in (1, 2):
        outcome = pinned_outputs(sizes, workdir, threads)
        problems += outcome.problems
        matches += sum(outcome.digests.get(name) == recorded[f"threads_{threads}"][name]
                       for name in DIGEST_FILES)
    return matches, problems


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    head = _read(root / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or "unavailable (not a git checkout)"
    ref = head[5:]
    commit = _read(root / ".git" / ref)
    if commit:
        return commit
    for line in _read(root / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unavailable"


def machine(root: Path) -> dict:
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2": _read(cache / "index2" / "size") or "unknown",
        "l3": _read(cache / "index3" / "size") or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "vixsabr": vixsabr.__version__,
        "commit": _git_commit(root),
    }
