"""Record the benchmark's oracle: output digests and diagnose references.

    python3 bench/record.py

Writes bench/oracle.json with

* the SHA-256 of the four cli_default outputs at the pinned seed, once
  with --threads 1 and once with --threads 2 (they must be equal), and
* the diagnose.json fields of the default model and of every grid
  model of diagnose_grid.

Re-record only when a change to the outputs is intended and stated.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # puts ./src on the import path
import probes
from workloads import FULL, GRID_V0, ORACLE_PATH, PINNED_SEED, run_cli
from vixsabr import cli

WORKDIR = run.ROOT / ".bench_work" / "record"


def digests(threads: int) -> dict:
    outcome = probes.pinned_outputs(FULL, WORKDIR, threads)
    if outcome.problems:
        sys.exit(f"record: pinned outputs fail their checks: {outcome.problems}")
    return outcome.digests


def diagnose(model: dict) -> dict:
    config = WORKDIR / "model.json"
    config.write_text(json.dumps({"model": model}))
    code, err = run_cli(["--config", str(config), "--out", str(WORKDIR), "diagnose"])
    if code != 0:
        sys.exit(f"record: diagnose failed for {model}: {err}")
    return json.loads((WORKDIR / "diagnose.json").read_text())


def main() -> int:
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir(parents=True)
    try:
        # The diagnose references go first: CliDefault.inspect reads them.
        default = vars(cli.RunConfig().model)
        models = [default] + [dict(beta=b, rho=r, omega=o, v0=GRID_V0)
                              for b, r, o in FULL.grid]
        oracle = {
            "pinned": {"seed": PINNED_SEED, "commands": "cli_default"},
            "digests": {},
            "diagnose": [{"model": m, "report": diagnose(m)} for m in models],
        }
        ORACLE_PATH.write_text(json.dumps(oracle, indent=1) + "\n")
        oracle["digests"] = {f"threads_{t}": digests(t) for t in (1, 2)}
        if oracle["digests"]["threads_1"] != oracle["digests"]["threads_2"]:
            sys.exit("record: outputs differ between 1 and 2 threads")
        ORACLE_PATH.write_text(json.dumps(oracle, indent=1) + "\n")
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(f"wrote {ORACLE_PATH.name}: {len(models)} diagnose references, "
          "digests for 1 and 2 threads")
    return 0


if __name__ == "__main__":
    sys.exit(main())
