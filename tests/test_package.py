import os
import subprocess
import sys

import vixsabr
from vixsabr import asymptotics, cli, mc, model, pricing, scale

MODULES = [model, scale, mc, asymptotics, pricing, cli]


def test_public_names_are_the_module_lists():
    assert vixsabr.__all__ == [name for module in MODULES
                               for name in module.__all__] + ["__version__"]
    assert len(set(vixsabr.__all__)) == len(vixsabr.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(vixsabr, name) is getattr(module, name), name


def test_python_m_vixsabr_runs_the_cli(tmp_path):
    src = os.path.dirname(os.path.dirname(vixsabr.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "vixsabr", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    done = run("--out", str(tmp_path), "diagnose")
    assert done.returncode == 0
    assert done.stdout.strip() == str(tmp_path / "diagnose.json")
    assert done.stderr == ""
    blocked = run("--out", str(tmp_path / "diagnose.json"), "diagnose")
    assert blocked.returncode == 2
    assert blocked.stderr.startswith("vixsabr: cannot write output: ")
