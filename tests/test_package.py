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


def run_python(*argv):
    """Run a fresh ``python argv`` on this checkout's package."""
    src = os.path.dirname(os.path.dirname(vixsabr.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def run_module(module, *argv):
    """Run ``python -m module argv`` on this checkout's package."""
    return run_python("-m", module, *argv)


def test_import_loads_no_scipy():
    # scipy is a test-only oracle: the package runs on numpy alone
    done = run_python("-c", "import sys, vixsabr; print(sorted(name for name in "
                      "sys.modules if name.partition('.')[0] == 'scipy'))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_commands_load_no_numpy_submodule_after_import(tmp_path):
    # numpy loads numpy.random and numpy.ma on first use; a command that
    # did so would allocate them inside its first, traced, operation
    done = run_python("-c", "import sys, vixsabr; before = set(sys.modules); "
                      f"vixsabr.main(['--out', {str(tmp_path)!r}, 'diagnose']); "
                      f"vixsabr.main(['--out', {str(tmp_path)!r}, 'smile']); "
                      "print(sorted(name for name in set(sys.modules) - before "
                      "if name.startswith('numpy')))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_python_m_vixsabr_runs_the_cli(tmp_path):
    done = run_module("vixsabr", "--out", str(tmp_path), "diagnose")
    assert done.returncode == 0
    assert done.stdout.strip() == str(tmp_path / "diagnose.json")
    assert done.stderr == ""
    blocked = run_module("vixsabr", "--out", str(tmp_path / "diagnose.json"),
                         "diagnose")
    assert blocked.returncode == 2
    assert blocked.stderr.startswith("vixsabr: cannot write output: ")


def test_python_m_vixsabr_cli_fails_loudly(tmp_path):
    # runpy warns on stderr before the module runs; the last line is ours
    done = run_module("vixsabr.cli", "--out", str(tmp_path), "diagnose")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.splitlines()[-1] == \
        "vixsabr: run python3 -m vixsabr, not python3 -m vixsabr.cli"
    assert not list(tmp_path.iterdir())
