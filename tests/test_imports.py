"""Which layers each entry point loads, and the package root's exports.

basis, the height rules, encode and circuits use numpy only, so importing
the package and the `basis`, `circuit` and `ham --format pauli` subcommands
load no scipy module.  `evolve` and `adiabatic` build scipy.sparse matrices
and run no eigensolve, so they never load scipy.linalg or
scipy.sparse.linalg.  Each case runs in a fresh interpreter, since the test
session itself has loaded all of scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinadapt

# runs argv (a JSON list; none: import only) through cli.main, then prints
# the exit code, whether anything was written and the scipy modules loaded
SCRIPT = """\
import contextlib, io, json, sys
import spinadapt
argv = json.loads(sys.argv[1])
code, out = 0, io.StringIO()
if argv:
    from spinadapt import cli
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
print(json.dumps({"code": code, "wrote": bool(out.getvalue()),
                  "scipy": sorted(m for m in sys.modules
                                  if m.split(".")[0] == "scipy")}))
"""

NO_SCIPY = {
    "import": [],
    "basis": ["basis", "--sites", "8"],
    "circuit-csf-gates": ["circuit", "--sites", "8", "--trunc", "1"],
    "circuit-csf-qasm": ["circuit", "--sites", "8", "--trunc", "2",
                         "--format", "qasm"],
    "circuit-sz-gates": ["circuit", "--sites", "6", "--basis", "sz"],
    "circuit-sz-qasm": ["circuit", "--sites", "6", "--basis", "sz",
                        "--format", "qasm"],
    "ham-pauli": ["ham", "--sites", "8", "--trunc", "1.5"],
}
NO_EIGENSOLVER = {
    "evolve-csf": ["evolve", "--sites", "6", "--trunc", "1", "--layers", "2"],
    "evolve-sz": ["evolve", "--sites", "6", "--basis", "sz", "--layers", "2"],
    "adiabatic": ["adiabatic", "--sites", "6", "--trunc", "1.5",
                  "--layers", "4"],
    "adiabatic-sweep": ["adiabatic", "--sites", "4", "--trunc", "1",
                        "--sweep"],
}
EIGENSOLVERS = {"scipy.linalg", "scipy.sparse.linalg"}


def _loaded(argv):
    """Exit code, output flag and scipy modules of argv in a fresh process."""
    src = Path(__file__).parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONWARNINGS": "error"}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv", NO_SCIPY.values(), ids=NO_SCIPY.keys())
def test_numpy_only_entry_points_load_no_scipy(argv):
    run = _loaded(argv)
    assert run["code"] == 0 and run["wrote"] == bool(argv)
    assert run["scipy"] == []


@pytest.mark.parametrize("argv", NO_EIGENSOLVER.values(),
                         ids=NO_EIGENSOLVER.keys())
def test_dynamics_load_no_eigensolver(argv):
    run = _loaded(argv)
    assert run["code"] == 0 and run["wrote"]
    assert "scipy.sparse" in run["scipy"]
    assert EIGENSOLVERS.isdisjoint(run["scipy"])


@pytest.mark.parametrize("argv", [
    ["diag", "--sites", "14", "--trunc", "full"],
    ["ham", "--sites", "8", "--trunc", "1", "--format", "matrix"]],
    ids=["diag", "ham-matrix"])
def test_scipy_commands_still_run(argv):
    run = _loaded(argv)
    assert run["code"] == 0 and run["wrote"]


def test_every_export_resolves_and_is_listed():
    listed = dir(spinadapt)
    for name in spinadapt.__all__:
        assert getattr(spinadapt, name) is not None, name
        assert name in listed, name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from spinadapt import *", namespace)
    assert set(spinadapt.__all__) <= set(namespace)
    assert namespace["build_hamiltonian"] is spinadapt.sga.build_hamiltonian


def test_unknown_export_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        spinadapt.no_such_name
    assert not hasattr(spinadapt, "_height_rule")
