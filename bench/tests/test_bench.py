"""Self-test of the benchmark: every workload body runs, reports every metric
named in BENCHMARK.json with its unit, and fails its checks on a bad pin.

    python3 -m pytest -q bench/tests        (from the repository root)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(REPO, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(*args: str, cwd: str = REPO) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *BENCH["command"][1:], *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def quick(workload: str, trace: int, cwd: str = REPO) -> dict:
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace), "--quick", cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_benchmark(dest) -> None:
    """BENCHMARK.json and bench/ alone, as in a checkout without the package."""
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), dest)
    shutil.copytree(os.path.join(REPO, "bench"), dest / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_reports_every_metric(workload):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result = quick(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in BENCH[group]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_pin_counts_as_failed(workload, tmp_path):
    with open(os.path.join(REPO, "bench", "pins.json")) as fh:
        pins = json.load(fh)
    for target in pins["quick"].values():   # one float pin in every part
        key = next(k for k, v in target.items()
                   if isinstance(v, list) and isinstance(v[0], float))
        target[key][0] += 1e-3
    copy_benchmark(tmp_path)
    (tmp_path / "bench" / "pins.json").write_text(json.dumps(pins))
    (tmp_path / "src").symlink_to(os.path.join(REPO, "src"))
    result = quick(workload, 1, cwd=str(tmp_path))
    assert result["failed"] > 0 and not result["correct"]


def test_refuses_to_run_without_the_package(tmp_path):
    copy_benchmark(tmp_path)
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture
def package_path():
    sys.path[:0] = [os.path.join(REPO, "src"), os.path.join(REPO, "bench")]
    yield
    del sys.path[:2]


def test_wrappers_reach_names_imported_by_callers(package_path):
    from spans import Tracer
    from spinadapt import adiabatic, sim
    original = sim.simulate
    tracer = Tracer()
    tracer.install()
    try:
        assert sim.simulate is not original
        assert adiabatic.simulate is sim.simulate
    finally:
        tracer.uninstall()
    assert sim.simulate is original and adiabatic.simulate is original


def test_nnz_counts_the_built_matrix_not_its_bands(package_path):
    from spans import Tracer
    from spinadapt import basis, sga
    paths = basis.enumerate_paths(8, 0, 4)
    tracer = Tracer()
    tracer.install()
    try:
        built = sga.build_hamiltonian(paths, "band")
    finally:
        tracer.uninstall()
    assert tracer.counts["sga.nnz"] == built.matrix.nnz
