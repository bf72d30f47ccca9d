import argparse
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest
import scipy.sparse.linalg as spla
from spinadapt import adiabatic, basis, circuits, cli, sga, sim
from spinadapt.basis import cardinality, enumerate_paths
from spinadapt.cli import TRUNC_CHOICES, build_parser, main
from spinadapt.errors import ResourceLimitError


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_basis_command(capsys):
    code, out = run(["basis", "--sites", "8", "--total-spin", "0",
                     "--trunc", "1"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,heights"
    assert len(lines) == 9  # 8 paths

    code, out = run(["basis", "--sites", "8", "--trunc", "0.5"], capsys)
    assert len(out.strip().splitlines()) == 2

    code, out = run(["basis", "--sites", "2"], capsys)
    assert len(out.strip().splitlines()) == 2


def test_ham_pauli_and_matrix(capsys):
    code, out = run(["ham", "--sites", "16", "--trunc", "1"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "qubits 7"

    code, out = run(["ham", "--sites", "4", "--trunc", "0.5"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "qubits 0"
    assert float(lines[1].split()[0]) == -1.75  # (J/2)(-N + 1/2) at N=4

    code, out = run(["ham", "--sites", "8", "--trunc", "full",
                     "--format", "matrix", "--mode", "height"], capsys)
    assert out.splitlines()[0] == "dim 14"


GOLDEN = Path(__file__).parent / "golden"


# Assembled operators, byte for byte: the exports use only elementwise
# arithmetic and formatting, so one ulp of drift in any entry shows here
@pytest.mark.parametrize("fname, argv", [
    *[(f"ham_n10_j13_{mode}_trunc{trunc.replace('.', '')}.coo",
       ["--sites", "10", "--format", "matrix", "--coupling", "1.3",
        "--mode", mode, "--trunc", trunc])
      for mode in ("band", "height") for trunc in ("1", "1.5", "full")],
    ("ham_n10_trunc15.pauli", ["--sites", "10", "--trunc", "1.5"]),
    ("ham_n10_trunc2.pauli", ["--sites", "10", "--trunc", "2"]),
    ("ham_n10_s1_trunc2.pauli",
     ["--sites", "10", "--trunc", "2", "--total-spin", "1"]),
    ("ham_n12_s1_j13_trunc2.pauli",
     ["--sites", "12", "--trunc", "2", "--total-spin", "1",
      "--coupling", "1.3"])])
def test_ham_export_matches_golden(fname, argv, capsys):
    code, out = run(["ham", *argv], capsys)
    assert code == 0
    assert out.encode() == (GOLDEN / fname).read_bytes(), f"{fname} drifted"


# Gray-coded (three-valued) positions in the emitted Trotter step, an S=1
# step and a qasm export at J != 1
@pytest.mark.parametrize("fname, argv", [
    ("circuit_n8_trunc2.gates", ["--sites", "8", "--trunc", "2"]),
    ("circuit_n8_trunc2_order2.gates",
     ["--sites", "8", "--trunc", "2", "--order", "2"]),
    ("circuit_n12_s1_trunc2_order2.gates",
     ["--sites", "12", "--trunc", "2", "--total-spin", "1", "--order", "2"]),
    ("circuit_n10_j13_trunc15_t037.qasm",
     ["--sites", "10", "--trunc", "1.5", "--format", "qasm",
      "--coupling", "1.3", "--duration", "0.37"])])
def test_circuit_export_matches_golden(fname, argv, capsys):
    code, out = run(["circuit", *argv], capsys)
    assert code == 0
    assert out.encode() == (GOLDEN / fname).read_bytes(), f"{fname} drifted"


README = Path(__file__).parents[1] / "README.md"
README_COMMANDS = [
    shlex.split(line, comments=True)[1:] for line in
    README.read_text().split("## Command line\n\n```\n")[1]
    .split("```")[0].splitlines()]


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_command_runs(argv, capsys):
    assert main(argv) == 0


def test_diag_command(capsys):
    code, out = run(["diag", "--sites", "8"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "trunc,mode,dim,ground_energy,gap"
    assert len(lines) == 6
    full_row = lines[-1].split(",")
    e_exact = float(full_row[3])
    energies = [float(line.split(",")[3]) for line in lines[1:]]
    assert all(a >= b - 1e-12 for a, b in zip(energies, energies[1:]))

    code, out = run(["diag", "--sites", "2", "--trunc", "full"], capsys)
    assert float(out.strip().splitlines()[1].split(",")[3]) == -0.75


def test_diag_ladder_starts_at_total_spin(capsys):
    code, out = run(["diag", "--sites", "10", "--total-spin", "1"], capsys)
    assert code == 0
    labels = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
    assert labels == ["1", "1.5", "2", "full"]

    code = main(["diag", "--sites", "10", "--total-spin", "1",
                 "--trunc", "0.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("mode", ["height", "band"])
def test_diag_diagonalizes_assembled_matrix(mode, capsys, monkeypatch):
    expected = {}
    for label, trunc in TRUNC_CHOICES.items():
        basis = enumerate_paths(12, 0, trunc)
        k = min(2, len(basis))
        vals = sga.ground_energy_matrix_free(basis, mode, n_values=k)
        expected[label] = (vals[0], vals[1] - vals[0] if k == 2 else 0.0)

    def refuse(*args, **kwargs):
        raise AssertionError("diag must not use the matrix-free route")

    monkeypatch.setattr(sga, "apply_hamiltonian", refuse)
    monkeypatch.setattr(sga, "ground_energy_matrix_free", refuse)
    code, out = run(["diag", "--sites", "12", "--mode", mode], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "trunc,mode,dim,ground_energy,gap"
    assert [line.split(",")[0] for line in lines[1:]] == list(expected)
    for line in lines[1:]:
        label, _, _, energy, gap = line.split(",")
        assert abs(float(energy) - expected[label][0]) < 1e-12
        assert abs(float(gap) - expected[label][1]) < 1e-12


def _count_calls(monkeypatch, module, name, calls):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("argv, rows, assemblies", [
    (["diag", "--sites", "12"], 5, 1),
    (["diag", "--sites", "10", "--total-spin", "1"], 4, 1),
    (["diag", "--sites", "12", "--mode", "band"], 5, 5),
    (["diag", "--sites", "10", "--total-spin", "1", "--mode", "band"], 4, 4),
    (["diag", "--sites", "12", "--trunc", "1.5"], 1, 1),
    (["diag", "--sites", "12", "--trunc", "full"], 1, 1)])
def test_diag_assemblies(argv, rows, assemblies, monkeypatch, capsys):
    # the height ladder enumerates and assembles its full rung only and
    # slices the rest out of it; band mode and a single rung assemble
    # each rung on its own
    enumerated, assembled = [], []
    _count_calls(monkeypatch, cli, "enumerate_paths", enumerated)
    _count_calls(monkeypatch, sga, "build_hamiltonian", assembled)
    code, out = run(argv, capsys)
    assert code == 0
    assert len(out.splitlines()) == 1 + rows
    assert len(enumerated) == len(assembled) == assemblies
    if "--trunc" in argv and argv[-1] != "full":
        # a truncated rung never enumerates the untruncated sector
        assert [args[2] for args in enumerated] == [TRUNC_CHOICES[argv[-1]]]


@pytest.mark.parametrize("argv", [
    ["diag", "--sites", "12"],
    ["diag", "--sites", "10", "--total-spin", "1"],
    ["diag", "--sites", "16", "--coupling", "0.25"]], ids=" ".join)
def test_diag_ladder_prints_what_per_rung_assembly_prints(argv, monkeypatch,
                                                          capsys):
    # in one process, the same rows bit for bit: the slices are the rung
    # matrices themselves, so every eigensolve sees the same input
    code, sliced = run(argv, capsys)
    assert code == 0
    coupling = float(argv[-1]) if "--coupling" in argv else 1.0

    def assemble(op, trunc):
        sector = op.basis
        return sga.build_hamiltonian(
            enumerate_paths(sector.n_sites, sector.total_spin_x2, trunc),
            "height", coupling)

    monkeypatch.setattr(sga, "height_rung", assemble)
    code, per_rung = run(argv, capsys)
    assert code == 0
    assert sliced == per_rung


def test_diag_band_vs_height_differ(capsys):
    _, height = run(["diag", "--sites", "8", "--trunc", "1",
                     "--mode", "height"], capsys)
    _, band = run(["diag", "--sites", "8", "--trunc", "1",
                   "--mode", "band"], capsys)
    eh = float(height.strip().splitlines()[1].split(",")[3])
    eb = float(band.strip().splitlines()[1].split(",")[3])
    assert abs(eh - eb) > 1e-6


def test_evolve_commands(capsys):
    code, out = run(["evolve", "--sites", "8", "--basis", "csf", "--trunc",
                     "1", "--duration", "1", "--layers", "4"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("t,total_energy")
    assert len(lines) == 6

    code, out = run(["evolve", "--sites", "6", "--basis", "sz",
                     "--duration", "0", "--layers", "0"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 2  # header + t=0 row


def test_sz_evolution_follows_total_spin(capsys):
    code, out = run(["evolve", "--sites", "8", "--basis", "sz",
                     "--total-spin", "1", "--duration", "1", "--layers", "2"],
                    capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[:4] == ["t", "total_energy", "s_squared",
                                       "total_sz"]
    first = [float(v) for v in lines[1].split(",")]
    assert first[2] == pytest.approx(2.0, abs=1e-12)
    assert first[3] == pytest.approx(1.0, abs=1e-12)


def test_adiabatic_command(capsys):
    code, out = run(["adiabatic", "--sites", "8", "--trunc", "1",
                     "--duration", "4", "--layers", "8"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,energy,fidelity"
    assert len(lines) == 10
    assert float(lines[1].split(",")[2]) == 1.0


def test_circuit_command_and_determinism(capsys):
    args = ["circuit", "--sites", "8", "--basis", "csf", "--trunc", "1",
            "--duration", "0.1"]
    code, out1 = run(args, capsys)
    assert code == 0
    assert out1.splitlines()[0] == "qubits 3"
    _, out2 = run(args, capsys)
    assert out1 == out2

    code, qasm = run(args + ["--format", "qasm"], capsys)
    assert qasm.splitlines()[0] == "OPENQASM 3.0;"


def test_exit_code_invalid_config(capsys):
    assert main(["diag", "--sites", "8", "--total-spin", "0.7"]) == 2
    assert main(["basis", "--sites", "7", "--total-spin", "0"]) == 2


@pytest.mark.parametrize("argv", [
    ["circuit", "--sites", "10", "--total-spin", "1", "--trunc", "0.5"],
    ["circuit", "--sites", "7", "--trunc", "0.5"],
    ["evolve", "--sites", "7", "--basis", "sz"],
    ["evolve", "--sites", "8", "--basis", "sz", "--trunc", "1"],
    ["circuit", "--sites", "8", "--basis", "sz", "--trunc", "1"],
    ["basis", "--sites", "10", "--total-spin", "1", "--trunc", "0.5"],
    ["ham", "--sites", "10", "--total-spin", "1", "--trunc", "0.5",
     "--format", "matrix"],
    ["circuit", "--sites", "8", "--basis", "sz", "--total-spin", "1"],
    ["adiabatic", "--sites", "4", "--trunc", "1", "--layers", "0"],
    ["evolve", "--sites", "8", "--trunc", "1", "--duration", "nan"],
    ["evolve", "--sites", "8", "--trunc", "1", "--coupling", "nan"],
    ["adiabatic", "--sites", "4", "--trunc", "1", "--duration", "inf"],
    ["evolve", "--sites", "8", "--trunc", "1", "--layers", "-1"],
    ["adiabatic", "--sites", "4", "--trunc", "1", "--duration", "-3"],
    ["adiabatic", "--sites", "4", "--trunc", "1", "--sweep", "--duration",
     "3"],
    ["adiabatic", "--sites", "4", "--trunc", "1", "--sweep", "--layers", "5"],
    ["ham", "--sites", "8", "--trunc", "1", "--format", "pauli", "--mode",
     "height"],
    ["basis", "--sites", "8", "--coupling", "7"],
    ["circuit", "--sites", "8", "--trunc", "0.5", "--order", "1"],
    ["circuit", "--sites", "8", "--trunc", "0.5", "--order", "2"],
    ["adiabatic", "--sites", "8", "--trunc", "0.5", "--duration", "2",
     "--layers", "4", "--order", "2"],
    ["adiabatic", "--sites", "6", "--trunc", "0.5", "--sweep", "--order",
     "1"],
])
def test_refused_configuration_prints_error(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


# --trunc 0.5 lies below 2S = 2: no spin path fits
EMPTY_SECTOR = ["--sites", "4", "--total-spin", "1", "--trunc", "0.5"]


@pytest.mark.parametrize("command", [
    ["basis"], ["ham"], ["ham", "--format", "matrix"], ["diag"], ["evolve"],
    ["adiabatic"], ["circuit"]], ids="-".join)
def test_empty_sector_refused_with_one_message(command, capsys):
    assert main(command + EMPTY_SECTOR) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --trunc 0.5 is below the total spin 1: "
                            "the sector is empty\n")


@pytest.mark.parametrize("trunc", [[], ["--trunc", "full"]],
                         ids=["ladder", "full"])
def test_diag_refuses_a_chain_too_long_to_store(trunc, capsys):
    tracemalloc.start()
    try:
        assert main(["diag", "--sites", "3000", *trunc]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("resource guard:")
    assert peak < 2 << 20


# the exact reference refuses the first two; in the last two the Trotter
# layer's own angles overflow (the N=20 identity shift dt J (N-1)/4 at
# dt = 1e307), and the layer is refused before it runs
@pytest.mark.parametrize("argv, refusal", [
    pytest.param(["evolve", "--sites", "4", "--trunc", "2", "--duration",
                  "1e308"], "Taylor steps", id="evolve"),
    pytest.param(["adiabatic", "--sites", "4", "--trunc", "1", "--duration",
                  "1e300"], "Taylor steps", id="adiabatic"),
    pytest.param(["evolve", "--sites", "20", "--trunc", "2", "--duration",
                  "1e308"], "Trotter angle", id="evolve-layer-angle"),
    pytest.param(["adiabatic", "--sites", "20", "--trunc", "2", "--duration",
                  "1e308", "--layers", "1"], "Trotter angle",
                 id="adiabatic-layer-angle")])
def test_huge_duration_refused_before_the_exact_reference_runs(argv, refusal,
                                                                capsys):
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 5.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource guard:")
    assert refusal in captured.err


# H_ramp / T overflows to inf: every entry at T = 1e-320, the largest of
# the N=10 ramp at T = 1e-308; the Trotter layers themselves run
@pytest.mark.parametrize("sites, duration", [("4", "1e-320"),
                                             ("10", "1e-308")])
def test_subnormal_adiabatic_duration_refused(sites, duration, capsys):
    assert main(["adiabatic", "--sites", sites, "--trunc", "1", "--layers",
                 "1", "--duration", duration]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "resource guard: the slope has a non-finite entry\n"


# each angle overflows with finite flags: the csf band angles, the sz bond
# angle J dt / 4, and the phase of the one-path sector at trunc 0.5
@pytest.mark.parametrize("argv", [
    ["--sites", "8", "--trunc", "1.5", "--duration", "3e307"],
    ["--sites", "4", "--basis", "sz", "--duration", "1e308", "--coupling",
     "4"],
    ["--sites", "4", "--trunc", "0.5", "--duration", "1e308", "--coupling",
     "2"]], ids=["csf", "sz", "scalar"])
def test_circuit_refuses_an_overflowing_angle(argv, capsys):
    assert main(["circuit"] + argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource guard:")
    assert captured.err.count("\n") == 1


# J/2 times a rule sum overflows: refused where the operator is built, with
# no RuntimeWarning
@pytest.mark.parametrize("argv", [
    ["diag", "--sites", "8"],
    ["ham", "--sites", "8", "--trunc", "full", "--format", "matrix",
     "--mode", "height"],
    ["ham", "--sites", "28", "--trunc", "2"],
    ["adiabatic", "--sites", "8", "--trunc", "1.5"]],
    ids=["diag", "ham-matrix", "ham-pauli", "adiabatic"])
def test_overflowing_coupling_refused(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--coupling", "1e308"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("resource guard: scaling by 5e+307 overflows "
                            "an entry\n")


def test_overflowing_sz_step_refused(capsys):
    # the sz step phase and bond factors overflow at J dt = 2.5e308: refused
    # before the t=0 row, with no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", "--sites", "8", "--basis", "sz", "--coupling",
                     "1e308", "--layers", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("resource guard: time step 2.5 at coupling "
                            "1e+308 gives a non-finite Trotter angle\n")


# with no layer there is no Trotter angle to refuse the coupling: the bond
# energies (-7.5e307 per singlet bond) are finite, their sum is refused
@pytest.mark.parametrize("basis_argv", [["--basis", "sz"], ["--trunc", "2"]],
                         ids=["sz", "csf"])
def test_overflowing_total_energy_refused(basis_argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", "--sites", "8", *basis_argv, "--coupling",
                     "1e308", "--layers", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("resource guard: the bond energies sum to a "
                            "non-finite total energy\n")


def _table(text):
    """Output lines after the header, split on commas or spaces."""
    return [line.replace(",", " ").split() for line in text.splitlines()[1:]]


# Round-off is cut at unit coupling, so every output scales exactly with a
# power-of-two J: a multiplication by 2^k is exact in binary floating point
@pytest.mark.parametrize("coupling", [2.0 ** -50, 2.0 ** 7])
def test_outputs_scale_exactly_with_a_power_of_two_coupling(coupling, capsys):
    def at(argv, j):
        code, out = run(argv + ["--coupling", repr(j)], capsys)
        assert code == 0
        return _table(out)

    for argv in (["ham", "--sites", "8", "--trunc", "full", "--format",
                  "matrix", "--mode", "height"],
                 ["ham", "--sites", "8", "--trunc", "1.5", "--format",
                  "matrix", "--mode", "band"]):
        unit, scaled = at(argv, 1.0), at(argv, coupling)
        assert [row[:2] for row in scaled] == [row[:2] for row in unit]
        assert [float(row[2]) for row in scaled] == \
            [coupling * float(row[2]) for row in unit]
    for argv in (["ham", "--sites", "8", "--trunc", "1.5"],
                 ["ham", "--sites", "8", "--trunc", "2"]):
        unit, scaled = at(argv, 1.0), at(argv, coupling)
        assert [row[2:] for row in scaled] == [row[2:] for row in unit]
        assert [float(row[0]) for row in scaled] == \
            [coupling * float(row[0]) for row in unit]
    for argv in (["diag", "--sites", "8"], ["diag", "--sites", "8", "--mode",
                                            "band"]):
        unit, scaled = at(argv, 1.0), at(argv, coupling)
        assert [row[:3] for row in scaled] == [row[:3] for row in unit]
        assert [[float(v) for v in row[3:]] for row in scaled] == \
            [[coupling * float(v) for v in row[3:]] for row in unit]
    argv = ["adiabatic", "--sites", "8", "--trunc", "1.5", "--layers", "10"]
    unit = at(argv + ["--duration", "20"], 1.0)
    scaled = at(argv + ["--duration", repr(20 / coupling)], coupling)
    assert [float(row[0]) for row in scaled] == \
        [float(row[0]) / coupling for row in unit]
    assert [float(row[1]) for row in scaled] == \
        [coupling * float(row[1]) for row in unit]
    assert [row[2] for row in scaled] == [row[2] for row in unit]


def test_exit_code_resource_guard(capsys):
    # a second subcommand refused from the walk counts, besides diag
    assert main(["basis", "--sites", "30"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource guard:")
    assert "9694845 paths" in captured.err


def test_unconverged_lanczos_exits_with_the_resource_guard(monkeypatch,
                                                          capsys):
    eigsh = spla.eigsh
    monkeypatch.setattr(spla, "eigsh",
                        lambda *a, **kw: eigsh(*a, maxiter=1, **kw))
    assert main(["diag", "--sites", "14"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("resource guard: Lanczos")


def test_adiabatic_help_names_the_schedule_order():
    text = _subparsers()["adiabatic"].format_help()
    assert f"Trotter order (default {circuits.SCHEDULE_ORDER})" in text


def test_output_file(tmp_path, capsys):
    out = tmp_path / "basis.csv"
    code = main(["basis", "--sites", "4", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0] == "index,heights"


def test_coupling_rescales(capsys):
    _, out1 = run(["diag", "--sites", "4", "--trunc", "full"], capsys)
    _, out2 = run(["diag", "--sites", "4", "--trunc", "full",
                   "--coupling", "2"], capsys)
    e1 = float(out1.strip().splitlines()[1].split(",")[3])
    e2 = float(out2.strip().splitlines()[1].split(",")[3])
    assert e2 == 2 * e1


def _refused(argv, capsys) -> str:
    """main(argv) exits 3 with one resource guard line and no output; the
    line is returned."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("resource guard:")
    return captured.err


def _run_estimate(argv, monkeypatch, capsys) -> int:
    """The bytes of the first estimate sim checks on main(argv)'s route,
    refused there so that nothing runs."""
    needs = []

    def record(need, what):
        needs.append(need)
        raise ResourceLimitError(what)

    with monkeypatch.context() as patched:
        patched.setattr(sim, "check_budget", record)
        _refused(argv, capsys)
    return needs[0]


def test_sz_register_refused_beyond_cap(monkeypatch, capsys):
    # a lowered budget, one 6-qubit register, so that a broken guard would
    # allocate only 2^8 amplitudes
    monkeypatch.setattr(basis, "SECTOR_MAX_BYTES", 16 << 6)
    _refused(["evolve", "--sites", "8", "--basis", "sz"], capsys)


def test_csf_evolve_caps_only_its_encoded_register(monkeypatch, capsys):
    # the bond reference runs on the spin paths, so a csf evolve needs no
    # 2^N register: N=8 at truncation 1 (3 qubits) runs with the same output
    # under a budget that refuses the sz run's 2^8 registers, and truncation
    # 2 (6 qubits) is refused under a budget just below its estimate
    argv = ["evolve", "--sites", "8", "--trunc", "1"]
    sz_argv = ["evolve", "--sites", "8", "--basis", "sz"]
    trunc2_argv = ["evolve", "--sites", "8", "--trunc", "2"]
    _, expected = run(argv, capsys)
    sz_need = _run_estimate(sz_argv, monkeypatch, capsys)
    trunc2_need = _run_estimate(trunc2_argv, monkeypatch, capsys)
    monkeypatch.setattr(basis, "SECTOR_MAX_BYTES", sz_need - 1)
    _refused(sz_argv, capsys)
    assert run(argv, capsys) == (0, expected)
    monkeypatch.setattr(basis, "SECTOR_MAX_BYTES", trunc2_need - 1)
    assert run(argv, capsys) == (0, expected)
    _refused(trunc2_argv, capsys)


def test_csf_evolve_refuses_its_register_before_the_runs(monkeypatch, capsys):
    # N=24 at truncation 2 needs a 30-qubit register (16 GiB): refused
    # before either Trotter run starts
    def refuse(*args, **kwargs):
        raise AssertionError("a Trotter run started before the refusal")

    monkeypatch.setattr(sim, "trotter_evolve_csf", refuse)
    assert "30-qubit register" in _refused(
        ["evolve", "--sites", "24", "--trunc", "2"], capsys)


def test_csf_evolve_admits_a_27_qubit_register(capsys):
    # 2 GiB, within the budget, from np.zeros: only the rows of the 29 525
    # paths are written
    code, out = run(["evolve", "--sites", "22", "--trunc", "2", "--layers",
                     "1"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 3


@pytest.mark.parametrize("sites", [26, 1100])
def test_sz_run_refused_before_its_register(sites, monkeypatch, capsys):
    # 5 registers of 1 GiB at N=26's peak, above the 3 GiB budget; at
    # N=1100 an estimate beyond a float's range
    def refuse(*args, **kwargs):
        raise AssertionError("the register was built before the refusal")

    monkeypatch.setattr(sim, "sz_reference_state", refuse)
    assert "5 registers" in _refused(
        ["evolve", "--basis", "sz", "--sites", str(sites)], capsys)


@pytest.mark.parametrize("layers", [10 ** 9, 10 ** 400],
                         ids=["1e9", "1e400"])
@pytest.mark.parametrize("argv, module, run_name", [
    (["evolve", "--sites", "8", "--trunc", "1"], sim, "trotter_evolve_csf"),
    (["evolve", "--sites", "8", "--basis", "sz"], sim, "sz_reference_state"),
    (["adiabatic", "--sites", "8", "--trunc", "1.5"], adiabatic,
     "run_schedule"),
], ids=["csf", "sz", "adiabatic"])
def test_huge_layer_counts_refused_before_the_run(argv, module, run_name,
                                                    layers, monkeypatch,
                                                    capsys):
    # the recorded rows count against the budget before the first layer and
    # before any per-layer list is built, also past a float's range
    def refuse(*args, **kwargs):
        raise AssertionError("the run started before the refusal")

    monkeypatch.setattr(module, run_name, refuse)
    assert f"{layers + 1} recorded rows" in _refused(
        argv + ["--layers", str(layers)], capsys)


def test_diag_refused_beyond_sector_budget(monkeypatch, capsys):
    # a budget that admits every rung of the N=12 ladder but the full one:
    # the whole ladder is refused before its first rung is diagonalized
    monkeypatch.setattr(basis, "SECTOR_MAX_BYTES",
                        basis.sector_bytes(12, cardinality(12, 0)) - 1)
    assert main(["diag", "--sites", "12", "--trunc", "2"]) == 0
    capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("a rung was diagonalized before the refusal")

    monkeypatch.setattr(sga, "ground_state", refuse)
    for argv in (["diag", "--sites", "12"],
                 ["diag", "--sites", "12", "--trunc", "full"],
                 ["basis", "--sites", "12"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("resource guard:")


def test_height_ladder_refused_when_full_and_widest_rung_exceed_budget(
        monkeypatch, capsys):
    # the full rung stays held while the lower rungs are sliced and solved:
    # a budget between the full rung's estimate and that plus trunc 2's
    # admits the full rung alone and the band ladder, which holds one rung
    # at a time, but refuses the height ladder before any rung runs
    full = basis.sector_bytes(12, cardinality(12, 0))
    widest = basis.sector_bytes(12, len(enumerate_paths(12, 0, 4)))
    monkeypatch.setattr(basis, "SECTOR_MAX_BYTES", full + widest)
    assert main(["diag", "--sites", "12"]) == 0
    monkeypatch.setattr(basis, "SECTOR_MAX_BYTES", full)
    for argv in (["diag", "--sites", "12", "--trunc", "full"],
                 ["diag", "--sites", "12", "--mode", "band"]):
        assert main(argv) == 0
    capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("a rung was diagonalized before the refusal")

    monkeypatch.setattr(sga, "ground_state", refuse)
    code = main(["diag", "--sites", "12"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("resource guard:")
    assert "held at once" in captured.err


def test_diag_refuses_full_n30(capsys):
    # the real budget; refused from the walk counts alone
    assert main(["diag", "--sites", "30"]) == 3
    assert "9694845 paths" in capsys.readouterr().err


# The exit status of the process itself, not only main's return value:
# success, an unknown flag and a refusal
@pytest.mark.parametrize("argv, code", [
    (["diag", "--sites", "8"], 0),
    (["diag", "--sites", "8", "--oracle-check"], 2),
    (["diag", "--sites", "30"], 3)], ids=["ok", "unknown-flag", "refused"])
def test_process_exit_codes(argv, code):
    src = Path(__file__).parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONWARNINGS": "error"}
    proc = subprocess.run([sys.executable, "-m", "spinadapt.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stdout.startswith("trunc,mode,dim,ground_energy,gap\n")
        assert proc.stderr == ""
    else:
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
    if code == 2:
        assert proc.stderr.startswith("error:")
        assert "unrecognized arguments: --oracle-check" in proc.stderr
    if code == 3:
        assert proc.stderr.startswith("resource guard:")


def test_main_reuses_its_parser(capsys):
    # refusals in between leave the one parser of the process as it was
    argv_diag = ["diag", "--sites", "10", "--total-spin", "1"]
    argv_basis = ["basis", "--sites", "6", "--trunc", "1"]
    first = {"diag": run(argv_diag, capsys), "basis": run(argv_basis, capsys)}
    assert first["diag"][0] == first["basis"][0] == 0
    for argv in (["diag", "--sites", "ten"],
                 ["diag", "--sites", "10", "--oracle-check"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
    assert run(argv_basis, capsys) == first["basis"]
    assert run(argv_diag, capsys) == first["diag"]


def test_parser_built_on_first_main_call_only():
    # counted in a fresh interpreter: importing spinadapt.cli builds no
    # parser (setup cost of every command), main builds it once
    script = "\n".join([
        "import argparse, contextlib, io",
        "built = []",
        "init = argparse.ArgumentParser.__init__",
        "def counted(self, *args, **kwargs):",
        "    built.append(type(self))",
        "    init(self, *args, **kwargs)",
        "argparse.ArgumentParser.__init__ = counted",
        "from spinadapt import cli",
        "print(len(built))",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    for _ in range(3):",
        "        assert cli.main(['basis', '--sites', '4']) == 0",
        "print(len(built))",
        "cli.build_parser()",
        "print(len(built))"])
    src = Path(__file__).parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONWARNINGS": "error"}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    at_import, after_main, after_build = map(int, proc.stdout.split())
    assert at_import == 0
    # the parser and one subparser per subcommand
    assert after_main == 1 + len(_subparsers())
    assert after_build == 2 * after_main


# One default run per subcommand, and per branch where a subcommand has two
# (--basis, --sweep); every flag the subcommand takes is checked against it.
SCENARIOS = {
    "basis": ["basis", "--sites", "6"],
    "ham": ["ham", "--sites", "6", "--trunc", "1"],
    "diag": ["diag", "--sites", "6"],
    "evolve-csf": ["evolve", "--sites", "6", "--trunc", "1", "--layers", "2"],
    "evolve-sz": ["evolve", "--sites", "6", "--basis", "sz", "--layers", "2"],
    "adiabatic": ["adiabatic", "--sites", "6", "--trunc", "1"],
    "adiabatic-sweep": ["adiabatic", "--sites", "4", "--trunc", "1",
                        "--sweep"],
    "circuit-csf": ["circuit", "--sites", "6", "--trunc", "1"],
    "circuit-sz": ["circuit", "--sites", "6", "--basis", "sz"],
}
# a value other than the flag's value in the default run
FLAG_VALUES = {"--sites": "8", "--total-spin": "1", "--trunc": "0.5",
               "--coupling": "2", "--order": "2", "--duration": "3",
               "--layers": "3", "--mode": "height", "--format": "matrix",
               "--basis": "sz"}
SCENARIO_VALUES = {
    "diag": {"--mode": "band"},
    "evolve-sz": {"--basis": "csf"},
    "adiabatic": {"--order": "1"},
    "adiabatic-sweep": {"--order": "1"},
    "circuit-csf": {"--format": "qasm"},
    "circuit-sz": {"--basis": "csf", "--format": "qasm"},
}


def _subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _flag_actions(command):
    return [a for a in _subparsers()[command]._actions
            if a.option_strings and a.option_strings[0] != "-h"]


def test_scenarios_cover_every_subcommand():
    assert {argv[0] for argv in SCENARIOS.values()} == set(_subparsers())


@pytest.mark.parametrize("scenario, flag", [
    (scenario, action.option_strings[0])
    for scenario, argv in SCENARIOS.items()
    for action in _flag_actions(argv[0])])
def test_every_flag_changes_output_or_is_refused(scenario, flag, capsys,
                                                 tmp_path):
    base = SCENARIOS[scenario]
    assert main(base) == 0
    default = capsys.readouterr()
    action = next(a for a in _flag_actions(base[0])
                  if a.option_strings[0] == flag)
    if isinstance(action, argparse._StoreTrueAction):
        argv = [a for a in base if a != flag] if flag in base \
            else base + [flag]
    else:
        value = str(tmp_path / "out") if flag == "--out" else \
            SCENARIO_VALUES.get(scenario, {}).get(flag, FLAG_VALUES[flag])
        argv = list(base)
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
    code = main(argv)
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == ""
        assert captured.err.startswith("error:")
    else:
        # a flag that only adds a stderr line changes nothing a run outputs
        assert code == 0
        assert captured.out != default.out
