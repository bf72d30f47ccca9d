import argparse
import time

import pytest
from spinadapt import basis, sga, sim
from spinadapt.basis import cardinality, enumerate_paths
from spinadapt.cli import TRUNC_CHOICES, build_parser, main


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


@pytest.mark.parametrize("argv", [
    ["evolve", "--sites", "4", "--trunc", "2", "--duration", "1e308"],
    ["adiabatic", "--sites", "4", "--trunc", "1", "--duration", "1e300"]],
    ids=lambda argv: argv[0])
def test_huge_duration_refused_before_the_exact_reference_runs(argv, capsys):
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 5.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource guard:")
    assert "Taylor steps" in captured.err


def test_exit_code_resource_guard(capsys):
    code = main(["diag", "--sites", "16", "--oracle-check"])
    assert code == 3


def test_oracle_check_passes_small(capsys):
    code = main(["diag", "--sites", "6", "--oracle-check", "--trunc", "full"])
    assert code == 0


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


def test_sz_register_refused_beyond_cap(monkeypatch, capsys):
    # a lowered cap, so that a broken guard would allocate only 2^8
    # amplitudes; the sz run and the sz column of a csf run both exit 3
    monkeypatch.setattr(sim, "REGISTER_MAX_QUBITS", 6)
    for argv in (["evolve", "--sites", "8", "--basis", "sz"],
                 ["evolve", "--sites", "8", "--trunc", "1"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("resource guard:")


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


def test_diag_refuses_full_n30(capsys):
    # the real budget; refused from the walk counts alone
    assert main(["diag", "--sites", "30"]) == 3
    assert "9694845 paths" in capsys.readouterr().err


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
        assert code == 0
        assert (captured.out, captured.err) != (default.out, default.err)
