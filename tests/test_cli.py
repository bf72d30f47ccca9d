import pytest
from spinadapt.cli import main


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
])
def test_refused_configuration_prints_error(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


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
