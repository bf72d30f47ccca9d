import numpy as np
import pytest
from scipy.linalg import expm

from spinadapt import build_layout, encode_hamiltonian, enumerate_paths
from spinadapt.circuits import (Circuit, Gate, csf_trotter_step, export_gatelist,
                                export_qasm, heisenberg_bond_block,
                                sz_trotter_step)
from spinadapt.errors import UnsupportedConfigurationError
from spinadapt.sim import (StateVector, apply_total_sz, simulate,
                           sz_reference_state)

from references import (apply_total_s2, circuit_unitary, sz_hamiltonian_matrix,
                        to_dense, unfolded_layout, unfolded_trotter_step)


def bond_exponential(theta):
    xx_yy_zz = np.zeros((4, 4), complex)
    for mat in (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                np.diag([1, -1])):
        xx_yy_zz += np.kron(mat, mat)
    return expm(-1j * theta * xx_yy_zz)


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("CZ", 0)
    with pytest.raises(ValueError):
        Gate("CX", 1, control=1)
    with pytest.raises(ValueError):
        Circuit(1, (Gate("RY", 3, angle=0.1),))


def test_bond_block_matches_exponential():
    for theta in (-1.3, -0.2, 0.0, 0.41, 2.2):
        circ = Circuit(2, tuple(heisenberg_bond_block(0, 1, theta)))
        u = circuit_unitary(circ)
        assert np.abs(u - bond_exponential(theta)).max() < 1e-12


def test_sz_step_identity_at_zero_dt():
    circ = sz_trotter_step(4, 0.0, order=1)
    u = circuit_unitary(circ)
    assert np.abs(u - np.eye(16)).max() < 1e-12


def test_sz_step_two_sites_exact():
    for dt in (0.3, 1.1):
        for order in (1, 2):
            u = circuit_unitary(sz_trotter_step(2, dt, order))
            ref = expm(-1j * dt * sz_hamiltonian_matrix(2).toarray())
            assert np.abs(u - ref).max() < 1e-12


def test_sz_step_conserves_total_spin():
    n = 6
    state = simulate(sz_trotter_step(n, 0.37, 2), sz_reference_state(n, 0))
    amps = state.amplitudes
    assert np.linalg.norm(apply_total_s2(amps, n)) < 1e-10
    assert np.linalg.norm(apply_total_sz(amps, n)) < 1e-10


@pytest.mark.parametrize("order,expected", [(1, 2.0), (2, 3.0)])
def test_sz_step_error_scaling(order, expected):
    n = 8
    ham = sz_hamiltonian_matrix(n).toarray()
    dts = np.array([0.2, 0.1, 0.05, 0.025])
    errs = []
    for dt in dts:
        u = circuit_unitary(sz_trotter_step(n, dt, order))
        errs.append(np.abs(u - expm(-1j * dt * ham)).max())
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert abs(slope - expected) < 0.3


@pytest.mark.parametrize("n,ts,trunc", [(6, 0, 2), (8, 0, 2), (8, 0, 3),
                                        (8, 0, 4), (8, 2, 3), (6, 2, 4)])
def test_csf_step_unitary_and_exact_layers(n, ts, trunc, band_step_reference):
    pauli = encode_hamiltonian(n, ts, trunc)
    ham = to_dense(pauli)
    dt = 0.29
    circ = csf_trotter_step(n, ts, trunc, dt, order=1)
    u = circuit_unitary(circ)
    dim = u.shape[0]
    assert np.abs(u @ u.conj().T - np.eye(dim)).max() < 1e-12
    # the step equals the product of the two exact layer exponentials
    ref = band_step_reference(build_layout(n, ts, trunc), dt)
    assert np.abs(u - ref).max() < 1e-10
    # and approximates the full exponential at first order
    full = expm(-1j * dt * ham)
    assert np.abs(u - full).max() < 0.3 * dt ** 2 * np.linalg.norm(ham) ** 2


@pytest.mark.parametrize("order,expected", [(1, 2.0), (2, 3.0)])
def test_csf_step_error_scaling(order, expected):
    n, ts, trunc = 8, 0, 3
    ham = to_dense(encode_hamiltonian(n, ts, trunc))
    dts = np.array([0.2, 0.1, 0.05, 0.025])
    errs = []
    for dt in dts:
        u = circuit_unitary(csf_trotter_step(n, ts, trunc, dt, order))
        errs.append(np.abs(u - expm(-1j * dt * ham)).max())
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert abs(slope - expected) < 0.3


def test_band_weights_scale_band_angles(band_step_reference):
    lam, dt = 0.37, 0.4
    circ = csf_trotter_step(8, 0, 2, dt, order=1, ramp=lam)
    # reference: exponentials of weighted layer Hamiltonians
    ref = band_step_reference(build_layout(8, 0, 2), dt, lam)
    assert np.abs(circuit_unitary(circ) - ref).max() < 1e-10


def _physical_block(circuit, layout, basis):
    """The circuit's unitary between the basis paths' bit-strings under
    layout: one simulate of just those columns, batched behind the
    register."""
    bits = layout.physical_bitstrings(basis)
    cols = np.zeros((1 << circuit.n_qubits, bits.size), complex)
    cols[bits, np.arange(bits.size)] = 1.0
    out = simulate(circuit, StateVector(circuit.n_qubits, cols.reshape(-1)))
    return out.amplitudes.reshape(cols.shape)[bits]


def test_constant_folding_exact_on_pinned_sector():
    for n, ts, trunc in [(6, 0, 2), (6, 0, 3), (6, 0, 4)]:
        folded = csf_trotter_step(n, ts, trunc, 0.31, order=1)
        unfolded = unfolded_trotter_step(n, ts, trunc, 0.31, order=1)
        basis = enumerate_paths(n, ts, trunc)
        uf = _physical_block(folded, build_layout(n, ts, trunc), basis)
        uu = _physical_block(unfolded, unfolded_layout(n, ts, trunc), basis)
        assert np.abs(uf - uu).max() < 1e-10


def test_scalar_subspace_step_is_global_phase():
    circ = csf_trotter_step(16, 0, 1, 0.5, order=2)
    assert circ.n_qubits == 0
    u = circuit_unitary(circ)
    assert np.abs(u - np.exp(1j * 0.5 * 7.75)).max() < 1e-12


def test_unsupported_order():
    with pytest.raises(UnsupportedConfigurationError):
        sz_trotter_step(4, 0.1, order=3)


def test_export_round_trip():
    circ = csf_trotter_step(8, 0, 3, 0.17, order=2)
    lines = export_gatelist(circ).splitlines()
    assert lines[0] == "qubits 5"
    # every written number reads back exactly
    for line, gate in zip(lines[1:], circ.gates, strict=True):
        kind, *fields = line.split()
        assert kind == gate.kind
        if kind == "CX":
            assert [int(f) for f in fields] == [gate.control, gate.target]
        else:
            assert (int(fields[0]), float(fields[1])) == (gate.target, gate.angle)
    assert export_gatelist(Circuit(3, ())) == "qubits 3\n"


def test_qasm_export_structure():
    text = export_qasm(sz_trotter_step(4, 0.2, 1))
    lines = text.splitlines()
    assert lines[0] == "OPENQASM 3.0;"
    assert "qubit[4] q;" in lines
    assert any(line.startswith("cx q[") for line in lines)
