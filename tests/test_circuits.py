from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from spinadapt import encode_hamiltonian, enumerate_paths
from spinadapt.circuits import (Circuit, Gate, csf_trotter_step, export_gatelist,
                                export_qasm, heisenberg_bond_block,
                                parse_gatelist, sz_trotter_step)
from spinadapt.errors import UnsupportedConfigurationError
from spinadapt.oracle import sz_hamiltonian_matrix
from spinadapt.sim import circuit_unitary

GOLDEN = Path(__file__).parent / "golden"


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
    from spinadapt.oracle import apply_total_s2, apply_total_sz
    from spinadapt.sim import simulate, singlet_pair_state_sz
    n = 6
    state = simulate(sz_trotter_step(n, 0.37, 2), singlet_pair_state_sz(n))
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
def test_csf_step_unitary_and_exact_layers(n, ts, trunc):
    pauli = encode_hamiltonian(n, ts, trunc)
    ham = pauli.to_dense()
    dt = 0.29
    circ = csf_trotter_step(n, ts, trunc, dt, order=1)
    u = circuit_unitary(circ)
    dim = u.shape[0]
    assert np.abs(u @ u.conj().T - np.eye(dim)).max() < 1e-12
    # the step equals the product of the two exact layer exponentials:
    # reconstruct them from the band terms
    from spinadapt.encode import PauliString, PauliSum, band_terms, _expand_term
    from spinadapt.sga import band_coefficients
    layout = circ.metadata["layout"]
    layers = {0: np.zeros((dim, dim), complex), 1: np.zeros((dim, dim), complex)}
    for s in range(trunc):
        co = band_coefficients(s)
        for term in band_terms(layout, s):
            acc = {}
            _expand_term(term, layout.n_qubits, co.a, co.b, acc)
            mini = PauliSum(layout.n_qubits, tuple(
                PauliString(complex(v), k) for k, v in acc.items()))
            layers[(term.perm - 1) % 2] += mini.to_dense()
    phase = np.exp(1j * dt * (n - 1) / 4)
    ref = phase * expm(-1j * dt * 0.5 * layers[1]) @ expm(-1j * dt * 0.5 * layers[0])
    assert np.abs(u - ref).max() < 1e-10
    # and approximates the full exponential at first order
    full = expm(-1j * dt * ham)
    assert np.abs(u - full).max() < 0.3 * dt ** 2 * np.linalg.norm(ham) ** 2


@pytest.mark.parametrize("order,expected", [(1, 2.0), (2, 3.0)])
def test_csf_step_error_scaling(order, expected):
    n, ts, trunc = 8, 0, 3
    ham = encode_hamiltonian(n, ts, trunc).to_dense()
    dts = np.array([0.2, 0.1, 0.05, 0.025])
    errs = []
    for dt in dts:
        u = circuit_unitary(csf_trotter_step(n, ts, trunc, dt, order))
        errs.append(np.abs(u - expm(-1j * dt * ham)).max())
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert abs(slope - expected) < 0.3


def test_band_weights_scale_band_angles():
    n, ts, trunc = 8, 0, 2
    lam = 0.37
    circ = csf_trotter_step(n, ts, trunc, 0.4, order=1, ramp=lam)
    u = circuit_unitary(circ)
    # reference: exponentials of weighted layer Hamiltonians
    from spinadapt.encode import PauliString, PauliSum, band_terms, _expand_term
    from spinadapt.sga import band_coefficients
    layout = circ.metadata["layout"]
    dim = 1 << layout.n_qubits
    layers = {0: np.zeros((dim, dim), complex), 1: np.zeros((dim, dim), complex)}
    for s in range(trunc):
        co = band_coefficients(s)
        w = 1.0 if s == 0 else lam
        for term in band_terms(layout, s):
            acc = {}
            _expand_term(term, layout.n_qubits, co.a, co.b, acc)
            mini = PauliSum(layout.n_qubits, tuple(
                PauliString(complex(v), k) for k, v in acc.items()))
            layers[(term.perm - 1) % 2] += w * mini.to_dense()
    dt = 0.4
    ref = np.exp(1j * dt * (n - 1) / 4) * \
        expm(-1j * dt * 0.5 * layers[1]) @ expm(-1j * dt * 0.5 * layers[0])
    assert np.abs(u - ref).max() < 1e-10


def test_constant_folding_exact_on_pinned_sector():
    for n, ts, trunc in [(6, 0, 2), (6, 0, 3), (6, 0, 4)]:
        folded = csf_trotter_step(n, ts, trunc, 0.31, order=1)
        unfolded = csf_trotter_step(n, ts, trunc, 0.31, order=1, boundary=False)
        basis = enumerate_paths(n, ts, trunc)
        lf, lu = folded.metadata["layout"], unfolded.metadata["layout"]
        uf = circuit_unitary(folded)[np.ix_(lf.physical_bitstrings(basis),
                                            lf.physical_bitstrings(basis))]
        uu = circuit_unitary(unfolded)[np.ix_(lu.physical_bitstrings(basis),
                                              lu.physical_bitstrings(basis))]
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
    assert parse_gatelist(export_gatelist(circ)) == Circuit(5, circ.gates)
    empty = Circuit(3, ())
    assert export_gatelist(empty) == "qubits 3\n"
    assert parse_gatelist("qubits 3\n") == empty


def test_qasm_export_structure():
    text = export_qasm(sz_trotter_step(4, 0.2, 1))
    lines = text.splitlines()
    assert lines[0] == "OPENQASM 3.0;"
    assert "qubit[4] q;" in lines
    assert any(line.startswith("cx q[") for line in lines)


def test_golden_circuits_are_stable_and_correct():
    cases = [
        ("step_n8_s0_trunc1.gates", (8, 0, 2), 3),
        ("step_n8_s0_trunc32.gates", (8, 0, 3), 5),
    ]
    for fname, (n, ts, trunc), nq in cases:
        circ = csf_trotter_step(n, ts, trunc, 0.1, order=1)
        assert circ.n_qubits == nq
        text = export_gatelist(circ)
        golden = (GOLDEN / fname).read_text()
        assert text == golden
        # the pinned list implements the product of its band exponentials
        parsed = parse_gatelist(golden)
        u = circuit_unitary(parsed)
        from spinadapt.encode import PauliString, PauliSum, band_terms, \
            _expand_term
        from spinadapt.sga import band_coefficients
        layout = circ.metadata["layout"]
        dim = 1 << nq
        layers = {0: np.zeros((dim, dim), complex),
                  1: np.zeros((dim, dim), complex)}
        for s in range(trunc):
            co = band_coefficients(s)
            for term in band_terms(layout, s):
                acc = {}
                _expand_term(term, layout.n_qubits, co.a, co.b, acc)
                mini = PauliSum(layout.n_qubits, tuple(
                    PauliString(complex(v), k) for k, v in acc.items()))
                layers[(term.perm - 1) % 2] += mini.to_dense()
        ref = np.exp(1j * 0.1 * (n - 1) / 4) * \
            expm(-1j * 0.1 * 0.5 * layers[1]) @ expm(-1j * 0.1 * 0.5 * layers[0])
        assert np.abs(u - ref).max() < 1e-10
