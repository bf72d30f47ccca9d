import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from spinadapt import (ResourceLimitError, UnsupportedConfigurationError,
                       encode_hamiltonian, enumerate_paths, singlet_pair_path)
from spinadapt import circuits, sim
from spinadapt.basis import initial_path
from spinadapt.circuits import Circuit, Gate, csf_trotter_step, sz_trotter_step
from spinadapt.encode import BandTerm, build_layout
from spinadapt.oracle import sz_hamiltonian_matrix
from spinadapt.sga import build_hamiltonian
from spinadapt.sim import (EvolutionRecord, StateVector, basis_state,
                           bond_energies_sz, circuit_unitary,
                           decode_to_path_vector, embed_path_vector,
                           exact_evolve, fidelity, s2_expectation_sz,
                           simulate, singlet_pair_state_sz,
                           sz_expectation_sz, sz_reference_state,
                           sz_trotter_layer, total_energy_sz,
                           trotter_comparison_csf, trotter_evolve_csf,
                           trotter_evolve_sz, zero_state)


def test_identity_circuit_keeps_state():
    state = singlet_pair_state_sz(4)
    out = simulate(Circuit(4, ()), state)
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_x_gate():
    out = simulate(Circuit(1, (Gate("X", 0),)), zero_state(1))
    assert np.allclose(out.amplitudes, [0, 1])


def test_cx_both_orientations():
    state = basis_state(2, 0b10)  # qubit 0 set
    out = simulate(Circuit(2, (Gate("CX", 1, control=0),)), state)
    assert np.argmax(np.abs(out.amplitudes)) == 0b11
    state = basis_state(2, 0b01)  # qubit 1 set
    out = simulate(Circuit(2, (Gate("CX", 0, control=1),)), state)
    assert np.argmax(np.abs(out.amplitudes)) == 0b11


def test_rotation_gates_match_matrices():
    for kind, mat in [
        ("RX", lambda t: np.array([[np.cos(t / 2), -1j * np.sin(t / 2)],
                                   [-1j * np.sin(t / 2), np.cos(t / 2)]])),
        ("RY", lambda t: np.array([[np.cos(t / 2), -np.sin(t / 2)],
                                   [np.sin(t / 2), np.cos(t / 2)]])),
        ("RZ", lambda t: np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)])),
    ]:
        theta = 0.734
        u = circuit_unitary(Circuit(1, (Gate(kind, 0, angle=theta),)))
        assert np.abs(u - mat(theta)).max() < 1e-12


def test_unitary_guard_is_a_resource_limit():
    with pytest.raises(ResourceLimitError):
        circuit_unitary(Circuit(13, ()))


def test_norm_preserved_through_deep_circuit():
    circ = sz_trotter_step(8, 0.7, 2)
    state = singlet_pair_state_sz(8)
    for _ in range(20):
        state = simulate(circ, state)
    assert abs(state.norm() - 1.0) < 1e-10


def test_bond_block_acts_like_exponential_on_singlet():
    # one bond block applied to a Bell singlet reproduces the phase -3dt/4
    dt = 0.53
    circ = sz_trotter_step(2, dt, 1)
    state = simulate(circ, singlet_pair_state_sz(2))
    expected = np.exp(1j * 0.75 * dt) * singlet_pair_state_sz(2).amplitudes
    assert np.abs(state.amplitudes - expected).max() < 1e-12


def test_exact_evolve_identity_and_phase():
    ham = sz_hamiltonian_matrix(2)
    amps = singlet_pair_state_sz(2).amplitudes
    assert np.allclose(exact_evolve(ham, amps, 0.0), amps)
    out = exact_evolve(ham, amps, 1.3)
    assert np.abs(out - np.exp(1j * 0.75 * 1.3) * amps).max() < 1e-10


def test_exact_evolve_krylov_branch():
    # a 2^13-dimensional register, beyond what a dense exponential would allow
    ham = sz_hamiltonian_matrix(13)
    amps = np.zeros(1 << 13, complex)
    amps[0b0101010101010] = 1.0
    out = exact_evolve(ham, amps, 0.2)
    assert abs(np.linalg.norm(out) - 1) < 1e-10
    # energy is conserved
    e0 = np.vdot(amps, ham @ amps).real
    e1 = np.vdot(out, ham @ out).real
    assert abs(e0 - e1) < 1e-8


# durations reach t*||H||_1 well above theta_55 = 9.9, where the Taylor
# kernel takes several scaling steps; 5e-324 is the smallest subnormal
@given(st.integers(min_value=1, max_value=5), st.sampled_from([0, 2]),
       st.integers(min_value=1, max_value=4), st.sampled_from(["band", "height"]),
       st.floats(min_value=0.0, max_value=100.0), st.integers(0, 2**32 - 1))
@example(5, 0, 4, "height", 100.0, 0)
@example(5, 2, 3, "band", 5e-324, 0)
@settings(max_examples=40, deadline=None)
def test_exact_evolve_matches_dense_exponential(n_half, ts, trunc, mode,
                                                duration, seed):
    assume(trunc >= ts)   # below 2S the sector is empty
    ham = build_hamiltonian(enumerate_paths(2 * n_half, ts, trunc), mode)
    rng = np.random.default_rng(seed)
    dim = ham.matrix.shape[0]
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    vec /= np.linalg.norm(vec)
    expected = scipy.linalg.expm(-1j * duration * ham.toarray()) @ vec
    assert np.abs(exact_evolve(ham, vec, duration) - expected).max() < 1e-12


# diagonal H and slope commute, so the ramp's propagator is the phase
# exp(-i (a T + b T^2 / 2)) per row; durations reach T^2 ||slope||_1 = 200.
# (3, 1.5, 0) needs the slope's sqrt(m beta) term in the step bound: one
# step without it leaves terms of 1e-16 at degree 55
@given(st.integers(min_value=1, max_value=12),
       st.floats(min_value=0.0, max_value=10.0), st.integers(0, 2**32 - 1))
@example(12, 10.0, 0)
@example(3, 1.5, 0)
@example(5, 5e-324, 0)
@settings(max_examples=40, deadline=None)
def test_ramp_propagator_matches_closed_form(dim, duration, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-2.0, 2.0, size=(2, dim))
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    vec /= np.linalg.norm(vec)
    out = exact_evolve(sp.diags(a), vec, duration, slope=sp.diags(b))
    expected = np.exp(-1j * (a * duration + b * duration ** 2 / 2)) * vec
    assert np.abs(out - expected).max() < 1e-12
    # a zero slope is the constant Hamiltonian
    ham = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    ham = (ham + ham.conj().T) / 2
    still = exact_evolve(ham, vec, duration, slope=np.zeros((dim, dim)))
    assert np.abs(still - exact_evolve(ham, vec, duration)).max() < 1e-14


def test_exact_evolve_accepts_operator_types():
    basis = enumerate_paths(8, 0, 3)
    op = build_hamiltonian(basis, "band")
    vec = np.zeros(len(basis), complex)
    vec[0] = 1.0
    out_op = exact_evolve(op, vec, 0.7)
    pauli = encode_hamiltonian(8, 0, 3)
    layout = pauli.metadata["layout"]
    qvec = np.zeros(1 << pauli.n_qubits, complex)
    qvec[layout.encode_path(basis.paths[0])] = 1.0
    out_q = exact_evolve(pauli.to_dense(), qvec, 0.7)
    dec = out_q[layout.physical_bitstrings(basis)]
    assert np.abs(np.abs(np.vdot(out_op, dec)) - 1.0) < 1e-10


def test_singlet_pair_observables():
    for n in (8, 16):
        state = singlet_pair_state_sz(n)
        bonds = bond_energies_sz(state)
        assert np.allclose(bonds[0::2], -0.75, atol=1e-12)
        assert np.allclose(bonds[1::2], 0.0, atol=1e-12)
        assert abs(total_energy_sz(state) - (-3 * n / 8)) < 1e-12
    assert abs(total_energy_sz(singlet_pair_state_sz(16)) - (-6.0)) < 1e-12


def test_energies_real_on_random_state():
    rng = np.random.default_rng(5)
    amps = rng.normal(size=64) + 1j * rng.normal(size=64)
    amps /= np.linalg.norm(amps)
    state = StateVector(6, amps)
    assert np.all(np.isfinite(bond_energies_sz(state)))


def test_fidelity_properties():
    a = singlet_pair_state_sz(4)
    assert fidelity(a, a) == pytest.approx(1.0)
    b = basis_state(4, 3)
    c = basis_state(4, 5)
    assert fidelity(b, c) == pytest.approx(0.0)


def test_sz_trotter_conserves_symmetry_n8():
    for total_spin_x2 in (0, 2):
        spin = total_spin_x2 / 2
        record, _ = trotter_evolve_sz(8, total_spin_x2, 4.0, 8, order=2,
                                      track_symmetry=True)
        assert np.abs(record.aux["s_squared"] - spin * (spin + 1)).max() < 1e-10
        assert np.abs(record.aux["total_sz"] - spin).max() < 1e-10
        assert record.times[0] == 0.0 and record.times.size == 9
        assert np.all(np.diff(record.times) > 0)


def test_scalar_truncation_observables_constant():
    record, basis, layout = trotter_evolve_csf(8, 0, 1, 4.0, 6, order=1)
    assert np.abs(record.total_energy - record.total_energy[0]).max() < 1e-12
    assert record.total_energy[0] == pytest.approx(-3.0)  # -3/4 * 4 bonds


def test_csf_evolution_stays_physical():
    # unit norm on the paths; test_path_basis_run_matches_register shows
    # the register holds the same vector, so it keeps no weight outside them
    record, basis, layout = trotter_evolve_csf(8, 0, 3, 3.0, 6, order=1)
    assert np.abs(np.linalg.norm(record.path_vectors, axis=1) - 1.0).max() \
        < 1e-10


def test_csf_converges_to_exact_at_full_truncation():
    # at the geometric ceiling the encoded dynamics follow the exact evolution
    n, duration = 8, 2.0
    basis = enumerate_paths(n, 0, 4)
    ham = build_hamiltonian(basis, "band")  # ceiling: equals full Hamiltonian
    start = np.zeros(len(basis), complex)
    start[basis.position(singlet_pair_path(n))] = 1.0
    exact = exact_evolve(ham, start, duration)
    errs = []
    for layers in (8, 16, 32):
        record, *_ = trotter_evolve_csf(n, 0, 4, duration, layers, order=2)
        errs.append(1.0 - abs(np.vdot(exact, record.path_vectors[-1])))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 1e-5


@given(st.integers(min_value=1, max_value=6), st.sampled_from([0, 2]),
       st.integers(min_value=1, max_value=4), st.sampled_from([1, 2]),
       st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                max_size=3))
@settings(max_examples=30, deadline=None)
def test_path_basis_run_matches_register(n_half, ts, trunc, order, ramps):
    # the gate-level register, decoded after every layer, is the reference
    # for the encoded run on the spin-path vector
    assume(trunc >= ts)   # below 2S the sector is empty
    n, duration, coupling = 2 * n_half, 1.3, 0.9
    record, basis, layout = trotter_evolve_csf(n, ts, trunc, duration,
                                               len(ramps), order, coupling,
                                               ramps=ramps)
    state = basis_state(layout.n_qubits,
                        layout.encode_path(initial_path(n, ts)))
    dt = duration / len(ramps)
    vectors = [decode_to_path_vector(state, basis, layout)]
    for ramp in ramps:
        state = simulate(csf_trotter_step(n, ts, trunc, dt, order, ramp,
                                          coupling, layout=layout), state)
        vectors.append(decode_to_path_vector(state, basis, layout))
    assert np.abs(np.array(vectors) - record.path_vectors).max() < 1e-12


def test_leaking_mixing_term_is_refused(monkeypatch):
    # an uncontrolled flip of the first qubit leaves the physical sector
    original = circuits.band_terms

    def with_leak(layout, s_x2):
        leak = BandTerm(1, s_x2, 1.0, (), 0)
        return original(layout, s_x2) + ([leak] if s_x2 == 0 else [])

    monkeypatch.setattr(circuits, "band_terms", with_leak)
    with pytest.raises(UnsupportedConfigurationError, match="band term"):
        trotter_evolve_csf(8, 0, 3, 1.0, 2)


@pytest.mark.parametrize("duration, coupling, ramp", [
    (float("nan"), 1.0, 1.0), (np.inf, 1.0, 1.0), (1.0, float("nan"), 1.0),
    (1.0, 1.0, float("nan")), (1.0, 1.0, np.inf)])
def test_non_finite_step_raises(duration, coupling, ramp):
    for trunc in (1, 3):
        with pytest.raises(ValueError, match="finite"):
            trotter_evolve_csf(8, 0, trunc, duration, 2, coupling=coupling,
                               ramps=[ramp, ramp])


def test_register_refused_beyond_cap():
    # N=24 at truncation 2 runs on its 88 574 paths, but its 30-qubit
    # register would need 16 GiB
    basis = enumerate_paths(24, 0, 4)
    layout = build_layout(24, 0, 4)
    with pytest.raises(ResourceLimitError):
        embed_path_vector(np.zeros(len(basis), complex), basis, layout)


@given(st.integers(min_value=2, max_value=10), st.sampled_from([1, 2]),
       st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=0.25, max_value=4.0), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_sz_layer_matches_gate_simulator(n, order, dt, coupling, seed):
    # the gate-by-gate step is the reference for the register kernel
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    state = StateVector(n, amps / np.linalg.norm(amps))
    kept = state.amplitudes.copy()
    out = sz_trotter_layer(n, dt, order, coupling)(state)
    expected = simulate(sz_trotter_step(n, dt, order, coupling), state)
    assert np.abs(out.amplitudes - expected.amplitudes).max() < 1e-12
    assert np.array_equal(state.amplitudes, kept)   # input left as it was


@pytest.mark.parametrize("n, ts, order", [(2, 0, 1), (6, 2, 2), (8, 0, 2),
                                          (10, 2, 1)])
def test_sz_run_matches_gate_loop(n, ts, order):
    duration, layers, coupling = 2.3, 5, 0.7
    record, final = trotter_evolve_sz(n, ts, duration, layers, order,
                                      coupling, track_symmetry=True)
    state = sz_reference_state(n, ts)
    step = sz_trotter_step(n, duration / layers, order, coupling)
    seen = [state]
    for _ in range(layers):
        state = simulate(step, state)
        seen.append(state)
    bonds = np.array([bond_energies_sz(s, coupling) for s in seen])
    assert np.abs(record.bond_energies - bonds).max() < 1e-12
    assert np.abs(record.total_energy - bonds.sum(axis=1)).max() < 1e-12
    assert np.abs(record.aux["s_squared"]
                  - [s2_expectation_sz(s) for s in seen]).max() < 1e-12
    assert np.abs(record.aux["total_sz"]
                  - [sz_expectation_sz(s) for s in seen]).max() < 1e-12
    assert np.abs(final.amplitudes - state.amplitudes).max() < 1e-12


def test_sz_layer_norm_drift_bounded():
    # 200 order-2 steps of the N=12 singlet-pair state; the state is never
    # renormalised, so this bounds the drift the kernel accumulates
    layer = sz_trotter_layer(12, 0.1, 2)
    state = singlet_pair_state_sz(12)
    for _ in range(200):
        state = layer(state)
    assert abs(state.norm() - 1.0) < 1e-12


def test_sz_layer_refuses_non_finite_step():
    for dt, coupling in [(float("nan"), 1.0), (1.0, np.inf)]:
        with pytest.raises(ValueError, match="finite"):
            sz_trotter_layer(4, dt, 1, coupling)


def test_sz_register_refused_beyond_cap(monkeypatch):
    # the cap is lowered so that a broken guard would allocate only 2^8
    # amplitudes; the encoded run must not start either
    monkeypatch.setattr(sim, "REGISTER_MAX_QUBITS", 6)

    def refuse(*args, **kwargs):
        raise AssertionError("the encoded run started above the cap")

    monkeypatch.setattr(sim, "trotter_evolve_csf", refuse)
    for build in (lambda: sz_reference_state(8, 0),
                  lambda: sz_reference_state(8, 2),
                  lambda: singlet_pair_state_sz(8),
                  lambda: trotter_evolve_sz(8, 0, 1.0, 2),
                  lambda: trotter_comparison_csf(8, 0, 2, 1.0, 2)):
        with pytest.raises(ResourceLimitError, match="6 qubits"):
            build()
    assert sz_reference_state(6, 2).amplitudes.size == 1 << 6


def test_exact_evolve_agrees_with_richardson_trotter():
    # order-2 Trotter states at n and 2n layers extrapolate to O(dt^4):
    # the combination must land much closer to the exact state
    n, duration = 8, 1.0
    ham = sz_hamiltonian_matrix(n)
    start = singlet_pair_state_sz(n)
    exact = exact_evolve(ham, start.amplitudes, duration)

    def final_state(layers):
        state = start.copy()
        step = sz_trotter_step(n, duration / layers, 2)
        for _ in range(layers):
            state = simulate(step, state)
        return state.amplitudes

    coarse, fine = final_state(8), final_state(16)
    plain_err = np.linalg.norm(fine - exact)
    richardson = (4 * fine - coarse) / 3
    rich_err = np.linalg.norm(richardson - exact)
    assert rich_err < plain_err / 5
    assert rich_err < 1e-5


def test_order2_drift_scales_inverse_square():
    n, duration = 8, 3.0
    drifts = []
    for layers in (8, 16, 32, 64):
        record, _ = trotter_evolve_sz(n, 0, duration, layers, order=2)
        drifts.append(np.abs(record.total_energy - record.total_energy[0]).max())
    slope = np.polyfit(np.log([8, 16, 32, 64]), np.log(drifts), 1)[0]
    assert abs(slope - (-2.0)) < 0.4


def test_record_csv_format():
    record = EvolutionRecord(np.array([0.0, 1.0]), np.array([-1.0, -0.9]),
                             np.array([[-0.5, -0.5], [-0.45, -0.45]]),
                             {"fidelity": np.array([1.0, 0.99])})
    text = record.to_csv()
    lines = text.splitlines()
    assert lines[0] == "t,total_energy,fidelity,bond_1,bond_2"
    assert len(lines) == 3
