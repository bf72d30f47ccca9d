import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from spinadapt import (InvalidQuantumNumbersError, ResourceLimitError,
                       encode_hamiltonian, enumerate_paths,
                       permutation_matrix, singlet_pair_path)
from spinadapt import sga, sim
from spinadapt.basis import (cardinality, initial_path, sector_bytes,
                             untruncated_level)
from spinadapt.circuits import (Circuit, Gate, csf_trotter_step, sublayers,
                                sz_trotter_step)
from spinadapt.encode import build_layout
from spinadapt.adiabatic import schedule_hamiltonians
from spinadapt.sga import SparseOperator, _bond_sums, build_hamiltonian
from spinadapt.sim import (EvolutionRecord, PathStep, StateVector,
                           bond_energies_csf, bond_energies_sz,
                           decode_to_path_vector, embed_path_vector,
                           exact_evolve, fidelity, path_trotter_run,
                           s2_expectation_sz, simulate, start_vector,
                           sz_expectation_sz, sz_reference_state,
                           sz_trotter_layer, trotter_comparison_csf,
                           trotter_evolve_csf, trotter_evolve_sz)

from references import (apply_permutation, apply_total_s2, basis_state,
                        circuit_unitary, encode_path, sz_hamiltonian_matrix,
                        to_dense, unfolded_trotter_step)


def test_identity_circuit_keeps_state():
    state = sz_reference_state(4, 0)
    out = simulate(Circuit(4, ()), state)
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_cx_both_orientations():
    state = basis_state(2, 0b10)  # qubit 0 set
    out = simulate(Circuit(2, (Gate("CX", 1, control=0),)), state)
    assert np.argmax(np.abs(out.amplitudes)) == 0b11
    state = basis_state(2, 0b01)  # qubit 1 set
    out = simulate(Circuit(2, (Gate("CX", 0, control=1),)), state)
    assert np.argmax(np.abs(out.amplitudes)) == 0b11


def test_rotation_gates_match_matrices():
    for kind, mat in [
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


def _unitary_by_columns(circuit):
    """The column loop circuit_unitary replaced: one simulate per basis
    state."""
    return np.column_stack([
        simulate(circuit, basis_state(circuit.n_qubits, k)).amplitudes
        for k in range(1 << circuit.n_qubits)])


@pytest.mark.parametrize("circuit", [
    csf_trotter_step(8, 0, 3, 0.37, 2, 0.6, 1.3),
    csf_trotter_step(8, 2, 4, 0.21, 1),
    unfolded_trotter_step(4, 0, 4, 0.3, 2),
    sz_trotter_step(5, 0.4, 2, 0.8),
    Circuit(3, (Gate("CX", 0, control=2), Gate("RY", 1, angle=0.3),
                Gate("PHASE", 0, angle=0.2), Gate("RZ", 2, angle=-1.1))),
], ids=["csf-trunc32", "csf-gray-s1", "csf-unfolded", "sz", "mixed"])
def test_batched_unitary_matches_column_loop(circuit):
    # the identity block runs as one register with a trailing batch axis
    assert np.abs(circuit_unitary(circuit)
                  - _unitary_by_columns(circuit)).max() < 1e-14


def test_norm_preserved_through_deep_circuit():
    circ = sz_trotter_step(8, 0.7, 2)
    state = sz_reference_state(8, 0)
    for _ in range(20):
        state = simulate(circ, state)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10


def test_bond_block_acts_like_exponential_on_singlet():
    # one bond block applied to a Bell singlet reproduces the phase -3dt/4
    dt = 0.53
    circ = sz_trotter_step(2, dt, 1)
    state = simulate(circ, sz_reference_state(2, 0))
    expected = np.exp(1j * 0.75 * dt) * sz_reference_state(2, 0).amplitudes
    assert np.abs(state.amplitudes - expected).max() < 1e-12


def test_exact_evolve_identity_and_phase():
    ham = sz_hamiltonian_matrix(2)
    amps = sz_reference_state(2, 0).amplitudes
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
    layout = build_layout(8, 0, 3)
    qvec = np.zeros(1 << pauli.n_qubits, complex)
    qvec[encode_path(layout, next(iter(basis)))] = 1.0
    out_q = exact_evolve(to_dense(pauli), qvec, 0.7)
    dec = out_q[layout.physical_bitstrings(basis)]
    assert np.abs(np.abs(np.vdot(out_op, dec)) - 1.0) < 1e-10


def _two_product_evolve(hamiltonian, amplitudes, duration, slope=None):
    """The single-interval form exact_evolve replaced: the same series and
    step rule, with one product with H and one with the slope per term."""
    def trace_and_norm1(mat):
        if sp.issparse(mat):
            mat = mat.tocsr()
            col_sums = np.bincount(mat.indices, np.abs(mat.data), mat.shape[1])
        else:
            col_sums = np.abs(mat).sum(axis=0)
        return mat.diagonal().sum(), float(col_sums.max(initial=0.0))

    mat, slope = (op.matrix if isinstance(op, SparseOperator) else op
                  for op in (hamiltonian, slope))
    psi = amplitudes.astype(complex)
    if duration == 0.0:
        return psi
    trace, norm1 = trace_and_norm1(mat)
    mu, nu = trace / mat.shape[0], 0.0
    bound = abs(duration) * (norm1 + abs(mu))
    if slope is not None:
        trace, norm1 = trace_and_norm1(slope)
        nu = trace / mat.shape[0]
        norm1 += abs(nu)
        bound = bound + abs(duration) * (abs(duration) * norm1
                                         + np.sqrt(sim._DEGREES * norm1))
    steps = np.maximum(1.0, np.ceil(bound / sim._THETAS))
    s = int(steps[np.argmin(sim._DEGREES * steps)])
    h = duration / s
    step = -1j * duration / s
    for i in range(s):
        t_a = i * h
        mu_a = mu + t_a * nu
        term, corr = psi, 0.0
        c1 = np.abs(term).max()
        for j in range(1, sim._DEGREES[-1] + 1):
            shifted = mat @ term - mu_a * term
            if slope is not None:
                ramp = slope @ term
                shifted = shifted + t_a * ramp + corr
                corr = h * (ramp - nu * term)
            term = (step / j) * shifted
            c2 = np.abs(term).max()
            psi = psi + term
            if c1 + c2 <= sim._TAYLOR_TOL * np.abs(psi).max():
                break
            c1 = c2
        else:
            raise ResourceLimitError("Taylor series not converged")
        psi = np.exp(step * (mu_a + nu * h / 2)) * psi
    return psi


# checkpoint gaps of 0 (a repeated time) and up to 3, so that intervals
# take one or several scaling steps
@given(st.integers(min_value=2, max_value=5), st.sampled_from([0, 2]),
       st.integers(min_value=2, max_value=5),
       st.sampled_from(["constant", "shared", "different"]),
       st.sampled_from(["operator", "csr", "dense"]),
       st.lists(st.sampled_from([0.0, 0.05, 0.3, 1.0, 3.0]), min_size=1,
                max_size=6),
       st.integers(0, 2**32 - 1))
@example(5, 0, 4, "shared", "csr", [3.0, 0.0, 1.0], 0)
@example(4, 2, 3, "different", "dense", [0.05, 3.0], 1)
@settings(max_examples=40, deadline=None)
def test_checkpoints_match_chained_two_product_calls(n_half, ts, trunc,
                                                     generator, kind, gaps,
                                                     seed):
    assume(trunc >= ts)
    basis = enumerate_paths(2 * n_half, ts, trunc)
    rng = np.random.default_rng(seed)
    dim = len(basis)
    if generator == "different":
        ham = build_hamiltonian(basis, "band", 0.8).matrix
        slope = sp.diags(rng.uniform(-1.0, 1.0, dim), format="csr")
    else:
        ham, slope = schedule_hamiltonians(basis, 1.2)
        slope = None if generator == "constant" else slope / 4.0
    times = np.cumsum(gaps)
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    vec /= np.linalg.norm(vec)

    def wrap(mat):
        if mat is None or kind == "csr":
            return mat
        return SparseOperator(basis, mat) if kind == "operator" \
            else mat.toarray()

    out = exact_evolve(wrap(ham), vec, times, wrap(slope))
    assert out.shape == (len(times), dim)
    psi, t_a = vec, 0.0
    for t_b, got in zip(times, out):
        start = ham if slope is None else ham + t_a * slope
        psi = _two_product_evolve(wrap(start), psi, t_b - t_a, wrap(slope))
        assert np.abs(got - psi).max() < 1e-13
        t_a = t_b
    # the last checkpoint alone, as a scalar duration
    last = exact_evolve(wrap(ham), vec, times[-1], wrap(slope))
    assert last.shape == (dim,)
    assert np.abs(last - out[-1]).max() < 1e-13


def _matmul_taylor_evolve(hamiltonian, amplitudes, duration, slope=None):
    """The term loop exact_evolve replaced, kept as its bitwise reference:
    scipy's `gen @ x` for each product, a fresh array per term, and the
    exact max|psi| reduction after every term."""
    times = sim._checked_times(duration)
    has_slope = slope is not None
    ham = sim._as_csr(hamiltonian)
    n = ham.shape[0]
    eye = sp.identity(n, dtype=complex, format="csr")
    mu, nu, beta, ramp_data = ham.diagonal().sum() / n, 0.0, 0.0, 0.0
    gen = ham - mu * eye
    if has_slope:
        ham, ramp = sim._one_pattern(ham, sim._as_csr(slope))
        nu = ramp.diagonal().sum() / n
        beta = np.bincount(ramp.indices, np.abs(ramp.data), n).max(
            initial=0.0) + abs(nu)
        gen = sp.hstack([gen, ramp - nu * eye], format="csr")
        ramp_data = ramp.data
    x = np.zeros(gen.shape[1], dtype=complex)
    top, bottom = x[:n], x[n:]      # d_{j-1}; t_a d_{j-1} + h d_{j-2}
    psi = amplitudes.astype(complex)
    out = np.empty((times.size, psi.size), dtype=complex)
    t_a = 0.0
    for k, t_b in enumerate(times):
        length = t_b - t_a
        if length:
            norm1 = np.bincount(ham.indices,
                                np.abs(ham.data + t_a * ramp_data), n).max(
                initial=0.0)
            span = abs(length)
            with np.errstate(over="ignore"):     # an infinite plan is refused
                bound = span * (norm1 + abs(mu + t_a * nu)) \
                    + span * (span * beta + np.sqrt(sim._DEGREES * beta))
                steps = np.maximum(1.0, np.ceil(bound / sim._THETAS))
                s = steps[np.argmin(sim._DEGREES * steps)]
            if s > sim.EXACT_MAX_STEPS:
                raise ResourceLimitError(
                    f"evolving from t = {t_a:g} to {t_b:g} needs {s:.3g} "
                    f"Taylor steps, above {sim.EXACT_MAX_STEPS}")
            s = int(s)
            h = length / s
            step = -1j * h
            for i in range(s):
                t = t_a + i * h
                top[:] = psi
                if has_slope:
                    np.multiply(psi, t, out=bottom)
                c1 = np.abs(psi).max()
                for j in range(1, sim._DEGREES[-1] + 1):
                    term = gen @ x
                    term *= step / j
                    c2 = np.abs(term).max()
                    psi += term
                    if c1 + c2 <= sim._TAYLOR_TOL * np.abs(psi).max():
                        break
                    c1 = c2
                    if has_slope:
                        np.multiply(top, h, out=bottom)
                        bottom += t * term
                    top[:] = term
                else:
                    raise ResourceLimitError(
                        f"Taylor series not converged to "
                        f"{sim._TAYLOR_TOL:g} in {sim._DEGREES[-1]} terms")
                psi *= np.exp(step * (mu + t * nu + nu * h / 2))
        out[k] = psi
        t_a = t_b
    return out if np.ndim(duration) else out[0]


def _bits(a):
    return np.asarray(a).view(float)


# every input form, slope kind and checkpoint shape exact_evolve takes; the
# rows must match the replaced loop bit for bit
@given(st.integers(min_value=2, max_value=5), st.sampled_from([0, 2]),
       st.sampled_from([1, 2, 3, 4, 10]),
       st.sampled_from(["constant", "shared", "different"]),
       st.sampled_from(["operator", "csr", "dense"]),
       st.lists(st.sampled_from([0.0, 0.05, 0.3, 1.0, 3.0]), min_size=1,
                max_size=6),
       st.sampled_from([1.0, -1.0]), st.booleans(), st.integers(0, 2**32 - 1))
@example(5, 0, 4, "shared", "csr", [3.0, 0.0, 1.0], -1.0, False, 0)
@example(4, 2, 3, "different", "dense", [0.05, 0.0, 3.0], 1.0, False, 1)
@example(2, 0, 1, "constant", "operator", [0.0, 1.0, 1.0], -1.0, True, 2)
@example(3, 2, 10, "shared", "operator", [0.3, 3.0], 1.0, True, 3)
@settings(max_examples=60, deadline=None)
def test_exact_evolve_matches_the_matmul_loop_bitwise(n_half, ts, trunc,
                                                      generator, kind, gaps,
                                                      sign, zero, seed):
    assume(trunc >= ts)
    basis = enumerate_paths(2 * n_half, ts, trunc)
    rng = np.random.default_rng(seed)
    dim = len(basis)
    if generator == "different":
        ham = build_hamiltonian(basis, "band", 0.8).matrix
        slope = sp.diags(rng.uniform(-1.0, 1.0, dim), format="csr")
    else:
        ham, slope = schedule_hamiltonians(basis, 1.2)
        slope = None if generator == "constant" else slope / 4.0
    times = sign * np.cumsum(gaps)
    vec = np.zeros(dim, complex) if zero else \
        rng.normal(size=dim) + 1j * rng.normal(size=dim)

    def wrap(mat):
        if mat is None or kind == "csr":
            return mat
        return SparseOperator(basis, mat) if kind == "operator" \
            else mat.toarray()

    for duration in (times, times[-1]):
        got = exact_evolve(wrap(ham), vec, duration, wrap(slope))
        want = _matmul_taylor_evolve(wrap(ham), vec, duration, wrap(slope))
        assert got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want))


# the two ways the max|psi| bound of the tail test can be too tight: short
# steps of a basis vector, where max|psi| stays near max|psi_0| and breaks
# land within a factor 2 of the tolerance, and a state evolved back by T and
# then forward, whose max|psi| grows from about 0.6 to 1 over the run
@pytest.mark.parametrize("n_sites, trunc, duration, refocus", [
    (8, 3, 0.1, False), (10, 4, 0.1, False), (12, 3, 0.01, False),
    (10, 4, list(np.linspace(0, 20, 201)[1:]), False),
    (10, 4, 5.0, True), (12, 3, 2.0, True), (12, 3, 3.0, True),
])
def test_tail_gate_keeps_every_break(n_sites, trunc, duration, refocus):
    ham = build_hamiltonian(enumerate_paths(n_sites, 0, trunc), "band")
    vec = np.zeros(ham.dim, complex)
    vec[0] = 1.0
    if refocus:
        vec = _matmul_taylor_evolve(ham, vec, -duration)
    assert np.array_equal(_bits(exact_evolve(ham, vec, duration)),
                          _bits(_matmul_taylor_evolve(ham, vec, duration)))


def test_exact_evolve_leaves_its_input_and_rows_apart():
    basis = enumerate_paths(8, 0, 3)
    ham, slope = schedule_hamiltonians(basis, 1.0)
    rng = np.random.default_rng(7)
    vec = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    kept = vec.copy()
    times = [0.0, 0.3, 0.3, 1.0, 3.0]
    for ramp in (None, slope / 3.0):
        out = exact_evolve(ham, vec, times, ramp)
        assert np.array_equal(_bits(vec), _bits(kept))
        assert not np.shares_memory(out, vec)
        assert np.array_equal(_bits(out[0]), _bits(vec))
        # each row holds its own checkpoint, not the state the loop went on
        # to write; the first interval is the scalar call's whole run
        assert np.array_equal(_bits(out[1]),
                              _bits(exact_evolve(ham, vec, 0.3, ramp)))
        assert np.array_equal(_bits(out[1]), _bits(out[2]))
        assert not np.array_equal(_bits(out[2]), _bits(out[3]))
        assert not np.shares_memory(exact_evolve(ham, vec, 0.0, ramp), vec)


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_exact_evolve_on_empty_rows_and_wide_indices(index_dtype):
    # rows 0, 3 and 8 hold no entry, so their products are exact zeros;
    # int64 indices are accepted whether or not the CSR copy narrows them
    dense = np.zeros((9, 9))
    rng = np.random.default_rng(4)
    for i, j in ((1, 2), (1, 5), (2, 4), (4, 6), (5, 7), (6, 7)):
        dense[i, j] = dense[j, i] = rng.uniform(-1.0, 1.0)
    dense[5, 5] = 0.4
    ham = sp.csr_matrix(dense)
    ham.indices = ham.indices.astype(index_dtype)
    ham.indptr = ham.indptr.astype(index_dtype)
    ramp = sp.csr_matrix(np.diag(rng.uniform(-1.0, 1.0, 9)))
    vec = rng.normal(size=9) + 1j * rng.normal(size=9)
    for slope in (None, ramp):
        got = exact_evolve(ham, vec, [0.5, 2.0, 7.0], slope)
        want = _matmul_taylor_evolve(ham, vec, [0.5, 2.0, 7.0], slope)
        assert np.array_equal(_bits(got), _bits(want))


def test_exact_evolve_refuses_an_unconverged_series(monkeypatch):
    ham = build_hamiltonian(enumerate_paths(8, 0, 3), "band")
    vec = np.zeros(ham.dim, complex)
    monkeypatch.setattr(sim, "_TAYLOR_TOL", 0.0)
    # a zero state meets even a zero tolerance on its first term
    assert np.array_equal(exact_evolve(ham, vec, 1.0), vec)
    vec[0] = 1.0
    for slope in (None, ham):
        with pytest.raises(ResourceLimitError, match="not converged"):
            exact_evolve(ham, vec, 1.0, slope)


def test_checkpoints_run_either_way_from_zero():
    ham = build_hamiltonian(enumerate_paths(8, 0, 3), "band")
    vec = np.zeros(ham.dim, complex)
    vec[0] = 1.0
    back = exact_evolve(ham, vec, [-0.5, -1.5])
    assert np.abs(back[1] - exact_evolve(ham, vec, -1.5)).max() < 1e-13
    assert np.abs(exact_evolve(ham, back[1], 1.5) - vec).max() < 1e-13
    assert exact_evolve(ham, vec, []).shape == (0, ham.dim)


@pytest.mark.parametrize("duration, named", [
    (float("nan"), "nan"), (np.inf, "inf"), (-np.inf, "-inf"),
    ([0.5, float("nan")], "nan"), ([0.5, np.inf, 2.0], "inf"),
    ([0.5, 1.0, 0.75], "0.75"), ([1.0, -1.0], "-1.0"), ([-1.0, 2.0], "2.0"),
])
def test_exact_evolve_refuses_bad_times(duration, named):
    ham = sz_hamiltonian_matrix(2)
    amps = sz_reference_state(2, 0).amplitudes
    for slope in (None, ham):
        with pytest.raises(ValueError, match=f"time {named} "):
            exact_evolve(ham, amps, duration, slope)


def test_exact_evolve_refuses_an_interval_beyond_the_step_cap(monkeypatch):
    basis = enumerate_paths(8, 0, 3)
    ham, slope = schedule_hamiltonians(basis, 1.0)
    vec = np.zeros(len(basis), complex)
    vec[0] = 1.0
    # the plans of these intervals overflow; each is refused before its
    # first step, without an overflow warning
    for duration, ramp in ((1e300, None), (1e300, slope), ([1.0, 1e308], None),
                           ([-1e308], slope)):
        with pytest.raises(ResourceLimitError, match="Taylor steps"):
            exact_evolve(ham, vec, duration, ramp)
    # times that turn back across 0 are compared, not subtracted
    with pytest.raises(ValueError, match="breaks the monotone order"):
        exact_evolve(ham, vec, [1e308, -1e308])
    # a lowered cap: the first interval takes one step, the second more
    exact_evolve(ham, vec, [1.0, 50.0])
    monkeypatch.setattr(sim, "EXACT_MAX_STEPS", 1)
    with pytest.raises(ResourceLimitError, match="from t = 1 to 50 "):
        exact_evolve(ham, vec, [1.0, 50.0])


def test_exact_evolve_refuses_a_non_finite_entry_or_plan(monkeypatch):
    basis = enumerate_paths(8, 0, 3)
    ham, slope = schedule_hamiltonians(basis, 1.0)
    vec = np.zeros(len(basis), complex)
    vec[0] = 1.0
    # the slope H_ramp / T of an adiabatic ramp overflows at T = 1e-320
    with pytest.raises(ResourceLimitError,
                       match="the slope has a non-finite entry"):
        exact_evolve(ham, vec, [0.5e-320, 1e-320], slope / 1e-320)
    for bad in (np.nan, np.inf, -np.inf):
        broken = ham.copy()
        broken.data[3] = bad
        for ramp in (None, slope):
            with pytest.raises(ResourceLimitError,
                               match="the Hamiltonian has a non-finite entry"):
                exact_evolve(broken, vec, 1.0, ramp)
        with pytest.raises(ResourceLimitError,
                           match="the slope has a non-finite entry"):
            exact_evolve(ham, vec, 1.0, broken)
    # a step plan that is not a number is refused, not truncated to int
    monkeypatch.setattr(sim, "_THETAS", np.full_like(sim._THETAS, np.nan))
    with pytest.raises(ResourceLimitError, match="nan Taylor steps"):
        exact_evolve(ham, vec, 1.0)


def test_one_pattern_keeps_both_matrices():
    rng = np.random.default_rng(3)
    a = sp.random(30, 30, density=0.1, random_state=rng, format="csr")
    b = sp.random(30, 30, density=0.1, random_state=rng, format="csr")
    for x, y in ((a, b), (a, 0 * a), (b, a)):
        u, v = sim._one_pattern(sim._as_csr(x), sim._as_csr(y))
        assert u.has_sorted_indices and v.has_sorted_indices
        assert np.array_equal(u.indptr, v.indptr)
        assert np.array_equal(u.indices, v.indices)
        assert abs(u - x).max() == 0.0 and abs(v - y).max() == 0.0


def test_singlet_pair_observables():
    for n in (8, 16):
        state = sz_reference_state(n, 0)
        bonds = bond_energies_sz(state)
        assert np.allclose(bonds[0::2], -0.75, atol=1e-12)
        assert np.allclose(bonds[1::2], 0.0, atol=1e-12)
        assert abs(bonds.sum() - (-3 * n / 8)) < 1e-12


def test_energies_real_on_random_state():
    rng = np.random.default_rng(5)
    amps = rng.normal(size=64) + 1j * rng.normal(size=64)
    amps /= np.linalg.norm(amps)
    state = StateVector(6, amps)
    assert np.all(np.isfinite(bond_energies_sz(state)))


def _bond_energies_by_permutation(state, coupling):
    """The register-copying route bond_energies_sz replaced: <pi_{p,p+1}>
    from one transposed copy of the register per bond."""
    n, amps = state.n_qubits, state.amplitudes
    return np.array([coupling * (np.vdot(amps, apply_permutation(
        amps, n, p, p + 1)).real / 2 - 0.25) for p in range(1, n)])


@given(st.integers(min_value=2, max_value=12),
       st.floats(min_value=0.25, max_value=4.0), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_bond_energies_match_permutation_route(n, coupling, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    state = StateVector(n, amps / np.linalg.norm(amps))
    kept = state.amplitudes.copy()
    got = bond_energies_sz(state, coupling)
    assert np.abs(got - _bond_energies_by_permutation(state, coupling)).max() \
        < 1e-12
    assert np.array_equal(state.amplitudes, kept)


@given(st.integers(min_value=1, max_value=5), st.sampled_from([0, 2]),
       st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=4),
       st.floats(min_value=0.25, max_value=4.0), st.integers(0, 2**32 - 1))
@example(5, 0, 10, 3, 1.0, 0)     # N=10 on the full basis
@example(1, 2, 2, 1, 1.0, 1)      # the one-path triplet pair
@settings(max_examples=60, deadline=None)
def test_csf_bond_energies_match_permutation_matrices(n_half, ts, trunc,
                                                      batch, coupling, seed):
    # the quadratic form over the height rules against <v|pi|v>/<v|v> of
    # the assembled transpositions, on unnormalised complex batches
    n = 2 * n_half
    assume(ts <= trunc <= untruncated_level(n))
    basis = enumerate_paths(n, ts, trunc)
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(batch, len(basis))) \
        + 1j * rng.normal(size=(batch, len(basis)))
    vectors *= rng.uniform(0.1, 10.0, size=(batch, 1))
    kept = vectors.copy()
    expected = np.array([[
        (coupling / 2) * (np.vdot(v, permutation_matrix(basis, p, p + 1)
                                  .matrix @ v).real / np.vdot(v, v).real - 0.5)
        for p in range(1, n)] for v in vectors])
    got = bond_energies_csf(basis, vectors, coupling)
    assert got.shape == (batch, n - 1)
    assert np.abs(got - expected).max() < 1e-13
    assert np.array_equal(vectors, kept)


def test_csf_runs_build_no_operator_matrix(monkeypatch):
    # the bond energies of both runs of the comparison come from the height
    # rules, so neither runs permutation_matrix's per-bond assembly
    def refuse(*args, **kwargs):
        raise AssertionError("a bond operator matrix was assembled")

    monkeypatch.setattr(sga, "_bond_matrix", refuse)
    record, _ = trotter_comparison_csf(10, 0, 4, 2.0, 4)
    assert record.bond_energies.shape == (5, 9)


@given(st.integers(min_value=1, max_value=12), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_s2_expectation_matches_operator(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    state = StateVector(n, amps / np.linalg.norm(amps))
    expected = np.vdot(state.amplitudes,
                       apply_total_s2(state.amplitudes, n)).real
    assert abs(s2_expectation_sz(state) - expected) < 1e-12
    # the sector reference states are S^2 eigenstates
    if n % 2 == 0:
        for ts in (0, 2):
            ref = sz_reference_state(n, ts)
            assert abs(s2_expectation_sz(ref) - ts / 2 * (ts / 2 + 1)) < 1e-12


def test_fidelity_properties():
    a = sz_reference_state(4, 0)
    assert fidelity(a, a) == pytest.approx(1.0)
    b = basis_state(4, 3)
    c = basis_state(4, 5)
    assert fidelity(b, c) == pytest.approx(0.0)


def test_sz_trotter_conserves_symmetry_n8():
    for total_spin_x2 in (0, 2):
        spin = total_spin_x2 / 2
        record, _ = trotter_evolve_sz(8, total_spin_x2, 4.0, 8, order=2)
        assert np.abs(record.aux["s_squared"] - spin * (spin + 1)).max() < 1e-10
        assert np.abs(record.aux["total_sz"] - spin).max() < 1e-10
        assert record.times[0] == 0.0 and record.times.size == 9
        assert np.all(np.diff(record.times) > 0)


def test_scalar_truncation_observables_constant():
    record, _ = trotter_evolve_csf(8, 0, 1, 4.0, 6, order=1)
    assert np.abs(record.total_energy - record.total_energy[0]).max() < 1e-12
    assert record.total_energy[0] == pytest.approx(-3.0)  # -3/4 * 4 bonds


def test_csf_evolution_stays_physical():
    # unit norm on the paths; test_path_basis_run_matches_register shows
    # the register holds the same vector, so it keeps no weight outside them
    record, _ = trotter_evolve_csf(8, 0, 3, 3.0, 6, order=1)
    assert np.abs(np.linalg.norm(record.path_vectors, axis=1) - 1.0).max() \
        < 1e-10


def test_physical_weight_refuses_another_register():
    # a 5-qubit register read through the 3-qubit N=8 trunc-1 layout
    layout = build_layout(8, 0, 2)
    with pytest.raises(InvalidQuantumNumbersError):
        sim.physical_weight(basis_state(5, 0), enumerate_paths(8, 0, 2),
                            layout)


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
    basis = enumerate_paths(n, ts, trunc)
    _, path_vectors = path_trotter_run(PathStep(basis, order),
                                       start_vector(basis), duration,
                                       len(ramps), coupling, ramps)
    layout = build_layout(n, ts, trunc)
    state = basis_state(layout.n_qubits,
                        encode_path(layout, initial_path(n, ts)))
    dt = duration / len(ramps)
    vectors = [decode_to_path_vector(state, basis, layout)]
    for ramp in ramps:
        state = simulate(csf_trotter_step(n, ts, trunc, dt, order, ramp,
                                          coupling), state)
        vectors.append(decode_to_path_vector(state, basis, layout))
    assert np.abs(np.array(vectors) - path_vectors).max() < 1e-12


def _parity_pieces(basis, parity):
    """Dense band-mode bond sums of the transpositions of one parity: the
    zeroth band's pieces and those of bands 1 .. trunc-1."""
    dim, bonds = len(basis), range(1 + parity, basis.n_sites, 2)
    return [sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim)).toarray()
            for rows, cols, vals in (_bond_sums(basis, bands, bonds) for bands
                                     in (range(1), range(1, basis.trunc_x2)))]


@given(st.integers(min_value=2, max_value=10), st.booleans(),
       st.integers(min_value=1, max_value=4), st.sampled_from([1, 2]),
       st.floats(min_value=-1.5, max_value=1.5),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.25, max_value=4.0), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_path_step_matches_dense_exponentials(n, raised, trunc, order, dt,
                                              ramp, coupling, seed):
    # the dense reference shares neither the qubit term IR nor the gate
    # simulator: exp(i dt J (N-1)/4) times, per sub-layer, the exponential
    # of the parity's band-mode bond sums, bands s >= 1 scaled by the ramp
    ts = n % 2 + 2 * raised
    assume(trunc >= ts)   # below 2S the sector is empty
    basis = enumerate_paths(n, ts, trunc)
    pieces = [_parity_pieces(basis, parity) for parity in (0, 1)]
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    kept = vec.copy()
    expected = np.exp(1j * dt * coupling * (n - 1) / 4) * vec
    for parity, fraction in sublayers(order):
        fixed, ramped = pieces[parity]
        gen = (coupling / 2) * fraction * dt * (fixed + ramp * ramped)
        expected = scipy.linalg.expm(-1j * gen) @ expected
    got = PathStep(basis, order).layer(dt, ramp, coupling)(vec)
    assert np.abs(got - expected).max() < 1e-12
    assert np.array_equal(vec, kept)   # input left as it was


@pytest.mark.parametrize("duration, coupling, ramp", [
    (float("nan"), 1.0, 1.0), (np.inf, 1.0, 1.0), (1.0, float("nan"), 1.0),
    (1.0, 1.0, float("nan")), (1.0, 1.0, np.inf)])
def test_non_finite_step_raises(duration, coupling, ramp):
    for trunc in (1, 3):
        basis = enumerate_paths(8, 0, trunc)
        with pytest.raises(ValueError, match="finite"):
            path_trotter_run(PathStep(basis, 1), start_vector(basis),
                             duration, 2, coupling, [ramp, ramp])


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
                                      coupling)
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
    state = sz_reference_state(12, 0)
    for _ in range(200):
        state = layer(state)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


def test_sz_layer_refuses_non_finite_step():
    for dt, coupling in [(float("nan"), 1.0), (1.0, np.inf)]:
        with pytest.raises(ValueError, match="finite"):
            sz_trotter_layer(4, dt, 1, coupling)


@pytest.mark.parametrize("run", [
    lambda n_layers: trotter_evolve_sz(4, 0, 1.0, n_layers),
    lambda n_layers: trotter_evolve_csf(4, 0, 2, 1.0, n_layers)],
    ids=["sz", "csf"])
def test_trotter_runs_refuse_a_negative_layer_count(run):
    with pytest.raises(ValueError, match="layer count -1 is negative"):
        run(-1)


def test_sz_register_refused_beyond_cap(monkeypatch):
    # the cap is lowered so that a broken guard would allocate only 2^8
    # amplitudes
    monkeypatch.setattr(sim, "REGISTER_MAX_QUBITS", 6)
    for build in (lambda: sz_reference_state(8, 0),
                  lambda: sz_reference_state(8, 2),
                  lambda: trotter_evolve_sz(8, 0, 1.0, 2)):
        with pytest.raises(ResourceLimitError, match="6 qubits"):
            build()
    assert sz_reference_state(6, 2).amplitudes.size == 1 << 6


@given(st.integers(min_value=1, max_value=7), st.sampled_from([0, 2]),
       st.sampled_from([1, 2]), st.floats(min_value=-3.0, max_value=3.0),
       st.integers(min_value=0, max_value=6),
       st.floats(min_value=0.25, max_value=4.0))
@example(7, 0, 2, 3.0, 6, 1.0)    # N=14: 429 paths against 2^14 amplitudes
@example(7, 2, 1, -2.0, 5, 4.0)   # a negative duration in the triplet
@example(1, 0, 1, 1.0, 0, 0.25)   # zero layers
@settings(max_examples=40, deadline=None)
def test_full_basis_run_matches_register(n_half, ts, order, duration, layers,
                                         coupling):
    # the bond reference of trotter_comparison_csf: the Trotter run on the
    # untruncated spin-path basis against the computational-basis register
    n = 2 * n_half
    sz_record, _ = trotter_evolve_sz(n, ts, duration, layers, order, coupling)
    record, _ = trotter_evolve_csf(n, ts, untruncated_level(n), duration,
                                   layers, order, coupling)
    assert np.array_equal(record.times, sz_record.times)
    assert np.abs(record.bond_energies - sz_record.bond_energies).max() \
        < 1e-12


def test_comparison_memory_follows_the_path_sector():
    # the N=20 singlet sector has 16 796 paths against 2^20 amplitudes: the
    # bond reference runs on the paths and no 2^N register is allocated
    n = 20
    tracemalloc.start()
    try:
        trotter_comparison_csf(n, 0, 2, 5.0, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * sector_bytes(n, cardinality(n, 0))


def test_exact_evolve_agrees_with_richardson_trotter():
    # order-2 Trotter states at n and 2n layers extrapolate to O(dt^4):
    # the combination must land much closer to the exact state
    n, duration = 8, 1.0
    ham = sz_hamiltonian_matrix(n)
    start = sz_reference_state(n, 0)
    exact = exact_evolve(ham, start.amplitudes, duration)

    def final_state(layers):
        state = start
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
