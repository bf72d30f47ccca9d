"""Trotter evolution, exact propagation and the observable suite.

Encoded runs (trotter_evolve_csf, trotter_comparison_csf and its bond
reference on the full basis, and the adiabatic schedules) evolve the
spin-path vector itself: PathStep compiles the Trotter step of the
band-mode Hamiltonian from the transposition height rules into phases and
2x2 rotations on the basis rows, so no 2^q register is built.  The
computational-basis run (trotter_evolve_sz, `evolve --basis sz`) runs no
gates either: sz_trotter_layer applies each bond of the step, in the order
sz_trotter_step emits it, as one update on two slices of the register.
The gate-level statevector simulator (simulate) is the cross-check of
both kernels in the tests; the dense unitary of a circuit, built from it,
is a test reference (tests/references.py) that checks the emitted circuits
behind export and the golden files.  The total spin of the
computational-basis run comes from bitwise ladder passes over the register
(apply_total_raise, apply_total_sz).  The bond energies of an encoded run
(bond_energies_csf) are the quadratic form of each transposition's height
rule over the recorded path vectors, bond by bond, with flips that leave
the truncation dropped; no operator matrix is built.

Amplitude indexing: qubit 0 is the most significant bit, so reshaping to
[2]*n puts qubit q on axis q.  All kernels preserve the norm to float
round-off.  Exact propagation applies the matrix exponential to a vector
with an in-package truncated Taylor series (Al-Mohy & Higham, SIAM J. Sci.
Comput. 33, 488 (2011)) at every dimension, without forming the exponential;
given a slope, the same series integrates a Hamiltonian linear in time, and
given checkpoint times, one call returns the state at each of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from math import cos, sin
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

from .basis import CsfBasis, enumerate_paths, initial_path
from .circuits import (Circuit, band_angle, identity_shift_angle, sublayers,
                       sz_bond_layers)
from .encode import QubitLayout, build_layout
from .errors import InvalidQuantumNumbersError, ResourceLimitError
from .sga import SparseOperator, _bond_rules, build_hamiltonian


@dataclass
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray


REGISTER_MAX_QUBITS = 26    # 2^26 amplitudes, 1 GiB


def _refuse_register(n_qubits: int) -> None:
    """Refuse a 2^n_qubits register above REGISTER_MAX_QUBITS, before any
    allocation."""
    if n_qubits > REGISTER_MAX_QUBITS:
        raise ResourceLimitError(
            f"a {n_qubits}-qubit register is refused above "
            f"{REGISTER_MAX_QUBITS} qubits")


# --- gate kernels ---

def _apply_single(amps: np.ndarray, q: int, mat: np.ndarray) -> np.ndarray:
    a = amps.reshape((1 << q, 2, -1))
    top = mat[0, 0] * a[:, 0, :] + mat[0, 1] * a[:, 1, :]
    bot = mat[1, 0] * a[:, 0, :] + mat[1, 1] * a[:, 1, :]
    a = np.stack([top, bot], axis=1)
    return a.reshape(-1)


def _apply_diag(amps: np.ndarray, q: int, d0: complex, d1: complex):
    a = amps.reshape((1 << q, 2, -1))
    a[:, 0, :] *= d0
    a[:, 1, :] *= d1
    return amps


def _apply_cx(amps: np.ndarray, c: int, t: int) -> np.ndarray:
    qs = sorted((c, t))
    a = amps.reshape((1 << qs[0], 2, 1 << (qs[1] - qs[0] - 1), 2, -1))
    if c < t:
        tmp = a[:, 1, :, 0, :].copy()
        a[:, 1, :, 0, :] = a[:, 1, :, 1, :]
        a[:, 1, :, 1, :] = tmp
    else:
        tmp = a[:, 0, :, 1, :].copy()
        a[:, 0, :, 1, :] = a[:, 1, :, 1, :]
        a[:, 1, :, 1, :] = tmp
    return amps


def apply_gate(state: StateVector, gate) -> None:
    """In-place gate application.  The kernels reshape the amplitudes with
    one trailing axis for everything after the last qubit they touch, so a
    batch axis behind the register rides along."""
    amps = state.amplitudes
    kind = gate.kind
    if kind == "PHASE":
        amps *= np.exp(1j * gate.angle)
    elif kind == "RZ":
        h = gate.angle / 2
        _apply_diag(amps, gate.target, np.exp(-1j * h), np.exp(1j * h))
    elif kind == "CX":
        _apply_cx(amps, gate.control, gate.target)
    elif kind == "RY":
        h = gate.angle / 2
        mat = np.array([[cos(h), -sin(h)], [sin(h), cos(h)]], dtype=complex)
        state.amplitudes = _apply_single(amps, gate.target, mat)
    else:
        raise ValueError(f"unknown gate kind {kind!r}")


def simulate(circuit: Circuit, initial: StateVector) -> StateVector:
    """Apply the circuit to a copy of the initial state."""
    if initial.n_qubits != circuit.n_qubits:
        raise InvalidQuantumNumbersError("state/circuit qubit count mismatch")
    state = StateVector(initial.n_qubits, initial.amplitudes.copy())
    for gate in circuit.gates:
        apply_gate(state, gate)
    return state


# --- exact propagation ---

# theta_m for tolerance 2^-53 (Al-Mohy & Higham 2011, Table 3.1; m <= 30 from
# Higham, Functions of Matrices, Table A.3): m Taylor terms per scaling step
# meet the tolerance while the step's 1-norm stays below theta_m.
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
_DEGREES = np.array(list(_THETA))
_THETAS = np.array(list(_THETA.values()))
_TAYLOR_TOL = 2.0 ** -53
# Scaling steps of one interval between checkpoints; exact_evolve refuses an
# interval that needs more before its first step.
EXACT_MAX_STEPS = 10 ** 5


def _as_csr(op) -> sp.csr_matrix:
    """A complex CSR copy, sorted and free of duplicates, of a
    SparseOperator, a scipy sparse matrix or a dense array."""
    mat = op.matrix if isinstance(op, SparseOperator) else op
    mat = sp.csr_matrix(mat).astype(complex)
    mat.sum_duplicates()
    return mat


def _one_pattern(a: sp.csr_matrix, b: sp.csr_matrix):
    """a and b on one sorted sparsity pattern, the union of theirs, each
    holding stored zeros where only the other has an entry."""
    a, b = a.tocoo(), b.tocoo()
    rows = np.concatenate([a.row, b.row])
    cols = np.concatenate([a.col, b.col])
    return tuple(sp.csr_matrix((np.concatenate(data), (rows, cols)),
                               shape=a.shape)
                 for data in ((a.data, 0 * b.data), (0 * a.data, b.data)))


def _checked_times(duration) -> np.ndarray:
    """The checkpoint times of exact_evolve as a 1-D array; a non-finite
    time, or times that do not run monotonically from 0, raise ValueError."""
    times = np.atleast_1d(np.asarray(duration, dtype=float))
    if times.ndim > 1:
        raise ValueError(f"checkpoint times must form one sequence, not an "
                         f"array of shape {times.shape}")
    bad = np.flatnonzero(~np.isfinite(times))
    if bad.size:
        raise ValueError(f"evolution time {times[bad[0]]} is not finite")
    # the direction of each interval, by comparison: a difference of two
    # finite times can overflow
    prev = np.concatenate([[0.0], times[:-1]])
    signs = np.greater(times, prev).astype(int) - np.less(times, prev)
    moving = np.flatnonzero(signs)
    if moving.size:
        back = np.flatnonzero(signs == -signs[moving[0]])
        if back.size:
            k = back[0]
            raise ValueError(
                f"checkpoint time {times[k]} after {times[k - 1]} breaks "
                f"the monotone order from 0")
    return times


def _peak(vec: np.ndarray, mag: np.ndarray):
    """max|vec|, with mag as the buffer of the moduli: the element argmax
    picks (the first NaN if there is one) is the value .max() returns, at
    a third of the reduction's call overhead."""
    np.abs(vec, out=mag)
    return mag[mag.argmax()]


def exact_evolve(hamiltonian, amplitudes: np.ndarray, duration,
                 slope=None) -> np.ndarray:
    """Solve i psi' = (H + t slope) psi from t = 0 without forming an
    exponential: exp(-i T H) psi when slope is None.  H and slope are each a
    SparseOperator, a scipy sparse matrix or a dense array.

    A scalar duration T returns the state at T.  A sequence of checkpoint
    times, running monotonically from 0, returns the state at each of them,
    shape (len(times), dim), from one integration: the shifts, norms and
    generator below are set up once per call.  A non-finite time or a
    sequence that turns back raises ValueError; a non-finite entry of H or
    of the slope (one that overflowed) raises ResourceLimitError.

    Truncated Taylor series with scaling (Al-Mohy & Higham 2011, Algorithm
    3.2) on H shifted by mu = tr(H)/n and slope shifted by nu =
    tr(slope)/n.  On a step of length h from t_a the series of the linear
    ramp has the two-term recursion (Jorba & Zou, Exp. Math. 14, 99 (2005))
    d_0 = psi, d_j = (-i h / j) [(H + t_a slope - mu_a) d_{j-1}
    + h (slope - nu) d_{j-2}] with mu_a = mu + t_a nu, and the step ends
    with the phase exp(-i (mu_a h + nu h^2 / 2)).  Each term is one sparse
    product: the generator G = [H - mu | slope - nu] times the stacked
    vector [d_{j-1}; t_a d_{j-1} + h d_{j-2}], or G = H - mu times d_{j-1}
    without a slope.  Each interval of length T from t_a between
    checkpoints takes the number s of steps that minimises m*s subject to
    b_m / s <= theta_m, where, with beta = ||slope||_1 + |nu|, b_m =
    |T| (||H + t_a slope||_1 + |mu_a|) + T^2 beta + |T| sqrt(m beta).  The
    first two terms bound the 1-norm of the shifted generator on any step
    of the interval; the last keeps ||d_j|| below (b_m / s)^j / j! up to
    degree m + 1 although the slope's part of the series decays only like
    that of exp(beta h^2 tau^2 / 2).  H and slope share one sparsity
    pattern (the union of theirs), so ||H + t_a slope||_1 is one column sum
    over it.  A step stops adding terms once two successive terms are below
    the tolerance; a series that has not met that test by the largest
    tabulated degree raises ResourceLimitError, and so does, before its
    first step, an interval that needs more than EXACT_MAX_STEPS steps.

    Each product is one call of scipy's csr_matvec kernel into a zeroed,
    reused term buffer: what `gen @ x` runs, without its dispatch and
    allocation, so the bits are the same.  The tail test c1 + c2 <= tol
    max|psi| needs a reduction over psi, taken only when c1 + c2 <= tol U
    (1 + 2^-30), where U = max|psi_0| + sum_j max|d_j| bounds max|psi|
    within the step; the factor covers the rounding of U and psi (about 60
    ulp over 55 terms).  Where the reduction is skipped the test would have
    failed, so every step and term count and every output bit are those of
    the reduction after each term.
    """
    times = _checked_times(duration)
    has_slope = slope is not None
    ham = _as_csr(hamiltonian)
    ramp = _as_csr(slope) if has_slope else None
    for what, mat in (("Hamiltonian", ham), ("slope", ramp)):
        if mat is not None and not np.isfinite(mat.data).all():
            raise ResourceLimitError(f"the {what} has a non-finite entry")
    n = ham.shape[0]
    eye = sp.identity(n, dtype=complex, format="csr")
    mu, nu, beta, ramp_data = ham.diagonal().sum() / n, 0.0, 0.0, 0.0
    gen = ham - mu * eye
    if has_slope:
        ham, ramp = _one_pattern(ham, ramp)
        nu = ramp.diagonal().sum() / n
        beta = np.bincount(ramp.indices, np.abs(ramp.data), n).max(
            initial=0.0) + abs(nu)
        gen = sp.hstack([gen, ramp - nu * eye], format="csr")
        ramp_data = ramp.data
    x = np.zeros(gen.shape[1], dtype=complex)
    top, bottom = x[:n], x[n:]      # d_{j-1}; t_a d_{j-1} + h d_{j-2}
    term, mag = np.empty(n, dtype=complex), np.empty(n)
    scratch = np.empty_like(bottom)
    product = partial(csr_matvec, n, gen.shape[1], gen.indptr, gen.indices,
                      gen.data, x, term)
    tail_gate = _TAYLOR_TOL * (1 + 2.0 ** -30)
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
                    + span * (span * beta + np.sqrt(_DEGREES * beta))
                steps = np.maximum(1.0, np.ceil(bound / _THETAS))
                s = steps[np.argmin(_DEGREES * steps)]
            if not s <= EXACT_MAX_STEPS:      # NaN included
                raise ResourceLimitError(
                    f"evolving from t = {t_a:g} to {t_b:g} needs {s:.3g} "
                    f"Taylor steps, above {EXACT_MAX_STEPS}")
            s = int(s)
            h = length / s
            step = -1j * h
            coefs = [step / j for j in range(1, _DEGREES[-1] + 1)]
            for i in range(s):
                t = t_a + i * h
                top[:] = psi
                if has_slope:
                    np.multiply(psi, t, out=bottom)
                c1 = upper = _peak(psi, mag)   # U above
                for coef in coefs:
                    term.fill(0)
                    product()
                    term *= coef
                    c2 = _peak(term, mag)
                    psi += term
                    upper += c2
                    tail = c1 + c2
                    if tail <= tail_gate * upper and \
                            tail <= _TAYLOR_TOL * _peak(psi, mag):
                        break
                    c1 = c2
                    if has_slope:
                        np.multiply(top, h, out=bottom)
                        np.multiply(t, term, out=scratch)
                        bottom += scratch
                    top[:] = term
                else:
                    raise ResourceLimitError(
                        f"Taylor series not converged to {_TAYLOR_TOL:g} in "
                        f"{_DEGREES[-1]} terms")
                psi *= np.exp(step * (mu + t * nu + nu * h / 2))
        out[k] = psi
        t_a = t_b
    return out if np.ndim(duration) else out[0]


# --- observables ---

# Bit convention of the computational-basis register: bit i holds site i
# (1-based site i+1), site 0 is the most significant bit of the amplitude
# index; alpha=0, beta=1.

@lru_cache(maxsize=None)
def _down_counts(n_sites: int) -> np.ndarray:
    """Number of beta (bit 1) sites of every amplitude index, as a read-only
    int8 array built once per chain length (the cache holds at most twice
    the largest one)."""
    down = np.zeros(1, dtype=np.int8)
    for _ in range(n_sites):
        down = np.concatenate([down, down + 1])   # one more leading bit
    down.flags.writeable = False
    return down


def _site_view(amplitudes: np.ndarray, site: int) -> np.ndarray:
    """The amplitudes with 0-based site `site` on the middle axis of three:
    [:, 0] its alpha slice, [:, 1] its beta slice."""
    return amplitudes.reshape(1 << site, 2, -1)


def apply_total_sz(amplitudes: np.ndarray, n_sites: int) -> np.ndarray:
    """Total S_z (in units of hbar): sum over sites of +-1/2."""
    return (n_sites / 2 - _down_counts(n_sites)) * amplitudes


def apply_total_raise(amplitudes: np.ndarray, n_sites: int) -> np.ndarray:
    """S_+ = sum_i s_+^i in N single-site passes: each site's beta slice
    added into its alpha slice of a zero register, on the (2^i, 2, rest)
    view of site i."""
    raised = np.zeros_like(amplitudes)
    for site in range(n_sites):
        _site_view(raised, site)[:, 0] += _site_view(amplitudes, site)[:, 1]
    return raised


def bond_energies_sz(state: StateVector, coupling: float = 1.0) -> np.ndarray:
    """<(XX+YY+ZZ)/4>_{p,p+1} * J for every bond, via the swap identity.

    With swap = 1 - 2 P, P the projector on the singlet of qubits
    (q, q+1), <swap> = ||psi||^2 - ||a01 - a10||^2 on the (|01>, |10>)
    slices of the (2^q, 4, rest) view that sz_trotter_layer updates, so no
    bond copies the register.
    """
    n = state.n_qubits
    amps = state.amplitudes
    norm2 = np.vdot(amps, amps).real
    out = np.zeros(n - 1)
    for q in range(n - 1):
        a = amps.reshape(1 << q, 4, -1)
        diff = a[:, 1] - a[:, 2]
        out[q] = coupling * ((norm2 - np.vdot(diff, diff).real) / 2 - 0.25)
    return out


def s2_expectation_sz(state: StateVector) -> float:
    """<S^2> = ||S_+ psi||^2 + ||S_z psi||^2 + <S_z>: the N raising passes
    of S^2 without the lowering ones."""
    amps, n = state.amplitudes, state.n_qubits
    raised = apply_total_raise(amps, n)
    sz = apply_total_sz(amps, n)
    return float((np.vdot(raised, raised) + np.vdot(sz, sz)
                  + np.vdot(amps, sz)).real)


def sz_expectation_sz(state: StateVector) -> float:
    return float(np.vdot(state.amplitudes,
                         apply_total_sz(state.amplitudes,
                                        state.n_qubits)).real)


def decode_to_path_vector(state: StateVector, basis: CsfBasis,
                          layout: QubitLayout) -> np.ndarray:
    """Gather amplitudes of physical bit-strings into basis ordering."""
    if state.n_qubits != layout.n_qubits:
        raise InvalidQuantumNumbersError("state/layout qubit count mismatch")
    bits = layout.physical_bitstrings(basis)
    return state.amplitudes[bits]


def embed_path_vector(path_vector: np.ndarray, basis: CsfBasis,
                      layout: QubitLayout) -> StateVector:
    """The encoded register holding a spin-path vector (inverse of
    decode_to_path_vector); refused above REGISTER_MAX_QUBITS."""
    _refuse_register(layout.n_qubits)
    amps = np.zeros(1 << layout.n_qubits, dtype=complex)
    amps[layout.physical_bitstrings(basis)] = path_vector
    return StateVector(layout.n_qubits, amps)


def physical_weight(state: StateVector, basis: CsfBasis,
                    layout: QubitLayout) -> float:
    vec = decode_to_path_vector(state, basis, layout)
    return float(np.vdot(vec, vec).real)


def bond_energies_csf(basis: CsfBasis, vectors: np.ndarray,
                      coupling: float = 1.0) -> np.ndarray:
    """(J/2)(<pi_{p,p+1}> - 1/2) per bond, shape (len(vectors), N-1), on a
    batch of spin-path coefficient vectors, shape (n_vectors, dim).

    <v|pi|v> is the quadratic form of the transposition's height rule,
    taken one bond at a time (sga._bond_rules) with no operator matrix:
    sum_r diag[r] |v_r|^2 + 2 sum_pairs b Re(conj(v_peak) v_valley), over
    the kept (valley, peak) pairs, so flips that leave the truncation are
    dropped, as in permutation_matrix.  Each row is divided by its |v|^2.
    """
    mod2 = vectors.real ** 2 + vectors.imag ** 2
    out = np.empty((len(vectors), basis.n_sites - 1))
    for p, _, diag, valleys, peaks, off in _bond_rules(basis):
        pairs = (vectors[:, peaks].conj() * vectors[:, valleys]).real
        out[:, p - 1] = mod2 @ diag + 2 * (pairs @ off)
    out /= mod2.sum(axis=1)[:, None]
    return (coupling / 2) * (out - 0.5)


def fidelity(a, b) -> float:
    """|<a|b>| for two states over a common register or coefficient space."""
    va = a.amplitudes if isinstance(a, StateVector) else np.asarray(a)
    vb = b.amplitudes if isinstance(b, StateVector) else np.asarray(b)
    if va.shape != vb.shape:
        raise InvalidQuantumNumbersError("fidelity needs matching state shapes")
    return float(abs(np.vdot(va, vb)))


# --- the encoded Trotter step on the spin-path vector ---

class PathStep:
    """One Trotter step of the band-mode Hamiltonian on the spin-path
    vector, compiled from the transposition height rules.

    A sub-layer (circuits.sublayers) exponentiates the kept band pieces
    (bands 0 .. trunc-1) of the transpositions of one parity.  These flip
    disjoint centre heights and read only heights that none of them
    changes, so they commute; and each piece is an involution on its rows
    (a_s^2 + b_s^2 = 1), so its exponential is cos(alpha) - i sin(alpha)
    pi.  A sub-layer is therefore one phase per row, from the pass-throughs
    and from the band-0 peaks whose flip would leave the chain, and one 2x2
    rotation per bond and band s >= 1 on its valley/peak pairs, with the
    scalar coefficients [[a_s, b_s], [b_s, -a_s]].  The angles are
    circuits.band_angle and identity_shift_angle.  csf_trotter_step emits
    the same operator as gates on the qubit register; the tests check one
    against the other and both against dense exponentials.

    Compiled once per sector and order; layer(dt, ramp, coupling) returns
    one layer's action on a path vector.
    """

    def __init__(self, basis: CsfBasis, order: int):
        self.n_sites = basis.n_sites
        parities = [self._compile(basis, parity) for parity in (0, 1)]
        self.sublayers = [(fraction, *parities[parity])
                          for parity, fraction in sublayers(order)]

    @staticmethod
    def _compile(basis: CsfBasis, parity: int):
        """(weights, rotations) of the sub-layer of one parity: weights[0]
        and weights[1] sum, per row, the diagonal coefficients that take the
        zeroth band's angle and the ramped one; each rotation is (valleys,
        peaks, a_s, b_s) of one bond and band s >= 1."""
        weights = np.zeros((2, len(basis)))
        rotations = []
        bonds = range(1 + parity, basis.n_sites, 2)
        for _, band, diag, valleys, peaks, off in _bond_rules(basis, bonds):
            still = band < basis.trunc_x2
            still[valleys] = still[peaks] = False
            weights[0] += np.where(still & (band == 0), diag, 0.0)
            weights[1] += np.where(still & (band > 0), diag, 0.0)
            for s in np.unique(band[valleys]):
                pick = band[valleys] == s
                rotations.append((valleys[pick], peaks[pick],
                                  diag[valleys[pick][0]], off[pick][0]))
        return weights, rotations

    def layer(self, dt: float, ramp: float = 1.0, coupling: float = 1.0):
        """One layer of time step dt, bands s >= 1 scaled by ramp, as a
        callable path vector -> new path vector.

        Non-finite arguments raise ValueError; finite ones whose angles
        overflow raise ResourceLimitError."""
        if not np.isfinite([dt, ramp, coupling]).all():
            raise ValueError(f"time step {dt}, ramp {ramp} and coupling "
                             f"{coupling} must be finite")
        shift = identity_shift_angle(self.n_sites, dt, coupling)
        layers = []
        with np.errstate(over="ignore", invalid="ignore"):
            for fraction, weights, rotations in self.sublayers:
                fixed, ramped = (band_angle(s_x2, fraction * dt, ramp, coupling)
                                 for s_x2 in (0, 1))
                angles = fixed * weights[0] + ramped * weights[1]
                if not layers:
                    angles -= shift      # the step's identity-shift phase
                if not (np.isfinite(angles).all() and np.isfinite(ramped)):
                    raise ResourceLimitError(
                        f"time step {dt:g} at coupling {coupling:g} gives a "
                        f"non-finite Trotter angle")
                c, s = cos(ramped), sin(ramped)
                layers.append((np.exp(-1j * angles), [
                    (rows, peaks, complex(c, -s * a), complex(0.0, -s * b),
                     complex(c, s * a)) for rows, peaks, a, b in rotations]))

        def apply(vec: np.ndarray) -> np.ndarray:
            vec = vec.astype(complex)     # a copy: the input stays as it was
            for phases, rotations in layers:
                vec *= phases
                for rows, peaks, u00, u01, u11 in rotations:
                    lo, hi = vec[rows], vec[peaks]
                    vec[rows] = u00 * lo + u01 * hi
                    vec[peaks] = u01 * lo + u11 * hi
            return vec

        return apply


# --- Trotter evolution drivers ---

@dataclass
class EvolutionRecord:
    times: np.ndarray
    total_energy: np.ndarray
    bond_energies: np.ndarray            # shape (len(times), n_bonds)
    aux: dict[str, np.ndarray] = field(default_factory=dict)
    # spin-path coefficients per time (encoded runs); not exported
    path_vectors: np.ndarray | None = field(default=None, repr=False)

    def to_csv(self) -> str:
        cols = ["t", "total_energy"]
        extras = sorted(self.aux)
        cols += extras
        cols += [f"bond_{p + 1}" for p in range(self.bond_energies.shape[1])]
        lines = [",".join(cols)]
        for k, t in enumerate(self.times):
            row = [f"{t:.17g}", f"{self.total_energy[k]:.17g}"]
            row += [f"{self.aux[name][k]:.17g}" for name in extras]
            row += [f"{v:.17g}" for v in self.bond_energies[k]]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def _total_energy(bonds: np.ndarray) -> np.ndarray:
    """Row sums of bond energies; one that overflows is refused."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = bonds.sum(axis=1)
    if not np.isfinite(total).all():
        raise ResourceLimitError("the bond energies sum to a non-finite "
                                 "total energy")
    return total


def _layer_dt(duration: float, n_layers: int) -> float:
    """The time step of n_layers layers over duration, 0.0 with no layer;
    a negative count raises ValueError."""
    if n_layers < 0:
        raise ValueError(f"layer count {n_layers} is negative")
    return duration / n_layers if n_layers else 0.0


def _trotter_loop(state, layers, dt: float, observe):
    """Apply each layer action of `layers` (state -> new state) in turn,
    observing the state at t=0 and after every layer.

    Returns the times, the observations and the final state.
    """
    times, seen = [0.0], [observe(state)]
    for k, layer in enumerate(layers):
        state = layer(state)
        times.append((k + 1) * dt)
        seen.append(observe(state))
    return np.array(times), seen, state


def sz_reference_state(n_sites: int, total_spin_x2: int) -> StateVector:
    """Computational-basis vector of the sector's start path (M = S).

    Both start paths are products of nearest-neighbor pairs: singlets
    (|01> - |10>)/sqrt(2), the last one replaced by the stretched pair |00>
    for 2S=2.  So they are built directly up to REGISTER_MAX_QUBITS sites;
    above it they are refused before any allocation.
    """
    _refuse_register(n_sites)
    initial_path(n_sites, total_spin_x2)   # refuses other sectors
    pairs = [np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)] \
        * (n_sites // 2)
    if total_spin_x2 == 2:
        pairs[-1] = np.array([1, 0, 0, 0], dtype=complex)
    amps = np.ones(1, dtype=complex)
    for pair in pairs:
        amps = np.kron(amps, pair)
    return StateVector(n_sites, amps)


def sz_trotter_layer(n_sites: int, dt: float, order: int = 1,
                     coupling: float = 1.0):
    """One computational-basis Trotter step applied to the register directly,
    as a callable StateVector -> new StateVector.

    Each bond of circuits.sz_bond_layers is exp(-i theta (XX+YY+ZZ)) on its
    qubits (q, q+1).  With XX+YY+ZZ = 2 SWAP - 1 and SWAP = 1 - 2 P, P the
    projector on their singlet, that is exp(-i theta) (1 + k P) with
    k = exp(4i theta) - 1: a phase per bond, gathered into one phase per
    step, and on the (|01>, |10>) slice pair, views of the amplitudes
    reshaped to (2^q, 4, rest), the update d = k (a01 - a10) / 2,
    a01 += d, a10 -= d.  simulate(sz_trotter_step(...)) applies the same
    operator gate by gate and is its cross-check.

    Non-finite arguments raise ValueError; finite ones whose step phase or
    bond factors overflow raise ResourceLimitError.
    """
    if not np.isfinite([dt, coupling]).all():
        raise ValueError(f"time step {dt} and coupling {coupling} must be "
                         f"finite")
    layers = sz_bond_layers(n_sites, dt, order, coupling)
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.exp(-1j * sum(theta * len(qubits)
                                 for qubits, theta in layers))
        factors = [(np.exp(4j * theta) - 1) / 2 for _, theta in layers]
    if not np.isfinite([phase, *factors]).all():
        raise ResourceLimitError(f"time step {dt:g} at coupling {coupling:g} "
                                 f"gives a non-finite Trotter angle")
    bonds = [(q, half_k) for (qubits, _), half_k in zip(layers, factors)
             for q in qubits]

    def apply(state: StateVector) -> StateVector:
        if state.n_qubits != n_sites:
            raise InvalidQuantumNumbersError(
                "state/step qubit count mismatch")
        amps = phase * state.amplitudes
        for q, half_k in bonds:
            a = amps.reshape(1 << q, 4, -1)
            d = a[:, 1] - a[:, 2]
            d *= half_k
            a[:, 1] += d
            a[:, 2] -= d
        return StateVector(n_sites, amps)

    return apply


def trotter_evolve_sz(n_sites: int, total_spin_x2: int, duration: float,
                      n_layers: int, order: int = 1, coupling: float = 1.0):
    """Layered evolution in the computational basis from the sector's start
    path (M = S), each layer a sz_trotter_layer, observables per layer:
    bond energies, <S^2> and <S_z>."""
    dt = _layer_dt(duration, n_layers)
    state = sz_reference_state(n_sites, total_spin_x2)
    layer = sz_trotter_layer(n_sites, dt, order, coupling)

    def observe(state):
        aux = {"s_squared": s2_expectation_sz(state),
               "total_sz": sz_expectation_sz(state)}
        return bond_energies_sz(state, coupling), aux

    times, seen, state = _trotter_loop(state, [layer] * n_layers, dt,
                                       observe)
    bonds = np.array([row[0] for row in seen])
    aux = {name: np.array([row[1][name] for row in seen]) for name in seen[0][1]}
    return EvolutionRecord(times, _total_energy(bonds), bonds, aux), state


def start_vector(basis: CsfBasis) -> np.ndarray:
    """The sector's start path (initial_path) as a unit spin-path vector."""
    start = np.zeros(len(basis), dtype=complex)
    start[basis.position(initial_path(basis.n_sites,
                                      basis.total_spin_x2))] = 1.0
    return start


def path_trotter_run(step: PathStep, start: np.ndarray, duration: float,
                     n_layers: int, coupling: float = 1.0,
                     ramps: Sequence[float] | None = None):
    """Layered evolution of the spin-path vector `start` by the compiled
    step.

    ramps[k] scales bands s >= 1 in layer k (see circuits.band_angle); the
    default runs every layer at full weight.  A layer is rebuilt when its
    ramp differs from the previous layer's.  `start` is left unchanged.
    Returns the times and the path vectors at t=0 and after every layer,
    shape (n_layers + 1, dim).
    """
    dt = _layer_dt(duration, n_layers)
    ramps = [1.0] * n_layers if ramps is None else list(ramps)
    if len(ramps) != n_layers:
        raise ValueError(f"{len(ramps)} ramp values for {n_layers} layers")

    def layers():
        layer, layer_ramp = None, None
        for ramp in ramps:
            if ramp != layer_ramp:
                layer, layer_ramp = step.layer(dt, ramp, coupling), ramp
            yield layer

    times, vectors, _ = _trotter_loop(start, layers(), dt, lambda vec: vec)
    return times, np.array(vectors)


def trotter_comparison_csf(n_sites: int, total_spin_x2: int, trunc_x2: int,
                           duration: float, n_layers: int, order: int = 1,
                           coupling: float = 1.0):
    """Encoded evolution from the sector's start path, scored against two
    references, and the encoded register holding its final state.

    avg_abs_bond_error: bond energies vs the same run on the full basis,
    equal to trotter_evolve_sz's as its bond blocks commute with total spin;
    fidelity: overlap with the exact truncated evolution, per recorded time.
    """
    layout = build_layout(n_sites, total_spin_x2, trunc_x2)
    _refuse_register(layout.n_qubits)      # before either run starts
    record, basis = trotter_evolve_csf(
        n_sites, total_spin_x2, trunc_x2, duration, n_layers, order, coupling)
    ref_record, _ = trotter_evolve_csf(n_sites, total_spin_x2, None, duration,
                                       n_layers, order, coupling)
    ham = build_hamiltonian(basis, "band", coupling)
    exact = exact_evolve(ham, record.path_vectors[0], record.times[1:])
    fids = [1.0] + [fidelity(psi, vec)
                    for psi, vec in zip(exact, record.path_vectors[1:])]
    err = np.abs(record.bond_energies - ref_record.bond_energies).mean(axis=1)
    aux = {"avg_abs_bond_error": err, "fidelity": np.array(fids)}
    return (EvolutionRecord(record.times, record.total_energy,
                            record.bond_energies, aux),
            embed_path_vector(record.path_vectors[-1], basis, layout))


def trotter_evolve_csf(n_sites: int, total_spin_x2: int,
                       trunc_x2: int | None, duration: float, n_layers: int,
                       order: int = 1, coupling: float = 1.0):
    """Layered encoded evolution from the sector's start path, run on the
    spin-path vector (path_trotter_run), observables per layer.

    Any truncation runs, None (the full basis) included.  Bond energies are
    the quadratic form of each transposition's height rule over all the
    recorded path vectors at once (bond_energies_csf), flips that leave the
    truncation dropped; no operator matrix is built.
    Returns (record, basis); the final state is record.path_vectors[-1].
    """
    basis = enumerate_paths(n_sites, total_spin_x2, trunc_x2)
    times, vectors = path_trotter_run(PathStep(basis, order),
                                      start_vector(basis), duration,
                                      n_layers, coupling)
    bonds = bond_energies_csf(basis, vectors, coupling)
    return (EvolutionRecord(times, _total_energy(bonds), bonds,
                            path_vectors=vectors), basis)
