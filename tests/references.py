"""Test references: the brute-force and dense routes the package avoids.

The package works on spin paths and never expands them over the 2^N
computational basis; the checks below do, on small chains, so that the
permutation rules, the qubit encodings and the emitted circuits each have an
independent ground truth:

- the genealogical expansion of a spin path into the computational basis
  (expand_csf) and the operator matrices it gives (oracle_operator_matrix),
  with the computational-basis transposition, Heisenberg Hamiltonian and
  total S^2 (apply_permutation, apply_heisenberg, sz_hamiltonian_matrix,
  apply_total_s2);
- the dense matrix of a Pauli sum and its matrix elements between chosen
  bit-strings (to_dense, matrix_elements), and the bit-string of one path
  under a layout (encode_path);
- the step variables of a path and their cumulative-sum map back to
  heights (path_steps, step_to_height);
- the dense unitary of a circuit (circuit_unitary) and computational basis
  states (basis_state);
- the unfolded register, every chain position dynamical with only the
  parity and truncation constraints, and the Trotter step emitted on it
  (unfolded_layout, unfolded_trotter_step): the pre-projection register
  that checks that constant folding is exact on the pinned sector.

Bit convention: bit i holds site i (1-based site i+1), site 0 is the most
significant bit of the amplitude index; alpha=0, beta=1.
"""

from __future__ import annotations

from math import sqrt
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from spinadapt.basis import SpinPath
from spinadapt.circuits import Circuit, _emit_step
from spinadapt.encode import (PauliString, PauliSum, QubitLayout,
                              _assign_qubits, _check_sector)
from spinadapt.errors import (InvalidQuantumNumbersError, ResourceLimitError,
                              UnphysicalPathError)
from spinadapt.sim import (StateVector, _down_counts, _site_view,
                           apply_total_raise, simulate)

EXPAND_MAX_SITES = 14
MATRIX_ELEMENT_MAX_SITES = 12
DENSE_MATRIX_MAX_QUBITS = 12   # a 256 MiB complex matrix

STEP_UP = 1
STEP_DOWN = -1


# --- the computational-basis expansion ---

def expand_csf(path: SpinPath, magnetization_x2: int | None = None) -> np.ndarray:
    """Genealogical expansion of a spin path into the computational basis:
    its complex amplitudes over the 2^N bit-strings.

    Couples site by site; an up-coupled site multiplies by
    sqrt((h' + m +- 1)/(2(h'+1))) and a down-coupled site by the partner
    coefficient with the minus sign on the alpha branch (Condon-Shortley).
    """
    n = path.n_sites
    if n > EXPAND_MAX_SITES:
        raise ResourceLimitError(
            f"expansion over 2^{n} amplitudes refused (N > {EXPAND_MAX_SITES})")
    ts = path.total_spin_x2
    if magnetization_x2 is None:
        magnetization_x2 = ts
    if abs(magnetization_x2) > ts or (magnetization_x2 - ts) % 2 != 0:
        raise InvalidQuantumNumbersError(
            f"2M={magnetization_x2} invalid for 2S={ts}")

    # amps[mu_x2] = vector over bitstrings of the first i sites
    amps: dict[int, np.ndarray] = {0: np.ones(1)}
    for i in range(1, n + 1):
        hp, h = path.heights[i - 1], path.heights[i]
        up = h == hp + 1
        new: dict[int, np.ndarray] = {}
        for mu in range(-h, h + 1, 2):
            vec = np.zeros(1 << i)
            prev = amps.get(mu - 1)
            if prev is not None:  # append alpha (bit 0)
                c = sqrt((hp + mu + 1) / (2 * (hp + 1))) if up \
                    else -sqrt((hp - mu + 1) / (2 * (hp + 1)))
                vec[0::2] += c * prev
            prev = amps.get(mu + 1)
            if prev is not None:  # append beta (bit 1)
                c = sqrt((hp - mu + 1) / (2 * (hp + 1))) if up \
                    else sqrt((hp + mu + 1) / (2 * (hp + 1)))
                vec[1::2] += c * prev
            if np.any(vec):
                new[mu] = vec
        amps = new
    return amps[magnetization_x2].astype(complex)


# --- bitwise operator applications (site 0 = MSB) ---

def apply_permutation(amplitudes: np.ndarray, n_sites: int, i: int, j: int) -> np.ndarray:
    """Transposition pi_{i,j} of sites i and j (1-based): with site s on axis
    s of the amplitudes reshaped to [2]*N, the swap of axes i-1 and j-1, as a
    new flat array."""
    grid = amplitudes.reshape((2,) * n_sites)
    return np.swapaxes(grid, i - 1, j - 1).reshape(-1)


def apply_heisenberg(amplitudes: np.ndarray, n_sites: int,
                     coupling: float = 1.0) -> np.ndarray:
    """Matrix-free H = J sum_i (XX+YY+ZZ)_{i,i+1}/4 via the transposition identity.

    s_i.s_j = pi_{i,j}/2 - 1/4, so each bond contributes (swap - 1/2)/2 * J.
    """
    out = np.zeros_like(amplitudes)
    for p in range(1, n_sites):
        out += apply_permutation(amplitudes, n_sites, p, p + 1)
    out -= (n_sites - 1) / 2 * amplitudes
    return (coupling / 2) * out


def apply_total_s2(amplitudes: np.ndarray, n_sites: int) -> np.ndarray:
    """Total S^2 = S_- S_+ + S_z (S_z + 1), in 2N single-site passes.

    S_- adds the alpha slices of S_+ psi (apply_total_raise) back into the
    beta slices of the result, on the (2^i, 2, rest) view of site i.
    """
    sz = n_sites / 2 - _down_counts(n_sites)
    raised = apply_total_raise(amplitudes, n_sites)
    out = sz * (sz + 1) * amplitudes
    for site in range(n_sites):
        _site_view(out, site)[:, 1] += _site_view(raised, site)[:, 0]
    return out


def sz_hamiltonian_matrix(n_sites: int, coupling: float = 1.0) -> sp.csr_matrix:
    """Explicit sparse Heisenberg matrix over the full 2^N space."""
    if n_sites > EXPAND_MAX_SITES:
        raise ResourceLimitError(
            f"dense-basis Hamiltonian refused for N={n_sites} > {EXPAND_MAX_SITES}")
    dim = 1 << n_sites
    eye = sp.identity(dim, format="csr")
    ham = sp.csr_matrix((dim, dim))
    for p in range(1, n_sites):
        cols = np.arange(dim)
        rows = np.asarray(apply_permutation(cols, n_sites, p, p + 1))
        swap = sp.csr_matrix((np.ones(dim), (rows, cols)), shape=(dim, dim))
        ham = ham + (coupling / 2) * (swap - 0.5 * eye)
    return ham.tocsr()


def oracle_operator_matrix(op, basis, magnetization_x2: int | None = None,
                           coupling: float = 1.0) -> np.ndarray:
    """Full operator matrix over a CsfBasis, one expansion per path."""
    n = basis.n_sites
    if n > MATRIX_ELEMENT_MAX_SITES:
        raise ResourceLimitError(
            f"oracle matrix refused for N={n} > {MATRIX_ELEMENT_MAX_SITES}")
    vecs = np.array([expand_csf(p, magnetization_x2) for p in basis])
    if op == "H":
        imgs = np.array([apply_heisenberg(v, n, coupling) for v in vecs])
    else:
        _, i, j = op
        imgs = np.array([apply_permutation(v, n, i, j) for v in vecs])
    mat = vecs.conj() @ imgs.T
    assert np.abs(mat.imag).max() < 1e-12
    return mat.real


# --- dense Pauli sums and single-path bit-strings ---

def _term_action(n_qubits: int, term: PauliString, cols: np.ndarray):
    """Images and amplitudes of one string applied to column bit-strings."""
    n = n_qubits
    flip = 0
    zmask = 0
    ybits = []
    for q, letter in enumerate(term.letters):
        bp = n - 1 - q
        if letter in ("X", "Y"):
            flip |= 1 << bp
        if letter in ("Z", "Y"):
            zmask |= 1 << bp
        if letter == "Y":
            ybits.append(bp)
    vals = np.full(cols.size, term.coefficient, dtype=complex)
    if zmask:
        par = np.zeros(cols.size, dtype=np.int64)
        tmp = cols & zmask
        while np.any(tmp):
            par ^= tmp & 1
            tmp >>= 1
        vals = vals * np.where(par == 1, -1.0, 1.0)
    for bp in ybits:
        up = ((cols >> bp) & 1) == 0
        vals = vals * np.where(up, 1j, -1j)
    return cols ^ flip, vals


def matrix_elements(pauli: PauliSum, row_bits: np.ndarray,
                    col_bits: np.ndarray) -> np.ndarray:
    """Dense block <row|H|col> over arbitrary bit-string selections."""
    rows = np.asarray(row_bits, dtype=np.int64)
    cols = np.asarray(col_bits, dtype=np.int64)
    order = np.argsort(rows, kind="stable")
    sorted_rows = rows[order]
    out = np.zeros((rows.size, cols.size), dtype=complex)
    for term in pauli.terms:
        images, vals = _term_action(pauli.n_qubits, term, cols)
        where = np.searchsorted(sorted_rows, images)
        where = np.clip(where, 0, rows.size - 1)
        hit = sorted_rows[where] == images
        np.add.at(out, (order[where[hit]], np.nonzero(hit)[0]), vals[hit])
    return out


def to_dense(pauli: PauliSum) -> np.ndarray:
    if pauli.n_qubits > DENSE_MATRIX_MAX_QUBITS:
        raise ResourceLimitError(
            f"dense matrix refused above {DENSE_MATRIX_MAX_QUBITS} qubits")
    allbits = np.arange(1 << pauli.n_qubits, dtype=np.int64)
    return matrix_elements(pauli, allbits, allbits)


def encode_path(layout: QubitLayout, path: SpinPath) -> int:
    """Bit-string index of a path; qubit 0 is the most significant bit."""
    return int(layout._encode(path.n_sites, np.array([path.heights]))[0])


# --- step variables ---

def path_steps(path: SpinPath) -> tuple[int, ...]:
    """Per-site coupling direction, +1 (up) or -1 (down)."""
    return tuple(path.heights[i + 1] - path.heights[i]
                 for i in range(path.n_sites))


def step_to_height(steps: Sequence[int]) -> SpinPath:
    """Cumulative-sum bijection from +-1 steps to a height path."""
    heights = [0]
    for k, s in enumerate(steps):
        if s not in (STEP_UP, STEP_DOWN):
            raise UnphysicalPathError(f"step {k + 1} must be +1 or -1, got {s!r}")
        h = heights[-1] + s
        if h < 0:
            raise UnphysicalPathError(
                f"steps yield a negative intermediate spin after site {k + 1}")
        heights.append(h)
    return SpinPath(tuple(heights), len(steps))


# --- circuits ---

def basis_state(n_qubits: int, bits: int) -> StateVector:
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[bits] = 1.0
    return StateVector(n_qubits, amps)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary: one simulate of the identity, its columns a trailing
    batch axis of the register; test-scale only.  The kernels hold up to
    four dim x dim blocks at once: 256 MiB at the cap of 11 qubits."""
    dim = 1 << circuit.n_qubits
    if dim > 2048:
        raise ResourceLimitError("unitary build capped at 11 qubits")
    eye = StateVector(circuit.n_qubits, np.eye(dim, dtype=complex).reshape(-1))
    return simulate(circuit, eye).amplitudes.reshape(dim, dim)


def unfolded_layout(n_sites: int, total_spin_x2: int,
                    trunc_x2: int) -> QubitLayout:
    """The layout with every chain position dynamical: the heights of the
    position's parity up to the truncation, with no boundary constraint."""
    _check_sector(n_sites, total_spin_x2, trunc_x2)
    return _assign_qubits(n_sites, total_spin_x2, trunc_x2, [
        tuple(range(pos % 2, trunc_x2 + 1, 2)) for pos in range(n_sites + 1)])


def unfolded_trotter_step(n_sites: int, total_spin_x2: int, trunc_x2: int,
                          dt: float, order: int = 1) -> Circuit:
    """csf_trotter_step's gates emitted on unfolded_layout's register."""
    return _emit_step(unfolded_layout(n_sites, total_spin_x2, trunc_x2), dt,
                      order, 1.0, 1.0)
