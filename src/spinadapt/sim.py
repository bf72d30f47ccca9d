"""Statevector simulation and the observable suite.

Amplitude indexing: qubit 0 is the most significant bit, so reshaping to
[2]*n puts qubit q on axis q.  All gate kernels preserve the norm to float
round-off; exact propagation is the action of the matrix exponential on a
vector (scipy's expm_multiply, Al-Mohy & Higham 2011) at every dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import cos, sin
from typing import Sequence

import numpy as np
import scipy.sparse.linalg as spla

from . import oracle
from .basis import CsfBasis, SpinPath, enumerate_paths, initial_path
from .circuits import Circuit, csf_trotter_step, sz_trotter_step
from .encode import QubitLayout, build_layout
from .errors import InvalidQuantumNumbersError, ResourceLimitError
from .sga import SparseOperator, build_hamiltonian, permutation_matrix


@dataclass
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def zero_state(n_qubits: int) -> StateVector:
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def basis_state(n_qubits: int, bits: int) -> StateVector:
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[bits] = 1.0
    return StateVector(n_qubits, amps)


def singlet_pair_state_sz(n_sites: int) -> StateVector:
    """Product of nearest-neighbor singlets in the computational basis."""
    if n_sites % 2 != 0:
        raise InvalidQuantumNumbersError("singlet-pair product needs even N")
    pair = np.zeros(4, dtype=complex)
    pair[0b01] = 1 / np.sqrt(2)
    pair[0b10] = -1 / np.sqrt(2)
    amps = np.array([1.0], dtype=complex)
    for _ in range(n_sites // 2):
        amps = np.kron(amps, pair)
    return StateVector(n_sites, amps)


def csf_path_state(layout: QubitLayout, path: SpinPath) -> StateVector:
    return basis_state(layout.n_qubits, layout.encode_path(path))


# --- gate kernels ---

def _apply_single(amps: np.ndarray, n: int, q: int, mat: np.ndarray) -> np.ndarray:
    a = amps.reshape((1 << q, 2, -1))
    top = mat[0, 0] * a[:, 0, :] + mat[0, 1] * a[:, 1, :]
    bot = mat[1, 0] * a[:, 0, :] + mat[1, 1] * a[:, 1, :]
    a = np.stack([top, bot], axis=1)
    return a.reshape(-1)


def _apply_diag(amps: np.ndarray, n: int, q: int, d0: complex, d1: complex):
    a = amps.reshape((1 << q, 2, -1))
    a[:, 0, :] *= d0
    a[:, 1, :] *= d1
    return amps


def _apply_cx(amps: np.ndarray, n: int, c: int, t: int) -> np.ndarray:
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
    """In-place gate application."""
    amps, n = state.amplitudes, state.n_qubits
    kind = gate.kind
    if kind == "PHASE":
        amps *= np.exp(1j * gate.angle)
        return
    if kind == "RZ":
        h = gate.angle / 2
        _apply_diag(amps, n, gate.target, np.exp(-1j * h), np.exp(1j * h))
        return
    if kind == "CX":
        _apply_cx(amps, n, gate.control, gate.target)
        return
    if kind == "X":
        mat = np.array([[0, 1], [1, 0]], dtype=complex)
    elif kind == "RX":
        h = gate.angle / 2
        mat = np.array([[cos(h), -1j * sin(h)], [-1j * sin(h), cos(h)]])
    elif kind == "RY":
        h = gate.angle / 2
        mat = np.array([[cos(h), -sin(h)], [sin(h), cos(h)]], dtype=complex)
    else:
        raise ValueError(f"unknown gate kind {kind!r}")
    state.amplitudes = _apply_single(amps, n, gate.target, mat)


def simulate(circuit: Circuit, initial: StateVector | None = None) -> StateVector:
    """Apply the circuit to a copy of the initial state (default |0...0>)."""
    state = zero_state(circuit.n_qubits) if initial is None else initial.copy()
    if initial is not None and initial.n_qubits != circuit.n_qubits:
        raise InvalidQuantumNumbersError("state/circuit qubit count mismatch")
    for gate in circuit.gates:
        apply_gate(state, gate)
    return state


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary, column by column; test-scale only."""
    dim = 1 << circuit.n_qubits
    if dim > 4096:
        raise ResourceLimitError("unitary build capped at 12 qubits")
    cols = []
    for k in range(dim):
        cols.append(simulate(circuit, basis_state(circuit.n_qubits, k)).amplitudes)
    return np.column_stack(cols)


# --- exact propagation ---

def exact_evolve(hamiltonian, amplitudes: np.ndarray, duration: float) -> np.ndarray:
    """exp(-i T H) applied to a vector without forming the exponential; H is
    a SparseOperator, a scipy sparse matrix or a dense array."""
    mat = hamiltonian.matrix if isinstance(hamiltonian, SparseOperator) \
        else hamiltonian
    if duration == 0.0:
        return amplitudes.copy()
    return spla.expm_multiply((-1j * duration) * mat,
                              amplitudes.astype(complex))


# --- observables ---

def bond_energies_sz(state: StateVector, coupling: float = 1.0) -> np.ndarray:
    """<(XX+YY+ZZ)/4>_{p,p+1} * J for every bond, via the swap identity."""
    n = state.n_qubits
    amps = state.amplitudes
    out = np.zeros(n - 1)
    for p in range(1, n):
        swapped = oracle.apply_permutation(amps, n, p, p + 1)
        val = np.vdot(amps, swapped).real / 2 - 0.25
        out[p - 1] = coupling * val
    return out


def total_energy_sz(state: StateVector, coupling: float = 1.0) -> float:
    return float(bond_energies_sz(state, coupling).sum())


def s2_expectation_sz(state: StateVector) -> float:
    return float(np.vdot(state.amplitudes,
                         oracle.apply_total_s2(state.amplitudes,
                                               state.n_qubits)).real)


def sz_expectation_sz(state: StateVector) -> float:
    return float(np.vdot(state.amplitudes,
                         oracle.apply_total_sz(state.amplitudes,
                                               state.n_qubits)).real)


def decode_to_path_vector(state: StateVector, basis: CsfBasis,
                          layout: QubitLayout) -> np.ndarray:
    """Gather amplitudes of physical bit-strings into basis ordering."""
    bits = layout.physical_bitstrings(basis)
    return state.amplitudes[bits]


def physical_weight(state: StateVector, basis: CsfBasis,
                    layout: QubitLayout) -> float:
    vec = decode_to_path_vector(state, basis, layout)
    return float(np.vdot(vec, vec).real)


def bond_energies_csf(path_vector: np.ndarray, bond_ops,
                      coupling: float = 1.0) -> np.ndarray:
    """(J/2)(<pi_{p,p+1}> - 1/2) per bond on a spin-path coefficient vector."""
    out = np.zeros(len(bond_ops))
    nrm = np.vdot(path_vector, path_vector).real
    for k, op in enumerate(bond_ops):
        val = np.vdot(path_vector, op @ path_vector).real / nrm
        out[k] = (coupling / 2) * (val - 0.5)
    return out


def fidelity(a, b) -> float:
    """|<a|b>| for two states over a common register or coefficient space."""
    va = a.amplitudes if isinstance(a, StateVector) else np.asarray(a)
    vb = b.amplitudes if isinstance(b, StateVector) else np.asarray(b)
    if va.shape != vb.shape:
        raise InvalidQuantumNumbersError("fidelity needs matching state shapes")
    return float(abs(np.vdot(va, vb)))


# --- Trotter evolution drivers ---

@dataclass
class EvolutionRecord:
    times: np.ndarray
    total_energy: np.ndarray
    bond_energies: np.ndarray            # shape (len(times), n_bonds)
    aux: dict[str, np.ndarray] = field(default_factory=dict)
    # decoded spin-path coefficients per time (encoded runs); not exported
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


def _trotter_loop(state: StateVector, steps, dt: float, observe):
    """Apply each layer circuit of `steps` in turn, observing the state at
    t=0 and after every layer.

    observe(state) returns (bond energies, {aux column: value}, decoded
    spin-path vector or None); the record keeps the vectors when given.
    """
    times, rows = [0.0], [observe(state)]
    for k, step in enumerate(steps):
        state = simulate(step, state)
        times.append((k + 1) * dt)
        rows.append(observe(state))
    bonds, aux, vectors = zip(*rows)
    bonds = np.array(bonds)
    record = EvolutionRecord(
        np.array(times), bonds.sum(axis=1), bonds,
        {name: np.array([row[name] for row in aux]) for name in aux[0]},
        None if vectors[0] is None else np.array(vectors))
    return record, state


def sz_reference_state(n_sites: int, total_spin_x2: int) -> StateVector:
    """Computational-basis vector of the sector's start path (M = S).

    Both start paths are products, singlet pairs optionally closed by a
    stretched pair, so they are built directly at any size.
    """
    initial_path(n_sites, total_spin_x2)   # refuses other sectors
    if total_spin_x2 == 0:
        return singlet_pair_state_sz(n_sites)
    base = singlet_pair_state_sz(n_sites - 2).amplitudes if n_sites > 2 \
        else np.array([1.0], dtype=complex)
    up_pair = np.zeros(4, complex)
    up_pair[0b00] = 1.0
    return StateVector(n_sites, np.kron(base, up_pair))


def trotter_evolve_sz(n_sites: int, total_spin_x2: int, duration: float,
                      n_layers: int, order: int = 1, coupling: float = 1.0,
                      track_symmetry: bool = False):
    """Layered evolution in the computational basis from the sector's start
    path (M = S), observables per layer."""
    state = sz_reference_state(n_sites, total_spin_x2)
    dt = duration / n_layers if n_layers else 0.0
    step = sz_trotter_step(n_sites, dt, order, coupling)

    def observe(state):
        aux = {"s_squared": s2_expectation_sz(state),
               "total_sz": sz_expectation_sz(state)} if track_symmetry else {}
        return bond_energies_sz(state, coupling), aux, None

    return _trotter_loop(state, [step] * n_layers, dt, observe)


def trotter_comparison_csf(n_sites: int, total_spin_x2: int, trunc_x2: int,
                           duration: float, n_layers: int, order: int = 1,
                           coupling: float = 1.0):
    """Encoded-register evolution from the sector's start path, scored
    against two references.

    avg_abs_bond_error: bond energies vs the same-shaped Trotter run in the
    computational basis; fidelity: overlap with the exact evolution under the
    truncated Hamiltonian, both per recorded time.
    """
    record, state, basis, _ = trotter_evolve_csf(
        n_sites, total_spin_x2, trunc_x2, duration, n_layers, order, coupling)
    ref_record, _ = trotter_evolve_sz(
        n_sites, total_spin_x2, duration, n_layers, order, coupling)
    ham = build_hamiltonian(basis, "band", coupling)
    dt = duration / n_layers if n_layers else 0.0
    fids = [1.0]
    psi = record.path_vectors[0]         # the start path
    for vec in record.path_vectors[1:]:
        psi = exact_evolve(ham, psi, dt)
        fids.append(fidelity(psi, vec))
    err = np.abs(record.bond_energies - ref_record.bond_energies).mean(axis=1)
    aux = {"avg_abs_bond_error": err, "fidelity": np.array(fids)}
    return EvolutionRecord(record.times, record.total_energy,
                           record.bond_energies, aux), state


def trotter_evolve_csf(n_sites: int, total_spin_x2: int, trunc_x2: int,
                       duration: float, n_layers: int, order: int = 1,
                       coupling: float = 1.0,
                       ramps: Sequence[float] | None = None):
    """Layered evolution on the encoded register from the sector's start
    path, observables per layer.

    ramps[k] scales bands s >= 1 in layer k (see csf_trotter_step); the
    default runs every layer at full weight.  A layer's circuit is emitted
    when its ramp differs from the previous layer's.  Bond energies use the
    truncated transposition operators on the decoded spin-path amplitudes;
    the recorded physical weight stays at 1 because the encoded terms never
    map the physical sector out of itself.
    """
    ramps = [1.0] * n_layers if ramps is None else list(ramps)
    if len(ramps) != n_layers:
        raise ValueError(f"{len(ramps)} ramp values for {n_layers} layers")
    basis = enumerate_paths(n_sites, total_spin_x2, trunc_x2)
    layout = build_layout(n_sites, total_spin_x2, trunc_x2)
    bond_ops = [permutation_matrix(basis, p, p + 1).matrix
                for p in range(1, n_sites)]
    dt = duration / n_layers if n_layers else 0.0
    state = csf_path_state(layout, initial_path(n_sites, total_spin_x2))

    def observe(state):
        vec = decode_to_path_vector(state, basis, layout)
        return (bond_energies_csf(vec, bond_ops, coupling),
                {"physical_weight": float(np.vdot(vec, vec).real)}, vec)

    def steps():
        step, step_ramp = None, None
        for ramp in ramps:
            if ramp != step_ramp:
                step, step_ramp = csf_trotter_step(
                    n_sites, total_spin_x2, trunc_x2, dt, order, ramp,
                    coupling, layout=layout), ramp
            yield step

    record, state = _trotter_loop(state, steps(), dt, observe)
    return record, state, basis, layout
