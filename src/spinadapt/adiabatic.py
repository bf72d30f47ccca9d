"""Adiabatic ground-state preparation in truncated spin-path subspaces.

The zeroth band pins the sector's start path (singlet pairs, or the triplet
reference for 2S=2) as its unique ground state, so switching every higher
band on linearly, H(t) = H_start + (t/T) H_ramp, interpolates between a
trivially prepared state and the band-truncated chain Hamiltonian.  The
Trotterized schedule scales the higher bands' time step by t/T sampled at
each layer midpoint.  The exact reference integrates the continuous ramp
with one Taylor series of i psi' = (H(t_a) + (t - t_a) H_ramp / T) psi per
interval between layer boundaries (sim.exact_evolve with a slope), so it has
no splitting error: on the benchmark sector (N=12, trunc 3/2, T=20) its
states lie within 1.3e-13 of the continuous-time limit, and a sweep over
10, 20 and 40 layers makes 40 exact_evolve calls per duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# initial_path and simulate are re-exported: callers take the start path
# from here, and bench/spans.py patches every module's copy of simulate and
# checks the copy here.
from .basis import CsfBasis, enumerate_paths, initial_path  # noqa: F401
from .sga import HEIGHT_MODE, PRUNE_TOL, SparseOperator, _bond_sums, \
    build_hamiltonian, ground_state
from .encode import build_layout
from .sim import exact_evolve, path_trotter_run, simulate  # noqa: F401

@dataclass(frozen=True)
class Schedule:
    """Linear band ramp over one duration for one symmetry sector."""

    total_spin_x2: int
    trunc_x2: int
    duration: float
    n_layers: int
    order: int = 2


@dataclass
class ScheduleResult:
    times: np.ndarray
    energy: np.ndarray            # <H(t)> along the run
    fidelity: np.ndarray          # vs the exact schedule at the same times
    target_energy: float          # ground energy of the full-weight Hamiltonian
    final_state: np.ndarray       # spin-path coefficients at T

    @property
    def final_fidelity(self) -> float:
        return float(self.fidelity[-1])

    def to_csv(self) -> str:
        lines = ["t,energy,fidelity"]
        for k in range(self.times.size):
            lines.append(f"{self.times[k]:.17g},{self.energy[k]:.17g},"
                         f"{self.fidelity[k]:.17g}")
        return "\n".join(lines) + "\n"


def schedule_hamiltonians(basis: CsfBasis, coupling: float = 1.0):
    """CSR matrices (H_start, H_ramp), with H(t) = H_start + (t/T) H_ramp.

    H_start is the zeroth band with the identity shift, (J/2)(H_0 - (N-1)/2),
    which is diagonal; H_ramp = (J/2) sum_{1 <= s < trunc} H_s.  At t = T
    they sum to the band-mode Hamiltonian.  Both come from one pass over the
    bonds and share one sorted sparsity pattern, the full diagonal and the
    ramp's flips, so H(t) is the axpy H_start.data + (t/T) H_ramp.data on
    that pattern.
    """
    diag, rows, cols, off = _bond_sums(basis, [range(1), range(1, basis.trunc_x2)])
    half = coupling / 2
    ramp_diag = half * diag[1]
    ramp_diag[np.abs(ramp_diag) <= PRUNE_TOL] = 0.0   # kept in the pattern
    h_ramp = sp.csr_matrix((np.concatenate([ramp_diag, half * off]), (rows, cols)),
                           shape=(len(basis),) * 2)
    h_ramp.sort_indices()
    row_of = np.repeat(np.arange(len(basis)), np.diff(h_ramp.indptr))
    start = np.zeros_like(h_ramp.data)
    start[h_ramp.indices == row_of] = half * (diag[0] - (basis.n_sites - 1) / 2)
    return sp.csr_matrix((start, h_ramp.indices, h_ramp.indptr),
                         shape=h_ramp.shape), h_ramp


def _ground_energy(basis: CsfBasis, matrix: sp.csr_matrix) -> float:
    return float(ground_state(SparseOperator(basis, matrix))[0][0])


class ReferenceRuns:
    """The exact evolution at one duration, shared by the schedules of
    several layer counts (one object per sector, coupling and duration).

    The ramp is integrated once, through the sorted union of the layer
    boundaries k/n of every count n in `layer_counts`, kept as integers on
    the grid of 1/lcm(layer_counts): each interval from t_a is one
    exact_evolve of H(t_a) with the ramp's slope H_ramp / T, a Taylor series
    of the continuous ramp with no splitting error.  For counts 10, 20, 30
    and 40 that is 60 intervals.
    """

    def __init__(self, layer_counts):
        self.layer_counts = tuple(int(n) for n in layer_counts)
        self.grid = math.lcm(*self.layer_counts)
        self.states: dict[int, np.ndarray] | None = None

    def boundaries(self, schedule: Schedule, h_start, h_ramp,
                   start: np.ndarray) -> list[np.ndarray]:
        """States at the schedule's layer boundaries."""
        if schedule.n_layers not in self.layer_counts:
            raise ValueError(f"{schedule.n_layers} layers is not one of the "
                             f"shared counts {self.layer_counts}")
        if self.states is None:
            keys = sorted({self.grid // n * k for n in self.layer_counts
                           for k in range(n + 1)})
            duration = schedule.duration
            slope = h_ramp / duration if duration else None
            h = h_start.copy()           # H(t_a), rewritten in place
            psi, self.states = start, {0: start}
            for key, end in zip(keys, keys[1:]):
                np.add(h_start.data, key / self.grid * h_ramp.data, out=h.data)
                psi = exact_evolve(h, psi, (end - key) / self.grid * duration,
                                   slope)
                self.states[end] = psi
        stride = self.grid // schedule.n_layers
        return [self.states[k * stride] for k in range(schedule.n_layers + 1)]


def _exact_reference(schedule: Schedule, h_start, h_ramp, start: np.ndarray,
                     runs: ReferenceRuns | None = None) -> list[np.ndarray]:
    """Layer-boundary snapshots of the exact schedule, from `runs` or from a
    run of the schedule's own layer count.

    Each interval's series runs to the 2^-53 tail test of exact_evolve; on
    the benchmark sector (N=12, trunc 3/2, T=20) the states lie within
    1.3e-13 of the continuous-time limit.  A series that does not converge
    raises ResourceLimitError.
    """
    if runs is None:
        runs = ReferenceRuns([schedule.n_layers])
    return runs.boundaries(schedule, h_start, h_ramp, start)


def run_schedule(schedule: Schedule, n_sites: int, coupling: float = 1.0,
                 runs: ReferenceRuns | None = None) -> ScheduleResult:
    """Trotterized schedule on the spin-path vector vs the exact schedule.

    Energies are measured against the instantaneous interpolated Hamiltonian
    (the t=0 row therefore sits exactly at the initial ground energy);
    fidelities are instantaneous overlaps with the refined exact evolution.
    `runs` shares the exact reference with other schedules of the same
    sector, coupling and duration (see sweep).
    """
    n_layers = schedule.n_layers
    basis = enumerate_paths(n_sites, schedule.total_spin_x2, schedule.trunc_x2)
    times, vecs = path_trotter_run(
        basis, build_layout(n_sites, schedule.total_spin_x2, schedule.trunc_x2),
        schedule.duration, n_layers, schedule.order, coupling,
        ramps=[(k + 0.5) / n_layers for k in range(n_layers)])
    h_start, h_ramp = schedule_hamiltonians(basis, coupling)
    refs = _exact_reference(schedule, h_start, h_ramp, vecs[0], runs)
    # <H(t_k)> = <H_start> + (k/n) <H_ramp>, both over every vector at once
    e_start, e_ramp = (np.einsum("kd,dk->k", vecs.conj(), mat @ vecs.T).real
                       for mat in (h_start, h_ramp))
    energies = e_start + np.arange(n_layers + 1) / n_layers * e_ramp
    fids = [abs(np.vdot(ref, vec)) for ref, vec in zip(refs, vecs)]
    return ScheduleResult(times, energies, np.array(fids),
                          _ground_energy(basis, h_start + h_ramp), vecs[-1])


def target_ground_truth(schedule: Schedule, n_sites: int,
                        coupling: float = 1.0):
    """(E_init, E_target, E_exact_full) for the schedule's sector.

    E_init: ground energy of H_start on the truncated basis;
    E_target: ground energy of H_start + H_ramp, the band-truncated Hamiltonian;
    E_exact_full: untruncated ground energy in the same (N, S) sector.
    """
    basis = enumerate_paths(n_sites, schedule.total_spin_x2, schedule.trunc_x2)
    h_start, h_ramp = schedule_hamiltonians(basis, coupling)
    full = enumerate_paths(n_sites, schedule.total_spin_x2)
    e_exact = float(ground_state(
        build_hamiltonian(full, HEIGHT_MODE, coupling))[0][0])
    return (_ground_energy(basis, h_start),
            _ground_energy(basis, h_start + h_ramp), e_exact)


def sweep(n_sites: int, total_spin_x2: int, trunc_x2: int,
          durations, layer_counts, order: int = Schedule.order,
          coupling: float = 1.0) -> list[dict]:
    """Final energy and fidelity over a (duration, layers) grid; the layer
    counts of one duration share their exact reference runs."""
    rows = []
    for duration in durations:
        runs = ReferenceRuns(layer_counts)
        for n_layers in layer_counts:
            sched = Schedule(total_spin_x2, trunc_x2, float(duration),
                             int(n_layers), order)
            res = run_schedule(sched, n_sites, coupling, runs)
            rows.append({
                "trunc_x2": trunc_x2,
                "duration": float(duration),
                "n_layers": int(n_layers),
                "order": order,
                "final_energy": float(res.energy[-1]),
                "final_fidelity": res.final_fidelity,
            })
    return rows


def sweep_csv(rows: list[dict]) -> str:
    lines = ["trunc,T,n_layers,order,final_energy,final_fidelity"]
    for r in rows:
        lines.append(f"{r['trunc_x2'] / 2:g},{r['duration']:.17g},"
                     f"{r['n_layers']},{r['order']},"
                     f"{r['final_energy']:.17g},{r['final_fidelity']:.17g}")
    return "\n".join(lines) + "\n"
