"""Adiabatic ground-state preparation in truncated spin-path subspaces.

The zeroth band pins the sector's start path (singlet pairs, or the triplet
reference for 2S=2) as its unique ground state, so switching every higher
band on linearly, H(t) = H_start + (t/T) H_ramp, interpolates between a
trivially prepared state and the band-truncated chain Hamiltonian.  The
Trotterized schedule scales the higher bands' time step by t/T sampled at
each layer midpoint.  The exact reference integrates the continuous ramp
with one Taylor series of i psi' = (H(t_a) + (t - t_a) H_ramp / T) psi per
interval between layer boundaries, so it has no splitting error: on the
benchmark sector (N=12, trunc 3/2, T=20) its states lie within 1.3e-13 of
the continuous-time limit.  All intervals of one duration are one
sim.exact_evolve call with a slope, checkpointed at the boundaries, so a
sweep over 10, 20 and 40 layers makes one call per duration.

A sweep prepares its sector once (PreparedSector: basis, compiled Trotter
step, start vector, schedule pair and target ground energy) and hands it to
every schedule of its grid, with one ReferenceRuns per duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import CsfBasis, enumerate_paths
from .sga import PRUNE_TOL, SparseOperator, _bond_sums, ground_state
# simulate is re-exported: bench/spans.py patches every module's copy of it
# and checks the copy here.
from .sim import (PathStep, exact_evolve, path_trotter_run,  # noqa: F401
                  simulate, start_vector)

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


SECTOR_FIELDS = ("n_sites", "total_spin_x2", "trunc_x2", "order", "coupling")


def _sector_key(schedule: Schedule, n_sites: int, coupling: float) -> tuple:
    """The schedule's sector, as SECTOR_FIELDS."""
    return (n_sites, schedule.total_spin_x2, schedule.trunc_x2,
            schedule.order, coupling)


@dataclass(frozen=True, eq=False)
class PreparedSector:
    """What every schedule of one sector, order and coupling shares: the
    basis, the compiled Trotter step, the start vector (read-only), the
    schedule pair (H_start, H_ramp) and the ground energy of their sum."""

    key: tuple                    # values of SECTOR_FIELDS
    basis: CsfBasis
    step: PathStep
    start: np.ndarray
    h_start: sp.csr_matrix
    h_ramp: sp.csr_matrix
    target_energy: float

    @classmethod
    def prepare(cls, n_sites: int, total_spin_x2: int, trunc_x2: int,
                order: int = Schedule.order,
                coupling: float = 1.0) -> "PreparedSector":
        basis = enumerate_paths(n_sites, total_spin_x2, trunc_x2)
        step = PathStep(basis, order)
        start = start_vector(basis)
        start.flags.writeable = False
        h_start, h_ramp = schedule_hamiltonians(basis, coupling)
        target = ground_state(SparseOperator(basis, h_start + h_ramp))[0][0]
        return cls((n_sites, total_spin_x2, trunc_x2, order, coupling), basis,
                   step, start, h_start, h_ramp, float(target))


class ReferenceRuns:
    """The exact evolution of one prepared sector at one duration, shared by
    the schedules of several layer counts.

    The ramp is integrated once, at the duration of the first schedule
    asked for, by one exact_evolve of H_start with the ramp's slope
    H_ramp / T, checkpointed at the sorted union of the layer boundaries k/n
    of every count n in `layer_counts`, kept as integers on the grid of
    1/lcm(layer_counts).  Each interval between boundaries is a Taylor
    series of the continuous ramp with no splitting error; each series runs
    to the 2^-53 tail test of exact_evolve, and one that does not converge
    raises ResourceLimitError.  For counts 10, 20, 30 and 40 that is 60
    intervals.
    """

    def __init__(self, sector: PreparedSector, layer_counts):
        self.sector = sector
        self.layer_counts = tuple(int(n) for n in layer_counts)
        self.grid = math.lcm(*self.layer_counts)
        self.duration: float | None = None
        self.states: dict[int, np.ndarray] | None = None

    def boundaries(self, schedule: Schedule) -> list[np.ndarray]:
        """States at the schedule's layer boundaries."""
        if schedule.n_layers not in self.layer_counts:
            raise ValueError(f"{schedule.n_layers} layers is not one of the "
                             f"shared counts {self.layer_counts}")
        if self.states is None:
            sector, duration = self.sector, schedule.duration
            keys = sorted({self.grid // n * k for n in self.layer_counts
                           for k in range(n + 1)})
            slope = sector.h_ramp / duration if duration else None
            times = [key / self.grid * duration for key in keys[1:]]
            states = exact_evolve(sector.h_start, sector.start, times, slope)
            self.states = {0: sector.start, **dict(zip(keys[1:], states))}
            self.duration = duration
        elif schedule.duration != self.duration:
            raise ValueError(f"these reference runs integrated duration "
                             f"{self.duration}, not the schedule's "
                             f"{schedule.duration}")
        stride = self.grid // schedule.n_layers
        return [self.states[k * stride] for k in range(schedule.n_layers + 1)]


def run_schedule(schedule: Schedule, n_sites: int, coupling: float = 1.0,
                 runs: ReferenceRuns | None = None) -> ScheduleResult:
    """Trotterized schedule on the spin-path vector vs the exact schedule.

    Energies are measured against the instantaneous interpolated Hamiltonian
    (the t=0 row therefore sits exactly at the initial ground energy);
    fidelities are instantaneous overlaps with the refined exact evolution.
    `runs` carries the prepared sector and the exact reference that other
    schedules of the same sector and duration share (see sweep); without
    it, both are built for this schedule alone.  A sector other than the
    schedule's raises ValueError.
    """
    key = _sector_key(schedule, n_sites, coupling)
    if runs is None:
        runs = ReferenceRuns(PreparedSector.prepare(*key), [schedule.n_layers])
    elif runs.sector.key != key:
        fields = ", ".join(SECTOR_FIELDS)
        raise ValueError(f"prepared sector ({fields}) = {runs.sector.key} "
                         f"is not the schedule's {key}")
    sector, n_layers = runs.sector, schedule.n_layers
    times, vecs = path_trotter_run(
        sector.step, sector.start, schedule.duration, n_layers, coupling,
        ramps=[(k + 0.5) / n_layers for k in range(n_layers)])
    refs = runs.boundaries(schedule)
    # <H(t_k)> = <H_start> + (k/n) <H_ramp>, both over every vector at once
    e_start, e_ramp = (np.einsum("kd,dk->k", vecs.conj(), mat @ vecs.T).real
                       for mat in (sector.h_start, sector.h_ramp))
    energies = e_start + np.arange(n_layers + 1) / n_layers * e_ramp
    fids = [abs(np.vdot(ref, vec)) for ref, vec in zip(refs, vecs)]
    return ScheduleResult(times, energies, np.array(fids),
                          sector.target_energy, vecs[-1])


def sweep(n_sites: int, total_spin_x2: int, trunc_x2: int,
          durations, layer_counts, order: int = Schedule.order,
          coupling: float = 1.0) -> list[dict]:
    """Final energy and fidelity over a (duration, layers) grid.  The
    sector is prepared once for the whole grid; the layer counts of one
    duration share their exact reference runs, which are released when the
    sweep moves to the next duration."""
    sector = PreparedSector.prepare(n_sites, total_spin_x2, trunc_x2, order,
                                    coupling)
    rows = []
    for duration in durations:
        runs = ReferenceRuns(sector, layer_counts)
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
