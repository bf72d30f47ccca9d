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
sweep over 10, 20 and 40 layers makes one call per duration.  Preparing
a sector runs no eigensolve.

Each parameter of a schedule has one owner: a PreparedSector holds the
sector and what is built from it once, a ReferenceRuns one duration and
its exact reference, and run_schedule(runs, n_layers) reads both from
`runs`.  A sweep prepares its sector once for its whole grid, with one
ReferenceRuns per duration; a single schedule is the same with one
duration and one layer count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import CsfBasis, enumerate_paths
from .sga import _bond_sums, _csr
# simulate is re-exported: bench/spans.py patches every module's copy of it
# and checks the copy here.
from .sim import (PathStep, exact_evolve, path_trotter_run,  # noqa: F401
                  simulate, start_vector)

DEFAULT_ORDER = 2     # Trotter order of a schedule that names none


@dataclass
class ScheduleResult:
    times: np.ndarray
    energy: np.ndarray            # <H(t)> along the run
    fidelity: np.ndarray          # vs the exact schedule at the same times
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
    they sum to the band-mode Hamiltonian.  Each is built by sga._csr, like
    every spin-path operator, on its own pattern; exact_evolve unites them.
    """
    half, shift = coupling / 2, (basis.n_sites - 1) / 2
    return (_csr(basis, *_bond_sums(basis, range(1), shift=shift), half),
            _csr(basis, *_bond_sums(basis, range(1, basis.trunc_x2)), half))


@dataclass(frozen=True, eq=False)
class PreparedSector:
    """What every schedule of one sector, order and coupling shares: the
    basis, the coupling, the Trotter step compiled at the order, the start
    vector (read-only) and the schedule pair (H_start, H_ramp)."""

    basis: CsfBasis
    coupling: float
    step: PathStep
    start: np.ndarray
    h_start: sp.csr_matrix
    h_ramp: sp.csr_matrix

    @classmethod
    def prepare(cls, n_sites: int, total_spin_x2: int, trunc_x2: int,
                order: int = DEFAULT_ORDER,
                coupling: float = 1.0) -> "PreparedSector":
        basis = enumerate_paths(n_sites, total_spin_x2, trunc_x2)
        step = PathStep(basis, order)
        start = start_vector(basis)
        start.flags.writeable = False
        return cls(basis, coupling, step, start,
                   *schedule_hamiltonians(basis, coupling))


class ReferenceRuns:
    """The exact evolution of one prepared sector over one ramp duration,
    shared by the schedules of several layer counts.

    The ramp is integrated once, when the first schedule asks for its
    boundaries, by one exact_evolve of H_start with the ramp's slope
    H_ramp / T, checkpointed at the sorted union of the layer boundaries k/n
    of every count n in `layer_counts`, kept as integers on the grid of
    1/lcm(layer_counts).  Each interval between boundaries is a Taylor
    series of the continuous ramp with no splitting error; each series runs
    to the 2^-53 tail test of exact_evolve, and one that does not converge
    raises ResourceLimitError, as does a slope that overflows.  For counts
    10, 20, 30 and 40 that is 60 intervals.  A count below 1 is refused
    with ValueError.
    """

    def __init__(self, sector: PreparedSector, duration: float,
                 layer_counts):
        self.sector = sector
        self.duration = duration
        self.layer_counts = tuple(int(n) for n in layer_counts)
        for n in self.layer_counts:
            if n < 1:
                raise ValueError(f"layer count {n} is below 1")
        self.grid = math.lcm(*self.layer_counts)
        self.states: dict[int, np.ndarray] | None = None

    def stride(self, n_layers: int) -> int:
        """Grid steps per layer; a count not in `layer_counts` is refused."""
        if n_layers not in self.layer_counts:
            raise ValueError(f"{n_layers} layers is not one of the "
                             f"shared counts {self.layer_counts}")
        return self.grid // n_layers

    def boundaries(self, n_layers: int) -> list[np.ndarray]:
        """States at the layer boundaries of n_layers layers (see stride)."""
        stride = self.stride(n_layers)
        if self.states is None:
            sector, duration = self.sector, self.duration
            keys = sorted({self.grid // n * k for n in self.layer_counts
                           for k in range(n + 1)})
            # a T near the underflow limit overflows the slope, whose
            # non-finite entries exact_evolve refuses
            with np.errstate(over="ignore", invalid="ignore"):
                slope = sector.h_ramp / duration if duration else None
            times = [key / self.grid * duration for key in keys[1:]]
            states = exact_evolve(sector.h_start, sector.start, times, slope)
            self.states = {0: sector.start, **dict(zip(keys[1:], states))}
        return [self.states[k * stride] for k in range(n_layers + 1)]


def run_schedule(runs: ReferenceRuns, n_layers: int) -> ScheduleResult:
    """Trotterized schedule of n_layers layers on the spin-path vector vs
    the exact schedule, over the sector and duration of `runs`.

    Energies are measured against the instantaneous interpolated Hamiltonian
    (the t=0 row therefore sits exactly at the initial ground energy);
    fidelities are instantaneous overlaps with the exact evolution.  The
    count is checked first, and the Trotter layers run before the reference
    is integrated, so a refusal of the layers' angles comes next.
    """
    runs.stride(n_layers)
    sector = runs.sector
    times, vecs = path_trotter_run(
        sector.step, sector.start, runs.duration, n_layers, sector.coupling,
        ramps=[(k + 0.5) / n_layers for k in range(n_layers)])
    refs = runs.boundaries(n_layers)
    # <H(t_k)> = <H_start> + (k/n) <H_ramp>, both over every vector at once
    e_start, e_ramp = (np.einsum("kd,dk->k", vecs.conj(), mat @ vecs.T).real
                       for mat in (sector.h_start, sector.h_ramp))
    energies = e_start + np.arange(n_layers + 1) / n_layers * e_ramp
    fids = [abs(np.vdot(ref, vec)) for ref, vec in zip(refs, vecs)]
    return ScheduleResult(times, energies, np.array(fids), vecs[-1])


def sweep(n_sites: int, total_spin_x2: int, trunc_x2: int,
          durations, layer_counts, order: int = DEFAULT_ORDER,
          coupling: float = 1.0) -> list[dict]:
    """Final energy and fidelity over a (duration, layers) grid.  The
    sector is prepared once for the whole grid; the layer counts of one
    duration share their exact reference runs, which are released when the
    sweep moves to the next duration."""
    sector = PreparedSector.prepare(n_sites, total_spin_x2, trunc_x2, order,
                                    coupling)
    rows = []
    for duration in durations:
        runs = ReferenceRuns(sector, float(duration), layer_counts)
        for n_layers in layer_counts:
            res = run_schedule(runs, int(n_layers))
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
