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

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import CsfBasis, enumerate_paths, sector_bytes
from .circuits import SCHEDULE_ORDER
from .sga import _bond_sums, _csr
# simulate is re-exported: bench/spans.py patches every module's copy of it
# and checks the copy here.
from .sim import (PathStep, _check_run, exact_evolve,  # noqa: F401
                  path_trotter_run, simulate, start_vector)


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
                order: int = SCHEDULE_ORDER,
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
    of every count n in `layer_counts`, each state keyed by the float k/n.
    Each interval between boundaries is a Taylor series of the continuous
    ramp with no splitting error; each series runs to the 2^-53 tail test of
    exact_evolve, and one that does not converge raises ResourceLimitError,
    as does a slope that overflows.  For counts 10, 20, 30 and 40 that is 60
    intervals.  A count below 1 is refused with ValueError, counts whose
    runs exceed the memory budget (sim._check_run) with ResourceLimitError.
    """

    def __init__(self, sector: PreparedSector, duration: float,
                 layer_counts):
        self.sector = sector
        self.duration = duration
        self.layer_counts = tuple(int(n) for n in layer_counts)
        for n in self.layer_counts:
            if n < 1:
                raise ValueError(f"layer count {n} is below 1")
        dim = len(sector.basis)
        # rows of 4 vectors: the layers' list and stack, two einsum operands
        refs = sum(k + 1 for k in self.layer_counts)
        _check_run(sector_bytes(sector.basis.n_sites, dim) + 16 * dim * refs,
                   max(self.layer_counts, default=0) + 1, 4 * dim,
                   f"the sector of {dim} paths, {refs} reference states")
        self.states: dict[float, np.ndarray] | None = None

    def boundaries(self, n_layers: int) -> list[np.ndarray]:
        """States at the boundaries k / n_layers of a count in layer_counts."""
        if self.states is None:
            sector, duration = self.sector, self.duration
            keys = sorted({k / n for n in self.layer_counts
                           for k in range(n + 1)})
            # a T near the underflow limit overflows the slope, whose
            # non-finite entries exact_evolve refuses
            with np.errstate(over="ignore", invalid="ignore"):
                slope = sector.h_ramp / duration if duration else None
            times = [key * duration for key in keys[1:]]
            states = exact_evolve(sector.h_start, sector.start, times, slope)
            self.states = {0.0: sector.start, **dict(zip(keys[1:], states))}
        return [self.states[k / n_layers] for k in range(n_layers + 1)]


def run_schedule(runs: ReferenceRuns, n_layers: int) -> ScheduleResult:
    """Trotterized schedule of n_layers layers on the spin-path vector vs
    the exact schedule, over the sector and duration of `runs`.

    Energies are measured against the instantaneous interpolated Hamiltonian
    (the t=0 row therefore sits exactly at the initial ground energy);
    fidelities are instantaneous overlaps with the exact evolution.  The
    count is checked first, and the Trotter layers run before the reference
    is integrated, so a refusal of the layers' angles comes next.
    """
    if n_layers not in runs.layer_counts:
        raise ValueError(f"{n_layers} layers is not one of the shared "
                         f"counts {runs.layer_counts}")
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
          durations, layer_counts, order: int = SCHEDULE_ORDER,
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
