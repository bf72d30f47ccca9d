"""Adiabatic ground-state preparation in truncated spin-path subspaces.

The zeroth band pins the sector's start path (singlet pairs, or the triplet
reference for 2S=2) as its unique ground state, so switching every higher
band on linearly, H(t) = H_start + (t/T) H_ramp, interpolates between a
trivially prepared state and the band-truncated chain Hamiltonian.  The
Trotterized schedule scales the higher bands' time step by t/T sampled at
each layer midpoint.  The exact reference integrates the continuous ramp with
the fourth-order commutator-free Magnus integrator CF4 (Blanes & Moan,
Appl. Numer. Math. 56, 1519 (2006); Alvermann & Fehske, J. Comput. Phys.
230, 5930 (2011)), doubling its steps per layer until another doubling moves
the final state by less than REFINE_TOL in norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# initial_path and simulate are re-exported: callers take the start path
# from here, and bench/spans.py patches every module's copy of simulate and
# checks the copy here.
from .basis import CsfBasis, enumerate_paths, initial_path  # noqa: F401
from .errors import ResourceLimitError
from .sga import HEIGHT_MODE, SparseOperator, band_hamiltonian, \
    build_hamiltonian, ground_state
from .encode import build_layout
from .sim import exact_evolve, path_trotter_run, simulate  # noqa: F401

REFINE_START = 4
REFINE_TOL = 1e-8
REFINE_MAX = 512


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

    H_start is the zeroth band with the identity shift, (J/2)(H_0 - (N-1)/2);
    H_ramp = (J/2) sum_{1 <= s < trunc} H_s.  At t = T they sum to the
    band-mode Hamiltonian.  Both share one sorted sparsity pattern (the union
    of their own), so H(t) is the axpy H_start.data + (t/T) H_ramp.data on
    that pattern.
    """
    dim = len(basis)
    shift = (basis.n_sites - 1) / 2 * sp.identity(dim, format="csr")
    h_start = (coupling / 2) * (band_hamiltonian(basis, 0).matrix - shift)
    h_ramp = sp.csr_matrix((dim, dim))
    for s_x2 in range(1, basis.trunc_x2):
        h_ramp = h_ramp + band_hamiltonian(basis, s_x2).matrix
    h_ramp = (coupling / 2) * h_ramp
    # absolute values cannot cancel, so the sum keeps every stored position
    pattern = abs(h_start) + abs(h_ramp)
    pattern.sort_indices()
    rows = np.repeat(np.arange(dim), np.diff(pattern.indptr))
    return tuple(sp.csr_matrix((np.asarray(mat[rows, pattern.indices]).ravel(),
                                pattern.indices, pattern.indptr),
                               shape=pattern.shape)
                 for mat in (h_start, h_ramp))


def _ground_energy(basis: CsfBasis, matrix: sp.csr_matrix) -> float:
    return float(ground_state(SparseOperator(basis, matrix))[0][0])


class ReferenceRuns:
    """Refined exact evolutions at one duration, shared by the schedules of
    several layer counts (one object per sector, coupling and duration).

    Step j of a run with M CF4 steps applies H((j + 1/6)/M) and then
    H((j + 5/6)/M), each for T/(2M), whatever the layer count, so
    (N_L = 10, 8 steps per layer) and (N_L = 20, 4 steps per layer) are one
    evolution: each M is integrated once.  A run keeps only the states at
    the layer boundaries of every count in `layer_counts` that divides M.
    """

    def __init__(self, layer_counts):
        self.layer_counts = tuple(int(n) for n in layer_counts)
        self.runs: dict[int, dict[int, np.ndarray]] = {}

    def boundaries(self, schedule: Schedule, refine: int, h_start, h_ramp,
                   start: np.ndarray) -> list[np.ndarray]:
        """States at the schedule's layer boundaries with `refine` CF4 steps
        per layer."""
        if schedule.n_layers not in self.layer_counts:
            raise ValueError(f"{schedule.n_layers} layers is not one of the "
                             f"shared counts {self.layer_counts}")
        m = schedule.n_layers * refine
        if m not in self.runs:
            keep = {m // n * k for n in self.layer_counts if m % n == 0
                    for k in range(1, n + 1)}
            h = h_start.copy()           # H(lambda), rewritten in place
            half = schedule.duration / (2 * m)
            psi, states = start, {0: start}
            # CF4 step j, of length tau = T/m, is exp(-i tau (a1 H(c1) +
            # a2 H(c2))) applied after exp(-i tau (a2 H(c1) + a1 H(c2))),
            # with Gauss nodes c1,2 = (j + 1/2 -+ sqrt(3)/6) / m and weights
            # a1,2 = (3 -+ 2 sqrt(3)) / 12.  a1 + a2 = 1/2 and H is linear in
            # the ramp, so each factor is H(2(a2 c1 + a1 c2)) = H((j + 1/6)/m)
            # and then H(2(a1 c1 + a2 c2)) = H((j + 5/6)/m) for tau/2.  The
            # reversed product is only second order.
            for j in range(m):
                for frac in (1 / 6, 5 / 6):
                    np.add(h_start.data, (j + frac) / m * h_ramp.data,
                           out=h.data)
                    psi = exact_evolve(h, psi, half)
                if j + 1 in keep:
                    states[j + 1] = psi
            self.runs[m] = states
        states = self.runs[m]
        return [states[k * refine] for k in range(schedule.n_layers + 1)]


def _exact_reference(schedule: Schedule, h_start, h_ramp, start: np.ndarray,
                     runs: ReferenceRuns | None = None) -> list[np.ndarray]:
    """Layer-boundary snapshots of the exact schedule, integrated with CF4.

    Doubles the steps per layer from REFINE_START until the final states
    psi_K and psi_2K of two successive runs satisfy ||psi_K - psi_2K|| <
    REFINE_TOL, and returns the finer run; its error is then about
    ||psi_K - psi_2K|| / 15, the method being fourth order.  Raises
    ResourceLimitError if the run at REFINE_MAX steps per layer has still
    not converged.
    """
    if runs is None:
        runs = ReferenceRuns([schedule.n_layers])
    refine = REFINE_START
    prev_final = None
    while True:
        states = runs.boundaries(schedule, refine, h_start, h_ramp, start)
        psi = states[-1]
        if prev_final is not None and \
                np.linalg.norm(psi - prev_final) < REFINE_TOL:
            return states
        if refine >= REFINE_MAX:
            raise ResourceLimitError(
                f"exact schedule reference not converged to {REFINE_TOL:g} "
                f"at {refine} steps per layer")
        prev_final = psi
        refine *= 2


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
    energies = [np.vdot(vec, (h_start + k / n_layers * h_ramp) @ vec).real
                for k, vec in enumerate(vecs)]
    fids = [abs(np.vdot(ref, vec)) for ref, vec in zip(refs, vecs)]
    return ScheduleResult(times, np.array(energies), np.array(fids),
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
