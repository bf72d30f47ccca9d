from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import solve_ivp

from spinadapt import adiabatic, sim
from spinadapt.adiabatic import (PreparedSector, ReferenceRuns, Schedule,
                                 run_schedule, schedule_hamiltonians, sweep,
                                 sweep_csv)
from spinadapt.basis import (enumerate_paths, initial_path, singlet_pair_path,
                             triplet_reference_path)
from spinadapt.sga import build_hamiltonian, ground_state
from spinadapt.sim import exact_evolve
from spinadapt.cli import main
from spinadapt.errors import ResourceLimitError


def test_initial_paths():
    assert initial_path(8, 0) == singlet_pair_path(8)
    assert initial_path(8, 2) == triplet_reference_path(8)


def test_short_schedule_stays_put():
    sched = Schedule(0, 2, 1e-8, 2, order=2)
    res = run_schedule(sched, 8)
    assert res.fidelity[0] == pytest.approx(1.0)
    assert res.final_fidelity == pytest.approx(1.0, abs=1e-8)
    start = np.zeros_like(res.final_state)
    start[0] = 1.0  # singlet-pair path is lexicographically first
    assert abs(abs(np.vdot(res.final_state, start)) - 1.0) < 1e-6


def _exact_ground_energy(n_sites, total_spin_x2):
    """Untruncated ground energy of the sector."""
    full = enumerate_paths(n_sites, total_spin_x2)
    return float(ground_state(build_hamiltonian(full))[0][0])


def test_energy_starts_at_initial_ground():
    sched = Schedule(0, 2, 6.0, 12, order=2)
    sector = PreparedSector.prepare(8, 0, 2)
    res = run_schedule(sched, 8)
    # H_start is diagonal: its ground energy is its least entry
    assert res.energy[0] == pytest.approx(sector.h_start.diagonal().min(),
                                          abs=1e-12)
    assert res.target_energy == pytest.approx(sector.target_energy, abs=1e-12)
    # the schedule tracks the interpolated ground state to its endpoint
    assert res.energy[-1] == pytest.approx(sector.target_energy, abs=0.05)


def test_ground_truth_small_cases():
    sector = PreparedSector.prepare(2, 0, 2)
    assert sector.h_start.diagonal().min() == pytest.approx(-0.75)
    assert sector.target_energy == pytest.approx(-0.75)
    assert _exact_ground_energy(2, 0) == pytest.approx(-0.75)


def test_height_hierarchy_monotone_in_ground_truth():
    # the target approaches the exact ground energy as the truncation grows
    e_exact = _exact_ground_energy(12, 0)
    errors = [abs(PreparedSector.prepare(12, 0, trunc).target_energy - e_exact)
              for trunc in (2, 3)]
    assert errors[1] < errors[0]


def test_triplet_schedule_runs_and_starts_faithful():
    sched = Schedule(2, 3, 4.0, 8, order=2)
    res = run_schedule(sched, 8)
    assert res.fidelity[0] == pytest.approx(1.0)
    assert res.final_fidelity > 0.99
    e_init = PreparedSector.prepare(8, 2, 3).h_start.diagonal().min()
    assert res.energy[0] == pytest.approx(e_init, abs=1e-12)


def test_fidelity_improves_with_layers_small():
    fids = []
    for layers in (4, 8, 16):
        res = run_schedule(Schedule(0, 2, 6.0, layers, order=2), 8)
        fids.append(res.final_fidelity)
    assert fids[0] <= fids[1] + 1e-9 and fids[1] <= fids[2] + 1e-9


def test_sweep_rows_and_csv():
    # the layer counts of one duration share one reference run; each row
    # must equal its schedule run on its own
    rows = sweep(8, 0, 2, [2.0, 4.0], [4, 8, 16], order=2)
    assert len(rows) == 6
    for row in rows:
        res = run_schedule(Schedule(0, 2, row["duration"], row["n_layers"],
                                    order=2), 8)
        assert abs(row["final_energy"] - res.energy[-1]) < 1e-12
        assert abs(row["final_fidelity"] - res.final_fidelity) < 1e-12
    text = sweep_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "trunc,T,n_layers,order,final_energy,final_fidelity"
    assert len(lines) == 7
    assert lines[1].startswith("1,2")


def test_sweep_rows_equal_runs_on_a_fresh_sector():
    # sharing the sector and the reference runs changes no bit
    counts = [10, 20, 40]
    rows = sweep(8, 0, 3, [2.0, 4.0], counts, order=1, coupling=0.7)
    assert len(rows) == 6
    for row in rows:
        runs = ReferenceRuns(PreparedSector.prepare(8, 0, 3, 1, 0.7), counts)
        res = run_schedule(Schedule(0, 3, row["duration"], row["n_layers"],
                                    order=1), 8, 0.7, runs)
        assert row["final_energy"] == float(res.energy[-1])
        assert row["final_fidelity"] == res.final_fidelity


def test_sweep_prepares_the_sector_once(monkeypatch):
    calls = {"step": 0, "pair": 0, "eigensolve": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(adiabatic, "PathStep", counted("step", sim.PathStep))
    monkeypatch.setattr(adiabatic, "schedule_hamiltonians",
                        counted("pair", schedule_hamiltonians))
    monkeypatch.setattr(adiabatic, "ground_state",
                        counted("eigensolve", adiabatic.ground_state))
    rows = sweep(8, 0, 3, [2.0, 4.0], [10, 20, 40])
    assert len(rows) == 6
    assert calls == {"step": 1, "pair": 1, "eigensolve": 1}


def test_reference_runs_refuse_a_second_duration():
    runs = ReferenceRuns(PreparedSector.prepare(8, 0, 2), [4, 8])
    sched = Schedule(0, 2, 2.0, 4)
    runs.boundaries(sched)
    runs.boundaries(replace(sched, n_layers=8))
    with pytest.raises(ValueError, match=r"duration 2\.0, not the "
                                         r"schedule's 4\.0"):
        runs.boundaries(replace(sched, duration=4.0))


@pytest.mark.parametrize("field, value", [
    ("n_sites", 10), ("total_spin_x2", 2), ("trunc_x2", 3), ("order", 1),
    ("coupling", 0.5)])
def test_run_schedule_refuses_another_sector(field, value):
    key = dict(zip(adiabatic.SECTOR_FIELDS, (8, 0, 2, 2, 1.0)))
    wrong = PreparedSector.prepare(**{**key, field: value})
    with pytest.raises(ValueError) as err:
        run_schedule(Schedule(0, 2, 2.0, 4, order=2), 8, 1.0,
                     ReferenceRuns(wrong, [4]))
    assert str(wrong.key) in str(err.value)
    assert str(tuple(key.values())) in str(err.value)


def test_reference_within_tolerance_of_finer_run():
    sched = Schedule(0, 3, 20.0, 10)
    sector = PreparedSector.prepare(8, 0, 3)
    refs = ReferenceRuns(sector, [10]).boundaries(sched)
    # the same ramp through 4x finer intervals, and through the union of
    # the boundaries of 10, 20, 30 and 40 layers
    finer = ReferenceRuns(sector, [40]).boundaries(
        replace(sched, n_layers=40))
    mixed = ReferenceRuns(sector, [10, 20, 30, 40]).boundaries(sched)
    for k, ref in enumerate(refs):
        assert np.linalg.norm(ref - finer[4 * k]) < 1e-12
        assert np.linalg.norm(ref - mixed[k]) < 1e-12


def test_sweep_integrates_each_boundary_interval_once(monkeypatch):
    calls = []

    def counted(hamiltonian, amplitudes, duration, slope=None):
        calls.append(duration)
        return exact_evolve(hamiltonian, amplitudes, duration, slope)

    monkeypatch.setattr(adiabatic, "exact_evolve", counted)
    durations, counts = [2.0, 4.0], [10, 20, 30, 40]
    sweep(8, 0, 3, durations, counts, order=2)
    # the boundaries k/n of every count, as multiples of 1/120
    grid = sorted({120 // n * k for n in counts for k in range(n + 1)})
    checkpoints = np.array(grid[1:]) / 120
    assert len(checkpoints) == 60
    # one call per duration, checkpointed at every boundary after t = 0
    assert len(calls) == len(durations)
    for times, duration in zip(calls, durations):
        assert len(times) == len(checkpoints)
        assert np.allclose(times, duration * checkpoints, rtol=1e-15, atol=0)
        assert np.allclose(np.diff(times, prepend=0.0),
                           duration * np.diff(grid) / 120, rtol=1e-14, atol=0)


def test_reference_matches_independent_ode_solver():
    # the continuous ramp integrated by an explicit Runge-Kutta method
    sched = Schedule(0, 3, 20.0, 4)
    sector = PreparedSector.prepare(8, 0, 3)
    h_start, h_ramp, start = sector.h_start, sector.h_ramp, sector.start
    final = ReferenceRuns(sector, [4]).boundaries(sched)[-1]
    sol = solve_ivp(lambda t, y: -1j * ((h_start + t / 20.0 * h_ramp) @ y),
                    (0.0, 20.0), start, method="DOP853", rtol=1e-13,
                    atol=1e-13)
    assert np.linalg.norm(final - sol.y[:, -1]) < 1e-10


def test_schedule_hamiltonians_share_one_pattern():
    basis = enumerate_paths(10, 2, 4)
    h_start, h_ramp = schedule_hamiltonians(basis, 1.3)
    assert h_start.has_sorted_indices and h_ramp.has_sorted_indices
    assert np.array_equal(h_start.indices, h_ramp.indices)
    assert np.array_equal(h_start.indptr, h_ramp.indptr)
    for lam in (0.0, 0.37, 1.0):
        axpy = sp.csr_matrix((h_start.data + lam * h_ramp.data,
                              h_start.indices, h_start.indptr),
                             shape=h_start.shape)
        assert abs(axpy - (h_start + lam * h_ramp)).max() == 0.0
    # at t = T: the band-mode Hamiltonian built from its bands
    full = build_hamiltonian(basis, "band", 1.3).matrix
    assert abs(h_start + h_ramp - full).max() < 1e-13


def test_trajectory_csv():
    res = run_schedule(Schedule(0, 2, 2.0, 4, order=1), 8)
    lines = res.to_csv().splitlines()
    assert lines[0] == "t,energy,fidelity"
    assert len(lines) == 6


def test_unconverged_reference_raises(monkeypatch):
    # no series meets a zero tolerance
    monkeypatch.setattr(sim, "_TAYLOR_TOL", 0.0)
    with pytest.raises(ResourceLimitError):
        run_schedule(Schedule(0, 2, 2.0, 4, order=2), 8)
    with pytest.raises(ResourceLimitError):
        sweep(8, 0, 2, [2.0], [4, 8], order=2)
    assert main(["adiabatic", "--sites", "8", "--trunc", "1",
                 "--duration", "2", "--layers", "4"]) == 3
