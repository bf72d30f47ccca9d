import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import solve_ivp

from spinadapt import adiabatic
from spinadapt.adiabatic import (Schedule, initial_path, run_schedule,
                                 schedule_hamiltonians, sweep, sweep_csv,
                                 target_ground_truth)
from spinadapt.basis import (enumerate_paths, singlet_pair_path,
                             triplet_reference_path)
from spinadapt.sga import build_hamiltonian
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


def test_energy_starts_at_initial_ground():
    sched = Schedule(0, 2, 6.0, 12, order=2)
    e_init, e_target, e_exact = target_ground_truth(sched, 8)
    res = run_schedule(sched, 8)
    assert res.energy[0] == pytest.approx(e_init, abs=1e-12)
    assert res.target_energy == pytest.approx(e_target, abs=1e-12)
    # the schedule tracks the interpolated ground state to its endpoint
    assert res.energy[-1] == pytest.approx(e_target, abs=0.05)


def test_ground_truth_small_cases():
    sched = Schedule(0, 2, 1.0, 1)
    e_init, e_target, e_exact = target_ground_truth(sched, 2)
    assert e_init == pytest.approx(-0.75)
    assert e_target == pytest.approx(-0.75)
    assert e_exact == pytest.approx(-0.75)


def test_height_hierarchy_monotone_in_ground_truth():
    energies = []
    for trunc in (2, 3):
        sched = Schedule(0, trunc, 1.0, 1)
        energies.append(target_ground_truth(sched, 12))
    # exact value identical across schedules, target improves with truncation
    assert energies[0][2] == pytest.approx(energies[1][2], abs=1e-9)
    assert abs(energies[1][1] - energies[1][2]) < abs(energies[0][1] - energies[0][2])


def test_triplet_schedule_runs_and_starts_faithful():
    sched = Schedule(2, 3, 4.0, 8, order=2)
    res = run_schedule(sched, 8)
    assert res.fidelity[0] == pytest.approx(1.0)
    assert res.final_fidelity > 0.99
    e_init, e_target, e_exact = target_ground_truth(sched, 8)
    assert res.energy[0] == pytest.approx(e_init, abs=1e-12)


def test_fidelity_improves_with_layers_small():
    fids = []
    for layers in (4, 8, 16):
        res = run_schedule(Schedule(0, 2, 6.0, layers, order=2), 8)
        fids.append(res.final_fidelity)
    assert fids[0] <= fids[1] + 1e-9 and fids[1] <= fids[2] + 1e-9


def test_sweep_rows_and_csv():
    # 4 x 8, 8 x 4 (and 4 x 16, 8 x 8, 16 x 4) CF4 steps are one shared
    # reference run; each row must equal its schedule run on its own
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


def _reference_inputs(sched, n_sites):
    basis = enumerate_paths(n_sites, sched.total_spin_x2, sched.trunc_x2)
    h_start, h_ramp = schedule_hamiltonians(basis)
    start = np.zeros(len(basis), dtype=complex)
    start[basis.position(initial_path(n_sites, sched.total_spin_x2))] = 1.0
    return h_start, h_ramp, start


def test_reference_is_fourth_order():
    # the reversed CF4 product is second order: its error falls 4x per doubling
    sched = Schedule(0, 3, 4.0, 1)
    inputs = _reference_inputs(sched, 8)
    runs = adiabatic.ReferenceRuns([1])
    fine = runs.boundaries(sched, 256, *inputs)[-1]
    errors = [np.linalg.norm(runs.boundaries(sched, m, *inputs)[-1] - fine)
              for m in (4, 8, 16)]
    assert errors[0] / errors[1] >= 12 and errors[1] / errors[2] >= 12


def test_reference_within_tolerance_of_finer_run():
    sched = Schedule(0, 3, 20.0, 10)
    inputs = _reference_inputs(sched, 8)
    runs = adiabatic.ReferenceRuns([10])
    refs = adiabatic._exact_reference(sched, *inputs, runs)
    # the accepted run is the one on the doubling ladder that refs came from
    ladder = [adiabatic.REFINE_START * 2 ** k for k in range(8)]
    refine = next(r for r in ladder if np.array_equal(
        runs.boundaries(sched, r, *inputs)[-1], refs[-1]))
    finer = runs.boundaries(sched, 8 * refine, *inputs)
    for ref, state in zip(refs, finer):
        assert np.linalg.norm(ref - state) < adiabatic.REFINE_TOL


def test_reference_matches_independent_ode_solver():
    # the continuous ramp integrated by an explicit Runge-Kutta method
    sched = Schedule(0, 3, 20.0, 4)
    h_start, h_ramp, start = _reference_inputs(sched, 8)
    final = adiabatic._exact_reference(sched, h_start, h_ramp, start)[-1]
    sol = solve_ivp(lambda t, y: -1j * ((h_start + t / 20.0 * h_ramp) @ y),
                    (0.0, 20.0), start, method="DOP853", rtol=1e-13,
                    atol=1e-13)
    assert np.linalg.norm(final - sol.y[:, -1]) < adiabatic.REFINE_TOL


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
    monkeypatch.setattr(adiabatic, "REFINE_MAX", adiabatic.REFINE_START)
    with pytest.raises(ResourceLimitError):
        run_schedule(Schedule(0, 2, 2.0, 4, order=2), 8)
    with pytest.raises(ResourceLimitError):
        sweep(8, 0, 2, [2.0], [4, 8], order=2)
    assert main(["adiabatic", "--sites", "8", "--trunc", "1",
                 "--duration", "2", "--layers", "4"]) == 3
