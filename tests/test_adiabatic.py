import numpy as np
import pytest

from spinadapt import adiabatic
from spinadapt.adiabatic import (Schedule, initial_path, run_schedule, sweep,
                                 sweep_csv, target_ground_truth)
from spinadapt.basis import singlet_pair_path, triplet_reference_path
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
    rows = sweep(8, 0, 2, [2.0, 4.0], [4, 8], order=2)
    assert len(rows) == 4
    text = sweep_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "trunc,T,n_layers,order,final_energy,final_fidelity"
    assert len(lines) == 5
    assert lines[1].startswith("1,2")


def test_trajectory_csv():
    res = run_schedule(Schedule(0, 2, 2.0, 4, order=1), 8)
    lines = res.to_csv().splitlines()
    assert lines[0] == "t,energy,fidelity"
    assert len(lines) == 6


def test_unconverged_reference_raises(monkeypatch):
    monkeypatch.setattr(adiabatic, "REFINE_MAX", adiabatic.REFINE_START)
    with pytest.raises(ResourceLimitError):
        run_schedule(Schedule(0, 2, 2.0, 4, order=2), 8)
    assert main(["adiabatic", "--sites", "8", "--trunc", "1",
                 "--duration", "2", "--layers", "4"]) == 3
