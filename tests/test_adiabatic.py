import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import solve_ivp

from spinadapt import adiabatic, sga, sim
from spinadapt.adiabatic import (PreparedSector, ReferenceRuns, run_schedule,
                                 schedule_hamiltonians, sweep, sweep_csv)
from spinadapt.basis import (enumerate_paths, initial_path, singlet_pair_path,
                             triplet_reference_path)
from spinadapt.sga import build_hamiltonian, ground_state
from spinadapt.sim import exact_evolve
from spinadapt.cli import main
from spinadapt.errors import ResourceLimitError


def _single_run(n_sites, total_spin_x2, trunc_x2, duration, n_layers,
                order=2, coupling=1.0):
    """One schedule on a fresh sector, as `spinadapt adiabatic` runs it."""
    sector = PreparedSector.prepare(n_sites, total_spin_x2, trunc_x2, order,
                                    coupling)
    return run_schedule(ReferenceRuns(sector, duration, [n_layers]),
                        n_layers)


def test_initial_paths():
    assert initial_path(8, 0) == singlet_pair_path(8)
    assert initial_path(8, 2) == triplet_reference_path(8)


def test_short_schedule_stays_put():
    res = _single_run(8, 0, 2, 1e-8, 2, order=2)
    assert res.fidelity[0] == pytest.approx(1.0)
    assert res.final_fidelity == pytest.approx(1.0, abs=1e-8)
    start = np.zeros_like(res.final_state)
    start[0] = 1.0  # singlet-pair path is lexicographically first
    assert abs(abs(np.vdot(res.final_state, start)) - 1.0) < 1e-6


def _exact_ground_energy(n_sites, total_spin_x2):
    """Untruncated ground energy of the sector."""
    full = enumerate_paths(n_sites, total_spin_x2)
    return float(ground_state(build_hamiltonian(full))[0][0])


def _target_energy(basis):
    """Ground energy of the band-mode Hamiltonian a schedule ramps to."""
    return float(ground_state(build_hamiltonian(basis, "band"))[0][0])


def test_energy_starts_at_initial_ground():
    sector = PreparedSector.prepare(8, 0, 2)
    res = _single_run(8, 0, 2, 6.0, 12, order=2)
    # H_start is diagonal: its ground energy is its least entry
    assert res.energy[0] == pytest.approx(sector.h_start.diagonal().min(),
                                          abs=1e-12)
    # the schedule tracks the interpolated ground state to its endpoint
    assert res.energy[-1] == pytest.approx(_target_energy(sector.basis),
                                           abs=0.05)


def test_ground_truth_small_cases():
    sector = PreparedSector.prepare(2, 0, 2)
    assert sector.h_start.diagonal().min() == pytest.approx(-0.75)
    assert _target_energy(sector.basis) == pytest.approx(-0.75)
    assert _exact_ground_energy(2, 0) == pytest.approx(-0.75)


def test_height_hierarchy_monotone_in_ground_truth():
    # the target approaches the exact ground energy as the truncation grows
    e_exact = _exact_ground_energy(12, 0)
    errors = [abs(_target_energy(enumerate_paths(12, 0, trunc)) - e_exact)
              for trunc in (2, 3)]
    assert errors[1] < errors[0]


def test_triplet_schedule_runs_and_starts_faithful():
    res = _single_run(8, 2, 3, 4.0, 8, order=2)
    assert res.fidelity[0] == pytest.approx(1.0)
    assert res.final_fidelity > 0.99
    e_init = PreparedSector.prepare(8, 2, 3).h_start.diagonal().min()
    assert res.energy[0] == pytest.approx(e_init, abs=1e-12)


def test_fidelity_improves_with_layers_small():
    fids = []
    for layers in (4, 8, 16):
        res = _single_run(8, 0, 2, 6.0, layers, order=2)
        fids.append(res.final_fidelity)
    assert fids[0] <= fids[1] + 1e-9 and fids[1] <= fids[2] + 1e-9


def test_sweep_rows_and_csv():
    # the layer counts of one duration share one reference run; each row
    # must equal its schedule run on its own
    rows = sweep(8, 0, 2, [2.0, 4.0], [4, 8, 16], order=2)
    assert len(rows) == 6
    for row in rows:
        res = _single_run(8, 0, 2, row["duration"], row["n_layers"],
                          order=2)
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
        runs = ReferenceRuns(PreparedSector.prepare(8, 0, 3, 1, 0.7),
                             row["duration"], counts)
        res = run_schedule(runs, row["n_layers"])
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
    monkeypatch.setattr(sga, "ground_state",
                        counted("eigensolve", sga.ground_state))
    rows = sweep(8, 0, 3, [2.0, 4.0], [10, 20, 40])
    assert len(rows) == 6
    assert calls == {"step": 1, "pair": 1, "eigensolve": 0}


def test_run_schedule_refuses_a_layer_count_outside_the_shared_ones(
        monkeypatch):
    # refused before any Trotter layer runs
    def refuse(*args, **kwargs):
        raise AssertionError("the Trotter layers ran before the refusal")

    monkeypatch.setattr(adiabatic, "path_trotter_run", refuse)
    runs = ReferenceRuns(PreparedSector.prepare(8, 0, 2), 2.0, [4, 8])
    with pytest.raises(ValueError, match=r"6 layers is not one of the "
                                         r"shared counts \(4, 8\)"):
        run_schedule(runs, 6)


@pytest.mark.parametrize("counts,bad", [([0], 0), ([-2], -2), ([4, 0], 0)])
def test_reference_runs_refuse_a_layer_count_below_one(counts, bad):
    # named before the lcm of the counts is taken
    with pytest.raises(ValueError, match=f"layer count {bad} is below 1"):
        sweep(4, 0, 3, [1.0], counts)
    with pytest.raises(ValueError, match=f"layer count {bad} is below 1"):
        ReferenceRuns(PreparedSector.prepare(4, 0, 3), 1.0, counts)


def test_reference_within_tolerance_of_finer_run():
    sector = PreparedSector.prepare(8, 0, 3)
    refs = ReferenceRuns(sector, 20.0, [10]).boundaries(10)
    # the same ramp through 4x finer intervals, and through the union of
    # the boundaries of 10, 20, 30 and 40 layers
    finer = ReferenceRuns(sector, 20.0, [40]).boundaries(40)
    mixed = ReferenceRuns(sector, 20.0, [10, 20, 30, 40]).boundaries(10)
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
    sector = PreparedSector.prepare(8, 0, 3)
    h_start, h_ramp, start = sector.h_start, sector.h_ramp, sector.start
    final = ReferenceRuns(sector, 20.0, [4]).boundaries(4)[-1]
    sol = solve_ivp(lambda t, y: -1j * ((h_start + t / 20.0 * h_ramp) @ y),
                    (0.0, 20.0), start, method="DOP853", rtol=1e-13,
                    atol=1e-13)
    assert np.linalg.norm(final - sol.y[:, -1]) < 1e-10


def test_schedule_pair_sums_to_band_mode_and_evolves_on_one_pattern():
    basis = enumerate_paths(10, 2, 4)
    h_start, h_ramp = schedule_hamiltonians(basis, 1.3)
    # each member stores its own nonzeros only
    assert np.all(h_start.data != 0) and np.all(h_ramp.data != 0)
    # at t = T: the band-mode Hamiltonian built from its bands
    full = build_hamiltonian(basis, "band", 1.3).matrix
    assert abs(h_start + h_ramp - full).max() < 1e-13
    # the reference is exact_evolve of the pair placed on one pattern
    sector = PreparedSector.prepare(10, 2, 4, coupling=1.3)
    ham, ramp = sim._one_pattern(sim._as_csr(sector.h_start),
                                 sim._as_csr(sector.h_ramp))
    assert np.array_equal(ham.indices, ramp.indices)
    duration = 3.0
    times = [k / 4 * duration for k in range(1, 5)]
    expected = exact_evolve(ham, sector.start, times, ramp / duration)
    states = ReferenceRuns(sector, duration, [4]).boundaries(4)
    assert np.array_equal(np.array(states[1:]), expected)


def test_trajectory_csv():
    res = _single_run(8, 0, 2, 2.0, 4, order=1)
    lines = res.to_csv().splitlines()
    assert lines[0] == "t,energy,fidelity"
    assert len(lines) == 6


def test_unconverged_reference_raises(monkeypatch):
    # no series meets a zero tolerance
    monkeypatch.setattr(sim, "_TAYLOR_TOL", 0.0)
    with pytest.raises(ResourceLimitError):
        _single_run(8, 0, 2, 2.0, 4, order=2)
    with pytest.raises(ResourceLimitError):
        sweep(8, 0, 2, [2.0], [4, 8], order=2)
    assert main(["adiabatic", "--sites", "8", "--trunc", "1",
                 "--duration", "2", "--layers", "4"]) == 3
