"""The two benchmark workloads and the checks on their outputs.

Each workload runs two parts in turn: `statics` the assembled ground-state
ladder (spectrum) and the matrix-free `spinadapt diag` (diag); `dynamics` an
encoded Trotter run (evolve) and an adiabatic sweep (adiabatic).  Each part's
body takes the exchange constant J and a size table and returns the values it
computed.  `check` compares them against reference values
pinned at J = 1 (pins.json): energies scale by J and durations by 1/J, so the
pins hold for every J the seed can draw.  J is a power of four, which makes
the scaling exact in binary floating point (square roots included), so every
seed does bit-for-bit the same work and every count repeats exactly.
"""

from __future__ import annotations

import contextlib
import io

# Package functions are reached through their modules (basis.enumerate_paths,
# not a local copy) so that a traced run's wrappers see these calls too.
from spinadapt import adiabatic, basis, cli, encode, sga, sim

ENERGY_TOL = 1e-8      # absolute, in units of J
FIDELITY_TOL = 1e-6
WEIGHT_TOL = 1e-10     # physical-sector weight of the evolved register

# How each pinned key is compared: exactly, as an energy (scales with J) or as
# a J-invariant fidelity.
KINDS = {
    "dims": "exact", "paths": "exact", "qubits": "exact",
    "energies": "energy", "gaps": "energy", "band_energy": "energy",
    "band_gap": "energy", "total_energy": "energy", "bond_error": "energy",
    "final_energy": "energy",
    "fidelity": "fidelity", "final_fidelity": "fidelity",
}

# Problem sizes per part.  "full" is what the benchmark measures, sized so
# that one iteration takes a few seconds and a run holds many of them; "quick"
# runs every body at small N for the self-test.
SIZES = {
    "full": {
        "spectrum": {"sites": 18},
        "diag": {"sites": 12},
        "evolve": {"sites": 14, "trunc_x2": 4, "duration": 5.0, "layers": 10},
        "adiabatic": {"sites": 12, "trunc_x2": 3, "duration": 20.0,
                      "layers": [10, 20, 40]},
    },
    "quick": {
        "spectrum": {"sites": 10},
        "diag": {"sites": 8},
        "evolve": {"sites": 8, "trunc_x2": 4, "duration": 5.0, "layers": 4},
        "adiabatic": {"sites": 8, "trunc_x2": 3, "duration": 20.0,
                      "layers": [4, 8]},
    },
}

SPECTRUM_TRUNCS = (2, 3, 4, None)   # trunc 1, 3/2, 2, full
BAND_TRUNC = 3                      # band mode at trunc 3/2


def spectrum(coupling: float, sites: int) -> dict:
    """Height-mode ground-state ladder on the assembled route, plus band mode."""
    out = {"dims": [], "energies": [], "gaps": []}
    for trunc in SPECTRUM_TRUNCS:
        paths = basis.enumerate_paths(sites, 0, trunc)
        vals, _ = sga.ground_state(sga.build_hamiltonian(paths, "height", coupling),
                                   n_values=2)
        out["dims"].append(len(paths))
        out["energies"].append(float(vals[0]))
        out["gaps"].append(float(vals[1] - vals[0]))
        if trunc == BAND_TRUNC:
            vals, _ = sga.ground_state(
                sga.build_hamiltonian(paths, "band", coupling), n_values=2)
            out["band_energy"] = float(vals[0])
            out["band_gap"] = float(vals[1] - vals[0])
    out["_full_dim"] = basis.cardinality(sites, 0)
    return out


def diag(coupling: float, sites: int) -> dict:
    """`spinadapt diag --sites N --coupling J` in-process: matrix-free Lanczos."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["diag", "--sites", str(sites),
                         "--coupling", repr(coupling)])
    out = {"dims": [], "energies": [], "gaps": [], "_exit": code,
           "_full_dim": basis.cardinality(sites, 0)}
    for line in buf.getvalue().splitlines()[1:]:
        _, _, dim, energy, gap = line.split(",")
        out["dims"].append(int(dim))
        out["energies"].append(float(energy))
        out["gaps"].append(float(gap))
    return out


def evolve(coupling: float, sites: int, trunc_x2: int, duration: float,
           layers: int) -> dict:
    """`spinadapt evolve --sites N --trunc T`: encoded Trotter run vs references."""
    record, state = sim.trotter_comparison_csf(
        sites, 0, trunc_x2, duration / coupling, layers, order=1,
        coupling=coupling)
    return {
        "fidelity": record.aux["fidelity"].tolist(),
        "bond_error": record.aux["avg_abs_bond_error"].tolist(),
        "total_energy": record.total_energy.tolist(),
        "_state": state, "_sector": (sites, trunc_x2),
    }


def adiabatic_sweep(coupling: float, sites: int, trunc_x2: int,
                    duration: float, layers: list) -> dict:
    """Adiabatic sweep at one duration over several layer counts."""
    rows = adiabatic.sweep(sites, 0, trunc_x2, [duration / coupling], layers,
                           order=2, coupling=coupling)
    return {
        "final_fidelity": [r["final_fidelity"] for r in rows],
        "final_energy": [r["final_energy"] for r in rows],
        "_sector": (sites, trunc_x2),
    }


BODIES = {"spectrum": spectrum, "diag": diag, "evolve": evolve,
          "adiabatic": adiabatic_sweep}
WORKLOADS = {"statics": ("spectrum", "diag"), "dynamics": ("evolve", "adiabatic")}


def run(name: str, coupling: float, size: str = "full") -> dict:
    """One iteration of a workload: each of its parts, keyed by part."""
    return {part: BODIES[part](coupling, **SIZES[size][part])
            for part in WORKLOADS[name]}


def pins_from(part: str, observed: dict) -> dict:
    """What check() compares, from a run at J = 1: the values pins.json holds."""
    full = {**observed, **_derived(part, observed)}
    return {key: value for key, value in full.items() if not key.startswith("_")}


def _misses_against_pins(observed: dict, pins: dict, coupling: float) -> list:
    misses = []
    for key, expected in pins.items():
        if key not in observed:
            misses.append(f"{key}: not produced")
            continue
        got = observed[key]
        exp_list = expected if isinstance(expected, list) else [expected]
        got_list = got if isinstance(got, list) else [got]
        if len(exp_list) != len(got_list):
            misses.append(f"{key}: {len(got_list)} values, pinned {len(exp_list)}")
            continue
        kind = KINDS[key]
        for k, (g, e) in enumerate(zip(got_list, exp_list)):
            if kind == "exact":
                ok = g == e
            elif kind == "energy":
                ok = abs(g - coupling * e) <= ENERGY_TOL * abs(coupling)
            else:
                ok = abs(g - e) <= FIDELITY_TOL
            if not ok:
                misses.append(f"{key}[{k}]: got {g!r}, pinned {e!r} (J={coupling})")
    return misses


def _invariant_misses(part: str, observed: dict, coupling: float) -> list:
    misses = []
    if part in ("spectrum", "diag"):
        if observed["dims"][-1] != observed["_full_dim"]:
            misses.append(f"full dim {observed['dims'][-1]} != cardinality "
                          f"{observed['_full_dim']}")
        ladder = observed["energies"]
        slack = 1e-12 * abs(coupling)
        if any(b > a + slack for a, b in zip(ladder, ladder[1:])):
            misses.append(f"height-mode ladder not monotone: {ladder}")
    if part == "diag" and observed["_exit"] != 0:
        misses.append(f"cli exit code {observed['_exit']}")
    if part == "evolve" and abs(observed["_physical_weight"] - 1.0) > WEIGHT_TOL:
        misses.append(f"physical weight {observed['_physical_weight']!r} != 1")
    if part == "adiabatic":
        if any(not 0.0 <= f <= 1.0 + FIDELITY_TOL
               for f in observed["final_fidelity"]):
            misses.append(f"fidelity outside [0, 1]: {observed['final_fidelity']}")
    return misses


def _derived(part: str, observed: dict) -> dict:
    """Sizes recomputed outside the timed body: paths, qubits, sector weight."""
    if part == "evolve":
        sites, trunc_x2 = observed["_sector"]
        state = observed["_state"]
        paths = basis.enumerate_paths(sites, 0, trunc_x2)
        weight = sim.physical_weight(state, paths,
                                     encode.build_layout(sites, 0, trunc_x2))
        return {"paths": len(paths), "qubits": state.n_qubits,
                "_physical_weight": weight}
    if part == "adiabatic":
        sites, trunc_x2 = observed["_sector"]
        return {"qubits": encode.qubit_count(sites, 0, trunc_x2)}
    return {}


def check(name: str, observed: dict, pins: dict, coupling: float) -> list:
    """Every way a workload's parts miss their pins (pins.json at one size,
    keyed by part) or invariants; [] if none."""
    misses = []
    for part in WORKLOADS[name]:
        got = {**observed[part], **_derived(part, observed[part])}
        misses += [f"{part}: {miss}" for miss in
                   _misses_against_pins(got, pins[part], coupling)
                   + _invariant_misses(part, got, coupling)]
    return misses
