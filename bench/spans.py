"""Layer spans recorded from outside the package.

`Tracer.install` wraps the public functions of each spinadapt module on every
name a caller looks them up by: a module global such as `sim.simulate`, and
each `from .sim import simulate` copy in another module (adiabatic, cli, the
package root).  Every call opens a span (name, start, end, parent); spans stay
in memory until the run ends.  `layer_metrics` turns one iteration's spans
into per-layer busy/self times and counts.

Counts are taken only where a layer is entered from outside it, so they
describe what the layer hands back, not the route it takes: a matrix that
build_hamiltonian sums from band_hamiltonian calls adds its own nonzeros to
sga.nnz, not those of its bands as well.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

# (module, function) -> layer.  A layer's time is the sum of its spans' self
# times: span duration minus the part covered by wrapped child calls, so that
# e.g. the matvecs inside an eigensolve count as sga.matvec, not as both.
LAYERS = {
    ("basis", "enumerate_paths"): "basis.enumerate",
    ("sga", "build_hamiltonian"): "sga.assemble",
    ("sga", "band_hamiltonian"): "sga.assemble",
    ("sga", "permutation_matrix"): "sga.assemble",
    ("sga", "apply_hamiltonian"): "sga.matvec",
    ("sga", "ground_state"): "sga.eigensolve",
    ("sga", "ground_energy_matrix_free"): "sga.eigensolve",
    ("encode", "build_layout"): "encode.layout",
    ("encode", "band_terms"): "encode.terms",
    ("encode", "encode_hamiltonian"): "encode.terms",
    ("circuits", "csf_trotter_step"): "circuits.emit",
    ("circuits", "sz_trotter_step"): "circuits.emit",
    ("sim", "simulate"): "sim.kernel",
    ("sim", "bond_energies_sz"): "sim.observe",
    ("sim", "bond_energies_csf"): "sim.observe",
    ("sim", "decode_to_path_vector"): "sim.observe",
    ("sim", "physical_weight"): "sim.observe",
    ("sim", "fidelity"): "sim.observe",
    ("sim", "s2_expectation_sz"): "sim.observe",
    ("sim", "sz_expectation_sz"): "sim.observe",
    ("sim", "exact_evolve"): "sim.exact",
    ("adiabatic", "run_schedule"): "adiabatic.reference",
    ("cli", "main"): "cli.self",
}

TIME_METRICS = tuple(dict.fromkeys(f"{layer}_s" for layer in LAYERS.values()))
COUNT_METRICS = ("basis.paths", "sga.nnz", "sga.matvecs", "encode.qubits",
                 "circuits.gates", "circuits.cx", "sim.gates_applied",
                 "sim.kernel_bytes_computed", "sim.exact_calls",
                 "adiabatic.schedules")

AMPLITUDE_BYTES = 16  # complex128


def _count(layer: str, args: tuple, result, counts: dict) -> None:
    """Work counts taken at the layer boundary from arguments and results."""
    if layer == "basis.enumerate":
        counts["basis.paths"] += len(result)
    elif layer == "sga.assemble":
        counts["sga.nnz"] += result.matrix.nnz
    elif layer == "sga.matvec":
        counts["sga.matvecs"] += 1
    elif layer == "encode.layout":
        counts["encode.qubits"] = max(counts["encode.qubits"], result.n_qubits)
    elif layer == "circuits.emit":
        counts["circuits.gates"] += len(result.gates)
        counts["circuits.cx"] += sum(1 for g in result.gates if g.kind == "CX")
    elif layer == "sim.kernel":
        circuit = args[0]
        n_gates = len(circuit.gates)
        counts["sim.gates_applied"] += n_gates
        # each gate reads and writes the whole register once
        counts["sim.kernel_bytes_computed"] += \
            n_gates * (1 << circuit.n_qubits) * AMPLITUDE_BYTES * 2
    elif layer == "sim.exact":
        counts["sim.exact_calls"] += 1
    elif layer == "adiabatic.reference":
        counts["adiabatic.schedules"] += 1


class Tracer:
    """Span recorder; install() patches the package, uninstall() restores it."""

    def __init__(self):
        self.spans: list[tuple] = []   # (name, layer, start, end, parent index)
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self._stack: list[int] = []
        self._depth = dict.fromkeys(LAYERS.values(), 0)  # open spans per layer
        self._patched: list[tuple] = []

    def _open(self) -> tuple:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent, time.perf_counter()

    def _close(self, opened: tuple, name: str, layer: str | None) -> None:
        end = time.perf_counter()
        idx, parent, start = opened
        self._stack.pop()
        self.spans[idx] = (name, layer, start, end, parent)

    def _wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = self._depth[layer] == 0
            self._depth[layer] += 1
            opened = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(opened, name, layer)
                self._depth[layer] -= 1
            if outermost:
                _count(layer, args, result, self.counts)
            return result
        return wrapper

    @contextlib.contextmanager
    def root(self, name: str):
        """Span around unwrapped work, such as one workload iteration."""
        opened = self._open()
        try:
            yield
        finally:
            self._close(opened, name, None)

    def install(self) -> None:
        owners = {m: importlib.import_module(f"spinadapt.{m}")
                  for m, _ in LAYERS}
        modules = [mod for name, mod in sys.modules.items()
                   if name == "spinadapt" or name.startswith("spinadapt.")]
        for (mod_name, fn_name), layer in LAYERS.items():
            original = getattr(owners[mod_name], fn_name)
            wrapper = self._wrap(original, f"{mod_name}.{fn_name}", layer)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def reset_counts(self) -> int:
        """Zero the counts; returns the index of the next span to record."""
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        return len(self.spans)

    def layer_metrics(self, first: int = 0) -> dict:
        """Self time per layer over spans[first:], the time outside every
        layer (trace.unattributed_s), and the counts since reset_counts()."""
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for _, _, start, end, parent in spans:
            if parent >= first:
                child_time[parent - first] += end - start
        out = dict.fromkeys(TIME_METRICS, 0.0)
        out["trace.unattributed_s"] = 0.0
        for k, (_, layer, start, end, _) in enumerate(spans):
            key = f"{layer}_s" if layer else "trace.unattributed_s"
            out[key] += end - start - child_time[k]
        out.update(self.counts)
        return out

    def dump(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, _, s, e, p in self.spans]
