"""The package names that the benchmark's tracer (bench/spans.py) wraps.

The tracer looks each one up with getattr when `bench/run.py --trace 1`
starts, so a rename or deletion in src/ fails here as well as there.
"""

import importlib
import runpy
from pathlib import Path

from spinadapt import adiabatic, sim

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_function_resolves():
    layers = runpy.run_path(str(SPANS))["LAYERS"]   # compiled, no .pyc
    for mod_name, fn_name in layers:
        module = importlib.import_module(f"spinadapt.{mod_name}")
        assert callable(getattr(module, fn_name, None)), \
            f"spinadapt.{mod_name}.{fn_name}"
    # the bench self-test checks that the tracer patches this copy too
    assert adiabatic.simulate is sim.simulate
