"""One slice of a run in its own process: timed iterations, checks, optional trace.

Started by run.py, several times per run, with the BLAS thread variables
already in its environment, so they hold before numpy loads.  Prints one JSON
object on its last stdout line: every iteration's times (and, traced, layer
metrics); run.py pools the slices into the benchmark result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

SRC = os.path.join(os.getcwd(), "src")
PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def _import_package():
    """Import spinadapt from the checkout's src/, never from anywhere else."""
    sys.path.insert(0, SRC)
    import spinadapt
    if os.path.dirname(os.path.dirname(os.path.abspath(spinadapt.__file__))) != SRC:
        raise SystemExit(f"spinadapt imported from {spinadapt.__file__}, "
                         f"not from {SRC}")


def _versions() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _repeat(body, seconds: float) -> float:
    """Call body() at least once, and again while the next call is expected to
    end nearer the time budget than stopping now would; returns the time used."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        body()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) / 2 > seconds:
            return elapsed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--coupling", type=float, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full")
    ap.add_argument("--spans-out", required=True)
    args = ap.parse_args(argv)

    _import_package()
    import reference
    import workloads
    from spans import Tracer

    with open(PINS) as fh:
        pins = json.load(fh)[args.size]
    name, coupling = args.workload, args.coupling
    misses: list[str] = []
    failed = 0

    def checked(observed) -> None:
        nonlocal failed
        found = workloads.check(name, observed, pins, coupling)
        if found:
            failed += 1
            misses.extend(found[:5])

    walls, cpus, refs = [], [], []

    def plain() -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        observed = workloads.run(name, coupling, args.size)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        t0 = time.perf_counter()
        reference.block()
        refs.append(time.perf_counter() - t0)
        checked(observed)

    out: dict = {}
    if args.trace == 0:
        out["elapsed"] = _repeat(plain, args.seconds)
    else:
        tracer = Tracer()
        traced_walls, layers = [], []

        def traced() -> None:
            first = tracer.reset_counts()
            tracer.install()
            try:
                t0 = time.perf_counter()
                with tracer.root(f"{name}.iteration"):
                    observed = workloads.run(name, coupling, args.size)
                traced_walls.append(time.perf_counter() - t0)
            finally:
                tracer.uninstall()
            layers.append(tracer.layer_metrics(first))
            checked(observed)

        def pair() -> None:
            # Untraced and traced iterations alternate, in alternating order,
            # so that trace_overhead compares runs made under the same load.
            for step in (plain, traced) if len(layers) % 2 == 0 else (traced, plain):
                step()

        out["elapsed"] = _repeat(pair, args.seconds)
        out["layers"] = layers
        out["traced_walls"] = traced_walls
        with open(args.spans_out, "w") as fh:
            json.dump(tracer.dump(), fh)

    out.update({
        "env": _versions(),
        "walls": walls,
        "cpus": cpus,
        "refs": refs,
        "attempted": len(walls) + len(out.get("traced_walls", [])),
        "failed": failed,
        "misses": misses,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
