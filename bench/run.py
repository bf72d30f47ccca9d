"""spinadapt benchmark: two physics workloads timed end to end, or traced by layer.

    python3 bench/run.py --workload statics --seed 1 --seconds 55 --trace 0

Run from the repository root.  Workloads (see BENCHMARK.json for why each):
statics (assembled ladder + matrix-free diag) and dynamics (Trotter evolve +
adiabatic sweep).  The seed draws the exchange constant J;
every iteration's output is checked against pins.json scaled by J, after its
timer stops, and a miss counts the iteration in "failed".

A run is split into SLICES worker processes started one after another, each
iterating for its share of --seconds, with one setup_s sample after each, so
that samples are spread over the whole run rather than taken in one block.

--trace 0 prints the end-to-end metrics: wall_ref, setup_s and peak_rss_mb.
wall_ref is the median iteration wall time over all slices divided by the
median time of reference.block(), a fixed block of work timed right after
every iteration.  On a shared 2-vCPU host the host's speed drifts by 20-40%
over minutes, and the raw median (kept in the run record as wall_s) drifts
with it: over ten statics runs its IQR/median was 0.26, that of wall_ref 0.08.
setup_s is the median fresh-interpreter import of spinadapt.cli (one sample
after each slice); peak_rss_mb the largest peak RSS of the slice processes,
each of which ran only this workload.  --trace 1 prints the per-layer metrics
from spans recorded around the package's public functions, and the raw
wall_s of the run's untraced iterations.
The last stdout line is the result JSON; a run record (machine, versions,
seed) goes to the line before it and, with the spans, to bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time

from spans import COUNT_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_THREADS = 1           # single-threaded baseline; steadier on a shared host
SLICES = 6                 # worker processes per run, one after another
RUN_LIMIT_S = 170          # the whole run, workload process included
J_EXPONENTS = range(-2, 3)  # J = 4**k: scaling by J is exact in floating point


def coupling_for(seed: int) -> float:
    return 4.0 ** random.Random(seed).choice(J_EXPONENTS)


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


def measure_setup(env: dict, deadline: float) -> float:
    """Wall time of a fresh interpreter importing spinadapt.cli (numpy, scipy).

    Called after a workload process, which has written the bytecode caches
    that a user's second and later invocations find in place.  The deadline
    is kept by a timer that kills the child, not by wait(timeout=...), which
    polls in sleeps of up to 50 ms and would round every sample up to them.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import spinadapt.cli"],
                            env=env, stdout=subprocess.DEVNULL)
    timer = threading.Timer(max(deadline - time.monotonic(), 1), proc.kill)
    timer.start()
    try:
        proc.wait()
    finally:
        timer.cancel()
    if proc.returncode != 0:
        raise SystemExit(f"import spinadapt.cli exited {proc.returncode}")
    return time.perf_counter() - t0


def source_digest() -> str:
    h = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(".git"):
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_worker(args, coupling: float, env: dict, deadline: float,
               seconds: float, spans_out: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--coupling", repr(coupling),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--size", "quick" if args.quick else "full",
           "--spans-out", spans_out]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"{args.workload}: workload process timed out")
    if proc.returncode != 0:
        raise SystemExit(f"{args.workload}: workload process exited "
                         f"{proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="time budget for the workload iterations")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="small problem sizes, for the benchmark's self-test")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join("src", "spinadapt", "__init__.py")):
        sys.stderr.write("src/spinadapt not found: run from the repository root\n")
        return 2
    coupling = coupling_for(args.seed)
    env = child_env()
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")

    outs, setup, spent = [], [], 0.0
    for k in range(SLICES):
        # each slice gets an equal share of what earlier slices left over
        share = max(args.seconds - spent, 0.0) / (SLICES - k)
        outs.append(run_worker(args, coupling, env, deadline, share,
                               f"{stem}-spans{k}.json"))
        spent += outs[-1]["elapsed"]
        if not args.trace:
            setup.append(measure_setup(env, deadline))
    misses = [miss for out in outs for miss in out["misses"]]
    for miss in misses:
        sys.stderr.write(f"{args.workload}: check missed: {miss}\n")
    failed = sum(out["failed"] for out in outs)
    attempted = sum(out["attempted"] for out in outs)

    def pooled(key: str) -> list:
        return [item for out in outs for item in out[key]]

    walls = pooled("walls")
    if args.trace:
        layers, traced_walls = pooled("layers"), pooled("traced_walls")
        # counts repeat exactly, so median_low keeps them whole numbers
        values = {key: statistics.median_low(it[key] for it in layers)
                  if key in COUNT_METRICS else
                  statistics.median(it[key] for it in layers)
                  for key in layers[0]}
        values["wall_s"] = statistics.median(walls)
        values["trace_overhead"] = (statistics.median(traced_walls)
                                    / values["wall_s"] - 1.0)
    else:
        traced_walls = []
        values = {"wall_ref": statistics.median(walls)
                  / statistics.median(pooled("refs")),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": max(out["peak_rss_mb"] for out in outs)}
    declared = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "coupling": coupling,
        "seconds": args.seconds, "trace": args.trace, "quick": args.quick,
        "commit": git_commit(), "src_sha256": source_digest(),
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "python": platform.python_version(),
        "blas_threads": BLAS_THREADS, "slices": SLICES, **outs[0]["env"],
        "wall_s": statistics.median(walls),
        "iteration_walls_s": walls, "iteration_cpu_s": pooled("cpus"),
        "reference_walls_s": pooled("refs"),
        "iterations_per_slice": [len(out["walls"]) for out in outs],
        "traced_iteration_walls_s": traced_walls,
        "setup_samples_s": setup,
        "misses": misses,
    }
    with open(stem + ".json", "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
