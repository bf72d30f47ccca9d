"""Command-line front end.

Subcommands: basis, ham, diag, evolve, adiabatic, circuit.  Flags only, no
config files; every run is deterministic, so identical flags give
byte-identical outputs.  Exit codes: 0 success, 2 invalid configuration,
3 resource-guard refusal.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import adiabatic, circuits, encode, sga, sim
from .basis import (check_budget, enumerate_paths, sector_bytes, sector_walks,
                    untruncated_level)
from .errors import (InvalidQuantumNumbersError, ResourceLimitError,
                     SpinAdaptError)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_RESOURCE = 3

TRUNC_CHOICES = {"0.5": 1, "1": 2, "1.5": 3, "2": 4, "full": None}
ADIABATIC_DURATION = 20.0
ADIABATIC_LAYERS = 40
SWEEP_DURATIONS = (5.0, 10.0, 15.0, 20.0)
SWEEP_LAYERS = (10, 20, 30, 40)


def _number(convert, accept, what: str):
    """argparse type: convert the text, refusing what `accept` rejects."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


FINITE = _number(float, math.isfinite, "a finite number")
POSITIVE = _number(float, lambda v: math.isfinite(v) and v > 0,
                   "a positive finite number")
COUNT = _number(int, lambda v: v >= 0, "a non-negative integer")
POSITIVE_COUNT = _number(int, lambda v: v >= 1, "a positive integer")


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as an invalid configuration (exit 2
    with an error: line), like every other refusal, instead of exiting."""

    def error(self, message):
        raise SpinAdaptError(f"{self.prog}: {message}")


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _require_finite_trunc(args, what: str) -> int:
    trunc = TRUNC_CHOICES.get(args.trunc)
    if trunc is None:
        raise InvalidQuantumNumbersError(f"{what} needs a finite --trunc")
    return trunc


def _refuse_trunc_on_sz(args) -> None:
    if args.trunc is not None:
        raise InvalidQuantumNumbersError(
            "--trunc applies to --basis csf only; --basis sz runs the "
            "untruncated chain")


def _refuse_order_on_scalar_step(args, trunc_x2: int) -> None:
    if trunc_x2 == 1 and args.order is not None:
        raise InvalidQuantumNumbersError(
            "--order has no effect at --trunc 0.5: the sector has one spin "
            "path and its Trotter step is one exact phase")


def cmd_basis(args) -> int:
    basis = enumerate_paths(args.sites, args.total_spin_x2,
                            TRUNC_CHOICES.get(args.trunc))
    _write(basis.to_csv(), args.out)
    return EXIT_OK


def cmd_ham(args) -> int:
    if args.format == "pauli":
        if args.mode != "band":
            raise InvalidQuantumNumbersError(
                "--format pauli encodes the band-truncated Hamiltonian only; "
                "--mode height needs --format matrix")
        trunc = _require_finite_trunc(args, "--format pauli")
        pauli = encode.encode_hamiltonian(args.sites, args.total_spin_x2,
                                          trunc, args.coupling)
        _write(pauli.export_text(), args.out)
    else:
        basis = enumerate_paths(args.sites, args.total_spin_x2,
                                TRUNC_CHOICES.get(args.trunc))
        op = sga.build_hamiltonian(basis, args.mode, args.coupling)
        _write(op.export_coo(), args.out)
    return EXIT_OK


def cmd_diag(args) -> int:
    n, spin = args.sites, args.total_spin_x2
    labels = list(TRUNC_CHOICES) if args.trunc is None else [args.trunc]
    rungs = [(label, TRUNC_CHOICES[label] or untruncated_level(n))
             for label in labels]
    # the default ladder starts where the sector has paths
    rungs = [(label, trunc) for label, trunc in rungs if trunc >= spin]
    # the size guard of every rung, before the first one runs
    dims = [int(sector_walks(n, spin, trunc)[0, 0]) for _, trunc in rungs]
    sliced = args.mode == sga.HEIGHT_MODE and len(rungs) > 1
    if sliced:
        # one assembly, of the full (last) rung, held while every lower
        # rung is sliced out of it and solved
        widest = max(dims[:-1])
        check_budget(sector_bytes(n, dims[-1]) + sector_bytes(n, widest),
                     f"N={n}, 2S={spin} height ladder: the full rung "
                     f"({dims[-1]} paths) and its largest truncated rung "
                     f"({widest} paths) held at once")
        top = sga.build_hamiltonian(enumerate_paths(n, spin, rungs[-1][1]),
                                    args.mode, args.coupling)
    lines = ["trunc,mode,dim,ground_energy,gap"]
    for label, trunc in rungs:
        if not sliced:
            op = sga.build_hamiltonian(enumerate_paths(n, spin, trunc),
                                       args.mode, args.coupling)
        elif trunc == top.basis.trunc_x2:
            op = top
        else:
            op = sga.height_rung(top, trunc)
        k = min(2, op.dim)
        vals, _ = sga.ground_state(op, n_values=k)
        gap = vals[1] - vals[0] if k == 2 else 0.0
        lines.append(f"{label},{args.mode},{op.dim},"
                     f"{vals[0]:.17g},{gap:.17g}")
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_evolve(args) -> int:
    if args.basis == "sz":
        _refuse_trunc_on_sz(args)
        record, _ = sim.trotter_evolve_sz(
            args.sites, args.total_spin_x2, args.duration, args.layers,
            args.order, args.coupling)
    else:
        trunc = _require_finite_trunc(args, "csf evolution")
        record, _ = sim.trotter_comparison_csf(
            args.sites, args.total_spin_x2, trunc, args.duration,
            args.layers, args.order, args.coupling)
    _write(record.to_csv(), args.out)
    return EXIT_OK


def cmd_adiabatic(args) -> int:
    trunc = _require_finite_trunc(args, "adiabatic schedules")
    order = adiabatic.DEFAULT_ORDER if args.order is None else args.order
    if args.sweep:
        if args.duration is not None or args.layers is not None:
            raise InvalidQuantumNumbersError(
                "--sweep runs its own grid of durations and layer counts; "
                "drop --duration and --layers")
        rows = adiabatic.sweep(args.sites, args.total_spin_x2, trunc,
                               SWEEP_DURATIONS, SWEEP_LAYERS, order,
                               args.coupling)
        _write(adiabatic.sweep_csv(rows), args.out)
    else:
        _refuse_order_on_scalar_step(args, trunc)
        duration = ADIABATIC_DURATION if args.duration is None \
            else args.duration
        layers = ADIABATIC_LAYERS if args.layers is None else args.layers
        sector = adiabatic.PreparedSector.prepare(
            args.sites, args.total_spin_x2, trunc, order, args.coupling)
        runs = adiabatic.ReferenceRuns(sector, duration, [layers])
        _write(adiabatic.run_schedule(runs, layers).to_csv(), args.out)
    return EXIT_OK


def cmd_circuit(args) -> int:
    # an unset --order leaves the step builders' own default
    order = {} if args.order is None else {"order": args.order}
    if args.basis == "sz":
        _refuse_trunc_on_sz(args)
        if args.total_spin_x2:
            raise InvalidQuantumNumbersError(
                "--total-spin applies to --basis csf circuits only; the "
                "computational-basis step is the same in every sector")
        circ = circuits.sz_trotter_step(args.sites, args.duration,
                                        coupling=args.coupling, **order)
    else:
        trunc = _require_finite_trunc(args, "csf circuits")
        _refuse_order_on_scalar_step(args, trunc)
        circ = circuits.csf_trotter_step(args.sites, args.total_spin_x2,
                                         trunc, args.duration,
                                         coupling=args.coupling, **order)
    text = circuits.export_qasm(circ) if args.format == "qasm" \
        else circuits.export_gatelist(circ)
    _write(text, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinadapt",
        description="Heisenberg chains in truncated total-spin eigenbases")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, coupling=True):
        p.add_argument("--sites", type=int, required=True)
        p.add_argument("--total-spin", type=FINITE, default=0.0,
                       help="total spin S (0 or 1)")
        p.add_argument("--trunc", choices=sorted(TRUNC_CHOICES),
                       help="height truncation: 0.5, 1, 1.5, 2 or full")
        if coupling:
            p.add_argument("--coupling", type=FINITE, default=1.0,
                           help="exchange constant J (rescales outputs)")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("basis", help="enumerate spin paths as CSV")
    common(p, coupling=False)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("ham", help="export the Hamiltonian")
    common(p)
    p.add_argument("--mode", choices=["band", "height"], default="band")
    p.add_argument("--format", choices=["pauli", "matrix"], default="pauli")
    p.set_defaults(func=cmd_ham)

    p = sub.add_parser("diag", help="ground energy and gap report")
    common(p)
    p.add_argument("--mode", choices=["band", "height"], default="height")
    p.set_defaults(func=cmd_diag)

    p = sub.add_parser("evolve", help="Trotter evolution trajectory CSV")
    common(p)
    p.add_argument("--basis", choices=["sz", "csf"], default="csf")
    p.add_argument("--order", type=int, choices=[1, 2], default=1)
    p.add_argument("--duration", type=FINITE, default=5.0)
    p.add_argument("--layers", type=COUNT, default=10)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("adiabatic", help="adiabatic schedule or sweep CSV")
    common(p)
    # --order defaults to None so that an explicit one can be refused where
    # it changes nothing (--trunc 0.5)
    p.add_argument("--order", type=int, choices=[1, 2], default=None,
                   help=f"Trotter order (default {adiabatic.DEFAULT_ORDER})")
    p.add_argument("--duration", type=POSITIVE, default=None,
                   help=f"ramp duration T (default {ADIABATIC_DURATION:g})")
    p.add_argument("--layers", type=POSITIVE_COUNT, default=None,
                   help=f"Trotter layers (default {ADIABATIC_LAYERS})")
    p.add_argument("--sweep", action="store_true",
                   help=f"run durations {SWEEP_DURATIONS} x layer counts "
                        f"{SWEEP_LAYERS} on one prepared sector, with one "
                        "exact reference per duration, instead of one "
                        "schedule")
    p.set_defaults(func=cmd_adiabatic)

    p = sub.add_parser("circuit", help="export one Trotter step as gates")
    common(p)
    p.add_argument("--basis", choices=["sz", "csf"], default="csf")
    p.add_argument("--order", type=int, choices=[1, 2], default=None,
                   help="Trotter order of the exported step")
    p.add_argument("--duration", type=FINITE, default=0.1,
                   help="time step dt of the exported layer")
    p.add_argument("--format", choices=["gates", "qasm"], default="gates")
    p.set_defaults(func=cmd_circuit)
    return parser


def _validate(args) -> None:
    if args.sites < 2:
        raise InvalidQuantumNumbersError("--sites must be at least 2")
    ts = args.total_spin * 2
    if abs(ts - round(ts)) > 1e-9 or round(ts) not in (0, 2):
        raise InvalidQuantumNumbersError("--total-spin must be 0 or 1")
    args.total_spin_x2 = int(round(ts))
    trunc = TRUNC_CHOICES.get(args.trunc)
    if trunc is not None and trunc < args.total_spin_x2:
        raise InvalidQuantumNumbersError(
            f"--trunc {args.trunc} is below the total spin "
            f"{args.total_spin_x2 / 2:g}: the sector is empty")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first main call, not at
    import."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        _validate(args)
        return args.func(args)
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource guard: {exc}\n")
        return EXIT_RESOURCE
    except SpinAdaptError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
