"""Command-line front end.

Subcommands: basis, ham, diag, evolve, adiabatic, circuit.  Flags only, no
config files; every run is deterministic, so identical flags give
byte-identical outputs.  Exit codes: 0 success, 2 invalid configuration,
3 resource-guard refusal.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import adiabatic, circuits, encode, oracle, sga, sim
from .basis import enumerate_paths, untruncated_level
from .errors import (InvalidQuantumNumbersError, ResourceLimitError,
                     SpinAdaptError)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_RESOURCE = 3

TRUNC_CHOICES = {"0.5": 1, "1": 2, "1.5": 3, "2": 4, "full": None}
ORACLE_CHECK_MAX_SITES = 10


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _trunc_x2(args) -> int | None:
    if args.trunc is None:
        return None
    return TRUNC_CHOICES[args.trunc]


def _require_finite_trunc(args, what: str) -> int:
    trunc = _trunc_x2(args)
    if trunc is None:
        raise InvalidQuantumNumbersError(f"{what} needs a finite --trunc")
    return trunc


def _refuse_trunc_on_sz(args) -> None:
    if args.trunc is not None:
        raise InvalidQuantumNumbersError(
            "--trunc applies to --basis csf only; --basis sz runs the "
            "untruncated chain")


def _basis_for(args):
    trunc = _trunc_x2(args)
    if trunc is None:
        trunc = untruncated_level(args.sites)
    basis = enumerate_paths(args.sites, args.total_spin_x2, trunc)
    if len(basis) == 0:
        raise InvalidQuantumNumbersError(
            f"the sector N={args.sites}, S={args.total_spin_x2 / 2:g} has no "
            f"spin paths at --trunc {args.trunc or 'full'}")
    return basis


def _oracle_check(args, parser) -> None:
    """Compare every adjacent permutation matrix against the expansion route."""
    if args.sites > ORACLE_CHECK_MAX_SITES:
        raise ResourceLimitError(
            f"--oracle-check limited to N <= {ORACLE_CHECK_MAX_SITES}")
    basis = enumerate_paths(args.sites, args.total_spin_x2)
    for p in range(1, args.sites):
        lhs = sga.permutation_matrix(basis, p, p + 1).toarray()
        rhs = oracle.oracle_operator_matrix(("perm", p, p + 1), basis)
        if np.abs(lhs - rhs).max() > 1e-10:
            raise SpinAdaptError(f"oracle mismatch at permutation ({p},{p + 1})")
    sys.stderr.write(f"oracle check passed for N={args.sites}, "
                     f"2S={args.total_spin_x2}\n")


def cmd_basis(args, parser) -> int:
    basis = _basis_for(args)
    _write(basis.to_csv(), args.out)
    return EXIT_OK


def cmd_ham(args, parser) -> int:
    if args.format == "pauli":
        trunc = _require_finite_trunc(args, "--format pauli")
        pauli = encode.encode_hamiltonian(args.sites, args.total_spin_x2,
                                          trunc, args.coupling)
        _write(pauli.export_text(), args.out)
    else:
        basis = _basis_for(args)
        op = sga.build_hamiltonian(basis, args.mode, args.coupling)
        _write(op.export_coo(), args.out)
    return EXIT_OK


def cmd_diag(args, parser) -> int:
    lines = ["trunc,mode,dim,ground_energy,gap"]
    labels = list(TRUNC_CHOICES) if args.trunc is None else [args.trunc]
    for label in labels:
        trunc = TRUNC_CHOICES[label] or untruncated_level(args.sites)
        if trunc < args.total_spin_x2:
            if args.trunc is not None:
                raise InvalidQuantumNumbersError(
                    f"--trunc {label} is below the total spin "
                    f"{args.total_spin_x2 / 2:g}: the sector is empty")
            continue   # the default ladder starts where the sector has paths
        basis = enumerate_paths(args.sites, args.total_spin_x2, trunc)
        k = min(2, len(basis))
        vals = sga.ground_energy_matrix_free(basis, args.mode, args.coupling,
                                             n_values=k)
        gap = vals[1] - vals[0] if k == 2 else 0.0
        lines.append(f"{label},{args.mode},{len(basis)},"
                     f"{vals[0]:.17g},{gap:.17g}")
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_evolve(args, parser) -> int:
    if args.basis == "sz":
        _refuse_trunc_on_sz(args)
        record, _ = sim.trotter_evolve_sz(
            args.sites, args.total_spin_x2, args.duration, args.layers,
            args.order, args.coupling, track_symmetry=True)
    else:
        trunc = _require_finite_trunc(args, "csf evolution")
        record, _ = sim.trotter_comparison_csf(
            args.sites, args.total_spin_x2, trunc, args.duration,
            args.layers, args.order, args.coupling)
    _write(record.to_csv(), args.out)
    return EXIT_OK


def cmd_adiabatic(args, parser) -> int:
    trunc = _require_finite_trunc(args, "adiabatic schedules")
    sched = adiabatic.Schedule(args.total_spin_x2, trunc, args.duration,
                               args.layers, args.order)
    if args.sweep:
        rows = adiabatic.sweep(args.sites, args.total_spin_x2, trunc,
                               [5.0, 10.0, 15.0, 20.0], [10, 20, 30, 40],
                               args.order, args.coupling)
        _write(adiabatic.sweep_csv(rows), args.out)
    else:
        if args.layers < 1:
            raise InvalidQuantumNumbersError(
                "adiabatic schedules need --layers >= 1")
        res = adiabatic.run_schedule(sched, args.sites, args.coupling)
        _write(res.to_csv(), args.out)
    return EXIT_OK


def cmd_circuit(args, parser) -> int:
    if args.basis == "sz":
        _refuse_trunc_on_sz(args)
        if args.total_spin_x2:
            raise InvalidQuantumNumbersError(
                "--total-spin applies to --basis csf circuits only; the "
                "computational-basis step is the same in every sector")
        circ = circuits.sz_trotter_step(args.sites, args.duration,
                                        args.order, args.coupling)
    else:
        trunc = _require_finite_trunc(args, "csf circuits")
        circ = circuits.csf_trotter_step(args.sites, args.total_spin_x2,
                                         trunc, args.duration, args.order,
                                         coupling=args.coupling)
    text = circuits.export_qasm(circ) if args.format == "qasm" \
        else circuits.export_gatelist(circ)
    _write(text, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinadapt",
        description="Heisenberg chains in truncated total-spin eigenbases")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, trunc_default=None):
        p.add_argument("--sites", type=int, required=True)
        p.add_argument("--total-spin", type=float, default=0.0,
                       help="total spin S (0 or 1)")
        p.add_argument("--trunc", choices=sorted(TRUNC_CHOICES),
                       default=trunc_default,
                       help="height truncation: 0.5, 1, 1.5, 2 or full")
        p.add_argument("--coupling", type=float, default=1.0,
                       help="exchange constant J (rescales outputs)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--oracle-check", action="store_true",
                       help=argparse.SUPPRESS)

    p = sub.add_parser("basis", help="enumerate spin paths as CSV")
    common(p)
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
    p.add_argument("--duration", type=float, default=5.0)
    p.add_argument("--layers", type=int, default=10)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("adiabatic", help="adiabatic schedule or sweep CSV")
    common(p)
    p.add_argument("--order", type=int, choices=[1, 2], default=2)
    p.add_argument("--duration", type=float, default=20.0)
    p.add_argument("--layers", type=int, default=40)
    p.add_argument("--sweep", action="store_true",
                   help="run the full duration x layers grid")
    p.set_defaults(func=cmd_adiabatic)

    p = sub.add_parser("circuit", help="export one Trotter step as gates")
    common(p)
    p.add_argument("--basis", choices=["sz", "csf"], default="csf")
    p.add_argument("--order", type=int, choices=[1, 2], default=1)
    p.add_argument("--duration", type=float, default=0.1,
                   help="time step dt of the exported layer")
    p.add_argument("--format", choices=["gates", "qasm"], default="gates")
    p.set_defaults(func=cmd_circuit)
    return parser


def _validate(args, parser) -> None:
    if args.sites < 2:
        raise InvalidQuantumNumbersError("--sites must be at least 2")
    ts = args.total_spin * 2
    if abs(ts - round(ts)) > 1e-9 or round(ts) not in (0, 2):
        raise InvalidQuantumNumbersError("--total-spin must be 0 or 1")
    args.total_spin_x2 = int(round(ts))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args, parser)
        if args.oracle_check:
            _oracle_check(args, parser)
        return args.func(args, parser)
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource guard: {exc}\n")
        return EXIT_RESOURCE
    except SpinAdaptError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
