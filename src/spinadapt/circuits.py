"""Gate-level Trotter layers.

Two families: the reference step in the computational basis (three-CX
splitting of each two-site exchange block) and the spin-adapted steps built
from the encoded band terms (pass-through pieces become CX-RZ-CX pairs,
tilted-field pieces become controlled-Z rotations conjugated by RY(acos a_s),
a_s from sga.band_coefficients, compiled as a CX ladder walking the control
parities).  Every term's weights are dyadic multiples of nonzero
coefficients, so the emitter drops none of them.

Conventions: gates apply in list order; RZ(t) = exp(-i t Z/2) and likewise
RY; PHASE(t) multiplies the whole state by exp(i t) (its target slot is kept
only for the uniform text format); CX stores (control, target).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import acos, isfinite, pi

from .encode import BandTerm, QubitLayout, band_terms, build_layout, z_parities
from .errors import ResourceLimitError, UnsupportedConfigurationError
from .sga import band_coefficients

GATE_KINDS = ("RY", "RZ", "CX", "PHASE")


@dataclass(frozen=True)
class Gate:
    kind: str
    target: int
    control: int | None = None
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.control is not None and self.control == self.target:
            raise ValueError("control and target must differ")
        if self.angle is not None and not isfinite(self.angle):
            raise ValueError("gate angle must be finite")


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        for g in self.gates:
            if g.kind == "PHASE":
                continue  # global action, target slot is formal
            qs = (g.target,) if g.control is None else (g.target, g.control)
            if any(q < 0 or q >= self.n_qubits for q in qs):
                raise ValueError(f"gate {g} outside {self.n_qubits}-qubit register")


def _rz(q, a):
    return Gate("RZ", q, angle=float(a))


def _ry(q, a):
    return Gate("RY", q, angle=float(a))


def _cx(c, t):
    return Gate("CX", t, control=c)


def _phase(a):
    return Gate("PHASE", 0, angle=float(a))


def heisenberg_bond_block(q0: int, q1: int, theta: float) -> list[Gate]:
    """exp(-i theta (XX+YY+ZZ)) on two qubits with three CX gates.

    Angle bookkeeping was fixed against the dense exponential; the leading
    PHASE keeps the unitary exactly equal, not just equal up to phase.
    """
    return [
        _phase(-pi / 4),
        _rz(q0, -pi / 2),
        _cx(q1, q0),
        _rz(q0, 2 * theta + 3 * pi / 2),
        _ry(q1, 2 * theta + 3 * pi / 2),
        _cx(q0, q1),
        _ry(q1, pi / 2 - 2 * theta),
        _cx(q1, q0),
        _rz(q1, pi / 2),
    ]


def sublayers(order: int) -> tuple[tuple[int, float], ...]:
    """(parity, fraction of dt) of each sub-layer of one Trotter step.

    Parity 0 holds the transpositions (1,2), (3,4), ..., parity 1 the rest;
    order 2 symmetrizes by halving the first layer around the second.
    """
    if order not in (1, 2):
        raise UnsupportedConfigurationError("Trotter order must be 1 or 2")
    return ((0, 1.0), (1, 1.0)) if order == 1 else \
        ((0, 0.5), (1, 1.0), (0, 0.5))


def sz_bond_layers(n_sites: int, dt: float, order: int = 1,
                   coupling: float = 1.0) -> list[tuple[range, float]]:
    """The bonds of one computational-basis Trotter step, in the order it
    applies them: [(first qubits q of the bonds (q, q+1), theta), ...], one
    entry per sub-layer, each bond rotated by exp(-i theta (XX+YY+ZZ)).

    Bonds split into the layer containing (1,2) and the layer containing
    (2,3); order 2 symmetrizes by halving the first layer around the second.
    Bond angle theta = J*dt/4 because each bond operator is J(XX+YY+ZZ)/4.
    This is the one definition of that order: sz_trotter_step emits it as
    gates and sim.sz_trotter_layer applies it to the register.
    """
    return [(range(parity, n_sites - 1, 2), coupling * (fraction * dt) / 4)
            for parity, fraction in sublayers(order)]


def _refuse_overflow(args, bounds) -> None:
    """ResourceLimitError, before a step emits a gate, where finite (dt,
    coupling, ...) `args` overflow a bound on its angles' magnitude."""
    if all(map(isfinite, args)) and not all(map(isfinite, bounds)):
        raise ResourceLimitError(f"time step {args[0]:g} at coupling "
                                 f"{args[1]:g} gives a non-finite gate angle")


def sz_trotter_step(n_sites: int, dt: float, order: int = 1,
                    coupling: float = 1.0) -> Circuit:
    """One Trotter step for the chain in the computational basis: each bond
    of sz_bond_layers as a three-CX heisenberg_bond_block."""
    layers = sz_bond_layers(n_sites, dt, order, coupling)
    _refuse_overflow((dt, coupling), [2 * theta for _, theta in layers])
    gates: list[Gate] = []
    for qubits, theta in layers:
        for q in qubits:
            gates.extend(heisenberg_bond_block(q, q + 1, theta))
    return Circuit(n_sites, tuple(gates))


def _gray_subsets(n_units: int):
    """Binary-reflected Gray walk over unit subsets: (toggle_index, subset)."""
    state = 0
    seq = []
    for k in range(1, 1 << n_units):
        g = k ^ (k >> 1)
        toggle = (g ^ state).bit_length() - 1
        state = g
        seq.append((toggle, state))
    return seq


def _emit_diag_exp(term: BandTerm, phi: float, gates: list[Gate]) -> None:
    """Append exp(-i phi * coeff * product-of-diagonal-units)."""
    parities = z_parities(term.units)
    for par in sorted(parities, key=sorted):
        w = term.coeff * parities[par]
        if not par:
            gates.append(_phase(-phi * w))
        else:
            qs = sorted(par)
            for q in qs[:-1]:
                gates.append(_cx(q, qs[-1]))
            gates.append(_rz(qs[-1], 2 * phi * w))
            for q in reversed(qs[:-1]):
                gates.append(_cx(q, qs[-1]))


def _emit_mix_exp(term: BandTerm, phi: float, gates: list[Gate]) -> None:
    """Append exp(-i phi * coeff * controls x (a Z + b X)), (a, b) the
    band_coefficients of the term's band, via RY(acos a) conjugation.

    The controlled-Z core walks the control-unit subsets in Gray order,
    rotating the center after every toggle, so k control units cost
    sum(|unit|) * 2 CX gates regardless of how the weights fall.
    """
    t = term.mix_qubit
    theta = acos(band_coefficients(term.s_x2)[0])
    units = term.units
    k = len(units)
    base = term.coeff / (1 << k)
    gates.append(_ry(t, -theta))
    gates.append(_rz(t, 2 * phi * base))
    for toggle, state in _gray_subsets(k):
        for q in units[toggle].qubits:
            gates.append(_cx(q, t))
        sign = 1.0
        for j in range(k):
            if (state >> j) & 1:
                sign *= units[j].sign
        gates.append(_rz(t, 2 * phi * base * sign))
    # the walk ends on the Gray code of 2^k - 1, 2^(k-1): only the last
    # unit is still toggled
    if units:
        gates.extend(_cx(q, t) for q in units[-1].qubits)
    gates.append(_ry(t, theta))


def _emit_band_term(term: BandTerm, phi: float, gates: list[Gate]) -> None:
    if term.mix_qubit is None:
        _emit_diag_exp(term, phi, gates)
    else:
        assert all(u.projector for u in term.units)
        _emit_mix_exp(term, phi, gates)


def _term_key(term: BandTerm):
    units = tuple((u.qubits, u.sign, u.projector) for u in term.units)
    return (term.s_x2, term.perm, term.mix_qubit is None, units)


def band_layers(layout: QubitLayout, order: int):
    """The band terms of one encoded Trotter step, in the order
    csf_trotter_step emits them: [(fraction of dt, terms), ...], one entry
    per sub-layer of sublayers(order).

    Each sub-layer holds the terms of bands 0 .. trunc-1 whose transposition
    has its parity, sorted by band, transposition, mixing before diagonal,
    then units.  The step opens with the identity-shift phase
    (identity_shift_angle) and rotates each term by band_angle.
    sim.PathStep applies the same sub-layers to the spin-path vector,
    derived from the height rules instead of these terms.
    """
    layers = sublayers(order)
    by_parity: dict[int, list[BandTerm]] = {0: [], 1: []}
    for s_x2 in range(0, layout.trunc_x2):
        for term in band_terms(layout, s_x2):
            by_parity[(term.perm - 1) % 2].append(term)
    for terms in by_parity.values():
        terms.sort(key=_term_key)
    return [(fraction, by_parity[parity]) for parity, fraction in layers]


def band_angle(s_x2: int, step_dt: float, ramp: float,
               coupling: float) -> float:
    """phi in exp(-i phi H) for a piece H of band s_x2 in a sub-layer of
    length step_dt; ramp scales every band s >= 1, the zeroth band always
    runs at 1."""
    return (coupling / 2) * step_dt * (ramp if s_x2 else 1.0)


def identity_shift_angle(n_sites: int, dt: float, coupling: float) -> float:
    """The step's global phase exp(i angle) from the -(N-1)J/4 identity shift."""
    return dt * coupling * (n_sites - 1) / 4


def csf_trotter_step(n_sites: int, total_spin_x2: int, trunc_x2: int,
                     dt: float, order: int = 1, ramp: float = 1.0,
                     coupling: float = 1.0) -> Circuit:
    """One Trotter step of the band-truncated Hamiltonian on the qubit register.

    ramp multiplies the effective time step of every band s >= 1 (the
    adiabatic schedule's t/T); the zeroth band always runs at 1.  The
    identity shift -(N-1)J/4 is carried as an explicit PHASE so the circuit
    unitary equals the exponential of the encoded Hamiltonian, phase included.
    Terms are emitted in band_layers order.  Their angles are at most
    2 band_angle (term weights are at most 1).
    """
    sublayers(order)      # an unsupported order is refused first
    layout = build_layout(n_sites, total_spin_x2, trunc_x2)
    if trunc_x2 == 1:
        # scalar subspace: the one path's energy E, the step exp(-i dt E)
        energy = (coupling / 2) * (-n_sites / 2 - (n_sites - 1) / 2)
        _refuse_overflow((dt, coupling, ramp), [dt * energy])
        return Circuit(0, (_phase(-dt * energy),))
    return _emit_step(layout, dt, order, ramp, coupling)


def _emit_step(layout: QubitLayout, dt: float, order: int, ramp: float,
               coupling: float) -> Circuit:
    """The gates of one step (csf_trotter_step) on the register of
    `layout`: the identity-shift phase, then the band terms of the layout
    in band_layers order."""
    fractions = [fraction for _, fraction in sublayers(order)]
    n_sites = layout.n_sites
    _refuse_overflow((dt, coupling, ramp), [
        identity_shift_angle(n_sites, dt, coupling),
        *(2 * band_angle(s_x2, fraction * dt, ramp, coupling)
          for s_x2 in (0, 1) for fraction in fractions)])
    gates = [_phase(identity_shift_angle(n_sites, dt, coupling))]
    for fraction, terms in band_layers(layout, order):
        for term in terms:
            _emit_band_term(term, band_angle(term.s_x2, fraction * dt, ramp,
                                             coupling), gates)
    return Circuit(layout.n_qubits, tuple(gates))


def export_gatelist(circuit: Circuit) -> str:
    """Line-based dump: 'qubits <n>' then one gate per line."""
    lines = [f"qubits {circuit.n_qubits}"]
    for g in circuit.gates:
        if g.kind == "CX":
            lines.append(f"CX {g.control} {g.target}")
        else:
            lines.append(f"{g.kind} {g.target} {g.angle:.17g}")
    return "\n".join(lines) + "\n"


def export_qasm(circuit: Circuit) -> str:
    """OpenQASM-3 subset mirroring the gate list (gphase for PHASE)."""
    lines = ["OPENQASM 3.0;", 'include "stdgates.inc";',
             f"qubit[{max(circuit.n_qubits, 1)}] q;"]
    for g in circuit.gates:
        if g.kind == "CX":
            lines.append(f"cx q[{g.control}], q[{g.target}];")
        elif g.kind == "PHASE":
            lines.append(f"gphase({g.angle:.17g});")
        else:
            lines.append(f"{g.kind.lower()}({g.angle:.17g}) q[{g.target}];")
    return "\n".join(lines) + "\n"
