"""Qubit encodings of band-truncated spin-path Hamiltonians.

Each chain position carries its set of reachable heights.  Two-valued
positions map to one qubit (lower height -> |0>), the three-valued even
positions that appear at the deepest supported truncation map to a
(main, extension) qubit pair with the Gray code 0->00, 1->01, 2->11 so that
neighboring heights differ in a single bit; the pattern 10 is unphysical.
Boundary positions with a single reachable height are eliminated by constant
substitution.

Band operators are assembled from a small diagonal/mixing term IR that the
circuit builder consumes as well, so the emitted Pauli sum and the Trotter
blocks are one construction by definition; z_parities is the one reading of
a product of diagonal units, for both.  At the Gray-coded truncation the
bulk operators are simplified using the freedom to alter matrix elements
outside the physical subspace (single-qubit projectors instead of pair
projectors where the physical sector forces the partner bit); these
replacements leave every matrix element between physical bit-strings intact
and never map a physical state out of the physical sector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import CsfBasis, SpinPath, allowed_heights
from .errors import (InvalidQuantumNumbersError, ResourceLimitError,
                     UnsupportedConfigurationError)
from .sga import _scaled, band_coefficients

SUPPORTED_TRUNC_X2 = (1, 2, 3, 4)
GRAY_CODES = {0: (0, 0), 1: (0, 1), 2: (1, 1)}  # height rank -> (ext, main)
DENSE_MATRIX_MAX_QUBITS = 14


def _check_sector(n_sites: int, total_spin_x2: int, trunc_x2: int) -> None:
    if n_sites % 2 != 0:
        raise UnsupportedConfigurationError("qubit encodings need an even chain")
    if total_spin_x2 not in (0, 2):
        raise UnsupportedConfigurationError(
            f"supported sectors are 2S in (0, 2), got {total_spin_x2}")
    if trunc_x2 not in SUPPORTED_TRUNC_X2:
        raise UnsupportedConfigurationError(
            f"supported truncations are trunc_x2 in {SUPPORTED_TRUNC_X2}")


@dataclass(frozen=True)
class QubitLayout:
    """Map from chain positions to qubits (or fixed heights)."""

    n_sites: int
    total_spin_x2: int
    trunc_x2: int
    site_values: tuple[tuple[int, ...], ...]
    main_qubit: dict[int, int] = field(compare=False)
    ext_qubit: dict[int, int] = field(compare=False)
    n_qubits: int = 0

    def encode_path(self, path: SpinPath) -> int:
        """Bit-string index of a path; qubit 0 is the most significant bit."""
        bits = 0
        for pos in range(self.n_sites + 1):
            vals = self.site_values[pos]
            h = path.heights[pos]
            if h not in vals:
                raise InvalidQuantumNumbersError(
                    f"height {h} at position {pos} not representable")
            if len(vals) == 1:
                continue
            rank = vals.index(h)
            if len(vals) == 2:
                bits |= rank << (self.n_qubits - 1 - self.main_qubit[pos])
            else:
                e, m = GRAY_CODES[rank]
                bits |= m << (self.n_qubits - 1 - self.main_qubit[pos])
                bits |= e << (self.n_qubits - 1 - self.ext_qubit[pos])
        return bits

    def physical_bitstrings(self, basis: CsfBasis) -> np.ndarray:
        """encode_path of every basis path, read off the heights array."""
        bits = np.zeros(len(basis), dtype=np.int64)
        gray = np.array([GRAY_CODES[r] for r in range(3)], dtype=np.int64)
        for pos, vals in enumerate(self.site_values):
            col = basis.heights[:, pos]
            if not np.isin(col, vals).all():
                raise InvalidQuantumNumbersError(
                    f"a height at position {pos} is not representable")
            rank = np.searchsorted(vals, col)
            if len(vals) == 2:
                bits |= rank << (self.n_qubits - 1 - self.main_qubit[pos])
            elif len(vals) == 3:
                bits |= gray[rank, 1] << (self.n_qubits - 1 - self.main_qubit[pos])
                bits |= gray[rank, 0] << (self.n_qubits - 1 - self.ext_qubit[pos])
        return bits


def build_layout(n_sites: int, total_spin_x2: int, trunc_x2: int,
                 boundary: bool = True) -> QubitLayout:
    """Assign qubits to chain positions.

    boundary=False keeps every position dynamical with only the parity and
    truncation constraints (the pre-projection register used to check that
    constant folding is exact on the pinned sector).
    """
    _check_sector(n_sites, total_spin_x2, trunc_x2)
    values = []
    for pos in range(n_sites + 1):
        if boundary:
            vals = allowed_heights(n_sites, total_spin_x2, trunc_x2, pos)
        else:
            vals = tuple(h for h in range(pos % 2, trunc_x2 + 1, 2))
        if not vals or len(vals) > 3:
            raise UnsupportedConfigurationError(
                f"position {pos} has {len(vals)} reachable heights")
        values.append(vals)
    main, ext = {}, {}
    q = 0
    for pos in range(n_sites + 1):
        if len(values[pos]) >= 2:
            main[pos] = q
            q += 1
    for pos in range(n_sites + 1):
        if len(values[pos]) == 3:
            ext[pos] = q
            q += 1
    return QubitLayout(n_sites, total_spin_x2, trunc_x2, tuple(values),
                       main, ext, q)


def qubit_count(n_sites: int, total_spin_x2: int, trunc_x2: int) -> int:
    """Dynamical qubits after boundary elimination (0 at the scalar level)."""
    return build_layout(n_sites, total_spin_x2, trunc_x2).n_qubits


# ---------------------------------------------------------------------------
# band-term intermediate representation

@dataclass(frozen=True)
class DiagUnit:
    """(1 + sign*Z_S)/2 for projector=True, else the bare parity sign*Z_S."""

    qubits: tuple[int, ...]
    sign: int
    projector: bool = True


def z_parities(units) -> dict[frozenset, float]:
    """The product of diagonal units as a sum of Z parities: {qubits: weight},
    the product of Z over the qubits with a dyadic weight, +-2^-k.

    Expands unit by unit: (1 + sign Z_S)/2 for a projector, sign Z_S for a
    bare parity, the branch without a projector's Z before the one with it.
    The units of one term act on disjoint qubits, so every subset of them
    gives its own parity.
    """
    parities = {frozenset(): 1.0}
    for unit in units:
        new = {}
        for par, w in parities.items():
            if unit.projector:
                w /= 2
                new[par] = new.get(par, 0.0) + w
            pz = par.symmetric_difference(unit.qubits)
            new[pz] = new.get(pz, 0.0) + w * unit.sign
        parities = new
    return parities


@dataclass(frozen=True)
class BandTerm:
    """coeff * (product of diagonal units) [* (a Z + b X) on mix_qubit]."""

    perm: int
    s_x2: int
    coeff: float
    units: tuple[DiagUnit, ...]
    mix_qubit: int | None = None


def _proj_factor(layout: QubitLayout, pos: int, value: int,
                 context: str):
    """Projector onto one height at one position, as diagonal units.

    Returns (scalar, units) where scalar 0 kills the term.  context
    'mix-end' applies the physical-sector simplifications to the end
    projectors of tilted-field terms on three-valued (Gray) sites: height 0
    keeps only its main bit, height 1 widens to the anti-aligned pair bit.
    """
    vals = layout.site_values[pos]
    if len(vals) == 1:
        return (1.0 if vals[0] == value else 0.0), ()
    if value not in vals:
        return 0.0, ()
    rank = vals.index(value)
    if len(vals) == 2:
        q = layout.main_qubit[pos]
        return 1.0, (DiagUnit((q,), +1 if rank == 0 else -1),)
    m, e = layout.main_qubit[pos], layout.ext_qubit[pos]
    if context == "mix-end":
        if rank == 0:
            return 1.0, (DiagUnit((m,), +1),)
        if rank == 1:
            return 1.0, (DiagUnit((e, m), -1),)
        return 1.0, (DiagUnit((e,), -1),)
    eb, mb = GRAY_CODES[rank]
    return 1.0, (DiagUnit((e,), +1 if eb == 0 else -1),
                 DiagUnit((m,), +1 if mb == 0 else -1))


def _zz_pair_factor(layout, pos, value, s_x2):
    """Pass-through side projector; on Gray sites only the separating bit."""
    vals = layout.site_values[pos]
    if len(vals) == 3:
        # pair values are s_x2 -+ 1: heights {0,2} differ in main, {2,4} in ext
        rank = vals.index(value) if value in vals else -1
        if rank < 0:
            return 0.0, ()
        if s_x2 == 1:
            q = layout.main_qubit[pos]
            return 1.0, (DiagUnit((q,), +1 if rank == 0 else -1),)
        q = layout.ext_qubit[pos]
        return 1.0, (DiagUnit((q,), +1 if rank <= 1 else -1),)
    return _proj_factor(layout, pos, value, "plain")


def band_terms(layout: QubitLayout, s_x2: int) -> list[BandTerm]:
    """All contributions of one band, one BandTerm per surviving piece."""
    n = layout.n_sites
    gray = any(len(v) == 3 for v in layout.site_values)
    terms: list[BandTerm] = []
    coeffs = band_coefficients(s_x2)
    for p in range(1, n):
        # tilted-field piece: both neighbors at s_x2, center flips s_x2 -+ 1
        scalar = 1.0
        units: list[DiagUnit] = []
        for side in (p - 1, p + 1):
            c, us = _proj_factor(layout, side, s_x2,
                                 "mix-end" if gray else "plain")
            scalar *= c
            units.extend(us)
        if scalar != 0.0:
            cvals = layout.site_values[p]
            lo, hi = s_x2 - 1, s_x2 + 1
            has_lo, has_hi = lo in cvals, hi in cvals
            if has_lo and has_hi:
                if len(cvals) == 2:
                    mq = layout.main_qubit[p]
                elif s_x2 == 1:
                    mq = layout.main_qubit[p]   # heights 0 <-> 2: main bit flips
                else:
                    mq = layout.ext_qubit[p]    # heights 2 <-> 4: ext bit flips
                terms.append(BandTerm(p, s_x2, scalar, tuple(units), mq))
            elif has_hi or has_lo:
                value = hi if has_hi else lo
                diag = -coeffs.a if has_hi else coeffs.a
                if gray and len(cvals) == 2 and s_x2 == 0:
                    # bulk simplification: -a0 Z instead of -a0 |low><low|
                    cu = (DiagUnit((layout.main_qubit[p],), +1, projector=False),)
                    terms.append(BandTerm(p, s_x2, scalar * diag,
                                          tuple(units) + cu, None))
                else:
                    c2, us2 = _proj_factor(layout, p, value, "plain")
                    if c2 != 0.0:
                        terms.append(BandTerm(p, s_x2, scalar * diag * c2,
                                              tuple(units) + tuple(us2), None))
        # pass-through piece: neighbors anti-aligned across center height s_x2
        for va, vb in ((s_x2 - 1, s_x2 + 1), (s_x2 + 1, s_x2 - 1)):
            if va < 0 or vb < 0:
                continue
            ca, ua = _zz_pair_factor(layout, p - 1, va, s_x2)
            cb, ub = _zz_pair_factor(layout, p + 1, vb, s_x2)
            if ca * cb != 0.0:
                terms.append(BandTerm(p, s_x2, ca * cb, tuple(ua) + tuple(ub),
                                      None))
    return terms


# ---------------------------------------------------------------------------
# Pauli sums

@dataclass(frozen=True)
class PauliString:
    coefficient: complex
    letters: str


@dataclass(frozen=True)
class PauliSum:
    n_qubits: int
    terms: tuple[PauliString, ...]
    metadata: dict = field(default_factory=dict, compare=False)

    def _term_action(self, term: PauliString, cols: np.ndarray):
        """Images and amplitudes of one string applied to column bit-strings."""
        n = self.n_qubits
        flip = 0
        zmask = 0
        ybits = []
        for q, letter in enumerate(term.letters):
            bp = n - 1 - q
            if letter in ("X", "Y"):
                flip |= 1 << bp
            if letter in ("Z", "Y"):
                zmask |= 1 << bp
            if letter == "Y":
                ybits.append(bp)
        vals = np.full(cols.size, term.coefficient, dtype=complex)
        if zmask:
            par = np.zeros(cols.size, dtype=np.int64)
            tmp = cols & zmask
            while np.any(tmp):
                par ^= tmp & 1
                tmp >>= 1
            vals = vals * np.where(par == 1, -1.0, 1.0)
        for bp in ybits:
            up = ((cols >> bp) & 1) == 0
            vals = vals * np.where(up, 1j, -1j)
        return cols ^ flip, vals

    def matrix_elements(self, row_bits: np.ndarray,
                        col_bits: np.ndarray) -> np.ndarray:
        """Dense block <row|H|col> over arbitrary bit-string selections."""
        rows = np.asarray(row_bits, dtype=np.int64)
        cols = np.asarray(col_bits, dtype=np.int64)
        order = np.argsort(rows, kind="stable")
        sorted_rows = rows[order]
        out = np.zeros((rows.size, cols.size), dtype=complex)
        for term in self.terms:
            images, vals = self._term_action(term, cols)
            where = np.searchsorted(sorted_rows, images)
            where = np.clip(where, 0, rows.size - 1)
            hit = sorted_rows[where] == images
            np.add.at(out, (order[where[hit]], np.nonzero(hit)[0]), vals[hit])
        return out

    def to_dense(self) -> np.ndarray:
        if self.n_qubits > DENSE_MATRIX_MAX_QUBITS:
            raise ResourceLimitError(
                f"dense matrix refused above {DENSE_MATRIX_MAX_QUBITS} qubits")
        allbits = np.arange(1 << self.n_qubits, dtype=np.int64)
        return self.matrix_elements(allbits, allbits)

    def export_text(self) -> str:
        lines = [f"qubits {self.n_qubits}"]
        for t in self.terms:
            lines.append(f"{t.coefficient.real:.17g} {t.coefficient.imag:.17g} "
                         f"{t.letters}".rstrip())
        return "\n".join(lines) + "\n"


def _expand_term(term: BandTerm, n_qubits: int, a: float, b: float,
                 out: dict) -> None:
    """Accumulate one band term into a {letters: coeff} dictionary."""
    for par, w in z_parities(term.units).items():
        c = term.coeff * w
        letters = ["Z" if q in par else "I" for q in range(n_qubits)]
        strings = [(c, letters)]
        if term.mix_qubit is not None:
            assert term.mix_qubit not in par
            xl = list(letters)
            letters[term.mix_qubit], xl[term.mix_qubit] = "Z", "X"
            strings = [(c * a, letters), (c * b, xl)]
        for coeff, lets in strings:
            key = "".join(lets)
            out[key] = out.get(key, 0.0) + coeff


def encode_hamiltonian(n_sites: int, total_spin_x2: int, trunc_x2: int,
                       coupling: float = 1.0) -> PauliSum:
    """Band-truncated chain Hamiltonian as a qubit Pauli sum.

    Includes the (J/2) prefactor and the -(N-1)/4 J identity shift, so the
    scalar truncation level comes out as one identity term.  Coefficients
    are summed at unit coupling and sga._scaled; exact zeros are dropped.
    """
    layout = build_layout(n_sites, total_spin_x2, trunc_x2)
    acc: dict[str, float] = {}
    identity = "I" * layout.n_qubits
    for s_x2 in range(0, trunc_x2):
        coeffs = band_coefficients(s_x2)
        for term in band_terms(layout, s_x2):
            _expand_term(term, layout.n_qubits, coeffs.a, coeffs.b, acc)
    acc[identity] = acc.get(identity, 0.0) - (n_sites - 1) / 2
    keys = sorted(acc)
    coefs = _scaled(np.array([acc[k] for k in keys]), coupling / 2)
    terms = tuple(PauliString(complex(c), k) for k, c in zip(keys, coefs) if c)
    meta = {"n_sites": n_sites, "total_spin_x2": total_spin_x2,
            "trunc_x2": trunc_x2,
            "bands": tuple(range(0, trunc_x2)),
            "layout": layout}
    return PauliSum(layout.n_qubits, terms, meta)
