"""Qubit encodings of band-truncated spin-path Hamiltonians.

Each chain position carries its set of reachable heights, and
QubitLayout.code is the one map from a height to the (qubit, bit) pairs that
carry it.  Two-valued positions map to one main qubit (lower height -> |0>);
the three-valued even positions of the deepest supported truncation map to
an (extension, main) pair with the Gray code 00, 01, 11, so that neighboring
heights differ in a single bit; the pattern 10 is unphysical.  Positions
with a single reachable height carry no qubit (constant substitution).
Main qubits come first, in chain order, then the extension qubits.

Band operators are assembled from a small diagonal/mixing term IR that the
circuit builder consumes as well, so the emitted Pauli sum and the Trotter
blocks are one construction by definition; z_parities is the one reading of
a product of diagonal units, for both.  The mixing coefficients (a_s, b_s)
are sga.band_coefficients, as for the spin-path matrices, and sga._scaled
alone decides round-off in the summed Pauli coefficients.  At the
Gray-coded truncation the bulk operators are simplified using the freedom
to alter matrix elements outside the physical subspace (single-qubit
projectors instead of pair projectors where the physical sector forces the
partner bit); these replacements leave every matrix element between
physical bit-strings intact and never map a physical state out of the
physical sector.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .basis import CsfBasis, SpinPath, allowed_heights
from .errors import (InvalidQuantumNumbersError, ResourceLimitError,
                     UnsupportedConfigurationError)
from .sga import _scaled, band_coefficients

SUPPORTED_TRUNC_X2 = (1, 2, 3, 4)
GRAY_CODES = {0: (0, 0), 1: (0, 1), 2: (1, 1)}  # height rank -> (ext, main)
DENSE_MATRIX_MAX_QUBITS = 12   # a 256 MiB complex matrix


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

    def code(self, pos: int, height: int) -> tuple[tuple[int, int], ...] | None:
        """The (qubit, bit) pairs that carry height at pos: none at a fixed
        position, the main bit at a two-valued one, (ext, main) under
        GRAY_CODES at a three-valued one; None where height cannot occur."""
        vals = self.site_values[pos]
        if height not in vals:
            return None
        rank = vals.index(height)
        if len(vals) == 1:
            return ()
        if len(vals) == 2:
            return ((self.main_qubit[pos], rank),)
        e, m = GRAY_CODES[rank]
        return ((self.ext_qubit[pos], e), (self.main_qubit[pos], m))

    def _word(self, pos: int, height: int) -> int:
        """The code of height at pos as register bits, -1 if it has none."""
        pairs = self.code(pos, height)
        if pairs is None:
            return -1
        return sum(b << (self.n_qubits - 1 - q) for q, b in pairs)

    def encode_path(self, path: SpinPath) -> int:
        """Bit-string index of a path; qubit 0 is the most significant bit."""
        return int(self._encode(path.n_sites, np.array([path.heights]))[0])

    def physical_bitstrings(self, basis: CsfBasis) -> np.ndarray:
        """encode_path of every basis path."""
        return self._encode(basis.n_sites, basis.heights)

    def _encode(self, n_sites: int, heights: np.ndarray) -> np.ndarray:
        """OR of the code's bits over positions, for each row of heights,
        read from one table per position indexed by height."""
        if n_sites != self.n_sites:
            raise InvalidQuantumNumbersError(
                f"a {n_sites}-site chain on a {self.n_sites}-site layout")
        bits = np.zeros(len(heights), dtype=np.int64)
        top = int(heights.max(initial=0))
        for pos, col in enumerate(heights.T):
            words = np.array([self._word(pos, h) for h in range(top + 1)])[col]
            if (words < 0).any():
                raise InvalidQuantumNumbersError(
                    f"a height at position {pos} is not representable")
            bits |= words
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
    pairs = layout.code(pos, value)
    if pairs is None:
        return 0.0, ()
    if context == "mix-end" and len(pairs) == 2:
        (e, eb), (m, mb) = pairs
        return 1.0, ({(0, 0): DiagUnit((m,), +1), (0, 1): DiagUnit((e, m), -1),
                      (1, 1): DiagUnit((e,), -1)}[eb, mb],)
    return 1.0, tuple(DiagUnit((q,), +1 if b == 0 else -1) for q, b in pairs)


def _separating_bit(code, other):
    """The one (qubit, bit) of a height's code that the code of a
    neighboring height lacks."""
    (qb,) = set(code) - set(other)
    return qb


def _zz_pair_factor(layout, pos, value, s_x2):
    """Pass-through side projector; where both heights s_x2 -+ 1 can occur,
    only their separating bit."""
    code, other = layout.code(pos, value), layout.code(pos, 2 * s_x2 - value)
    if code is None or other is None:
        return _proj_factor(layout, pos, value, "plain")
    q, b = _separating_bit(code, other)
    return 1.0, (DiagUnit((q,), +1 if b == 0 else -1),)


def band_terms(layout: QubitLayout, s_x2: int) -> list[BandTerm]:
    """All contributions of one band, one BandTerm per surviving piece."""
    n = layout.n_sites
    gray = any(len(v) == 3 for v in layout.site_values)
    terms: list[BandTerm] = []
    a, _ = band_coefficients(s_x2)
    lo, hi = s_x2 - 1, s_x2 + 1
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
            code_lo, code_hi = layout.code(p, lo), layout.code(p, hi)
            has_lo, has_hi = code_lo is not None, code_hi is not None
            if has_lo and has_hi:
                mq, _ = _separating_bit(code_lo, code_hi)
                terms.append(BandTerm(p, s_x2, scalar, tuple(units), mq))
            elif has_hi or has_lo:
                value = hi if has_hi else lo
                diag = -a if has_hi else a
                _, us2 = _proj_factor(layout, p, value, "plain")
                if gray and len(us2) == 1 and s_x2 == 0:
                    # bulk simplification: -a0 Z instead of -a0 |low><low|
                    us2 = (replace(us2[0], projector=False),)
                terms.append(BandTerm(p, s_x2, scalar * diag,
                                      tuple(units) + us2, None))
        # pass-through piece: neighbors anti-aligned across center height s_x2
        for va, vb in ((lo, hi), (hi, lo)):
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
        a, b = band_coefficients(s_x2)
        for term in band_terms(layout, s_x2):
            _expand_term(term, layout.n_qubits, a, b, acc)
    acc[identity] = acc.get(identity, 0.0) - (n_sites - 1) / 2
    keys = sorted(acc)
    coefs = _scaled(np.array([acc[k] for k in keys]), coupling / 2)
    terms = tuple(PauliString(complex(c), k) for k, c in zip(keys, coefs) if c)
    return PauliSum(layout.n_qubits, terms)
