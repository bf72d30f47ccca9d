"""The transposition height rules: the one rule set that every spin-path
operator, the path-basis Trotter step and the qubit terms derive from.

The chain Hamiltonian is a sum of nearest-neighbor transpositions (Dirac
identity), and a transposition acts on a spin path through local rules on the
height triple (h[p-1], h[p], h[p+1]):

    monotone triple          -> unchanged
    ends equal at s, peak    -> -a_s * peak + b_s * valley
    ends equal at s, valley  -> +a_s * valley + b_s * peak

with a_s = 1/(2s+1), b_s = sqrt(1-a_s^2).  band_coefficients is the one
statement of (a_s, b_s): the height rules, encode's Pauli sums and the
circuits' mixing angles all read it.  Grouping terms by band: the mixing
block belongs to band s = the shared end height, the monotone pass-through to
band s = the center height.  Summed over bands this reproduces the full rules;
band by band it matches the tensor-product operators used for the qubit
encodings (ZZ pass-through between next-nearest neighbors plus a projected
tilted field), which is the grouping the truncated Hamiltonians are built on.

One walk over the bonds (_bond_rules) applies the rules to every row of each
bond and keeps the flips that stay in the truncation, one (valley, peak) pair
each; every operator in sga, sim's Trotter step and the bond energies read
it.  The walk evaluates the rules once, on the triples the sector can hold (a
peak, a pass-through and a valley per centre height, _rule_table), and each
bond gathers its rows' values from those tables by the triple's code
2 (h[p-1] + h[p+1]) + h[p].  _scaled alone decides round-off, in every
matrix entry and every summed Pauli coefficient.

Layering: this module, basis, encode and circuits use numpy only, so
`basis`, `circuit` and `ham --format pauli` start without scipy; sga, sim and
adiabatic build scipy.sparse matrices; sga loads scipy's eigensolvers at the
first eigensolve.

All site/permutation indices here are 1-based; heights are twice-integers.
"""

from __future__ import annotations

import numpy as np

from .basis import CsfBasis
from .errors import InvalidQuantumNumbersError, ResourceLimitError

PRUNE_TOL = 1e-14


def band_coefficients(s_x2):
    """(a_s, b_s) = (1/(2s+1), sqrt(1 - a_s^2)) of the band label s_x2 = 2s,
    an int or an int array (elementwise): the one statement of the mixing
    rule, read by the height rules, the Pauli sums and the circuits.  A
    negative scalar label raises InvalidQuantumNumbersError; a scalar label
    gives Python floats."""
    scalar = not isinstance(s_x2, np.ndarray)
    if scalar and s_x2 < 0:
        raise InvalidQuantumNumbersError("band label must be non-negative")
    a = 1.0 / (s_x2 + 1)
    b = np.sqrt(1.0 - a * a)
    return (float(a), float(b)) if scalar else (a, b)


def _height_rule(triples: np.ndarray):
    """The transposition (p, p+1) on height triples (h[p-1], h[p], h[p+1]).

    triples has the three heights on its last axis.  Returns, per triple,
    (band, diag, flip, off): the band label (the shared end height if the
    triple mixes, the center height if it passes through), the diagonal
    coefficient (1, -a or +a), the flipped center height (-1 if none) and
    the flip's coefficient b.
    """
    hm, hc, hp = (triples[..., k].astype(np.int64) for k in range(3))
    mix = hm == hp
    peak = hc > hm
    band = np.where(mix, hm, hc)
    a, b = band_coefficients(band)
    diag = np.where(mix, np.where(peak, -a, a), 1.0)
    flip = np.where(mix, np.where(peak, hm - 1, hm + 1), -1)
    off = np.where(mix, b, 0.0)
    return band, diag, flip, off


def _rule_table(basis: CsfBasis):
    """_height_rule on every height triple the sector can hold, as tables
    (band, diag, kept, off) indexed by the triple's code 2 (h[p-1] +
    h[p+1]) + h[p]: 5h - 4 for a peak at centre height h, 5h for a
    pass-through (both directions share the rule), 5h + 4 for a valley.
    kept marks the valleys whose upward flip stays within the truncation.
    Triples with an end below height 0 cannot occur and are left out (the
    rule would divide by zero on band -1), so every code is non-negative;
    the codes between those of real triples are never read."""
    centre = np.arange(basis.walks.shape[1] - 1)    # every height
    hm = (centre[:, None] + [-1, -1, 1]).ravel()    # peak, pass, valley
    hp = (centre[:, None] + [-1, 1, 1]).ravel()
    triples = np.stack([hm, np.repeat(centre, 3), hp], axis=1)[hm >= 0]
    band, diag, flip, off = _height_rule(triples)
    kept = (flip > triples[:, 1]) & (flip <= basis.trunc_x2)
    code = 2 * (triples[:, 0] + triples[:, 2]) + triples[:, 1]
    tables = []
    for rule in (band, diag, kept, off):
        table = np.zeros(5 * len(centre), dtype=rule.dtype)
        table[code] = rule
        tables.append(table)
    return tables


def _bond_rules(basis: CsfBasis, bonds=None):
    """Each transposition (p, p+1), p in bonds (default: every bond), on
    every basis row, streamed one bond at a time: yields (p, band, diag,
    valleys, peaks, off).  band and diag are _height_rule's per row; valleys
    the rows whose upward flip stays within the truncation, peaks their
    partners walks[p+1, band] rows later (the flip changes only the rank
    terms of steps p and p+1), off the flips' coefficients b.  Every kept
    flip is one (valley, peak) pair: a peak's downward flip always fits, and
    band 0 has no valley.  The rule runs once per call (_rule_table); each
    bond gathers its rows' values by triple code."""
    h = basis.heights
    band_of, diag_of, kept_of, off_of = _rule_table(basis)
    for p in range(1, basis.n_sites) if bonds is None else bonds:
        code = np.add(h[:, p - 1], h[:, p + 1], dtype=np.intp)
        code *= 2
        code += h[:, p]
        band = band_of.take(code)
        valleys = np.flatnonzero(kept_of.take(code))
        peaks = valleys + basis.walks[p + 1, band[valleys]]
        yield p, band, diag_of.take(code), valleys, peaks, \
            off_of.take(code[valleys])


def _scaled(vals: np.ndarray, scale: float) -> np.ndarray:
    """Unit-coupling rule sums times scale, in place, round-off (at most
    PRUNE_TOL) first set to 0, so the same values survive at every nonzero
    scale; an overflowed value raises ResourceLimitError."""
    vals[np.abs(vals) <= PRUNE_TOL] = 0.0
    with np.errstate(over="ignore"):
        vals *= scale
    if not np.isfinite(vals).all():
        raise ResourceLimitError(f"scaling by {scale:g} overflows an entry")
    return vals
