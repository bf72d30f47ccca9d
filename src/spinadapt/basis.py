"""Spin-path bases for a chain of N spin-1/2 sites.

A total-spin eigenstate of the successively-coupled chain is labelled by the
sequence of intermediate total spins S_0=0, S_1, ..., S_N = S.  We store twice
these values as integers ("heights"), so a path is a lattice walk that starts
at 0, moves by +-1 per site, never goes negative, and ends at 2S.  Truncating
the maximum height yields a nested family of subspaces; the untruncated count
for fixed (N, S) is (2S+1)/(N+1) * C(N+1, N/2-S).  The package works on
heights alone; the step variables (+-1 per site) and their cumulative-sum
map back to heights are a cross-check route kept in tests/references.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Iterator

import numpy as np

from .errors import (InvalidQuantumNumbersError, ResourceLimitError,
                     UnphysicalPathError, UnsupportedConfigurationError)

@dataclass(frozen=True)
class SpinPath:
    """One spin eigenstate as a height sequence (twice the intermediate spins)."""

    heights: tuple[int, ...]
    n_sites: int

    def __post_init__(self):
        if len(self.heights) != self.n_sites + 1:
            raise UnphysicalPathError(
                f"need {self.n_sites + 1} heights, got {len(self.heights)}")
        if self.heights[0] != 0:
            raise UnphysicalPathError("path must start at height 0")
        for i in range(self.n_sites):
            if abs(self.heights[i + 1] - self.heights[i]) != 1:
                raise UnphysicalPathError(f"height step at site {i + 1} is not +-1")
            if self.heights[i + 1] < 0:
                raise UnphysicalPathError(f"negative height at index {i + 1}")

    @property
    def total_spin_x2(self) -> int:
        return self.heights[-1]

    def __str__(self):
        return _slashed(self.heights)


def _slashed(heights) -> str:
    """A height sequence as the path text of str(SpinPath) and the CSV."""
    return "/".join(map(str, heights))


def _check_quantum_numbers(n_sites: int, total_spin_x2: int) -> None:
    if n_sites < 1:
        raise InvalidQuantumNumbersError(f"need at least one site, got {n_sites}")
    if total_spin_x2 < 0 or total_spin_x2 > n_sites:
        raise InvalidQuantumNumbersError(
            f"2S={total_spin_x2} outside [0, N={n_sites}]")
    if (n_sites - total_spin_x2) % 2 != 0:
        raise InvalidQuantumNumbersError(
            f"N={n_sites} and 2S={total_spin_x2} must have equal parity")


def cardinality(n_sites: int, total_spin_x2: int) -> int:
    """Number of spin paths from 0 to 2S in N unit steps, exactly."""
    _check_quantum_numbers(n_sites, total_spin_x2)
    num = (total_spin_x2 + 1) * comb(n_sites + 1, (n_sites - total_spin_x2) // 2)
    q, r = divmod(num, n_sites + 1)
    assert r == 0, "ballot-number formula must divide exactly"
    return q


def initial_path(n_sites: int, total_spin_x2: int) -> SpinPath:
    """Product start path of a sector, the zeroth band's ground state:
    heights 0, 1, 0, 1, ..., 1, 2S, singlet pairs (2S=0) or the triplet
    reference (2S=2)."""
    names = {0: "singlet-pair product", 2: "triplet reference"}
    if total_spin_x2 not in names:
        raise UnsupportedConfigurationError("start paths cover 2S in (0, 2) only")
    if n_sites % 2 != 0:
        raise InvalidQuantumNumbersError(f"{names[total_spin_x2]} needs even N")
    return SpinPath(tuple(i % 2 for i in range(n_sites)) + (total_spin_x2,),
                    n_sites)


@dataclass(frozen=True)
class CsfBasis:
    """Ordered, truncated set of spin paths for fixed (N, 2S), stored as arrays.

    heights[k] is the k-th path (int8, shape (dim, N+1)).  walks[i, h] counts
    the ways to finish a path from height h at position i without leaving the
    truncation; its last column is zero, so walks[i, -1] reads 0.  Spin paths
    are the walks of Shavitt's graphical unitary group approach, and a path's
    row is its rank: the sum over its up-steps i of walks[i, h[i-1] - 1], the
    number of paths that share its first i heights and step down at i.

    M is pinned to S throughout: matrix elements of spin-free operators do not
    depend on it, and fixing it keeps cross-checks against the explicit
    computational-basis expansion unambiguous.
    """

    n_sites: int
    total_spin_x2: int
    trunc_x2: int
    heights: np.ndarray = field(repr=False, compare=False)
    walks: np.ndarray = field(repr=False, compare=False)

    def __len__(self) -> int:
        return self.heights.shape[0]

    def __iter__(self) -> Iterator[SpinPath]:
        return (SpinPath(tuple(row), self.n_sites) for row in self.heights.tolist())

    def ranks(self, heights) -> np.ndarray:
        """Row of each height sequence (last axis); -1 where it is not a path
        of this basis.  Accepts raw heights, negative or out of range."""
        h = np.asarray(heights, dtype=np.int64)
        if h.shape[-1] != self.n_sites + 1:
            return np.full(h.shape[:-1], -1)
        steps = np.diff(h, axis=-1)
        member = ((h[..., 0] == 0) & (h[..., -1] == self.total_spin_x2)
                  & (np.abs(steps) == 1).all(axis=-1)
                  & (h >= 0).all(axis=-1) & (h <= self.trunc_x2).all(axis=-1))
        prev = np.clip(h[..., :-1], 0, self.walks.shape[1] - 1)
        below = self.walks[np.arange(1, self.n_sites + 1), prev - 1]
        rank = np.where(steps > 0, below, 0).sum(axis=-1)
        return np.where(member, rank, -1)

    def position(self, path: SpinPath) -> int:
        k = int(self.ranks(path.heights))
        if k < 0:
            raise KeyError(f"path {path} not in basis")
        return k

    def __contains__(self, path) -> bool:
        """Membership of a SpinPath or of a raw height sequence."""
        return bool(self.ranks(getattr(path, "heights", path)) >= 0)

    def to_csv(self) -> str:
        # rows are paths by construction: no SpinPath is built or checked
        rows = self.heights.tolist()
        return "index,heights\n" + "".join(f"{k},{_slashed(row)}\n"
                                            for k, row in enumerate(rows))


def untruncated_level(n_sites: int) -> int:
    """Sentinel truncation safely above any reachable height."""
    return n_sites


# The byte budget of what a route holds at once (check_budget): sectors,
# ladders (cli.cmd_diag), registers and Trotter runs' rows (sim).  A sector
# counts its int8 heights, the CSR bound of its Hamiltonian (one diagonal
# entry and at most N-1 flips per row, float64 values and int32 indices) and
# ARPACK's Lanczos vectors (ground_state keeps sga.LANCZOS_NCV = 12 basis
# vectors and a few work vectors; 24 counted): full N=28 (dim 2 674 440) is
# estimated at 1.4 GiB, full N=30 (dim 9 694 845) at 5.3 GiB.  That is not a
# bound on diag's peak: the assembly's COO pieces, their conversion and the
# interpreter come on top (peak RSS 1504-1532 MiB at full N=28, 2731 MiB at
# --sites 34 --trunc 1.5 against 2.10 GiB; ROADMAP: assembly within the
# size guard).
SECTOR_MAX_BYTES = 3 << 30


def sector_bytes(n_sites: int, dim: int) -> int:
    """Estimated bytes of a sector's heights, Hamiltonian and eigensolve.

    An estimate, not a bound: a process's peak can exceed it (see
    SECTOR_MAX_BYTES)."""
    return dim * (n_sites + 1) + dim * n_sites * 12 + (dim + 1) * 4 \
        + 24 * dim * 8


def check_budget(need: int, what: str) -> None:
    """Raise ResourceLimitError when an estimate of `need` bytes held at
    once exceeds SECTOR_MAX_BYTES; `what` is the refusal up to the budget,
    with {} for the estimate, shown up to 2^1023 bytes (a float's range)."""
    if need > SECTOR_MAX_BYTES:
        raise ResourceLimitError(
            what.format(f"an estimated {min(need, 2**1023) / 2**30:.1f} GiB")
            + f", above the {SECTOR_MAX_BYTES / 2**30:g} GiB budget")


def sector_walks(n_sites: int, total_spin_x2: int,
                 trunc_x2: int | None = None) -> np.ndarray:
    """walks[i, h] of the sector (see CsfBasis), after checking that its
    paths fit the storage types and its estimated footprint (sector_bytes)
    fits SECTOR_MAX_BYTES; nothing of the basis size is allocated.

    Raises ResourceLimitError for a sector that does not fit: at once for a
    truncation above int8's maximum height, at the first row that passes
    int64's maximum count while the table fills.
    """
    _check_quantum_numbers(n_sites, total_spin_x2)
    if trunc_x2 is None:
        trunc_x2 = untruncated_level(n_sites)
    if trunc_x2 < 0:
        raise InvalidQuantumNumbersError("truncation must be non-negative")

    top = min(trunc_x2, n_sites)
    too_big = (f"N={n_sites}, trunc {trunc_x2}: "
               "paths too tall or too many to store")
    if top > np.iinfo(np.int8).max:
        raise ResourceLimitError(too_big)
    # uint64 holds each entry exactly: two counts that passed the check.
    # Row i counts at most 2^(N-i) walks, so only a row 63 or more steps
    # before the end can pass int64.
    walks = np.zeros((n_sites + 1, top + 2), dtype=np.uint64)
    if total_spin_x2 <= top:
        walks[n_sites, total_spin_x2] = 1
    for i in range(n_sites - 1, -1, -1):
        walks[i, 1:top + 1] = walks[i + 1, 0:top]
        walks[i, 0:top + 1] += walks[i + 1, 1:top + 2]
        if (n_sites - i > 62
                and walks[i].max() > np.uint64(np.iinfo(np.int64).max)):
            raise ResourceLimitError(too_big)
    dim = int(walks[0, 0])
    check_budget(sector_bytes(n_sites, dim),
                 f"N={n_sites}, 2S={total_spin_x2}, trunc {trunc_x2}: "
                 f"{dim} paths need {{}} for heights, Hamiltonian and "
                 f"Lanczos vectors")
    return walks.view(np.int64)


def enumerate_paths(n_sites: int, total_spin_x2: int,
                    trunc_x2: int | None = None) -> CsfBasis:
    """All spin paths for (N, 2S) with max height <= trunc_x2, in lexicographic order.

    trunc_x2=None enumerates the full (untruncated) basis.  A sector beyond
    the size guard (sector_walks) is refused before its heights are
    allocated.  The heights are filled one position at a time: each path
    prefix with a completion gets its children in the order down, up, so the
    rows come out lexicographic, and a prefix ending at height h owns
    walks[i, h] consecutive rows.
    """
    walks = sector_walks(n_sites, total_spin_x2, trunc_x2)
    if trunc_x2 is None:
        trunc_x2 = untruncated_level(n_sites)
    heights = np.zeros((walks[0, 0], n_sites + 1), dtype=np.int8)
    ends = np.zeros(1, dtype=np.int64)   # last height of each prefix, in order
    for i in range(1, n_sites + 1):
        children = np.stack([ends - 1, ends + 1], axis=1).ravel()
        ends = children[walks[i, children] > 0]   # height -1 reads the zero column
        heights[:, i] = np.repeat(ends, walks[i, ends])
    heights.setflags(write=False)
    walks.setflags(write=False)
    return CsfBasis(n_sites, total_spin_x2, trunc_x2, heights, walks)


def allowed_heights(n_sites: int, total_spin_x2: int, trunc_x2: int,
                    position: int) -> tuple[int, ...]:
    """Heights that some basis path can take at the given chain position."""
    lo = max(position % 2, total_spin_x2 - (n_sites - position))
    hi = min(position, trunc_x2, total_spin_x2 + (n_sites - position))
    return tuple(h for h in range(max(lo, 0), hi + 1, 2))

