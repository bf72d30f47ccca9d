import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinadapt import (InvalidQuantumNumbersError, ResourceLimitError,
                       SpinPath, UnphysicalPathError, cardinality, enumerate_paths,
                       singlet_pair_path, step_to_height,
                       triplet_reference_path)
from spinadapt import basis
from spinadapt.basis import allowed_heights


def is_valid_heights(heights, trunc_x2=None) -> bool:
    """Check the path invariants without raising."""
    if len(heights) < 2 or heights[0] != 0:
        return False
    for a, b in zip(heights, heights[1:]):
        if abs(b - a) != 1 or b < 0:
            return False
    if trunc_x2 is not None and max(heights) > trunc_x2:
        return False
    return True


def test_cardinality_known_values():
    assert cardinality(8, 0) == 14
    assert cardinality(2, 0) == 1
    assert cardinality(8, 2) == 28  # (3/9) * C(9,3)


def test_cardinality_rejects_bad_sectors():
    with pytest.raises(InvalidQuantumNumbersError):
        cardinality(8, 1)  # parity mismatch
    with pytest.raises(InvalidQuantumNumbersError):
        cardinality(4, 6)  # 2S > N
    with pytest.raises(InvalidQuantumNumbersError):
        cardinality(0, 0)


def test_enumerate_counts_vs_formula():
    for n in range(2, 15, 2):
        for ts in (0, 2):
            assert len(enumerate_paths(n, ts)) == cardinality(n, ts)
    for n in (3, 5, 9):
        assert len(enumerate_paths(n, 1)) == cardinality(n, 1)


def test_enumerate_truncated_counts():
    assert len(enumerate_paths(8, 0, 2)) == 8   # 2^(N/2-1)
    assert len(enumerate_paths(8, 0, 1)) == 1   # singlet-pair product only
    assert len(enumerate_paths(8, 0, 4)) == 14  # geometric ceiling: full space


def test_singlet_pair_path_is_sole_trunc_half_state():
    basis = enumerate_paths(8, 0, 1)
    assert list(basis) == [singlet_pair_path(8)]
    assert singlet_pair_path(8).heights == (0, 1, 0, 1, 0, 1, 0, 1, 0)
    assert singlet_pair_path(2).heights == (0, 1, 0)
    assert singlet_pair_path(16).heights == tuple(i % 2 for i in range(17))


def test_triplet_reference_path():
    assert triplet_reference_path(8).heights == (0, 1, 0, 1, 0, 1, 0, 1, 2)
    assert triplet_reference_path(2).heights == (0, 1, 2)
    p16 = triplet_reference_path(16)
    assert len(p16.heights) == 17 and p16.heights[-1] == 2
    assert p16.heights[:-1] == tuple(i % 2 for i in range(16))


def test_truncation_nesting_and_monotonicity():
    prev = None
    for trunc in range(1, 9):
        basis = enumerate_paths(12, 0, trunc)
        if prev is not None:
            assert len(basis) >= len(prev)
            assert set(p.heights for p in prev) <= set(p.heights for p in basis)
        prev = basis


def test_lexicographic_order():
    basis = enumerate_paths(10, 0)
    hts = [p.heights for p in basis]
    assert hts == sorted(hts)


@given(st.integers(min_value=1, max_value=6), st.sampled_from([0, 2]),
       st.integers(min_value=1, max_value=12))
@settings(max_examples=40, deadline=None)
def test_index_lookup(n_half, ts, trunc):
    basis = enumerate_paths(2 * n_half, ts, trunc)
    for k, p in enumerate(basis):
        assert basis.position(p) == k
        assert p in basis
    with pytest.raises(KeyError):
        basis.position(singlet_pair_path(2 * n_half + 2))


def test_step_height_round_trip_examples():
    sp8 = step_to_height((1, -1, 1, -1, 1, -1, 1, -1))
    assert sp8 == singlet_pair_path(8)
    with pytest.raises(UnphysicalPathError):
        step_to_height((1, -1, -1, 1, 1, -1, 1, -1))
    for path in enumerate_paths(8, 0, 4):
        assert step_to_height(path.steps()) == path


def test_spin_path_validation():
    with pytest.raises(UnphysicalPathError):
        SpinPath((0, 1, 3), 2)       # step of 2
    with pytest.raises(UnphysicalPathError):
        SpinPath((1, 0, 1), 2)       # starts above 0
    with pytest.raises(UnphysicalPathError):
        SpinPath((0, 1), 2)          # wrong length


def test_csv_round_trip():
    basis = enumerate_paths(8, 0, 2)
    lines = basis.to_csv().splitlines()
    assert lines[0] == "index,heights"
    assert lines[1] == "0,0/1/0/1/0/1/0/1/0"
    # every written number reads back exactly
    rows = [line.split(",") for line in lines[1:]]
    assert [int(k) for k, _ in rows] == list(range(len(basis)))
    assert [[int(h) for h in heights.split("/")] for _, heights in rows] == \
        basis.heights.tolist()


def test_allowed_heights_boundaries():
    assert allowed_heights(16, 0, 4, 0) == (0,)
    assert allowed_heights(16, 0, 4, 1) == (1,)
    assert allowed_heights(16, 0, 4, 8) == (0, 2, 4)
    assert allowed_heights(16, 2, 4, 15) == (1, 3)
    assert allowed_heights(16, 2, 4, 16) == (2,)


@given(st.integers(min_value=1, max_value=9), st.data())
@settings(max_examples=60, deadline=None)
def test_random_bitstrings_in_basis_iff_valid(n_half, data):
    n = 2 * n_half
    steps = data.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    heights = [0]
    for s in steps:
        heights.append(heights[-1] + s)
    trunc = data.draw(st.integers(min_value=1, max_value=n))
    basis = enumerate_paths(n, 0, trunc)
    member = heights in basis
    valid = is_valid_heights(heights, trunc) and heights[-1] == 0
    assert member == valid


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2))
@settings(max_examples=30, deadline=None)
def test_untruncated_equals_cardinality(n_half, s):
    n = 2 * n_half
    ts = 2 * s
    if ts > n:
        return
    assert len(enumerate_paths(n, ts)) == cardinality(n, ts)


def test_sector_refused_beyond_budget(monkeypatch):
    # the budget is lowered to just below the full N=20 sector's estimate,
    # so a broken guard would allocate only a few MiB
    dim = cardinality(20, 0)
    need = basis.sector_bytes(20, dim)
    monkeypatch.setattr(basis, "SECTOR_MAX_BYTES", need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="budget"):
            enumerate_paths(20, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dim            # the heights alone take dim * 21 bytes
    assert len(enumerate_paths(20, 0, 4)) < dim   # a smaller sector still fits
    monkeypatch.setattr(basis, "SECTOR_MAX_BYTES", need)
    assert len(enumerate_paths(20, 0)) == dim


@pytest.mark.parametrize("args", [(3000, 0), (10000, 0, 4)],
                         ids=["full-n3000", "trunc2-n10000"])
def test_sector_walks_refuses_before_it_fills_the_table(args):
    # full N=3000 is too tall for int8 heights, and trunc 2 at N=10000 has
    # too many paths for int64 counts: a table of exact counts filled before
    # the check takes hundreds of MiB for the first, 13 MiB for the second
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="too tall or too many"):
            basis.sector_walks(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def _exact_walks(n_sites, top):
    """walks[i][h] of the 2S=0 sector in Python integers: the reference for
    sector_walks' fixed-width table."""
    rows = [[0] * (top + 2) for _ in range(n_sites + 1)]
    rows[n_sites][0] = 1
    for i in range(n_sites - 1, -1, -1):
        for h in range(top + 1):
            rows[i][h] = rows[i + 1][h + 1] + (rows[i + 1][h - 1] if h else 0)
    return rows


# the last even N whose counts fit int64 at trunc 1, 2 and full
@pytest.mark.parametrize("n_sites, trunc_x2", [(126, 2), (80, 4), (68, None)])
def test_sector_walks_counts_exactly_up_to_int64(n_sites, trunc_x2):
    rows = _exact_walks(n_sites, n_sites if trunc_x2 is None else trunc_x2)
    assert max(map(max, rows)) <= np.iinfo(np.int64).max
    # the budget refuses the sector and quotes its exact path count
    with pytest.raises(ResourceLimitError, match=f" {rows[0][0]} paths"):
        basis.sector_walks(n_sites, 0, trunc_x2)
    with pytest.raises(ResourceLimitError, match="too tall or too many"):
        basis.sector_walks(n_sites + 2, 0, trunc_x2)


def test_budget_admits_n28_and_refuses_n30():
    # estimates only: neither sector is enumerated
    assert basis.sector_walks(28, 0)[0, 0] == cardinality(28, 0)
    with pytest.raises(ResourceLimitError, match="9694845 paths"):
        basis.sector_walks(30, 0)
