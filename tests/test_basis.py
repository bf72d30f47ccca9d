import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinadapt import (InvalidQuantumNumbersError, ResourceLimitError,
                       SpinPath, UnphysicalPathError, cardinality, enumerate_paths,
                       singlet_pair_path, step_to_height,
                       triplet_reference_path)
from spinadapt import basis
from spinadapt.basis import allowed_heights, is_valid_heights, parse_paths_csv


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
    assert basis.paths[0] == singlet_pair_path(8)
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
    text = basis.to_csv()
    assert text.splitlines()[0] == "index,heights"
    assert text.splitlines()[1] == "0,0/1/0/1/0/1/0/1/0"
    assert parse_paths_csv(text, 8) == list(basis.paths)


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


def test_budget_admits_n28_and_refuses_n30():
    # estimates only: neither sector is enumerated
    assert basis.sector_walks(28, 0)[0, 0] == cardinality(28, 0)
    with pytest.raises(ResourceLimitError, match="9694845 paths"):
        basis.sector_walks(30, 0)
