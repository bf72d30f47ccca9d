import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinadapt import (InvalidQuantumNumbersError, PauliSum, ResourceLimitError,
                       UnsupportedConfigurationError, build_layout,
                       encode_hamiltonian, enumerate_paths, qubit_count,
                       singlet_pair_path)
from spinadapt.encode import _expand_term, band_terms
from spinadapt.sga import band_coefficients, build_hamiltonian

from references import encode_path, matrix_elements, to_dense

PINNED_COUNTS = {
    (8, 0): {2: 3, 3: 5, 4: 6},
    (16, 0): {2: 7, 3: 13, 4: 18},
    (16, 2): {2: 7, 3: 14, 4: 20},
}


def test_qubit_counts_pinned():
    for (n, ts), row in PINNED_COUNTS.items():
        for trunc, count in row.items():
            assert qubit_count(n, ts, trunc) == count
    assert qubit_count(8, 0, 1) == 0


def test_unsupported_configurations():
    with pytest.raises(UnsupportedConfigurationError):
        qubit_count(7, 1, 2)        # odd chain
    with pytest.raises(UnsupportedConfigurationError):
        qubit_count(8, 4, 2)        # S = 2 sector
    with pytest.raises(UnsupportedConfigurationError):
        encode_hamiltonian(8, 0, 5)


@given(st.integers(min_value=1, max_value=6), st.sampled_from([0, 2]),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_layout_round_trip_all_paths(n_half, ts, trunc):
    assume(trunc >= ts)   # below 2S the sector is empty and has no layout
    layout = build_layout(2 * n_half, ts, trunc)
    basis = enumerate_paths(2 * n_half, ts, trunc)
    seen = set()
    for path in basis:
        bits = encode_path(layout, path)
        assert 0 <= bits < 1 << layout.n_qubits and bits not in seen
        seen.add(bits)
    assert layout.physical_bitstrings(basis).tolist() == \
        [encode_path(layout, p) for p in basis]


def test_encode_examples():
    layout = build_layout(8, 0, 2)
    assert encode_path(layout, singlet_pair_path(8)) == 0
    # trunc=1: every bit pattern is a path
    bits = layout.physical_bitstrings(enumerate_paths(8, 0, 2))
    assert sorted(bits.tolist()) == list(range(1 << layout.n_qubits))

    gray = build_layout(16, 0, 4)
    basis = enumerate_paths(16, 0, 4)
    path = next(p for p in basis if 4 in p.heights)
    bits = encode_path(gray, path)
    pos = next(pos for pos in range(17) if path.heights[pos] == 4)
    # height 4 is the Gray pair 11; clearing its main bit gives the unused
    # pattern 10 (ext=1 main=0), which no path encodes to
    (e, _), (m, _) = gray.code(pos, 4)
    main = 1 << (gray.n_qubits - 1 - m)
    ext = 1 << (gray.n_qubits - 1 - e)
    assert bits & main and bits & ext
    assert (bits ^ main) not in set(gray.physical_bitstrings(basis).tolist())


@given(st.integers(min_value=1, max_value=8), st.sampled_from([0, 2]),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_qubit_code(n_half, ts, trunc):
    assume(trunc >= ts)
    n = 2 * n_half
    layout = build_layout(n, ts, trunc)
    basis = enumerate_paths(n, ts, trunc)
    carried = []
    for pos in range(n + 1):
        reachable = set(basis.heights[:, pos].tolist())
        codes = {h: layout.code(pos, h) for h in range(trunc + 3)}
        # None exactly where no path of the sector goes
        assert {h for h, c in codes.items() if c is not None} == reachable
        # distinct heights get distinct codes
        assert len({codes[h] for h in reachable}) == len(reachable)
        for h in reachable:
            if h + 2 in reachable:
                # neighbors differ in exactly one bit of the same qubits
                diff = set(codes[h]) ^ set(codes[h + 2])
                assert len(diff) == 2 and len({q for q, _ in diff}) == 1
                assert {q for q, _ in codes[h]} == {q for q, _ in codes[h + 2]}
            if len(codes[h]) == 2:
                (_, eb), (_, mb) = codes[h]
                assert (eb, mb) != (1, 0)   # the unphysical Gray pattern
        carried += [q for q, _ in codes[min(reachable)]]
    # every qubit belongs to exactly one position
    assert sorted(carried) == list(range(layout.n_qubits))


def test_gray_code_pinned():
    # N=8, trunc 2: position 4 holds heights 0, 2, 4 on main qubit 2 and
    # extension qubit 5, the last qubit, as (ext, main) = 00, 01, 11
    layout = build_layout(8, 0, 4)
    assert [layout.code(4, h) for h in (0, 2, 4)] == \
        [((5, 0), (2, 0)), ((5, 0), (2, 1)), ((5, 1), (2, 1))]
    assert layout.code(4, 1) is None and layout.code(4, 6) is None


@pytest.mark.parametrize("encode", [
    lambda layout: encode_path(layout, singlet_pair_path(10)),
    lambda layout: encode_path(layout, singlet_pair_path(6)),
    lambda layout: layout.physical_bitstrings(enumerate_paths(6, 0, 2))],
    ids=["longer-path", "shorter-path", "shorter-basis"])
def test_other_chain_length_refused(encode):
    with pytest.raises(InvalidQuantumNumbersError):
        encode(build_layout(8, 0, 2))


@pytest.mark.parametrize("n,ts", [(4, 0), (6, 0), (8, 0), (8, 2), (10, 0),
                                  (12, 0), (12, 2)])
@pytest.mark.parametrize("trunc", [2, 3, 4])
def test_pauli_sum_matches_band_matrix(n, ts, trunc):
    basis = enumerate_paths(n, ts, trunc)
    if len(basis) == 0:
        pytest.skip("empty sector")
    pauli = encode_hamiltonian(n, ts, trunc)
    layout = build_layout(n, ts, trunc)
    bits = layout.physical_bitstrings(basis)
    block = matrix_elements(pauli, bits, bits)
    assert np.abs(block.imag).max() < 1e-12
    ref = build_hamiltonian(basis, "band").toarray()
    assert np.abs(block.real - ref).max() < 1e-10


def test_scalar_level_pauli():
    pauli = encode_hamiltonian(16, 0, 1)
    assert pauli.n_qubits == 0
    assert len(pauli.terms) == 1
    assert pauli.terms[0].coefficient == pytest.approx(-7.75)
    for trunc in (1, 2, 3, 4):
        pauli2 = encode_hamiltonian(2, 0, trunc)
        assert pauli2.n_qubits == 0
        assert pauli2.terms[0].coefficient == pytest.approx(-0.75)


def test_hermiticity_and_reality():
    for n, ts, trunc in [(8, 0, 3), (8, 2, 4), (12, 0, 4)]:
        pauli = encode_hamiltonian(n, ts, trunc)
        # real I/X/Z strings: every term, and so the sum, is Hermitian
        for t in pauli.terms:
            assert abs(t.coefficient.imag) < 1e-12
            assert "Y" not in t.letters


def test_locality_bounds():
    for n, ts in [(8, 0), (12, 0), (16, 0), (16, 2)]:
        for trunc in (2, 3):
            pauli = encode_hamiltonian(n, ts, trunc)
            assert max(len(t.letters) - t.letters.count("I")
                       for t in pauli.terms) <= 3
        by_band = {0: 3, 1: 3, 2: 5, 3: 3}
        # per-band maxima after the physical-sector simplifications
        layout = build_layout(n, ts, 4)
        for s, bound in by_band.items():
            acc = {}
            a, b = band_coefficients(s)
            for term in band_terms(layout, s):
                _expand_term(term, layout.n_qubits, a, b, acc)
            width = max((sum(1 for c in k if c != "I") for k in acc
                         if abs(acc[k]) > 1e-14), default=0)
            assert width <= bound, (n, ts, s, width)


def test_term_count_linear_in_sites():
    for trunc in (2, 3, 4):
        counts = {n: len(encode_hamiltonian(n, 0, trunc).terms)
                  for n in (8, 12, 16, 20)}
        d1 = counts[12] - counts[8]
        assert counts[16] - counts[12] == d1
        assert counts[20] - counts[16] == d1


@given(st.integers(min_value=1, max_value=5), st.sampled_from([0, 2]),
       st.integers(min_value=2, max_value=4))
@settings(max_examples=30, deadline=None)
def test_no_leakage_from_physical_sector(n_half, ts, trunc):
    assume(trunc >= ts)
    pauli = encode_hamiltonian(2 * n_half, ts, trunc)
    layout = build_layout(2 * n_half, ts, trunc)
    basis = enumerate_paths(2 * n_half, ts, trunc)
    phys = set(int(b) for b in layout.physical_bitstrings(basis))
    unphys = np.array([b for b in range(1 << pauli.n_qubits)
                       if b not in phys], dtype=np.int64)
    assume(unphys.size > 0)
    cross = matrix_elements(pauli, unphys,
                                  np.array(sorted(phys), dtype=np.int64))
    assert np.abs(cross).max() < 1e-12


def test_export_parse_round_trip():
    pauli = encode_hamiltonian(8, 0, 3)
    lines = pauli.export_text().splitlines()
    assert lines[0] == "qubits 5"
    # every written number reads back exactly
    back = [line.split() for line in lines[1:]]
    assert [(complex(float(re), float(im)), "".join(letters))
            for re, im, *letters in back] == \
        [(t.coefficient, t.letters) for t in pauli.terms]
    # deterministic lexicographic ordering
    letters = [t.letters for t in pauli.terms]
    assert letters == sorted(letters)


def test_export_deterministic():
    a = encode_hamiltonian(12, 0, 4).export_text()
    b = encode_hamiltonian(12, 0, 4).export_text()
    assert a == b


def test_dense_pauli_matrix_refused_above_12_qubits():
    # 13 qubits would be a 1 GiB complex matrix
    with pytest.raises(ResourceLimitError, match="12 qubits"):
        to_dense(PauliSum(13, ()))
    assert to_dense(PauliSum(2, ())).shape == (4, 4)
