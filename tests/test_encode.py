import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinadapt import (UnsupportedConfigurationError, build_layout,
                       encode_hamiltonian, enumerate_paths, qubit_count,
                       singlet_pair_path)
from spinadapt.encode import parse_pauli_text
from spinadapt.sga import build_hamiltonian

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
        bits = layout.encode_path(path)
        assert bits not in seen
        seen.add(bits)
        assert layout.decode_bits(bits) == path
    assert layout.physical_bitstrings(basis).tolist() == \
        [layout.encode_path(p) for p in basis]


def test_decode_examples():
    layout = build_layout(8, 0, 2)
    assert layout.decode_bits(0) == singlet_pair_path(8)
    # trunc=1: every bit pattern decodes to a valid path
    for bits in range(1 << layout.n_qubits):
        assert layout.decode_bits(bits) is not None

    gray = build_layout(16, 0, 4)
    basis = enumerate_paths(16, 0, 4)
    path = next(p for p in basis if 4 in p.heights)
    bits = gray.encode_path(path)
    assert gray.decode_bits(bits) == path
    pos = next(pos for pos in range(17) if path.heights[pos] == 4)
    # corrupt the Gray pair to the unused 10 pattern: ext=1 main=0
    bits_bad = bits ^ (1 << (gray.n_qubits - 1 - gray.main_qubit[pos]))
    assert gray.decode_bits(bits_bad) is None


def test_decode_rejects_invalid_paths():
    layout = build_layout(8, 0, 3)
    hits = sum(layout.decode_bits(b) is not None
               for b in range(1 << layout.n_qubits))
    assert hits == len(enumerate_paths(8, 0, 3))


@pytest.mark.parametrize("n,ts", [(4, 0), (6, 0), (8, 0), (8, 2), (10, 0),
                                  (12, 0), (12, 2)])
@pytest.mark.parametrize("trunc", [2, 3, 4])
def test_pauli_sum_matches_band_matrix(n, ts, trunc):
    basis = enumerate_paths(n, ts, trunc)
    if len(basis) == 0:
        pytest.skip("empty sector")
    pauli = encode_hamiltonian(n, ts, trunc)
    layout = pauli.metadata["layout"]
    bits = layout.physical_bitstrings(basis)
    block = pauli.matrix_elements(bits, bits)
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
        assert pauli.is_hermitian()
        for t in pauli.terms:
            assert abs(t.coefficient.imag) < 1e-12
            assert "Y" not in t.letters


def test_locality_bounds():
    for n, ts in [(8, 0), (12, 0), (16, 0), (16, 2)]:
        for trunc in (2, 3):
            pauli = encode_hamiltonian(n, ts, trunc)
            assert pauli.weight_max() <= 3
        pauli = encode_hamiltonian(n, ts, 4)
        by_band = {0: 3, 1: 3, 2: 5, 3: 3}
        # per-band maxima after the physical-sector simplifications
        from spinadapt.encode import band_terms, _expand_term
        from spinadapt.sga import band_coefficients
        layout = pauli.metadata["layout"]
        for s, bound in by_band.items():
            acc = {}
            co = band_coefficients(s)
            for term in band_terms(layout, s):
                _expand_term(term, layout.n_qubits, co.a, co.b, acc)
            width = max((sum(1 for c in k if c != "I") for k in acc
                         if abs(acc[k]) > 1e-14), default=0)
            assert width <= bound, (n, ts, s, width)


def test_term_count_linear_in_sites():
    for trunc in (2, 3, 4):
        counts = {n: len(encode_hamiltonian(n, 0, trunc))
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
    layout = pauli.metadata["layout"]
    basis = enumerate_paths(2 * n_half, ts, trunc)
    phys = set(int(b) for b in layout.physical_bitstrings(basis))
    unphys = np.array([b for b in range(1 << pauli.n_qubits)
                       if b not in phys], dtype=np.int64)
    assume(unphys.size > 0)
    cross = pauli.matrix_elements(unphys,
                                  np.array(sorted(phys), dtype=np.int64))
    assert np.abs(cross).max() < 1e-12


def test_export_parse_round_trip():
    pauli = encode_hamiltonian(8, 0, 3)
    text = pauli.export_text()
    assert text.splitlines()[0] == "qubits 5"
    back = parse_pauli_text(text)
    assert back.n_qubits == pauli.n_qubits
    assert [(t.coefficient, t.letters) for t in back.terms] == \
        [(t.coefficient, t.letters) for t in pauli.terms]
    # deterministic lexicographic ordering
    letters = [t.letters for t in pauli.terms]
    assert letters == sorted(letters)


def test_export_deterministic():
    a = encode_hamiltonian(12, 0, 4).export_text()
    b = encode_hamiltonian(12, 0, 4).export_text()
    assert a == b
