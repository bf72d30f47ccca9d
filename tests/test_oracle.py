import numpy as np
import pytest
import scipy.sparse as sp

from spinadapt import ResourceLimitError, SpinPath, enumerate_paths, \
    singlet_pair_path
from spinadapt.oracle import (_down_counts, apply_heisenberg,
                              apply_permutation, apply_total_s2,
                              apply_total_sz, expand_csf,
                              oracle_operator_matrix, sz_hamiltonian_matrix)


def test_two_site_singlet_amplitudes():
    amps = expand_csf(singlet_pair_path(2), 0)
    # |alpha beta> = index 0b01, |beta alpha> = 0b10
    expected = np.zeros(4, complex)
    expected[0b01] = 1 / np.sqrt(2)
    expected[0b10] = -1 / np.sqrt(2)
    assert np.allclose(amps, expected, atol=1e-12)


def test_stretched_triplet_is_all_up():
    amps = expand_csf(SpinPath((0, 1, 2), 2), 2)
    expected = np.zeros(4, complex)
    expected[0b00] = 1.0
    assert np.allclose(amps, expected, atol=1e-12)


def test_expansion_orthonormality_n8():
    basis = enumerate_paths(8, 0)
    vecs = np.array([expand_csf(p) for p in basis])
    gram = vecs.conj() @ vecs.T
    assert np.abs(gram - np.eye(14)).max() < 1e-12


@pytest.mark.parametrize("n,ts", [(4, 0), (6, 0), (6, 2), (5, 1)])
def test_expansions_are_symmetry_eigenstates(n, ts):
    for path in enumerate_paths(n, ts):
        for m2 in range(-ts, ts + 1, 2):
            amps = expand_csf(path, m2)
            assert abs(np.linalg.norm(amps) - 1) < 1e-12
            s2 = apply_total_s2(amps, n)
            target = ts / 2 * (ts / 2 + 1)
            assert np.linalg.norm(s2 - target * amps) < 1e-10
            sz = apply_total_sz(amps, n)
            assert np.linalg.norm(sz - m2 / 2 * amps) < 1e-10


@pytest.mark.parametrize("n", [0, 1, 5, 10])
def test_total_sz_counts_are_cached_read_only(n):
    down = _down_counts(n)
    assert _down_counts(n) is down
    assert not down.flags.writeable
    with pytest.raises(ValueError):
        down[0] = 1
    bits = np.array([bin(k).count("1") for k in range(1 << n)])
    assert np.array_equal(down, bits)
    rng = np.random.default_rng(n)
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    assert np.array_equal(apply_total_sz(v, n), (n / 2 - bits) * v)


def test_expand_guard():
    with pytest.raises(ResourceLimitError):
        expand_csf(singlet_pair_path(16))


def test_permutations_are_involutions_and_symmetric():
    n = 6
    rng = np.random.default_rng(11)
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    for (i, j) in [(1, 2), (2, 5), (1, 6), (3, 4)]:
        w = apply_permutation(apply_permutation(v, n, i, j), n, i, j)
        assert np.linalg.norm(w - v) < 1e-12
        # commutes with total spin operators
        a = apply_total_s2(apply_permutation(v, n, i, j), n)
        b = apply_permutation(apply_total_s2(v, n), n, i, j)
        assert np.linalg.norm(a - b) < 1e-10
        a = apply_total_sz(apply_permutation(v, n, i, j), n)
        b = apply_permutation(apply_total_sz(v, n), n, i, j)
        assert np.linalg.norm(a - b) < 1e-10


def test_two_site_hamiltonian_spectrum():
    ham = sz_hamiltonian_matrix(2).toarray()
    vals = np.sort(np.linalg.eigvalsh(ham))
    assert np.allclose(vals, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)


def test_matrix_and_matrix_free_agree():
    n = 6
    ham = sz_hamiltonian_matrix(n)
    rng = np.random.default_rng(3)
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    assert np.linalg.norm(ham @ v - apply_heisenberg(v, n)) < 1e-12


def test_four_site_ground_energy_vs_kron_construction():
    # independent route: build H from explicit Pauli kroneckers
    X = sp.csr_matrix(np.array([[0, 1], [1, 0]], dtype=float))
    Y = sp.csr_matrix(np.array([[0, -1j], [1j, 0]]))
    Z = sp.csr_matrix(np.diag([1.0, -1.0]))
    eye = sp.identity(2, format="csr")

    def chain(ops, n):
        out = None
        for k in range(n):
            m = ops.get(k, eye)
            out = m if out is None else sp.kron(out, m, format="csr")
        return out

    n = 4
    ham = None
    for p in range(n - 1):
        for op in (X, Y, Z):
            term = chain({p: op, p + 1: op}, n) / 4
            ham = term if ham is None else ham + term
    ref = sz_hamiltonian_matrix(n)
    assert np.abs((ham - ref).toarray()).max() < 1e-12
    ours = np.linalg.eigvalsh(ref.toarray())[0]
    theirs = np.linalg.eigvalsh(ham.toarray().real)[0]
    assert abs(ours - theirs) < 1e-12


def test_singlet_pair_energy_expectations():
    # matrix-free expectation on the product of singlet pairs
    for n in (8, 12, 16):
        amps = np.array([1.0], dtype=complex)
        pair = np.zeros(4, complex)
        pair[0b01], pair[0b10] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        for _ in range(n // 2):
            amps = np.kron(amps, pair)
        e = np.vdot(amps, apply_heisenberg(amps, n)).real
        assert abs(e - (-3 * n / 8)) < 1e-10  # -3/4 per singlet bond, 0 across


def test_oracle_matrix_elements_small():
    # the two-site singlet is odd under the swap, the triplet even
    for ts, sign in ((0, -1.0), (2, 1.0)):
        mat = oracle_operator_matrix(("perm", 1, 2), enumerate_paths(2, ts))
        assert mat.shape == (1, 1) and abs(mat[0, 0] - sign) < 1e-12


def test_block_diagonal_across_sectors():
    # Hamiltonian never mixes different (S, M) sectors
    n = 6
    singlets = [expand_csf(p, 0) for p in enumerate_paths(n, 0)]
    triplets = [expand_csf(p, 0) for p in enumerate_paths(n, 2)]
    for s in singlets:
        hs = apply_heisenberg(s, n)
        for t in triplets:
            assert abs(np.vdot(t, hs)) < 1e-10


def test_oracle_operator_matrix_symmetric():
    basis = enumerate_paths(8, 0)
    mat = oracle_operator_matrix(("perm", 3, 4), basis)
    assert np.abs(mat - mat.T).max() < 1e-12


def _bit_index_permutation(amplitudes, n_sites, i, j):
    """pi_{i,j} as a gather through bit-index arithmetic on every amplitude
    index: the formula the axis swap of apply_permutation replaced."""
    si, sj = i - 1, j - 1
    idx = np.arange(amplitudes.size)
    bi = (idx >> (n_sites - 1 - si)) & 1
    bj = (idx >> (n_sites - 1 - sj)) & 1
    diff = bi ^ bj
    swapped = idx ^ ((diff << (n_sites - 1 - si))
                     | (diff << (n_sites - 1 - sj)))
    return amplitudes[swapped]


@pytest.mark.parametrize("n", range(2, 11))
def test_axis_swap_permutation_matches_bit_index_formula(n):
    rng = np.random.default_rng(n)
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    cols = np.arange(1 << n)             # as sz_hamiltonian_matrix calls it
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            assert np.array_equal(apply_permutation(vec, n, i, j),
                                  _bit_index_permutation(vec, n, i, j))
            rows = apply_permutation(cols, n, i, j)
            assert rows.dtype == cols.dtype
            assert np.array_equal(rows, _bit_index_permutation(cols, n, i, j))


def _transposition_sum_s2(amplitudes, n_sites):
    """S^2 = 3N/4 + sum_{i<j} pi_{ij} - N(N-1)/4 over full-register copies:
    the sum the ladder-operator passes of apply_total_s2 replaced."""
    out = (3 * n_sites / 4 - n_sites * (n_sites - 1) / 4) * amplitudes
    for i in range(1, n_sites + 1):
        for j in range(i + 1, n_sites + 1):
            out = out + apply_permutation(amplitudes, n_sites, i, j)
    return out


@pytest.mark.parametrize("n", range(1, 11))
def test_total_s2_matches_transposition_sum(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        kept = vec.copy()
        assert np.abs(apply_total_s2(vec, n)
                      - _transposition_sum_s2(vec, n)).max() < 1e-12
        assert np.array_equal(vec, kept)
    real = rng.normal(size=1 << n)
    assert np.abs(apply_total_s2(real, n)
                  - _transposition_sum_s2(real, n)).max() < 1e-12
