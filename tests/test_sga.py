import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spinadapt import (InvalidQuantumNumbersError, SpinPath, apply_hamiltonian,
                       band_coefficients, band_hamiltonian, build_hamiltonian,
                       enumerate_paths, permutation_matrix, singlet_pair_path)
from spinadapt.adiabatic import schedule_hamiltonians
from spinadapt import sga
from spinadapt.sga import (PRUNE_TOL, _bond_rules, _height_rule,
                           ground_energy_matrix_free, ground_state)

from references import (oracle_operator_matrix, path_steps, step_to_height,
                        sz_hamiltonian_matrix)


def test_band_coefficients_values():
    a0, b0 = band_coefficients(0)
    assert a0 == 1.0 and b0 == 0.0
    a1, b1 = band_coefficients(1)
    assert a1 == 0.5 and abs(b1 - np.sqrt(3) / 2) < 1e-15
    a2, b2 = band_coefficients(2)
    assert abs(a2 - 1 / 3) < 1e-15 and abs(b2 - 2 * np.sqrt(2) / 3) < 1e-15
    for a, b in ((a0, b0), (a1, b1), (a2, b2)):
        theta = np.arccos(a)
        assert abs(a ** 2 + b ** 2 - 1) < 1e-14
        assert abs(np.cos(theta) - a) < 1e-14
        assert abs(np.sin(theta) - b) < 1e-14


def test_band_coefficients_one_rule_for_scalars_arrays_and_height_rules():
    labels = np.arange(300)
    a, b = band_coefficients(labels)
    scalar = [band_coefficients(int(s)) for s in labels]
    # elementwise on an array, bit for bit the scalar values
    assert a.tobytes() == np.array([sa for sa, _ in scalar]).tobytes()
    assert b.tobytes() == np.array([sb for _, sb in scalar]).tobytes()
    # a scalar label, a Python or a numpy int, gives Python floats
    for label in (3, np.int64(3)):
        assert all(type(c) is float for c in band_coefficients(label))
    with pytest.raises(InvalidQuantumNumbersError):
        band_coefficients(-1)
    # the height rules on mixing triples (s, s-+1, s) read the same values:
    # -a on the peak, +a on the valley, b on both flips
    ends = labels[1:]
    peaks = np.stack([ends, ends + 1, ends], axis=1)
    valleys = np.stack([ends, ends - 1, ends], axis=1)
    for triples, sign in ((peaks, -1.0), (valleys, 1.0)):
        band, diag, _, off = _height_rule(triples)
        assert band.tolist() == ends.tolist()
        assert diag.tobytes() == (sign * a[ends]).tobytes()
        assert off.tobytes() == b[ends].tobytes()


def test_elementary_rules_peak_valley():
    a2, b2 = band_coefficients(2)
    # monotone (0,1,2), valley (2,1,2) and peak (2,3,2) at p=3
    band, diag, flip, off = _height_rule(np.array([[0, 1, 2], [2, 1, 2],
                                                   [2, 3, 2]]))
    assert band.tolist() == [1, 2, 2] and flip.tolist() == [-1, 3, 1]
    assert np.abs(diag - [1.0, a2, -a2]).max() < 1e-15
    assert np.abs(off - [0.0, b2, b2]).max() < 1e-15
    # the valley path and its flip mix through pi_{3,4}, and pi_{1,2} passes
    # the monotone (0,1,2) through
    basis = enumerate_paths(5, 1)
    valley = basis.position(SpinPath((0, 1, 2, 1, 2, 1), 5))
    flipped = basis.position(SpinPath((0, 1, 2, 3, 2, 1), 5))
    mat = permutation_matrix(basis, 3, 4).toarray()
    assert abs(mat[valley, valley] - a2) < 1e-15
    assert abs(mat[flipped, flipped] + a2) < 1e-15
    assert abs(mat[flipped, valley] - b2) < 1e-15
    assert abs(mat[valley, flipped] - b2) < 1e-15
    column = permutation_matrix(basis, 1, 2).toarray()[:, valley]
    assert column.tolist() == np.eye(len(basis))[valley].tolist()


def test_band_filter_selects_mixing_vs_pass():
    # (0,1,2) passes through in the band of its center height, 1; the peak
    # (0,1,0) mixes in the band of its end height, 0, with nothing to flip to
    band, diag, flip, off = _height_rule(np.array([[0, 1, 2], [0, 1, 0]]))
    assert band.tolist() == [1, 0] and diag.tolist() == [1.0, -1.0]
    assert flip.tolist() == [-1, -1] and off.tolist() == [0.0, 0.0]
    # on (0,1,2,1,0,1,0) only the peak at p=5 lies in band 0, and no triple
    # in band 2
    basis = enumerate_paths(6, 0)
    k = basis.position(SpinPath((0, 1, 2, 1, 0, 1, 0), 6))
    band0 = band_hamiltonian(basis, 0).toarray()
    assert band0[k].tolist() == (-np.eye(len(basis))[k]).tolist()
    assert not band_hamiltonian(basis, 2).toarray()[k].any()


def test_truncated_application_drops_flips():
    # pi_{2,3} on the valley (1,0,1) of (0,1,0,1,0): trunc 1/2 drops its
    # flip to height 2 and keeps the diagonal a
    a, b = band_coefficients(1)
    full = permutation_matrix(enumerate_paths(4, 0), 2, 3).toarray()
    assert np.abs(full - [[a, b], [b, -a]]).max() < 1e-15
    clipped = permutation_matrix(enumerate_paths(4, 0, 1), 2, 3).toarray()
    assert clipped.tolist() == [[a]]


# N=2 here and N 4-10 in acceptance criterion 2: every even chain up to
# N=10 is compared against the expansion route in both sectors
@pytest.mark.parametrize("n,ts", [(2, 0), (2, 2), (4, 0), (6, 0), (6, 2),
                                  (8, 0)])
def test_adjacent_permutations_match_oracle(n, ts):
    basis = enumerate_paths(n, ts)
    for p in range(1, n):
        lhs = permutation_matrix(basis, p, p + 1).toarray()
        rhs = oracle_operator_matrix(("perm", p, p + 1), basis)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_nonadjacent_permutation_matches_oracle():
    basis = enumerate_paths(6, 0)
    lhs = permutation_matrix(basis, 1, 4).toarray()
    rhs = oracle_operator_matrix(("perm", 1, 4), basis)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_permutation_involution_and_trace_constancy():
    basis = enumerate_paths(8, 0)
    eye = np.eye(len(basis))
    traces = set()
    for i in range(1, 9):
        for j in range(i + 1, 9):
            mat = permutation_matrix(basis, i, j).toarray()
            assert np.abs(mat @ mat - eye).max() < 1e-10
            traces.add(round(np.trace(mat), 9))
    assert len(traces) == 1  # transpositions share one character


# even N <= 12, 2S in {0, 2}, any truncation up to N
SECTORS = (st.integers(min_value=1, max_value=6), st.sampled_from([0, 2]),
           st.integers(min_value=1, max_value=12))


@given(*SECTORS)
@settings(max_examples=40, deadline=None)
def test_band_resummation_identity(n_half, ts, trunc):
    n = 2 * n_half
    basis = enumerate_paths(n, ts, trunc)
    total = sum(band_hamiltonian(basis, s).toarray() for s in range(0, n + 1))
    perms = sum(permutation_matrix(basis, p, p + 1).toarray() for p in range(1, n))
    assert np.abs(total - perms).max(initial=0.0) < 1e-12


def test_band0_is_diagonal_with_pair_counts():
    basis = enumerate_paths(8, 0)
    mat = band_hamiltonian(basis, 0).toarray()
    assert np.abs(mat - np.diag(np.diag(mat))).max() == 0.0
    for k, path in enumerate(basis):
        h = path.heights
        pairs = sum(1 for p in range(1, 8) if h[p - 1] == h[p + 1] == 0)
        assert abs(mat[k, k] - (-1.0) * pairs) < 1e-15


def test_high_bands_vanish_on_truncated_basis():
    basis = enumerate_paths(8, 0, 2)
    assert band_hamiltonian(basis, 3).matrix.nnz == 0
    assert band_hamiltonian(basis, 4).matrix.nnz == 0


def test_hamiltonian_matches_oracle():
    for n, ts in [(6, 0), (8, 0), (6, 2)]:
        basis = enumerate_paths(n, ts)
        lhs = build_hamiltonian(basis, "height").toarray()
        rhs = oracle_operator_matrix("H", basis)
        assert np.abs(lhs - rhs).max() < 1e-10


@given(*SECTORS)
@settings(max_examples=40, deadline=None)
def test_height_truncation_is_exact_projection(n_half, ts, trunc):
    full = enumerate_paths(2 * n_half, ts)
    hfull = build_hamiltonian(full, "height").toarray()
    sub = enumerate_paths(2 * n_half, ts, trunc)
    hsub = build_hamiltonian(sub, "height").toarray()
    sel = [full.position(p) for p in sub]
    assert np.abs(hsub - hfull[np.ix_(sel, sel)]).max(initial=0.0) < 1e-12


def test_scalar_levels():
    b16 = enumerate_paths(16, 0, 1)
    assert build_hamiltonian(b16, "band").toarray()[0, 0] == pytest.approx(-7.75)
    b2 = enumerate_paths(2, 0)
    assert build_hamiltonian(b2, "height").toarray()[0, 0] == pytest.approx(-0.75)


def test_variational_hierarchy_and_band_convergence():
    full = enumerate_paths(16, 0)
    e_exact = ground_state(build_hamiltonian(full, "height"))[0][0]
    heights, bands = [], []
    for trunc in (1, 2, 3, 4):
        basis = enumerate_paths(16, 0, trunc)
        heights.append(ground_state(build_hamiltonian(basis, "height"))[0][0])
        bands.append(ground_state(build_hamiltonian(basis, "band"))[0][0])
    assert all(a > b for a, b in zip(heights, heights[1:]))
    assert all(e >= e_exact - 1e-9 for e in heights)
    band_err = [abs(e - e_exact) for e in bands]
    assert band_err[-1] < band_err[0]
    assert band_err[-1] < 1e-4
    # band truncation is allowed to overshoot: it does at trunc=1
    assert bands[1] < e_exact


@pytest.mark.parametrize("n", [8, 10])
def test_spectrum_embedding_in_sz_spectrum(n):
    full_spec = np.sort(np.linalg.eigvalsh(sz_hamiltonian_matrix(n).toarray()))
    for ts in (0, 2):
        basis = enumerate_paths(n, ts)
        sub = np.sort(np.linalg.eigvalsh(build_hamiltonian(basis, "height").toarray()))
        # every CSF eigenvalue appears in the full spectrum
        for e in sub:
            assert np.min(np.abs(full_spec - e)) < 1e-9


@given(*SECTORS)
@settings(max_examples=40, deadline=None)
def test_matrix_free_apply_matches_matrix(n_half, ts, trunc):
    basis = enumerate_paths(2 * n_half, ts, trunc)
    dim = len(basis)
    for mode in ("height", "band"):
        mat = build_hamiltonian(basis, mode).toarray()
        for k in range(dim):
            e = np.zeros(dim)
            e[k] = 1.0
            assert np.abs(apply_hamiltonian(basis, mode, e) - mat[:, k]).max() < 1e-12
        zero = apply_hamiltonian(basis, mode, np.zeros(dim))
        assert np.abs(zero).max(initial=0.0) == 0.0


@given(*SECTORS)
@example(6, 0, 12)   # dim 132: the dense branch
@example(7, 0, 14)   # dim 429: the Lanczos branch
@settings(max_examples=40, deadline=None)
def test_matrix_free_eigensolve_matches_assembled(n_half, ts, trunc):
    basis = enumerate_paths(2 * n_half, ts, trunc)
    k = min(2, len(basis))
    if k == 0:
        return
    for mode in ("height", "band"):
        free = ground_energy_matrix_free(basis, mode, n_values=k)
        assembled = ground_state(build_hamiltonian(basis, mode), k)[0]
        assert np.abs(free - assembled).max() < 1e-10


@given(*SECTORS)
@example(6, 0, 12)   # dim 132: dense, below DENSE_MAX_DIM
@example(7, 0, 14)   # dim 429: Lanczos
@example(9, 0, 3)    # N=18 trunc 3/2, dim 1597: Lanczos
@settings(max_examples=40, deadline=None)
def test_ground_state_matches_dense_spectrum(n_half, ts, trunc):
    basis = enumerate_paths(2 * n_half, ts, trunc)
    for mode in ("height", "band"):
        op = build_hamiltonian(basis, mode)
        exact = np.linalg.eigvalsh(op.toarray())
        for k in range(1, min(2, op.dim) + 1):
            w, v = ground_state(op, k)
            assert w.shape == (k,)
            assert np.abs(w - exact[:k]).max() < 1e-10
            assert np.linalg.norm(op.matrix @ v - w[0] * v) <= 1e-8
            assert abs(np.linalg.norm(v) - 1) <= 1e-12


def test_ground_state_matches_default_arpack_on_the_ladder():
    # the replaced call: eigsh on the matrix with ARPACK's default ncv
    for trunc in (2, 3, 4, None):
        op = build_hamiltonian(enumerate_paths(18, 0, trunc), "height")
        v0 = np.full(op.dim, 1 / np.sqrt(op.dim))
        ref = np.sort(spla.eigsh(op.matrix, k=2, which="SA", v0=v0,
                                 return_eigenvectors=False))
        assert np.abs(ground_state(op, 2)[0] - ref).max() < 1e-12


def test_lanczos_tolerance_cuts_the_products(monkeypatch):
    # full N=18 singlet, dim 4862: 129 products at ARPACK's tol=0, 90 at
    # LANCZOS_TOL, from the same start vector
    calls = []
    csr_matvec = sga.csr_matvec
    monkeypatch.setattr(sga, "csr_matvec",
                        lambda *a: calls.append(1) or csr_matvec(*a))
    op = build_hamiltonian(enumerate_paths(18, 0))
    ground_state(op, 2)
    products = len(calls)
    monkeypatch.setattr(sga, "LANCZOS_TOL", 0.0)
    ground_state(op, 2)
    assert 0 < products <= 0.8 * (len(calls) - products)


@pytest.mark.parametrize("coupling", [1 / 16, 1, 16])
@pytest.mark.parametrize("mode", ["height", "band"])
@pytest.mark.parametrize("n, ts, trunc", [
    (16, 0, 4),   # dim 1094
    (15, 1, 3),   # dim 610
    (14, 2, 4),   # dim 729
    (22, 2, 2),   # dim 1024: in band mode the second eigenvector is odd
])
def test_lanczos_eigenvalues_stay_at_machine_precision(n, ts, trunc, mode,
                                                       coupling):
    op = build_hamiltonian(enumerate_paths(n, ts, trunc), mode, coupling)
    assert op.dim > sga.DENSE_MAX_DIM
    exact = np.linalg.eigvalsh(op.toarray())[:2]
    w, v = ground_state(op, 2)
    assert np.abs(w - exact).max() <= 1e-13 * abs(exact[0])
    residual = np.linalg.norm(op.matrix @ v - w[0] * v)
    assert residual <= sga.LANCZOS_TOL * abs(w[0])


def test_ground_state_refuses_impossible_n_values():
    op = build_hamiltonian(enumerate_paths(2, 0))   # dim 1
    for n_values in (0, 2):
        with pytest.raises(ValueError, match="N=2, 2S=0"):
            ground_state(op, n_values)
    w, v = ground_state(op, 1)
    assert w.tolist() == [pytest.approx(-0.75)] and abs(v[0]) == 1.0


def test_ground_state_widens_the_krylov_space_for_many_values():
    op = build_hamiltonian(enumerate_paths(14, 0))   # dim 429: Lanczos
    w, _ = ground_state(op, 12)
    assert np.abs(w - np.linalg.eigvalsh(op.toarray())[:12]).max() < 1e-10


def test_unconverged_lanczos_raises(monkeypatch):
    eigsh = spla.eigsh
    monkeypatch.setattr(spla, "eigsh",
                        lambda *a, **kw: eigsh(*a, maxiter=1, **kw))
    with pytest.raises(spla.ArpackNoConvergence):
        ground_state(build_hamiltonian(enumerate_paths(14, 0)), 2)


def test_rayleigh_quotient_singlet_pairs():
    basis = enumerate_paths(16, 0)
    vec = np.zeros(len(basis))
    vec[basis.position(singlet_pair_path(16))] = 1.0
    e = vec @ apply_hamiltonian(basis, "height", vec)
    assert abs(e - (-6.0)) < 1e-12  # -3/4 per singlet bond at N=16


def step_permutation_apply(steps, p: int, band_x2: int | None = None):
    """Same transposition expressed on step variables, with the cumulative-sum
    projector made explicit.  Cross-check route only: exponential bookkeeping
    of heights is hidden in the cumsum, so this is never used to build
    operators.

    Returns [(steps_tuple, coefficient), ...].
    """
    path = step_to_height(tuple(steps))
    su, sv = steps[p - 1], steps[p]
    s_after = path.heights[p + 1]  # cumulative sum through index p+1
    if band_x2 is not None and band_x2 != (s_after if su != sv else path.heights[p]):
        # projector band: ends height if the pair mixes, center height otherwise
        return []
    if su == sv:
        return [(tuple(steps), 1.0)]
    a, b = band_coefficients(s_after)
    swapped = list(steps)
    swapped[p - 1], swapped[p] = sv, su
    if su == 1:   # (u, d): local peak
        out = [(tuple(steps), -a)]
        if b > 0 and path.heights[p - 1] - 1 >= 0:
            out.append((tuple(swapped), b))
    else:         # (d, u): local valley
        out = [(tuple(steps), a)]
        if b > 0:
            out.append((tuple(swapped), b))
    return out


def test_step_rules_agree_with_height_rules():
    basis = enumerate_paths(8, 0)
    for p in range(1, 8):
        via_steps = np.zeros((len(basis), len(basis)))
        for k, path in enumerate(basis):
            for steps, c in step_permutation_apply(path_steps(path), p):
                via_steps[basis.position(step_to_height(steps)), k] += c
        mat = permutation_matrix(basis, p, p + 1).toarray()
        assert np.abs(mat - via_steps).max() < 1e-15


def test_step_rules_patterns():
    sp8 = path_steps(singlet_pair_path(8))
    out = step_permutation_apply(sp8, 2)  # (d, u) at sites 2,3: valley s=1/2
    coeff = dict(out)
    assert abs(coeff[sp8] - 0.5) < 1e-15
    up_up = path_steps(SpinPath((0, 1, 2, 1, 0, 1, 0, 1, 0), 8))
    assert step_permutation_apply(up_up, 1) == [(up_up, 1.0)]


@given(st.integers(min_value=1, max_value=5), st.sampled_from([0, 2]),
       st.one_of(st.none(), st.integers(min_value=1, max_value=10)))
@settings(max_examples=60, deadline=None)
def test_bond_rules_pair_each_kept_flip(n_half, ts, trunc):
    # the partner arithmetic itself, not only the operators assembled on it
    n = 2 * n_half
    assume(trunc is None or ts <= trunc <= n)
    basis = enumerate_paths(n, ts, trunc)
    h = basis.heights.astype(int)
    for p, band, diag, valleys, peaks, off in _bond_rules(basis):
        assert (band[valleys] > 0).all()
        assert (h[valleys, p] < h[valleys, p - 1]).all()
        assert np.array_equal(h[valleys, p - 1], h[valleys, p + 1])
        raised = h[valleys]
        raised[:, p] += 2
        assert np.array_equal(h[peaks], raised)
        assert raised.max(initial=0) <= basis.trunc_x2
        mat = permutation_matrix(basis, p, p + 1).matrix.tocoo()
        flips = mat.row != mat.col
        assert sorted(zip(mat.row[flips], mat.col[flips], mat.data[flips])) \
            == sorted([*zip(valleys, peaks, off), *zip(peaks, valleys, off)])


# The per-row walk that the per-triple tables of sga._bond_rules replaced,
# kept as its cross-check: _height_rule on every row of every bond.

def _per_row_bond_rules(basis, bonds=None):
    h = basis.heights
    for p in range(1, basis.n_sites) if bonds is None else bonds:
        band, diag, flip, off = _height_rule(h[:, p - 1:p + 2])
        valleys = np.flatnonzero((flip > h[:, p]) & (flip <= basis.trunc_x2))
        peaks = valleys + basis.walks[p + 1, band[valleys]]
        yield p, band, diag, valleys, peaks, off[valleys]


@given(st.integers(min_value=1, max_value=7), st.sampled_from([0, 2]),
       st.one_of(st.none(), st.integers(min_value=0, max_value=14)))
@example(4, 0, 1)     # trunc 1/2 and 1: rows with h[p] = 0 at every bond
@example(4, 0, 2)
@example(7, 2, 2)
@example(7, 0, None)
@settings(max_examples=60, deadline=None)
def test_bond_rules_match_the_per_row_rule(n_half, ts, trunc):
    n = 2 * n_half
    assume(trunc is None or ts <= trunc <= n)
    basis = enumerate_paths(n, ts, trunc)
    for bonds in (None, range(2, n, 2)):
        table = list(_bond_rules(basis, bonds))
        per_row = list(_per_row_bond_rules(basis, bonds))
        assert len(table) == len(per_row)
        for got, want in zip(table, per_row):
            assert got[0] == want[0]
            for a, b in zip(got[1:], want[1:]):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert np.array_equal(a, b) and a.tobytes() == b.tobytes()


def test_bond_rules_run_the_height_rule_once_per_call(monkeypatch):
    calls = []

    def counted(triples):
        calls.append(len(triples))
        return _height_rule(triples)

    monkeypatch.setattr(sga, "_height_rule", counted)
    for trunc in (1, 2, None):
        basis = enumerate_paths(12, 0, trunc)
        for bonds in (None, [3], range(2, 12, 2)):
            calls.clear()
            for _ in _bond_rules(basis, bonds):
                pass
            # peak, pass-through and valley at every height, at 0 a valley
            assert calls == [3 * (basis.walks.shape[1] - 1) - 2]


def test_export_coo_format():
    basis = enumerate_paths(4, 0)
    text = build_hamiltonian(basis, "height").export_coo()
    lines = text.strip().splitlines()
    assert lines[0] == "dim 2"
    assert all(len(line.split()) == 3 for line in lines[1:])


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=10))
@settings(max_examples=40, deadline=None)
def test_symmetry_of_operators(n_half, seed):
    n = 2 * n_half
    rng = np.random.default_rng(seed)
    trunc = int(rng.integers(1, n + 1))
    basis = enumerate_paths(n, 0, trunc)
    if len(basis) == 0:
        return
    mat = build_hamiltonian(basis, "height" if seed % 2 else "band").matrix
    assert abs(mat - mat.T).max() <= 1e-12


# The all-bonds-at-once COO route that the per-bond kernel of sga replaced,
# kept as its cross-check: every (row, bond) pair evaluated in one call of
# the height rule, dim x (N-1) entries per array, duplicates summed by the
# COO -> CSR conversion.

def _rule_entries(basis, bonds):
    """The transpositions (p, p+1), p in bonds, on every basis row, as COO
    entries (band, rows, cols, vals): each row's diagonal entry per bond, then
    the off-diagonal entries of the flips that stay in the truncation."""
    h = basis.heights
    bonds = np.asarray(bonds, dtype=np.intp)
    band, diag, flip, off = _height_rule(h[:, bonds[:, None] + np.arange(-1, 2)])
    rows = np.broadcast_to(np.arange(len(basis))[:, None], band.shape).ravel()
    hop, bond = np.nonzero((flip >= 0) & (flip <= basis.trunc_x2))
    p = bonds[bond]
    shift = basis.walks[p + 1, band[hop, bond]]
    partner = hop + np.where(flip[hop, bond] > h[hop, p], shift, -shift)
    return (np.concatenate([band.ravel(), band[hop, bond]]),
            np.concatenate([rows, partner]), np.concatenate([rows, hop]),
            np.concatenate([diag.ravel(), off[hop, bond]]))


def _reference_matrix(basis, rows, cols, vals):
    dim = len(basis)
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    mat.data[np.abs(mat.data) <= PRUNE_TOL] = 0.0
    mat.eliminate_zeros()
    return mat


def _reference_sum(basis, bands, shift, coupling):
    """(J/2)(sum_{s in bands} H_s - shift)."""
    band, rows, cols, vals = _rule_entries(basis, range(1, basis.n_sites))
    keep = (band >= bands.start) & (band < bands.stop)
    diag = np.arange(len(basis))
    return _reference_matrix(
        basis, np.concatenate([rows[keep], diag]),
        np.concatenate([cols[keep], diag]),
        (coupling / 2) * np.concatenate([vals[keep],
                                         np.full(len(basis), -shift)]))


def _reference_hamiltonian(basis, mode, coupling):
    top = basis.trunc_x2 + (mode == "height")
    return _reference_sum(basis, range(top), (basis.n_sites - 1) / 2, coupling)


def _reference_band(basis, s_x2):
    band, rows, cols, vals = _rule_entries(basis, range(1, basis.n_sites))
    keep = band == s_x2
    return _reference_matrix(basis, rows[keep], cols[keep], vals[keep])


def _assert_same_matrix(mat, ref):
    assert mat.nnz == ref.nnz
    assert np.abs((mat - ref).toarray()).max(initial=0.0) <= 1e-14


@given(*SECTORS)
@settings(max_examples=40, deadline=None)
def test_bond_kernel_matches_all_bonds_route(n_half, ts, trunc):
    assume(trunc >= ts)
    n, coupling = 2 * n_half, 1.3
    basis = enumerate_paths(n, ts, trunc)
    dim = len(basis)
    vec = np.random.default_rng(n * 100 + trunc).uniform(-1, 1, dim)
    for mode in ("height", "band"):
        ref = _reference_hamiltonian(basis, mode, coupling)
        _assert_same_matrix(build_hamiltonian(basis, mode, coupling).matrix, ref)
        assert np.abs(apply_hamiltonian(basis, mode, vec, coupling)
                      - ref @ vec).max() <= 1e-14
    for s_x2 in range(n + 2):
        _assert_same_matrix(band_hamiltonian(basis, s_x2).matrix,
                            _reference_band(basis, s_x2))
    for p in range(1, n):
        _assert_same_matrix(permutation_matrix(basis, p, p + 1).matrix,
                            _reference_matrix(basis,
                                              *_rule_entries(basis, [p])[1:]))
    # the adiabatic pair, each on its own pattern
    h_start, h_ramp = schedule_hamiltonians(basis, coupling)
    _assert_same_matrix(h_start,
                        _reference_sum(basis, range(1), (n - 1) / 2, coupling))
    _assert_same_matrix(h_ramp,
                        _reference_sum(basis, range(1, trunc), 0.0, coupling))


@pytest.mark.parametrize("mode", ["height", "band"])
@pytest.mark.parametrize("n,trunc", [(20, None), (22, 3)])
def test_assembly_peak_allocation_bounded(n, trunc, mode):
    # the per-bond kernel keeps the diagonal as one vector and only the
    # flips as COO entries; the all-bonds route peaked near 18x the CSR
    basis = enumerate_paths(n, 0, trunc)
    tracemalloc.start()
    try:
        mat = build_hamiltonian(basis, mode).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    csr_bytes = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
    assert peak <= 5 * csr_bytes


def _operator_arrays(op):
    """Everything an operator stores: its CSR arrays and its basis's."""
    mat, basis = op.matrix, op.basis
    return [(basis.n_sites, basis.total_spin_x2, basis.trunc_x2, mat.shape),
            *((a.dtype, a.shape, a.tobytes()) for a in
              (mat.indptr, mat.indices, mat.data, basis.heights,
               basis.walks))]


@given(st.integers(2, 16), st.sampled_from([0, 2]),
       st.sampled_from([1.0, 0.25, 4.0, -1.3, 0.3]))
@example(16, 0, -1.3)
@example(16, 2, 0.3)
@settings(max_examples=40, deadline=None)
def test_height_rung_slices_the_rung_assembly_gives(n, ts, coupling):
    assume((n - ts) % 2 == 0)
    top = build_hamiltonian(enumerate_paths(n, ts), "height", coupling)
    for trunc in range(ts, n + 1):
        rung = sga.height_rung(top, trunc)
        assembled = build_hamiltonian(enumerate_paths(n, ts, trunc), "height",
                                      coupling)
        assert _operator_arrays(rung) == _operator_arrays(assembled)
        assert not rung.basis.heights.flags.writeable
        assert not rung.basis.walks.flags.writeable


def test_height_rung_refuses_a_taller_rung():
    op = build_hamiltonian(enumerate_paths(10, 0, 3), "height")
    assert _operator_arrays(sga.height_rung(op, 3)) == _operator_arrays(op)
    with pytest.raises(ValueError, match="above the operator's truncation"):
        sga.height_rung(op, 4)


def test_matrix_free_start_vector_overlaps_the_ground_state(monkeypatch):
    # the sector where the uniform vector is orthogonal to the ground state
    basis = enumerate_paths(20, 2, 2)
    op = build_hamiltonian(basis, "band")
    vals, vecs = np.linalg.eigh(op.toarray())
    starts = []

    def capture(dim):
        starts.append(start(dim))
        return starts[-1]

    start = sga._start_vector
    monkeypatch.setattr(sga, "_start_vector", capture)
    free = ground_energy_matrix_free(basis, "band", n_values=2)
    assert len(starts) == 1
    v0 = starts[0] / np.linalg.norm(starts[0])
    assert abs(v0 @ vecs[:, 0]) > 1e-2
    assert abs(np.full(len(basis), len(basis) ** -0.5) @ vecs[:, 0]) < 1e-12
    assembled = ground_state(op, 2)[0]
    assert np.abs(free - assembled).max() < 1e-12
    assert np.abs(free - vals[:2]).max() < 1e-12
