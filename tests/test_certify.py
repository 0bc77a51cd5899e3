"""Spectral norms and certificate soundness at oracle scale."""

import hashlib
import importlib
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from hkxor import kikuchi_even, kikuchi_odd, sos
from hkxor.certify import (
    SpectralNormError,
    certify,
    certify_even,
    certify_odd,
    eta_bound,
    spectral_norm,
    trace_moment,
)
from hkxor.instances import GeneratorConfig, generate, parse
from hkxor.kikuchi_even import build_even, regularize
from hkxor.kikuchi_odd import InfeasibleLevelError, build_odd, regularity_decompose
from hkxor.oracle import DENSE_DIM, ResourceGuardError, assemble, lambda_max

from helpers import explicit_instance, instance_rows, single_zz


def empty(n, k):
    return parse(f"HKXOR v1 n={n} k={k} m=0 model=explicit seed=0\n")


def test_spectral_norm_identity():
    for size in (1, 3, 40):
        sigma, res = spectral_norm(sp.eye(size, format="csr"), tol=1e-8)
        assert abs(sigma - 1.0) < 1e-8 and res < 1e-7


def test_spectral_norm_diagonal():
    sigma, _ = spectral_norm(sp.diags([1.0, 2.0, 3.0]), tol=1e-9)
    assert abs(sigma - 3.0) < 1e-9


def test_spectral_norm_negation_agrees():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((30, 30))
    a = (a + a.T) / 2
    s1, _ = spectral_norm(sp.csr_matrix(a), tol=1e-8)
    s2, _ = spectral_norm(sp.csr_matrix(-a), tol=1e-8)
    assert abs(s1 - s2) < 1e-8


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_spectral_norm_rejects_non_finite_or_nonpositive_tol(tol):
    with pytest.raises(ValueError, match="need finite tol > 0"):
        spectral_norm(sp.eye(3, format="csr"), tol=tol)


def test_spectral_norm_rejects_asymmetric():
    with pytest.raises(ValueError):
        spectral_norm(sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])), tol=1e-6)


def test_spectral_norm_refuses_a_non_square_matrix():
    for mat in (np.zeros((2, 3)), sp.csr_matrix((3, 2))):
        message = re.escape(f"matrix is not square: {mat.shape}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            spectral_norm(mat)


def test_spectral_norm_refuses_complex_input():
    # the dense blocks are real, so a complex matrix would lose its imaginary part
    for mat in (np.array([[0, 1j], [1j, 0]]), np.array([[0, 1j], [-1j, 0]]),
                np.array([[0, 1], [1, 0]], dtype=complex)):
        with pytest.raises(ValueError, match="complex"):
            spectral_norm(mat)


def test_spectral_norm_of_an_empty_matrix_is_zero():
    for mat in (np.zeros((0, 0)), sp.csr_matrix((0, 0))):
        assert spectral_norm(mat) == (0.0, 0.0)


# hkxor re-exports certify(), which hides the module attribute of that name
certify_module = importlib.import_module("hkxor.certify")


def dense_norm(mat) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(mat.toarray()))))


def random_block(rng, size: int, scale: float = 1.0) -> sp.csr_matrix:
    """A connected symmetric block: a random path plus a few random chords."""
    a = sp.diags([rng.standard_normal(size - 1)], [1], shape=(size, size))
    chords = sp.random(size, size, density=min(1.0, 3.0 / size), random_state=rng)
    a = a + chords
    return (scale * (a + a.T)).tocsr()


def mixed_blocks(rng, small_scale: float, large_scale: float) -> sp.csr_matrix:
    """Isolated zero rows, diagonal singletons, components on both sides of
    DENSE_DIM, and a small block next to its negation."""
    tie = random_block(rng, 5, small_scale)
    blocks = [sp.csr_matrix((3, 3)),
              sp.diags([0.3, -0.7]),
              random_block(rng, 2, small_scale),
              random_block(rng, 17, small_scale),
              tie, -tie,
              random_block(rng, DENSE_DIM, small_scale),
              random_block(rng, DENSE_DIM + 1, large_scale),
              sp.csr_matrix((1, 1)),
              random_block(rng, 150, large_scale)]
    return sp.block_diag(blocks, format="csr")


def permuted(mat: sp.csr_matrix, rng) -> sp.csr_matrix:
    perm = rng.permutation(mat.shape[0])
    return mat[perm][:, perm].tocsr()


@pytest.mark.parametrize("small_scale,large_scale", [(1.0, 1.0), (10.0, 1.0), (1.0, 10.0)])
def test_spectral_norm_by_components_matches_dense(small_scale, large_scale):
    rng = np.random.default_rng(7)
    mat = mixed_blocks(rng, small_scale, large_scale)
    for candidate in (mat, permuted(mat, rng)):
        sigma, residual = spectral_norm(candidate, tol=1e-9)
        assert abs(sigma - dense_norm(candidate)) < 1e-10
        assert residual <= 1e-9 * max(1.0, sigma)


def test_spectral_norm_plus_minus_tie_across_components():
    rng = np.random.default_rng(3)
    tie = random_block(rng, 9)
    for mat in (sp.block_diag([tie, -tie], format="csr"),
                sp.block_diag([random_block(rng, 80, 0.1), 5 * tie, random_block(rng, 70),
                               -5 * tie], format="csr")):
        sigma, _ = spectral_norm(permuted(mat, rng), tol=1e-9)
        assert abs(sigma - dense_norm(mat)) < 1e-10


def test_spectral_norm_only_large_components():
    rng = np.random.default_rng(11)
    for mat in (random_block(rng, 120),
                sp.block_diag([random_block(rng, 90), random_block(rng, 100)], format="csr")):
        sigma, _ = spectral_norm(mat, tol=1e-9)
        assert abs(sigma - dense_norm(mat)) < 1e-10


def test_spectral_norm_chunk_of_one_block(monkeypatch):
    rng = np.random.default_rng(5)
    mat = permuted(mixed_blocks(rng, 10.0, 1.0), rng)
    expected = spectral_norm(mat, tol=1e-9)
    monkeypatch.setattr(certify_module, "CHUNK_ENTRIES", 1)
    sigma, _ = spectral_norm(mat, tol=1e-9)
    assert abs(sigma - dense_norm(mat)) < 1e-10
    assert sigma == expected[0]


def test_spectral_norm_same_seed_same_repr():
    rng = np.random.default_rng(13)
    mat = permuted(mixed_blocks(rng, 1.0, 1.0), rng)
    for seed in (0, 4):
        assert repr(spectral_norm(mat, seed=seed)) == repr(spectral_norm(mat, seed=seed))


def test_spectral_norm_error_keeps_small_block_maximum(monkeypatch):
    rng = np.random.default_rng(17)
    mat = mixed_blocks(rng, 10.0, 1.0)
    small = dense_norm(mat)

    def no_convergence(sub, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.array([0.5]),
                                       np.ones((sub.shape[0], 1)))

    monkeypatch.setattr(certify_module.spla, "eigsh", no_convergence)
    with pytest.raises(SpectralNormError, match="did not converge") as err:
        spectral_norm(mat, tol=1e-9)
    assert abs(err.value.best_estimate - small) < 1e-10

    def poor_pair(sub, **kwargs):
        return np.array([0.5]), np.ones((sub.shape[0], 1))

    monkeypatch.setattr(certify_module.spla, "eigsh", poor_pair)
    with pytest.raises(SpectralNormError, match="exceeds tolerance budget") as err:
        spectral_norm(mat, tol=1e-9)
    assert abs(err.value.best_estimate - small) < 1e-10


@pytest.mark.parametrize("scale", [1.0, 8.0])
def test_spectral_norm_error_reports_partial_ritz_values_as_norms(monkeypatch, scale):
    # the large components are solved on M M, so a Ritz value 4.0 stands for the
    # norm 2.0, above the small block; their largest entries are 0.75 * scale, so
    # ritz_pair solves them divided by scale, and the norm is 2.0 * scale
    rng = np.random.default_rng(17)
    large = [random_block(rng, size) for size in (DENSE_DIM + 1, 150)]
    mat = scale * sp.block_diag([random_block(rng, 30, 0.1)]
                                + [0.75 / abs(b).max() * b for b in large], format="csr")
    assert dense_norm(mat[:30, :30]) < 2.0 * scale

    def no_convergence(sub, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.array([4.0]),
                                       np.ones((sub.shape[0], 1)))

    monkeypatch.setattr(certify_module.spla, "eigsh", no_convergence)
    with pytest.raises(SpectralNormError, match="did not converge") as err:
        spectral_norm(mat, tol=1e-9)
    assert err.value.best_estimate == 2.0 * scale

    def poor_pair(sub, **kwargs):
        return np.array([4.0]), np.ones((sub.shape[0], 1))

    monkeypatch.setattr(certify_module.spla, "eigsh", poor_pair)
    with pytest.raises(SpectralNormError, match="exceeds tolerance budget") as err:
        spectral_norm(mat, tol=1e-9)
    assert err.value.best_estimate == 2.0 * scale


@st.composite
def near_tie_matrices(draw):
    """A permuted block-diagonal symmetric matrix of 1-3 dense components of 65-160
    vertices, each with a planted spectrum whose two ends nearly cancel: one end at
    +-top, the other 1e-4 closer to zero, either sign winning."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for size in draw(st.lists(st.integers(DENSE_DIM + 1, 160), min_size=1, max_size=3)):
        top = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from((1.0, -1.0)))
        spectrum = np.concatenate(([top, -top * (1 - 1e-4)],
                                   rng.uniform(-0.9, 0.9, size - 2) * top))
        q, _ = np.linalg.qr(rng.standard_normal((size, size)))
        block = (q * spectrum) @ q.T
        blocks.append(sp.csr_matrix((block + block.T) / 2))
    return permuted(sp.block_diag(blocks, format="csr"), rng)


@settings(max_examples=30)
@given(near_tie_matrices())
def test_spectral_norm_resolves_near_plus_minus_ties(mat):
    sigma, residual = spectral_norm(mat, tol=1e-9)
    assert abs(sigma - dense_norm(mat)) < 1e-10
    assert residual <= 1e-9 * max(1.0, sigma)


def counting_eigsh(monkeypatch, fail_on=None, applications=None):
    """Record the size of every eigsh call, and if given a list, append to it the
    number of operator applications of each; call number fail_on does not converge."""
    sizes = []
    real = spla.eigsh

    def wrapper(sub, **kwargs):
        sizes.append(sub.shape[0])
        if len(sizes) == fail_on:
            raise spla.ArpackNoConvergence("no convergence", np.array([]),
                                           np.ones((sub.shape[0], 0)))
        if applications is None:
            return real(sub, **kwargs)
        applications.append(0)

        def counted(x):
            applications[-1] += 1
            return sub.matvec(x)

        return real(spla.LinearOperator(sub.shape, matvec=counted, dtype=sub.dtype), **kwargs)

    monkeypatch.setattr(certify_module.spla, "eigsh", wrapper)
    return sizes


def test_spectral_norm_one_eigsh_per_large_component(monkeypatch):
    rng = np.random.default_rng(19)
    mat = permuted(sp.block_diag([mixed_blocks(rng, 1.0, 1.0), random_block(rng, 90)],
                                 format="csr"), rng)
    sizes = counting_eigsh(monkeypatch)
    sigma, _ = spectral_norm(mat, tol=1e-9)
    assert sizes == [DENSE_DIM + 1, 90, 150]
    assert abs(sigma - dense_norm(mat)) < 1e-10


@pytest.mark.parametrize("small_scale,first_scale", [(10.0, 1.0), (1.0, 10.0)])
def test_spectral_norm_second_large_failure_keeps_solved_parts(monkeypatch, small_scale,
                                                              first_scale):
    rng = np.random.default_rng(23)
    small = [random_block(rng, s, small_scale) for s in (4, 30)]
    first, second = random_block(rng, 80, first_scale), random_block(rng, 120)
    mat = permuted(sp.block_diag(small + [second, first], format="csr"), rng)
    sizes = counting_eigsh(monkeypatch, fail_on=2)
    with pytest.raises(SpectralNormError, match="did not converge") as err:
        spectral_norm(mat, tol=1e-9)
    assert sizes == [80, 120]
    assert err.value.best_estimate >= dense_norm(first) - 1e-10
    assert err.value.best_estimate >= max(dense_norm(b) for b in small) - 1e-10


def test_spectral_norm_empty_rows_between_blocks_match_dense():
    rng = np.random.default_rng(29)
    blocks = []
    for size in (70, 3, 1, 100, 40, 2, 66):
        blocks += [random_block(rng, size) if size > 1 else sp.diags([0.9]),
                   sp.csr_matrix((int(rng.integers(1, 4)),) * 2)]
    blocks.append(sp.csr_matrix(([0.0], ([0], [0])), shape=(1, 1)))  # a stored zero
    mat = sp.block_diag(blocks, format="csr")
    for candidate in (mat, permuted(mat, rng), -permuted(mat, rng)):
        sigma, residual = spectral_norm(candidate, tol=1e-9)
        assert abs(sigma - dense_norm(candidate)) < 1e-10
        assert residual <= 1e-9 * max(1.0, sigma)


@pytest.mark.parametrize("scale", [1e-170, 1e-150, 1e150, 1e200, 1e300])
def test_spectral_norm_at_extreme_scales(scale):
    # the squared operator is taken of M times a power of two near 1 / max|M_ij|,
    # so M M neither underflows nor overflows
    mat = (scale * random_block(np.random.default_rng(3), 100)).tocsr()
    sigma, residual = spectral_norm(mat, tol=1e-9)
    assert abs(sigma - dense_norm(mat)) <= 1e-12 * dense_norm(mat)
    assert residual <= 1e-9 * max(1.0, sigma)


@pytest.mark.parametrize("duplicates", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_spectral_norm_takes_unsorted_and_duplicate_entries(seed, duplicates):
    # CSR input need not be canonical: rows that store their entries out of column
    # order, optionally each entry split into two stored parts (a pair sums the same
    # either way round, so the matrix stays exactly symmetric), plus a one-sided entry
    # under the symmetry tolerance in the column of an empty row; the caller's arrays
    # are read, never changed
    rng = np.random.default_rng(seed)
    mat = permuted(mixed_blocks(rng, 1.0, 1.0), rng).tolil()
    counts = np.diff(mat.tocsr().indptr)
    mat[int(np.argmax(counts)), int(np.argmin(counts))] = 1e-20  # into a column of no row
    mat = mat.tocsr()
    if duplicates:  # each entry stored twice, as a quarter and three quarters of it
        rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
        entries = np.argsort(np.concatenate([rows, rows]), kind="stable")
        mat = sp.csr_matrix((np.concatenate([mat.data / 4, mat.data * 0.75])[entries],
                             np.concatenate([mat.indices, mat.indices])[entries],
                             2 * mat.indptr), shape=mat.shape)
    for i in range(mat.shape[0]):  # store each row's entries out of column order
        e = slice(mat.indptr[i], mat.indptr[i + 1])
        shuffle = rng.permutation(e.stop - e.start)
        mat.indices[e], mat.data[e] = mat.indices[e][shuffle], mat.data[e][shuffle]
    mat.has_sorted_indices = False
    before = [getattr(mat, name).tobytes() for name in ("indptr", "indices", "data")]
    sigma, residual = spectral_norm(mat, tol=1e-9)
    assert abs(sigma - dense_norm(mat)) <= 1e-9 * max(1.0, sigma)
    assert residual <= 1e-9 * max(1.0, sigma)
    assert [getattr(mat, name).tobytes() for name in ("indptr", "indices", "data")] == before


def test_spectral_norm_matches_dense_on_kikuchi():
    g = build_even(single_zz(), 1)
    inv = np.diag(1.0 / np.sqrt(regularize(g)))
    dense = inv @ g.signed_matrix().toarray() @ inv
    expected = float(np.max(np.abs(np.linalg.eigvalsh(dense))))
    sigma, _ = spectral_norm(sp.csr_matrix(dense), tol=1e-10)
    assert abs(sigma - expected) < 1e-10
    assert abs(sigma - 0.75) < 1e-10


def test_certify_even_single_constraint():
    cert = certify_even(single_zz(), 1, tol=1e-8)
    assert cert.branch == "even"
    assert abs(cert.algval - 1.25) < 1e-6
    assert cert.algval >= lambda_max(assemble(single_zz())) - 1e-9


def test_certify_even_empty():
    cert = certify_even(empty(4, 2), 1)
    assert cert.algval == 0.5


def test_certify_odd_empty():
    cert = certify_odd(empty(5, 3), 2, 0.5)
    assert (cert.algval, cert.norm, cert.residual, cert.num_vertices, cert.num_edges,
            cert.per_t) == (0.5, 0.0, 0.0, 0, 0, ())


def test_empty_instance_still_checks_ell_and_eps():
    # an empty instance used to certify 1/2 before ell or eps was looked at
    with pytest.raises(ValueError, match="need k/2 <= ell <= n/2"):
        certify_even(empty(4, 2), 99)
    for ell, eps, message in ((-3, 0.5, "need ell >= k/2"), (2, 7.0, "need 0 < eps <= 1")):
        with pytest.raises(ValueError, match=message):
            certify_odd(empty(4, 3), ell, eps)


def test_certify_even_soundness_sweep():
    models = ["rademacher-semirandom", "gaussian-semirandom", "random", "one-basis-z"]
    for seed in range(24):
        inst = generate(GeneratorConfig(n=6, k=2, m=8, model=models[seed % 4], seed=seed))
        cert = certify_even(inst, 2)
        assert cert.algval >= lambda_max(assemble(inst)) - 1e-9


@pytest.mark.parametrize("eps", (float("nan"), 0.0, -0.5, 1.5, float("inf")))
def test_certify_checks_eps_on_every_branch(eps, monkeypatch):
    def no_build(*args):
        raise AssertionError("a graph was built before eps was checked")

    monkeypatch.setattr(certify_module, "build_even", no_build)
    monkeypatch.setattr(certify_module, "regularity_decompose", no_build)
    odd = generate(GeneratorConfig(n=5, k=3, m=4, model="random", seed=0))
    for inst in (single_zz(), odd, empty(4, 2), empty(5, 3)):
        with pytest.raises(ValueError, match=f"need 0 < eps <= 1, got {eps}"):
            certify(inst, 1 if inst.k == 2 else 2, eps=eps)


def test_odd_refuses_an_infeasible_paired_level_before_any_build(monkeypatch):
    # t=1 holds a constraint pair with k - t = 4 > ell; the t=5 slice used to be built
    # first (here past the edge budget) and the t=1 build to raise only after it
    def no_build(*args):
        raise AssertionError("a graph was built before the levels were checked")

    monkeypatch.setattr(certify_module, "build_odd", no_build)
    inst = explicit_instance(6, 5, ["Z1 Z2 Z3 Z4 Z5"] * 100 + ["X1 Y2 Z3 X4 Y5", "X1 Z2 Y3 Z4 X6"])
    with pytest.raises(InfeasibleLevelError, match=r"^need ell >= k-t, got ell=3, k-t=4$"):
        certify_odd(inst, 3, 1.0)
    # single constraints build no graph, so their level needs no vertex pair
    singles = explicit_instance(6, 5, ["X1 Y2 Z3 X4 Y5", "Y1 Z2 Y3 Z4 X6"])
    assert [s.t for s in certify_odd(singles, 3, 1.0).per_t] == [1]


@pytest.mark.parametrize("seed", (-1, 2**128, -(2**70)))
def test_solver_seed_outside_the_philox_key_range_is_refused(seed):
    rng = np.random.default_rng(5)
    small = random_block(rng, 8)  # solved by dense eigvalsh alone
    large = random_block(rng, DENSE_DIM + 10)  # solved by ARPACK
    for mat in (small, large, sp.csr_matrix((3, 3))):
        with pytest.raises(ValueError, match=re.escape(f"in [0, 2**128), got {seed}")):
            spectral_norm(mat, seed=seed)
    for run in (lambda: certify_even(single_zz(), 1, solver_seed=seed),
                lambda: certify_even(empty(4, 2), 1, solver_seed=seed),
                lambda: certify_odd(empty(5, 3), 2, 0.5, solver_seed=seed)):
        with pytest.raises(ValueError, match=f"got {seed}"):
            run()
    assert spectral_norm(large, seed=2**128 - 1) == spectral_norm(large, seed=2**128 - 1)


def test_certify_even_rejects_odd_k():
    inst = generate(GeneratorConfig(n=5, k=3, m=4, model="random", seed=0))
    with pytest.raises(ValueError):
        certify_even(inst, 2)


def test_certify_odd_single_constraint():
    inst = generate(GeneratorConfig(n=4, k=3, m=1, model="random", seed=3))
    cert = certify_odd(inst, ell=2, eps=0.5)
    # singleton slice: algval = 1/2 + sqrt(constant term)/k = 1/2 + sqrt(k^2)/k
    assert abs(cert.algval - 1.5) < 1e-12
    assert cert.algval >= lambda_max(assemble(inst)) - 1e-9


def test_certify_odd_soundness_sweep():
    models = ["rademacher-semirandom", "gaussian-semirandom", "random"]
    for seed in range(18):
        inst = generate(GeneratorConfig(n=5, k=3, m=7, model=models[seed % 3], seed=seed))
        cert = certify_odd(inst, ell=2, eps=0.8)
        assert cert.algval >= lambda_max(assemble(inst)) - 1e-9, f"seed {seed}"


def test_certify_odd_two_large_components_at_benchmark_scale(monkeypatch):
    # the odd-slice benchmark's graph: its signed matrix stores 1,792 cancelled
    # zeros, and its two components above DENSE_DIM are solved one at a
    # time; algval recorded when both shared one ARPACK call
    words = tuple(w for w, _ in instance_rows(generate(GeneratorConfig(n=12, k=3, m=60, seed=0))))
    inst = generate(GeneratorConfig(n=12, k=3, m=60, model="rademacher-semirandom", seed=1,
                                    words=words))
    applications = []
    sizes = counting_eigsh(monkeypatch, applications=applications)
    cert = certify_odd(inst, 3, 0.8)
    assert sizes == [4944, 5694]
    # "LM" on M took 181 + 261 applications of M; "LA" on M M takes 111 + 131 of M M
    assert sum(applications) <= 330, applications
    assert (cert.num_vertices, cert.num_edges) == (54648, 37120)
    assert abs(cert.algval - 1.3394618017977042) <= 1e-12 * 1.3394618017977042


def test_scaled_matches_diagonal_products_on_the_stored_pattern():
    rng = np.random.default_rng(31)
    mat = random_block(rng, 40)
    mat.data[::7] = 0.0  # cancelled entries, as signed_matrix may store them
    gamma = rng.uniform(0.5, 3.0, 40)
    inv = sp.diags(1.0 / np.sqrt(gamma))
    expected = (inv @ mat @ inv).tocsr()
    got = certify_module._scaled(mat, gamma)
    # the stored zeros stay stored: spectral_norm forms components on nonzero entries
    assert np.array_equal(got.indptr, mat.indptr) and np.array_equal(got.indices, mat.indices)
    got.eliminate_zeros()
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(expected, attr))


def path_with_stored_zeros(size: int) -> sp.csr_matrix:
    """The pattern of the size-vertex path, every entry a stored 0.0."""
    ends = np.arange(size - 1)
    rows, cols = np.concatenate((ends, ends + 1)), np.concatenate((ends + 1, ends))
    return sp.csr_matrix((np.zeros(len(rows)), (rows, cols)), shape=(size, size))


def test_spectral_norm_of_stored_zeros_is_zero(monkeypatch):
    # 138 stored zeros once went to ARPACK as one 70-vertex component and raised
    mat = path_with_stored_zeros(70)
    assert mat.nnz == 138
    sizes = counting_eigsh(monkeypatch)
    assert spectral_norm(mat) == (0.0, 0.0)
    assert sizes == [] and mat.nnz == 138  # the caller's zeros stay stored


def test_spectral_norm_a_stored_zero_joins_no_components(monkeypatch):
    # two 40-vertex blocks joined by a stored zero once went to ARPACK as one
    # 80-vertex component; the dense blocks give the same bits without the zero
    rng = np.random.default_rng(37)
    apart = sp.block_diag([random_block(rng, 40), random_block(rng, 40, 3.0)], format="csr")
    coo = apart.tocoo()
    joined = sp.csr_matrix((np.append(coo.data, (0.0, 0.0)),
                            (np.append(coo.row, (39, 40)), np.append(coo.col, (40, 39)))),
                           shape=apart.shape)
    assert joined.nnz == apart.nnz + 2 and (joined != apart).nnz == 0
    sizes = counting_eigsh(monkeypatch)
    sigma, residual = spectral_norm(joined, tol=1e-9)
    assert (sigma, residual) == spectral_norm(apart, tol=1e-9)
    assert sizes == []
    assert abs(sigma - dense_norm(apart)) < 1e-10


def test_spectral_norm_runs_in_double_precision():
    # a float32 path's squared Ritz step once ran in float32 and missed its
    # tolerance budget with residual 3.0e-6
    path = np.eye(100, k=1, dtype=int) + np.eye(100, k=-1, dtype=int)
    top = 2 * math.cos(math.pi / 101)
    for dtype in (np.float32, np.int8, np.int64, float):
        for mat in (path.astype(dtype), sp.csr_matrix(path.astype(dtype))):
            assert abs(spectral_norm(mat)[0] - top) <= 1e-12, dtype


def test_certify_odd_skipped_types_stay_sound():
    # residual pair (YY, ZZ) places no edges; the penalty term keeps soundness
    inst = explicit_instance(3, 3, ["X1 Y2 Y3", "X1 Z2 Z3"])
    cert = certify_odd(inst, ell=2, eps=1.0)
    assert cert.per_t[0].num_skipped == 2
    assert cert.algval >= lambda_max(assemble(inst)) - 1e-9


# (algval, ((per_t.algval, per_t.norm), ...)) of each golden case as "LM" on M gave
# them; the squared solve moves last digits, so the sha256 pins the current bits
ODD_GOLDEN_VALUES = [
    (2.483791228068338, ((25.7356209185242, 0.5812157657435907), (0.7714897853185596, 0.0))),
    (1.290569415042095, ((5.625, 0.0),)),
    (1.4847427414510033, ((15.515492269447, 0.9935602575896966),)),
    (1.365906380077654, ((6.748144731532682, 0.0),)),
    (1.4338037355038913, ((7.847904747969192, 0.8372354925224404),)),
    (1.5106750095854418, ((9.193175775004795, 0.9120400370669571),)),
    (1.4546644524164818, ((8.202457950368949, 0.8953279584065373),)),
]
# the relative distance the golden values may move when the eigensolver changes
ODD_GOLDEN_RTOL = 1e-12


def test_odd_report_lines_golden(monkeypatch):
    # recorded from the certify_odd that kept one branch per slice kind and running
    # totals; its values stay within ODD_GOLDEN_RTOL of ODD_GOLDEN_VALUES
    hub = [f"X1 Y2 {'XYZ'[i % 3]}{3 + i // 3 % 4}" for i in range(36)] + ["Z3 X4 Y5", "Y4 Y5 Y6"]
    cases = [  # (instance, ell, eps, eta or None for eta_bound)
        (explicit_instance(6, 3, hub, [(-1) ** i * (1 + i / 8) for i in range(38)]), 2, 1.0, None),
        (explicit_instance(3, 3, ["X1 Y2 Y3", "X1 Z2 Z3"]), 2, 1.0, None),
        (explicit_instance(5, 4, ["X1 Y2 Y3 Y4", "X1 Z2 Z3 Z5", "X1 X2 Y3 Z4"], [1.0, -0.5, 2.0]),
         3, 1.0, None),
        (generate(GeneratorConfig(n=6, k=3, m=12, model="gaussian-semirandom", seed=2001)),
         2, 1.0, 2),
        (generate(GeneratorConfig(n=6, k=3, m=16, model="random", seed=3)), 3, 1.0, 2),
        (generate(GeneratorConfig(n=6, k=3, m=16, model="gaussian-semirandom", seed=1)),
         3, 1.0, 1),
        (generate(GeneratorConfig(n=7, k=3, m=20, model="rademacher-semirandom", seed=11)),
         2, 0.8, None),
    ]
    certify_module = importlib.import_module("hkxor.certify")
    eta_bound = certify_module.eta_bound
    lines, slices, warnings, values = [], [], [], []
    for inst, ell, eps, eta in cases:
        monkeypatch.setattr(certify_module, "eta_bound",
                            eta_bound if eta is None else lambda k, eps, eta=eta: eta)
        cert = certify_odd(inst, ell, eps)
        lines += [line for line in cert.report_lines() if not line.startswith("wall_time_s=")]
        slices += cert.per_t
        values.append((cert.algval, tuple((s.algval, s.norm) for s in cert.per_t)))
        warnings += cert.warnings
    # a slice without pairs, one whose types all placed or kept no edge, one pruned
    # with gamma > 0 that keeps edges, and a pair weight rho > 1
    assert any(s.num_vertices == 0 for s in slices)
    assert any(s.num_vertices and not s.num_edges for s in slices)
    assert any(0 < s.gamma < 1 and s.num_edges for s in slices)
    assert any("rho=1.500" in w for w in warnings)
    assert len(values) == len(ODD_GOLDEN_VALUES)
    for (algval, per_t), (old, old_per_t) in zip(values, ODD_GOLDEN_VALUES):
        np.testing.assert_allclose((algval, *np.ravel(per_t)), (old, *np.ravel(old_per_t)),
                                   rtol=ODD_GOLDEN_RTOL, atol=0)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "0703525303f4cf4edabf6e6dde030ada120224d719aae24c2a79c1d671bc7642")


def test_certify_odd_checks_free_sites_before_any_graph(monkeypatch):
    # 2n - 2(k-t) free sites must hold ell - (k-t) slots on every non-empty slice,
    # with or without a constraint pair; at n=4, k=3, t=1 that is ell <= 6
    certify_module = importlib.import_module("hkxor.certify")
    build_odd = certify_module.build_odd
    monkeypatch.setattr(certify_module, "build_odd", lambda *a: pytest.fail("graph built"))
    for words in (["Z1 Z2 Z3"], ["Z1 Z2 Z3", "Z1 Z2 Z4"]):
        with pytest.raises(ValueError, match="not enough free sites for the level"):
            certify_odd(explicit_instance(4, 3, words, [1.0, -1.0][:len(words)]), 7, 0.5)
    assert certify_odd(explicit_instance(4, 3, ["Z1 Z2 Z3"]), 6, 0.5).algval == 1.5
    # a slice without a pair is not held to ell >= k - t: k=5, ell=3 < k - t = 4
    assert certify_odd(explicit_instance(5, 5, ["Z1 Z2 Z3 Z4 Z5"]), 3, 0.5).ell == 3
    monkeypatch.setattr(certify_module, "build_odd", build_odd)
    assert certify_odd(explicit_instance(4, 3, ["Z1 Z2 Z3", "Z1 Z2 Z4"], [1.0, -1.0]), 6,
                       0.5).ell == 6


def test_certify_dispatch():
    even = generate(GeneratorConfig(n=4, k=2, m=4, model="random", seed=1))
    odd = generate(GeneratorConfig(n=4, k=3, m=4, model="random", seed=1))
    assert certify(even, 1).branch == "even"
    assert certify(odd, 2, eps=0.5).branch == "odd"
    # k's parity alone picks the branch: there is no option to force one
    with pytest.raises(TypeError, match="branch"):
        certify(odd, 2, branch="even")


def test_certificate_determinism():
    inst = generate(GeneratorConfig(n=6, k=2, m=30, model="rademacher-semirandom", seed=9))
    c1 = certify_even(inst, 2, solver_seed=4)
    c2 = certify_even(inst, 2, solver_seed=4)
    assert c1.algval == c2.algval and c1.norm == c2.norm


def test_trace_moment_r1():
    inst = generate(GeneratorConfig(n=5, k=2, m=6, model="rademacher-semirandom", seed=2))
    g = build_even(inst, 2)
    gamma = regularize(g)
    value, root = trace_moment(g, 1)
    expected = sum(w * w / (gamma[q] * gamma[r])
                   for q, r, w in zip(g.rows, g.cols, g.weights[g.tids]))
    assert abs(value - expected) < 1e-9 * max(1.0, expected)
    assert abs(root - value**0.5) < 1e-12


def test_trace_moment_root_dominates_norm():
    for seed in range(10):
        inst = generate(GeneratorConfig(n=5, k=2, m=8, model="rademacher-semirandom", seed=seed))
        g = build_even(inst, 2)
        inv = sp.diags(1.0 / np.sqrt(regularize(g)))
        sigma, _ = spectral_norm(inv @ g.signed_matrix() @ inv, tol=1e-8)
        for r in (1, 2, 3):
            _, root = trace_moment(g, r)
            assert root >= sigma - 1e-8


def test_trace_moment_validates_r():
    inst = generate(GeneratorConfig(n=4, k=2, m=3, model="random", seed=0))
    g = build_even(inst, 1)
    with pytest.raises(ValueError):
        trace_moment(g, 0)


def test_report_lines_stable_keys():
    inst = generate(GeneratorConfig(n=4, k=3, m=4, model="random", seed=5))
    cert = certify_odd(inst, ell=2, eps=0.7)
    lines = cert.report_lines()
    keys = {line.split("=", 1)[0] for line in lines}
    assert {"algval", "branch", "ell", "eps", "digest", "solver.tol"} <= keys
    assert any(key.startswith("per_t.1.") for key in keys)


def test_certify_odd_monotone_trend_small():
    # median algval decreases with density on a desk-scale odd ensemble
    import statistics

    medians = []
    for m in (120, 240, 480):
        vals = [certify_odd(generate(GeneratorConfig(n=12, k=3, m=m,
                                                     model="rademacher-semirandom",
                                                     seed=300 + s)),
                            ell=2, eps=0.5).algval
                for s in range(6)]
        medians.append(statistics.median(vals))
    assert medians[0] > medians[1] > medians[2]


def test_even_graph_dump_format():
    from hkxor.kikuchi_even import dump_graph

    g = build_even(single_zz(), 1)
    lines = dump_graph(g).splitlines()
    assert lines[0] == "KIKUCHI v1 2 2 1 6 2"
    assert len(lines) == 3 and all(len(ln.split()) == 4 for ln in lines[1:])


def test_eta_bound_past_float_range_names_eps():
    assert eta_bound(3, 0.5) == 8 * 27 * 27 * 4
    for eps in (1e-155, 1e-170):  # the cap overflows to inf, and eps^2 underflows to zero
        with pytest.raises(ValueError, match=f"is not a finite float at eps={eps!r}$"):
            eta_bound(3, eps)


@pytest.mark.parametrize("k,ell", [(2, 1), (3, 2), (4, 2), (5, 4)])
def test_certify_reads_only_the_instance_columns(k, ell):
    # neither branch builds the per-row word view (Instance.constraints, cached on first read)
    inst = generate(GeneratorConfig(n=8, k=k, m=40, model="gaussian-semirandom", seed=k))
    certify(inst, ell, eps=0.8)
    assert "constraints" not in vars(inst)


def test_every_size_limit_raises_the_guard_type(monkeypatch):
    # each documented size limit is a ResourceGuardError (a MemoryError, so the CLI
    # exits 4) with its own message; a plain MemoryError is an allocation failure
    even = generate(GeneratorConfig(n=6, k=2, m=10, seed=1))
    odd = generate(GeneratorConfig(n=7, k=3, m=12, seed=2))
    dec = regularity_decompose(odd, 2, 0.8)
    z = generate(GeneratorConfig(n=5, k=2, m=4, model="one-basis-z", seed=3))
    pe = sos.PseudoExpectation(n=5, degree=2, values={})
    leaves = 20  # a star: 40 stored entries, and its square 1 + 20^2
    star = sp.csr_matrix((np.ones(2 * leaves), (np.r_[np.zeros(leaves, int), 1:leaves + 1],
                                                 np.r_[1:leaves + 1, np.zeros(leaves, int)])))
    graph = type("Star", (), {"signed_matrix": lambda self: star})()
    monkeypatch.setattr(certify_module, "regularize", lambda graph: np.ones(leaves + 1))
    monkeypatch.setattr(kikuchi_even, "EDGE_BUDGET", -1.0)
    monkeypatch.setattr(kikuchi_odd, "EDGE_BUDGET", -1.0)
    monkeypatch.setattr(sos, "MAX_ENTROPY_WORDS", 2)
    monkeypatch.setattr(sos, "MOMENT_MATRIX_CAP", 1)
    guarded = (
        (lambda: build_even(even, 1), r"^2\.00e\+01 edges exceeds budget -1\.0e\+00$"),
        (lambda: build_odd(dec, odd, dec.nonempty_levels()[0], 2),
         r"edge candidates exceeds budget -1\.0e\+00$"),
        (lambda: sos.max_entropy_build(z, 2), "^max-entropy closure exceeds 2 words$"),
        (lambda: sos.moment_matrix(pe, 2), r"^moment matrix would have 16 rows \(cap 1\)$"),
    )
    for call, message in guarded:
        with pytest.raises(ResourceGuardError, match=message):
            call()
    for budget in (100, 200):  # 2 r nnz = 160: the first check, then the squared star's
        monkeypatch.setattr(certify_module, "TRACE_BUDGET_NNZ", budget)
        with pytest.raises(ResourceGuardError, match="^trace moment exceeds the configured"):
            trace_moment(graph, 2)


def test_both_branches_take_the_norm_step_through_the_module_globals(monkeypatch):
    # the tracer wraps regularize, _scaled and spectral_norm where the certify module
    # looks them up, so the shared norm step must resolve them there on every call
    calls = []
    for name in ("regularize", "_scaled", "spectral_norm"):
        def wrapper(*args, _real=getattr(certify_module, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(certify_module, name, wrapper)
    even = generate(GeneratorConfig(n=6, k=2, m=10, seed=1))
    odd = generate(GeneratorConfig(n=7, k=3, m=12, seed=2))
    for run in (lambda: certify_even(even, 1), lambda: certify_odd(odd, 2, 0.8)):
        cert = run()
        graphs = sum(part.num_edges > 0 for part in cert.per_t or [cert])
        assert graphs and calls == ["regularize", "_scaled", "spectral_norm"] * graphs
        calls.clear()
