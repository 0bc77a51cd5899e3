"""Spectral norms and certificate soundness at oracle scale."""

import hashlib
import importlib
import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hkxor.certify import (
    SMALL_COMPONENT,
    SpectralNormError,
    certify,
    certify_even,
    certify_odd,
    spectral_norm,
    trace_moment,
)
from hkxor.instances import GeneratorConfig, generate, parse
from hkxor.kikuchi_even import build_even, regularize
from hkxor.oracle import assemble, lambda_max

from helpers import explicit_instance, single_zz


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
    SMALL_COMPONENT, and a small block next to its negation."""
    tie = random_block(rng, 5, small_scale)
    blocks = [sp.csr_matrix((3, 3)),
              sp.diags([0.3, -0.7]),
              random_block(rng, 2, small_scale),
              random_block(rng, 17, small_scale),
              tie, -tie,
              random_block(rng, SMALL_COMPONENT, small_scale),
              random_block(rng, SMALL_COMPONENT + 1, large_scale),
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


def counting_eigsh(monkeypatch, fail_on=None):
    """Record the size of every eigsh call; call number fail_on does not converge."""
    sizes = []
    real = spla.eigsh

    def wrapper(sub, **kwargs):
        sizes.append(sub.shape[0])
        if len(sizes) == fail_on:
            raise spla.ArpackNoConvergence("no convergence", np.array([]),
                                           np.ones((sub.shape[0], 0)))
        return real(sub, **kwargs)

    monkeypatch.setattr(certify_module.spla, "eigsh", wrapper)
    return sizes


def test_spectral_norm_one_eigsh_per_large_component(monkeypatch):
    rng = np.random.default_rng(19)
    mat = permuted(sp.block_diag([mixed_blocks(rng, 1.0, 1.0), random_block(rng, 90)],
                                 format="csr"), rng)
    sizes = counting_eigsh(monkeypatch)
    sigma, _ = spectral_norm(mat, tol=1e-9)
    assert sizes == [SMALL_COMPONENT + 1, 90, 150]
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


def test_spectral_norm_matches_dense_on_kikuchi():
    g = build_even(single_zz(), 1)
    reg = regularize(g)
    inv = np.diag(1.0 / np.sqrt(reg.gamma))
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


def test_certify_rejects_an_unknown_branch():
    with pytest.raises(ValueError, match="unknown branch 'both'"):
        certify(single_zz(), 1, branch="both")


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
    for inst, branch in ((single_zz(), "auto"), (single_zz(), "even"), (odd, "auto"),
                         (odd, "odd"), (empty(4, 2), "auto"),
                         (empty(5, 3), "auto")):
        with pytest.raises(ValueError, match=f"need 0 < eps <= 1, got {eps}"):
            certify(inst, 1 if inst.k == 2 else 2, eps=eps, branch=branch)


@pytest.mark.parametrize("seed", (-1, 2**128, -(2**70)))
def test_solver_seed_outside_the_philox_key_range_is_refused(seed):
    rng = np.random.default_rng(5)
    small = random_block(rng, 8)  # solved by dense eigvalsh alone
    large = random_block(rng, SMALL_COMPONENT + 10)  # solved by ARPACK
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
    # zeros, and its two components above SMALL_COMPONENT are solved one at a
    # time; algval recorded when both shared one ARPACK call
    words = tuple(c.pauli for c in generate(GeneratorConfig(n=12, k=3, m=60, seed=0)).constraints)
    inst = generate(GeneratorConfig(n=12, k=3, m=60, model="rademacher-semirandom", seed=1,
                                    words=words))
    sizes = counting_eigsh(monkeypatch)
    cert = certify_odd(inst, 3, 0.8)
    assert sizes == [4944, 5694]
    assert (cert.num_vertices, cert.num_edges) == (54648, 37120)
    assert abs(cert.algval - 1.3394618017977042) <= 1e-12 * 1.3394618017977042


def test_scaled_matches_diagonal_products_and_drops_stored_zeros():
    rng = np.random.default_rng(31)
    mat = random_block(rng, 40)
    mat.data[::7] = 0.0  # cancelled entries, as signed_matrix may store them
    gamma = rng.uniform(0.5, 3.0, 40)
    inv = sp.diags(1.0 / np.sqrt(gamma))
    expected = (inv @ mat @ inv).tocsr()
    got = certify_module._scaled(mat, gamma)
    assert not (got.data == 0).any()
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(expected, attr))


def test_certify_odd_skipped_types_stay_sound():
    # residual pair (YY, ZZ) places no edges; the penalty term keeps soundness
    inst = explicit_instance(3, 3, ["X1 Y2 Y3", "X1 Z2 Z3"])
    cert = certify_odd(inst, ell=2, eps=1.0)
    assert cert.per_t[0].num_skipped == 2
    assert cert.algval >= lambda_max(assemble(inst)) - 1e-9


def test_odd_report_lines_golden(monkeypatch):
    # recorded from the certify_odd that kept one branch per slice kind and running totals
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
    lines, slices, warnings = [], [], []
    for inst, ell, eps, eta in cases:
        monkeypatch.setattr(certify_module, "eta_bound",
                            eta_bound if eta is None else lambda k, eps, eta=eta: eta)
        cert = certify_odd(inst, ell, eps)
        lines += [line for line in cert.report_lines() if not line.startswith("wall_time_s=")]
        slices += cert.per_t
        warnings += cert.warnings
    # a slice without pairs, one whose types all placed or kept no edge, one pruned
    # with gamma > 0 that keeps edges, and a pair weight rho > 1
    assert any(s.num_vertices == 0 for s in slices)
    assert any(s.num_vertices and not s.num_edges for s in slices)
    assert any(0 < s.gamma < 1 and s.num_edges for s in slices)
    assert any("rho=1.500" in w for w in warnings)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "b9e6e89de566e1ad19e13f138bd79a1101359167a1e346dd9e51661f50f098ef")


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
    with pytest.raises(ValueError):
        certify(odd, 2, branch="even")
    # the odd path is permitted for even k
    assert certify(even, 1, eps=0.5, branch="odd").branch == "odd"


def test_certificate_determinism():
    inst = generate(GeneratorConfig(n=6, k=2, m=30, model="rademacher-semirandom", seed=9))
    c1 = certify_even(inst, 2, solver_seed=4)
    c2 = certify_even(inst, 2, solver_seed=4)
    assert c1.algval == c2.algval and c1.norm == c2.norm


def test_trace_moment_r1():
    inst = generate(GeneratorConfig(n=5, k=2, m=6, model="rademacher-semirandom", seed=2))
    g = build_even(inst, 2)
    reg = regularize(g)
    value, root = trace_moment(g, reg, 1)
    expected = sum(w * w / (reg.gamma[q] * reg.gamma[r])
                   for q, r, w in zip(g.rows, g.cols, g.weights[g.tids]))
    assert abs(value - expected) < 1e-9 * max(1.0, expected)
    assert abs(root - value**0.5) < 1e-12


def test_trace_moment_root_dominates_norm():
    for seed in range(10):
        inst = generate(GeneratorConfig(n=5, k=2, m=8, model="rademacher-semirandom", seed=seed))
        g = build_even(inst, 2)
        reg = regularize(g)
        inv = sp.diags(1.0 / np.sqrt(reg.gamma))
        sigma, _ = spectral_norm(inv @ g.signed_matrix() @ inv, tol=1e-8)
        for r in (1, 2, 3):
            _, root = trace_moment(g, reg, r)
            assert root >= sigma - 1e-8


def test_trace_moment_validates_r():
    inst = generate(GeneratorConfig(n=4, k=2, m=3, model="random", seed=0))
    g = build_even(inst, 1)
    with pytest.raises(ValueError):
        trace_moment(g, regularize(g), 0)


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
