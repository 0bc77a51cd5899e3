"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every expected value is either computed by an independent oracle inside this
file (exhaustive pair scans, dense eigensolves, brute-force enumeration) or
pinned to its stated tolerance.
"""

import math
import random
from fractions import Fraction

import numpy as np

from hkxor.certify import certify, eta_bound, trace_moment
from hkxor.instances import GeneratorConfig, generate, threshold_size
from hkxor.kikuchi_even import build_even, build_level_n, delta_count, level_n_hatted, regularize
from hkxor.kikuchi_odd import (
    build_odd,
    delta_count_odd,
    edge_delete,
    max_local_degree,
    regularity_decompose,
    rho_counts,
)
from hkxor.oracle import assemble, classical_max, lambda_max, quadratic_form_check
from hkxor.pauli import PauliOp, PhasedPauli, SliceIndex, commutes, enumerate_slice, multiply, mul_words
from hkxor.sos import (
    Contradiction,
    ExactComplex,
    MomentOracle,
    PseudoExpectation,
    boundary_expansion_check,
    classical_energy,
    lift_classical,
    max_entropy_build,
    obstruction_polynomial,
    obstruction_pseudo_expectation,
    positivity_check,
)


def verdict(criterion: str, passed: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"{criterion}: {detail}"


MODELS = ["rademacher-semirandom", "gaussian-semirandom", "random", "one-basis-z"]


def soundness_cases(count=200):
    cases = []
    seed = 0
    while len(cases) < count:
        for k in (2, 3, 4):
            for n in range(max(k, 4), 9):
                for ell in range(math.ceil(k / 2), min(3, n // 2) + 1):
                    if len(cases) >= count:
                        return cases
                    model = MODELS[len(cases) % 4]
                    m = 5 + (len(cases) * 7) % 36
                    cases.append((n, k, ell, model, m, seed))
                    seed += 1
    return cases


def test_criterion_1_soundness_sweep():
    """certify >= dense lambda_max - 1e-9 on 200 mixed instances."""
    worst = float("inf")
    for n, k, ell, model, m, seed in soundness_cases(200):
        inst = generate(GeneratorConfig(n=n, k=k, m=m, model=model, seed=seed))
        cert = certify(inst, ell, eps=0.8)
        lam = lambda_max(assemble(inst))
        worst = min(worst, cert.algval - lam)
        assert cert.algval >= lam - 1e-9, (n, k, ell, model, m, seed)
    verdict("1 soundness-sweep", True, f"200/200, min slack {worst:.3e}")


def haar_product_state(rng, n):
    psi = np.array([1.0], dtype=complex)
    for _ in range(n):
        q = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        q /= np.linalg.norm(q)
        psi = np.kron(q, psi)
    return psi


def test_criterion_2_quadratic_form_identity():
    """Relative error <= 1e-9 on 100 random (instance, state) pairs, even k."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(100):
        k = 2 if trial % 2 == 0 else 4
        n = 4 + trial % 5
        ell = k // 2 + trial % (min(3, n // 2) - k // 2 + 1)
        model = MODELS[trial % 4]
        inst = generate(GeneratorConfig(n=n, k=k, m=4 + trial % 20, model=model, seed=trial))
        graph = build_even(inst, ell)
        if trial % 3 == 0:
            psi = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
            psi /= np.linalg.norm(psi)
        else:
            psi = haar_product_state(rng, n)
        err = quadratic_form_check(inst, ell, psi, graph)
        worst = max(worst, err)
        assert err <= 1e-9, (trial, err)
    verdict("2 quadratic-form-identity", True, f"100/100, max rel err {worst:.2e}")


def even_scan_count(word, n, ell):
    """Independent ordered-pair count: for each Q the partner is forced to be Q*word."""
    target = ell - word.weight() // 2
    count = 0
    for q in enumerate_slice(n, ell):
        prod = mul_words(q, word)
        r = prod.op
        if r.weight() != ell:
            continue
        if (q.support_mask & r.support_mask).bit_count() != target:
            continue
        check = mul_words(q, r)
        if check.op == word and check.phase_exp == 0:
            count += 1
    return count


def odd_scan_counts(p, q, ell):
    """Exhaustive (commuting, anticommuting) pair counts for residuals p, q."""
    n = p.n
    kk = p.weight()
    lo, hi = kk // 2, (kk + 1) // 2
    splits = {(lo, hi), (hi, lo)}
    idx = SliceIndex(2 * n, ell)
    low = (1 << n) - 1
    target = mul_words(p, q)
    nc = na = 0
    for vi in range(idx.size):
        v = idx.unrank(vi)
        q1 = PauliOp(n, v.xmask & low, v.zmask & low)
        q2 = PauliOp(n, v.xmask >> n, v.zmask >> n)
        prod1, prod2 = mul_words(q1, p), mul_words(q2, q)
        if prod1.phase_exp or prod2.phase_exp:
            continue
        r1, r2 = prod1.op, prod2.op
        if r1.weight() + r2.weight() != ell:
            continue
        if q1.support_mask & r1.support_mask & p.support_mask:
            continue
        if q2.support_mask & r2.support_mask & q.support_mask:
            continue
        s1 = (q1.support_mask & p.support_mask).bit_count()
        s2 = (q2.support_mask & q.support_mask).bit_count()
        if (s1, s2) not in splits:
            continue
        full = multiply(multiply(PhasedPauli(q2), PhasedPauli(q1)),
                        multiply(PhasedPauli(r1), PhasedPauli(r2)))
        if full.phase_exp == target.phase_exp:
            nc += 1
        else:
            na += 1
    return nc, na


def residual_shapes(rng, kk, n):
    """Representative residual pairs: disjoint, identical, and overlapping."""
    shapes = []
    letters = lambda size: "".join(rng.choice("XYZ") for _ in range(size))
    base_sites = tuple(range(kk))
    base = PauliOp.from_letters(n, base_sites, letters(kk)) if kk else PauliOp.identity(n)
    if 2 * kk <= n:
        other_sites = tuple(range(kk, 2 * kk))
        shapes.append((base, PauliOp.from_letters(n, other_sites, letters(kk))
                       if kk else PauliOp.identity(n)))
    shapes.append((base, base))
    if kk >= 1 and kk + 1 <= n:
        overlap_sites = tuple(range(1, kk + 1))
        shapes.append((base, PauliOp.from_letters(n, overlap_sites, letters(kk))))
    return shapes


def test_criterion_3_counting_formulas():
    """Delta and Delta^(t) match exhaustive enumeration; rho in [1/2, 1]."""
    rng = random.Random(99)
    even_checked = 0
    for k in (2, 4):
        for ell in range(k // 2, 4):
            for n in range(max(2 * ell, k), 9):
                sites = tuple(sorted(rng.sample(range(n), k)))
                word = PauliOp.from_letters(n, sites, "".join(rng.choice("XYZ") for _ in range(k)))
                assert even_scan_count(word, n, ell) == delta_count(n, k, ell), (n, k, ell)
                even_checked += 1

    # Delta^(t) depends on (k, t) only through k - t; cover every residual
    # weight arising from k <= 4, t <= k, checking the exact formula per shape
    odd_checked = 0
    rho_checked = 0
    for kk in (0, 1, 2, 3):
        arities = [(k, k - kk) for k in (2, 3, 4) if 1 <= k - kk <= k]
        if not arities:
            continue
        for ell in range(max(kk, 1), 4):
            for n in range(max(2 * kk, kk + 1, 2), 9, 2):
                for p, q in residual_shapes(rng, kk, n):
                    nc, na = odd_scan_counts(p, q, ell)
                    assert (nc, na) == rho_counts(p, q, ell), (kk, ell, n)
                    for k, t in arities:
                        assert Fraction(nc + na, 2) == delta_count_odd(n, k, t, ell)
                    odd_checked += 1

    # rho range over every pair the odd pipeline encounters (k = 3 dispatch):
    # all residual isomorphism shapes at k - t <= 2, plus 30 built graphs
    for kk in (0, 1, 2):
        for ell in range(max(kk, 1), 4):
            for e in range(kk + 1):
                for d in range(kk - e + 1):
                    sites = tuple(range(kk))
                    lp = ["X"] * kk
                    lq = ["X"] * e + ["Y"] * d + ["Z"] * 0
                    p = PauliOp.from_letters(8, sites, "".join(lp)) if kk else PauliOp.identity(8)
                    q_sites = tuple(range(e + d)) + tuple(range(kk, 2 * kk - e - d))
                    lq += ["X"] * (kk - e - d)
                    q = (PauliOp.from_letters(8, q_sites, "".join(lq))
                         if kk else PauliOp.identity(8))
                    nc, na = rho_counts(p, q, ell)
                    if nc:
                        rho = Fraction(nc + na, 2 * nc)
                        assert Fraction(1, 2) <= rho <= 1, (kk, ell, e, d, rho)
                        rho_checked += 1
    for seed in range(30):
        inst = generate(GeneratorConfig(n=6, k=3, m=10, model="random", seed=1000 + seed))
        dec = regularity_decompose(inst, 2, 0.8)
        g = build_odd(dec, inst, 1, 2)
        for count in g.type_counts().tolist():  # |commuting|, and rho = Delta_t / |commuting|
            assert Fraction(1, 2) <= Fraction(g.delta) / count <= 1
            rho_checked += 1

    verdict("3 counting-formulas", True,
            f"{even_checked} even + {odd_checked} odd scans, {rho_checked} rho values in range")


def test_criterion_4_refutation_trend():
    """k=2 trend at n=60: >= 90% success at the threshold, medians non-increasing."""
    n, k, ell, eps = 60, 2, 1, 0.5
    m_thr = threshold_size(n, k, ell, eps)
    assert m_thr == 3931
    grid = [m_thr // 4, m_thr // 2, m_thr, 2 * m_thr]
    medians = []
    success_at_threshold = 0
    for m in grid:
        algvals = []
        for seed in range(20):
            inst = generate(GeneratorConfig(n=n, k=k, m=m,
                                            model="rademacher-semirandom",
                                            seed=10_000 + 97 * m + seed))
            algvals.append(certify(inst, ell).algval)
        medians.append(sorted(algvals)[len(algvals) // 2])
        if m == m_thr:
            success_at_threshold = sum(a <= 0.5 + eps for a in algvals)
    ok = success_at_threshold >= 18 and all(medians[i + 1] <= medians[i] + 1e-12
                                            for i in range(len(medians) - 1))
    verdict("4 refutation-trend", ok,
            f"success {success_at_threshold}/20 at m={m_thr}, medians {['%.4f' % v for v in medians]}")


def test_criterion_5_concentration():
    """Dense lambda_max <= 1/2 + eps in >= 95/100 semirandom seeds."""
    n, eps = 8, 0.4
    m = math.ceil(2 * (n + 1) * eps**-2 * math.log(100))
    assert m == 519
    good = 0
    for seed in range(100):
        inst = generate(GeneratorConfig(n=n, k=3, m=m, model="rademacher-semirandom",
                                        seed=seed))
        if lambda_max(assemble(inst)) <= 0.5 + eps:
            good += 1
    verdict("5 concentration", good >= 95, f"{good}/100 under 1/2 + {eps} at m={m}")


def test_criterion_6_lifting():
    """Classical value = dense lambda_max; lifted pE value = classical pE value; PSD."""
    rng = np.random.default_rng(6)
    for trial in range(50):
        n = 6 + trial % 5
        m = 8 + trial % 10
        inst = generate(GeneratorConfig(n=n, k=3, m=m, model="one-basis-z", seed=trial))
        best, _ = classical_max(inst.sites.tolist(), inst.coeffs.tolist(), n)
        lam = lambda_max(assemble(inst))
        assert abs(best - lam) <= 1e-10, trial
        assignments = [tuple(int(v) for v in rng.choice([-1, 1], n))
                       for _ in range(1 + trial % 3)]
        moments = MomentOracle.from_distribution(n, assignments)
        pe = lift_classical(inst, moments, 4)
        assert pe.energy(inst) == classical_energy(inst, moments)  # exact, within 1e-12
        min_eig, ok = positivity_check(pe, 4)
        assert ok, (trial, min_eig)
    verdict("6 lifting", True, "50/50 value equalities and PSD moment matrices")


def test_criterion_7_max_entropy():
    """30 expander instances build successfully; the triangle contradicts."""
    built = 0
    seed = 0
    while built < 30 and seed < 400:
        inst = generate(GeneratorConfig(n=16, k=3, m=4, model="one-basis-z", seed=seed))
        seed += 1
        report = boundary_expansion_check(inst.sites.tolist(), beta=1.5, d=4)
        if not report.passed:
            continue
        pe = max_entropy_build(inst, 3)  # beta * d0 / 2 = 3 >= degree
        assert isinstance(pe, PseudoExpectation), seed
        assert pe.energy(inst) == ExactComplex.of(1)
        min_eig, ok = positivity_check(pe, 3)
        assert ok and min_eig >= -1e-8, (seed, min_eig)
        built += 1
    assert built == 30

    tri = generate(GeneratorConfig(n=3, k=2, m=3, model="one-basis-z", seed=0,
                                   hypergraph=((0, 1), (1, 2), (0, 2)),
                                   coeffs=(1.0, 1.0, -1.0)))
    result = max_entropy_build(tri, 4)
    assert isinstance(result, Contradiction)
    # telescoping the combined derivation yields Identity with value -1
    assert result.value_a * result.value_b.conjugate() == ExactComplex.of(-1)
    acc = 0
    for cid in result.combined_axioms:
        acc ^= sum(1 << i for i in tri.constraints[cid].support)
    assert acc == 0
    verdict("7 max-entropy", True, "30/30 expander builds, triangle contradiction confirmed")


def test_criterion_8_anticommutation_obstruction():
    """pE[(H^dag H)] = -1/9 exactly for H = (-P + Q + PQ)/3."""
    rng = random.Random(8)
    cases = 0
    while cases < 12:
        n = rng.randrange(1, 5)
        sp = tuple(sorted(rng.sample(range(n), rng.randrange(1, n + 1))))
        sq = tuple(sorted(rng.sample(range(n), rng.randrange(1, n + 1))))
        p = PauliOp.from_letters(n, sp, "".join(rng.choice("XYZ") for _ in sp))
        q = PauliOp.from_letters(n, sq, "".join(rng.choice("XYZ") for _ in sq))
        if commutes(p, q):
            continue
        pe = obstruction_pseudo_expectation(p, q)
        value = pe.evaluate(obstruction_polynomial(p, q).gram_square())
        assert value == ExactComplex.of(Fraction(-1, 9))
        cases += 1
    verdict("8 anticommutation-obstruction", True, f"exact -1/9 in {cases}/{cases} cases")


def test_criterion_9_level_n_spectrum_equality():
    """lambda_max of the full-group graph, its tensored form, and the hatted operator agree."""
    rng = np.random.default_rng(9)
    worst = 0.0
    for trial in range(10):
        n = 1 + trial % 3
        words = list(enumerate_slice(n, 1)) + list(enumerate_slice(n, min(2, n)))
        chosen = rng.choice(len(words), size=min(len(words), 4 + trial % 3), replace=False)
        terms = [(words[i], float(rng.standard_normal())) for i in chosen]
        g = build_level_n(terms, n=n)
        dense = g.signed_matrix().toarray()
        lam_graph = float(np.linalg.eigvalsh(dense)[-1])
        lam_tensored = float(np.linalg.eigvalsh(np.kron(dense, np.eye(1 << n)))[-1])
        lam_hatted = float(np.linalg.eigvalsh(level_n_hatted(g))[-1])
        spread = max(abs(lam_graph - lam_tensored), abs(lam_graph - lam_hatted),
                     abs(lam_tensored - lam_hatted))
        worst = max(worst, spread)
        assert spread <= 1e-9, trial
    verdict("9 level-n-spectrum", True, f"10/10 pairwise within 1e-9 (max spread {worst:.2e})")


def test_criterion_10_trace_moment_bound():
    """Mean Tr((Gamma^{-1} A*)^{2r}) over 100 seeds under 8^{2r} N (2r/d)^r."""
    n, k, ell, m = 10, 2, 1, 60
    sums = {1: 0.0, 2: 0.0, 3: 0.0}
    d_avg = None
    count = 100
    for seed in range(count):
        inst = generate(GeneratorConfig(n=n, k=k, m=m, model="rademacher-semirandom",
                                        seed=seed))
        g = build_even(inst, ell)
        reg = regularize(g)
        d_avg = g.average_degree
        for r in sums:
            sums[r] += trace_moment(g, reg, r)[0]
    size = 3 * n
    details = []
    for r, total in sums.items():
        mean = total / count
        bound = 8 ** (2 * r) * size * (2 * r / d_avg) ** r
        assert mean <= bound, (r, mean, bound)
        details.append(f"r={r}: {mean:.3g} <= {bound:.3g}")
    verdict("10 trace-moment", True, "; ".join(details))


def test_criterion_11_edge_deletion():
    """30 decomposition-compliant odd instances: bounded, equalized, gamma logged."""
    eps = 1.0
    eta = eta_bound(3, eps)
    warn = []
    for seed in range(30):
        inst = generate(GeneratorConfig(n=6, k=3, m=12, model="random", seed=2000 + seed))
        dec = regularity_decompose(inst, 2, eps)
        g = build_odd(dec, inst, 1, 2)
        for cap in (eta, 2):
            pruned, gamma = edge_delete(g, cap)
            assert max_local_degree(pruned) <= cap, seed
            mat = pruned.signed_matrix()
            assert abs(mat - mat.T).max() == 0.0
            for n0, n1 in zip(g.type_counts().tolist(), pruned.type_counts().tolist()):
                if n0:
                    assert (n0 - n1) / n0 >= gamma - 2.5 / n0, seed
            if cap == eta and gamma > 0.5:
                warn.append((seed, gamma))
    detail = f"30/30 bounded+equalized at eta={eta} (and stress eta=2)"
    if warn:
        detail += f"; WARN gamma>1/2 on {len(warn)} instances"
    verdict("11 edge-deletion", True, detail)
