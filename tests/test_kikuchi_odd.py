"""Odd-arity pipeline: decomposition guarantees, pair counts, deletion."""

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hkxor import kikuchi_odd
from hkxor.instances import GeneratorConfig, generate, parse
from hkxor.kikuchi_odd import (
    InfeasibleLevelError,
    build_odd,
    cs_operator,
    delta_count_odd,
    edge_delete,
    local_degrees,
    max_local_degree,
    regularity_check,
    regularity_decompose,
    residuals,
    rho_counts,
    rho_value,
    tau_threshold,
    tilde_word,
    type_edges,
    Bucket,
    BipartiteDecomposition,
)
from hkxor.oracle import apply_word
from hkxor.pauli import (PauliOp, PhasedPauli, SliceIndex, canonical_key, commutes, multiply,
                         mul_words, site_mask, words_to_arrays)

from helpers import explicit_instance, instance_rows


def components(v, n):
    low = (1 << n) - 1
    return (PauliOp(n, v.xmask & low, v.zmask & low),
            PauliOp(n, v.xmask >> n, v.zmask >> n))


def odd_pair_scan(p, q, ell):
    """Exhaustive classification of all vertex pairs against the edge conditions.

    For each vertex, condition 1 forces the partner components, so scanning
    every vertex covers every candidate ordered pair.
    """
    n = p.n
    kk = p.weight()
    lo, hi = kk // 2, (kk + 1) // 2
    splits = {(lo, hi), (hi, lo)}
    idx = SliceIndex(2 * n, ell)
    commuting, anticommuting = [], []
    target = mul_words(p, q)
    for vi in range(idx.size):
        v = idx.unrank(vi)
        q1, q2 = components(v, n)
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
        assert full.op == target.op
        ri = idx.rank(PauliOp(2 * n, r1.xmask | (r2.xmask << n), r1.zmask | (r2.zmask << n)))
        if full.phase_exp == target.phase_exp:
            commuting.append((vi, ri))
        else:
            assert (full.phase_exp - target.phase_exp) % 4 == 2
            anticommuting.append((vi, ri))
    return commuting, anticommuting


def test_tau_threshold():
    # k=3, t=3: exponent is negative so the max(1, .) floor applies
    assert tau_threshold(8, 3, 2, 0.5, 3) == math.ceil(36 / 0.25) == 144
    assert tau_threshold(8, 3, 2, 1.0, 3) == 36
    assert tau_threshold(8, 3, 2, 1.0, 1) == math.ceil(math.sqrt(12) * 36)
    for eps in (1e-155, 1e-170):  # overflows to inf, and eps^2 underflows to zero
        with pytest.raises(ValueError, match=f"is not a finite float at eps={eps!r}$"):
            tau_threshold(8, 3, 2, eps, 3)


def test_decompose_repeated_word_bucket():
    # one weight-3 word repeated past tau_3 lands in a t=3 bucket of exactly tau_3
    inst = explicit_instance(5, 3, ["X1 Y2 Z3"] * 40)
    dec = regularity_decompose(inst, ell=2, eps=1.0)
    tau3 = tau_threshold(5, 3, 2, 1.0, 3)
    assert tau3 == 36
    top = dec.slice(3)
    assert len(top) == 1 and len(top[0].cids) == 36
    assert top[0].center == PauliOp.from_sparse("X1 Y2 Z3", 5)
    # the 4 leftovers end up in one residual bucket keyed by X1
    rest = dec.slice(1)
    assert len(rest) == 1 and rest[0].residual and len(rest[0].cids) == 4
    assert rest[0].center == PauliOp.from_sparse("X1", 5)


def regularity_decompose_reference(inst, ell, eps):
    """The rescan form of regularity_decompose: rebuild the count table after every
    bucket and take the canonically lowest ready center.  Returns the dump."""
    n, k = inst.n, inst.k
    words = [w for w, _ in instance_rows(inst)]
    remaining = set(range(inst.m))
    buckets = []
    for t in range(k, 0, -1):
        tau = tau_threshold(n, k, ell, eps, t)
        while True:
            counts = {}
            for cid in sorted(remaining):
                w = words[cid]
                for sub in itertools.combinations(w.support(), t):
                    counts.setdefault(w.restrict(site_mask(sub)), []).append(cid)
            ready = [u for u, lst in counts.items() if len(lst) >= tau]
            if not ready:
                break
            center = min(ready, key=canonical_key)
            take = tuple(sorted(counts[center])[:tau])
            buckets.append(Bucket(t=t, center=center, cids=take))
            remaining.difference_update(take)
    groups = {}
    for cid in sorted(remaining):
        w = words[cid]
        groups.setdefault(w.restrict(1 << min(w.support())), []).append(cid)
    for center in sorted(groups, key=canonical_key):
        buckets.append(Bucket(t=1, center=center, cids=tuple(groups[center]), residual=True))
    return BipartiteDecomposition(n=n, k=k, buckets=tuple(buckets)).dump()


def hub_instance(n, k, m, seed, hubs, gaussian=False):
    """Nine in ten words extend one of a few random hub subwords of weight 1..k; the
    coefficients are 1, or standard normal draws when ``gaussian``."""
    rng = random.Random(seed)
    hub_letters = []
    for _ in range(hubs):
        sites = rng.sample(range(n), rng.randint(1, k))
        hub_letters.append({s: rng.choice("XYZ") for s in sites})
    words = []
    for _ in range(m):
        letters = dict(rng.choice(hub_letters)) if rng.random() < 0.9 else {}
        for s in rng.sample([s for s in range(n) if s not in letters], k - len(letters)):
            letters[s] = rng.choice("XYZ")
        sites = tuple(sorted(letters))
        words.append(PauliOp.from_letters(n, sites, "".join(letters[s] for s in sites)))
    coeffs = tuple(rng.gauss(0.0, 1.0) if gaussian else 1.0 for _ in words)
    return generate(GeneratorConfig(n=n, k=k, m=len(words), model="explicit", words=tuple(words),
                                    coeffs=coeffs))


def test_decompose_walk_matches_rescan_reference():
    # n = 70 puts the words' masks past 64 bits; gaussian coefficients on odd seeds
    for n, k, min_repeated in ((8, 4, 10), (70, 3, 20), (9, 5, 5)):
        levels, repeated = set(), 0
        for seed in range(12):
            inst = hub_instance(n, k, 300 + 100 * seed, seed, 2 + seed % 4, gaussian=seed % 2)
            ell = (k + 1) // 2 + seed % 2
            dec = regularity_decompose(inst, ell, 1.0)
            assert dec.dump() == regularity_decompose_reference(inst, ell, 1.0)
            extracted = [(b.t, b.center) for b in dec.buckets if not b.residual]
            levels |= {t for t, _ in extracted}
            repeated += len(extracted) - len(set(extracted))
        # buckets at every level above the residual pass, and centers taken repeatedly
        assert levels >= set(range(2, k + 1)) and repeated >= min_repeated


def test_decompose_disjoint_supports_all_residual():
    inst = explicit_instance(9, 3, ["Z1 Z2 Z3", "X4 Y5 Z6", "Y7 Y8 Y9"])
    dec = regularity_decompose(inst, ell=2, eps=0.5)
    assert all(b.t == 1 and b.residual and len(b.cids) == 1 for b in dec.buckets)
    assert len(dec.buckets) == 3


def test_decompose_is_partition_with_exact_bucket_sizes():
    for seed in range(50):
        inst = generate(GeneratorConfig(n=6, k=3, m=12, model="random", seed=seed))
        dec = regularity_decompose(inst, ell=2, eps=0.7)
        seen = [cid for b in dec.buckets for cid in b.cids]
        assert sorted(seen) == list(range(inst.m))
        for b in dec.buckets:
            tau = tau_threshold(6, 3, 2, 0.7, b.t)
            if b.t != 1:
                assert len(b.cids) == tau
            else:
                assert len(b.cids) <= tau


def test_decomposition_passes_own_regularity():
    for seed in range(10):
        inst = generate(GeneratorConfig(n=6, k=3, m=15, model="random", seed=seed))
        eps = 0.6
        dec = regularity_decompose(inst, ell=2, eps=eps)
        ok, witness = regularity_check(dec, inst, eps / (2 * inst.k), 2)
        assert ok, witness


def test_regularity_check_adversarial_bucket():
    inst = explicit_instance(4, 3, ["Z1 Z2 Z3"] * 6)
    dec = BipartiteDecomposition(
        n=4, k=3, buckets=(Bucket(t=1, center=PauliOp.from_sparse("Z1", 4), cids=tuple(range(6))),))
    ok, witness = regularity_check(dec, inst, 0.5, 2)
    assert not ok
    assert witness[1].weight() > 1 and witness[2] == 6


def regularity_check_reference(dec, inst, eps, ell):
    """regularity_check on per-row words: count every subword of width t + 1..k of a
    bucket's members in a dict, and return the first violating entry in insertion order."""
    n, k = dec.n, dec.k
    rows = instance_rows(inst)
    for bid, bucket in enumerate(dec.buckets):
        seen = {}
        for cid in bucket.cids:
            w = rows[cid][0]
            for width in range(bucket.t + 1, k + 1):
                for sub in itertools.combinations(w.support(), width):
                    cand = w.restrict(site_mask(sub))
                    seen[cand] = seen.get(cand, 0) + 1
        for cand, count in seen.items():
            bound = max((3 * n / ell) ** (k / 2 - 1 - cand.weight()), 1.0) / eps**2
            if count > bound + 1e-9:
                return False, (bid, cand, count, bound)
    return True, None


def test_regularity_check_matches_the_word_reference():
    # the decompositions' own buckets, and one bucket of every row at the lowest and the
    # highest center weight (rows reversed, so member order differs from id order)
    violations = 0
    for n, k, seed in ((8, 4, 1), (8, 4, 2), (70, 3, 3), (9, 5, 4), (6, 3, 5)):
        inst = hub_instance(n, k, 120 + 20 * seed, seed, 3, gaussian=seed % 2)
        ell = (k + 1) // 2
        dec = regularity_decompose(inst, ell, 1.0)
        whole = [BipartiteDecomposition(n=n, k=k, buckets=(
            Bucket(t=t, center=PauliOp.identity(n), cids=tuple(range(inst.m))[::-1]),))
            for t in (1, k - 1)]
        for d in [dec] + whole:
            for eps in (1.0, 0.5, 0.2, 0.05):
                result = regularity_check(d, inst, eps, ell)
                assert result == regularity_check_reference(d, inst, eps, ell)
                if not result[0]:
                    violations += 1
                    assert type(result[1][2]) is int  # the count, as the reference gives it
    assert violations >= 20


def test_regularity_check_validates_eps():
    # 0 and 1e-170 used to raise ZeroDivisionError, and -1 and 2 were accepted
    inst = explicit_instance(4, 3, ["Z1 Z2 Z3"] * 6)
    dec = regularity_decompose(inst, 2, 1.0)
    for eps in (0.0, -1.0, 2.0):
        with pytest.raises(ValueError, match=f"^need 0 < eps <= 1, got {eps}$"):
            regularity_check(dec, inst, eps, 2)
    for eps in (1e-155, 1e-170):  # the bound overflows to inf, and eps^2 underflows to zero
        with pytest.raises(ValueError, match=f"is not a finite float at eps={eps!r}$"):
            regularity_check(dec, inst, eps, 2)


def test_regularity_check_empty():
    dec = BipartiteDecomposition(n=4, k=3, buckets=())
    ok, witness = regularity_check(dec, parse("HKXOR v1 n=4 k=3 m=0 model=explicit seed=0\n"),
                                   0.5, 2)
    assert ok and witness is None


def test_tilde_word():
    w = PauliOp.from_sparse("X1 Y2 Z3", 4)
    u = PauliOp.from_sparse("Y2", 4)
    assert tilde_word(w, u) == PauliOp.from_sparse("X1 Z3", 4)


DELTA_CASES = [
    # (n, ell, p, q): residual pairs of various overlap shapes
    (3, 1, "X1", "X2"),
    (3, 1, "X1", "Y1"),
    (3, 2, "X1", "Z3"),
    (3, 2, "X1 Y2", "Z2 Z3"),
    (3, 2, "Y1 Y2", "Z1 Z2"),
    (4, 2, "X1 Y2", "X1 Y2"),
    (4, 3, "X1 Y2", "Z3 Z4"),
    (4, 3, "Y1 Y2 Y3", "Z1 Z2 Z4"),
    (4, 3, "X1 X2 X3", "X1 X2 X4"),
    (3, 2, "", ""),
    (3, 0, "", ""),
]


@pytest.mark.parametrize("n,ell,ps,qs", DELTA_CASES)
def test_pair_counts_match_exhaustive_scan(n, ell, ps, qs):
    p, q = PauliOp.from_sparse(ps, n), PauliOp.from_sparse(qs, n)
    kk = p.weight()
    commuting, anticommuting = odd_pair_scan(p, q, ell)
    nc, na = rho_counts(p, q, ell)
    assert (len(commuting), len(anticommuting)) == (nc, na)
    k, t = kk + 1, 1  # any (k, t) with k - t = kk gives the same count
    assert Fraction(nc + na, 2) == delta_count_odd(n, k, t, ell)
    rows, cols, tids = type_edges(n, *words_to_arrays([p, q], n, kk), [0], [1], ell)
    assert not tids.any()
    assert list(zip(rows.tolist(), cols.tolist())) == sorted(commuting)


def test_rho_range_for_nonempty_types():
    # all shapes arising at k - t <= 2 have rho in [1/2, 1] when defined
    for n, ell, ps, qs in DELTA_CASES:
        p, q = PauliOp.from_sparse(ps, n), PauliOp.from_sparse(qs, n)
        rho = rho_value(p, q, ell)
        if p.weight() <= 2 and rho is not None:
            assert Fraction(1, 2) <= rho <= 1


def test_rho_anticommuting_empty():
    # fully agreeing residuals have an empty anticommuting set: rho = 1/2
    p = PauliOp.from_sparse("X1 Y2", 4)
    assert rho_value(p, p, 2) == Fraction(1, 2)


def test_rho_undefined_for_all_differ_same_support():
    # (YY, ZZ): commuting labels whose commuting pair set is empty
    p, q = PauliOp.from_sparse("Y1 Y2", 3), PauliOp.from_sparse("Z1 Z2", 3)
    nc, na = rho_counts(p, q, 2)
    assert nc == 0 and na == 2 * delta_count_odd(3, 3, 1, 2)
    assert rho_value(p, q, 2) is None


def test_rho_can_exceed_one_for_overlapping_residuals():
    # weight-3 residuals sharing two differing sites: rho = 3/2 (edges still
    # carry exact Delta_t total weight, so nothing downstream breaks)
    p, q = PauliOp.from_sparse("Y1 Y2 Y3", 4), PauliOp.from_sparse("Z1 Z2 Z4", 4)
    assert rho_value(p, q, 3) == Fraction(3, 2)
    commuting, anticommuting = odd_pair_scan(p, q, 3)
    assert (len(commuting), len(anticommuting)) == rho_counts(p, q, 3)


def test_delta_infeasible_level():
    with pytest.raises(InfeasibleLevelError):
        delta_count_odd(4, 3, 1, 1)


RESIDUALS = (PauliOp.from_sparse("X1 Y2", 4), PauliOp.from_sparse("Z1 Z3", 4))


@pytest.mark.parametrize("call", [
    lambda: delta_count_odd(4, 3, 1, 1),
    lambda: rho_counts(*RESIDUALS, 1),
    lambda: type_edges(4, *words_to_arrays(RESIDUALS, 4, 2), [0], [1], 1),
], ids=["delta_count_odd", "rho_counts", "type_edges"])
def test_every_direct_caller_words_an_infeasible_level_alike(call):
    # weight-2 residuals (k - t = 2) at ell = 1
    with pytest.raises(InfeasibleLevelError, match=r"^need ell >= k-t, got ell=1, k-t=2$"):
        call()


def shared_first_site_instance():
    # two constraints sharing the single-site key X1; residuals X2 Y3 and Y2 Y3
    return explicit_instance(3, 3, ["X1 X2 Y3", "X1 Y2 Y3"], [1.0, -1.0])


def test_build_odd_matches_scan():
    inst = shared_first_site_instance()
    dec = regularity_decompose(inst, ell=2, eps=1.0)
    g = build_odd(dec, inst, t=1, ell=2)
    assert len(g.pairs) == 2 and not g.skipped
    center = {cid: b.center for b in dec.slice(1) for cid in b.cids}
    rows = instance_rows(inst)
    for tid, (cid, cid2) in enumerate(g.pairs.tolist()):
        p = tilde_word(rows[cid][0], center[cid])
        q = tilde_word(rows[cid2][0], center[cid2])
        commuting, _ = odd_pair_scan(p, q, 2)
        mine = g.tids == tid
        pairs = list(zip(g.rows[mine].tolist(), g.cols[mine].tolist()))
        assert sorted(pairs) == sorted(commuting)
        assert rho_value(p, q, 2) * len(pairs) == g.delta
        assert g.rho[tid] == float(rho_value(p, q, 2))
        assert g.signs[tid] == -1.0


def test_build_odd_checks_its_counts_exactly(monkeypatch):
    # |commuting| + |anticommuting| == 2 Delta_t per overlap signature, and each type
    # places exactly |commuting| edges
    inst = shared_first_site_instance()
    dec = regularity_decompose(inst, ell=2, eps=1.0)
    signature, edges = kikuchi_odd._rho_counts_signature, kikuchi_odd.type_edges
    monkeypatch.setattr(kikuchi_odd, "_rho_counts_signature",
                        lambda *args: (signature(*args)[0], signature(*args)[1] + 1))
    with pytest.raises(AssertionError, match="Delta_t"):
        build_odd(dec, inst, 1, 2)
    monkeypatch.setattr(kikuchi_odd, "_rho_counts_signature", signature)
    monkeypatch.setattr(kikuchi_odd, "type_edges",
                        lambda *args: tuple(col[1:] for col in edges(*args)))
    with pytest.raises(AssertionError, match="closed form"):
        build_odd(dec, inst, 1, 2)


def type_table_reference(dec, inst, t, ell):
    """The per-pair loop the type columns replaced: (pairs, rho, signs, labels_commute,
    skipped), one entry per ordered pair by bucket, then cid, then cid2."""
    delta_t = delta_count_odd(inst.n, inst.k, t, ell)
    pairs, rho, signs, labels, skipped = [], [], [], [], []
    rows = instance_rows(inst)
    for bid, bucket in enumerate(dec.buckets):
        if bucket.t != t:
            continue
        for cid in bucket.cids:
            for cid2 in bucket.cids:
                if cid == cid2:
                    continue
                (word, coeff), (word2, coeff2) = rows[cid], rows[cid2]
                p = tilde_word(word, bucket.center)
                q = tilde_word(word2, bucket.center)
                nc, na = rho_counts(p, q, ell)
                bb = coeff * coeff2
                if nc == 0:
                    skipped.append((bid, cid, cid2, abs(bb)))
                    continue
                exact = Fraction(nc + na, 2 * nc)
                assert exact * nc == delta_t
                pairs.append((cid, cid2))
                rho.append(float(exact))
                signs.append(bb)
                labels.append(commutes(p, q))
    return pairs, rho, signs, labels, skipped


def word_sparse(sites, letters):
    return " ".join(f"{letter}{site + 1}" for site, letter in zip(sites, letters))


@st.composite
def odd_slices(draw):
    """(instance, decomposition, t, ell): buckets at level t of words drawn around
    their bucket's center, members in drawn order, plus a bucket at another level."""
    k = draw(st.sampled_from((3, 5)))
    n = draw(st.integers(max(4, k), 9))
    t = draw(st.integers(1, k))
    kk = k - t
    ell = draw(st.integers(max(1, kk), min(kk + 2, 2 * n - kk)))
    coeff = st.one_of(st.sampled_from((1.0, -1.0, 0.0)),
                      st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False))
    words, coeffs, buckets = [], [], []
    for _ in range(draw(st.integers(1, 3))):
        center_sites = draw(st.lists(st.integers(0, n - 1), min_size=t, max_size=t,
                                     unique=True))
        center = dict(zip(center_sites, draw(st.text("XYZ", min_size=t, max_size=t))))
        cids = []
        for _ in range(draw(st.integers(1, 4))):
            rest = draw(st.permutations([s for s in range(n) if s not in center]))[:kk]
            letters = {**center, **dict(zip(rest, draw(st.text("XYZ", min_size=kk,
                                                                max_size=kk))))}
            cids.append(len(words))
            words.append(word_sparse(sorted(letters), [letters[s] for s in sorted(letters)]))
            coeffs.append(draw(coeff))
        buckets.append(Bucket(t=t, center=PauliOp.from_sparse(
            word_sparse(sorted(center), [center[s] for s in sorted(center)]), n),
            cids=tuple(draw(st.permutations(cids)))))
    buckets.insert(draw(st.integers(0, len(buckets))),
                   Bucket(t=t % k + 1, center=PauliOp.from_sparse("X1", n), cids=(0,)))
    inst = explicit_instance(n, k, words, coeffs)
    return inst, BipartiteDecomposition(n=n, k=k, buckets=tuple(buckets)), t, ell


def one_bucket_slice(n, k, t, ell, words, coeffs, center):
    inst = explicit_instance(n, k, words, coeffs)
    bucket = Bucket(t=t, center=PauliOp.from_sparse(center, n), cids=tuple(range(inst.m)))
    return inst, BipartiteDecomposition(n=n, k=k, buckets=(bucket,)), t, ell


# residuals (Y1 Y2, Z1 Z2) and (Y1 Y2, X1 Y2): four of the six ordered types are skipped
SKIPPING = one_bucket_slice(4, 3, 1, 2, ["Y1 Y2 X3", "Z1 Z2 X3", "X1 Y2 X3"],
                            [1.0, -0.0, 0.5], "X3")
# residuals (Y1 Y2 Y3, Z1 Z2 Z4): rho = 3/2
RHO_ABOVE_ONE = one_bucket_slice(6, 5, 2, 3, ["Y1 Y2 Y3 X5 X6", "Z1 Z2 Z4 X5 X6"],
                                 [-1.5, 2.0], "X5 X6")


def test_hand_made_slices_skip_types_and_exceed_rho_one():
    inst, dec, t, ell = SKIPPING
    g = build_odd(dec, inst, t, ell)
    assert [(cid, cid2) for _, cid, cid2, _ in g.skipped] == [(0, 1), (1, 0), (1, 2), (2, 1)]
    assert g.pairs.tolist() == [[0, 2], [2, 0]]
    inst, dec, t, ell = RHO_ABOVE_ONE
    assert build_odd(dec, inst, t, ell).rho.tolist() == [1.5, 1.5]


@settings(max_examples=150)
@given(odd_slices())
@example(SKIPPING)
@example(RHO_ABOVE_ONE)
def test_type_columns_equal_the_per_pair_loop(case):
    inst, dec, t, ell = case
    g = build_odd(dec, inst, t, ell)
    pairs, rho, signs, labels, skipped = type_table_reference(dec, inst, t, ell)
    assert g.pairs.tolist() == [list(p) for p in pairs]
    assert g.pairs.dtype == np.int64 and g.labels_commute.tolist() == labels
    assert g.rho.tobytes() == np.array(rho, dtype=np.float64).tobytes()
    assert g.signs.tobytes() == np.array(signs, dtype=np.float64).tobytes()
    assert g.weights.tobytes() == np.array([r * b for r, b in zip(rho, signs)]).tobytes()
    assert repr(g.skipped) == repr(skipped)


def test_type_edges_of_many_types_equal_each_type_alone():
    words = [PauliOp.from_sparse(w, 4) for w in ("X1 Y2", "Z3 Z4", "Y1 Y2", "Z1 Z2", "X1 Z2")]
    first, second = [0, 1, 2, 4, 0], [1, 0, 3, 3, 4]
    sites, letters = words_to_arrays(words, 4, 2)
    rows, cols, tids = type_edges(4, sites, letters, first, second, 3)
    assert tids.tolist() == sorted(tids.tolist())
    for tid, (a, b) in enumerate(zip(first, second)):
        alone = type_edges(4, sites[[a, b]], letters[[a, b]], [0], [1], 3)
        assert np.array_equal(rows[tids == tid], alone[0])
        assert np.array_equal(cols[tids == tid], alone[1])


def test_chunked_build_matches_one_chunk(monkeypatch):
    # small limits split the types, and then one type's free-slot choices, into chunks
    inst = generate(GeneratorConfig(n=6, k=3, m=16, model="random", seed=1))
    dec = regularity_decompose(inst, 3, 1.0)
    whole = build_odd(dec, inst, 1, 3)
    assert whole.num_edges > 500
    for limit in (3, 50, 500):
        monkeypatch.setattr(kikuchi_odd, "CHUNK_CANDIDATES", limit)
        part = build_odd(dec, inst, 1, 3)
        for name in ("rows", "cols", "tids", "weights"):
            assert np.array_equal(getattr(part, name), getattr(whole, name))


def dense_check_reference(n, kk, q, r, res):
    """The dense form of kikuchi_odd._check_edges: both endpoints and P (x) P' as
    (E, 2n) symplectic letters.  Returns the message of the first failing
    condition, or None."""
    sym = np.array([1, 3, 2], dtype=np.int8)  # x | z << 1 of rank codes X, Y, Z
    qd, rd, target = (np.zeros((len(q[0]), 2 * n), dtype=np.int8) for _ in range(3))
    for dense, (sites, letters) in ((qd, q), (rd, r), (target, res)):
        np.put_along_axis(dense, sites, sym[letters], axis=1)
    clean = (qd == 0) | (rd == 0) | (qd == rd)
    if not (clean.all() and np.array_equal(qd ^ rd, target)):
        return "edge product is not +P (x) P'"
    on_res = (qd != 0) & (target != 0)
    s1, s2 = on_res[:, :n].sum(axis=1), on_res[:, n:].sum(axis=1)
    if not ((s1 + s2 == kk) & (np.abs(s1 - s2) <= 1)).all():
        return "edge splits a residual unevenly"
    q2, p = qd[:, n:], target[:, :n]
    if (((q2 != 0) & (p != 0) & (q2 != p)).sum(axis=1) % 2).any():
        return "edge endpoints fail the commuting sign"
    return None


def column_check(n, kk, q, r, res):
    """kikuchi_odd._check_edges as a verdict: the message of the assert it trips, or None."""
    try:
        kikuchi_odd._check_edges(n, kk, q, r, res)
    except AssertionError as exc:
        return str(exc)
    return None


def checked_candidates(monkeypatch, n, words, first, second, ell):
    """The (q, r, res) arrays type_edges hands to _check_edges, as (E, width) copies."""
    calls = []
    monkeypatch.setattr(kikuchi_odd, "_check_edges", lambda n, kk, *ends: calls.append(ends))
    type_edges(n, *words_to_arrays([PauliOp.from_sparse(w, n) for w in words], n,
                                   len(words[0].split())), first, second, ell)
    monkeypatch.undo()
    return [np.concatenate(part) for part in zip(*(sum(call, ()) for call in calls))]


def split_candidates(arrays):
    q_s, q_l, r_s, r_l, t_s, t_l = (a.copy() for a in arrays)
    return (q_s, q_l), (r_s, r_l), (t_s, t_l)


def test_check_edges_trips_each_condition(monkeypatch):
    n, kk = 4, 2
    arrays = checked_candidates(monkeypatch, n, ["X1 Y2", "Z3 Z4"], [0], [1], 3)
    q, r, res = split_candidates(arrays)
    assert len(q[0]) > 10 and column_check(n, kk, q, r, res) is None
    # a changed letter breaks the product
    q[1][0, 0] = (q[1][0, 0] + 1) % 3
    assert column_check(n, kk, q, r, res) == "edge product is not +P (x) P'"
    # Q's site on supp(P') moved to R, and R's site on supp(P) moved to Q: the
    # product is still +P (x) P', but Q holds all of supp(P)
    q, r, res = split_candidates(arrays)
    row = 0
    qc = int(np.flatnonzero(np.isin(q[0][row], res[0][row, kk:]))[0])
    rc = int(np.flatnonzero(np.isin(r[0][row], res[0][row, :kk]))[0])
    for a, b in zip(q, r):
        a[row, qc], b[row, rc] = b[row, rc], a[row, qc]
    assert column_check(n, kk, q, r, res) == "edge splits a residual unevenly"
    # a component-2 free slot inside supp(P) (shifted by n): changing its letter
    # in both endpoints keeps conditions 1 and 2 and flips the commuting sign
    q, r, res = split_candidates(arrays)
    free = q[0][:, kk:]
    row = int(np.flatnonzero(np.isin(free[:, 0], res[0][0, :kk] + n))[0])
    site = int(free[row, 0])
    p_letter = int(res[1][row, :kk][res[0][row, :kk] == site - n][0])
    new = (p_letter + 1) % 3 if q[1][row, kk] == p_letter else p_letter
    q[1][row, kk] = r[1][row, kk] = new
    assert column_check(n, kk, q, r, res) == "edge endpoints fail the commuting sign"


# run under python -O: a wrong letter for _check_edges, and a closed-form count
# that misses 2 Delta_t by one, as in test_build_odd_checks_its_counts_exactly
OPTIMIZED_CHECKS = """
import sys
from hkxor import kikuchi_odd
from hkxor.instances import GeneratorConfig, generate
from hkxor.kikuchi_odd import build_odd, regularity_decompose, type_edges
from hkxor.pauli import PauliOp, words_to_arrays


def message(call, *args):
    try:
        call(*args)
    except AssertionError as exc:
        return str(exc)
    return "nothing raised"


print(f"optimized={sys.flags.optimize > 0}")
check, calls = kikuchi_odd._check_edges, []
kikuchi_odd._check_edges = lambda n, kk, *ends: calls.append(ends)
words = [PauliOp.from_sparse(w, 4) for w in ("X1 Y2", "Z3 Z4")]
type_edges(4, *words_to_arrays(words, 4, 2), [0], [1], 3)
kikuchi_odd._check_edges = check
q, r, res = calls[0]
q = (q[0], q[1].copy())
q[1][0, 0] = (q[1][0, 0] + 1) % 3
print(message(check, 4, 2, q, r, res))
words = tuple(PauliOp.from_sparse(w, 3) for w in ("X1 X2 Y3", "X1 Y2 Y3"))
inst = generate(GeneratorConfig(n=3, k=3, m=2, model="explicit", words=words, coeffs=(1.0, -1.0)))
signature = kikuchi_odd._rho_counts_signature
kikuchi_odd._rho_counts_signature = lambda *args: (signature(*args)[0], signature(*args)[1] + 1)
print(message(build_odd, regularity_decompose(inst, ell=2, eps=1.0), inst, 1, 2))
"""


def test_build_checks_survive_python_dash_o():
    # python -O strips assert statements; the checks that guard the certificate raise
    # AssertionError themselves, so they still run
    src = str(Path(kikuchi_odd.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["optimized=True", "edge product is not +P (x) P'",
                                       "weighted pair count != Delta_t"]


@pytest.mark.parametrize("n,words,ell", [
    (4, ["X1 Y2", "Z3 Z4", "Y1 Z3"], 3),
    (5, ["X1 Y2 Z3", "Z2 Z4 Y5", "Y1 Y2 Y3"], 4),
    (4, ["X2", "Y2", "Z4"], 2),
])
def test_check_edges_accepts_what_the_dense_check_accepts(monkeypatch, n, words, ell):
    kk = len(words[0].split())
    first, second = zip(*itertools.permutations(range(len(words)), 2))
    arrays = checked_candidates(monkeypatch, n, words, first, second, ell)
    rng = np.random.default_rng(7)
    verdicts = set()
    for trial in range(600):
        q, r, res = split_candidates(arrays)
        row = int(rng.integers(len(q[0])))
        q, r, res = ((s[row:row + 1], a[row:row + 1]) for s, a in (q, r, res))
        for _ in range(int(rng.integers(1, 3))):
            sites, letters = (q, r)[int(rng.integers(2))]
            col = int(rng.integers(ell))
            kind = rng.integers(4)
            if kind == 0:  # a letter of one endpoint
                letters[0, col] = rng.integers(3)
            elif kind == 1:  # a site of one endpoint, kept distinct within its row
                other = np.setdiff1d(np.arange(2 * n), sites[0])
                sites[0, col] = rng.choice(other)
            elif kind == 2:  # one letter of both endpoints at a shared site
                shared = np.intersect1d(q[0][0], r[0][0])
                if len(shared):
                    s = rng.choice(shared)
                    q[1][0, q[0][0] == s] = r[1][0, r[0][0] == s] = rng.integers(3)
            else:  # exchange one column of Q with one of R where rows stay distinct
                a, b = int(rng.integers(ell)), int(rng.integers(ell))
                if (q[0][0, a] not in np.delete(r[0][0], b)
                        and r[0][0, b] not in np.delete(q[0][0], a)):
                    for x, y in zip(q, r):
                        x[0, a], y[0, b] = y[0, b], x[0, a]
        expected = dense_check_reference(n, kk, q, r, res)
        assert column_check(n, kk, q, r, res) == expected, (trial, q, r, res)
        verdicts.add(expected)
    assert None in verdicts and "edge product is not +P (x) P'" in verdicts


def test_build_odd_records_skipped_types():
    inst = explicit_instance(3, 3, ["X1 Y2 Y3", "X1 Z2 Z3"])
    dec = regularity_decompose(inst, ell=2, eps=1.0)
    g = build_odd(dec, inst, t=1, ell=2)
    assert g.num_edges == 0
    assert len(g.skipped) == 2  # both ordered types
    assert local_degrees(g) == {}
    pruned, gamma = edge_delete(g, eta=1)
    assert (pruned.num_edges, gamma) == (0, 0.0)


def test_signed_matrix_symmetric():
    for seed in range(4):
        inst = generate(GeneratorConfig(n=4, k=3, m=6, model="random", seed=seed))
        dec = regularity_decompose(inst, ell=2, eps=1.0)
        g = build_odd(dec, inst, t=1, ell=2)
        mat = g.signed_matrix()
        assert abs(mat - mat.T).max() == 0.0


def test_quadratic_form_identity_odd():
    # (psi_blocks)^dag M psi_blocks == Delta_t * sum over ordered non-skipped
    # pairs of b b' <psi| P~ P~' |psi>, with psi_(Q1,Q2) = Q1 Q2 |psi>
    rng = np.random.default_rng(3)
    for seed in range(6):
        inst = generate(GeneratorConfig(n=3, k=3, m=5, model="rademacher-semirandom", seed=seed))
        dec = regularity_decompose(inst, ell=2, eps=1.0)
        g = build_odd(dec, inst, t=1, ell=2)
        psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi /= np.linalg.norm(psi)
        blocks = {}
        for vi in range(g.num_vertices):
            q1, q2 = components(g.index.unrank(vi), 3)
            word = multiply(PhasedPauli(q1), PhasedPauli(q2))
            blocks[vi] = word.phase * apply_word(word.op, psi)
        mat = g.signed_matrix().tocoo()
        lhs = sum(w * np.vdot(blocks[i], blocks[j])
                  for i, j, w in zip(mat.row, mat.col, mat.data))
        rhs = 0.0
        center = {cid: b.center for b in dec.slice(1) for cid in b.cids}
        rows = instance_rows(inst)
        for (cid, cid2), sign in zip(g.pairs.tolist(), g.signs.tolist()):
            p = tilde_word(rows[cid][0], center[cid])
            q = tilde_word(rows[cid2][0], center[cid2])
            prod = mul_words(p, q)
            rhs += sign * prod.phase * np.vdot(psi, apply_word(prod.op, psi))
        rhs *= float(g.delta)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_cs_operator():
    inst = shared_first_site_instance()
    dec = regularity_decompose(inst, ell=2, eps=1.0)
    cs = cs_operator(dec, inst, 1)
    assert cs.sum_b_sq == 2.0
    assert cs.scale == 9 * 1 / (4 * 4)
    assert cs.constant_term == 4 * cs.scale * 2.0
    rows = instance_rows(inst)
    for b in dec.slice(1):
        for cid in b.cids:
            assert tilde_word(rows[cid][0], b.center).weight() == inst.k - 1


def test_cs_operator_reads_the_slice_without_residuals(monkeypatch):
    # the constraint ids come from the buckets, in the residuals' row order, so the sum of
    # squared coefficients is bit-identical to one over the residuals' ids
    cases = []
    for seed in range(6):
        inst = generate(GeneratorConfig(n=6, k=3, m=20 + seed, model="gaussian-semirandom",
                                        seed=seed))
        dec = regularity_decompose(inst, 2, 0.8)
        cases += [(dec, inst, t, residuals(dec, inst, t)[1]) for t in dec.nonempty_levels()]

    def no_residuals(*args):
        raise AssertionError("cs_operator computed the residuals")

    monkeypatch.setattr(kikuchi_odd, "residuals", no_residuals)
    for dec, inst, t, cids in cases:
        cs = cs_operator(dec, inst, t)
        assert cs.num_constraints == len(cids) and cs.num_centers == len(dec.slice(t))
        assert cs.sum_b_sq == float(sum(c ** 2 for c in inst.coeffs[cids].tolist()))


def test_local_degrees():
    inst = shared_first_site_instance()
    dec = regularity_decompose(inst, ell=2, eps=1.0)
    g = build_odd(dec, inst, t=1, ell=2)
    table = local_degrees(g)
    assert table and all(v == 1 for v in table.values())  # single partner available
    assert max_local_degree(g) == 1


def test_local_degrees_and_degrees_match_edge_loops():
    # reference loops over the directed edges; the store computes both with arrays
    for n, m, seed in ((6, 16, 1), (5, 14, 4)):
        inst = generate(GeneratorConfig(n=n, k=3, m=m, model="gaussian-semirandom", seed=seed))
        g = build_odd(regularity_decompose(inst, 3, 1.0), inst, 1, 3)
        partners = {}
        deg = np.zeros(g.num_vertices)
        pairs, weights = g.pairs.tolist(), g.weights.tolist()
        for q, r, tid in zip(g.rows.tolist(), g.cols.tolist(), g.tids.tolist()):
            cid, cid2 = pairs[tid]
            partners.setdefault((q, cid, 0), set()).add(cid2)
            partners.setdefault((q, cid2, 1), set()).add(cid)
            deg[q] += abs(weights[tid]) / 2.0
            deg[r] += abs(weights[tid]) / 2.0
        assert max(len(val) for val in partners.values()) >= 2
        assert local_degrees(g) == {key: len(val) for key, val in partners.items()}
        assert np.array_equal(g.degrees, deg)


def test_edge_delete_noop_when_bounded():
    inst = shared_first_site_instance()
    dec = regularity_decompose(inst, ell=2, eps=1.0)
    g = build_odd(dec, inst, t=1, ell=2)
    pruned, gamma = edge_delete(g, eta=5)
    assert gamma == 0.0
    assert pruned.num_edges == g.num_edges


def test_edge_delete_prunes_and_equalizes():
    inst = explicit_instance(
        4, 3,
        ["X1 X2 Y3", "X1 Y2 Y3", "X1 Z2 Y4", "X1 X2 Z4"],
    )
    dec = regularity_decompose(inst, ell=2, eps=1.0)
    g = build_odd(dec, inst, t=1, ell=2)
    assert max_local_degree(g) >= 2
    pruned, gamma = edge_delete(g, eta=1)
    assert max_local_degree(pruned) <= 1
    assert 0.0 < gamma <= 1.0
    mat = pruned.signed_matrix()
    assert abs(mat - mat.T).max() == 0.0
    for n0, n1 in zip(g.type_counts().tolist(), pruned.type_counts().tolist()):
        if n0:
            # deleted fraction within one (possibly paired) deletion of gamma
            assert (n0 - n1) / n0 >= gamma - 2.5 / n0
    with pytest.raises(ValueError):
        edge_delete(g, eta=0)


def edge_delete_reference(graph, eta):
    """The fixpoint form of edge_delete: recount every partner after each deletion and
    delete the lowest (col, type id) edge at the lowest (vertex, constraint, side)
    over eta, then equalize by scanning each type in store order.  Returns the kept
    (rows, cols, tids) and gamma."""
    rows, cols, tids = graph.rows, graph.cols, graph.tids
    side_cids = (graph.pairs[:, 0], graph.pairs[:, 1])
    span = int(graph.pairs.max()) + 1
    keep = np.ones(graph.num_edges, dtype=bool)
    initial = graph.type_counts().tolist()
    left = list(initial)

    def delete(e):
        keep[e] = False
        tid = int(tids[e])
        left[tid] -= 1
        q, r = rows[e], cols[e]
        if graph.labels_commute[tid] and q != r:
            mirror = np.flatnonzero(keep & (tids == tid) & (rows == r) & (cols == q))
            if len(mirror):
                keep[mirror[0]] = False
                left[tid] -= 1

    while True:
        q, a, b = rows[keep], side_cids[0][tids[keep]], side_cids[1][tids[keep]]
        codes = np.concatenate((((q * span + a) * 2) * span + b,
                                ((q * span + b) * 2 + 1) * span + a))
        keys, counts = np.unique(np.unique(codes) // span, return_counts=True)
        over = keys[counts > eta]
        if not len(over):
            break
        key = int(over[0])
        q, cid, side = key // (2 * span), key // 2 % span, key % 2
        cand = np.flatnonzero(keep & (rows == q) & (side_cids[side][tids] == cid))
        delete(int(cand[np.lexsort((tids[cand], cols[cand]))[0]]))

    gamma = 0.0
    for n0, n1 in zip(initial, left):
        if n0:
            gamma = max(gamma, (n0 - n1) / n0)
    for tid, n0 in enumerate(initial):
        target = math.ceil(gamma * n0 - 1e-12)
        for e in np.flatnonzero(tids == tid).tolist():
            if n0 - left[tid] >= target or not left[tid]:
                break
            if keep[e]:
                delete(e)
    return rows[keep], cols[keep], tids[keep], gamma


def assert_prunes_like_reference(graph, eta):
    pruned, gamma = edge_delete(graph, eta)
    rows, cols, tids, ref_gamma = edge_delete_reference(graph, eta)
    assert repr(gamma) == repr(ref_gamma)
    for got, want in ((pruned.rows, rows), (pruned.cols, cols), (pruned.tids, tids)):
        assert np.array_equal(got, want)
    return pruned, gamma


def test_edge_delete_matches_fixpoint_reference():
    # one ascending pass over the keys above eta deletes what the fixpoint deletes
    inst = generate(GeneratorConfig(n=8, k=3, m=60, seed=1))
    g = build_odd(regularity_decompose(inst, 3, 0.8), inst, 1, 3)
    pruned, gamma = assert_prunes_like_reference(g, eta=4)
    assert (g.num_edges, g.num_edges - pruned.num_edges, gamma) == (28976, 1086, 0.03125)
    # small graphs of every model, with and without commuting-label mirrors, at several eta
    for model in ("rademacher-semirandom", "gaussian-semirandom", "random"):
        for seed in range(3):
            inst = generate(GeneratorConfig(n=6, k=3, m=16, model=model, seed=seed))
            g = build_odd(regularity_decompose(inst, 3, 1.0), inst, 1, 3)
            for eta in (1, 2, 3):
                assert_prunes_like_reference(g, eta)


def test_edge_delete_skips_phase_one_when_no_constraint_has_more_than_eta_types(monkeypatch):
    # a key's partner count is at most the types its constraint has on that side
    inst = generate(GeneratorConfig(n=6, k=3, m=16, model="random", seed=1))
    g = build_odd(regularity_decompose(inst, 3, 1.0), inst, 1, 3)
    most = max(np.bincount(g.pairs[:, side]).max() for side in (0, 1))
    calls = []
    partner_counts = kikuchi_odd._partner_counts
    monkeypatch.setattr(kikuchi_odd, "_partner_counts",
                        lambda graph: calls.append(graph) or partner_counts(graph))
    assert_prunes_like_reference(g, most - 1)
    assert len(calls) == 1
    pruned, gamma = assert_prunes_like_reference(g, most)
    assert len(calls) == 1
    assert gamma == 0.0 and pruned.num_edges == g.num_edges


def test_decomposition_dump_format():
    inst = shared_first_site_instance()
    dec = regularity_decompose(inst, ell=2, eps=1.0)
    lines = dec.dump().splitlines()
    assert lines[0] == "t=1 U=X1 ids=0,1"


def test_odd_graph_dump_has_pair_column():
    from hkxor.kikuchi_even import dump_graph

    inst = shared_first_site_instance()
    dec = regularity_decompose(inst, ell=2, eps=1.0)
    g = build_odd(dec, inst, t=1, ell=2)
    text = dump_graph(g)
    head = text.splitlines()[0].split()
    assert head[:2] == ["KIKUCHI", "v1"] and head[2:] == ["3", "3", "2", "135", str(g.num_edges)]
    assert all("pair=" in ln for ln in text.splitlines()[1:])


def test_average_degree_lower_bound_rademacher():
    # weighted average degree >= (1/2) (ell/6n)^(k-t) * sum_U C(|H_U|, 2)
    for seed in range(8):
        inst = generate(GeneratorConfig(n=6, k=3, m=10,
                                        model="rademacher-semirandom", seed=seed))
        dec = regularity_decompose(inst, 2, 0.8)
        g = build_odd(dec, inst, 1, 2)
        pairs = sum(len(b.cids) * (len(b.cids) - 1) // 2 for b in dec.slice(1))
        bound = 0.5 * (2 / 36) ** 2 * pairs
        assert g.average_degree >= bound - 1e-12


def test_cs_operator_upper_bounds_slice_square():
    # lambda_max(U_t) >= (k eps_t)^2 with eps_t = lambda_max(slice sum)/(2|H|),
    # checked by assembling U_t = scale * sum_U (sum_C b P~_C)^2 densely
    from hkxor.oracle import assemble_pauli_sum, dense_word, lambda_max

    for seed in range(6):
        inst = generate(GeneratorConfig(n=5, k=3, m=6, model="random", seed=40 + seed))
        dec = regularity_decompose(inst, 2, 0.8)
        rows = instance_rows(inst)
        for t in dec.nonempty_levels():
            cs = cs_operator(dec, inst, t)
            dim = 1 << inst.n
            acc = np.zeros((dim, dim), dtype=complex)
            for b in dec.slice(t):
                s_u = np.zeros((dim, dim), dtype=complex)
                for cid in b.cids:
                    word, coeff = rows[cid]
                    s_u += coeff * dense_word(tilde_word(word, b.center))
                acc += s_u @ s_u
            u_t = cs.scale * acc
            slice_sum = assemble_pauli_sum(
                inst.n, [rows[cid] for b in dec.slice(t) for cid in b.cids])
            eps_t = lambda_max(slice_sum) / (2 * inst.m)
            lam_u = float(np.linalg.eigvalsh(u_t)[-1])
            assert (inst.k * eps_t) ** 2 <= lam_u + 1e-9
