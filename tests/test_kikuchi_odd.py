"""Odd-arity pipeline: decomposition guarantees, pair counts, deletion."""

import itertools
import math
import random
from fractions import Fraction

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

from helpers import explicit_instance


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
    words = [c.pauli for c in inst.constraints]
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
    return BipartiteDecomposition(n=n, k=k, ell=ell, eps=eps, m=inst.m,
                                  buckets=tuple(buckets)).dump()


def hub_instance(n, k, m, seed, hubs):
    """Nine in ten words extend one of a few random hub subwords of weight 1..k."""
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
    return generate(GeneratorConfig(n=n, k=k, m=len(words), model="explicit", words=tuple(words),
                                    coeffs=(1.0,) * len(words)))


def test_decompose_walk_matches_rescan_reference():
    levels, repeated = set(), 0
    for seed in range(12):
        inst = hub_instance(8, 4, 300 + 100 * seed, seed, 2 + seed % 4)
        ell = 2 + seed % 2
        dec = regularity_decompose(inst, ell, 1.0)
        assert dec.dump() == regularity_decompose_reference(inst, ell, 1.0)
        extracted = [(b.t, b.center) for b in dec.buckets if not b.residual]
        levels |= {t for t, _ in extracted}
        repeated += len(extracted) - len(set(extracted))
    # buckets at every level above the residual pass, and centers taken repeatedly
    assert levels == {2, 3, 4} and repeated >= 10


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
        n=4, k=3, ell=2, eps=0.5, m=6,
        buckets=(Bucket(t=1, center=PauliOp.from_sparse("Z1", 4), cids=tuple(range(6))),),
    )
    ok, witness = regularity_check(dec, inst, 0.5, 2)
    assert not ok
    assert witness[1].weight() > 1 and witness[2] == 6


def test_regularity_check_empty():
    dec = BipartiteDecomposition(n=4, k=3, ell=2, eps=0.5, m=0, buckets=())
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


def shared_first_site_instance():
    # two constraints sharing the single-site key X1; residuals X2 Y3 and Y2 Y3
    return explicit_instance(3, 3, ["X1 X2 Y3", "X1 Y2 Y3"], [1.0, -1.0])


def test_build_odd_matches_scan():
    inst = shared_first_site_instance()
    dec = regularity_decompose(inst, ell=2, eps=1.0)
    g = build_odd(dec, inst, t=1, ell=2)
    assert len(g.pairs) == 2 and not g.skipped
    center = {cid: b.center for b in dec.slice(1) for cid in b.cids}
    for tid, (cid, cid2) in enumerate(g.pairs.tolist()):
        p = tilde_word(inst.constraints[cid].pauli, center[cid])
        q = tilde_word(inst.constraints[cid2].pauli, center[cid2])
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
    for bid, bucket in enumerate(dec.buckets):
        if bucket.t != t:
            continue
        for cid in bucket.cids:
            for cid2 in bucket.cids:
                if cid == cid2:
                    continue
                p = tilde_word(inst.constraints[cid].pauli, bucket.center)
                q = tilde_word(inst.constraints[cid2].pauli, bucket.center)
                nc, na = rho_counts(p, q, ell)
                bb = inst.constraints[cid].coeff * inst.constraints[cid2].coeff
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
    return inst, BipartiteDecomposition(n=n, k=k, ell=ell, eps=1.0, m=inst.m,
                                        buckets=tuple(buckets)), t, ell


def one_bucket_slice(n, k, t, ell, words, coeffs, center):
    inst = explicit_instance(n, k, words, coeffs)
    bucket = Bucket(t=t, center=PauliOp.from_sparse(center, n), cids=tuple(range(inst.m)))
    return inst, BipartiteDecomposition(n=n, k=k, ell=ell, eps=1.0, m=inst.m,
                                        buckets=(bucket,)), t, ell


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
        for (cid, cid2), sign in zip(g.pairs.tolist(), g.signs.tolist()):
            p = tilde_word(inst.constraints[cid].pauli, center[cid])
            q = tilde_word(inst.constraints[cid2].pauli, center[cid2])
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
    for b in dec.slice(1):
        for cid in b.cids:
            assert tilde_word(inst.constraints[cid].pauli, b.center).weight() == inst.k - 1


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
        for t in dec.nonempty_levels():
            cs = cs_operator(dec, inst, t)
            dim = 1 << inst.n
            acc = np.zeros((dim, dim), dtype=complex)
            for b in dec.slice(t):
                s_u = np.zeros((dim, dim), dtype=complex)
                for cid in b.cids:
                    s_u += (inst.constraints[cid].coeff
                            * dense_word(tilde_word(inst.constraints[cid].pauli, b.center)))
                acc += s_u @ s_u
            u_t = cs.scale * acc
            slice_sum = assemble_pauli_sum(
                inst.n, [(inst.constraints[cid].pauli, inst.constraints[cid].coeff)
                         for b in dec.slice(t) for cid in b.cids])
            eps_t = lambda_max(slice_sum) / (2 * inst.m)
            lam_u = float(np.linalg.eigvalsh(u_t)[-1])
            assert (inst.k * eps_t) ** 2 <= lam_u + 1e-9
