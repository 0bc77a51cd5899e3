"""Odd-arity pipeline: regularity decomposition and reweighted Kikuchi graphs.

Bipartite decomposition.  Constraints are greedily bucketed by shared
weight-t subwords U (t from k down to 1, threshold tau_t per level), with
leftovers keyed by their first non-trivial single-site letter.  Every bucket
member satisfies U below P_C; stripping U leaves the residual word
P~_C = P_C * P_U of weight k - t.

Odd Kikuchi graph for a slice t.  Vertices are ordered component pairs
(Q1, Q2) with |Q1| + |Q2| = ell, encoded as single weight-ell words on 2n
sites (component 2 shifted up by n), N = 3^ell * C(2n, ell).  For an ordered
constraint pair (C, C') in a bucket, with residuals P = P~_C, P' = P~_C',
the pair (Q, R) is an edge when:

1. Q1 * R1 = P and Q2 * R2 = P' exactly (phase +1), with the clean split:
   on supp(P) exactly one of Q1, R1 is non-trivial and agrees with P there,
   and off supp(P) the two agree (same for the second component);
2. |supp(Q1) & supp(P)| = floor((k-t)/2) and |supp(Q2) & supp(P')| =
   ceil((k-t)/2), or vice versa;
3. Q2 * Q1 * R1 * R2 = +P P' (the "commuting" sign; the pairs satisfying
   1-2 with sign -P P' form the anticommuting set, used only for rho).

The graph lives in the typed COO store shared with the even and level-n
graphs (kikuchi_even.KikuchiGraph): each ordered constraint pair is one edge
type, with weight rho * b_C * b_C' and
rho = (|commuting| + |anticommuting|) / (2 |commuting|); the identity
rho * |commuting| = Delta_t (the store's ``delta``) holds for every type and
is asserted exactly in rational arithmetic.  OddKikuchiGraph adds only the
slice t, the pair metadata per type id and the skipped types.  Types whose
commuting set is empty (possible when the residuals share their support and
differ everywhere, e.g. (YY, ZZ)) place no edges and are recorded as
skipped; the certificate accounts for them separately.  The store's signed
matrix is the symmetrization (E + E^T)/2 of the directed entries; for types
whose residual labels commute this is a no-op (the directed set is
transpose-closed), for anticommuting labels it splits each entry in half,
which preserves the quadratic-form identity because such ordered pairs
contribute conjugate values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .instances import Instance
from .kikuchi_even import KikuchiGraph
from .pauli import _LETTERS, PauliOp, SliceIndex, canonical_key, commutes, site_mask

EDGE_BUDGET = 20_000_000


class InfeasibleLevelError(ValueError):
    """Raised when ell < k - t, so no vertex pair can realize a residual pair."""


# -- regularity decomposition --------------------------------------------------


def tau_threshold(n: int, k: int, ell: int, eps: float, t: int) -> int:
    """Bucket size ceil(max(1, (3n/ell)^(k/2-t)) * 4 k^2 / eps^2) at level t."""
    v = max(1.0, (3 * n / ell) ** (k / 2 - t)) * 4 * k * k / eps**2
    # ceilings taken on real-valued thresholds; tiny slop absorbs float-up noise
    return math.ceil(v - 1e-9 * max(1.0, v))


@dataclass(frozen=True)
class Bucket:
    t: int
    center: PauliOp
    cids: tuple[int, ...]
    residual: bool = False


@dataclass
class BipartiteDecomposition:
    n: int
    k: int
    ell: int
    eps: float
    m: int
    buckets: tuple[Bucket, ...]
    warnings: tuple[str, ...] = ()

    def slice(self, t: int) -> list[Bucket]:
        return [b for b in self.buckets if b.t == t]

    def slice_cids(self, t: int) -> list[int]:
        out: list[int] = []
        for b in self.slice(t):
            out.extend(b.cids)
        return out

    def nonempty_levels(self) -> list[int]:
        return sorted({b.t for b in self.buckets}, reverse=True)

    def dump(self) -> str:
        """One line per bucket: "t=<t> U=<sparse word> ids=<comma list>"."""
        lines = [f"t={b.t} U={b.center.to_sparse()} ids=" + ",".join(str(c) for c in b.cids)
                 for b in self.buckets]
        return "\n".join(lines) + "\n"


def regularity_decompose(inst: Instance, ell: int, eps: float) -> BipartiteDecomposition:
    """Greedy bucketing by shared subwords, t = k down to 1, then the residual pass.

    Candidate centers are scanned in canonical word order and members
    extracted in ascending constraint id, so the output is deterministic.
    """
    if not 0 < eps <= 1:
        raise ValueError(f"need 0 < eps <= 1, got {eps}")
    if ell < inst.k / 2:
        raise ValueError(f"need ell >= k/2, got ell={ell}, k={inst.k}")
    n, k = inst.n, inst.k
    words = [c.pauli for c in inst.constraints]
    remaining = set(range(inst.m))
    buckets: list[Bucket] = []
    warnings: list[str] = []

    for t in range(k, 0, -1):
        tau = tau_threshold(n, k, ell, eps, t)
        while True:
            counts: dict[PauliOp, list[int]] = {}
            for cid in sorted(remaining):
                w = words[cid]
                for sub in combinations(w.support(), t):
                    counts.setdefault(w.restrict(site_mask(sub)), []).append(cid)
            ready = [u for u, lst in counts.items() if len(lst) >= tau]
            if not ready:
                break
            center = min(ready, key=canonical_key)
            take = tuple(sorted(counts[center])[:tau])
            buckets.append(Bucket(t=t, center=center, cids=take))
            remaining.difference_update(take)

    tau1 = tau_threshold(n, k, ell, eps, 1)
    if inst.m < n * tau1:
        warnings.append(f"|H|={inst.m} < n*tau_1={n * tau1}: center-count bound not guaranteed")
    residual_groups: dict[PauliOp, list[int]] = {}
    for cid in sorted(remaining):
        w = words[cid]
        first = min(w.support())
        residual_groups.setdefault(w.restrict(1 << first), []).append(cid)
    for center in sorted(residual_groups, key=canonical_key):
        cids = tuple(sorted(residual_groups[center]))
        assert len(cids) < tau1, "residual bucket reached the extraction threshold"
        buckets.append(Bucket(t=1, center=center, cids=cids, residual=True))

    return BipartiteDecomposition(n=n, k=k, ell=ell, eps=eps, m=inst.m,
                                  buckets=tuple(buckets), warnings=tuple(warnings))


def regularity_check(dec: BipartiteDecomposition, inst: Instance, eps: float,
                     ell: int) -> tuple[bool, tuple | None]:
    """Exhaustive search for a subword W violating the per-bucket regularity threshold.

    A violation is a bucket, a word W with |W| > t, and > max((3n/ell)^(k/2-1-|W|), 1)
    / eps^2 bucket members all subsuming W.  Returns (ok, first witness or None).
    """
    n, k = dec.n, dec.k
    for bid, bucket in enumerate(dec.buckets):
        members = [inst.constraints[cid].pauli for cid in bucket.cids]
        seen: dict[PauliOp, int] = {}
        for w in members:
            for width in range(bucket.t + 1, k + 1):
                for sub in combinations(w.support(), width):
                    cand = w.restrict(site_mask(sub))
                    seen[cand] = seen.get(cand, 0) + 1
        for cand, count in seen.items():
            bound = max((3 * n / ell) ** (k / 2 - 1 - cand.weight()), 1.0) / eps**2
            if count > bound + 1e-9:
                return False, (bid, cand, count, bound)
    return True, None


# -- residuals and the squared operator ----------------------------------------


def tilde_word(word: PauliOp, center: PauliOp) -> PauliOp:
    """P_C with the bucket center erased: P_C * P_U, exact since U is below P_C."""
    strip = ~center.support_mask
    return PauliOp(word.n, word.xmask & strip, word.zmask & strip)


@dataclass(frozen=True)
class CSOperator:
    """Bookkeeping for the squared slice operator after the Cauchy-Schwarz step."""

    t: int
    num_centers: int
    num_constraints: int
    total_m: int
    k: int
    sum_b_sq: float

    @property
    def scale(self) -> float:
        return self.k**2 * self.num_centers / (4 * self.total_m**2)

    @property
    def constant_term(self) -> float:
        """The certificate's constant: k^2 |U^(t)| / |H|^2 * sum b_C^2 (4x the diagonal)."""
        return 4 * self.scale * self.sum_b_sq


def cs_operator(dec: BipartiteDecomposition, inst: Instance, t: int) -> CSOperator:
    slice_buckets = dec.slice(t)
    cids = [cid for b in slice_buckets for cid in b.cids]
    if not cids:
        raise ValueError(f"slice t={t} is empty")
    for b in slice_buckets:
        for cid in b.cids:
            w = tilde_word(inst.constraints[cid].pauli, b.center)
            assert w.weight() == inst.k - t
    return CSOperator(
        t=t,
        num_centers=len(slice_buckets),
        num_constraints=len(cids),
        total_m=inst.m,
        k=inst.k,
        sum_b_sq=float(sum(inst.constraints[cid].coeff ** 2 for cid in cids)),
    )


# -- pair counting -------------------------------------------------------------


def delta_count_odd(n: int, k: int, t: int, ell: int) -> Fraction:
    """Exact uniform pair weight per ordered residual pair:

    (1/2) C(k-t, ceil) C(k-t, floor) C(2n-2(k-t), ell-(k-t)) 3^(ell-(k-t)) 2^[k-t odd].
    """
    kk = k - t
    if not 0 <= kk <= k:
        raise ValueError(f"need 0 <= t <= k, got t={t}, k={k}")
    if ell < kk:
        raise InfeasibleLevelError(f"need ell >= k-t, got ell={ell}, k-t={kk}")
    if 2 * n - 2 * kk < ell - kk:
        raise ValueError("not enough free sites for the level")
    val = (
        Fraction(1, 2)
        * math.comb(kk, (kk + 1) // 2)
        * math.comb(kk, kk // 2)
        * math.comb(2 * n - 2 * kk, ell - kk)
        * 3 ** (ell - kk)
        * (2 if kk % 2 else 1)
    )
    return val


def _splits(kk: int) -> list[tuple[int, int]]:
    lo, hi = kk // 2, (kk + 1) // 2
    return [(lo, hi)] if lo == hi else [(lo, hi), (hi, lo)]


@lru_cache(maxsize=None)
def _rho_counts_signature(n: int, ell: int, kk: int, e: int, d: int) -> tuple[int, int]:
    """(commuting, anticommuting) counts for a residual pair of isomorphism type (e, d).

    e / d are the counts of shared-support sites where the two residuals agree
    / differ; the free-slot letter parity is summed in closed form.
    """
    L = ell - kk
    slots = 2 * n - 2 * kk
    m_par = kk - e - d  # free component-2 slots inside supp(P)
    total_free = math.comb(slots, L) * 3**L
    signed_free = sum(
        math.comb(m_par, j) * (-1) ** j * math.comb(slots - m_par, L - j) * 3 ** (L - j)
        for j in range(0, min(m_par, L) + 1)
    )
    total = 0
    signed = 0
    for s1, s2 in _splits(kk):
        mult = math.comb(kk, s1)
        sub_total = math.comb(kk, s2)
        sub_signed = sum(
            math.comb(d, j) * (-1) ** j * math.comb(kk - d, s2 - j)
            for j in range(0, min(d, s2) + 1)
        )
        total += mult * sub_total * total_free
        signed += mult * sub_signed * signed_free
    nc = (total + signed) // 2
    na = (total - signed) // 2
    assert nc + na == total and nc - na == signed
    return nc, na


def rho_counts(p: PauliOp, q: PauliOp, ell: int) -> tuple[int, int]:
    """Closed-form (commuting, anticommuting) pair counts for residuals p, q."""
    if p.weight() != q.weight():
        raise ValueError("residual words must have equal weight")
    kk = p.weight()
    if ell < kk:
        raise InfeasibleLevelError(f"need ell >= {kk}, got {ell}")
    inter = p.support_mask & q.support_mask
    agree = ~((p.xmask ^ q.xmask) | (p.zmask ^ q.zmask))
    e = (inter & agree).bit_count()
    d = inter.bit_count() - e
    return _rho_counts_signature(p.n, ell, kk, e, d)


def rho_value(p: PauliOp, q: PauliOp, ell: int) -> Fraction | None:
    """rho = (|C| + |A|) / (2 |C|), or None when the commuting set is empty."""
    nc, na = rho_counts(p, q, ell)
    if nc == 0:
        return None
    return Fraction(nc + na, 2 * nc)


# -- odd graph construction ----------------------------------------------------


def _combine(n: int, comp1: PauliOp, comp2: PauliOp) -> PauliOp:
    return PauliOp(2 * n, comp1.xmask | (comp2.xmask << n), comp1.zmask | (comp2.zmask << n))


@dataclass(frozen=True)
class OddEdgeType:
    """Ordered constraint pair (cid, cid2) of one bucket; its edges live in the graph's store."""

    bucket_id: int
    cid: int
    cid2: int
    rho: Fraction
    sign: float  # b_C * b_C'
    labels_commute: bool

    @property
    def weight(self) -> float:
        return float(self.rho) * self.sign

    @property
    def abs_coeff(self) -> float:
        return abs(self.sign)


@dataclass
class OddKikuchiGraph(KikuchiGraph):
    """Odd graph of slice t: type id i of the shared store is the ordered pair ``types[i]``."""

    t: int
    types: list[OddEdgeType]
    skipped: list[tuple[int, int, int, float]]  # (bucket_id, cid, cid2, |b b'|)

    def type_columns(self) -> list[str]:
        return [f"{ty.cid} {w!r} pair={ty.cid}:{ty.cid2}"
                for ty, w in zip(self.types, self.weights.tolist())]


def enumerate_type_pairs(p: PauliOp, q: PauliOp, ell: int):
    """Yield (vertex_pair, commuting_flag) for every (Q, R) meeting conditions 1-2.

    p, q are the residual labels; vertices are combined 2n-site words.
    """
    n = p.n
    kk = p.weight()
    L = ell - kk
    if L < 0:
        raise InfeasibleLevelError(f"need ell >= {kk}, got {ell}")
    sup_p, sup_q = p.support(), q.support()
    off_p = [i for i in range(n) if not (p.support_mask >> i & 1)]
    off_q = [i for i in range(n) if not (q.support_mask >> i & 1)]
    free_slots = [(0, s) for s in off_p] + [(1, s) for s in off_q]

    for s1, s2 in _splits(kk):
        for half1 in combinations(sup_p, s1):
            m1 = site_mask(half1)
            q1_base, r1_base = p.restrict(m1), p.restrict(p.support_mask & ~m1)
            for half2 in combinations(sup_q, s2):
                m2 = site_mask(half2)
                q2_base, r2_base = q.restrict(m2), q.restrict(q.support_mask & ~m2)
                for chosen in combinations(free_slots, L):
                    for letters in product(_LETTERS, repeat=L):
                        f1x = f1z = f2x = f2z = 0
                        for (comp, site), letter in zip(chosen, letters):
                            single = PauliOp.single(n, site, letter)
                            if comp == 0:
                                f1x |= single.xmask
                                f1z |= single.zmask
                            else:
                                f2x |= single.xmask
                                f2z |= single.zmask
                        q1 = PauliOp(n, q1_base.xmask | f1x, q1_base.zmask | f1z)
                        r1 = PauliOp(n, r1_base.xmask | f1x, r1_base.zmask | f1z)
                        q2 = PauliOp(n, q2_base.xmask | f2x, q2_base.zmask | f2z)
                        r2 = PauliOp(n, r2_base.xmask | f2x, r2_base.zmask | f2z)
                        sign_ok = commutes(q2, p)
                        yield (_combine(n, q1, q2), _combine(n, r1, r2)), sign_ok


def build_odd(dec: BipartiteDecomposition, inst: Instance, t: int, ell: int) -> OddKikuchiGraph:
    """Odd Kikuchi graph of slice t: commuting-condition edges for every ordered bucket pair.

    Edges are stored type by type (types in bucket, then pair order), each
    type's (row, col) pairs ascending.
    """
    n, k = inst.n, inst.k
    kk = k - t
    if ell < kk:
        raise InfeasibleLevelError(f"need ell >= k-t = {kk}, got ell={ell}")
    delta_t = delta_count_odd(n, k, t, ell)
    index = SliceIndex(2 * n, ell)
    slice_buckets = dec.slice(t)
    if not any(len(b.cids) >= 1 for b in slice_buckets):
        raise ValueError(f"slice t={t} is empty")

    est = 2 * float(delta_t) * sum(len(b.cids) * (len(b.cids) - 1) for b in slice_buckets)
    if est > EDGE_BUDGET:
        raise MemoryError(f"estimated {est:.2e} edge candidates exceeds budget {EDGE_BUDGET:.1e}")

    types: list[OddEdgeType] = []
    skipped: list[tuple[int, int, int, float]] = []
    rows: list[int] = []
    cols: list[int] = []
    tids: list[int] = []
    bucket_ids = {id(b): i for i, b in enumerate(dec.buckets)}
    for bucket in slice_buckets:
        bid = bucket_ids[id(bucket)]
        residual = {cid: tilde_word(inst.constraints[cid].pauli, bucket.center)
                    for cid in bucket.cids}
        for cid in bucket.cids:
            for cid2 in bucket.cids:
                if cid == cid2:
                    continue
                p, q = residual[cid], residual[cid2]
                nc, na = rho_counts(p, q, ell)
                bb = inst.constraints[cid].coeff * inst.constraints[cid2].coeff
                if nc == 0:
                    skipped.append((bid, cid, cid2, abs(bb)))
                    continue
                rho = Fraction(nc + na, 2 * nc)
                assert rho * nc == delta_t, "per-type weighted count != Delta_t"
                pairs = sorted((index.rank(qv), index.rank(rv))
                               for (qv, rv), sign_ok in enumerate_type_pairs(p, q, ell)
                               if sign_ok)
                assert len(pairs) == nc, "enumerated commuting count != closed form"
                rows.extend(qi for qi, _ in pairs)
                cols.extend(ri for _, ri in pairs)
                tids.extend([len(types)] * nc)
                types.append(OddEdgeType(bucket_id=bid, cid=cid, cid2=cid2, rho=rho, sign=bb,
                                         labels_commute=commutes(p, q)))

    return OddKikuchiGraph(
        n=n, k=k, ell=ell, index=index, delta=delta_t,
        rows=np.array(rows, dtype=np.int64), cols=np.array(cols, dtype=np.int64),
        tids=np.array(tids, dtype=np.int64),
        weights=np.array([ty.weight for ty in types], dtype=np.float64),
        t=t, types=types, skipped=skipped)


# -- local degrees and edge deletion --------------------------------------------


def _side_cids(graph: OddKikuchiGraph) -> tuple[np.ndarray, np.ndarray]:
    """Per type id, the constraint on side 0 (cid) and on side 1 (cid2)."""
    return (np.array([ty.cid for ty in graph.types], dtype=np.int64),
            np.array([ty.cid2 for ty in graph.types], dtype=np.int64))


def _partner_counts(graph: OddKikuchiGraph, keep: np.ndarray):
    """Distinct partner counts per (vertex, constraint, side) over the kept edges.

    Keys are encoded as (q * C + cid) * 2 + side with C above every
    constraint id, so ascending codes are ascending (q, cid, side) tuples.
    Returns (ascending key codes, partner counts, C).
    """
    cid1, cid2 = _side_cids(graph)
    span = int(max(cid1.max(), cid2.max())) + 1 if graph.types else 1
    q, tid = graph.rows[keep], graph.tids[keep]
    a, b = cid1[tid], cid2[tid]
    # (key, partner) pairs: side 0 keys (q, cid) with partner cid2, side 1 the reverse
    codes = np.concatenate((((q * span + a) * 2) * span + b,
                            ((q * span + b) * 2 + 1) * span + a))
    keys, counts = np.unique(np.unique(codes) // span, return_counts=True)
    return keys, counts, span


def local_degrees(graph: OddKikuchiGraph) -> dict[tuple[int, int, int], int]:
    """Counts of distinct partners per (vertex, constraint, side).

    Key (q, cid, 0) counts partners C' with an edge from q typed (cid, C');
    (q, cid, 1) counts partners typed (C', cid).  Zero entries are omitted.
    """
    keys, counts, span = _partner_counts(graph, np.ones(graph.num_edges, dtype=bool))
    return {(key // (2 * span), key // 2 % span, key % 2): count
            for key, count in zip(keys.tolist(), counts.tolist())}


def max_local_degree(graph: OddKikuchiGraph) -> int:
    table = local_degrees(graph)
    return max(table.values()) if table else 0


def edge_delete(graph: OddKikuchiGraph, eta: int) -> tuple[OddKikuchiGraph, float]:
    """Prune to eta-bounded local degree, then equalize per-type deleted fractions.

    Phase 1 repeatedly deletes the canonically-lowest edge, by (pair, type
    id), at the lowest (vertex, constraint, side) whose partner count exceeds
    eta.  Phase 2 computes the max deleted fraction gamma over ordered types
    and deletes further edges (lowest pair first) until every type has lost
    ceil(gamma * count) edges, as close as pairing integrality allows.
    Deleting an edge of a commuting-label (transpose-closed) type also
    deletes its mirror.  Returns the pruned graph and gamma.
    """
    if eta < 1:
        raise ValueError(f"need eta >= 1, got {eta}")
    rows, cols, tids = graph.rows, graph.cols, graph.tids
    keep = np.ones(graph.num_edges, dtype=bool)
    initial = graph.type_counts().tolist()
    left = list(initial)

    def delete(e: int) -> None:
        keep[e] = False
        tid = int(tids[e])
        left[tid] -= 1
        q, r = rows[e], cols[e]
        if graph.types[tid].labels_commute and q != r:
            mirror = np.flatnonzero(keep & (tids == tid) & (rows == r) & (cols == q))
            if len(mirror):
                keep[mirror[0]] = False
                left[tid] -= 1

    side_cids = _side_cids(graph)
    while True:
        keys, counts, span = _partner_counts(graph, keep)
        over = keys[counts > eta]
        if not len(over):
            break
        key = int(over[0])
        q, cid, side = key // (2 * span), key // 2 % span, key % 2
        cand = np.flatnonzero(keep & (rows == q) & (side_cids[side][tids] == cid))
        # lowest (col, type id); lexsort is stable, so ties keep the earliest entry
        delete(int(cand[np.lexsort((tids[cand], cols[cand]))[0]]))

    gamma = 0.0
    for n0, n1 in zip(initial, left):
        if n0:
            gamma = max(gamma, (n0 - n1) / n0)

    for tid, n0 in enumerate(initial):
        target = math.ceil(gamma * n0 - 1e-12)
        if n0 - left[tid] >= target:
            continue
        for e in np.flatnonzero(tids == tid).tolist():
            if n0 - left[tid] >= target or not left[tid]:
                break
            if keep[e]:
                delete(e)

    return replace(graph, rows=rows[keep], cols=cols[keep], tids=tids[keep]), gamma
