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
rho = (|commuting| + |anticommuting|) / (2 |commuting|).  Both counts depend
only on the residuals' overlap signature (shared sites where they agree, and
where they differ), and |commuting| + |anticommuting| = 2 Delta_t (the
store's ``delta``) is asserted exactly for every signature.  OddKikuchiGraph
adds the slice t, one column per type field (the pair, rho, the sign
b_C b_C' and whether the residual labels commute) and the skipped types.
Types whose commuting set is empty (possible when the residuals share their
support and differ everywhere, e.g. (YY, ZZ)) place no edges and are
recorded as skipped; the certificate accounts for them separately.  The
store's signed matrix is the symmetrization (E + E^T)/2 of the directed
entries; for types whose residual labels commute this is a no-op (the
directed set is transpose-closed), for anticommuting labels it splits each
entry in half, which preserves the quadratic-form identity because such
ordered pairs contribute conjugate values.

Construction is array code over all types of a slice at once.  The
residuals are the slice's rows of ``inst.sites`` and ``inst.letters`` with
their centers' sites removed, the pairs and their overlap signatures are
computed in bulk, and type_edges places the edges.  Every residual of slice
t has weight kk = k - t, so every type has the same candidate block:
(half1, half2) choices times free-slot choices with letters.  The patterns
are built once per slice and gathered against each type's supports, letters
and free sites into (site, letter) arrays for Q and R; candidates with the
commuting sign are kept, conditions 1-3 are checked on dense letters in one
vectorized pass, and both endpoints are ranked by the batch kernel
SliceIndex.rank_batch.  Chunks of at most CHUNK_CANDIDATES candidates bound
the working memory, and one lexsort puts the edges in store order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .instances import Instance, check_eps
from .kikuchi_even import EDGE_BUDGET, KikuchiGraph
from .pauli import _CODE_PAIR, PauliOp, SliceIndex, canonical_key, site_mask, words_to_arrays


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

    def nonempty_levels(self) -> list[int]:
        return sorted({b.t for b in self.buckets}, reverse=True)

    def dump(self) -> str:
        """One line per bucket: "t=<t> U=<sparse word> ids=<comma list>"."""
        lines = [f"t={b.t} U={b.center.to_sparse()} ids=" + ",".join(str(c) for c in b.cids)
                 for b in self.buckets]
        return "\n".join(lines) + "\n"


def regularity_decompose(inst: Instance, ell: int, eps: float) -> BipartiteDecomposition:
    """Greedy bucketing by shared subwords, t = k down to 1, then the residual pass.

    Each level builds its count table once and walks the centers ready in it
    in canonical word order, taking tau still-remaining members at a time in
    ascending constraint id.  Counts only fall as buckets are taken, so no
    center below the current one becomes ready again; the output is the one
    a rescan after every bucket would give, and it is deterministic.
    """
    check_eps(eps)
    if ell < inst.k / 2:
        raise ValueError(f"need ell >= k/2, got ell={ell}, k={inst.k}")
    n, k = inst.n, inst.k
    words = [c.pauli for c in inst.constraints]
    remaining = set(range(inst.m))
    buckets: list[Bucket] = []
    warnings: list[str] = []

    for t in range(k, 0, -1):
        tau = tau_threshold(n, k, ell, eps, t)
        counts: dict[PauliOp, list[int]] = {}
        for cid in sorted(remaining):
            w = words[cid]
            for sub in combinations(w.support(), t):
                counts.setdefault(w.restrict(site_mask(sub)), []).append(cid)
        ready = sorted((u for u, lst in counts.items() if len(lst) >= tau), key=canonical_key)
        for center in ready:
            members = [cid for cid in counts[center] if cid in remaining]
            for i in range(0, len(members) - tau + 1, tau):
                take = tuple(members[i:i + tau])
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


def residuals(dec: BipartiteDecomposition, inst: Instance,
              t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The rows of slice t, bucket by bucket in member order, as residuals P~_C.

    Returns int64 bucket ids and constraint ids, shape (R,), and the residuals
    (the ``tilde_word`` of each row) as (R, k - t) int64 ascending sites and
    int8 letter codes: the row's sites and letters off its center's t sites.
    """
    bids = [bid for bid, b in enumerate(dec.buckets) if b.t == t]
    sizes = [len(dec.buckets[bid].cids) for bid in bids]
    cids = np.array([cid for bid in bids for cid in dec.buckets[bid].cids], dtype=np.int64)
    centers = words_to_arrays([dec.buckets[bid].center for bid in bids], inst.n, t)[0]
    sites = inst.sites[cids]
    on_center = (sites[:, :, None] == np.repeat(centers, sizes, axis=0)[:, None, :]).any(axis=2)
    assert (on_center.sum(axis=1) == t).all(), "a residual does not have weight k - t"
    shape = (len(cids), inst.k - t)
    return (np.repeat(np.array(bids, dtype=np.int64), sizes), cids,
            sites[~on_center].reshape(shape), inst.letters[cids][~on_center].reshape(shape))


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
    _, cids, _, _ = residuals(dec, inst, t)
    if not len(cids):
        raise ValueError(f"slice t={t} is empty")
    return CSOperator(
        t=t,
        num_centers=len(dec.slice(t)),
        num_constraints=len(cids),
        total_m=inst.m,
        k=inst.k,
        sum_b_sq=float(sum(c ** 2 for c in inst.coeffs[cids].tolist())),
    )


# -- pair counting -------------------------------------------------------------


def check_free_sites(n: int, k: int, t: int, ell: int) -> None:
    """Raise ValueError unless the 2n - 2(k-t) sites off the two residuals can hold
    the ell - (k-t) free slots of a vertex pair at level t."""
    kk = k - t
    if 2 * n - 2 * kk < ell - kk:
        raise ValueError("not enough free sites for the level")


def delta_count_odd(n: int, k: int, t: int, ell: int) -> Fraction:
    """Exact uniform pair weight per ordered residual pair:

    (1/2) C(k-t, ceil) C(k-t, floor) C(2n-2(k-t), ell-(k-t)) 3^(ell-(k-t)) 2^[k-t odd].
    """
    kk = k - t
    if not 0 <= kk <= k:
        raise ValueError(f"need 0 <= t <= k, got t={t}, k={k}")
    if ell < kk:
        raise InfeasibleLevelError(f"need ell >= k-t, got ell={ell}, k-t={kk}")
    check_free_sites(n, k, t, ell)
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


@dataclass
class OddKikuchiGraph(KikuchiGraph):
    """Odd graph of slice t: type id i of the shared store is the ordered constraint
    pair ``pairs[i]``, whose weight is ``weights[i] = rho[i] * signs[i]``."""

    t: int
    pairs: np.ndarray = field(repr=False)  # (T, 2) int64: (cid, cid2)
    rho: np.ndarray = field(repr=False)  # (T,) float64: (|C| + |A|) / (2 |C|), rounded once
    signs: np.ndarray = field(repr=False)  # (T,) float64: b_C * b_C'
    labels_commute: np.ndarray = field(repr=False)  # (T,) bool: the residuals commute
    skipped: list[tuple[int, int, int, float]]  # (bucket_id, cid, cid2, |b b'|)

    def type_columns(self) -> list[str]:
        return [f"{cid} {w!r} pair={cid}:{cid2}"
                for (cid, cid2), w in zip(self.pairs.tolist(), self.weights.tolist())]


# Candidates per chunk of type_edges.  Its working memory is a few arrays of
# this many rows (ell sites, ell letters or 2n dense letters each), whatever
# the size of the slice.
CHUNK_CANDIDATES = 1 << 16

# symplectic code x | z << 1 of rank code (X, Y, Z) = (0, 1, 2), with which the
# letter of a product of two letters is their XOR
_SYM = np.array(_CODE_PAIR, dtype=np.int8)


def _index_rows(rows: list[tuple[int, ...]], width: int) -> np.ndarray:
    return np.array(rows, dtype=np.int64).reshape(len(rows), width)


def _halves(kk: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions, among the 2kk residual sites (supp(P), then supp(P') shifted by n),
    that Q takes and that R takes: one (H, kk) row pair per (half1, half2) choice."""
    q_take, r_take = [], []
    for s1, s2 in _splits(kk):
        for half1 in combinations(range(kk), s1):
            for half2 in combinations(range(kk, 2 * kk), s2):
                q_take.append(half1 + half2)
                r_take.append(tuple(i for i in range(2 * kk) if i not in q_take[-1]))
    return _index_rows(q_take, kk), _index_rows(r_take, kk)


def _check_edges(n: int, kk: int, q: tuple[np.ndarray, np.ndarray],
                 r: tuple[np.ndarray, np.ndarray], target: np.ndarray) -> None:
    """Conditions 1-3 on dense letters, one row per edge (Q, R).

    ``q`` and ``r`` are (sites, letter codes) arrays of the endpoints on 2n
    sites; ``target`` holds the (2n,) letters of P (x) P'.  Q1 R1 = P and Q2 R2 = P'
    with phase +1 and the clean split hold iff no site carries two different
    non-identity letters and the letterwise product (XOR) is the target.
    """
    qd = np.zeros(target.shape, dtype=np.int8)
    rd = np.zeros(target.shape, dtype=np.int8)
    np.put_along_axis(qd, q[0], _SYM[q[1]], axis=1)
    np.put_along_axis(rd, r[0], _SYM[r[1]], axis=1)
    clean = (qd == 0) | (rd == 0) | (qd == rd)
    assert clean.all() and np.array_equal(qd ^ rd, target), "edge product is not +P (x) P'"
    on_res = (qd != 0) & (target != 0)
    s1, s2 = on_res[:, :n].sum(axis=1), on_res[:, n:].sum(axis=1)
    assert ((s1 + s2 == kk) & (np.abs(s1 - s2) <= 1)).all(), "edge splits a residual unevenly"
    q2, p = qd[:, n:], target[:, :n]
    assert not (((q2 != 0) & (p != 0) & (q2 != p)).sum(axis=1) % 2).any(), \
        "edge endpoints fail the commuting sign"


def type_edges(n: int, sites: np.ndarray, letters: np.ndarray, first, second,
               ell: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges meeting conditions 1-3 for the types (row first[i], row second[i]).

    ``sites`` and ``letters`` hold residuals of one weight kk on n qubits, one
    per row: (R, kk) ascending sites and letter codes.  Every type has the
    same candidate block: a (half1, half2) choice times ell - kk free slots
    (off supp(P) in component 1, off supp(P') in component 2) with letters.
    The candidates of all types are made at once as (site, letter) arrays,
    in chunks of at most CHUNK_CANDIDATES, and ranked by
    ``SliceIndex(2n, ell).rank_batch``.  Returns int64 (rows, cols, tids),
    tid i for type i, ordered by (tid, row, col).
    """
    first = np.asarray(first, dtype=np.int64)
    second = np.asarray(second, dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)
    if not len(first):
        return empty, empty, empty
    kk = sites.shape[1]
    L = ell - kk
    if L < 0:
        raise InfeasibleLevelError(f"need ell >= {kk}, got {ell}")
    index = SliceIndex(2 * n, ell)

    dense = np.zeros((len(sites), n), dtype=np.int8)  # symplectic codes, 0 off the support
    np.put_along_axis(dense, sites, _SYM[letters], axis=1)
    off = np.nonzero(dense == 0)[1].reshape(len(sites), n - kk)
    p, q = dense[first], dense[second]
    sup_p, sup_q, off_q = sites[first], sites[second], off[second]
    res_sites = np.concatenate((sup_p, sup_q + n), axis=1)
    res_rank = np.concatenate((letters[first], letters[second]), axis=1)
    res_sym = _SYM[res_rank]
    free_sites = np.concatenate((off[first], off_q + n), axis=1)
    target = np.concatenate((p, q), axis=1)
    # the commuting sign: sites of Q2 where P acts with another letter, counted
    # on the residual sites of component 2 and on its free slots
    p_on_q = np.take_along_axis(p, sup_q, axis=1)
    anti_res = np.concatenate((np.zeros_like(sup_p, dtype=bool),
                               (p_on_q != 0) & (p_on_q != res_sym[:, kk:])), axis=1)
    p_free = np.concatenate((np.zeros((len(first), n - kk), dtype=np.int8),
                             np.take_along_axis(p, off_q, axis=1)), axis=1)

    q_take, r_take = _halves(kk)
    anti_h = anti_res[:, q_take].sum(axis=2)  # (T, H)
    slot_sets = _index_rows(list(combinations(range(2 * n - 2 * kk), L)), L)
    letter_sets = _index_rows(list(product(range(3), repeat=L)), L)
    num_free = len(slot_sets) * len(letter_sets)
    f_step = min(num_free, max(1, CHUNK_CANDIDATES // len(q_take)))
    t_step = max(1, CHUNK_CANDIDATES // (len(q_take) * f_step))

    parts = []
    for t0 in range(0, len(first), t_step):
        for f0 in range(0, num_free, f_step):
            f = np.arange(f0, min(f0 + f_step, num_free))
            f_slots, f_letters = slot_sets[f // len(letter_sets)], letter_sets[f % len(letter_sets)]
            pf = p_free[t0:t0 + t_step][:, f_slots]
            anti_f = ((pf != 0) & (pf != _SYM[f_letters])).sum(axis=2)  # (Tc, Fc)
            keep = (anti_h[t0:t0 + t_step, :, None] + anti_f[:, None, :]) % 2 == 0
            ti, hi, fi = np.nonzero(keep)
            tt = ti + t0
            free_s, free_l = free_sites[tt[:, None], f_slots[fi]], f_letters[fi]
            ends = [(np.concatenate((res_sites[tt[:, None], take[hi]], free_s), axis=1),
                     np.concatenate((res_rank[tt[:, None], take[hi]], free_l), axis=1))
                    for take in (q_take, r_take)]
            _check_edges(n, kk, *ends, target[tt])
            parts.append((index.rank_batch(*ends[0]), index.rank_batch(*ends[1]), tt))

    rows, cols, tids = (np.concatenate(col) for col in zip(*parts))
    order = np.lexsort((cols, rows, tids))
    return rows[order], cols[order], tids[order]


def _bucket_pairs(sizes: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Row indices (a, b), a != b, of the ordered pairs of rows in one bucket, rows
    numbered bucket by bucket: by bucket, then a, then b."""
    sizes = np.array(sizes, dtype=np.int64)
    per_row = np.repeat(sizes, sizes)  # the size of each row's bucket
    first = np.repeat(np.arange(len(per_row)), per_row)
    offset = np.arange(len(first)) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    second = np.repeat(np.repeat(np.cumsum(sizes) - sizes, sizes), per_row) + offset
    keep = first != second
    return first[keep], second[keep]


def build_odd(dec: BipartiteDecomposition, inst: Instance, t: int, ell: int) -> OddKikuchiGraph:
    """Odd Kikuchi graph of slice t: commuting-condition edges for every ordered bucket pair.

    Types are the ordered pairs by bucket, then cid, then cid2 (in member
    order), without the skipped ones.  Edges are stored type by type, each
    type's (row, col) pairs ascending; ``type_edges`` builds all of them.
    """
    n, k = inst.n, inst.k
    delta_t = delta_count_odd(n, k, t, ell)
    index = SliceIndex(2 * n, ell)
    sizes = [len(b.cids) for b in dec.slice(t)]
    if not any(sizes):
        raise ValueError(f"slice t={t} is empty")

    est = 2 * float(delta_t) * sum(s * (s - 1) for s in sizes)
    if est > EDGE_BUDGET:
        raise MemoryError(f"estimated {est:.2e} edge candidates exceeds budget {EDGE_BUDGET:.1e}")

    bids, cids, sites, letters = residuals(dec, inst, t)
    first, second = _bucket_pairs(sizes)
    shared = sites[first][:, :, None] == sites[second][:, None, :]
    agree = (shared & (letters[first][:, :, None] == letters[second][:, None, :])).sum(axis=(1, 2))
    differ = shared.sum(axis=(1, 2)) - agree
    # (commuting, anticommuting) counts once per overlap signature (agree, differ)
    kk = k - t
    sigs, inverse = np.unique(agree * (kk + 1) + differ, return_inverse=True)
    counts = [_rho_counts_signature(n, ell, kk, e, d)
              for e, d in zip((sigs // (kk + 1)).tolist(), (sigs % (kk + 1)).tolist())]
    assert all(nc + na == 2 * delta_t for nc, na in counts), "weighted pair count != Delta_t"
    nc = np.array([c for c, _ in counts], dtype=np.int64)[inverse]
    # rho is read only where nc > 0: the others are skipped types
    rho = np.array([(c + a) / (2 * c) if c else math.nan for c, a in counts])[inverse]
    signs = inst.coeffs[cids[first]] * inst.coeffs[cids[second]]
    pairs = np.column_stack((cids[first], cids[second]))

    skip = nc == 0
    skipped = list(zip(bids[first][skip].tolist(), *pairs[skip].T.tolist(),
                       np.abs(signs[skip]).tolist()))
    place = ~skip
    rows, cols, tids = type_edges(n, sites, letters, first[place], second[place], ell)
    assert np.array_equal(np.bincount(tids, minlength=place.sum()), nc[place]), \
        "enumerated commuting count != closed form"
    return OddKikuchiGraph(
        n=n, k=k, ell=ell, index=index, delta=delta_t, rows=rows, cols=cols, tids=tids,
        weights=rho[place] * signs[place], t=t, pairs=pairs[place], rho=rho[place],
        signs=signs[place], labels_commute=differ[place] % 2 == 0, skipped=skipped)


# -- local degrees and edge deletion --------------------------------------------


def _partner_counts(graph: OddKikuchiGraph):
    """Distinct partner counts per (vertex, constraint, side) over the graph's edges.

    Keys are encoded as (q * C + cid) * 2 + side with C above every
    constraint id, so ascending codes are ascending (q, cid, side) tuples.
    Returns (ascending key codes, partner counts, C).
    """
    span = int(graph.pairs.max()) + 1 if len(graph.pairs) else 1
    q, a, b = graph.rows, graph.pairs[graph.tids, 0], graph.pairs[graph.tids, 1]
    # (key, partner) pairs: side 0 keys (q, cid) with partner cid2, side 1 the reverse;
    # np.unique would hash them, far slower than this sort
    codes = np.sort(np.concatenate((((q * span + a) * 2) * span + b,
                                    ((q * span + b) * 2 + 1) * span + a)))
    keys = codes[np.diff(codes, prepend=-1) != 0] // span
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[starts], np.diff(starts, append=len(keys)), span


def local_degrees(graph: OddKikuchiGraph) -> dict[tuple[int, int, int], int]:
    """Counts of distinct partners per (vertex, constraint, side).

    Key (q, cid, 0) counts partners C' with an edge from q typed (cid, C');
    (q, cid, 1) counts partners typed (C', cid).  Zero entries are omitted.
    """
    keys, counts, span = _partner_counts(graph)
    return {(key // (2 * span), key // 2 % span, key % 2): count
            for key, count in zip(keys.tolist(), counts.tolist())}


def max_local_degree(graph: OddKikuchiGraph) -> int:
    table = local_degrees(graph)
    return max(table.values()) if table else 0


def edge_delete(graph: OddKikuchiGraph, eta: int) -> tuple[OddKikuchiGraph, float]:
    """Prune to eta-bounded local degree, then equalize per-type deleted fractions.

    Phase 1 repeatedly deletes the canonically-lowest edge, by (pair, type
    id), at the lowest (vertex, constraint, side) whose partner count exceeds
    eta (in one ascending pass, as counts only fall).  Phase 2 computes the
    max deleted fraction gamma over ordered types and deletes further edges
    (lowest pair first) until every type has lost ceil(gamma * count) edges,
    as close as pairing integrality allows.  Deleting an edge of a
    commuting-label (transpose-closed) type also deletes its mirror.
    Returns the pruned graph and gamma.
    """
    if eta < 1:
        raise ValueError(f"need eta >= 1, got {eta}")
    rows, cols, tids = graph.rows, graph.cols, graph.tids
    keep = np.ones(graph.num_edges, dtype=bool)
    initial = graph.type_counts().tolist()
    # the edges of type i, in store order, are by_type[bounds[i]:bounds[i + 1]]
    by_type = np.argsort(tids, kind="stable")
    bounds = np.cumsum([0] + initial)

    def delete(e: int) -> int:
        keep[e] = False
        tid, q, r = tids[e], rows[e], cols[e]
        if not graph.labels_commute[tid] or q == r:
            return 1
        same = by_type[bounds[tid]:bounds[tid + 1]]
        mirror = same[keep[same] & (rows[same] == r) & (cols[same] == q)][:1]
        keep[mirror] = False
        return 1 + len(mirror)

    side_cids = graph.pairs.T
    # a key's partner count is at most the number of types its constraint has on
    # that side, so phase 1 has nothing to delete unless that number exceeds eta
    if any(np.bincount(c, minlength=1).max() > eta for c in side_cids):
        keys, counts, span = _partner_counts(graph)
        by_row = np.argsort(rows, kind="stable")
        for key in keys[counts > eta].tolist():
            q, cid, side = key // (2 * span), key // 2 % span, key % 2
            cand = by_row[slice(*np.searchsorted(rows, (q, q + 1), sorter=by_row))]
            cand = cand[keep[cand] & (side_cids[side][tids[cand]] == cid)]
            # lowest (col, type id) first; lexsort is stable, so ties keep store order
            cand = cand[np.lexsort((tids[cand], cols[cand]))]
            # deleting cand[:j] leaves the partners whose last edge sits at j or later
            partners = side_cids[1 - side][tids[cand]]
            last = len(cand) - 1 - np.unique(partners[::-1], return_index=True)[1]
            if len(last) > eta:
                for e in cand[:np.sort(last)[-eta - 1] + 1].tolist():
                    delete(e)

    kept = np.bincount(tids[keep], minlength=len(initial)).tolist()
    gamma = max([(n0 - n1) / n0 for n0, n1 in zip(initial, kept) if n0], default=0.0)
    for tid, n0 in enumerate(initial):
        need = math.ceil(gamma * n0 - 1e-12) - (n0 - kept[tid])
        for e in by_type[bounds[tid]:bounds[tid + 1]].tolist():
            if need <= 0:
                break
            if keep[e]:
                need -= delete(e)

    return replace(graph, rows=rows[keep], cols=cols[keep], tids=tids[keep]), gamma
