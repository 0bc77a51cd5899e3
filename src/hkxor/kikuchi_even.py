"""Even-arity Kikuchi graphs over weight-ell Pauli words, plus the full-group variant.

For even k and a weight-k word P, vertices are the 3^ell * C(n, ell) words of
weight ell; (Q, R) is an edge iff Q*R = P exactly and Q, R overlap on exactly
ell - k/2 sites.  Equivalently: on supp(P) exactly one of Q, R is non-trivial
and agrees with P there (half of supp(P) each), and off supp(P) the two words
are identical.  Such endpoints always commute and the product phase is +1;
the product is checked during construction.

Edges are generated per constraint by direct combinatorial enumeration (the
Delta pairs), never by scanning all N^2 vertex pairs: each half of supp(P),
read off the instance's site and letter columns, times each word of the
weight-(ell - k/2) slice on the n - k sites off supp(P).  Entries are ordered
(row, col) pairs; the edge set is closed under transposition, so the signed
adjacency is symmetric.

The even, odd (kikuchi_odd) and level-n graphs share one typed COO store,
KikuchiGraph: one (row, col, type id) entry per directed edge and one signed
weight per type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, islice, repeat
from operator import eq

import numpy as np
import scipy.sparse as sp

from .instances import Instance
from .oracle import ResourceGuardError, dense_word
from .pauli import PauliOp, SliceIndex, mask_arrays, mul_words, slice_arrays

LEVEL_N_QUBIT_CAP = 6
# most edges (even) or edge candidates (odd) one graph build may make
EDGE_BUDGET = 20_000_000
# build_even computes the endpoint masks of about _EDGE_BLOCK edges at a time, which
# bounds its arrays, and turns _WORD_BLOCK of them at a time into words, few enough
# that the words are still in cache when they are multiplied and ranked
_EDGE_BLOCK = 1 << 14
_WORD_BLOCK = 1 << 8


class DegenerateRegularizerError(ValueError):
    """Raised when regularizing an empty graph (average degree zero)."""


@dataclass
class KikuchiGraph:
    """Typed sparse signed adjacency over a canonical vertex enumeration.

    Directed edge e runs from ``rows[e]`` to ``cols[e]`` and carries the
    signed weight ``weights[tids[e]]`` of the type that placed it: a
    constraint (even), a term (level-n) or an ordered constraint pair (odd).
    ``delta`` is the exact (weighted) ordered pair count per type.  Each edge
    adds |w|/2 to the degree of both endpoints, and the signed matrix is the
    symmetrization (E + E^T)/2 of the directed entries.
    """

    n: int
    k: int
    ell: int
    index: SliceIndex
    delta: int | Fraction
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)
    tids: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def num_vertices(self) -> int:
        return self.index.size

    @property
    def num_edges(self) -> int:
        return len(self.rows)

    def type_counts(self) -> np.ndarray:
        """Number of directed edges of each type."""
        return np.bincount(self.tids, minlength=len(self.weights))

    def _endpoints(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Interleaved entries (q, r), (r, q) per edge with half its signed weight."""
        half = np.repeat(self.weights[self.tids] / 2.0, 2)
        return (np.column_stack((self.rows, self.cols)).ravel(),
                np.column_stack((self.cols, self.rows)).ravel(), half)

    @property
    def degrees(self) -> np.ndarray:
        """Unsigned weighted degree vector: |w|/2 at both endpoints of every edge.

        Summed over the rows of ``_endpoints``, the ends q, r of each edge in
        turn as signed_matrix interleaves them: the summation order fixes the
        float result.
        """
        ends, _, half = self._endpoints()
        return np.bincount(ends, weights=np.abs(half), minlength=self.num_vertices)

    @property
    def total_degree(self) -> float:
        """Sum of |w| over directed edges, accumulated type by type (|w| * count)."""
        return running_sum(np.abs(self.weights) * self.type_counts())

    @property
    def average_degree(self) -> float:
        return self.total_degree / self.num_vertices if self.num_vertices else 0.0

    def signed_matrix(self) -> sp.csr_matrix:
        """N x N symmetric signed adjacency (E + E^T)/2, duplicate entries summed."""
        size = self.num_vertices
        rows, cols, vals = self._endpoints()
        return sp.csr_matrix((vals, (rows, cols)), shape=(size, size))

    def type_columns(self) -> list[str]:
        """Per type, the dump columns after "row col": "<type id> <weight>"."""
        return [f"{tid} {w!r}" for tid, w in enumerate(self.weights.tolist())]


def running_sum(*parts) -> float:
    """The values of ``parts`` added one at a time in order, bit for bit as Python
    3.11's ``sum`` adds floats (0.0, then each value in turn): ``np.cumsum`` adds
    in order, where ``np.sum`` adds pairwise."""
    return float(np.cumsum(np.concatenate(([0.0], *parts)))[-1])


def _sorted_graph(n: int, k: int, ell: int, index, delta: int, rows, cols, tids,
                  weights) -> KikuchiGraph:
    """Graph with entries in ascending (row, col, type id) order."""
    rows_a, cols_a, tids_a = (np.asarray(v, dtype=np.int64) for v in (rows, cols, tids))
    order = np.lexsort((tids_a, cols_a, rows_a))
    return KikuchiGraph(n=n, k=k, ell=ell, index=index, delta=delta, rows=rows_a[order],
                        cols=cols_a[order], tids=tids_a[order],
                        weights=np.array(weights, dtype=np.float64))


def delta_count(n: int, k: int, ell: int) -> int:
    """Exact ordered pair count per constraint: C(k,k/2) C(n-k,ell-k/2) 3^(ell-k/2)."""
    if k % 2 != 0:
        raise ValueError(f"k must be even, got {k}")
    if not k // 2 <= ell <= n:
        raise ValueError(f"need k/2 <= ell <= n, got k={k}, ell={ell}, n={n}")
    return math.comb(k, k // 2) * math.comb(n - k, ell - k // 2) * 3 ** (ell - k // 2)


def average_degree_bound(n: int, k: int, ell: int, m: int) -> float:
    """Lower bound (ell / 3n)^(k/2) * m on the average degree of a built graph."""
    return (ell / (3 * n)) ** (k // 2) * m


def build_even(inst: Instance, ell: int) -> KikuchiGraph:
    """Level-ell Kikuchi graph of an even-arity instance: one edge type per constraint.

    The endpoint masks are built as arrays, a block of constraints at a time:
    P on each half of supp(P) and the shared words on the n - k sites off
    supp(P).  Each edge then pays one ``mul_words`` call for the +P check and
    two ``SliceIndex.rank`` calls, all driven by ``map``.  Its endpoints are
    bare ``(n, xmask, zmask)`` triples, which both callees read as a word's
    fields, so no ``PauliOp`` is made or checked: a sub-mask of P's word OR'd
    with a word off supp(P) is in range by construction, the precondition
    ``mul_words`` leaves to its caller.
    """
    n, k = inst.n, inst.k
    if k % 2 != 0:
        raise ValueError(f"even-arity builder needs even k, got k={k}; use the odd pipeline")
    if not k // 2 <= ell <= n // 2:
        raise ValueError(f"need k/2 <= ell <= n/2, got k={k}, ell={ell}, n={n}")
    delta = delta_count(n, k, ell)
    edges = inst.m * delta
    if edges > EDGE_BUDGET:
        raise ResourceGuardError(f"{edges:.2e} edges exceeds budget {EDGE_BUDGET:.1e}")

    index = SliceIndex(n, ell)
    rank = index.rank
    rows = np.empty(edges, dtype=np.int64)
    cols = np.empty(edges, dtype=np.int64)
    # the columns of each half of supp(P), in combinations order
    halves = np.array(list(combinations(range(k), k // 2)), dtype=np.intp).reshape(-1, k // 2)
    # the words Q and R may share off supp(P): the weight-(ell - k/2) slice on n - k sites,
    # its site j moved to the j-th site off supp(P), which keeps the slice's order
    shared_sites, shared_letters = slice_arrays(n - k, ell - k // 2)
    block = max(1, _EDGE_BLOCK // delta)
    at = 0

    for first in range(0, inst.m, block):
        sites, letters = inst.sites[first:first + block], inst.letters[first:first + block]
        px, pz = mask_arrays(n, sites, letters)
        qx, qz = mask_arrays(n, sites[:, halves], letters[:, halves])  # P on each half
        rx, rz = px[:, None] ^ qx, pz[:, None] ^ qz  # P on the rest of supp(P)
        # site j off supp(P) is j plus the sites s_i of supp(P) with s_i - i <= j
        below = (sites - np.arange(k))[:, None, None, :] <= shared_sites[..., None]
        sx, sz = mask_arrays(n, shared_sites + below.sum(axis=-1), shared_letters)
        # edge (constraint, half, shared word), in that order: delta per constraint
        qx, qz, rx, rz = ((h[:, :, None] | w[:, None, :]).ravel()
                          for h, w in ((qx, sx), (qz, sz), (rx, sx), (rz, sz)))
        # +P, as (word, phase exponent 0), once for each of a constraint's delta edges
        plus_p = chain.from_iterable(map(repeat, zip(zip(repeat(n), px.tolist(), pz.tolist()),
                                                     repeat(0)), repeat(delta)))
        for lo in range(0, len(qx), _WORD_BLOCK):
            hi = lo + _WORD_BLOCK
            qs = list(zip(repeat(n), qx[lo:hi].tolist(), qz[lo:hi].tolist()))
            rs = list(zip(repeat(n), rx[lo:hi].tolist(), rz[lo:hi].tolist()))
            # q r = +P with P Hermitian gives r q = (q r)^dag = q r, so q and r commute
            if not all(map(eq, map(mul_words, qs, rs), islice(plus_p, len(qs)))):
                raise AssertionError("edge product is not +P")
            rows[at:at + len(qs)] = np.fromiter(map(rank, qs), dtype=np.int64, count=len(qs))
            cols[at:at + len(rs)] = np.fromiter(map(rank, rs), dtype=np.int64, count=len(rs))
            at += len(qs)

    # every constraint places exactly delta edges, in constraint order
    tids = np.repeat(np.arange(inst.m), delta)
    return _sorted_graph(n, k, ell, index, delta, rows, cols, tids, inst.coeffs)


def regularize(graph: KikuchiGraph) -> np.ndarray:
    """The diagonal of Gamma = D + d*Id of a built graph, d its average degree;
    Tr(Gamma) equals twice the total degree."""
    total = graph.total_degree
    if total <= 0:
        raise DegenerateRegularizerError("cannot regularize an empty graph")
    gamma = graph.degrees + total / graph.num_vertices
    if not abs(gamma.sum() - 2 * total) <= 1e-9 * max(1.0, 2 * total):
        raise AssertionError("Tr(Gamma) != twice the total degree")
    return gamma


def dump_graph(graph: KikuchiGraph) -> str:
    """Debug/golden dump: "KIKUCHI v1 n k ell N E" then one "row col <type columns>" line per edge.

    The type columns are "cid weight" for even graphs, "term weight" for
    level-n graphs and "cid weight pair=<cid>:<cid2>" for odd graphs.
    """
    columns = graph.type_columns()
    lines = [f"KIKUCHI v1 {graph.n} {graph.k} {graph.ell} {graph.num_vertices} {graph.num_edges}"]
    lines.extend(f"{q} {r} {columns[t]}" for q, r, t in
                 zip(graph.rows.tolist(), graph.cols.tolist(), graph.tids.tolist()))
    return "\n".join(lines) + "\n"


# -- full-group (level-n) variant ---------------------------------------------


class FullGroupIndex:
    """Bijection between all 4^n phase-free words and [0, 4^n): rank = (x << n) | z."""

    def __init__(self, n: int):
        self.n = n
        self.size = 4**n

    def rank(self, op: PauliOp) -> int:
        return (op.xmask << self.n) | op.zmask

    def unrank(self, index: int) -> PauliOp:
        return PauliOp(self.n, index >> self.n, index & ((1 << self.n) - 1))


def build_level_n(terms, n: int) -> KikuchiGraph:
    """Kikuchi graph over all 4^n words: (Q, R) is an edge of weight c(P) iff Q*R = P up to phase.

    ``terms`` is an iterable of (PauliOp, real coefficient) pairs on n
    qubits.  Gated to n <= 6 (4^n vertices).  One edge type per nonzero term;
    a NaN or infinite coefficient raises ValueError.
    The phase-free product XORs masks, so R = Q*P ranks as rank(Q) ^ rank(P).
    """
    if n > LEVEL_N_QUBIT_CAP:
        raise ResourceGuardError(f"level-n graph needs n <= {LEVEL_N_QUBIT_CAP}, got {n}")
    full = FullGroupIndex(n)
    terms = [(p, float(c)) for p, c in terms if c != 0]  # NaN != 0: kept, then refused
    if not all(math.isfinite(c) for _p, c in terms):
        raise ValueError("coefficients must be finite")
    if any(p.n != n for p, _c in terms):
        raise ValueError(f"every term of a level-n graph must act on n={n} qubits")

    ranks = np.array([full.rank(p) for p, _c in terms], dtype=np.int64)
    rows = np.tile(np.arange(full.size, dtype=np.int64), len(terms))
    cols = rows ^ np.repeat(ranks, full.size)
    tids = np.repeat(np.arange(len(terms), dtype=np.int64), full.size)
    # k = 0 marks the full-group variant (terms of mixed weight)
    return _sorted_graph(n, 0, n, full, full.size, rows, cols, tids,
                         [coeff for _p, coeff in terms])


def level_n_hatted(graph: KikuchiGraph) -> np.ndarray:
    """Phase-matched hatted operator: block (Q, R) holds weight * dense(Q)^dag dense(R).

    Equal to conjugating (signed adjacency tensor Id) by the block-diagonal
    unitary with blocks Q, so its spectrum matches the graph's.
    """
    n = graph.n
    if n > 3:
        raise ResourceGuardError("hatted operator is gated to n <= 3 (dimension 8^n)")
    dim = 1 << n
    size = graph.num_vertices
    out = np.zeros((size * dim, size * dim), dtype=complex)
    dense_cache = {i: dense_word(graph.index.unrank(i)) for i in range(size)}
    mat = graph.signed_matrix().tocoo()
    for qi, ri, w in zip(mat.row, mat.col, mat.data):
        if w == 0.0:
            continue
        block = dense_cache[qi].conj().T @ dense_cache[ri]
        out[qi * dim:(qi + 1) * dim, ri * dim:(ri + 1) * dim] += w * block
    return out
