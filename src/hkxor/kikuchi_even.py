"""Even-arity Kikuchi graphs over weight-ell Pauli words, plus the full-group variant.

For even k and a weight-k word P, vertices are the 3^ell * C(n, ell) words of
weight ell; (Q, R) is an edge iff Q*R = P exactly and Q, R overlap on exactly
ell - k/2 sites.  Equivalently: on supp(P) exactly one of Q, R is non-trivial
and agrees with P there (half of supp(P) each), and off supp(P) the two words
are identical.  Such endpoints always commute and the product phase is +1;
the product is asserted during construction.

Edges are generated per constraint by direct combinatorial enumeration (the
Delta pairs), never by scanning all N^2 vertex pairs: each half of supp(P),
read off the instance's site and letter columns, times each word of the
weight-(ell - k/2) slice that is disjoint from supp(P).  Entries are ordered
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
from itertools import combinations

import numpy as np
import scipy.sparse as sp

from .instances import Instance
from .oracle import ResourceGuardError, dense_word
from .pauli import (PauliOp, SliceIndex, enumerate_slice, masks_from_arrays, mul_words,
                    site_mask)

LEVEL_N_QUBIT_CAP = 6
# most edges (even) or edge candidates (odd) one graph build may make
EDGE_BUDGET = 20_000_000


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
    rows_a, cols_a, tids_a = (np.array(v, dtype=np.int64) for v in (rows, cols, tids))
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
    """Level-ell Kikuchi graph of an even-arity instance: one edge type per constraint."""
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
    rows: list[int] = []
    cols: list[int] = []
    # the words Q and R may share off supp(P): weight ell - k/2, disjoint from supp(P)
    shared_slice = list(enumerate_slice(n, ell - k // 2))

    for sites, px, pz in zip(inst.sites.tolist(), *masks_from_arrays(n, inst.sites, inst.letters)):
        word, supp = (n, px, pz), px | pz
        shared_words = [w for w in shared_slice if not (w.xmask | w.zmask) & supp]
        for half in combinations(sites, k // 2):
            q_mask = site_mask(half)
            qx, qz = px & q_mask, pz & q_mask  # P on the half
            rx, rz = px ^ qx, pz ^ qz  # P on the rest of supp(P)
            for shared in shared_words:
                q = PauliOp(n, qx | shared.xmask, qz | shared.zmask)
                r = PauliOp(n, rx | shared.xmask, rz | shared.zmask)
                prod = mul_words(q, r)
                # q r = +P with P Hermitian gives r q = (q r)^dag = q r, so q and r commute
                assert prod.op == word and prod.phase_exp == 0, "edge product is not +P"
                rows.append(rank(q))
                cols.append(rank(r))

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
    assert abs(gamma.sum() - 2 * total) <= 1e-9 * max(1.0, 2 * total)
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
    qubits.  Gated to n <= 6 (4^n vertices).  One edge type per nonzero term.
    The phase-free product XORs masks, so R = Q*P ranks as rank(Q) ^ rank(P).
    """
    if n > LEVEL_N_QUBIT_CAP:
        raise ValueError(f"level-n graph needs n <= {LEVEL_N_QUBIT_CAP}, got {n}")
    full = FullGroupIndex(n)
    terms = [(p, float(c)) for p, c in terms if abs(c) > 0]
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
        raise ValueError("hatted operator is gated to n <= 3 (dimension 8^n)")
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
