"""Spectral-norm estimation and the end-to-end ground-energy certificates.

The certified quantity is algval >= lambda_max(H) for
H = Id/2 + (1/2|H|) sum_C b_C P_C.

Even arity: build the level-ell Kikuchi graph, regularize with
Gamma = D + d*Id, and output

    algval = 1/2 + f * (sigma + tol * max(1, sigma)),
    sigma  = || Gamma^{-1/2} A* Gamma^{-1/2} ||_2,

where f = total_degree / (Delta * |H|) = (sum_C |b_C|) / |H|.  For +-1
coefficients f = 1; keeping the exact factor preserves soundness for
real-coefficient (Gaussian) instances.  The tol term is the solver's error
budget, added so soundness survives iterative-solver error.

Odd arity (also usable for even k): decompose, then per non-empty slice t
bound the squared slice operator by

    algval_t = 4 s Sum b_C^2                                  (constant term)
             + (s / W) * (sigma_t' * Tr(Gamma_t) + slack)     (norm term)
             + s * penalty                                    (skipped types)

with s = k^2 |U^(t)| / (4 |H|^2), sigma_t' the margin-padded norm of the
regularized pruned graph, W the minimum surviving per-type weighted pair
count rho * count' (equal to Delta_t when nothing was deleted), slack the
|b_C b_C'|-weighted excess sum of (rho * count' - W), and penalty the
|b_C b_C'| mass of types that placed no edges.  Finally

    algval = 1/2 + sum_t sqrt(max(0, algval_t)) / k.

Every norm is taken per connected component of the matrix, since the norm
of a block-diagonal matrix is the largest norm of its blocks: components of
at most oracle.DENSE_DIM vertices are solved exactly by batched dense
eigvalsh, each larger one by the oracle's ``ritz_pair`` on its squared
operator (``oracle.squared_operator``).  Each value comes with a residual r
that proves |value - |lambda|| <= r for some eigenvalue lambda of its
component, and a larger component's r is checked against the tolerance;
that this lambda is the larger component's largest in absolute value is
ARPACK's claim, not proved.  The symmetry check and the ARPACK step are
the oracle's (``check_hermitian``, ``ritz_pair``), so certify and the
ground truth share one Hermitian eigen-kernel.  For a given BLAS build and
thread count, every certificate is deterministic given (instance bytes, ell,
eps, tol, solver seed): the iterative eigensolver starts from a seeded
vector.  Another thread count can move the last bits of a residual, as
BLAS reductions then add in another order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .instances import Instance, check_eps, digest, over_eps_power
from .kikuchi_even import build_even, regularize, running_sum
from .kikuchi_odd import (build_odd, check_feasible_level, check_free_sites, cs_operator,
                          edge_delete, regularity_decompose)
from .oracle import DENSE_DIM, ResourceGuardError, check_hermitian, ritz_pair, squared_operator

DEFAULT_TOL = 1e-6
ETA_CONST = 3
# most nonzeros trace_moment may hold in one sparse power
TRACE_BUDGET_NNZ = 50_000_000
# most dense entries one batched eigvalsh call holds (a chunk of equal-size blocks)
CHUNK_ENTRIES = 1 << 18


class SpectralNormError(RuntimeError):
    def __init__(self, message: str, best_estimate: float | None = None):
        super().__init__(message)
        self.best_estimate = best_estimate


def check_tol(tol: float) -> None:
    """Raise ValueError unless tol is finite and positive, as the algval margin needs."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"need finite tol > 0, got {tol}")


def check_seed(seed: int) -> None:
    """Raise ValueError unless 0 <= seed < 2**128, the key range of the solver's Philox."""
    if not 0 <= seed < 2**128:
        raise ValueError(f"solver seed must be in [0, 2**128), got {seed}")


def spectral_norm(matrix, tol: float = DEFAULT_TOL, seed: int = 0) -> tuple[float, float]:
    """(sigma, residual): the largest |eigenvalue| over the connected components,
    exact for those of at most DENSE_DIM vertices and ARPACK's for larger ones.

    What is proved is that |sigma - |lambda|| <= residual for some eigenvalue
    lambda of the winning component, and for a larger component the residual
    is checked to be at most tol * max(1, sigma).  That no eigenvalue of a
    larger component exceeds its sigma in absolute value is ARPACK's claim,
    not proved: the residual check does not see a missed top eigenvalue.

    Accepts a symmetric real sparse or dense matrix of any real dtype and works
    in float64; a complex dtype, or a matrix that ``oracle.check_hermitian``
    refuses, raises ValueError.  Its norm is the largest norm of its connected
    components, formed on the nonzero entries (a stored zero joins nothing),
    so rows without nonzero entries are dropped and the rest permuted by
    (component size, label): each component becomes one contiguous diagonal
    block.  One walk over the distinct component sizes, ascending, solves
    each.  The components of one size s <= DENSE_DIM are solved exactly by
    batched dense eigvalsh, in chunks of max(1, CHUNK_ENTRIES // s^2) blocks
    read by row range from one COO of the small rows; the first block that
    attains the norm keeps it, and its residual is that of its dense ``eigh``
    pair, which bounds a symmetric matrix's eigenvalue error.

    Each larger component M is solved by its own ``oracle.ritz_pair`` call on
    the squared operator S S, S = uM for the power of two u that puts
    max|S_ij| in [1/2, 1) (exact, so that S S neither overflows nor
    underflows), started from the seeded Philox vector of the whole matrix
    restricted to that block.  S S is never formed: ``oracle.squared_operator``
    applies S twice by scipy's CSR kernel, so every row is summed in stored
    order.  With theta the top Ritz value and r2 its residual,
    sigma = sqrt(max(theta, 0)) / u and the residual is r2 / (u sqrt(theta))
    (sqrt(r2) / u when that is smaller, so theta = 0 needs no division).
    This bounds the error: the eigenvalues of S S are the (u lambda)^2 for
    the eigenvalues lambda of M, so |theta - (u lambda)^2| <= r2 for one of
    them, and
    |sqrt(theta) - u|lambda|| = |theta - (u lambda)^2| / (sqrt(theta) + u|lambda|)
    <= r2 / sqrt(theta).  Squaring merges a near +-pair at the two ends of the
    spectrum into the top of a PSD one, which Lanczos resolves in fewer steps
    than the largest |eigenvalue| of M.

    sigma is the largest of the parts (a large component wins a tie with the
    parts before it), and residual is the winning part's; for a given BLAS
    build and thread count the result depends only on (matrix, seed).  A
    failed solve raises SpectralNormError whose best_estimate, the largest of
    the partial Ritz values theta turned into norms sqrt(max(theta, 0)) / u
    and the parts already solved, is never below a part already solved.
    """
    check_tol(tol)
    check_seed(seed)
    mat = sp.csr_matrix(matrix)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix is not square: {mat.shape}")
    if np.iscomplexobj(mat):
        raise ValueError(f"matrix is complex ({mat.dtype}); spectral_norm takes a real one")
    mat = mat.astype(float)  # its own arrays, so dropping zeros leaves the caller's alone
    mat.eliminate_zeros()
    check_hermitian(mat)

    _, labels = connected_components(mat, directed=False)
    sizes = np.bincount(labels)
    rows = np.flatnonzero(np.diff(mat.indptr))  # rows without stored entries add nothing
    # by (component size, label); lexsort is stable, so the rows of one component stay ascending
    order = rows[np.lexsort((labels[rows], sizes[labels[rows]]))]
    vsize = sizes[labels[order]]  # ascending
    v0 = np.random.Generator(np.random.Philox(key=seed)).standard_normal(mat.shape[0])[order]
    mat = mat[order][:, order]
    # the rows of the components of at most DENSE_DIM vertices
    small = mat[:int(np.searchsorted(vsize, DENSE_DIM, side="right"))].tocoo()
    best, residual, winner = 0.0, 0.0, None
    for s in np.unique(vsize).tolist():
        lo, hi = np.searchsorted(vsize, (s, s + 1))
        if s <= DENSE_DIM:  # chunks of equal-size blocks, each one contiguous row range
            per = max(1, CHUNK_ENTRIES // (s * s)) * s
            for a in range(lo, hi, per):
                b = min(a + per, hi)
                e = slice(*np.searchsorted(small.row, (a, b)))
                row, col = small.row[e] - a, small.col[e] - a
                blocks = np.zeros(((b - a) // s, s, s))
                np.add.at(blocks, (row // s, row % s, col % s), small.data[e])
                norms = np.abs(np.linalg.eigvalsh(blocks)).max(axis=1)
                i = int(np.argmax(norms))
                if norms[i] > best:
                    best, winner = float(norms[i]), blocks[i]
            continue
        for a in range(lo, hi, s):
            block = mat[a:a + s, a:a + s]
            unit = math.ldexp(1.0, -math.frexp(float(np.abs(block.data).max()))[1])
            try:
                theta, r2 = ritz_pair(squared_operator(block * unit), v0[a:a + s],
                                      min(tol * 1e-3, 1e-10), max(1000, 20 * s))
            except spla.ArpackNoConvergence as exc:
                # rows before a belong to parts already solved
                known = np.append(np.sqrt(np.maximum(exc.eigenvalues, 0.0)) / unit,
                                  [best] if a else [])
                raise SpectralNormError("eigensolver did not converge",
                                        float(known.max()) if len(known) else None) from exc
            root = math.sqrt(max(theta, 0.0))
            sigma, res = root / unit, (r2 / root if r2 < theta else math.sqrt(r2)) / unit
            if res > tol * max(1.0, sigma):
                raise SpectralNormError(
                    f"residual {res:.3e} exceeds tolerance budget", max(best, sigma))
            if sigma >= best:
                best, residual, winner = sigma, res, None
    if winner is not None:  # a small block holds the norm: the residual of its eigh pair
        vals, vecs = np.linalg.eigh(winner)
        i = int(np.argmax(np.abs(vals)))
        vec = vecs[:, i]
        residual = float(np.linalg.norm(winner @ vec - vals[i] * vec) / np.linalg.norm(vec))
    return best, residual


def _scaled(matrix: sp.csr_matrix, gamma: np.ndarray) -> sp.csr_matrix:
    """Gamma^{-1/2} M Gamma^{-1/2} as a sparse matrix of M's stored pattern."""
    s = 1.0 / np.sqrt(gamma)
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    return sp.csr_matrix((matrix.data * s[rows] * s[matrix.indices], matrix.indices.copy(),
                          matrix.indptr.copy()), shape=matrix.shape)


def certified_norm(graph, tol: float, seed: int) -> tuple[float, float, float, float]:
    """(sigma, residual, sigma + tol * max(1, sigma), Tr Gamma) of the regularized graph,
    sigma = ||Gamma^{-1/2} A* Gamma^{-1/2}||; all zero at zero total degree (no
    edges, or only zero weights), where the graph has nothing to regularize."""
    if not graph.total_degree:
        return 0.0, 0.0, 0.0, 0.0
    gamma = regularize(graph)
    sigma, residual = spectral_norm(_scaled(graph.signed_matrix(), gamma), tol=tol, seed=seed)
    return sigma, residual, sigma + tol * max(1.0, sigma), float(gamma.sum())


def trace_moment(graph, r: int) -> tuple[float, float]:
    """(Tr((Gamma^{-1} A*)^{2r}), its 2r-th root), with Gamma = ``regularize(graph)``.

    The trace is taken as ||S^r||_F^2 of S = Gamma^{-1/2} A* Gamma^{-1/2}, the
    matrix ``certified_norm`` bounds: S is similar to Gamma^{-1} A* and S^r is
    symmetric.  Each sparse power is refused before it is built when a bound on
    its stored entries exceeds TRACE_BUDGET_NNZ: row i of P S has at most
    min(N, sum over the columns j of row i of P of the entries of row j of S).
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    mat = graph.signed_matrix()
    if 2 * r * max(mat.nnz, 1) > TRACE_BUDGET_NNZ:
        raise ResourceGuardError("trace moment exceeds the configured memory budget")
    s = power = _scaled(mat, regularize(graph))
    row_nnz = np.diff(s.indptr).astype(float)  # stored entries per row of S
    for _ in range(r - 1):
        pattern = sp.csr_matrix((np.ones(power.nnz), power.indices, power.indptr), power.shape)
        if np.minimum(pattern @ row_nnz, s.shape[0]).sum() > TRACE_BUDGET_NNZ:
            raise ResourceGuardError("trace moment exceeds the configured memory budget")
        power = power @ s
    # einsum adds in its own fixed order, where a BLAS dot's order moves with the thread count
    value = float(np.einsum("i,i", power.data, power.data))
    return value, value ** (1.0 / (2 * r))


@dataclass(frozen=True)
class SliceCertificate:
    t: int
    algval: float
    num_centers: int
    num_constraints: int
    norm: float
    residual: float
    gamma: float
    eta: int
    num_vertices: int
    num_edges: int
    num_skipped: int


@dataclass(frozen=True)
class Certificate:
    """One certificate and its report.

    For the odd branch, num_vertices is the largest vertex count of any slice
    graph and num_edges the sum of the slice graphs' edge counts; norm and
    residual are the largest over slices.  per_t holds each slice's own values.
    """

    instance_digest: str
    branch: str
    ell: int
    eps: float | None
    tol: float
    solver_seed: int
    algval: float
    norm: float
    residual: float
    num_vertices: int
    num_edges: int
    wall_time_s: float
    per_t: tuple[SliceCertificate, ...] = ()
    warnings: tuple[str, ...] = ()

    def report_lines(self) -> list[str]:
        out = [
            f"algval={self.algval!r}",
            # clamped display: values above 1 are vacuous (energies live in [0, 1])
            f"algval_clamped={self.algval!r}" if self.algval <= 1.0 else "algval_clamped=>1",
            f"branch={self.branch}",
            f"ell={self.ell}",
            f"eps={'' if self.eps is None else repr(self.eps)}",
            f"digest={self.instance_digest}",
            f"num_vertices={self.num_vertices}",
            f"num_edges={self.num_edges}",
            f"solver.tol={self.tol!r}",
            f"solver.seed={self.solver_seed}",
            f"solver.residual={self.residual!r}",
        ]
        for s in self.per_t:
            prefix = f"per_t.{s.t}"
            out += [
                f"{prefix}.algval={s.algval!r}",
                f"{prefix}.num_centers={s.num_centers}",
                f"{prefix}.num_constraints={s.num_constraints}",
                f"{prefix}.norm={s.norm!r}",
                f"{prefix}.gamma={s.gamma!r}",
                f"{prefix}.eta={s.eta}",
                f"{prefix}.num_vertices={s.num_vertices}",
                f"{prefix}.num_edges={s.num_edges}",
                f"{prefix}.num_skipped={s.num_skipped}",
            ]
        for w in self.warnings:
            out.append(f"warning={w}")
        out.append(f"wall_time_s={self.wall_time_s:.3f}")
        return out


def certify_even(inst: Instance, ell: int, tol: float = DEFAULT_TOL,
                 solver_seed: int = 0) -> Certificate:
    """Even-arity certificate algval = 1/2 + f * (sigma + margin)."""
    start = time.perf_counter()
    check_tol(tol)
    check_seed(solver_seed)
    if inst.k % 2 != 0:
        raise ValueError(f"even branch needs even k, got k={inst.k}")
    graph = build_even(inst, ell)
    sigma, residual, padded, _ = certified_norm(graph, tol, solver_seed)
    # zero total degree (no constraint, or only zero coefficients): H = Id/2 and padded = 0
    factor = graph.total_degree / (graph.delta * inst.m) if inst.m else 0.0
    algval = 0.5 + factor * padded
    return Certificate(digest(inst), "even", ell, None, tol, solver_seed,
                       algval, sigma, residual, graph.num_vertices, graph.num_edges,
                       time.perf_counter() - start)


def eta_bound(k: int, eps: float) -> int:
    """Local-degree cap ceil(8 * ETA_CONST^k * k^3 / eps^2) used before pruning."""
    return math.ceil(over_eps_power(8 * ETA_CONST**k * k**3, eps, 2))


def certify_odd(inst: Instance, ell: int, eps: float, tol: float = DEFAULT_TOL,
                solver_seed: int = 0) -> Certificate:
    """Decomposition-based certificate 1/2 + sum_t sqrt(max(0, algval_t)) / k."""
    start = time.perf_counter()
    check_tol(tol)
    check_seed(solver_seed)
    dec = regularity_decompose(inst, ell, eps)
    # the levels with a constraint pair, the only ones that build a graph
    paired = [t for t in dec.nonempty_levels() if any(len(b.cids) >= 2 for b in dec.slice(t))]
    for t in dec.nonempty_levels():
        check_free_sites(inst.n, inst.k, t, ell)
        if t in paired:
            check_feasible_level(inst.k, t, ell)
    eta = eta_bound(inst.k, eps)
    slices: list[SliceCertificate] = []
    warnings = list(dec.warnings)

    for t in dec.nonempty_levels():
        cs = cs_operator(dec, inst, t)
        if t not in paired:
            slices.append(SliceCertificate(t, cs.constant_term, cs.num_centers,
                                           cs.num_constraints, 0.0, 0.0, 0.0, eta, 0, 0, 0))
            continue

        graph = build_odd(dec, inst, t, ell)
        pruned, gamma = edge_delete(graph, eta)
        counts, abs_signs = pruned.type_counts(), np.abs(pruned.signs)
        penalty = running_sum([absbb for *_, absbb in pruned.skipped], abs_signs[counts == 0])
        # rho > 1 exactly when |commuting| (a type's count before pruning) < Delta_t,
        # as |commuting| + |anticommuting| = 2 Delta_t
        over = graph.type_counts() < math.ceil(graph.delta)
        warnings += [f"t={t}: pair weight rho={r:.3f} outside [1/2, 1] "
                     f"for constraints ({cid}, {cid2})"
                     for (cid, cid2), r in zip(pruned.pairs[over].tolist(),
                                               pruned.rho[over].tolist())]

        norm_t, residual_t, padded, trace = certified_norm(pruned, tol, solver_seed)
        norm_term = 0.0
        if pruned.total_degree:  # zero total degree: no edges, or only zero weights
            active = counts > 0
            weight = pruned.rho[active] * counts[active]
            w_min = float(weight.min())
            slack = running_sum((weight - w_min) * abs_signs[active])
            norm_term = cs.scale * (padded * trace + slack) / w_min
        slices.append(SliceCertificate(t, cs.constant_term + norm_term + cs.scale * penalty,
                                       cs.num_centers, cs.num_constraints, norm_t, residual_t,
                                       gamma, eta, pruned.num_vertices, pruned.num_edges,
                                       len(pruned.skipped)))

    algval = 0.5 + running_sum([math.sqrt(max(0.0, s.algval)) / inst.k for s in slices])
    return Certificate(digest(inst), "odd", ell, eps, tol, solver_seed, algval,
                       max((s.norm for s in slices), default=0.0),
                       max((s.residual for s in slices), default=0.0),
                       max((s.num_vertices for s in slices), default=0),
                       sum(s.num_edges for s in slices),
                       time.perf_counter() - start, per_t=tuple(slices),
                       warnings=tuple(warnings))


def certify(inst: Instance, ell: int, eps: float = 0.5, tol: float = DEFAULT_TOL,
            solver_seed: int = 0) -> Certificate:
    """Dispatch on k's parity: the even branch for even k, the odd one for odd k.

    ``eps`` is checked on either branch, though only the odd one reads it.
    """
    check_eps(eps)
    if inst.k % 2 == 0:
        return certify_even(inst, ell, tol=tol, solver_seed=solver_seed)
    return certify_odd(inst, ell, eps, tol=tol, solver_seed=solver_seed)
