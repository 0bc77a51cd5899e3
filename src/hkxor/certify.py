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
at most SMALL_COMPONENT vertices are solved exactly by batched dense
eigvalsh, each larger one by its own iterative (ARPACK) solve whose Ritz
pair must pass a residual check.  Every certificate is deterministic given
(instance bytes, ell, eps, tol, solver seed): the iterative eigensolver
starts from a seeded vector.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .instances import Instance, check_eps, digest
from .kikuchi_even import build_even, regularize
from .kikuchi_odd import (build_odd, check_free_sites, cs_operator, edge_delete,
                          regularity_decompose)

DEFAULT_TOL = 1e-6
ETA_CONST = 3
# most nonzeros trace_moment may hold in one sparse power
TRACE_BUDGET_NNZ = 50_000_000
# connected components of at most this many vertices are solved exactly
SMALL_COMPONENT = 64
# most dense entries one batched eigvalsh call holds (a chunk of equal-size blocks)
CHUNK_ENTRIES = 1 << 18


class SpectralNormError(RuntimeError):
    def __init__(self, message: str, best_estimate: float | None = None):
        super().__init__(message)
        self.best_estimate = best_estimate


def _small_blocks(coo: sp.coo_matrix, vsize: np.ndarray) -> tuple[float, np.ndarray | None]:
    """(max |eigenvalue| over the components of at most SMALL_COMPONENT vertices,
    the dense block of a component attaining it, or None if there are none).

    coo holds the rows of those components, ordered by (size, label), so the
    blocks of one size lie one after another on its diagonal; vsize is the
    component size of each row (ascending).  Each size is solved by batched
    eigvalsh on chunks of at most max(1, CHUNK_ENTRIES // size^2) blocks, each
    chunk one contiguous row range.
    """
    best, winner = 0.0, None
    for s in np.unique(vsize).tolist():
        lo, hi = np.searchsorted(vsize, (s, s + 1))
        per = max(1, CHUNK_ENTRIES // (s * s)) * s  # rows of one chunk
        for a in range(lo, hi, per):
            b = min(a + per, hi)
            e = slice(*np.searchsorted(coo.row, (a, b)))
            row, col = coo.row[e] - a, coo.col[e] - a
            blocks = np.zeros(((b - a) // s, s, s))
            np.add.at(blocks, (row // s, row % s, col % s), coo.data[e])
            norms = np.abs(np.linalg.eigvalsh(blocks)).max(axis=1)
            i = int(np.argmax(norms))
            if winner is None or norms[i] > best:
                best, winner = float(norms[i]), blocks[i]
    return best, winner


def check_tol(tol: float) -> None:
    """Raise ValueError unless tol is finite and positive, as the algval margin needs."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"need finite tol > 0, got {tol}")


def check_seed(seed: int) -> None:
    """Raise ValueError unless 0 <= seed < 2**128, the key range of the solver's Philox."""
    if not 0 <= seed < 2**128:
        raise ValueError(f"solver seed must be in [0, 2**128), got {seed}")


def spectral_norm(matrix, tol: float = DEFAULT_TOL, seed: int = 0) -> tuple[float, float]:
    """(sigma, residual) with |sigma - lambda_absmax| <= tol * max(1, sigma).

    Accepts a symmetric real sparse or dense matrix.  Its norm is the largest
    norm of its connected components, so rows without stored entries are
    dropped and the rest permuted by (component size, label): each component
    becomes one contiguous diagonal block.  Components of at most
    SMALL_COMPONENT vertices are solved exactly by batched dense eigvalsh, and
    each larger one by its own ARPACK call started from the seeded Philox
    vector of the whole matrix restricted to that block; the result depends
    only on (matrix, seed).  sigma is the largest of the parts (a large
    component wins a tie with the small-block maximum), and residual is
    ||M v - lambda v|| / ||v|| of the winning eigenpair.  Every ARPACK Ritz
    pair's residual certifies its value (for symmetric M the eigenvalue error
    is at most the residual); a failed solve raises SpectralNormError whose
    best_estimate is never below a part already solved.
    """
    check_tol(tol)
    check_seed(seed)
    mat = sp.csr_matrix(matrix)
    size = mat.shape[0]
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix is not square: {mat.shape}")
    asym = abs(mat - mat.T).max() if mat.nnz else 0.0
    if asym > 1e-12 * max(1.0, abs(mat).max()):
        raise ValueError(f"matrix is not symmetric (deviation {asym:.3e})")
    if size == 0 or mat.nnz == 0:
        return 0.0, 0.0

    _, labels = connected_components(mat, directed=False)
    sizes = np.bincount(labels)
    rows = np.flatnonzero(np.diff(mat.indptr))  # rows without stored entries add nothing
    order = rows[np.lexsort((labels[rows], sizes[labels[rows]]))]
    vsize = sizes[labels[order]]  # ascending
    mat = mat[order][:, order]
    cut = int(np.searchsorted(vsize, SMALL_COMPONENT, side="right"))
    best, block = _small_blocks(mat[:cut].tocoo(), vsize[:cut])
    residual = None  # the winning large component's, once there is one

    if cut < len(order):
        v0 = np.random.Generator(np.random.Philox(key=seed)).standard_normal(size)[order]
    a = cut
    while a < len(order):
        b = a + int(vsize[a])
        sub = mat[a:b, a:b]
        try:
            vals, vecs = spla.eigsh(sub, k=1, which="LM", v0=v0[a:b],
                                    tol=min(tol * 1e-3, 1e-10), maxiter=max(1000, 20 * (b - a)))
        except spla.ArpackNoConvergence as exc:
            known = np.append(np.abs(exc.eigenvalues),
                              [] if block is None and residual is None else [best])
            best = float(known.max()) if len(known) else None
            raise SpectralNormError("eigensolver did not converge", best) from exc
        lam, vec = float(vals[0]), vecs[:, 0]
        res = float(np.linalg.norm(sub @ vec - lam * vec) / np.linalg.norm(vec))
        if res > tol * max(1.0, abs(lam)):
            raise SpectralNormError(
                f"residual {res:.3e} exceeds tolerance budget", max(best, abs(lam)))
        if abs(lam) >= best:
            best, residual = abs(lam), res
        a = b
    if residual is not None:
        return best, residual

    vals, vecs = np.linalg.eigh(block)
    i = int(np.argmax(np.abs(vals)))
    lam, vec = float(vals[i]), vecs[:, i]
    return best, float(np.linalg.norm(block @ vec - lam * vec) / np.linalg.norm(vec))


def _scaled(matrix: sp.csr_matrix, gamma: np.ndarray) -> sp.csr_matrix:
    """Gamma^{-1/2} M Gamma^{-1/2} as a sparse matrix without stored zeros (an
    explicit zero would join two components)."""
    s = 1.0 / np.sqrt(gamma)
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    out = sp.csr_matrix((matrix.data * s[rows] * s[matrix.indices], matrix.indices.copy(),
                         matrix.indptr.copy()), shape=matrix.shape)
    out.eliminate_zeros()
    return out


def trace_moment(graph, reg, r: int) -> tuple[float, float]:
    """(Tr((Gamma^{-1} A*)^{2r}), its 2r-th root) by repeated sparse products."""
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    mat = graph.signed_matrix()
    if 2 * r * max(mat.nnz, 1) > TRACE_BUDGET_NNZ:
        raise MemoryError("trace moment exceeds the configured memory budget")
    b = (sp.diags(1.0 / reg.gamma) @ mat).tocsr()
    power = b
    for _ in range(r - 1):
        power = (power @ b).tocsr()
        if power.nnz > TRACE_BUDGET_NNZ:
            raise MemoryError("trace moment exceeds the configured memory budget")
    value = float(power.multiply(power.T).sum())
    value = max(value, 0.0)
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
    algval, sigma, residual = 0.5, 0.0, 0.0
    # zero total degree (no constraint, or only zero coefficients): H = Id/2 and sigma = 0
    if graph.total_degree:
        reg = regularize(graph)
        sigma, residual = spectral_norm(_scaled(graph.signed_matrix(), reg.gamma),
                                        tol=tol, seed=solver_seed)
        factor = graph.total_degree / (graph.delta * inst.m)
        algval = 0.5 + factor * (sigma + tol * max(1.0, sigma))
    return Certificate(digest(inst), "even", ell, None, tol, solver_seed,
                       algval, sigma, residual, graph.num_vertices, graph.num_edges,
                       time.perf_counter() - start)


def eta_bound(k: int, eps: float) -> int:
    """Local-degree cap ceil(8 * ETA_CONST^k * k^3 / eps^2) used before pruning."""
    return math.ceil(8 * ETA_CONST**k * k**3 / eps**2)


def certify_odd(inst: Instance, ell: int, eps: float, tol: float = DEFAULT_TOL,
                solver_seed: int = 0) -> Certificate:
    """Decomposition-based certificate 1/2 + sum_t sqrt(max(0, algval_t)) / k."""
    start = time.perf_counter()
    check_tol(tol)
    check_seed(solver_seed)
    dec = regularity_decompose(inst, ell, eps)
    for t in dec.nonempty_levels():
        check_free_sites(inst.n, inst.k, t, ell)
    eta = eta_bound(inst.k, eps)
    slices: list[SliceCertificate] = []
    warnings = list(dec.warnings)

    for t in dec.nonempty_levels():
        cs = cs_operator(dec, inst, t)
        if not any(len(b.cids) >= 2 for b in dec.slice(t)):
            slices.append(SliceCertificate(t, cs.constant_term, cs.num_centers,
                                           cs.num_constraints, 0.0, 0.0, 0.0, eta, 0, 0, 0))
            continue

        graph = build_odd(dec, inst, t, ell)
        pruned, gamma = edge_delete(graph, eta)
        counts = pruned.type_counts().tolist()
        rho, abs_signs = pruned.rho.tolist(), np.abs(pruned.signs).tolist()
        penalty = sum((a for a, count in zip(abs_signs, counts) if not count),
                      start=sum(absbb for *_, absbb in pruned.skipped))
        # rho > 1 exactly when |commuting| (a type's count before pruning) < Delta_t,
        # as |commuting| + |anticommuting| = 2 Delta_t
        over = graph.type_counts() < math.ceil(graph.delta)
        warnings += [f"t={t}: pair weight rho={r:.3f} outside [1/2, 1] "
                     f"for constraints ({cid}, {cid2})"
                     for (cid, cid2), r in zip(pruned.pairs[over].tolist(),
                                               pruned.rho[over].tolist())]

        norm_t = residual_t = norm_term = 0.0
        if pruned.total_degree:  # zero total degree: no edges, or only zero weights
            active = [(r, count, a) for r, count, a in zip(rho, counts, abs_signs) if count]
            w_min = min(r * count for r, count, _ in active)
            slack = sum((r * count - w_min) * a for r, count, a in active)
            reg = regularize(pruned)
            norm_t, residual_t = spectral_norm(
                _scaled(pruned.signed_matrix(), reg.gamma), tol=tol, seed=solver_seed)
            padded = norm_t + tol * max(1.0, norm_t)
            norm_term = cs.scale * (padded * reg.trace + slack) / w_min
        slices.append(SliceCertificate(t, cs.constant_term + norm_term + cs.scale * penalty,
                                       cs.num_centers, cs.num_constraints, norm_t, residual_t,
                                       gamma, eta, pruned.num_vertices, pruned.num_edges,
                                       len(pruned.skipped)))

    algval = 0.5 + sum(math.sqrt(max(0.0, s.algval)) / inst.k for s in slices)
    return Certificate(digest(inst), "odd", ell, eps, tol, solver_seed, algval,
                       max((s.norm for s in slices), default=0.0),
                       max((s.residual for s in slices), default=0.0),
                       max((s.num_vertices for s in slices), default=0),
                       sum(s.num_edges for s in slices),
                       time.perf_counter() - start, per_t=tuple(slices),
                       warnings=tuple(warnings))


def certify(inst: Instance, ell: int, eps: float = 0.5, tol: float = DEFAULT_TOL,
            branch: str = "auto", solver_seed: int = 0) -> Certificate:
    """Dispatch on k parity (branch="auto"), or force a branch explicitly.

    ``eps`` is checked on either branch, though only the odd one reads it.
    """
    if branch not in ("auto", "even", "odd"):
        raise ValueError(f"unknown branch {branch!r}")
    check_eps(eps)
    if branch == "auto":
        branch = "even" if inst.k % 2 == 0 else "odd"
    if branch == "even":
        return certify_even(inst, ell, tol=tol, solver_seed=solver_seed)
    return certify_odd(inst, ell, eps, tol=tol, solver_seed=solver_seed)
