"""Desk-scale ground truth: dense Hamiltonians, proved eigenvalues, brute force.

Everything here favors being unarguably correct over being fast.  Dense
operators are capped at n <= 12 qubits and the weight-slice quadratic-form
check at n <= 8; callers hitting the caps get a ResourceGuardError, a
MemoryError.

A Hamiltonian is built from its words in two steps.  ``_group_sums`` groups
the terms by x-mask, since the words of one group fill the same 2^n entries
(entry b in row b ^ X), and sums each group's entries over its members in
input order, each member's ``coeff * vals`` from ``word_action``, then
divides once (by 1 for a plain sum, which is exact).  Summation order is the
rule that keeps every bit: each entry is the same sequence of additions as
one scatter-add per term in input order, so no regrouped reduction (a
``reduceat`` or a pairwise sum) may replace it.  ``_csr_scatter`` then
writes the groups into the one matrix form, the CSR that
``scipy.sparse.csr_matrix`` makes of the dense matrix: ``assemble`` returns
it, and the ``oracle`` command proves lambda_max on it; ``dense_word`` and
``assemble_pauli_sum`` return its ``toarray()``, the dense matrix byte for
byte, since the group sums start at +0.0 and so never hold -0.0.

This module also holds the Hermitian eigen-kernel that ``certify`` and
``sos`` share with ``lambda_max``: one symmetry rule (``check_hermitian``,
relative to the largest entry, refusing non-finite entries), one seeded
ARPACK step (``ritz_pair``, one ``eigsh(k=1, which="LA")`` on whatever
Hermitian operator the caller passes: M itself here, by scipy's CSR kernel
called directly, and for ``certify.spectral_norm`` the squared operator
M M that ``squared_operator`` builds on the same kernel) and one dense
cut-off (``DENSE_DIM``).  It is the one module that calls scipy's private
sparse kernels.

``lambda_max`` returns the top eigenvalue without diagonalizing the whole
matrix, and proves it.  The value is the top Ritz value lam of one seeded
``ritz_pair`` run, so lambda_max(H) >= lam up to rounding (a Ritz value is a
Rayleigh quotient).  The kernel is trusted for nothing more: the upper side
is proved by Rump's criterion ("Verification of positive definiteness",
BIT 46 (2006)): if floating-point Cholesky runs to completion on a Hermitian
B of dimension N, then B + dB = R^H R with |dB_ij| <= g sqrt(B_ii B_jj),
g = gamma_K / (1 - gamma_K), gamma_K = K u / (1 - K u), u = 2^-53, so
lambda_min(B) >= -g tr|diag B|.
Real arithmetic needs K = N + 1; a complex product adds at most
sqrt(2) gamma_2 < gamma_3 relative error (Higham, "Accuracy and Stability
of Numerical Algorithms", section 3.6), and K = 2(N + 1) covers that and a
reciprocal in the triangular solves.  The Cholesky is LAPACK's ``zpftrf`` on
the lower triangle of B in rectangular full packed (RFP) storage, N(N + 1)/2
entries (Gustavson, Wasniewski, Dongarra and Langou, ACM TOMS 37(2), 2010).
It is Cholesky all the same: ``zpotrf`` on the leading half triangle,
``ztrsm`` for the block below it, ``zherk`` on the trailing half triangle and
``zpotrf`` on that, so every entry of R is the usual inner-product recurrence
with its sum split over the calls.  The componentwise bound (Higham,
Theorem 10.3) holds for any order of the inner-product sums with
conventional BLAS, so K = 2(N + 1) still holds.  With B = fl(t I - H) this
gives

    lambda_max(H) <= t + c,
    c = g sum_i |B_ii| + 2u max_i |B_ii| + 8 eta (2(N + 1) + max_i |B_ii|),

where the second term covers the rounding of the shifted diagonal, the
third is Rump's underflow term (doubled for complex arithmetic, eta =
2^-1074), and c is inflated by 2^-40 for the roundings in evaluating it.
The shift is t = lam + r + c(lam), r the Ritz residual, so a Ritz value at
the top passes and delta = t + c - lam is about 2c: 3.5e-11 at n=10.
``lambda_max`` takes H dense or as a CSR, of any dtype, and works in float64
or complex128; the CSR is the Lanczos operand, and the packed triangle of B,
scattered straight from it, is the only dense array the proof holds: half
the square matrix.  A Cholesky that refuses proves nothing, and the dense
``eigvalsh`` answers instead; it also answers for dimension <= DENSE_DIM,
where ARPACK does not apply.  A matrix without off-diagonal entries returns
its largest diagonal entry, exactly.

Basis convention: computational basis states are indexed by integers whose
bit i is the state of (0-indexed) site i, site 0 least significant.  Bit 0
means the +1 eigenstate of Z.
"""

from __future__ import annotations

import contextlib
import functools
import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import zpftrf
from scipy.sparse._sparsetools import csr_has_canonical_format, csr_matvec

from .pauli import PHASES, PauliOp, site_mask, slice_arrays, words_from_arrays

DENSE_QUBIT_CAP = 12
QFORM_QUBIT_CAP = 8
# relative deviation from Hermitian that check_hermitian accepts
HERMITIAN_TOL = 1e-12
# matrices (and certify's connected components) up to this dimension are
# diagonalized densely
DENSE_DIM = 64
UNIT_ROUNDOFF = 2.0**-53
SMALLEST_SUBNORMAL = 2.0**-1074


class ResourceGuardError(MemoryError):
    """A documented size guard was exceeded."""


def word_action(op: PauliOp) -> tuple[np.ndarray, np.ndarray]:
    """A phase-free word as a signed permutation of the 2^n basis states.

    W(x,z)|b> = i^{|x&z|} (-1)^{|z&b|} |b ^ x>: column b of the word holds
    ``vals[b]`` in row ``rows[b] = b ^ x``.  The phase-free product of two
    words XORs their masks.
    """
    cols = np.arange(1 << op.n, dtype=np.int64)
    phase = complex(PHASES[(op.xmask & op.zmask).bit_count() % 4])
    signed = phase * np.array((1.0, -1.0))  # the values at parity 0 and 1
    return cols ^ op.xmask, signed[np.bitwise_count(cols & op.zmask) & 1]


def apply_word(op: PauliOp, psi: np.ndarray) -> np.ndarray:
    """Apply a phase-free word to a statevector of shape (2^n,); ValueError for any
    other shape."""
    if psi.shape != (1 << op.n,):
        raise ValueError(f"state shape {psi.shape} != ({1 << op.n},) of an n={op.n} word")
    rows, vals = word_action(op)
    return vals[rows] * psi[rows]


def dense_word(op: PauliOp) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a phase-free word (signed permutation)."""
    return _csr_scatter(op.n, _group_sums(op.n, [(op, 1.0)], 1)).toarray()


def assemble_pauli_sum(n: int, terms) -> np.ndarray:
    """Dense sum of (PauliOp, coefficient) terms on n qubits, from ``_group_sums``."""
    terms = list(terms)
    if any(op.n != n for op, _ in terms):
        raise ValueError(f"every term of a dense sum must act on n={n} qubits")
    return _csr_scatter(n, _group_sums(n, terms, 1)).toarray()


def assemble(inst) -> sp.csr_matrix:
    """H = Id/2 + (1/2|H|) sum_C b_C P_C for an Instance, as a CSR equal array for array
    to ``sp.csr_matrix`` of the dense matrix; ``toarray()`` gives that matrix."""
    words = words_from_arrays(inst.n, inst.sites, inst.letters)
    groups = _group_sums(inst.n, zip(words, inst.coeffs.tolist()), 2 * inst.m)
    groups.setdefault(0, np.zeros(1 << inst.n, dtype=complex))
    groups[0] += 0.5  # Id/2, after the division
    return _csr_scatter(inst.n, groups)


def _group_sums(n: int, terms, divisor: int) -> dict[int, np.ndarray]:
    """x-mask -> the 2^n values of its group's sum of (PauliOp, coefficient) terms on
    n qubits, divided by ``divisor``.

    The terms are grouped by x-mask, input order kept inside a group.  A group's
    2^n entries start at zero and add ``coeff * vals`` from ``word_action`` for
    each member in turn, so every entry sees the additions, and so the roundings,
    of one scatter-add per term; the group sum is divided once.  Entry b of group
    X belongs to row b ^ X and column b of the matrix.
    """
    if n > DENSE_QUBIT_CAP:
        raise ResourceGuardError(f"dense assembly needs n <= {DENSE_QUBIT_CAP}, got {n}")
    members: dict[int, list] = {}
    for op, coeff in terms:
        members.setdefault(op.xmask, []).append((op, coeff))
    groups = {}
    for xmask, group in members.items():
        acc = np.zeros(1 << n, dtype=complex)
        for op, coeff in group:
            acc += coeff * word_action(op)[1]
        acc /= divisor
        groups[xmask] = acc
    return groups


def _csr_scatter(n: int, groups: dict[int, np.ndarray]) -> sp.csr_matrix:
    """The CSR of the groups' matrix, the arrays ``sp.csr_matrix`` makes of the
    dense matrix: row r holds column r ^ X with value acc_X[r ^ X] for every
    group X, columns ascending and exact zeros dropped.

    The group sums move one at a time into the columns of one array, emptying
    ``groups``, so they are held once.  The nonzero entries go in column by column,
    and the COO-to-CSR conversion, a stable counting sort by row, keeps each row's
    columns in that ascending order.
    """
    dim = 1 << n
    xmasks = np.empty(len(groups), dtype=np.int32)
    values = np.empty((dim, len(groups)), dtype=complex)  # (b, j): column b, row b ^ X_j
    for j in range(len(groups)):
        xmasks[j], values[:, j] = groups.popitem()
    keep = values != 0
    data = values[keep]
    del values
    cols = np.arange(dim, dtype=np.int32)
    rows = (cols[:, None] ^ xmasks)[keep]
    cols = np.repeat(cols, keep.sum(axis=1))
    del keep
    return sp.coo_matrix((data, (rows, cols)), shape=(dim, dim)).tocsr()


def pauli_coefficient(matrix: np.ndarray, word: PauliOp) -> complex:
    """<H, P> = Tr(P H) / 2^n, using the signed-permutation structure of P.

    Raises ValueError unless H is 2^n x 2^n for the word's n.
    """
    dim = 1 << word.n
    if matrix.shape != (dim, dim):
        raise ValueError(f"matrix shape {matrix.shape} != ({dim}, {dim}) of an "
                         f"n={word.n} word")
    rows, vals = word_action(word)
    cols = np.arange(dim, dtype=np.int64)
    return complex(np.sum(vals * matrix[cols, rows]) / dim)


def check_hermitian(m) -> None:
    """Raise ValueError unless every entry of M is finite and
    ``hermitian_deviation(M) <= HERMITIAN_TOL * max(1, max|M_ij|)``.

    M is dense or sparse; a 0x0 matrix passes.  The largest entry is read only
    when the deviation is above HERMITIAN_TOL.
    """
    if m.shape[0] == 0:
        return
    if not np.isfinite(m.data if sp.issparse(m) else m).all():
        raise ValueError("matrix has a non-finite entry")
    dev = hermitian_deviation(m)
    # abs() of a sparse matrix sums its duplicates in place, so it reads a copy
    if dev > HERMITIAN_TOL and dev > HERMITIAN_TOL * abs(m.copy() if sp.issparse(m) else m).max():
        raise ValueError(f"matrix is not Hermitian (deviation {dev:.3e})")


def hermitian_deviation(m) -> float:
    """max|M - M^H| of a dense or sparse square M with at least one row.

    A CSR matrix without duplicate entries whose transpose stores the same
    pattern is compared entry by entry with its transpose's data; any other
    matrix goes through the difference M - M^H.  The caller's arrays
    are never sorted or summed in place: the CSR matvec sums each row in the
    stored order.
    """
    if sp.issparse(m) and m.format == "csr" and m.shape[0] == m.shape[1]:
        if csr_has_canonical_format(m.shape[0], m.indptr, m.indices):
            t = m.T.tocsr()  # M^T in new arrays, each row's columns ascending
            if np.array_equal(t.indptr, m.indptr) and np.array_equal(t.indices, m.indices):
                diff = t.data  # t's own array: M - M^H is built in place
                np.conjugate(diff, out=diff)
                np.subtract(m.data, diff, out=diff)
                return float(np.abs(diff).max()) if diff.any() else 0.0
    return float(abs(m - m.conj().T).max())


def _csr_product(mat: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """``mat @ x`` for a vector x by scipy's CSR kernel, without the sparse
    dispatch around it (the same kernel, so the same sums)."""
    out = np.zeros(mat.shape[0], dtype=np.result_type(mat.dtype, x.dtype))
    csr_matvec(*mat.shape, mat.indptr, mat.indices, mat.data, x, out)
    return out


def squared_operator(mat: sp.csr_matrix) -> spla.LinearOperator:
    """M M for a real square CSR M as a float64 ``LinearOperator``, never formed: each
    product applies M twice by scipy's CSR kernel, the inner product into one
    reused work vector, so every row is summed in stored order."""
    work = np.empty(mat.shape[0])

    def squared(x: np.ndarray) -> np.ndarray:
        out = np.zeros(mat.shape[0])
        work.fill(0)
        csr_matvec(*mat.shape, mat.indptr, mat.indices, mat.data, x, work)
        csr_matvec(*mat.shape, mat.indptr, mat.indices, mat.data, work, out)
        return out

    return spla.LinearOperator(mat.shape, matvec=squared, dtype=float)


def ritz_pair(op: spla.LinearOperator, v0: np.ndarray, tol: float,
              maxiter: int | None = None) -> tuple[float, float]:
    """(theta, r) from one ARPACK ``eigsh(k=1, which="LA")`` run on a Hermitian
    operator, started from v0: theta is the top Ritz value and
    r = ||op(v) - theta v|| / ||v|| the residual of its Ritz vector v.  ARPACK
    errors propagate."""
    vals, vecs = spla.eigsh(op, k=1, which="LA", v0=v0, tol=tol, maxiter=maxiter)
    theta, vec = float(vals[0]), vecs[:, 0]
    return theta, float(np.linalg.norm(op.matvec(vec) - theta * vec) / np.linalg.norm(vec))


def rump_shift(diag: np.ndarray) -> float:
    """c of the module docstring for a shifted matrix with real diagonal ``diag``."""
    ku = 2 * (len(diag) + 1) * UNIT_ROUNDOFF
    gamma = ku / (1 - ku)
    mags = np.abs(diag)
    top = float(mags.max())
    c = (gamma / (1 - gamma) * math.fsum(mags) + 2 * UNIT_ROUNDOFF * top
         + 8 * SMALLEST_SUBNORMAL * (2 * (len(diag) + 1) + top))
    return c * (1 + 2.0**-40)


def rump_bound(matrix: sp.spmatrix, shift: float) -> float | None:
    """A proved upper bound on lambda_max of a sparse Hermitian matrix, or None.

    One LAPACK ``zpftrf`` of fl(shift I - H) (H the Hermitian matrix of the
    lower triangle, as ``eigvalsh`` reads it); if it runs to completion, the
    bound is shift + c (see the module docstring).  The operand is the lower
    triangle of fl(shift I - H) in RFP storage (``transr="N"``, ``uplo="L"``):
    one complex array of N(N + 1)/2 entries, a Fortran lda x h array for
    h = (N + 1) // 2, e = 1 - N % 2 and lda = N + e.  Entry (i, j), i >= j, of
    the leading h columns is at row i + e of column j; any other is at row
    j - h of column i - h + 1 - e, conjugated, so the trailing triangle is
    stored conjugate-transposed.  Each entry is 0 - H_ij, the stored entries
    subtracted in stored order, so duplicates are summed as ``toarray`` sums
    them; the diagonal is (0 - H_ii) + shift, and c is ``rump_shift`` of it.
    The array is ``ztrttf`` of the dense fl(shift I - H), byte for byte.
    Raises TypeError for a dense matrix.
    """
    if not sp.issparse(matrix):
        raise TypeError("rump_bound takes a sparse matrix")
    dim = matrix.shape[0]
    half, even = (dim + 1) // 2, 1 - dim % 2
    slots, values = _packed_entries(matrix, half, even)
    packed = np.zeros(dim * (dim + 1) // 2, dtype=complex)
    np.subtract.at(packed, slots, values)
    del slots, values  # freed before the trailing triangle's mask is made
    # the diagonal: (d + e, d) for d < h, then (d - h, d - h + 1 - e)
    lda = dim + even
    step = lda + 1
    diag = (packed[even:half * step:step], packed[(1 - even) * lda::step][:dim - half])
    for part in diag:
        part += shift
    c = rump_shift(np.concatenate(diag).real)
    # conjugate the trailing triangle: Fortran (r, c) with r <= c - 1 + e
    block = packed.reshape(half, lda)[:, :half].imag
    np.negative(block, out=block, where=np.tri(half, k=even - 1, dtype=bool))
    _, info = zpftrf(dim, packed, transr="N", uplo="L", overwrite_a=1)
    return math.nextafter(shift + c, math.inf) if info == 0 else None


def _packed_entries(matrix: sp.spmatrix, half: int,
                    even: int) -> tuple[np.ndarray, np.ndarray]:
    """(slots, values): the stored entries (i, j), i >= j, of a square sparse matrix
    in stored order, and each one's index in the RFP array of ``rump_bound``:
    i + e + j lda if j < h, else j - h + (i - h + 1 - e) lda, for lda = N + e."""
    lda = matrix.shape[0] + even
    coo = matrix.tocoo(copy=False)
    lower = coo.row >= coo.col
    i = coo.row[lower].astype(np.int64)
    j = coo.col[lower].astype(np.int64)
    slots = np.where(j < half, i + even + j * lda, j - half + (i - half + 1 - even) * lda)
    return slots, coo.data[lower]


def lambda_max(m) -> float:
    """Maximum eigenvalue of a square Hermitian matrix, dense or CSR, proved to within
    delta.

    Works in float64, or complex128 for a complex M: a matrix of another dtype
    is converted first, and a float64 or complex128 CSR is used as it is.
    Returns the largest diagonal entry of a matrix without off-diagonal
    entries, and the dense ``eigvalsh`` value up to dimension DENSE_DIM.
    Otherwise returns the top Ritz value lam of ``ritz_pair`` (tol=0, the key-0
    Philox start vector) on the CSR's ``_csr_product``, after ``rump_bound``
    has proved lambda_max < lam + delta on the packed lower triangle of
    fl(t I - H) (see the module docstring); if ARPACK fails or the Cholesky
    refuses, returns the dense ``eigvalsh`` value.  A dense matrix becomes
    ``sp.csr_matrix(m)`` first.
    Raises ValueError unless M is a square 2-D matrix with at least one row,
    and if ``check_hermitian`` refuses it.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.shape[0]:
        raise ValueError(f"need a square matrix with at least one row, got shape {m.shape}")
    dtype = complex if np.iscomplexobj(m) else float
    csr = sp.csr_matrix(m).astype(dtype, copy=False)  # a CSR of dtype: its own arrays
    check_hermitian(csr)
    diag = csr.diagonal()
    if csr.nnz == np.count_nonzero(diag):  # diagonal: the entries are the eigenvalues
        return float(diag.real.max())
    if m.shape[0] > DENSE_DIM:
        # machine precision from a seeded start, so for a given BLAS build and thread
        # count the result depends only on H
        v0 = np.random.Generator(np.random.Philox(key=0)).standard_normal(m.shape[0])
        with contextlib.suppress(spla.ArpackError):
            op = spla.LinearOperator(csr.shape, matvec=functools.partial(_csr_product, csr),
                                     dtype=csr.dtype)
            lam, residual = ritz_pair(op, v0, 0)
            if rump_bound(csr, lam + residual + rump_shift(lam - diag.real)) is not None:
                return lam
    return _dense_lambda_max(csr.toarray() if sp.issparse(m) else np.asarray(m, dtype))


def _dense_lambda_max(matrix: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(matrix)[-1])


def quadratic_form_check(inst, state: np.ndarray, graph) -> float:
    """Relative error between the weight-slice quadratic form and the direct energy.

    Materializes the block vector with blocks P|psi> for P in the graph's
    weight-ell slice, evaluates the signed adjacency as sum over edges of
    w * (Q|psi>)^dag (R|psi>), and compares to Delta * sum_C b_C <psi|P_C|psi>.
    Returns |lhs - rhs| / max(1, |rhs|).
    """
    if inst.n > QFORM_QUBIT_CAP:
        raise ResourceGuardError(f"quadratic form check needs n <= {QFORM_QUBIT_CAP}")
    nrm = np.linalg.norm(state)
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"state is not a unit vector (norm {nrm})")

    # vertex i is row i of the table of the graph's slice
    n, ell = graph.index.n, graph.index.ell
    blocks = [apply_word(word, state) for word in words_from_arrays(n, *slice_arrays(n, ell))]
    lhs = 0.0 + 0.0j
    weights = graph.weights[graph.tids].tolist()
    for q, r, w in zip(graph.rows.tolist(), graph.cols.tolist(), weights):
        lhs += w * np.vdot(blocks[q], blocks[r])

    rhs = 0.0 + 0.0j
    for op, coeff in zip(words_from_arrays(inst.n, inst.sites, inst.letters),
                         inst.coeffs.tolist()):
        rhs += coeff * np.vdot(state, apply_word(op, state))
    rhs *= graph.delta

    return float(abs(lhs - rhs) / max(1.0, abs(rhs)))


# -- classical XOR brute force ----------------------------------------------

CLASSICAL_QUBIT_CAP = 24


def classical_value(inst, x) -> float:
    """val(I, x) = 1/2 + (1/2|H|) sum_C b_C prod_{i in C} x_i of an Instance, sites
    0-indexed; ValueError unless x has n entries."""
    if len(x) != inst.n:
        raise ValueError(f"assignment of {len(x)} entries != n={inst.n}")
    if not inst.m:
        return 0.5
    phi = 0.0
    for sites, b in zip(inst.sites.tolist(), inst.coeffs.tolist()):
        phi += b * math.prod(x[i] for i in sites)
    return 0.5 + phi / (2 * inst.m)


def classical_max(inst) -> tuple[float, tuple[int, ...]]:
    """Exact max of val(I, .) over {+-1}^n with the lexicographically-first argmax.

    Assignments are ordered by (x_1, x_2, ...) with +1 before -1.
    """
    n = inst.n
    if n > CLASSICAL_QUBIT_CAP:
        raise ResourceGuardError(f"classical_max needs n <= {CLASSICAL_QUBIT_CAP}, got {n}")
    dim = 1 << n
    idx = np.arange(dim, dtype=np.int64)
    phi = np.zeros(dim)
    for sites, b in zip(inst.sites.tolist(), inst.coeffs.tolist()):
        phi += b * (1.0 - 2.0 * (np.bitwise_count(idx & site_mask(sites)) & 1))
    vals = 0.5 + phi / (2 * inst.m) if inst.m else np.full(dim, 0.5)
    best = float(vals.max())
    winners = np.nonzero(vals >= best - 1e-15)[0]
    # bit i encodes x_{i+1} with 1 = -1, and lex order compares x_1 first
    b_star = min(map(int, winners), key=lambda b: [b >> i & 1 for i in range(n)])
    x = tuple(1 - 2 * (b_star >> i & 1) for i in range(n))
    return best, x
