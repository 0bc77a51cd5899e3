"""Desk-scale ground truth: dense Hamiltonians, exact eigenvalues, brute force.

Everything here favors being unarguably correct over being fast.  Dense
operators are capped at n <= 12 qubits and the weight-slice quadratic-form
check at n <= 8; callers hitting the caps get a ResourceGuardError.

Basis convention: computational basis states are indexed by integers whose
bit i is the state of (0-indexed) site i, site 0 least significant.  Bit 0
means the +1 eigenstate of Z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import PauliOp, PhasedPauli, site_mask

DENSE_QUBIT_CAP = 12
QFORM_QUBIT_CAP = 8
# relative deviation from Hermitian that lambda_max accepts
HERMITIAN_TOL = 1e-12


class ResourceGuardError(RuntimeError):
    """A documented size guard was exceeded."""


def word_action(op: PauliOp) -> tuple[np.ndarray, np.ndarray]:
    """A phase-free word as a signed permutation of the 2^n basis states.

    W(x,z)|b> = i^{|x&z|} (-1)^{|z&b|} |b ^ x>: column b of the word holds
    ``vals[b]`` in row ``rows[b] = b ^ x``.  The phase-free product of two
    words XORs their masks.
    """
    cols = np.arange(1 << op.n, dtype=np.int64)
    phase = (1j) ** ((op.xmask & op.zmask).bit_count() % 4)
    vals = phase * (1.0 - 2.0 * (np.bitwise_count(cols & op.zmask) & 1))
    return cols ^ op.xmask, vals


def apply_word(op: PauliOp, psi: np.ndarray) -> np.ndarray:
    """Apply a phase-free word to a statevector of dimension 2^n."""
    if psi.shape[0] != 1 << op.n:
        raise ValueError(f"state dimension {psi.shape[0]} != 2^{op.n}")
    rows, vals = word_action(op)
    return vals[rows] * psi[rows]


def dense_word(op: PauliOp) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a phase-free word (signed permutation)."""
    return assemble_pauli_sum(op.n, [(op, 1.0)]).matrix


def dense_phased(p: PhasedPauli) -> np.ndarray:
    return p.phase * dense_word(p.op)


@dataclass(frozen=True)
class DenseOperator:
    """Dense 2^n Hermitian realization of an operator."""

    n: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        dim = 1 << self.n
        if self.matrix.shape != (dim, dim):
            raise ValueError(f"matrix shape {self.matrix.shape} != ({dim}, {dim})")


def assemble_pauli_sum(n: int, terms) -> DenseOperator:
    """Dense sum of (PauliOp, coefficient) terms, one scatter-add per term.

    Terms are added one at a time: repeated words, and words sharing an x-mask,
    hit the same entries, which one buffered fancy-index add would drop.
    """
    if n > DENSE_QUBIT_CAP:
        raise ResourceGuardError(f"dense assembly needs n <= {DENSE_QUBIT_CAP}, got {n}")
    dim = 1 << n
    cols = np.arange(dim, dtype=np.int64)
    m = np.zeros((dim, dim), dtype=complex)
    for op, coeff in terms:
        rows, vals = word_action(op)
        m[rows, cols] += coeff * vals
    return DenseOperator(n, m)


def assemble_star(inst) -> DenseOperator:
    """Dense unnormalized sum of signed constraint words."""
    return assemble_pauli_sum(inst.n, [(c.pauli, c.coeff) for c in inst.constraints])


def assemble(inst) -> DenseOperator:
    """Dense H = Id/2 + (1/2|H|) sum_C b_C P_C for an Instance."""
    op = assemble_star(inst)
    m = op.matrix  # scaled in place: same rounding as summing then normalizing
    if inst.constraints:
        m /= 2 * len(inst.constraints)
    m += 0.5 * np.eye(1 << inst.n)
    return op


def pauli_coefficient(op: DenseOperator, word: PauliOp) -> complex:
    """<H, P> = Tr(P H) / 2^n, using the signed-permutation structure of P."""
    rows, vals = word_action(word)
    cols = np.arange(1 << op.n, dtype=np.int64)
    return complex(np.sum(vals * op.matrix[cols, rows]) / (1 << op.n))


def lambda_max(op: DenseOperator) -> float:
    """Exact (machine precision) maximum eigenvalue of a Hermitian operator."""
    dev = np.max(np.abs(op.matrix - op.matrix.conj().T))
    if dev > HERMITIAN_TOL * max(1.0, np.max(np.abs(op.matrix))):
        raise ValueError(f"matrix is not Hermitian (deviation {dev:.3e})")
    return float(np.linalg.eigvalsh(op.matrix)[-1])


def quadratic_form_check(inst, ell: int, state: np.ndarray, graph) -> float:
    """Relative error between the weight-slice quadratic form and the direct energy.

    Materializes the block vector with blocks P|psi> for P in the weight-ell
    slice, evaluates the signed adjacency as sum over edges of
    w * (Q|psi>)^dag (R|psi>), and compares to Delta * sum_C b_C <psi|P_C|psi>.
    Returns |lhs - rhs| / max(1, |rhs|).
    """
    if inst.n > QFORM_QUBIT_CAP:
        raise ResourceGuardError(f"quadratic form check needs n <= {QFORM_QUBIT_CAP}")
    nrm = np.linalg.norm(state)
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"state is not a unit vector (norm {nrm})")

    blocks: dict[int, np.ndarray] = {}

    def block(idx: int) -> np.ndarray:
        if idx not in blocks:
            blocks[idx] = apply_word(graph.index.unrank(idx), state)
        return blocks[idx]

    lhs = 0.0 + 0.0j
    weights = graph.weights[graph.tids].tolist()
    for q, r, w in zip(graph.rows.tolist(), graph.cols.tolist(), weights):
        lhs += w * np.vdot(block(q), block(r))

    rhs = 0.0 + 0.0j
    for c in inst.constraints:
        rhs += c.coeff * np.vdot(state, apply_word(c.pauli, state))
    rhs *= graph.delta

    return float(abs(lhs - rhs) / max(1.0, abs(rhs)))


# -- classical XOR brute force ----------------------------------------------

CLASSICAL_QUBIT_CAP = 24


def classical_value(hypergraph, coeffs, x) -> float:
    """val(I, x) = 1/2 + (1/2|H|) sum_C b_C prod_{i in C} x_i, sites 0-indexed."""
    if len(hypergraph) != len(coeffs):
        raise ValueError("hypergraph and coefficient counts differ")
    if not hypergraph:
        return 0.5
    phi = 0.0
    for sites, b in zip(hypergraph, coeffs):
        prod = 1
        for i in sites:
            prod *= x[i]
        phi += b * prod
    return 0.5 + phi / (2 * len(hypergraph))


def classical_max(hypergraph, coeffs, n: int) -> tuple[float, tuple[int, ...]]:
    """Exact max of val(I, .) over {+-1}^n with the lexicographically-first argmax.

    Assignments are ordered by (x_1, x_2, ...) with +1 before -1.
    """
    if n > CLASSICAL_QUBIT_CAP:
        raise ResourceGuardError(f"classical_max needs n <= {CLASSICAL_QUBIT_CAP}, got {n}")
    if len(hypergraph) != len(coeffs):
        raise ValueError("hypergraph and coefficient counts differ")
    dim = 1 << n
    idx = np.arange(dim, dtype=np.int64)
    phi = np.zeros(dim)
    for sites, b in zip(hypergraph, coeffs):
        phi += b * (1.0 - 2.0 * (np.bitwise_count(idx & site_mask(sites)) & 1))
    m = len(hypergraph)
    vals = 0.5 + phi / (2 * m) if m else np.full(dim, 0.5)
    best = float(vals.max())
    winners = np.nonzero(vals >= best - 1e-15)[0]

    def lex_key(b: int) -> int:
        # bit i encodes site i with 1 = -1; lex order compares site 1 first
        return int("".join("1" if b >> i & 1 else "0" for i in range(n)), 2)

    b_star = min((int(b) for b in winners), key=lex_key)
    x = tuple(1 - 2 * (b_star >> i & 1) for i in range(n))
    return best, x
