"""Instances and reference implementations shared by the test modules."""

from fractions import Fraction

import numpy as np

from hkxor.instances import GeneratorConfig, generate
from hkxor.oracle import word_action
from hkxor.pauli import PauliOp, enumerate_slice, mul_words, words_from_arrays
from hkxor.sos import (MAX_ENTROPY_WORDS, Contradiction, Derivation, ExactComplex,
                       PseudoExpectation, anticommuting_obstruction)


def explicit_instance(n, k, words_sparse, coeffs=None):
    """The explicit instance of the given sparse words, every coefficient 1.0 unless given."""
    words = tuple(PauliOp.from_sparse(w, n) for w in words_sparse)
    return generate(GeneratorConfig(n=n, k=k, m=len(words), model="explicit", words=words,
                                    coeffs=coeffs or (1.0,) * len(words)))


def z_instance(n, supports, coeffs):
    """The one-basis-z instance of the given 0-indexed supports and coefficients."""
    words = tuple(PauliOp.from_letters(n, tuple(sorted(s)), "Z" * len(s)) for s in supports)
    return generate(GeneratorConfig(n=n, k=len(supports[0]), m=len(words), model="one-basis-z",
                                    words=words, coeffs=coeffs))


def instance_rows(inst):
    """The instance's rows as (word, coefficient) pairs, built from its columns."""
    return list(zip(words_from_arrays(inst.n, inst.sites, inst.letters), inst.coeffs.tolist()))


def verify_rademacher():
    """The verify workload's rademacher instance: n=10, k=3, m=200, the words of the
    seed-0 generator draw with seed-0 signs."""
    words = tuple(w for w, _ in instance_rows(generate(GeneratorConfig(n=10, k=3, m=200,
                                                                       seed=0))))
    return generate(GeneratorConfig(n=10, k=3, m=200, model="rademacher-semirandom", seed=0,
                                    words=words))


def single_zz():
    """Z1 Z2 with coefficient 1.0 on two qubits."""
    return explicit_instance(2, 2, ["Z1 Z2"])


def moment_matrix_reference(pe, d):
    """The degree-d moment matrix entry by entry: the word value of a^dag b times its phase."""
    words = [w for weight in range(min(d // 2, pe.n) + 1)
             for w in enumerate_slice(pe.n, weight)]
    mat = np.zeros((len(words), len(words)), dtype=complex)
    for i, a in enumerate(words):
        for j, b in enumerate(words):
            prod = mul_words(a, b)
            mat[i, j] = complex(pe.value(prod.op).times_i(prod.phase_exp))
    return mat


def degrees_reference(graph):
    """|w|/2 at both ends of every edge, summed over the interleaved (q, r), (r, q) entries."""
    ends = np.column_stack((graph.rows, graph.cols)).ravel()
    half = np.repeat(graph.weights[graph.tids] / 2.0, 2)
    return np.bincount(ends, weights=np.abs(half), minlength=graph.num_vertices)


def assemble_pauli_sum_reference(n, terms):
    """The dense sum of (PauliOp, coefficient) terms, one scatter-add of 2^n entries per
    term in input order."""
    cols = np.arange(1 << n, dtype=np.int64)
    m = np.zeros((1 << n, 1 << n), dtype=complex)
    for op, coeff in terms:
        rows, vals = word_action(op)
        m[rows, cols] += coeff * vals
    return m


def assemble_reference(inst):
    """Dense H = Id/2 + (1/2|H|) sum_C b_C P_C: the per-term sum, divided, plus 0.5 on the
    diagonal."""
    m = assemble_pauli_sum_reference(inst.n, instance_rows(inst))
    if inst.m:
        m /= 2 * inst.m
    m.reshape(-1)[:: (1 << inst.n) + 1] += 0.5
    return m


def hermitian_deviation_reference(m):
    """max|M - M^H| of a dense or sparse M through the whole difference matrix."""
    return float(abs(m - m.conj().T).max())


def lambda_max_reference(matrix):
    """The top eigenvalue of a Hermitian matrix from a full dense ``eigvalsh``."""
    return float(np.linalg.eigvalsh(matrix)[-1])


class _Provenance:
    """DAG of derivation rules with each word's axiom ids kept as it is recorded."""

    def __init__(self):
        self.rules = {}
        self.axioms = {}

    def record(self, word, rule, *args):
        self.rules[word] = (rule, *args)
        if rule == "product":
            self.axioms[word] = self.axioms[args[0]] ^ self.axioms[args[1]]
        else:
            self.axioms[word] = frozenset(args)

    def derivation(self, word):
        order, index = [], {}

        def visit(w):
            if w in index:
                return index[w]
            rule = self.rules[w]
            if rule[0] == "product":
                data = (visit(rule[1]), visit(rule[2]))
            elif rule[0] == "axiom":
                data = (rule[1],)
            else:
                data = ()
            index[w] = len(order)
            order.append((w, rule[0], data))
            return index[w]

        visit(word)
        return Derivation(steps=tuple(order), axiom_ids=self.axioms[word])


def max_entropy_reference(inst, d):
    """The max-entropy closure in ExactComplex arithmetic, every candidate worked out in full.

    Values are conj(pE[Q]) pE[R] i^-phase as complex rationals, and each word's
    axiom ids are XORed as it is recorded.
    """
    if d < inst.k:
        raise ValueError(f"degree {d} below constraint arity {inst.k}")
    one_basis = inst.is_one_basis()
    obstructions = () if one_basis else tuple(anticommuting_obstruction(inst))
    one = ExactComplex(Fraction(1))
    prov, values, order = _Provenance(), {}, []

    def assign(word, value, rule, *args):
        existing = values.get(word)
        if existing is None:
            if len(order) >= MAX_ENTROPY_WORDS:
                raise MemoryError(f"max-entropy closure exceeds {MAX_ENTROPY_WORDS} words")
            values[word] = value
            prov.record(word, rule, *args)
            order.append(word)
        elif existing != value:
            deriv_a = prov.derivation(word)
            prov.record(word, rule, *args)
            return Contradiction(word=word, value_a=existing, value_b=value,
                                 derivation_a=deriv_a, derivation_b=prov.derivation(word),
                                 obstructions=obstructions)
        return None

    assign(PauliOp.identity(inst.n), one, "identity")
    for cid, (word, coeff) in enumerate(instance_rows(inst)):
        val = ExactComplex.of(Fraction(coeff))
        if val * val != one:
            raise ValueError("max-entropy seeding needs +-1 coefficients")
        found = assign(word, val, "axiom", cid)
        if found is not None:
            return found

    head = 0
    while head < len(order):
        w = order[head]
        head += 1
        for u in order[:len(order)]:
            if mul_words(u, w).op.weight() > d:
                continue
            for left, right in ((u, w), (w, u)):
                prod = mul_words(left, right)
                cand = (values[left].conjugate() * values[right]).times_i(-prod.phase_exp)
                found = assign(prod.op, cand, "product", left, right)
                if found is not None:
                    return found
    return PseudoExpectation(n=inst.n, degree=d, values=values,
                             experimental=not one_basis, obstructions=obstructions)
