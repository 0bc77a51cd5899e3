"""Instances and reference implementations shared by the test modules."""

from fractions import Fraction
from itertools import combinations

import numpy as np

from hkxor.instances import GeneratorConfig, generate
from hkxor.kikuchi_even import EDGE_BUDGET, _sorted_graph, delta_count
from hkxor.oracle import ResourceGuardError, word_action
from hkxor.pauli import (PauliOp, SliceIndex, enumerate_slice, masks_from_arrays, mul_words,
                         site_mask, words_from_arrays)
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


def build_even_reference(inst, ell):
    """``build_even`` edge by edge: each endpoint built by ``PauliOp``, multiplied, checked
    to give +P and ranked in one loop over (constraint, half, shared word)."""
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
