"""Non-commutative SoS lower-bound machinery.

Max-entropy construction.  Seed pE[Id] = 1 and pE[P_C] = b_C, then close
under the product rule pE[Q R] = conj(pE[Q]) pE[R] for already-assigned Q, R
whenever the product word stays within the degree budget; unassigned words
evaluate to 0.  A conflicting assignment is returned as a Contradiction
carrying both derivations (it is a meaningful output, not a failure: the
combined derivation multiplies out to Identity with value -1).

For one-basis instances (every word a single letter type) the closure runs
the same mul_words path as any other instance; their products carry no phase,
so all values are +-1.  Well-definedness is guaranteed when the hypergraph is
a small-set boundary expander of quality (beta, d0) with beta * d0 / 2 at or
above the requested degree.  General instances are accepted but labeled
experimental; an anticommutation scan runs first since any anticommuting
constraint pair rules out a degree-2k pseudo-expectation assigning both
terms value 1.

All values live in {0, +-1, +-i} (rationals after lifting), kept exact with
a tiny complex-rational type so checks like the -1/9 obstruction value are
bit-exact.  The closure itself works on the exponent e of each unit i^e and
converts to that type only in its result.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .instances import Instance
from .oracle import ResourceGuardError, check_hermitian
from .pauli import (PauliOp, canonical_key, commutes, enumerate_slice, masks_from_arrays,
                    mul_words, site_mask, slice_size)

MOMENT_MATRIX_CAP = 5000
# most words the max-entropy closure assigns before it stops (each new word is
# multiplied against every earlier one, so the closure's cost is quadratic)
MAX_ENTROPY_WORDS = 10_000
# most subsets an exhaustive boundary expansion check enumerates
EXHAUSTIVE_SUBSET_CAP = 1 << 21
# seeded subsets a sampled boundary expansion check draws
EXPANSION_SAMPLES = 20000
EXPANSION_SEED = 0


# -- exact complex rationals ---------------------------------------------------


@dataclass(frozen=True)
class ExactComplex:
    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(value) -> "ExactComplex":
        if isinstance(value, ExactComplex):
            return value
        return ExactComplex(Fraction(value))

    def __add__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re + other.re, self.im + other.im)

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.re, -self.im)

    def __mul__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re * other.re - self.im * other.im,
                            self.re * other.im + self.im * other.re)

    def times_i(self, exp: int) -> "ExactComplex":
        """self * i**exp: exp mod 4 quarter turns (re, im) -> (-im, re), applied as one rotation."""
        turn = exp % 4
        if turn == 0:
            return self
        if turn == 1:
            return ExactComplex(-self.im, self.re)
        if turn == 2:
            return ExactComplex(-self.re, -self.im)
        return ExactComplex(self.im, -self.re)

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        # the same correctly rounded int / int division float(Fraction) makes, minus its dispatch
        re, im = self.re, self.im
        return complex(re.numerator / re.denominator, im.numerator / im.denominator)

    def __str__(self) -> str:
        for sym, val in (("+1", _ONE), ("-1", -_ONE), ("+i", _I), ("-i", -_I)):
            if self == val:
                return sym
        if self.im == 0:
            return repr(float(self.re))
        return f"{float(self.re)!r}{'+' if self.im >= 0 else '-'}{abs(float(self.im))!r}i"


_ONE = ExactComplex(Fraction(1))
_I = ExactComplex(Fraction(0), Fraction(1))
ZERO = ExactComplex()
# the unit i^e, indexed by the exponent e mod 4
_UNITS = (_ONE, _I, -_ONE, -_I)


# -- exact Pauli polynomials -----------------------------------------------------


class PauliPolynomial:
    """Finite sum of words with exact complex-rational coefficients."""

    def __init__(self, n: int, pairs=()):
        self.n = n
        self.terms: dict[PauliOp, ExactComplex] = {}
        for op, coeff in pairs:
            self._add(op, ExactComplex.of(coeff))

    def _add(self, op: PauliOp, coeff: ExactComplex) -> None:
        cur = self.terms.get(op, ZERO) + coeff
        if cur.is_zero():
            self.terms.pop(op, None)
        else:
            self.terms[op] = cur

    def adjoint(self) -> "PauliPolynomial":
        return PauliPolynomial(self.n, ((op, c.conjugate()) for op, c in self.terms.items()))

    def __mul__(self, other: "PauliPolynomial") -> "PauliPolynomial":
        out = PauliPolynomial(self.n)
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                prod = mul_words(a, b)
                out._add(prod.op, (ca * cb).times_i(prod.phase_exp))
        return out

    def gram_square(self) -> "PauliPolynomial":
        """The exact expansion of (self)^dag * self."""
        return self.adjoint() * self


# -- derivations -----------------------------------------------------------------


@dataclass(frozen=True)
class Derivation:
    """Linearized derivation: each step is an axiom word or a product of earlier steps."""

    steps: tuple[tuple[PauliOp, str, tuple], ...]
    axiom_ids: frozenset[int]

    def dump_lines(self, prefix: str) -> list[str]:
        out = []
        for i, (word, rule, data) in enumerate(self.steps):
            detail = "" if not data else " " + ",".join(str(d) for d in data)
            out.append(f"{prefix}.step.{i}={word.to_string()} {rule}{detail}")
        return out


@dataclass(frozen=True)
class Contradiction:
    """Two derivations assigning different values to the same word."""

    word: PauliOp
    value_a: ExactComplex
    value_b: ExactComplex
    derivation_a: Derivation
    derivation_b: Derivation
    obstructions: tuple[tuple[int, int], ...] = ()

    @property
    def combined_axioms(self) -> frozenset[int]:
        return self.derivation_a.axiom_ids ^ self.derivation_b.axiom_ids

    def dump_lines(self) -> list[str]:
        out = [
            f"CONTRADICTION word={self.word.to_string()}",
            f"value_a={self.value_a}",
            f"value_b={self.value_b}",
        ]
        out += self.derivation_a.dump_lines("deriv_a")
        out += self.derivation_b.dump_lines("deriv_b")
        return out


def _derivation(rules: dict[PauliOp, tuple], word: PauliOp) -> Derivation:
    """Linearize a word's rule DAG: rule "identity" (), "axiom" (cid) or "product" (left, right).

    Each step's axiom ids are its operands' ids XORed, so an axiom reached along
    an even number of DAG paths drops out, as P_C^2 = Id does in the product.
    """
    steps: list[tuple[PauliOp, str, tuple]] = []
    index: dict[PauliOp, int] = {}

    def visit(w: PauliOp) -> int:
        if w not in index:
            rule, *args = rules[w]
            data = (visit(args[0]), visit(args[1])) if rule == "product" else tuple(args)
            index[w] = len(steps)
            steps.append((w, rule, data))
        return index[w]

    visit(word)
    axioms: list[frozenset[int]] = []
    for _, rule, data in steps:
        axioms.append(axioms[data[0]] ^ axioms[data[1]] if rule == "product" else frozenset(data))
    return Derivation(steps=tuple(steps), axiom_ids=axioms[-1])


# -- pseudo-expectations -----------------------------------------------------------


def _energy(inst: Instance, value_of) -> ExactComplex:
    """1/2 + (1/2|H|) sum_C b_C value_of(x_C, z_C) over the rows' masks, exactly; 1/2 when m = 0."""
    total = ZERO
    xs, zs = masks_from_arrays(inst.n, inst.sites, inst.letters)
    for x, z, coeff in zip(xs, zs, inst.coeffs.tolist()):
        total = total + ExactComplex.of(Fraction(coeff)) * value_of(x, z)
    half = ExactComplex.of(Fraction(1, 2))
    return half + ExactComplex.of(Fraction(1, 2 * inst.m)) * total if inst.m else half


@dataclass
class PseudoExpectation:
    """Partial map from phase-free words of weight <= degree to exact values."""

    n: int
    degree: int
    values: dict[PauliOp, ExactComplex]
    experimental: bool = False
    obstructions: tuple[tuple[int, int], ...] = ()

    def value(self, word: PauliOp) -> ExactComplex:
        return self.values.get(word, ZERO)

    def pair_value(self, left: PauliOp, right: PauliOp) -> ExactComplex:
        """pE[left^dag right] with the product phase applied to the stored word value.

        The product word is looked up by its masks before it is built: a
        PauliOp hashes and compares as its (n, xmask, zmask) tuple, so the
        plain tuple finds the stored word, and an absent word (most moment
        entries) costs one dict probe and returns the shared ZERO.  Only a
        present word calls mul_words, for the phase.
        """
        n, lx, lz = left
        rn, rx, rz = right
        if n != rn:  # mul_words' check, made before an absent product could skip it
            raise ValueError(f"qubit counts differ: {n} != {rn}")
        value = self.values.get((n, lx ^ rx, lz ^ rz))
        return ZERO if value is None else value.times_i(mul_words(left, right).phase_exp)

    def evaluate(self, poly: PauliPolynomial) -> ExactComplex:
        total = ZERO
        for op, coeff in poly.terms.items():
            total = total + coeff * self.value(op)
        return total

    def energy(self, inst: Instance) -> ExactComplex:
        """pE[Id/2 + (1/2|H|) sum_C b_C P_C] in exact arithmetic for +-1 coefficients."""
        return _energy(inst, lambda x, z: self.values.get((inst.n, x, z), ZERO))

    def dump(self) -> str:
        lines = [f"PSEXP v1 n={self.n} d={self.degree}"]
        for word in sorted(self.values, key=canonical_key):
            val = self.values[word]
            if not val.is_zero():
                lines.append(f"{word.to_string()} {val}")
        return "\n".join(lines) + "\n"


def anticommuting_obstruction(inst: Instance) -> list[tuple[int, int]]:
    """All constraint pairs whose words anticommute.

    A non-empty list certifies that no degree-2k pseudo-expectation assigns
    both terms value 1.  Rows i < j anticommute when popcount((x_i & z_j) ^
    (z_i & x_j)) is odd; the masks are Python ints, so any n works.
    """
    xs, zs = masks_from_arrays(inst.n, inst.sites, inst.letters)
    return [(i, j) for i, (xi, zi) in enumerate(zip(xs, zs))
            for j in range(i + 1, inst.m) if ((xi & zs[j]) ^ (zi & xs[j])).bit_count() & 1]


def max_entropy_build(inst: Instance, d: int):
    """Closure of the seeded assignment; PseudoExpectation or Contradiction.

    Every value is a unit i^e, so the closure keeps one exponent e mod 4 per
    word: seeds +1 and -1 are 0 and 2, and pE[Q R] = conj(pE[Q]) pE[R] turns
    into e_R - e_Q - phase, the phase of Q R from mul_words.  The exponents
    become ExactComplex values only in the result.  On one-basis instances
    (any single letter type) products carry no phase and all values are +-1.
    Other instances are accepted as experimental: values may be +-i and the
    anticommutation scan result is attached.  Raises ResourceGuardError rather
    than assign more than MAX_ENTROPY_WORDS words.
    """
    if d < inst.k:
        raise ValueError(f"degree {d} below constraint arity {inst.k}")
    one_basis = inst.is_one_basis()
    obstructions = () if one_basis else tuple(anticommuting_obstruction(inst))

    rules: dict[PauliOp, tuple] = {}
    exps: dict[PauliOp, int] = {}
    order: list[PauliOp] = []

    def assign(word, exp, *rule):
        """Record a new word's exponent and rule; a second, different one is a Contradiction."""
        existing = exps.get(word)
        if existing is None:
            if len(order) >= MAX_ENTROPY_WORDS:
                raise ResourceGuardError(f"max-entropy closure exceeds {MAX_ENTROPY_WORDS} words")
            exps[word] = exp
            rules[word] = rule
            order.append(word)
        elif existing != exp:
            deriv_a = _derivation(rules, word)
            rules[word] = rule
            return Contradiction(word=word, value_a=_UNITS[existing], value_b=_UNITS[exp],
                                 derivation_a=deriv_a, derivation_b=_derivation(rules, word),
                                 obstructions=obstructions)
        return None

    assign(PauliOp.identity(inst.n), 0, "identity")
    # seed the axioms in row order: row i's coefficient is checked after rows before i
    xs, zs = masks_from_arrays(inst.n, inst.sites, inst.letters)
    for cid, (x, z, coeff) in enumerate(zip(xs, zs, inst.coeffs.tolist())):
        if coeff not in (1, -1):
            raise ValueError("max-entropy seeding needs +-1 coefficients")
        found = assign(PauliOp(inst.n, x, z), 0 if coeff == 1 else 2, "axiom", cid)
        if found is not None:
            return found

    # fixpoint: pE[Q R] = conj(pE[Q]) pE[R] whenever the product stays in degree
    head = 0
    while head < len(order):
        w = order[head]
        head += 1
        _, wx, wz = w
        for i in range(len(order)):  # the words known when this step began
            u = order[i]
            _, ux, uz = u
            # both orders give the same product word: test its weight on the masks first
            if ((ux ^ wx) | (uz ^ wz)).bit_count() > d:
                continue
            for left, right in ((u, w), (w, u)):
                op, phase = mul_words(left, right)
                exp = (exps[right] - exps[left] - phase) % 4
                if exps.get(op) != exp:
                    found = assign(op, exp, "product", left, right)
                    if found is not None:
                        return found

    return PseudoExpectation(n=inst.n, degree=d, values={w: _UNITS[e] for w, e in exps.items()},
                             experimental=not one_basis, obstructions=obstructions)


def _moment_weights(n: int, d: int) -> range:
    """Weights of the degree-d moment matrix's words: 0 to d/2, and no more than n."""
    return range(min(d // 2, n) + 1)


def moment_rows(n: int, d: int) -> int:
    """Rows of the degree-d moment matrix: the n-qubit words of weight <= d/2."""
    return sum(slice_size(n, w) for w in _moment_weights(n, d))


def moment_matrix(pe: PseudoExpectation, d: int) -> np.ndarray:
    """Complex moment matrix pE[a^dag b] over the words a, b of weight <= d/2, slice by slice.

    Raises ResourceGuardError above MOMENT_MATRIX_CAP rows.
    """
    count = moment_rows(pe.n, d)
    if count > MOMENT_MATRIX_CAP:
        raise ResourceGuardError(f"moment matrix would have {count} rows "
                                 f"(cap {MOMENT_MATRIX_CAP})")
    words: list[PauliOp] = []
    for w in _moment_weights(pe.n, d):
        words.extend(enumerate_slice(pe.n, w))
    mat = np.zeros((count, count), dtype=complex)
    pair_value = pe.pair_value
    # most products are absent words, whose value is the shared ZERO
    for i, a in enumerate(words):
        mat[i] = [0j if (v := pair_value(a, b)) is ZERO else complex(v) for b in words]
    return mat


def positivity_check(pe: PseudoExpectation, d: int) -> tuple[float, bool]:
    """Minimum eigenvalue of the moment matrix over weight <= d/2 words; pass at -1e-8.

    Raises ValueError if ``oracle.check_hermitian`` refuses the moment matrix.
    """
    mat = moment_matrix(pe, d)
    check_hermitian(mat)
    min_eig = float(np.linalg.eigvalsh(mat)[0])
    return min_eig, min_eig >= -1e-8


# -- boundary expansion ------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionReport:
    passed: bool
    witness: tuple[int, ...] | None
    exhaustive: bool
    profile: tuple[tuple[int, int], ...]  # (subset size, min boundary) per size


def _expansion_subsets(count: int, limit: int, exhaustive: bool):
    """Constraint subsets of size 1..limit: all of them by size, or seeded samples."""
    if exhaustive:
        for size in range(1, limit + 1):
            yield from combinations(range(count), size)
        return
    rng = random.Random(EXPANSION_SEED)
    for _ in range(EXPANSION_SAMPLES):
        size = rng.randrange(1, limit + 1)
        yield tuple(sorted(rng.sample(range(count), size)))


def boundary_expansion_check(hypergraph, beta: float, d: int) -> ExpansionReport:
    """Check |xor of supports| >= beta * |S| for all subsets S up to size d.

    Exhaustive when the subsets of size 1..min(d, m) number at most
    EXHAUSTIVE_SUBSET_CAP; beyond that a sampled pass runs and the report is
    flagged as heuristic.
    """
    if not math.isfinite(beta):
        raise ValueError(f"expansion beta must be finite, got {beta}")
    if d < 1:
        raise ValueError(f"expansion subset size d must be at least 1, got {d}")
    masks = [site_mask(sites) for sites in hypergraph]
    limit = min(d, len(masks))
    subsets = sum(math.comb(len(masks), size) for size in range(1, limit + 1))
    exhaustive = subsets <= EXHAUSTIVE_SUBSET_CAP
    witness = None
    best_by_size: dict[int, int] = {}
    for subset in _expansion_subsets(len(masks), limit, exhaustive):
        acc = 0
        for i in subset:
            acc ^= masks[i]
        boundary = acc.bit_count()
        size = len(subset)
        best_by_size[size] = min(best_by_size.get(size, boundary), boundary)
        if boundary < beta * size and witness is None:
            witness = subset
    return ExpansionReport(passed=witness is None, witness=witness, exhaustive=exhaustive,
                           profile=tuple(sorted(best_by_size.items())))


# -- the anticommutation obstruction value ------------------------------------------


def obstruction_polynomial(p: PauliOp, q: PauliOp) -> PauliPolynomial:
    """H = (-P + Q + PQ) / 3 for an anticommuting pair, as an exact polynomial."""
    if commutes(p, q):
        raise ValueError("obstruction polynomial needs an anticommuting pair")
    third = Fraction(1, 3)
    prod = mul_words(p, q)
    return PauliPolynomial(p.n, [(p, -third), (q, third),
                                 (prod.op, ExactComplex.of(third).times_i(prod.phase_exp))])


def obstruction_pseudo_expectation(p: PauliOp, q: PauliOp) -> PseudoExpectation:
    """The max-entropy-style map with pE[P] = pE[Q] = 1 for an anticommuting pair.

    The product word picks up the first derivation's value; no consistent
    extension exists, which is exactly what evaluating the squared
    obstruction polynomial exposes (value -1/9).
    """
    if commutes(p, q):
        raise ValueError("needs an anticommuting pair")
    values = {PauliOp.identity(p.n): _ONE, p: _ONE, q: _ONE}
    prod = mul_words(p, q)
    values[prod.op] = _ONE.times_i(-prod.phase_exp)
    return PseudoExpectation(n=p.n, degree=2 * max(p.weight(), q.weight()),
                             values=values, experimental=True)


# -- lifting classical pseudo-expectations -------------------------------------------


class MomentOracleGap(ValueError):
    """The classical moment oracle has no value for a requested monomial."""


@dataclass
class MomentOracle:
    """Values of the multilinear monomials x_S over a classical pseudo-distribution."""

    n: int
    degree: int
    values: dict[int, ExactComplex]

    @staticmethod
    def from_distribution(n: int, assignments, weights=None, degree: int | None = None
                          ) -> "MomentOracle":
        """Exact moments of a distribution over +-1 assignments (uniform by default).

        Raises ValueError unless there is at least one assignment, each of n
        entries +1 or -1, and one nonnegative weight per assignment, the
        weights summing to one.
        """
        if not assignments:
            raise ValueError("need at least one assignment")
        for x in assignments:
            if len(x) != n or not set(x) <= {1, -1}:
                raise ValueError(f"assignment {tuple(x)} is not {n} entries of +1 or -1")
        if weights is None:
            weights = [Fraction(1, len(assignments))] * len(assignments)
        weights = [Fraction(w) for w in weights]
        if len(weights) != len(assignments):
            raise ValueError(f"{len(weights)} weights for {len(assignments)} assignments")
        if min(weights) < 0:
            raise ValueError("weights must be nonnegative")
        if sum(weights) != 1:
            raise ValueError("weights must sum to one")
        degree = n if degree is None else degree
        values: dict[int, ExactComplex] = {}
        for size in range(degree + 1):
            for sites in combinations(range(n), size):
                total = sum((w * math.prod(x[i] for i in sites)
                             for x, w in zip(assignments, weights)), Fraction(0))
                values[site_mask(sites)] = ExactComplex.of(total)
        return MomentOracle(n=n, degree=degree, values=values)

    def value(self, mask: int) -> ExactComplex:
        try:
            return self.values[mask]
        except KeyError:
            raise MomentOracleGap(f"no moment recorded for mask {mask:#x}") from None


def lift_classical(inst: Instance, moments: MomentOracle, d: int) -> PseudoExpectation:
    """Lift a classical degree-d pseudo-expectation to the Z-basis Hamiltonian.

    Z-type words of weight <= d get the classical monomial value on their
    support; every other word gets 0.  The lifted value of the Hamiltonian
    equals the classical objective value by construction.  A pseudo-expectation
    has pE[Id] = 1, so the empty monomial's value must be exactly 1.
    """
    if moments.n != inst.n:
        raise ValueError(f"moments are for n={moments.n} qubits, instance has n={inst.n}")
    if (inst.letters != 2).any():
        raise ValueError("lifting needs a Z-basis instance")
    if d < inst.k:
        raise ValueError(f"degree {d} below constraint arity {inst.k}")
    if moments.degree < d:
        raise MomentOracleGap(f"oracle degree {moments.degree} below requested {d}")
    one = moments.value(0)
    if one != _ONE:
        raise ValueError(f"lifted moments need E[1] = 1, got {one.re}"
                         + (f" + ({one.im})i" if one.im else ""))
    values: dict[PauliOp, ExactComplex] = {}
    for size in range(d + 1):
        for sites in combinations(range(inst.n), size):
            mask = site_mask(sites)
            val = moments.value(mask)
            if not val.is_zero():
                values[PauliOp(inst.n, 0, mask)] = val
    return PseudoExpectation(n=inst.n, degree=d, values=values)


def classical_energy(inst: Instance, moments: MomentOracle) -> ExactComplex:
    """The classical SoS objective 1/2 + (1/2|H|) sum_C b_C pE[x_C], exactly."""
    return _energy(inst, lambda x, z: moments.value(x | z))
