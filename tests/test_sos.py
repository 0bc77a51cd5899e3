"""Max-entropy pseudo-expectations, expansion, positivity, lifting."""

import hashlib
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hkxor.instances import Constraint, GeneratorConfig, Instance, generate
from hkxor.oracle import apply_word, assemble, lambda_max
from hkxor.pauli import PauliOp, canonical_key, commutes, mul_words
from hkxor.sos import (
    Contradiction,
    ExactComplex,
    MomentOracle,
    MomentOracleGap,
    PseudoExpectation,
    anticommuting_obstruction,
    boundary_expansion_check,
    classical_energy,
    lift_classical,
    max_entropy_build,
    obstruction_polynomial,
    obstruction_pseudo_expectation,
    positivity_check,
)

ONE = ExactComplex.of(1)


def z_instance(n, supports, coeffs):
    cons = tuple(
        Constraint(PauliOp.from_letters(n, tuple(sorted(s)), "Z" * len(s)), b)
        for s, b in zip(supports, coeffs)
    )
    return Instance(n, len(supports[0]), cons, "one-basis-z")


def test_exact_complex():
    i = ONE.times_i(1)
    assert i * i == ExactComplex.of(-1)
    assert i.conjugate() == ONE.times_i(3)
    assert (i + i.conjugate()).is_zero()
    assert complex(ExactComplex(Fraction(1, 2), Fraction(-1, 2))) == 0.5 - 0.5j
    assert str(i) == "+i" and str(-i) == "-i"


@given(st.fractions(), st.fractions(), st.integers(-8, 8))
def test_times_i_equals_repeated_products_by_i(re, im, exp):
    value = ExactComplex(re, im)
    unit = ExactComplex(Fraction(0), Fraction(1 if exp > 0 else -1))  # i, or 1/i = -i
    expected = value
    for _ in range(abs(exp)):
        expected = expected * unit
    assert value.times_i(exp) == expected


def test_expansion_pass_example():
    report = boundary_expansion_check([(0, 1, 2), (2, 3, 4)], beta=2, d=2)
    assert report.passed and report.exhaustive
    assert dict(report.profile) == {1: 3, 2: 4}


def test_expansion_duplicate_edge_fails():
    report = boundary_expansion_check([(0, 1, 2), (0, 1, 2)], beta=0.5, d=2)
    assert not report.passed
    assert report.witness == (0, 1)


def test_expansion_empty_hypergraph():
    report = boundary_expansion_check([], beta=1.0, d=4)
    assert report.passed and report.witness is None


def test_expansion_samples_when_subsets_exceed_the_cap():
    # C(200, <=6) ~ 8.5e10 subsets: sampled, though d is small
    edges = [tuple(range(i % 30, i % 30 + 3)) for i in range(200)]
    assert not boundary_expansion_check(edges, beta=0.5, d=6).exhaustive
    # four edges give 15 subsets at the same d
    report = boundary_expansion_check(edges[:4], beta=0.5, d=6)
    assert report.exhaustive and [size for size, _ in report.profile] == [1, 2, 3, 4]


def test_expansion_rejects_subset_size_below_one():
    for d in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            boundary_expansion_check([(0, 1, 2)], beta=1.0, d=d)


def test_max_entropy_single_constraint():
    inst = z_instance(3, [(0, 1, 2)], [1.0])
    pe = max_entropy_build(inst, 3)
    assert isinstance(pe, PseudoExpectation)
    assert pe.value(PauliOp.from_sparse("Z1 Z2 Z3", 3)) == ONE
    assert pe.energy(inst) == ONE
    assert pe.value(PauliOp.from_sparse("Z1", 3)).is_zero()
    assert pe.value(PauliOp.from_sparse("Z1 Z2", 3)).is_zero()
    assert pe.value(PauliOp.identity(3)) == ONE


def test_max_entropy_contradiction_triangle():
    inst = z_instance(3, [(0, 1), (1, 2), (0, 2)], [1.0, 1.0, -1.0])
    result = max_entropy_build(inst, 4)
    assert isinstance(result, Contradiction)
    # the two derivations disagree by a sign, so the telescoped product of the
    # combined derivation assigns Identity the value -1
    assert result.value_a * result.value_b.conjugate() == ExactComplex.of(-1)
    # combined axiom set has empty support XOR: a boundary-expansion violation
    acc = 0
    for cid in result.combined_axioms:
        acc ^= sum(1 << i for i in inst.constraints[cid].support)
    assert acc == 0
    report = boundary_expansion_check(inst.hypergraph(), beta=0.5,
                                      d=len(result.combined_axioms))
    assert not report.passed


def test_max_entropy_degree_truncation():
    # products above the degree budget are never assigned
    inst = z_instance(6, [(0, 1, 2), (3, 4, 5)], [1.0, 1.0])
    pe = max_entropy_build(inst, 3)
    assert pe.value(PauliOp.from_letters(6, tuple(range(6)), "Z" * 6)).is_zero()
    pe6 = max_entropy_build(inst, 6)
    assert pe6.value(PauliOp.from_letters(6, tuple(range(6)), "Z" * 6)) == ONE


def test_max_entropy_values_are_signs():
    inst = generate(GeneratorConfig(n=8, k=3, m=5, model="one-basis-z", seed=4))
    pe = max_entropy_build(inst, 4)
    if isinstance(pe, PseudoExpectation):
        assert all(v == ONE or v == ExactComplex.of(-1) for v in pe.values.values())
        assert not pe.experimental


def test_max_entropy_well_defined_on_expanders():
    built = 0
    for seed in range(40):
        inst = generate(GeneratorConfig(n=16, k=3, m=4, model="one-basis-z", seed=seed))
        report = boundary_expansion_check(inst.hypergraph(), beta=1.5, d=4)
        if not report.passed:
            continue
        pe = max_entropy_build(inst, 3)  # beta * d0 / 2 = 3 >= degree
        assert isinstance(pe, PseudoExpectation)
        assert pe.energy(inst) == ONE
        min_eig, ok = positivity_check(pe, 3)
        assert ok, min_eig
        built += 1
    assert built >= 5


def test_one_basis_x_accepted_via_relabeling():
    words = [PauliOp.from_letters(4, (0, 1), "XX"), PauliOp.from_letters(4, (2, 3), "XX")]
    cons = tuple(Constraint(w, 1.0) for w in words)
    inst = Instance(4, 2, cons, "explicit")
    pe = max_entropy_build(inst, 4)
    assert isinstance(pe, PseudoExpectation) and not pe.experimental
    assert pe.value(mul_words(words[0], words[1]).op) == ONE


def test_general_instance_is_experimental():
    inst = generate(GeneratorConfig(n=4, k=2, m=4, model="random", seed=11))
    result = max_entropy_build(inst, 4)
    assert result.obstructions == tuple(anticommuting_obstruction(inst))
    if isinstance(result, PseudoExpectation):
        assert result.experimental


def test_positivity_point_distribution():
    n = 4
    x = (1, -1, 1, -1)
    moments = MomentOracle.from_distribution(n, [x])
    inst = generate(GeneratorConfig(n=n, k=2, m=4, model="one-basis-z", seed=0))
    pe = lift_classical(inst, moments, 4)
    # the lifted map is the Z-moment map of the product state |x><x|
    psi = np.zeros(1 << n, dtype=complex)
    psi[sum((1 << i) for i in range(n) if x[i] == -1)] = 1.0
    for word, val in pe.values.items():
        assert abs(complex(val) - np.vdot(psi, apply_word(word, psi))) < 1e-12
    min_eig, ok = positivity_check(pe, 4)
    assert ok, min_eig


def test_moment_matrix_hermitian():
    inst = generate(GeneratorConfig(n=6, k=3, m=4, model="one-basis-z", seed=8))
    pe = max_entropy_build(inst, 4)
    assert isinstance(pe, PseudoExpectation)
    # pair_value is conjugate-symmetric on real-valued maps
    words = [PauliOp.from_sparse(s, 6) for s in ("I", "Z1", "Z2 Z3", "Z1 Z4")]
    for a in words:
        for b in words:
            assert pe.pair_value(a, b) == pe.pair_value(b, a).conjugate()


def test_pair_value_applies_the_product_phase():
    # X Z = -i Y and Z X = +i Y, so with pE[Y] = 1 the two orders give -i and +i
    x1, y1, z1 = (PauliOp.from_sparse(s, 1) for s in ("X1", "Y1", "Z1"))
    pe = PseudoExpectation(n=1, degree=2, values={y1: ONE})
    assert pe.pair_value(x1, z1) == ExactComplex(Fraction(0), Fraction(-1))
    assert pe.pair_value(z1, x1) == ExactComplex(Fraction(0), Fraction(1))


def test_anticommuting_obstruction_lists():
    inst = generate(GeneratorConfig(n=5, k=3, m=6, model="one-basis-z", seed=1))
    assert anticommuting_obstruction(inst) == []
    x1 = PauliOp.from_sparse("X1", 1)
    z1 = PauliOp.from_sparse("Z1", 1)
    pair_inst = Instance(1, 1, (Constraint(x1, 1.0), Constraint(z1, 1.0)),
                         "explicit")
    assert anticommuting_obstruction(pair_inst) == [(0, 1)]


def test_anticommuting_frequency_in_random_instances():
    hits = 0
    for seed in range(100):
        inst = generate(GeneratorConfig(n=5, k=2, m=10, model="random", seed=seed))
        if anticommuting_obstruction(inst):
            hits += 1
    assert hits > 50


def test_obstruction_value_exact():
    rng = random.Random(5)
    cases = 0
    while cases < 10:
        n = rng.randrange(1, 5)
        sites = tuple(sorted(rng.sample(range(n), rng.randrange(1, n + 1))))
        p = PauliOp.from_letters(n, sites, "".join(rng.choice("XYZ") for _ in sites))
        sites_q = tuple(sorted(rng.sample(range(n), rng.randrange(1, n + 1))))
        q = PauliOp.from_letters(n, sites_q, "".join(rng.choice("XYZ") for _ in sites_q))
        if commutes(p, q):
            continue
        cases += 1
        pe = obstruction_pseudo_expectation(p, q)
        poly = obstruction_polynomial(p, q)
        squared = poly.gram_square()
        assert pe.evaluate(squared) == ExactComplex.of(Fraction(-1, 9))
        # the squared polynomial simplifies to (3 Id - 2P - 2Q)/9 exactly
        assert squared.terms[PauliOp.identity(n)] == ExactComplex.of(Fraction(1, 3))
        assert squared.terms[p] == ExactComplex.of(Fraction(-2, 9))
        assert squared.terms[q] == ExactComplex.of(Fraction(-2, 9))
        assert len(squared.terms) == 3


def test_lift_value_identity():
    rng = np.random.default_rng(17)
    for seed in range(10):
        inst = generate(GeneratorConfig(n=6, k=3, m=8, model="one-basis-z", seed=seed))
        assignments = [tuple(int(v) for v in rng.choice([-1, 1], 6)) for _ in range(3)]
        moments = MomentOracle.from_distribution(6, assignments)
        pe = lift_classical(inst, moments, 4)
        assert pe.energy(inst) == classical_energy(inst, moments)
        for word in pe.values:
            assert word.xmask == 0  # only Z-type words are assigned


def test_lift_satisfying_distribution_has_value_one():
    # two satisfying assignments of a satisfiable system: value 1, PSD moments
    n = 4
    supports = [(0, 1, 2), (1, 2, 3)]
    x1 = (1, 1, 1, 1)
    x2 = (1, -1, -1, 1)
    coeffs = [1.0, 1.0]  # both x1 and x2 satisfy: products are +1
    inst = z_instance(n, supports, coeffs)
    moments = MomentOracle.from_distribution(n, [x1, x2])
    pe = lift_classical(inst, moments, 4)
    assert pe.energy(inst) == ONE
    min_eig, ok = positivity_check(pe, 4)
    assert ok, min_eig
    assert pe.energy(inst) == ExactComplex.of(Fraction(1, 2)) + ExactComplex.of(Fraction(1, 2))


def test_lift_requires_z_basis():
    inst = generate(GeneratorConfig(n=4, k=2, m=3, model="random", seed=2))
    moments = MomentOracle.from_distribution(4, [(1, 1, 1, 1)])
    if any(c.pauli.xmask for c in inst.constraints):
        with pytest.raises(ValueError):
            lift_classical(inst, moments, 2)


def test_moment_oracle_gap():
    moments = MomentOracle.from_distribution(3, [(1, 1, 1)], degree=1)
    with pytest.raises(MomentOracleGap):
        moments.value(0b011)


def test_pseudo_expectation_dump():
    inst = z_instance(3, [(0, 1, 2)], [1.0])
    pe = max_entropy_build(inst, 3)
    text = pe.dump()
    assert text.startswith("PSEXP v1 n=3 d=3")
    assert "ZZZ +1" in text


def test_contradiction_dump():
    inst = z_instance(3, [(0, 1), (1, 2), (0, 2)], [1.0, 1.0, -1.0])
    result = max_entropy_build(inst, 4)
    lines = result.dump_lines()
    assert lines[0].startswith("CONTRADICTION word=")
    assert any(line.startswith("deriv_a.step.0=") for line in lines)
    assert any(line.startswith("deriv_b.") for line in lines)
    assert result.derivation_b.width >= 2


def test_lift_value_bounded_by_dense_maximum():
    # distribution-backed lifts never exceed lambda_max, with equality when the
    # distribution sits on maximizing assignments
    from hkxor.oracle import assemble, classical_max, lambda_max

    rng = np.random.default_rng(23)
    for seed in range(8):
        inst = generate(GeneratorConfig(n=7, k=3, m=9, model="one-basis-z", seed=seed))
        lam = lambda_max(assemble(inst))
        assignments = [tuple(int(v) for v in rng.choice([-1, 1], 7)) for _ in range(2)]
        pe = lift_classical(inst, MomentOracle.from_distribution(7, assignments), 3)
        assert float(pe.energy(inst).re) <= lam + 1e-10
        _, argmax = classical_max(inst.hypergraph(), inst.coeffs(), inst.n)
        pe_opt = lift_classical(inst, MomentOracle.from_distribution(7, [argmax]), 3)
        assert abs(float(pe_opt.energy(inst).re) - lam) < 1e-10


def _exact(value):
    return f"{value.re} {value.im}"


def test_witness_layer_golden():
    """sha256 over max-entropy dumps, closure word order and contradictions of three
    models at several degrees, positivity reprs, lifted dumps and energies, and
    squared obstruction polynomials with their values."""
    lines, kinds = [], Counter()
    for model, n, k, m, degrees in (("one-basis-z", 6, 3, 5, (3,)),
                                    ("one-basis-z", 5, 3, 4, (3, 4)),
                                    ("one-basis-z", 8, 3, 4, (4, 6)),
                                    ("one-basis-z", 5, 2, 6, (2, 4)),
                                    ("random", 4, 2, 2, (2, 3, 4)),
                                    ("random", 5, 3, 3, (3, 4, 6)),
                                    ("rademacher-semirandom", 6, 2, 4, (2, 3)),
                                    ("rademacher-semirandom", 5, 3, 3, (3, 5))):
        for seed in range(6):
            inst = generate(GeneratorConfig(n=n, k=k, m=m, model=model, seed=seed))
            for d in degrees:
                result = max_entropy_build(inst, d)
                if isinstance(result, Contradiction):
                    kinds["contradiction"] += 1
                    lines += result.dump_lines()
                    continue
                kinds["psexp"] += 1
                lines.append(result.dump())
                lines.append(" ".join(word.to_string() for word in result.values))
                lines.append(f"{result.experimental} {result.obstructions}")
                if d <= 3 or n <= 4:
                    kinds["positivity"] += 1
                    lines.append(repr(positivity_check(result, d)))
    rng = random.Random(3)
    for seed in range(6):
        n = 5 - seed % 2
        inst = generate(GeneratorConfig(n=n, k=3, m=6, model="one-basis-z", seed=seed))
        points = [tuple(rng.choice((-1, 1)) for _ in range(n)) for _ in range(1 + seed % 3)]
        d = 3 + seed % 2
        pe = lift_classical(inst, MomentOracle.from_distribution(n, points), d)
        kinds["lifted"] += 1
        lines += [pe.dump(), _exact(pe.energy(inst)), repr(positivity_check(pe, d))]
    while kinds["obstruction"] < 12:
        n = rng.randrange(1, 5)
        words = []
        for _ in range(2):
            sites = tuple(sorted(rng.sample(range(n), rng.randrange(1, n + 1))))
            words.append(PauliOp.from_letters(n, sites,
                                              "".join(rng.choice("XYZ") for _ in sites)))
        p, q = words
        if commutes(p, q):
            continue
        kinds["obstruction"] += 1
        squared = obstruction_polynomial(p, q).gram_square()
        for word in sorted(squared.terms, key=canonical_key):
            lines.append(f"{word.to_string()} {_exact(squared.terms[word])}")
        lines.append(_exact(obstruction_pseudo_expectation(p, q).evaluate(squared)))
    assert kinds == {"psexp": 52, "positivity": 32, "contradiction": 50, "lifted": 6,
                     "obstruction": 12}
    # 56 of the 100 contradiction values are +-i: the closure applies phases
    assert sum("i" in line for line in lines if line.startswith("value_")) == 56
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "b11ded340f1d709b243c92c7525c2d5738e0f9edcb1f091094324b99118f8b52")
