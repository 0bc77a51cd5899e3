"""Max-entropy pseudo-expectations, expansion, positivity, lifting."""

import hashlib
import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hkxor.sos as sos
from hkxor.cli import main
from hkxor.instances import GeneratorConfig, Instance, generate, parse, serialize
from hkxor.oracle import apply_word, assemble, lambda_max
from hkxor.pauli import PauliOp, canonical_key, commutes, enumerate_slice, mul_words
from hkxor.sos import (
    ZERO,
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
    moment_matrix,
    moment_rows,
    obstruction_polynomial,
    obstruction_pseudo_expectation,
    positivity_check,
)

from helpers import instance_rows, max_entropy_reference, moment_matrix_reference, z_instance

ONE = ExactComplex.of(1)


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


def test_times_i_is_one_rotation_for_every_exponent():
    value = ExactComplex(Fraction(3, 7), Fraction(-5, 2))
    for exp in range(-8, 9):
        expected = value
        for _ in range(exp % 4):
            expected = ExactComplex(-expected.im, expected.re)  # one quarter turn
        assert value.times_i(exp) == expected
    assert value.times_i(0) is value and value.times_i(-4) is value


@given(st.fractions(), st.fractions())
@example(Fraction(10**400 + 1, 3 * 10**399), Fraction(-1, 10**320))  # huge terms, subnormal
def test_complex_equals_float_of_each_part(re, im):
    value = ExactComplex(re, im)
    assert complex(value) == complex(float(value.re), float(value.im))


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


def test_max_entropy_checks_degree_and_coefficients():
    with pytest.raises(ValueError, match="degree 2 below constraint arity 3"):
        max_entropy_build(z_instance(3, [(0, 1, 2)], [1.0]), 2)
    with pytest.raises(ValueError, match="needs \\+-1 coefficients"):
        max_entropy_build(z_instance(3, [(0, 1, 2)], [0.5]), 3)


def _assert_same_closure(got, want):
    """Witnesses: dump, value order, flags; contradictions: dump lines and combined axioms."""
    assert type(got) is type(want)
    if isinstance(want, Contradiction):
        assert got.dump_lines() == want.dump_lines()
        assert got.combined_axioms == want.combined_axioms
        assert (got.value_a, got.value_b) == (want.value_a, want.value_b)
    else:
        assert got.dump() == want.dump()
        assert list(got.values.items()) == list(want.values.items())
        assert got.experimental == want.experimental
    assert got.obstructions == want.obstructions


@settings(max_examples=120)
@given(st.sampled_from(("one-basis-z", "random", "rademacher-semirandom",
                        "gaussian-semirandom")),
       st.integers(1, 6), st.integers(1, 3), st.integers(1, 6), st.integers(0, 2**32),
       st.data())
def test_max_entropy_build_equals_the_reference(model, n, k, m, seed, data):
    k = min(k, n)
    d = data.draw(st.integers(k, 2 * k), label="d")
    inst = generate(GeneratorConfig(n=n, k=k, m=m, model=model, seed=seed))
    if model == "gaussian-semirandom":
        for build in (max_entropy_build, max_entropy_reference):
            with pytest.raises(ValueError, match=r"max-entropy seeding needs \+-1 coefficients"):
                build(inst, d)
        return
    _assert_same_closure(max_entropy_build(inst, d), max_entropy_reference(inst, d))


@pytest.mark.parametrize("model, n, k, m, seed, d, kind", (
    ("one-basis-z", 8, 3, 12, 15, 4, PseudoExpectation),  # a verify pool witness, 163 words
    ("random", 5, 3, 3, 5, 5, PseudoExpectation),  # experimental, so it carries its scan
    ("random", 4, 2, 2, 0, 2, Contradiction),  # values -i and +i
))
def test_max_entropy_build_does_no_complex_arithmetic(monkeypatch, model, n, k, m, seed, d,
                                                      kind):
    inst = generate(GeneratorConfig(n=n, k=k, m=m, model=model, seed=seed))
    want = max_entropy_reference(inst, d)

    def refuse(*args):
        raise AssertionError("the closure multiplied or conjugated an ExactComplex")

    monkeypatch.setattr(ExactComplex, "__mul__", refuse)
    monkeypatch.setattr(ExactComplex, "conjugate", refuse)
    got = max_entropy_build(inst, d)
    monkeypatch.undo()
    assert isinstance(got, kind)
    _assert_same_closure(got, want)


def test_energies_of_an_empty_instance_are_one_half():
    # both used to divide by m = 0
    inst = parse("HKXOR v1 n=3 k=2 m=0 model=one-basis-z seed=0\n")
    half = ExactComplex.of(Fraction(1, 2))
    assert max_entropy_build(inst, 2).energy(inst) == half
    assert classical_energy(inst, MomentOracle.from_distribution(3, [(1, -1, 1)])) == half


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
        acc ^= instance_rows(inst)[cid][0].support_mask
    assert acc == 0
    report = boundary_expansion_check(inst.sites.tolist(), beta=0.5,
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
        report = boundary_expansion_check(inst.sites.tolist(), beta=1.5, d=4)
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
    inst = generate(GeneratorConfig(n=4, k=2, m=2, model="explicit", words=tuple(words),
                                    coeffs=(1.0, 1.0)))
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


def _lifted_one_basis():
    inst = generate(GeneratorConfig(n=5, k=3, m=6, model="one-basis-z", seed=2))
    points = [(1, -1, 1, 1, -1), (-1, -1, 1, -1, 1), (1, 1, 1, -1, -1)]
    return lift_classical(inst, MomentOracle.from_distribution(5, points), 4)


def _max_entropy(model, n, k, m, seed):
    pe = max_entropy_build(generate(GeneratorConfig(n=n, k=k, m=m, model=model, seed=seed)), 4)
    assert isinstance(pe, PseudoExpectation)
    return pe


_MOMENT_CASES = {"lifted": _lifted_one_basis,
                 "one-basis": lambda: _max_entropy("one-basis-z", 7, 3, 6, 1),
                 "experimental": lambda: _max_entropy("random", 4, 2, 2, 1)}


@pytest.mark.parametrize("kind", _MOMENT_CASES)
def test_moment_matrix_equals_the_entry_by_entry_reference(kind):
    pe = _MOMENT_CASES[kind]()
    ref = moment_matrix_reference(pe, 4)
    mat = moment_matrix(pe, 4)
    assert mat.shape == (moment_rows(pe.n, 4),) * 2
    assert np.array_equal(mat, ref)
    assert repr(positivity_check(pe, 4)[0]) == repr(float(np.linalg.eigvalsh(ref)[0]))
    if kind == "lifted":  # averages over three points: rationals other than 0, +-1
        assert not np.isin(ref, (-1, 0, 1)).all()
    if kind == "experimental":  # products with phase +-i
        assert (ref.imag != 0).any()


def test_pair_value_of_an_absent_word_is_zero_at_every_phase():
    pe = _max_entropy("random", 4, 2, 2, 1)
    words = [w for weight in range(3) for w in enumerate_slice(4, weight)]
    seen = set()
    for a in words:
        for b in words:
            prod = mul_words(a, b)
            if prod.op not in pe.values and prod.phase_exp not in seen:
                seen.add(prod.phase_exp)
                assert pe.pair_value(a, b) is ZERO and complex(pe.pair_value(a, b)) == 0j
    assert seen == {0, 1, 2, 3}


_UNITS = (ONE, -ONE, ONE.times_i(1), ONE.times_i(3))
_VALUES = st.one_of(st.sampled_from(_UNITS),
                    st.builds(ExactComplex, st.fractions(-2, 2, max_denominator=9),
                              st.fractions(-2, 2, max_denominator=9)))
_MASKS = st.tuples(st.integers(0, 63), st.integers(0, 63))


def _pair_value_reference(pe, left, right):
    prod = mul_words(left, right)
    return pe.value(prod.op).times_i(prod.phase_exp)


@given(st.integers(1, 6), _MASKS, _MASKS, st.lists(st.tuples(_MASKS, _VALUES), max_size=8),
       st.none() | _VALUES)
# a present product at each phase (the absent ones: the test above)
@example(1, (1, 0), (1, 0), [], -ONE)  # X X = I
@example(1, (0, 1), (1, 0), [], ONE.times_i(1))  # Z X = +i Y
@example(2, (3, 0), (0, 3), [], ONE.times_i(3))  # (X X)(Z Z) = -(Y Y)
@example(1, (1, 0), (0, 1), [], ONE)  # X Z = -i Y
def test_pair_value_equals_mul_words_and_value(n, left, right, stored, product_value):
    low = (1 << n) - 1
    left, right = (PauliOp(n, x & low, z & low) for x, z in (left, right))
    values = {PauliOp(n, x & low, z & low): v for (x, z), v in stored}
    prod = mul_words(left, right).op
    if product_value is not None:
        values[prod] = product_value
    pe = PseudoExpectation(n=n, degree=2 * n, values=values)
    got = pe.pair_value(left, right)
    assert got == _pair_value_reference(pe, left, right)
    assert (got is ZERO) == (prod not in values)
    # a qubit count mismatch raises before the product word is looked up
    wide = PauliOp(n + 1, right.xmask, right.zmask)
    for a, b in ((left, wide), (wide, left)):
        with pytest.raises(ValueError, match="qubit counts differ"):
            pe.pair_value(a, b)


def test_moment_matrix_calls_mul_words_only_for_present_products(monkeypatch):
    pe = _lifted_one_basis()
    words = [w for weight in range(3) for w in enumerate_slice(pe.n, weight)]
    present = sum(mul_words(a, b).op in pe.values for a in words for b in words)
    calls = []

    def counted(p, q):
        calls.append((p, q))
        return mul_words(p, q)

    monkeypatch.setattr(sos, "mul_words", counted)
    mat = moment_matrix(pe, 4)
    assert 0 < len(calls) == present < len(words) ** 2
    assert np.count_nonzero(mat) == present  # lifted values are never zero


@pytest.mark.parametrize("seed", (0, 5))
def test_moment_matrix_equals_the_reference_at_verify_size(seed):
    # the benchmark's lifted witness: one-basis-z n=8 k=3 m=12, degree-4 moments
    # of a three-point distribution, 1 + 24 + 252 = 277 moment rows
    inst = generate(GeneratorConfig(n=8, k=3, m=12, model="one-basis-z", seed=seed))
    rng = random.Random(seed)
    points = [tuple(rng.choice((-1, 1)) for _ in range(8)) for _ in range(3)]
    moments = MomentOracle.from_distribution(8, points, (Fraction(1, 2), Fraction(1, 4),
                                                         Fraction(1, 4)), degree=4)
    pe = lift_classical(inst, moments, 4)
    mat = moment_matrix(pe, 4)
    assert mat.shape == (277, 277)
    assert np.array_equal(mat, moment_matrix_reference(pe, 4))


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
    pair_inst = generate(GeneratorConfig(n=1, k=1, m=2, model="explicit", words=(x1, z1),
                                         coeffs=(1.0, 1.0)))
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
    if any(word.xmask for word, _ in instance_rows(inst)):
        with pytest.raises(ValueError):
            lift_classical(inst, moments, 2)


def test_lift_refuses_moments_with_e1_other_than_one():
    # pE[Id] = 1; doubled moments used to lift to energy 3/2 with a passing positivity check
    inst = z_instance(3, [(0, 1), (1, 2)], [1.0, 1.0])
    moments = MomentOracle.from_distribution(3, [(1, 1, 1)], degree=2)
    for scale, shown in ((2, "2"), (Fraction(1, 2), "1/2"), (0, "0")):
        scaled = MomentOracle(3, 2, {mask: v * ExactComplex.of(scale)
                                     for mask, v in moments.values.items()})
        with pytest.raises(ValueError, match=rf"^lifted moments need E\[1\] = 1, got {shown}$"):
            lift_classical(inst, scaled, 2)
    assert lift_classical(inst, moments, 2).energy(inst) == ONE


@pytest.mark.parametrize("assignments,weights,message", [
    ([], None, "need at least one assignment"),
    ([(1, 5, 1)], None, "assignment (1, 5, 1) is not 3 entries of +1 or -1"),
    ([(1, 0, 1)], None, "assignment (1, 0, 1) is not 3 entries of +1 or -1"),
    ([(1, 1)], None, "assignment (1, 1) is not 3 entries of +1 or -1"),
    ([(1, 1, 1, 1)], None, "assignment (1, 1, 1, 1) is not 3 entries of +1 or -1"),
    ([(1, 1, 1), (-1, 1, 1)], [1], "1 weights for 2 assignments"),
    ([(1, 1, 1)], [Fraction(1, 2), Fraction(1, 2)], "2 weights for 1 assignments"),
    ([(1, 1, 1), (-1, 1, 1)], [2, -1], "weights must be nonnegative"),
    ([(1, 1, 1), (-1, 1, 1)], [Fraction(1, 2), Fraction(1, 4)], "weights must sum to one"),
])
def test_from_distribution_refuses_what_is_not_a_distribution(assignments, weights, message):
    # weights (2, -1) gave E[x_1] = 3, an entry 5 gave E[x_2] = 5, and zip dropped the
    # assignments past a short weights list
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MomentOracle.from_distribution(3, assignments, weights)


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
    assert len(result.derivation_b.axiom_ids) >= 2


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
        _, argmax = classical_max(inst)
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


def obstruction_reference(inst):
    """Every pair i < j of rows whose words fail ``commutes``, pair by pair."""
    words = [word for word, _ in instance_rows(inst)]
    return [(i, j) for i in range(inst.m) for j in range(i + 1, inst.m)
            if not commutes(words[i], words[j])]


@settings(max_examples=80)
@given(st.integers(1, 70), st.integers(1, 4), st.integers(1, 25),
       st.sampled_from(("one-basis-z", "random", "rademacher-semirandom")),
       st.integers(0, 2**32), st.sampled_from((None, 0, 1, 2)))
@example(70, 3, 25, "random", 1, None)  # masks past 64 bits
@example(65, 1, 20, "rademacher-semirandom", 2, None)
@example(70, 4, 25, "random", 3, 1)  # an all-Y instance
def test_anticommuting_obstruction_matches_pairwise_commutes(n, k, m, model, seed, one_letter):
    k = min(k, n)
    inst = generate(GeneratorConfig(n=n, k=k, m=m, model=model, seed=seed))
    if one_letter is not None:
        inst = Instance(n, k, inst.sites, np.full_like(inst.letters, one_letter), inst.coeffs,
                        "explicit")
    expected = obstruction_reference(inst)
    assert anticommuting_obstruction(inst) == expected
    if inst.is_one_basis():
        assert expected == []


def test_witness_paths_read_only_the_instance_columns(tmp_path, capsys, monkeypatch):
    z = generate(GeneratorConfig(n=6, k=3, m=5, model="one-basis-z", seed=1))
    mixed = generate(GeneratorConfig(n=5, k=2, m=8, model="random", seed=3))
    experimental = generate(GeneratorConfig(n=5, k=3, m=3, model="random", seed=5))
    moments = MomentOracle.from_distribution(6, [(1, 1, -1, 1, -1, 1), (-1, 1, 1, 1, 1, -1)])
    inst_path, pmom = tmp_path / "z.hkxor", tmp_path / "z.pmom"
    inst_path.write_text(serialize(z))
    pmom.write_text("PMOM v1 n=6 d=4\n- 1\n" + "".join(
        f"{','.join(str(i + 1) for i in sites)} {moments.value(sum(1 << i for i in sites)).re}\n"
        for size in range(1, 5) for sites in itertools.combinations(range(6), size)))

    def outputs():
        pe, contradiction = max_entropy_build(z, 4), max_entropy_build(mixed, 4)
        trial = max_entropy_build(experimental, 5)
        lifted = lift_classical(z, moments, 4)
        out = [pe.dump(), pe.energy(z), contradiction.dump_lines(), contradiction.obstructions,
               trial.dump(), trial.energy(experimental), lifted.dump(), lifted.energy(z),
               classical_energy(z, moments)]
        for lift in ((), ("--lift", str(pmom))):
            code = main(["witness", "--in", str(inst_path), "--degree", "4", *lift])
            out.append((code, capsys.readouterr().out))
        return out

    want = outputs()
    assert isinstance(want[2], list) and want[3]  # the scan ran and found pairs
    assert want[-1][0] == want[-2][0] == 0 and "kind=lifted" in want[-1][1]

    def no_rows(_inst):
        raise AssertionError("Instance.constraints was read")

    monkeypatch.setattr(Instance, "constraints", property(no_rows))
    assert outputs() == want
