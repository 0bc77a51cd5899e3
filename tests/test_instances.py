"""Instance generation models, determinism, and the text format."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hkxor import instances
from hkxor.instances import (
    MODELS,
    Constraint,
    GeneratorConfig,
    ParseError,
    digest,
    generate,
    parse,
    serialize,
    threshold_size,
)
from hkxor.pauli import PauliOp


def test_rademacher_model():
    inst = generate(GeneratorConfig(n=4, k=2, m=3, model="rademacher-semirandom", seed=42))
    assert inst.m == 3
    assert all(c.coeff in (-1.0, 1.0) for c in inst.constraints)
    assert all(len(c.support) == 2 for c in inst.constraints)


def test_one_basis_z_explicit_hypergraph():
    cfg = GeneratorConfig(n=3, k=2, m=2, model="one-basis-z", seed=0,
                          hypergraph=((0, 1), (1, 2)))
    inst = generate(cfg)
    assert [c.pauli.to_sparse() for c in inst.constraints] == ["Z1 Z2", "Z2 Z3"]
    assert inst.is_one_basis()


def test_gaussian_moments():
    m = 10_000
    inst = generate(GeneratorConfig(n=6, k=3, m=m, model="gaussian-semirandom", seed=7))
    coeffs = inst.coeffs()
    mean = sum(coeffs) / m
    mean_sq = sum(b * b for b in coeffs) / m
    assert abs(mean) < 4 / math.sqrt(m)
    assert abs(mean_sq - 1.0) < 4 * math.sqrt(2) / math.sqrt(m)


def test_determinism_byte_identical():
    cfg = GeneratorConfig(n=8, k=3, m=20, model="random", seed=123)
    assert serialize(generate(cfg)) == serialize(generate(cfg))
    other = GeneratorConfig(n=8, k=3, m=20, model="random", seed=124)
    assert serialize(generate(cfg)) != serialize(generate(other))


def test_generated_bytes_golden():
    # recorded before the letter draws became k scalar calls: a change in how
    # draws are made must keep the bytes of every sampling model
    text = ""
    for model in ("rademacher-semirandom", "gaussian-semirandom", "random", "one-basis-z"):
        for n, k, m in ((60, 2, 500), (10, 4, 40), (9, 3, 30)):
            for seed in (0, 1, 7, 2**64 - 1):
                text += serialize(generate(GeneratorConfig(n=n, k=k, m=m, model=model,
                                                           seed=seed)))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ba8fcbb0f56af216bdddd4185313ba8d4fb9cc391656b81da483a0537f829919")


def test_generated_bytes_golden_wide():
    # recorded with numpy's Generator.choice/integers doing the draws: pins the
    # paths the golden above misses, an explicit hypergraph (letters only),
    # k = n (Floyd's draw-free first step), n = k = 1, and both branches of
    # the support sampler at n > 10000 (k = 201 shuffles the tail, k = 200 runs Floyd)
    hypergraph = ((0, 1, 2), (6, 2, 4), (3, 5, 1), (0, 6, 3), (4, 5, 6), (1, 2, 3))
    text = ""
    for model in ("rademacher-semirandom", "gaussian-semirandom"):
        for n, k, m, edges in ((7, 3, 6, hypergraph), (5, 5, 20, None), (1, 1, 20, None),
                               (10001, 201, 2, None), (10001, 200, 2, None)):
            for seed in (0, 3, 2**63, 2**64 - 1):
                text += serialize(generate(GeneratorConfig(n=n, k=k, m=m, model=model,
                                                           seed=seed, hypergraph=edges)))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b12143b2fe56daffb1b273cbe18d34db6e6b3c449998b0a26f9dc51ab5761f01")


def numpy_draws(n, k, m, model, seed, hypergraph=None):
    """Words and coefficients from numpy's own choice/integers/standard_normal calls."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    words = []
    for i in range(m):
        sup = sorted(hypergraph[i] if hypergraph else
                     (int(s) for s in rng.choice(n, size=k, replace=False)))
        letters = "Z" * k if model == "one-basis-z" else "".join(
            "XYZ"[rng.integers(0, 3)] for _ in range(k))
        words.append(PauliOp.from_letters(n, sup, letters))
    if model == "gaussian-semirandom":
        coeffs = rng.standard_normal(m).tolist()
    else:
        coeffs = [float(2 * b - 1) for b in rng.integers(0, 2, size=m)]
    return words, coeffs


@st.composite
def sampler_cases(draw):
    """Small n, or n > 10000 where k > n // 50 switches numpy's choice to a tail shuffle."""
    n = draw(st.one_of(st.integers(1, 60), st.integers(10001, 12000)))
    k = draw(st.integers(1, min(n, 300)))
    m = draw(st.integers(1, 12 if n <= 60 else 2))
    model = draw(st.sampled_from(("rademacher-semirandom", "gaussian-semirandom",
                                  "one-basis-z")))
    return n, k, m, model, draw(st.integers(0, 2**64 - 1))


@settings(max_examples=60, deadline=None)
@given(sampler_cases())
@example((10001, 201, 2, "rademacher-semirandom", 5))
@example((12000, 241, 2, "gaussian-semirandom", 2**64 - 1))
@example((12000, 240, 2, "rademacher-semirandom", 0))
@example((7, 7, 5, "gaussian-semirandom", 1))
@example((12000, 1, 1, "rademacher-semirandom", 201614))  # Lemire rejects the first draw
# Lemire rejects a support draw in the middle row and in the last row of a
# five-row block (seeds found by replaying the rule on the raw stream)
@example((12000, 1, 5, "rademacher-semirandom", 1164563))
@example((12000, 1, 5, "gaussian-semirandom", 101052))
@example((5, 5, 9, "rademacher-semirandom", 3))  # n = k: the j = 0 Floyd step takes no draw
@example((9, 4, 12, "one-basis-z", 2**64 - 1))  # supports only, no letter draws
def test_generate_equals_numpy_calls(case):
    n, k, m, model, seed = case
    inst = generate(GeneratorConfig(n=n, k=k, m=m, model=model, seed=seed))
    words, coeffs = numpy_draws(n, k, m, model, seed)
    assert [c.pauli for c in inst.constraints] == words
    assert list(inst.coeffs()) == coeffs


@pytest.mark.parametrize("model", ("rademacher-semirandom", "gaussian-semirandom",
                                   "one-basis-z"))
@pytest.mark.parametrize("seed", (0, 2**64 - 1))
def test_generate_explicit_hypergraph_equals_numpy_calls(model, seed):
    # only the letters are drawn (none for one-basis-z); hyperedges come in any order
    hypergraph = ((0, 1, 2), (6, 2, 4), (3, 5, 1), (0, 6, 3), (4, 5, 6), (1, 2, 3)) * 3
    inst = generate(GeneratorConfig(n=7, k=3, m=len(hypergraph), model=model, seed=seed,
                                    hypergraph=hypergraph))
    words, coeffs = numpy_draws(7, 3, len(hypergraph), model, seed, hypergraph)
    assert [c.pauli for c in inst.constraints] == words
    assert list(inst.coeffs()) == coeffs
    assert [c.support for c in inst.constraints] == [tuple(sorted(e)) for e in hypergraph]


MULTI_BLOCK_CASES = (
    GeneratorConfig(n=60, k=2, m=40, seed=3),
    # Lemire rejects a support draw in the third of the five rows
    GeneratorConfig(n=12000, k=1, m=5, seed=1164563),
    # numpy's tail-shuffle branch
    GeneratorConfig(n=10001, k=201, m=3, model="gaussian-semirandom", seed=2),
    GeneratorConfig(n=17, k=3, m=30, seed=4,
                    hypergraph=tuple(tuple((3 * i + 5 * j) % 17 for j in range(3))
                                     for i in range(30))),
    GeneratorConfig(n=60, k=2, m=40, model="one-basis-z", seed=5),
)


@pytest.mark.parametrize("cfg", MULTI_BLOCK_CASES)
def test_block_size_does_not_change_the_bytes(cfg, monkeypatch):
    # blocks of one word up to a few rows: the rows of every block, and the
    # stream between blocks, must be those of a single block
    text = serialize(generate(cfg))
    for block_words in (1, 2, 7, 64):
        monkeypatch.setattr(instances, "_BLOCK_WORDS", block_words)
        assert serialize(generate(cfg)) == text


@pytest.mark.parametrize("n", (8, 70))
def test_constraint_support_is_read_off_its_word(n):
    inst = generate(GeneratorConfig(n=n, k=3, m=20, model="random", seed=5))
    for c in inst.constraints:
        assert c.support == c.pauli.support() == tuple(sorted(c.support))
        assert all(type(s) is int for s in c.support)
    assert Constraint(PauliOp.from_sparse("X2 Z5", 6), -1.0).support == (1, 4)


def test_words_with_a_hypergraph_raise():
    # the hypergraph would be ignored: the words fix the supports
    words = (PauliOp.from_sparse("X1 X2", 4), PauliOp.from_sparse("Z3 Z4", 4))
    with pytest.raises(ValueError, match="not both"):
        GeneratorConfig(n=4, k=2, m=2, words=words, hypergraph=((0, 3), (1, 2)))


@pytest.mark.parametrize("model", ("rademacher-semirandom", "one-basis-z"))
@pytest.mark.parametrize("edge", ((0, 0, 1), (0, 1, 5), (-1, 0, 1), (0, 1), (0, 1, 2, 3)))
def test_explicit_hypergraph_bad_edge_raises(model, edge):
    # a repeated site, a site outside [0, n) or the wrong size
    with pytest.raises(ValueError):
        generate(GeneratorConfig(n=5, k=3, m=2, model=model, hypergraph=((0, 1, 2), edge)))


def test_explicit_words_of_the_wrong_shape_raise():
    # a word of the wrong weight, or on the wrong number of qubits
    good = PauliOp.from_sparse("X1 Z3", 4)
    for bad in (PauliOp.from_sparse("X1 Y2 Z3", 4), PauliOp.from_sparse("X1 Z3", 5)):
        with pytest.raises(ValueError):
            generate(GeneratorConfig(n=4, k=2, m=2, words=(good, bad)))


def test_generate_errors():
    with pytest.raises(ValueError):
        GeneratorConfig(n=3, k=4, m=1)
    with pytest.raises(ValueError):
        GeneratorConfig(n=3, k=2, m=0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            generate(GeneratorConfig(n=3, k=2, m=2, model="explicit", coeffs=(1.0, bad),
                                     hypergraph=((0, 1), (1, 2))))


def test_threshold_size_examples():
    assert threshold_size(60, 2, 1, 0.5) == math.ceil(60 * math.log(60) * 16) == 3931
    assert threshold_size(math.e, 2, 1, 1.0) == 3
    prev = threshold_size(40, 4, 2, 0.25)
    for eps in (0.5, 0.75, 1.0):
        cur = threshold_size(40, 4, 2, eps)
        assert cur <= prev
        prev = cur
    with pytest.raises(ValueError):
        threshold_size(10, 2, 8, 0.5)
    with pytest.raises(ValueError):
        threshold_size(10, 2, 1, 0.0)


def test_round_trip_many():
    for seed in range(100):
        model = ["rademacher-semirandom", "gaussian-semirandom", "random", "one-basis-z"][seed % 4]
        inst = generate(GeneratorConfig(n=6, k=2 + seed % 3, m=5, model=model, seed=seed))
        text = serialize(inst)
        again = parse(text)
        assert serialize(again) == text
        assert digest(again) == digest(inst)


@st.composite
def generated_instances(draw):
    """An instance of any generator model; explicit ones get arbitrary finite coefficients."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, n))
    m = draw(st.integers(1, 12))
    model = draw(st.sampled_from(MODELS))
    coeffs = None
    if model == "explicit":
        coeffs = tuple(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                     min_size=m, max_size=m)))
    seed = draw(st.integers(0, 2**64 - 1))
    return generate(GeneratorConfig(n=n, k=k, m=m, model=model, seed=seed, coeffs=coeffs))


@settings(max_examples=200)
@given(generated_instances())
def test_parse_serialize_round_trip(inst):
    assert parse(serialize(inst)) == inst


def test_parse_minimal():
    inst = parse("HKXOR v1 n=2 k=2 m=1 model=explicit seed=0\nZ1 Z2 1.0\n")
    assert inst.m == 1 and inst.k == 2
    assert inst.constraints[0].pauli == PauliOp.from_sparse("Z1 Z2", 2)
    assert inst.constraints[0].coeff == 1.0


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse("HKXOR v1 n=2 k=2 m=2 model=explicit seed=0\nZ1 Z2 1.0\n")
    assert err.value.lineno == 3
    with pytest.raises(ParseError) as err:
        parse("HKXOR v1 n=2 k=2 m=1 model=explicit seed=0\nZ1 Q2 1.0\n")
    assert err.value.lineno == 2
    for value in ("nan", "inf", "-inf", "NaN"):
        with pytest.raises(ParseError, match="not finite") as err:
            parse(f"HKXOR v1 n=2 k=2 m=2 model=explicit seed=0\nZ1 Z2 1.0\nX1 Y2 {value}\n")
        assert err.value.lineno == 3
    with pytest.raises(ParseError) as err:
        parse("HKXOR v2 n=2 k=2 m=1 model=explicit seed=0\nZ1 Z2 1.0\n")
    assert err.value.lineno == 1
    with pytest.raises(ParseError, match="^line 1: header fields n, k, m and seed must be integers"):
        parse("HKXOR v1 n=x k=2 m=1 model=explicit seed=0\nZ1 Z2 1.0\n")
