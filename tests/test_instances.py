"""Instance generation models, determinism, and the text format."""

import hashlib
import math

import pytest
from hypothesis import given, settings, strategies as st

from hkxor.instances import (
    MODELS,
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


def test_generate_errors():
    with pytest.raises(ValueError):
        GeneratorConfig(n=3, k=4, m=1)
    with pytest.raises(ValueError):
        GeneratorConfig(n=3, k=2, m=0)


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
    with pytest.raises(ParseError) as err:
        parse("HKXOR v2 n=2 k=2 m=1 model=explicit seed=0\nZ1 Z2 1.0\n")
    assert err.value.lineno == 1
    with pytest.raises(ParseError, match="^line 1: header fields n, k, m and seed must be integers"):
        parse("HKXOR v1 n=x k=2 m=1 model=explicit seed=0\nZ1 Z2 1.0\n")
