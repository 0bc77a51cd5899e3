"""Instance generation models, determinism, and the text format."""

import copy
import hashlib
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hkxor import instances
from hkxor.instances import (
    MODELS,
    Constraint,
    GeneratorConfig,
    Instance,
    ParseError,
    digest,
    generate,
    parse,
    serialize,
    threshold_size,
)
from hkxor.pauli import PauliOp

from helpers import instance_rows


def test_rademacher_model():
    inst = generate(GeneratorConfig(n=4, k=2, m=3, model="rademacher-semirandom", seed=42))
    assert inst.m == 3
    assert all(coeff in (-1.0, 1.0) for _, coeff in instance_rows(inst))
    assert all(word.weight() == 2 for word, _ in instance_rows(inst))


def test_one_basis_z_explicit_hypergraph():
    cfg = GeneratorConfig(n=3, k=2, m=2, model="one-basis-z", seed=0,
                          hypergraph=((0, 1), (1, 2)))
    inst = generate(cfg)
    assert [word.to_sparse() for word, _ in instance_rows(inst)] == ["Z1 Z2", "Z2 Z3"]
    assert inst.is_one_basis()


def test_gaussian_moments():
    m = 10_000
    inst = generate(GeneratorConfig(n=6, k=3, m=m, model="gaussian-semirandom", seed=7))
    coeffs = inst.coeffs.tolist()
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
    assert [word for word, _ in instance_rows(inst)] == words
    assert inst.coeffs.tolist() == coeffs


@pytest.mark.parametrize("model", ("rademacher-semirandom", "gaussian-semirandom",
                                   "one-basis-z"))
@pytest.mark.parametrize("seed", (0, 2**64 - 1))
def test_generate_explicit_hypergraph_equals_numpy_calls(model, seed):
    # only the letters are drawn (none for one-basis-z); hyperedges come in any order
    hypergraph = ((0, 1, 2), (6, 2, 4), (3, 5, 1), (0, 6, 3), (4, 5, 6), (1, 2, 3)) * 3
    inst = generate(GeneratorConfig(n=7, k=3, m=len(hypergraph), model=model, seed=seed,
                                    hypergraph=hypergraph))
    words, coeffs = numpy_draws(7, 3, len(hypergraph), model, seed, hypergraph)
    rows = instance_rows(inst)
    assert [word for word, _ in rows] == words
    assert inst.coeffs.tolist() == coeffs
    assert [word.support() for word, _ in rows] == [tuple(sorted(e)) for e in hypergraph]


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


@settings(max_examples=200)
@given(st.integers(1, 70).flatmap(lambda n: st.builds(
    PauliOp, st.just(n), st.integers(0, 2**n - 1), st.integers(0, 2**n - 1))),
       st.floats(allow_nan=False), st.integers(0, pickle.HIGHEST_PROTOCOL))
def test_constraint_is_a_value_of_its_fields(word, coeff, protocol):
    c = Constraint(word, coeff)
    assert c.pauli is word and c.coeff == coeff
    assert hash(c) == hash((word, coeff)) and c == (word, coeff) == Constraint(word, coeff)
    assert c != Constraint(word, coeff + 1.0) or coeff + 1.0 == coeff
    assert repr(c) == f"Constraint(pauli={word!r}, coeff={coeff!r})"
    back = pickle.loads(pickle.dumps(c, protocol))
    assert back == c and type(back) is Constraint and type(back.pauli) is PauliOp
    for name in ("pauli", "coeff", "support", "other"):
        with pytest.raises(AttributeError):
            setattr(c, name, None)


def test_constraint_words_are_checked_on_every_path():
    with pytest.raises(ValueError):
        Constraint(PauliOp(2, 4, 0), 1.0)
    c = Constraint(PauliOp(3, 4, 0), 1.0)
    with pytest.raises(ValueError):
        c._replace(pauli=c.pauli._replace(n=2))
    assert c._replace(coeff=-1.0) == Constraint._make((c.pauli, -1.0)) == (c.pauli, -1.0)


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
    with pytest.raises(ValueError, match="^unknown model 'mixed'$"):
        GeneratorConfig(n=3, k=2, m=1, model="mixed")
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="^seed must fit in 64 bits$"):
            GeneratorConfig(n=3, k=2, m=1, seed=seed)
    assert generate(GeneratorConfig(n=3, k=2, m=1, seed=2**64 - 1)).seed == 2**64 - 1
    for change, message in ((dict(hypergraph=((0, 1),)), "explicit hypergraph must have m edges"),
                            (dict(words=(PauliOp.from_sparse("X1 Z3", 3),)),
                             "explicit words must have length m"),
                            (dict(coeffs=(1.0,)), "explicit coefficients must have length m"),
                            (dict(coeffs=(1.0, 1.0, 1.0)),
                             "explicit coefficients must have length m"),
                            (dict(model="explicit"),
                             "explicit model requires explicit coefficients")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            generate(GeneratorConfig(n=3, k=2, m=2, **change))
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
    # eps^4 is subnormal at 1e-80, so the density overflows to inf; at 1e-90 eps^4 is zero
    for eps in (1e-80, 1e-90):
        with pytest.raises(ValueError, match=f"is not a finite float at eps={eps!r}$"):
            threshold_size(60, 2, 1, eps)


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
    """An instance of any generator model; explicit ones get arbitrary finite coefficients.

    n reaches past 64, where words no longer fit a uint64 mask.
    """
    n = draw(st.integers(1, 70))
    k = draw(st.integers(1, min(n, 12)))
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
    again = parse(serialize(inst))
    assert (again.n, again.k, again.model, again.seed) == (inst.n, inst.k, inst.model, inst.seed)
    for name in ("sites", "letters", "coeffs"):
        a, b = getattr(again, name), getattr(inst, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_parse_minimal():
    inst = parse("HKXOR v1 n=2 k=2 m=1 model=explicit seed=0\nZ1 Z2 1.0\n")
    assert inst.m == 1 and inst.k == 2
    assert instance_rows(inst) == [(PauliOp.from_sparse("Z1 Z2", 2), 1.0)]


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
    with pytest.raises(ParseError, match="^line 1: empty document$"):
        parse("")
    for head in ("PMOM v1 n=2 k=2 m=1 model=explicit seed=0", "", "HKXOR"):
        with pytest.raises(ParseError, match="^line 1: expected HKXOR header$"):
            parse(head + "\nZ1 Z2 1.0\n")
    with pytest.raises(ParseError, match="^line 1: header fields n, k, m and seed must be integers"):
        parse("HKXOR v1 n=x k=2 m=1 model=explicit seed=0\nZ1 Z2 1.0\n")
    head = "HKXOR v1 n=3 k=2 m=2 model=explicit seed=0\nZ1 Z2 1.0\n"
    for row, message in (("Z1", "expected a sparse word and a coefficient"),
                         ("Z1 Z2 one", "bad coefficient 'one'"),
                         ("Z1 Z2 Z3 1.0", "word weight 3 != k=2")):
        with pytest.raises(ParseError, match=f"^line 3: {message}"):
            parse(head + row + "\n")


@pytest.mark.parametrize("text,lineno,message", [
    # a site, a header field or a coefficient that int() or float() would read
    ("HKXOR v1 n=4 k=1 m=1 model=explicit seed=0\nX\u0663 1.0\n", 2,
     "bad sparse Pauli token 'X\u0663'"),
    ("HKXOR v1 n=4 k=1 m=1 model=explicit seed=0\nX\u00b3 1.0\n", 2,
     "bad sparse Pauli token 'X\u00b3'"),
    ("HKXOR v1 n=\u0664 k=1 m=1 model=explicit seed=0\nX3 1.0\n", 1,
     "header fields n, k, m and seed must be integers"),
    ("HKXOR v1 n=1_0 k=1 m=1 model=explicit seed=0\nX3 1.0\n", 1,
     "header fields n, k, m and seed must be integers"),
    ("HKXOR v1 n=4 k=1 m=1 model=explicit seed=0\nX3 1_0\n", 2, "bad coefficient '1_0'"),
    ("HKXOR v1 n=4 k=1 m=1 model=explicit seed=0\nX3 \u0661.0\n", 2,
     "bad coefficient '\u0661.0'"),
], ids=["arabic-indic-site", "superscript-site", "arabic-indic-header", "underscored-header",
        "underscored-coeff", "arabic-indic-coeff"])
def test_parse_accepts_only_ascii_numbers(text, lineno, message):
    with pytest.raises(ParseError, match=f"^line {lineno}: {message}$") as err:
        parse(text)
    assert err.value.lineno == lineno
    # the ASCII form of the same document parses
    assert parse("HKXOR v1 n=4 k=1 m=1 model=explicit seed=0\nX3 1.0\n").m == 1


def serialize_by_rows(inst):
    """The per-row formatter serialize replaced: each word's sparse form and repr(coeff)."""
    lines = [f"HKXOR v1 n={inst.n} k={inst.k} m={inst.m} model={inst.model} "
             f"seed={inst.seed} rng=philox"]
    lines += [f"{word.to_sparse()} {coeff!r}" for word, coeff in instance_rows(inst)]
    return "\n".join(lines) + "\n"


@st.composite
def explicit_rows(draw):
    """(n, k, sites, letters) of m rows on up to 70 qubits, past the uint64 mask width."""
    n = draw(st.integers(1, 70))
    k = draw(st.integers(1, min(n, 6)))
    m = draw(st.integers(0, 8))
    sites = [sorted(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)))
             for _ in range(m)]
    letters = draw(st.lists(st.lists(st.integers(0, 2), min_size=k, max_size=k),
                            min_size=m, max_size=m))
    return (n, k, np.array(sites, dtype=np.int64).reshape(m, k),
            np.array(letters, dtype=np.int8).reshape(m, k))


SPECIAL_COEFFS = (0.0, -0.0, 5e-324, -2.5e-310, 1.7976931348623157e308, -1e300)


@settings(max_examples=200)
@given(explicit_rows(), st.lists(st.one_of(st.sampled_from(SPECIAL_COEFFS),
                                           st.floats(allow_nan=False, allow_infinity=False)),
                                 min_size=8, max_size=8))
@example((70, 3, np.array([[0, 1, 69], [5, 6, 7], [0, 63, 64], [1, 2, 3], [3, 4, 5], [6, 7, 8]]),
          np.array([[0, 1, 2], [2, 2, 2], [1, 1, 1], [0, 0, 0], [2, 1, 0], [1, 0, 2]])),
         SPECIAL_COEFFS + (1.0, -1.0))
def test_serialize_equals_the_per_row_formatter(rows, coeffs):
    n, k, sites, letters = rows
    inst = Instance(n, k, sites, letters, list(coeffs[:len(sites)]), "explicit")
    text = serialize(inst)
    assert text == serialize_by_rows(inst)
    assert digest(inst) == hashlib.sha256(text.encode()).hexdigest()


def instance_args(**change):
    """Keyword arguments of a valid two-row n=4, k=2 instance, with some replaced."""
    args = dict(n=4, k=2, sites=np.array([[0, 1], [1, 3]]), letters=np.array([[2, 2], [2, 2]]),
                coeffs=[1.0, -1.0], model="one-basis-z")
    args.update(change)
    return args


@pytest.mark.parametrize("change", (
    dict(model="mixed"),
    dict(k=0), dict(k=5),
    dict(sites=np.array([[0.0, 1.0], [1.0, 3.0]])),  # floats, even whole ones
    dict(sites=np.array([[True, True], [False, True]])),
    dict(sites=np.array([[1, 0], [1, 3]])),  # not ascending
    dict(sites=np.array([[0, 0], [1, 3]])),  # a repeated site
    dict(sites=np.array([[-1, 1], [1, 3]])), dict(sites=np.array([[0, 1], [1, 4]])),
    dict(sites=np.array([[0, 1, 2], [1, 2, 3]])),  # k columns are 2
    dict(sites=np.array([[0, 1]])),  # fewer rows than coefficients
    dict(letters=np.array([[2, 2]])), dict(letters=np.array([[2.0, 2.0], [2.0, 2.0]])),
    dict(letters=np.array([[2, 3], [2, 2]]), model="explicit"),
    dict(letters=np.array([[2, -1], [2, 2]]), model="explicit"),
    dict(letters=np.array([[2, 2], [0, 2]])),  # an X under one-basis-z
    dict(coeffs=[1.0]), dict(coeffs=[[1.0], [-1.0]]), dict(coeffs=1.0),
    dict(coeffs=[1.0, math.nan]), dict(coeffs=[math.inf, 1.0]), dict(coeffs=[1.0, -math.inf]),
    # header fields the file format cannot hold: "n=4.0" and "seed=-1" did not parse
    # back, and k=2.0 made serialize raise TypeError
    dict(n=4.0), dict(k=2.0), dict(seed=1.0), dict(seed="1"), dict(seed=-1),
))
def test_instance_rejects_malformed_columns(change):
    Instance(**instance_args())
    with pytest.raises(ValueError):
        Instance(**instance_args(**change))


def test_instance_keeps_its_header_fields_as_ints_through_the_file_format():
    with pytest.raises(ValueError, match="^n=4.0 is not an integer$"):
        Instance(**instance_args(n=4.0))
    with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
        Instance(**instance_args(seed=-1))
    # numpy integers are stored as ints, and the file round-trips
    inst = Instance(**instance_args(n=np.int64(4), k=np.int8(2), seed=np.uint64(2**64 - 1)))
    assert (type(inst.n), type(inst.k), type(inst.seed)) == (int, int, int)
    text = serialize(inst)
    assert text.startswith(f"HKXOR v1 n=4 k=2 m=2 model=one-basis-z seed={2**64 - 1} rng=philox\n")
    again = parse(text)
    assert (again.n, again.k, again.seed, again.model) == (4, 2, 2**64 - 1, "one-basis-z")
    assert serialize(again) == text and digest(again) == digest(inst)


def test_instance_columns_are_read_only_copies():
    args = instance_args()
    inst = Instance(**args)
    assert inst.sites.dtype == np.int64 and inst.letters.dtype == np.int8
    assert inst.coeffs.dtype == np.float64
    args["sites"][0, 0] = 2  # the caller's array is not the stored one
    assert inst.sites[0, 0] == 0
    words = [c.pauli for c in inst.constraints]
    for name in ("sites", "letters", "coeffs"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(inst, name)[0] = 1
    assert [c.pauli for c in inst.constraints] == words
    assert inst.constraints is inst.constraints  # built once
    for again in (pickle.loads(pickle.dumps(inst)), copy.copy(inst), copy.deepcopy(inst)):
        assert again.constraints == inst.constraints
        assert not any(getattr(again, name).flags.writeable
                       for name in ("sites", "letters", "coeffs"))
