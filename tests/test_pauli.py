"""Exact Pauli algebra against dense matrix ground truth."""

import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hkxor.pauli import (
    PHASES,
    PauliOp,
    PhasedPauli,
    SliceIndex,
    canonical_key,
    commutes,
    enumerate_slice,
    masks_from_arrays,
    mul_words,
    multiply,
    slice_arrays,
    slice_size,
    word_columns,
    words_from_arrays,
    words_to_arrays,
)
from hkxor.oracle import dense_word


def random_word(rng, n, max_weight=None):
    w = rng.randrange(0, (max_weight if max_weight is not None else n) + 1)
    sites = rng.sample(range(n), w)
    letters = "".join(rng.choice("XYZ") for _ in range(w))
    return PauliOp.from_letters(n, sites, letters)


def test_single_site_products():
    x0 = PhasedPauli(PauliOp.single(1, 0, "X"))
    z0 = PhasedPauli(PauliOp.single(1, 0, "Z"))
    y0 = PauliOp.single(1, 0, "Y")
    prod = multiply(x0, z0)
    assert prod.op == y0 and prod.phase == -1j  # X*Z = -iY
    prod = multiply(z0, x0)
    assert prod.op == y0 and prod.phase == 1j


def test_involution():
    rng = random.Random(7)
    for _ in range(50):
        p = random_word(rng, 6)
        sq = multiply(PhasedPauli(p), PhasedPauli(p))
        assert sq.op.is_identity() and sq.phase == 1


def test_two_site_example():
    # (X1 Z2) * (Z1 X2) = (-i)(+i) Y1 Y2 = +Y1 Y2, checked against 4x4 matrices
    a = PauliOp.from_letters(2, (0, 1), "XZ")
    b = PauliOp.from_letters(2, (0, 1), "ZX")
    prod = mul_words(a, b)
    assert prod.op == PauliOp.from_letters(2, (0, 1), "YY")
    assert prod.phase == 1
    np.testing.assert_allclose(dense_word(a) @ dense_word(b), prod.phase * dense_word(prod.op),
                               atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_multiply_matches_dense(n):
    rng = random.Random(100 + n)
    for _ in range(40):
        p, q = random_word(rng, n, min(n, 4)), random_word(rng, n, min(n, 4))
        prod = mul_words(p, q)
        np.testing.assert_allclose(
            dense_word(p) @ dense_word(q), prod.phase * dense_word(prod.op), atol=1e-13
        )


def test_group_laws_random_triples():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(1, 17)
        a, b, c = (PhasedPauli(random_word(rng, n), rng.randrange(4)) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
        ident = PhasedPauli(PauliOp.identity(n))
        assert multiply(a, ident) == a and multiply(ident, a) == a


def test_commutes_examples():
    x0 = PauliOp.single(1, 0, "X")
    z0 = PauliOp.single(1, 0, "Z")
    assert not commutes(x0, z0)
    a = PauliOp.from_letters(2, (0, 1), "XZ")
    b = PauliOp.from_letters(2, (0, 1), "ZX")
    assert commutes(a, b)
    assert commutes(a, PauliOp.identity(2))


def test_commutes_matches_phase_comparison():
    rng = random.Random(13)
    for _ in range(80):
        n = rng.randrange(1, 12)
        a, b = random_word(rng, n), random_word(rng, n)
        ab = mul_words(a, b)
        ba = mul_words(b, a)
        assert ab.op == ba.op
        assert commutes(a, b) == (ab.phase_exp == ba.phase_exp)
        assert commutes(a, b) == (ab.phase_exp % 2 == 0)


@pytest.mark.parametrize("n, xmask, zmask", ((2, 4, 0), (2, 0, 4), (2, 1 << 70, 3), (0, 0, 1),
                                           (3, -1, 0), (3, 0, -2), (-1, 0, 0)))
def test_mask_bits_beyond_qubit_count_raise(n, xmask, zmask):
    with pytest.raises(ValueError):
        PauliOp(n, xmask, zmask)
    assert PauliOp(3, 7, 5).weight() == 3 and PauliOp(0, 0, 0).is_identity()


@pytest.mark.parametrize("make", (lambda: PauliOp.single(3, 0, "Q"),
                                  lambda: PauliOp.from_letters(3, (0,), "Q"),
                                  lambda: PauliOp.from_string("XQ")))
def test_bad_letter_raises_value_error_naming_it(make):
    with pytest.raises(ValueError, match="'Q'"):
        make()


def test_mismatched_n_errors():
    with pytest.raises(ValueError):
        commutes(PauliOp.identity(2), PauliOp.identity(3))
    with pytest.raises(ValueError):
        multiply(PhasedPauli(PauliOp.identity(2)), PhasedPauli(PauliOp.identity(3)))


def test_enumerate_slice_counts():
    assert len(list(enumerate_slice(3, 2))) == 27
    assert list(enumerate_slice(5, 0)) == [PauliOp.identity(5)]
    ops = list(enumerate_slice(2, 1))
    expected = ["X1", "Y1", "Z1", "X2", "Y2", "Z2"]
    assert [op.to_sparse() for op in ops] == expected
    with pytest.raises(ValueError):
        list(enumerate_slice(2, 3))


def test_slice_canonical_order_is_sorted_by_key():
    ops = list(enumerate_slice(4, 2))
    keys = [canonical_key(op) for op in ops]
    assert keys == sorted(keys)
    assert len(set(ops)) == len(ops) == slice_size(4, 2)


@pytest.mark.parametrize("n,ell", [(n, ell) for n in range(1, 9) for ell in range(0, min(n, 3) + 1)])
def test_rank_unrank_bijection(n, ell):
    idx = SliceIndex(n, ell)
    seen = set()
    for i, op in enumerate(enumerate_slice(n, ell)):
        assert idx.rank(op) == i
        assert idx.unrank(i) == op
        seen.add(i)
    assert seen == set(range(idx.size))


@st.composite
def slice_words(draw):
    """(n, ell, rows of (sites, letters)) with n <= 120 and ell <= 4; sites unsorted."""
    n = draw(st.integers(1, 120))
    ell = draw(st.integers(0, min(n, 4)))
    word = st.tuples(st.permutations(range(n)).map(lambda perm: perm[:ell]),
                     st.lists(st.integers(0, 2), min_size=ell, max_size=ell))
    return n, ell, draw(st.lists(word, min_size=1, max_size=8))


@st.composite
def word_batches(draw):
    """(n, ell, lead shape, rows of (sites, letters)) with one row per entry of a
    lead shape of one or two axes, each of length 0 to 3; sites unsorted."""
    n = draw(st.integers(1, 120))
    ell = draw(st.integers(0, min(n, 4)))
    lead = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=2)))
    word = st.tuples(st.permutations(range(n)).map(lambda perm: perm[:ell]),
                     st.lists(st.integers(0, 2), min_size=ell, max_size=ell))
    size = math.prod(lead)
    return n, ell, lead, draw(st.lists(word, min_size=size, max_size=size))


@settings(max_examples=300)
@given(word_batches())
@example((5, 0, (2, 3), [((), [])] * 6))
@example((5, 1, (0,), []))
@example((5, 3, (2, 0), []))
def test_rank_batch_equals_rank(case):
    n, ell, lead, words = case
    idx = SliceIndex(n, ell)
    sites = np.array([w[0] for w in words], dtype=np.int64).reshape(lead + (ell,))
    letters = np.array([w[1] for w in words], dtype=np.int8).reshape(lead + (ell,))
    expected = [idx.rank(PauliOp.from_letters(n, w[0], "".join("XYZ"[a] for a in w[1])))
                for w in words]
    ranks = idx.rank_batch(sites, letters)
    assert (ranks.shape, ranks.dtype) == (lead, np.int64)
    assert ranks.ravel().tolist() == expected


small_slices = st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, min(n, 4))))


@settings(max_examples=60)
@given(small_slices, st.integers(0, 2**32 - 1))
def test_slice_table_ranks_in_order_in_any_column_order(case, seed):
    n, ell = case
    idx = SliceIndex(n, ell)
    sites, letters = slice_arrays(n, ell)
    assert (sites.dtype, letters.dtype) == (np.int64, np.int8)
    assert sites.shape == letters.shape == (idx.size, ell)
    # shuffle each row's columns: rank_batch takes a row's sites in any order
    perm = np.argsort(np.random.default_rng(seed).random(sites.shape), axis=1)
    ranks = idx.rank_batch(np.take_along_axis(sites, perm, axis=1),
                           np.take_along_axis(letters, perm, axis=1))
    assert ranks.tolist() == list(range(idx.size))
    words = list(enumerate_slice(n, ell))
    assert words == words_from_arrays(n, sites, letters)
    assert [idx.rank(w) for w in words] == list(range(idx.size))
    assert words == [idx.unrank(i) for i in range(idx.size)]


@settings(max_examples=60)
@given(small_slices.filter(lambda case: case[1] >= 2), st.data())
def test_rank_batch_rejects_a_repeated_site_in_any_column_pair(case, data):
    n, ell = case
    sites, letters = slice_arrays(n, ell)
    row = data.draw(st.integers(0, len(sites) - 1))
    a, b = data.draw(st.permutations(range(ell)))[:2]
    sites = sites.copy()
    sites[row, b] = sites[row, a]
    with pytest.raises(ValueError, match="distinct"):
        SliceIndex(n, ell).rank_batch(sites, letters)


@settings(max_examples=200)
@given(slice_words())
@example((65, 2, [((64, 0), [1, 2]), ((3, 63), [0, 0])]))
@example((70, 3, [((69, 0, 64), [2, 1, 0]), ((64, 65, 66), [0, 1, 2]), ((5, 69, 1), [1, 1, 1])]))
def test_word_columns_reads_back_mask_rows_and_orders_like_the_slice_index(case):
    # masks past 64 qubits are Python ints from object arrays; rows come in any site order
    n, ell, words = case
    sites = np.array([w[0] for w in words], dtype=np.int64).reshape(len(words), ell)
    letters = np.array([w[1] for w in words], dtype=np.int8).reshape(len(words), ell)
    rows = [sorted(zip(*w)) for w in words]  # (site, code) pairs by site
    expected = [(tuple(s for s, _ in row), tuple(c for _, c in row)) for row in rows]
    assert [word_columns(x, z) for x, z in zip(*masks_from_arrays(n, sites, letters))] == expected
    ops = words_from_arrays(n, sites, letters)
    assert sorted(ops, key=canonical_key) == sorted(ops, key=SliceIndex(n, ell).rank)


def test_rank_memo_still_checks_qubit_count():
    idx = SliceIndex(4, 2)
    op = PauliOp.from_sparse("X1 Z3", 4)
    assert idx.rank(op) == idx.rank(op)
    assert (op.xmask, op.zmask) in idx._ranks
    for n in (3, 5):
        with pytest.raises(ValueError, match="qubit counts differ"):
            idx.rank(PauliOp(n, op.xmask, op.zmask))


def test_rank_memo_never_stores_a_word_of_the_wrong_weight():
    idx = SliceIndex(4, 2)
    for word in ("X1", "X1 Y2 Z3", "I"):
        op = PauliOp.from_sparse(word, 4)
        for _ in range(2):
            with pytest.raises(ValueError, match="slice expects 2"):
                idx.rank(op)
    assert idx._ranks == {}


@settings(max_examples=200)
@given(slice_words())
def test_warm_rank_equals_rank_batch_and_a_fresh_index(case):
    n, ell, words = case
    ops = [PauliOp.from_letters(n, w[0], "".join("XYZ"[a] for a in w[1])) for w in words]
    warm = SliceIndex(n, ell)
    for op in reversed(ops):
        warm.rank(op)
    assert len(warm._ranks) == len(set(ops)) <= warm.size
    sites = np.array([w[0] for w in words], dtype=np.int64).reshape(len(words), ell)
    letters = np.array([w[1] for w in words], dtype=np.int64).reshape(len(words), ell)
    expected = warm.rank_batch(sites, letters).tolist()
    assert [warm.rank(op) for op in ops] == expected
    assert [SliceIndex(n, ell).rank(op) for op in ops] == expected


@settings(max_examples=200)
@given(st.integers(1, 120).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, min(n, 4)).flatmap(lambda ell: st.tuples(
        st.just(ell), st.integers(0, slice_size(n, ell) - 1))))))
def test_rank_unrank_round_trip(case):
    n, (ell, i) = case
    idx = SliceIndex(n, ell)
    assert idx.rank(idx.unrank(i)) == i


def words_on(n: int):
    return st.builds(PauliOp, st.just(n), st.integers(0, 2**n - 1), st.integers(0, 2**n - 1))


@settings(max_examples=200)
@given(st.integers(1, 70).flatmap(lambda n: st.tuples(words_on(n), words_on(n), words_on(n))))
def test_mul_words_associative_with_phases(words):
    a, b, c = words
    ab, bc = mul_words(a, b), mul_words(b, c)
    left, right = mul_words(ab.op, c), mul_words(a, bc.op)
    assert left.op == right.op
    assert (ab.phase_exp + left.phase_exp) % 4 == (bc.phase_exp + right.phase_exp) % 4


@settings(max_examples=200)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(words_on(n), words_on(n))))
def test_mul_words_builds_checked_words(words):
    # mul_words skips the constructors' checks; its output must pass them anyway
    p, q = words
    prod = mul_words(p, q)
    assert type(prod) is PhasedPauli and type(prod.op) is PauliOp
    assert prod.phase_exp in range(4)
    assert prod.op.n == p.n and prod.op.xmask < 2**p.n and prod.op.zmask < 2**p.n
    assert prod.op == PauliOp(p.n, prod.op.xmask, prod.op.zmask)
    assert prod == PhasedPauli(PauliOp(p.n, p.xmask ^ q.xmask, p.zmask ^ q.zmask),
                               prod.phase_exp)


def test_mul_words_refuses_mismatched_qubit_counts():
    with pytest.raises(ValueError, match="qubit counts differ: 2 != 3"):
        mul_words(PauliOp.identity(2), PauliOp.identity(3))


@settings(max_examples=200)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(words_on(n), words_on(n))))
def test_mul_words_matches_dense_products(words):
    p, q = words
    prod = mul_words(p, q)
    np.testing.assert_allclose(dense_word(p) @ dense_word(q), prod.phase * dense_word(prod.op),
                               atol=1e-13)


@settings(max_examples=200)
@given(st.integers(1, 200).flatmap(words_on))
def test_support_equals_site_scan(p):
    # masks up to 200 bits, wider than one machine word
    assert p.support() == tuple(i for i in range(p.n) if p.letter_at(i) != "I")


@settings(max_examples=200)
@given(st.integers(0, 200).flatmap(words_on))
@example(PauliOp.identity(5))
def test_to_sparse_equals_letter_scan(p):
    # to_sparse reads the bit pairs through word_columns; letter_at is the reference
    expected = " ".join(f"{p.letter_at(i)}{i + 1}" for i in range(p.n) if p.letter_at(i) != "I")
    assert p.to_sparse() == (expected or "I")


def test_rank_batch_rejects_bad_rows_and_ranks_oversized_slices():
    idx = SliceIndex(6, 2)
    for sites, letters in (([[1, 1]], [[0, 0]]), ([[0, 6]], [[0, 0]]), ([[0, 1]], [[0, 3]])):
        with pytest.raises(ValueError):
            idx.rank_batch(np.array(sites), np.array(letters))
    # non-integer sites or letters are refused, not truncated
    for sites, letters in (([[0.0, 1.9]], [[0, 2]]), ([[0, 1]], [[0, 2.7]])):
        with pytest.raises(ValueError, match="must be integers"):
            idx.rank_batch(np.array(sites), np.array(letters))
    # slices of 2^63 words or more get Python-int ranks, equal to rank word by word; at
    # (100, 12) only 3^ell C(n, ell) passes 2^63, not C(n, ell) itself
    rng = np.random.default_rng(7)
    for n, ell in ((120, 40), (200, 45), (100, 12)):
        idx = SliceIndex(n, ell)
        assert idx.size >= 2**63 and (math.comb(n, ell) < 2**63) == (ell == 12)
        sites = np.array([rng.choice(n, ell, replace=False) for _ in range(40)])
        letters = rng.integers(0, 3, size=sites.shape).astype(np.int8)
        ranks = idx.rank_batch(sites, letters)
        assert (ranks.shape, ranks.dtype) == ((40,), object)
        # the first row's sites reversed and reranked alone: any site order, any batch size
        assert idx.rank_batch(sites[:1, ::-1], letters[:1, ::-1]).tolist() == ranks[:1].tolist()
        for row, letter_row, rank in zip(sites.tolist(), letters.tolist(), ranks.tolist()):
            order = np.argsort(row)
            word = PauliOp.from_letters(n, [row[i] for i in order],
                                        "".join("XYZ"[letter_row[i]] for i in order))
            assert type(rank) is int and rank == idx.rank(word) and idx.unrank(rank) == word


def test_string_round_trips():
    rng = random.Random(23)
    for _ in range(40):
        p = random_word(rng, 7)
        assert PauliOp.from_string(p.to_string()) == p
        assert PauliOp.from_sparse(p.to_sparse(), 7) == p
    assert PauliOp.from_string("IXZY").to_sparse() == "X2 Z3 Y4"


def test_weight():
    assert PauliOp.identity(4).weight() == 0
    assert PauliOp.from_sparse("X1 Y2 Z4", 5).weight() == 3
    assert slice_size(3, 2) == 3**2 * math.comb(3, 2)


# -- value semantics: words and phased words are tuples of their fields --------


@settings(max_examples=200)
@given(st.integers(0, 70).flatmap(lambda n: st.tuples(words_on(n), st.integers(-9, 9))))
def test_words_hash_compare_and_print_as_their_fields(case):
    p, e = case
    fields = (p.n, p.xmask, p.zmask)
    assert hash(p) == hash(fields) and p == fields
    assert p == PauliOp(*fields) and p != PauliOp(p.n + 1, p.xmask, p.zmask)
    assert repr(p) == f"PauliOp(n={p.n}, xmask={p.xmask}, zmask={p.zmask})"
    phased = PhasedPauli(p, e)
    assert phased.phase_exp == e % 4 and phased.phase == PHASES[e % 4]
    assert hash(phased) == hash((p, e % 4)) == hash((fields, e % 4))
    assert phased == PhasedPauli(p, e + 4) and phased != PhasedPauli(p, e + 1)
    assert repr(phased) == f"PhasedPauli(op={p!r}, phase_exp={e % 4})"
    assert str(p) == p.to_sparse() and str(phased) == repr(phased)


@settings(max_examples=100)
@given(st.integers(0, 70).flatmap(lambda n: st.tuples(words_on(n), st.integers(0, 3))),
       st.integers(0, pickle.HIGHEST_PROTOCOL))
def test_pickle_round_trip_returns_an_equal_value(case, protocol):
    p, e = case
    for value in (p, PhasedPauli(p, e)):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert back == value and type(back) is type(value)
    assert type(pickle.loads(pickle.dumps(PhasedPauli(p, e), protocol)).op) is PauliOp


@settings(max_examples=200)
@given(st.integers(-3, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, 12), st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1))))
def test_every_construction_path_checks_the_fields(case):
    n, good_n, xmask, zmask = case
    valid = n >= 0 and not (xmask | zmask) >> n
    base = PauliOp(good_n, 0, 0)
    paths = (lambda: PauliOp(n, xmask, zmask),
             lambda: PauliOp._make((n, xmask, zmask)),
             lambda: base._replace(n=n, xmask=xmask, zmask=zmask))
    for make in paths:
        if valid:
            assert make() == (n, xmask, zmask)
        else:
            with pytest.raises(ValueError):
                make()
    if n < 0:
        with pytest.raises(ValueError):
            PauliOp.identity(n)


def test_fields_and_attributes_cannot_be_assigned():
    p = PauliOp(3, 5, 1)
    phased = PhasedPauli(p, 2)
    for value, name in ((p, "n"), (p, "xmask"), (p, "zmask"), (p, "other"),
                        (phased, "op"), (phased, "phase_exp"), (phased, "other")):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    assert p == (3, 5, 1) and phased == (p, 2)


def test_phased_pauli_reduces_negative_phases_mod_4():
    p = PauliOp(1, 1, 0)
    assert [PhasedPauli(p, e).phase_exp for e in range(-8, 0)] == [0, 1, 2, 3] * 2
    assert PhasedPauli(p).phase_exp == 0 and PhasedPauli(p, -1).phase == -1j
    assert PhasedPauli._make((p, -3)) == (p, 1)
    assert PhasedPauli(p, 0)._replace(phase_exp=-6) == (p, 2)


@pytest.mark.parametrize("path", ("new", "_make", "_replace"))
def test_phased_pauli_refuses_a_non_integer_phase_exponent(path):
    # PhasedPauli(p, 1.5) used to be stored, and reading .phase then raised a bare TypeError
    p = PauliOp(2, 1, 0)
    make = {"new": lambda e: PhasedPauli(p, e),
            "_make": lambda e: PhasedPauli._make((p, e)),
            "_replace": lambda e: PhasedPauli(p, 1)._replace(phase_exp=e)}[path]
    for exponent in (1.5, 2.0, "1", None, 1j):
        with pytest.raises(TypeError, match="phase exponent must be an integer, got"):
            make(exponent)
    for exponent in (np.int64(7), np.uint8(3), True, -5):
        phased = make(exponent)
        assert phased == (p, int(exponent) % 4) and type(phased.phase_exp) is int
        assert phased.phase == PHASES[int(exponent) % 4]


def test_words_order_like_their_field_tuples():
    # not used by the package, which orders words by canonical_key
    assert PauliOp(2, 1, 0) < PauliOp(2, 1, 2) < PauliOp(3, 0, 0)
    assert sorted([PauliOp(2, 3, 0), PauliOp(1, 1, 0), PauliOp(2, 0, 1)]) == [
        (1, 1, 0), (2, 0, 1), (2, 3, 0)]


@st.composite
def word_lists(draw):
    """(n, weight, words) with n up to 70, past the width of a uint64 mask."""
    n = draw(st.integers(1, 70))
    weight = draw(st.integers(0, min(n, 6)))
    rows = draw(st.lists(st.tuples(
        st.lists(st.integers(0, n - 1), min_size=weight, max_size=weight, unique=True),
        st.text("XYZ", min_size=weight, max_size=weight)), max_size=8))
    return n, weight, [PauliOp.from_letters(n, sites, letters) for sites, letters in rows]


@settings(max_examples=200)
@given(word_lists())
@example((70, 3, [PauliOp.from_sparse("X1 Y64 Z70", 70), PauliOp.from_sparse("Z63 X64 Y65", 70)]))
def test_word_array_conversions_are_inverses(case):
    n, weight, words = case
    sites, letters = words_to_arrays(words, n, weight)
    assert sites.shape == letters.shape == (len(words), weight)
    assert sites.dtype == np.int64 and letters.dtype == np.int8
    assert sites.tolist() == [list(w.support()) for w in words]
    assert letters.tolist() == [["XYZ".index(w.letter_at(s)) for s in w.support()]
                                for w in words]
    assert words_from_arrays(n, sites, letters) == words
    again = words_to_arrays(words_from_arrays(n, sites, letters), n, weight)
    assert all(np.array_equal(a, b) for a, b in zip(again, (sites, letters)))


def test_words_to_arrays_rejects_other_weights_and_qubit_counts():
    words = [PauliOp.from_sparse("X1 Z3", 4)]
    with pytest.raises(ValueError, match="word weight 2 != 3"):
        words_to_arrays(words, 4, 3)
    with pytest.raises(ValueError, match="n=5"):
        words_to_arrays(words, 5, 2)
