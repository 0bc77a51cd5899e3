"""Exact Pauli algebra against dense matrix ground truth."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hkxor.pauli import (
    PauliOp,
    PhasedPauli,
    SliceIndex,
    canonical_key,
    commutes,
    enumerate_slice,
    mul_words,
    multiply,
    slice_size,
)
from hkxor.oracle import dense_phased, dense_word


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
    np.testing.assert_allclose(dense_word(a) @ dense_word(b), dense_phased(prod), atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_multiply_matches_dense(n):
    rng = random.Random(100 + n)
    for _ in range(40):
        p, q = random_word(rng, n, min(n, 4)), random_word(rng, n, min(n, 4))
        prod = mul_words(p, q)
        np.testing.assert_allclose(
            dense_word(p) @ dense_word(q), dense_phased(prod), atol=1e-13
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


@settings(max_examples=200)
@given(slice_words())
def test_rank_batch_equals_rank(case):
    n, ell, words = case
    idx = SliceIndex(n, ell)
    sites = np.array([w[0] for w in words], dtype=np.int64).reshape(len(words), ell)
    letters = np.array([w[1] for w in words], dtype=np.int64).reshape(len(words), ell)
    expected = [idx.rank(PauliOp.from_letters(n, w[0], "".join("XYZ"[a] for a in w[1])))
                for w in words]
    assert idx.rank_batch(sites, letters).tolist() == expected


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
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(words_on(n), words_on(n))))
def test_mul_words_matches_dense_products(words):
    p, q = words
    np.testing.assert_allclose(dense_word(p) @ dense_word(q), dense_phased(mul_words(p, q)),
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
    # to_sparse reads the bit pairs itself; letter_at is the reference
    expected = " ".join(f"{p.letter_at(i)}{i + 1}" for i in range(p.n) if p.letter_at(i) != "I")
    assert p.to_sparse() == (expected or "I")


def test_rank_batch_rejects_bad_rows_and_oversized_slices():
    idx = SliceIndex(6, 2)
    for sites, letters in (([[1, 1]], [[0, 0]]), ([[0, 6]], [[0, 0]]), ([[0, 1]], [[0, 3]])):
        with pytest.raises(ValueError):
            idx.rank_batch(np.array(sites), np.array(letters))
    with pytest.raises(ValueError, match="int64"):
        SliceIndex(120, 40).rank_batch(np.zeros((0, 40)), np.zeros((0, 40)))


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
