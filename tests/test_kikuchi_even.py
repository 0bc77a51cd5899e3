"""Even-arity Kikuchi construction against exhaustive pair scans."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hkxor.kikuchi_even as kikuchi_even
from hkxor.instances import GeneratorConfig, generate, parse
from hkxor.kikuchi_even import (
    DegenerateRegularizerError,
    average_degree_bound,
    build_even,
    build_level_n,
    delta_count,
    dump_graph,
    level_n_hatted,
    regularize,
)
from hkxor.kikuchi_odd import build_odd, regularity_decompose
from hkxor.pauli import PauliOp, PhasedPauli, SliceIndex, enumerate_slice, mul_words

from helpers import build_even_reference, degrees_reference, instance_rows, single_zz


def full_pair_scan(word, n, ell):
    """All ordered (Q, R) in the weight-ell slice with Q*R = word (+1 phase) and the overlap condition."""
    ops = list(enumerate_slice(n, ell))
    target = ell - word.weight() // 2
    found = []
    for i, q in enumerate(ops):
        for j, r in enumerate(ops):
            if (q.support_mask & r.support_mask).bit_count() != target:
                continue
            prod = mul_words(q, r)
            if prod.op == word:
                assert prod.phase_exp == 0
                found.append((i, j))
    return found


def fast_pair_scan(word, n, ell):
    """Same edge set in O(N): condition 1 forces R = Q * word as a word."""
    index = SliceIndex(n, ell)
    target = ell - word.weight() // 2
    found = []
    for i, q in enumerate(enumerate_slice(n, ell)):
        prod = mul_words(q, word)
        r = prod.op
        if r.weight() != ell:
            continue
        if (q.support_mask & r.support_mask).bit_count() != target:
            continue
        check = mul_words(q, r)
        if check.op == word and check.phase_exp == 0:
            found.append((i, index.rank(r)))
    return found


def test_fast_scan_matches_full_scan():
    for n, k, ell in [(2, 2, 1), (4, 2, 2), (4, 4, 2), (5, 2, 2)]:
        word = PauliOp.from_letters(n, tuple(range(k)), "XYZX"[:k])
        assert sorted(full_pair_scan(word, n, ell)) == sorted(fast_pair_scan(word, n, ell))


def test_delta_count_examples():
    assert delta_count(4, 2, 2) == 12
    assert delta_count(4, 4, 2) == math.comb(4, 2)
    assert delta_count(8, 4, 3) == math.comb(4, 2) * math.comb(4, 1) * 3 == 72
    with pytest.raises(ValueError):
        delta_count(4, 3, 2)


@pytest.mark.parametrize("n,k,ell", [(2, 2, 1), (4, 2, 2), (4, 4, 2), (6, 2, 3), (6, 4, 3), (8, 4, 3)])
def test_delta_count_matches_scan(n, k, ell):
    word = PauliOp.from_letters(n, tuple(range(k)), ("XYZ" * k)[:k])
    assert len(fast_pair_scan(word, n, ell)) == delta_count(n, k, ell)


def test_single_constraint_graph():
    g = build_even(single_zz(), 1)
    assert g.delta == 2 and g.num_edges == 2
    idx = g.index
    z1, z2 = idx.rank(PauliOp.from_sparse("Z1", 2)), idx.rank(PauliOp.from_sparse("Z2", 2))
    assert sorted(zip(g.rows.tolist(), g.cols.tolist())) == sorted([(z1, z2), (z2, z1)])
    assert all(w == 1.0 for w in g.weights[g.tids])


@pytest.mark.parametrize("ell", (0, 3))
def test_build_even_rejects_ell_outside_its_range(ell):
    with pytest.raises(ValueError, match="need k/2 <= ell <= n/2"):
        build_even(generate(GeneratorConfig(n=4, k=2, m=2, seed=0)), ell)


def test_empty_instance_graph():
    inst = parse("HKXOR v1 n=4 k=2 m=0 model=explicit seed=0\n")
    g = build_even(inst, 1)
    assert g.num_edges == 0 and g.average_degree == 0.0
    with pytest.raises(DegenerateRegularizerError):
        regularize(g)


def test_build_matches_scan_per_constraint():
    inst = generate(GeneratorConfig(n=4, k=2, m=3, model="rademacher-semirandom", seed=5))
    g = build_even(inst, 2)
    for cid, (word, _) in enumerate(instance_rows(inst)):
        mine = g.tids == cid
        built = sorted(zip(g.rows[mine].tolist(), g.cols[mine].tolist()))
        assert built == sorted(fast_pair_scan(word, 4, 2))
        assert len(built) == g.delta == 12


def assert_same_graph(graph, reference):
    for name in ("rows", "cols", "tids", "weights"):
        mine, theirs = getattr(graph, name), getattr(reference, name)
        assert (mine.dtype, mine.tobytes()) == (theirs.dtype, theirs.tobytes()), name
    assert (graph.delta, graph.num_vertices) == (reference.delta, reference.num_vertices)
    assert dump_graph(graph) == dump_graph(reference)


MODELS = ("rademacher-semirandom", "gaussian-semirandom", "random", "one-basis-z")


@st.composite
def even_builds(draw):
    """(instance, ell, edge block, word block): k in {2, 4}, ell in {k/2, k/2 + 1}, and
    blocks from one edge or word at a time up to the builder's own sizes."""
    k = draw(st.sampled_from((2, 4)))
    ell = k // 2 + draw(st.integers(0, 1))
    n = draw(st.integers(max(k, 2 * ell), 9))
    inst = generate(GeneratorConfig(n=n, k=k, m=draw(st.integers(1, 12)),
                                    model=draw(st.sampled_from(MODELS)),
                                    seed=draw(st.integers(0, 2**32))))
    return (inst, ell, draw(st.sampled_from((1, 5, 64, kikuchi_even._EDGE_BLOCK))),
            draw(st.sampled_from((1, 7, kikuchi_even._WORD_BLOCK))))


@settings(max_examples=60)
@given(even_builds())
def test_build_even_equals_the_per_edge_reference_byte_for_byte(case):
    inst, ell, edge_block, word_block = case
    with mock.patch.object(kikuchi_even, "_EDGE_BLOCK", edge_block), \
            mock.patch.object(kikuchi_even, "_WORD_BLOCK", word_block):
        graph = build_even(inst, ell)
    assert_same_graph(graph, build_even_reference(inst, ell))


@pytest.mark.parametrize("n, k, ell, m", ((70, 2, 1, 40), (70, 2, 2, 12), (70, 4, 2, 10),
                                          (130, 2, 1, 30)))
def test_build_even_equals_the_reference_past_64_qubits(n, k, ell, m):
    # the masks take the object-dtype path: Python ints past bit 63
    for model in MODELS:
        inst = generate(GeneratorConfig(n=n, k=k, m=m, model=model, seed=n + ell))
        graph = build_even(inst, ell)
        assert graph.num_edges == m * graph.delta
        assert_same_graph(graph, build_even_reference(inst, ell))


@pytest.mark.parametrize("k, ell", ((2, 1), (2, 2), (4, 2), (4, 3)))
def test_build_even_pays_one_product_and_two_ranks_per_edge(monkeypatch, k, ell):
    calls = {"mul_words": 0, "rank": 0}

    def counted(name, func):
        def call(*args):
            calls[name] += 1
            return func(*args)
        return call

    monkeypatch.setattr(kikuchi_even, "mul_words", counted("mul_words", mul_words))
    monkeypatch.setattr(SliceIndex, "rank", counted("rank", SliceIndex.rank))
    graph = build_even(generate(GeneratorConfig(n=8, k=k, m=9, seed=ell)), ell)
    assert graph.num_edges > 0
    assert calls == {"mul_words": graph.num_edges, "rank": 2 * graph.num_edges}


def test_build_even_refuses_an_edge_whose_product_is_not_plus_p(monkeypatch):
    # the check stays in the build whatever the benchmark counts
    monkeypatch.setattr(kikuchi_even, "mul_words",
                        lambda q, r: PhasedPauli(mul_words(q, r).op, 2))
    with pytest.raises(AssertionError, match="edge product is not \\+P"):
        build_even(single_zz(), 1)


def test_signed_matrix_symmetric():
    for seed in range(5):
        inst = generate(GeneratorConfig(n=6, k=2, m=8, model="gaussian-semirandom", seed=seed))
        mat = build_even(inst, 2).signed_matrix()
        assert (mat != mat.T).nnz == 0


def test_degrees_equal_out_degrees():
    # the edge set is transpose-closed, so |w|/2 at both endpoints sums to the
    # |b_C| out-degree up to summation order
    for seed in range(3):
        inst = generate(GeneratorConfig(n=6, k=2, m=8, model="gaussian-semirandom", seed=seed))
        g = build_even(inst, 2)
        out = np.zeros(g.num_vertices)
        rows = instance_rows(inst)
        for q, cid in zip(g.rows.tolist(), g.tids.tolist()):
            out[q] += abs(rows[cid][1])
        assert np.allclose(g.degrees, out, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("model, k, ell", (("rademacher-semirandom", 2, 2),
                                           ("gaussian-semirandom", 2, 2),
                                           ("gaussian-semirandom", 3, 3)))
def test_degrees_equal_the_interleaved_bincount_bit_for_bit(model, k, ell):
    for seed in range(3):
        inst = generate(GeneratorConfig(n=7, k=k, m=14, model=model, seed=seed))
        g = (build_even(inst, ell) if k % 2 == 0 else
             build_odd(regularity_decompose(inst, ell, 1.0), inst, 1, ell))
        assert g.num_edges
        assert g.degrees.tobytes() == degrees_reference(g).tobytes()


def test_regularize_single_constraint():
    g = build_even(single_zz(), 1)
    gamma = regularize(g)
    assert g.total_degree == 2.0 and g.num_vertices == 6
    assert abs(g.average_degree - 1 / 3) < 1e-15
    matched = g.index.rank(PauliOp.from_sparse("Z1", 2))
    isolated = g.index.rank(PauliOp.from_sparse("X1", 2))
    assert abs(gamma[matched] - 4 / 3) < 1e-15
    assert abs(gamma[isolated] - 1 / 3) < 1e-15
    assert abs(gamma.sum() - 4.0) < 1e-12


def test_trace_gamma_is_twice_total_degree():
    for seed in range(50):
        k = 2 if seed % 2 == 0 else 4
        inst = generate(GeneratorConfig(n=6, k=k, m=6, model="rademacher-semirandom", seed=seed))
        g = build_even(inst, 2)
        assert abs(regularize(g).sum() - 2 * inst.m * g.delta) < 1e-9


def test_average_degree_bound():
    assert abs(average_degree_bound(4, 2, 2, 3) - 0.5) < 1e-15
    assert average_degree_bound(4, 2, 2, 0) == 0.0
    inst = generate(GeneratorConfig(n=4, k=2, m=3, model="rademacher-semirandom", seed=1))
    g = build_even(inst, 2)
    assert abs(g.average_degree - 2 / 3) < 1e-12
    assert g.average_degree >= average_degree_bound(4, 2, 2, 3)


def test_average_degree_bound_holds_at_random():
    for seed in range(10):
        inst = generate(GeneratorConfig(n=8, k=2, m=12, model="random", seed=seed))
        g = build_even(inst, 3)
        assert g.average_degree >= average_degree_bound(8, 2, 3, 12) - 1e-12


def test_level_n_single_z():
    g = build_level_n([(PauliOp.from_sparse("Z1", 1), 1.0)], n=1)
    pairs = {(g.index.unrank(q).to_string(), g.index.unrank(r).to_string())
             for q, r in zip(g.rows.tolist(), g.cols.tolist())}
    assert pairs == {("I", "Z"), ("Z", "I"), ("X", "Y"), ("Y", "X")}


def test_level_n_zero_operator():
    g = build_level_n([], n=2)
    assert g.num_edges == 0


def test_level_n_rejects_terms_on_other_qubit_counts():
    for n in (1, 3):
        with pytest.raises(ValueError, match="n="):
            build_level_n([(PauliOp.from_sparse("Z1 Z2", 2), 1.0)], n=n)


def test_level_n_refuses_non_finite_coefficients():
    # a NaN coefficient was dropped as if zero, and an infinite one kept as a weight
    z1 = PauliOp.from_sparse("Z1", 2)
    for bad in (math.nan, math.inf, -math.inf):
        for terms in ([(z1, bad)], [(z1, 1.0), (PauliOp.from_sparse("X2", 2), bad)]):
            with pytest.raises(ValueError, match="^coefficients must be finite$"):
                build_level_n(terms, n=2)
    # zeros, of either sign, still place no type
    assert build_level_n([(z1, 0.0), (z1, -0.0), (z1, 2.0)], n=2).weights.tolist() == [2.0]


def test_level_n_spectrum_equality():
    rng = np.random.default_rng(7)
    for n in (1, 2):
        terms = []
        for op in [PauliOp.single(n, s, L) for s in range(n) for L in "XYZ"]:
            terms.append((op, float(rng.standard_normal())))
        g = build_level_n(terms, n=n)
        dense = g.signed_matrix().toarray()
        lam_graph = float(np.linalg.eigvalsh(dense)[-1])
        lam_tensored = float(np.linalg.eigvalsh(np.kron(dense, np.eye(1 << n)))[-1])
        lam_hatted = float(np.linalg.eigvalsh(level_n_hatted(g))[-1])
        assert abs(lam_graph - lam_tensored) < 1e-9
        assert abs(lam_graph - lam_hatted) < 1e-9
