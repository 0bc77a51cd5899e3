"""Dense oracle: assembly, eigenvalues, brute-force XOR values."""

import itertools
import math
import random

import numpy as np
import pytest

from hkxor.instances import Constraint, GeneratorConfig, Instance, generate
from hkxor.oracle import (
    ResourceGuardError,
    apply_word,
    assemble,
    assemble_pauli_sum,
    classical_max,
    classical_value,
    dense_word,
    lambda_max,
    pauli_coefficient,
    word_action,
)
from hkxor.pauli import PauliOp

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
MATS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def kron_word(letters):
    """Dense word from letters, site 1 = letters[0], site 0 least-significant bit."""
    m = np.eye(1)
    for ch in letters:
        m = np.kron(MATS[ch], m)
    return m


def test_dense_word_matches_kron():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randrange(1, 5)
        letters = "".join(rng.choice("IXYZ") for _ in range(n))
        np.testing.assert_allclose(
            dense_word(PauliOp.from_string(letters)), kron_word(letters), atol=1e-14
        )


def test_word_action_matches_kron_for_every_word():
    for n in range(1, 4):
        for letters in itertools.product("IXYZ", repeat=n):
            op = PauliOp.from_string("".join(letters))
            rows, vals = word_action(op)
            m = np.zeros((1 << n, 1 << n), dtype=complex)
            m[rows, np.arange(1 << n)] = vals
            np.testing.assert_array_equal(m, kron_word(letters))
            np.testing.assert_array_equal(dense_word(op), m)


def test_assemble_adds_repeated_words_and_shared_x_masks():
    # X1 Z2 twice, and Y1 Z3 with the same x-mask: their entries coincide, so
    # an assembly that scatters all terms in one buffered add would lose some
    words = ["XZI", "XZI", "YIZ", "IZZ"]
    coeffs = [1.0, 1.0, -1.0, 1.0]
    constraints = tuple(Constraint(PauliOp.from_string(w), b) for w, b in zip(words, coeffs))
    h = assemble(Instance(3, 2, constraints, "explicit"))
    ref = 0.5 * np.eye(8) + sum(b * kron_word(w) for w, b in zip(words, coeffs)) / 8
    np.testing.assert_allclose(h.matrix, ref, atol=1e-14)
    h2 = assemble_pauli_sum(2, [(PauliOp.from_string("XZ"), 0.3),
                                (PauliOp.from_string("XZ"), -0.7),
                                (PauliOp.from_string("YI"), 0.25)])
    np.testing.assert_allclose(h2.matrix, -0.4 * kron_word("XZ") + 0.25 * kron_word("YI"),
                               atol=1e-14)


def test_apply_word_matches_dense():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = rng.integers(1, 6)
        letters = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        op = PauliOp.from_string(letters)
        psi = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        np.testing.assert_allclose(apply_word(op, psi), dense_word(op) @ psi, atol=1e-12)


def zz_instance():
    word = PauliOp.from_sparse("Z1 Z2", 2)
    return Instance(2, 2, (Constraint(word, 1.0),), "explicit")


def test_assemble_examples():
    h1 = assemble(Instance(1, 1, (Constraint(PauliOp.from_sparse("Z1", 1), 1.0),), "explicit"))
    np.testing.assert_allclose(h1.matrix, np.diag([1.0, 0.0]), atol=1e-14)

    g = assemble(zz_instance())
    np.testing.assert_allclose(g.matrix, np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-14)


def test_pauli_coefficient_round_trip():
    inst = generate(GeneratorConfig(n=4, k=2, m=5, model="random", seed=9))
    h = assemble(inst)
    for c in inst.constraints:
        got = pauli_coefficient(h, c.pauli)
        assert abs(got - c.coeff / (2 * inst.m)) < 1e-12


def test_lambda_max_examples():
    assert abs(lambda_max(assemble(zz_instance())) - 1.0) < 1e-12
    h = assemble_pauli_sum(1, [(PauliOp.identity(1), 0.5),
                              (PauliOp.single(1, 0, "X"), 0.25),
                              (PauliOp.single(1, 0, "Z"), 0.25)])
    assert abs(lambda_max(h) - (0.5 + math.sqrt(2) / 4)) < 1e-12


def test_lambda_max_rejects_non_hermitian():
    with pytest.raises(ValueError):
        lambda_max(assemble_pauli_sum(1, [(PauliOp.single(1, 0, "X"), 1j)]))


def test_value_floor_on_generated_instances():
    # lambda_max(H) >= 1/2 for every instance
    for seed in range(12):
        model = ["rademacher-semirandom", "gaussian-semirandom", "random", "one-basis-z"][seed % 4]
        inst = generate(GeneratorConfig(n=5, k=3, m=8, model=model, seed=seed))
        assert lambda_max(assemble(inst)) >= 0.5 - 1e-12


def test_one_basis_matches_classical_brute_force():
    for seed in range(6):
        inst = generate(GeneratorConfig(n=6, k=3, m=10, model="one-basis-z", seed=seed))
        best, _ = classical_max(inst.hypergraph(), inst.coeffs(), inst.n)
        assert abs(lambda_max(assemble(inst)) - best) < 1e-10


def test_classical_three_cycle():
    hyper = [(0, 1), (1, 2), (0, 2)]
    coeffs = [1.0, -1.0, 1.0]
    assert abs(classical_value(hyper, coeffs, (1, 1, 1)) - 2 / 3) < 1e-15
    best, x = classical_max(hyper, coeffs, 3)
    assert abs(best - 2 / 3) < 1e-15
    assert x == (1, 1, 1)  # lexicographically-first maximizer


def test_classical_all_ones():
    hyper = [(0, 1, 2), (1, 2, 3)]
    coeffs = [1.0, 1.0]
    assert classical_value(hyper, coeffs, (1,) * 4) == 1.0
    best, x = classical_max(hyper, coeffs, 4)
    assert best == 1.0 and x == (1, 1, 1, 1)


def test_classical_parity_symmetry_even_k():
    rng = np.random.default_rng(11)
    hyper = [tuple(sorted(rng.choice(5, 2, replace=False))) for _ in range(6)]
    coeffs = list(rng.standard_normal(6))
    x = tuple(int(v) for v in rng.choice([-1, 1], 5))
    neg = tuple(-v for v in x)
    assert abs(classical_value(hyper, coeffs, x) - classical_value(hyper, coeffs, neg)) < 1e-15


def test_resource_guards():
    with pytest.raises(ResourceGuardError):
        dense_word(PauliOp.identity(13))
    with pytest.raises(ResourceGuardError):
        classical_max([(0, 1)], [1.0], 25)
