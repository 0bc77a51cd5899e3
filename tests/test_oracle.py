"""Dense oracle: assembly, eigenvalues, brute-force XOR values."""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import zpftrf, ztrttf

from helpers import (assemble_pauli_sum_reference, assemble_reference, explicit_instance,
                     hermitian_deviation_reference, instance_rows, lambda_max_reference,
                     verify_rademacher, z_instance)
from hkxor import oracle, sos
from hkxor.certify import certify, spectral_norm
from hkxor.cli import main
from hkxor.instances import GeneratorConfig, Instance, generate, serialize
from hkxor.kikuchi_even import build_even
from hkxor.oracle import (
    HERMITIAN_TOL,
    ResourceGuardError,
    apply_word,
    assemble,
    assemble_pauli_sum,
    classical_max,
    classical_value,
    check_hermitian,
    dense_word,
    hermitian_deviation,
    lambda_max,
    pauli_coefficient,
    quadratic_form_check,
    rump_bound,
    word_action,
)
from hkxor.pauli import PauliOp
from hkxor.sos import MomentOracle, lift_classical, positivity_check

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
    h = assemble(generate(GeneratorConfig(
        n=3, k=2, m=4, model="explicit", words=tuple(map(PauliOp.from_string, words)),
        coeffs=coeffs))).toarray()
    ref = 0.5 * np.eye(8) + sum(b * kron_word(w) for w, b in zip(words, coeffs)) / 8
    np.testing.assert_allclose(h, ref, atol=1e-14)
    h2 = assemble_pauli_sum(2, [(PauliOp.from_string("XZ"), 0.3),
                                (PauliOp.from_string("XZ"), -0.7),
                                (PauliOp.from_string("YI"), 0.25)])
    np.testing.assert_allclose(h2, -0.4 * kron_word("XZ") + 0.25 * kron_word("YI"),
                               atol=1e-14)


def test_apply_word_matches_dense():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = rng.integers(1, 6)
        letters = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        op = PauliOp.from_string(letters)
        psi = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        np.testing.assert_allclose(apply_word(op, psi), dense_word(op) @ psi, atol=1e-12)


def test_apply_word_and_the_quadratic_form_refuse_anything_but_a_state_vector():
    # a (4, 1) column came back (4, 4), a (4, 4) input had its columns scaled by the
    # wrong entries, and the quadratic form died inside numpy on a column state
    op = PauliOp.from_string("XZ")
    psi = np.arange(4, dtype=complex)
    for bad in (psi.reshape(-1, 1), np.outer(psi, psi), psi[:2], psi.reshape(1, -1)):
        with pytest.raises(ValueError, match=r"^state shape .* != \(4,\) of an n=2 word"):
            apply_word(op, bad)
    inst = generate(GeneratorConfig(n=4, k=2, m=6, model="random", seed=1))
    state = np.zeros((1 << inst.n, 1), dtype=complex)
    state[0] = 1.0
    with pytest.raises(ValueError, match=r"^state shape \(16, 1\) != \(16,\)"):
        quadratic_form_check(inst, state, build_even(inst, 1))


def zz_instance():
    word = PauliOp.from_sparse("Z1 Z2", 2)
    return generate(GeneratorConfig(n=2, k=2, m=1, model="explicit", words=(word,),
                                    coeffs=(1.0,)))


def test_assemble_examples():
    h1 = assemble(generate(GeneratorConfig(n=1, k=1, m=1, model="explicit",
                                           words=(PauliOp.from_sparse("Z1", 1),), coeffs=(1.0,))))
    np.testing.assert_allclose(h1.toarray(), np.diag([1.0, 0.0]), atol=1e-14)

    g = assemble(zz_instance())
    np.testing.assert_allclose(g.toarray(), np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-14)


def test_pauli_coefficient_round_trip():
    inst = generate(GeneratorConfig(n=4, k=2, m=5, model="random", seed=9))
    h = assemble(inst).toarray()
    for word, coeff in instance_rows(inst):
        got = pauli_coefficient(h, word)
        assert abs(got - coeff / (2 * inst.m)) < 1e-12


def test_lambda_max_examples():
    assert abs(lambda_max(assemble(zz_instance())) - 1.0) < 1e-12
    h = assemble_pauli_sum(1, [(PauliOp.identity(1), 0.5),
                              (PauliOp.single(1, 0, "X"), 0.25),
                              (PauliOp.single(1, 0, "Z"), 0.25)])
    assert abs(lambda_max(h) - (0.5 + math.sqrt(2) / 4)) < 1e-12


def test_lambda_max_rejects_non_hermitian():
    with pytest.raises(ValueError):
        lambda_max(assemble_pauli_sum(1, [(PauliOp.single(1, 0, "X"), 1j)]))


def test_assemble_equals_the_eye_formula_entry_for_entry():
    # the in-place diagonal shift rounds exactly as adding 0.5 * eye did
    for seed, model in enumerate(["rademacher-semirandom", "gaussian-semirandom", "random",
                                  "one-basis-z"]):
        inst = generate(GeneratorConfig(n=6, k=3, m=9, model=model, seed=seed))
        star = assemble_pauli_sum(inst.n, instance_rows(inst))
        formula = star / (2 * inst.m) + 0.5 * np.eye(1 << inst.n)
        assert (assemble(inst).toarray() == formula).all()


@pytest.mark.parametrize("scale", [1.01, 0.99])
def test_hermitian_threshold_is_relative_to_the_largest_entry(scale, monkeypatch):
    # every caller's matrix has largest entry 3, so the threshold is
    # 3 * HERMITIAN_TOL; an entry that is 0 in M and eps in its mirror
    # deviates by exactly eps
    h = assemble_pauli_sum(2, [(PauliOp.from_string("XI"), 3.0),
                               (PauliOp.from_string("ZZ"), 1.0)])
    inst = generate(GeneratorConfig(n=5, k=3, m=6, model="one-basis-z", seed=2))
    points = [(1, -1, 1, 1, -1), (-1, -1, 1, -1, 1), (1, 1, 1, -1, -1)]
    pe = lift_classical(inst, MomentOracle.from_distribution(5, points), 4)

    def positivity(m):
        monkeypatch.setattr(sos, "moment_matrix", lambda *_: m)
        return positivity_check(pe, 4)[0]

    cases = [(h, lambda_max, lambda_max_reference),
             (h.real, lambda m: spectral_norm(m)[0],
              lambda m: np.abs(np.linalg.eigvalsh(m)).max()),
             # the moments of a distribution's lift scaled to total mass 3
             (3 * sos.moment_matrix(pe, 4), positivity, lambda m: np.linalg.eigvalsh(m)[0])]
    for matrix, run, reference in cases:
        m = matrix.copy()
        m[tuple(np.argwhere(m == 0)[0])] += scale * 3 * HERMITIAN_TOL  # off the diagonal
        if scale > 1:
            with pytest.raises(ValueError, match="not Hermitian"):
                run(m)
        else:
            assert abs(run(m) - reference(m)) < 1e-12


# a gaussian n=7 instance whose top eigenvalue is over 1e-4 above the next
GAPPED = GeneratorConfig(n=7, k=3, m=20, model="gaussian-semirandom", seed=4)


def gapped_instance():
    """The GAPPED Hamiltonian (the CSR of ``assemble``), its top eigenvalue and the next
    one."""
    h = assemble(generate(GAPPED))
    vals = np.linalg.eigvalsh(h.toarray())
    assert vals[-1] - vals[-2] > 1e-4
    return h, float(vals[-1]), float(vals[-2])


def no_dense(_matrix):
    raise AssertionError("the dense eigvalsh ran")


def test_lanczos_value_is_proved_without_the_dense_fallback(monkeypatch):
    h, top, _ = gapped_instance()
    monkeypatch.setattr(oracle, "_dense_lambda_max", no_dense)
    lam = lambda_max(h)
    assert abs(lam - top) < 1e-12
    bound = rump_bound(h, lam + 1e-11)
    assert bound is not None and top < bound < top + 1e-10
    # the start vector is seeded, so the same matrix gives the same float
    assert lambda_max(h) == lam


def test_proof_refuses_a_shift_below_lambda_max():
    h, top, _ = gapped_instance()
    assert rump_bound(h, top - 1e-6) is None


def test_a_ritz_value_below_the_top_falls_back_to_eigvalsh(monkeypatch):
    h, top, second = gapped_instance()
    monkeypatch.setattr(oracle, "ritz_pair", lambda *args: (second, 0.0))
    assert rump_bound(h, second + 1e-10) is None
    assert lambda_max(h) == lambda_max_reference(h.toarray())


def test_lambda_max_repr_golden(monkeypatch):
    # the verify workload's rademacher instance and a gaussian one, both on the
    # Ritz path; the reprs pin every bit of the ARPACK run
    words = tuple(w for w, _ in instance_rows(generate(GeneratorConfig(n=10, k=3, m=200,
                                                                       seed=0))))
    rademacher = generate(GeneratorConfig(n=10, k=3, m=200, model="rademacher-semirandom",
                                          seed=0, words=words))
    gaussian = generate(GeneratorConfig(n=9, k=3, m=40, model="gaussian-semirandom", seed=0))
    monkeypatch.setattr(oracle, "_dense_lambda_max", no_dense)
    assert repr(lambda_max(assemble(rademacher))) == "0.5753201572846055"
    assert repr(lambda_max(assemble(gaussian))) == "0.6457668173943302"


def fail_arpack(*args, **kwargs):
    raise spla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))


def test_arpack_failure_falls_back_to_eigvalsh(monkeypatch):
    h, _, _ = gapped_instance()
    monkeypatch.setattr(oracle.spla, "eigsh", fail_arpack)
    assert lambda_max(h) == lambda_max_reference(h.toarray())


def test_a_dense_matrix_falls_back_to_eigvalsh_like_the_csr(monkeypatch):
    # a Ritz value below the top, then an ARPACK failure, on the dense H
    csr, _, second = gapped_instance()
    h = csr.toarray()
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "ritz_pair", lambda *args: (second, 0.0))
        assert lambda_max(h) == lambda_max_reference(h)
    monkeypatch.setattr(oracle.spla, "eigsh", fail_arpack)
    assert lambda_max(h) == lambda_max_reference(h)


def test_lambda_max_repr_golden_from_a_dense_matrix(monkeypatch):
    # the reprs of test_lambda_max_repr_golden, from the dense H instead of the CSR
    gaussian = generate(GeneratorConfig(n=9, k=3, m=40, model="gaussian-semirandom", seed=0))
    monkeypatch.setattr(oracle, "_dense_lambda_max", no_dense)
    assert repr(lambda_max(assemble(verify_rademacher()).toarray())) == "0.5753201572846055"
    assert repr(lambda_max(assemble(gaussian).toarray())) == "0.6457668173943302"


def test_rump_bound_reads_a_sparse_matrix_of_any_dtype_and_order():
    # a Fortran-ordered dense -I once had its shift added to a throwaway copy of the
    # diagonal, so -I itself was factored and -5 "proved" above lambda_max = -1
    minus_eye = -np.eye(3)
    with pytest.raises(TypeError, match="sparse"):
        rump_bound(np.asfortranarray(minus_eye), -5.0)
    for matrix in (minus_eye, np.asfortranarray(minus_eye), minus_eye.astype(int)):
        assert rump_bound(sp.csr_matrix(matrix), -5.0) is None
        bound = rump_bound(sp.csr_matrix(matrix), -0.5)
        assert bound is not None and -0.5 < bound < -0.5 + 1e-12


def test_diagonal_matrices_return_their_largest_entry(monkeypatch):
    monkeypatch.setattr(oracle, "_dense_lambda_max", no_dense)
    assert lambda_max(0.5 * np.eye(8, dtype=complex)) == 0.5
    assert lambda_max(np.zeros((128, 128), dtype=complex)) == 0.0
    inst = generate(GeneratorConfig(n=9, k=3, m=12, model="one-basis-z", seed=1))
    h = assemble(inst)
    assert lambda_max(h) == h.diagonal().real.max()
    best, _ = classical_max(inst)
    assert abs(lambda_max(h) - best) < 1e-12


def hermitian_matrix(dim, seed):
    """A seeded complex Hermitian dim x dim matrix: (A + A^H) / 2 is Hermitian bit for bit."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


@pytest.mark.parametrize("dim", [48, 100])
def test_lambda_max_proves_square_matrices_of_any_dimension(dim, monkeypatch):
    # neither dimension is a power of two; they fall on either side of DENSE_DIM, and
    # above it the dense eigvalsh may not answer, so the Lanczos run and the Rump proof do
    assert (dim > oracle.DENSE_DIM) == (dim == 100)
    m = hermitian_matrix(dim, seed=dim)
    if dim > oracle.DENSE_DIM:
        monkeypatch.setattr(oracle, "_dense_lambda_max", no_dense)
    assert abs(lambda_max(m) - lambda_max_reference(m)) <= 1e-10


@pytest.mark.parametrize("shape", [(4,), (2, 3), (0, 0)])
def test_lambda_max_refuses_anything_but_a_square_matrix(shape):
    with pytest.raises(ValueError, match=r"^need a square matrix with at least one row"):
        lambda_max(np.zeros(shape, dtype=complex))


def path_graph(dim):
    """The adjacency matrix of the dim-vertex path, lambda_max = 2 cos(pi / (dim + 1))."""
    return np.eye(dim, k=1, dtype=int) + np.eye(dim, k=-1, dtype=int)


@pytest.mark.parametrize("dim", [33, 65])
def test_lambda_max_runs_in_double_precision(dim, monkeypatch):
    # a float32 path graph's Ritz step once ran in float32 and came out 8.5e-7 low;
    # at dimension <= DENSE_DIM the dense eigvalsh answers, in float64 too
    p = path_graph(dim)
    top = 2 * math.cos(math.pi / (dim + 1))
    if dim > oracle.DENSE_DIM:
        monkeypatch.setattr(oracle, "_dense_lambda_max", no_dense)
    for dtype in (np.float32, np.complex64, np.int8, np.int64, float, complex):
        for matrix in (p.astype(dtype), sp.csr_matrix(p.astype(dtype))):
            assert abs(lambda_max(matrix) - top) <= 1e-12, dtype


def test_lambda_max_runs_on_a_complex128_csr_itself(monkeypatch):
    h = sp.csr_matrix(path_graph(65).astype(complex))
    seen = []
    real_product = oracle._csr_product
    monkeypatch.setattr(oracle, "_csr_product", lambda mat, x: (seen.append(mat),
                                                                real_product(mat, x))[1])
    lambda_max(h)
    assert seen and all(np.shares_memory(mat.data, h.data) for mat in seen)


def test_ritz_pair_on_a_matrix_free_operator_matches_its_csr():
    # the operator is the argument: a closure over a dense array gives what the
    # CSR of that array gives
    m = hermitian_matrix(100, seed=41)
    assert m.shape[0] > oracle.DENSE_DIM
    csr = sp.csr_matrix(m)
    v0 = np.random.Generator(np.random.Philox(key=0)).standard_normal(100)
    free = spla.LinearOperator(m.shape, matvec=lambda x: m @ x, dtype=m.dtype)
    stored = spla.LinearOperator(m.shape, matvec=lambda x: oracle._csr_product(csr, x),
                                 dtype=csr.dtype)
    theta, residual = oracle.ritz_pair(free, v0, 0)
    expected = oracle.ritz_pair(stored, v0, 0)
    assert abs(theta - expected[0]) <= 1e-12 and abs(residual - expected[1]) <= 1e-12
    assert abs(theta - lambda_max_reference(m)) <= 1e-10


@st.composite
def sparse_matrices(draw):
    """A sparse matrix of dimension 1-130 with repeated entries (COO) or summed ones
    (CSR), and real, complex or integer values; rounded values give exact zeros, -0.0
    and cancelling duplicates."""
    dim = draw(st.integers(1, 130))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nnz = draw(st.integers(0, 3 * dim))
    rows, cols = rng.integers(0, dim, (2, nnz))
    values = rng.standard_normal((2, nnz)).round(draw(st.integers(0, 3)))
    dtype = draw(st.sampled_from((float, complex, np.int64)))
    data = (values[0] + 1j * values[1] if dtype is complex else values[0]).astype(dtype)
    coo = sp.coo_matrix((data, (rows, cols)), shape=(dim, dim))
    return coo.asformat(draw(st.sampled_from(("coo", "csr"))))


@settings(max_examples=150)
@given(sparse_matrices(), st.floats(-4.0, 4.0))
def test_rump_bound_factors_the_packed_lower_triangle(matrix, shift):
    # the factored array is LAPACK's RFP form (transr="N", uplo="L") of the dense
    # fl(shift I - H), entries 0 - H_ij and diagonal (0 - H_ii) + shift, byte for byte
    calls = []

    def spy(n, a, **kwargs):
        calls.append((n, a.copy(), kwargs))
        return zpftrf(n, a, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "zpftrf", spy)
        rump_bound(matrix, shift)
    dim = matrix.shape[0]
    dense = 0.0 - matrix.toarray().astype(complex)
    dense.reshape(-1)[:: dim + 1] += shift
    expected, info = ztrttf(dense, transr="N", uplo="L")
    assert info == 0
    [(n, packed, kwargs)] = calls
    assert (n, kwargs) == (dim, {"transr": "N", "uplo": "L", "overwrite_a": 1})
    assert packed.dtype == expected.dtype and packed.tobytes() == expected.tobytes()


def test_rump_bound_sums_duplicate_entries():
    # [[0.5 + 0.5, 1], [1, 0]] has lambda_max (1 + sqrt 5) / 2 = 1.618; a fill that
    # kept one duplicate would factor [[0.5, 1], [1, 0]] (lambda_max 1.281) and prove 1.5
    coo = sp.coo_matrix(([0.5, 1.0, 1.0, 0.5], ([0, 0, 1, 0], [0, 1, 0, 0])), shape=(2, 2))
    csr = sp.csr_matrix(([0.5, 1.0, 0.5, 1.0], [0, 1, 0, 0], [0, 3, 4]), shape=(2, 2))
    assert not csr.has_canonical_format
    summed = sp.csr_matrix(coo.toarray())
    assert np.array_equal(summed.toarray(), [[1.0, 1.0], [1.0, 0.0]])
    for matrix in (coo, csr, summed):
        assert rump_bound(matrix, 1.5) is None
        bound = rump_bound(matrix, 2.2)
        assert bound is not None and 2.2 < bound < 2.2 + 1e-12


@pytest.mark.parametrize("dim", [64, 65, 100, 101])
def test_rump_bound_and_lambda_max_at_odd_and_even_dimensions(dim, monkeypatch):
    # the packed triangle's two halves differ in size at odd dimensions
    rng = np.random.default_rng(dim)
    keep = np.triu(rng.random((dim, dim)) < 0.2)
    h = sp.csr_matrix(hermitian_matrix(dim, seed=dim) * (keep | keep.T))
    top = lambda_max_reference(h.toarray())
    assert rump_bound(h, top - 1e-6) is None
    bound = rump_bound(h, top + 1e-9)
    assert bound is not None and top < bound < top + 1e-8
    if dim > oracle.DENSE_DIM:
        monkeypatch.setattr(oracle, "_dense_lambda_max", no_dense)
    assert abs(lambda_max(h) - top) <= 1e-12


def test_rump_bound_holds_one_packed_triangle():
    # verify's n=10 operator: a square complex operand alone would take 16 MiB
    h = assemble(verify_rademacher())
    tracemalloc.start()
    try:
        bound = rump_bound(h, 0.5753201572846055 + 1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bound is not None
    assert peak < 0.75 * 16 * 2**20


@st.composite
def pauli_sums(draw):
    """(n, terms) on 7-9 qubits: words from a small pool, so repeated, with +-1 or
    Gaussian coefficients; idle qubits make every eigenvalue degenerate."""
    n = draw(st.integers(7, 9))
    active = n - draw(st.integers(0, 2))
    word = st.text("IXYZ", min_size=active, max_size=active).map(
        lambda s: PauliOp.from_string(s + "I" * (n - active)))
    pool = draw(st.lists(word, min_size=1, max_size=5))
    words = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        coeffs = rng.standard_normal(len(words)).tolist()
    else:
        coeffs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=len(words),
                               max_size=len(words)))
    return n, list(zip(words, coeffs))


@settings(max_examples=40)
@given(pauli_sums())
def test_lambda_max_matches_dense_eigvalsh(case):
    n, terms = case
    h = assemble_pauli_sum(n, terms)
    assert abs(lambda_max(h) - lambda_max_reference(h)) <= 1e-12


def test_value_floor_on_generated_instances():
    # lambda_max(H) >= 1/2 for every instance
    for seed in range(12):
        model = ["rademacher-semirandom", "gaussian-semirandom", "random", "one-basis-z"][seed % 4]
        inst = generate(GeneratorConfig(n=5, k=3, m=8, model=model, seed=seed))
        assert lambda_max(assemble(inst)) >= 0.5 - 1e-12


def test_one_basis_matches_classical_brute_force():
    for seed in range(6):
        inst = generate(GeneratorConfig(n=6, k=3, m=10, model="one-basis-z", seed=seed))
        best, _ = classical_max(inst)
        assert abs(lambda_max(assemble(inst)) - best) < 1e-10


def test_classical_three_cycle():
    inst = z_instance(3, [(0, 1), (1, 2), (0, 2)], [1.0, -1.0, 1.0])
    assert abs(classical_value(inst, (1, 1, 1)) - 2 / 3) < 1e-15
    best, x = classical_max(inst)
    assert abs(best - 2 / 3) < 1e-15
    assert x == (1, 1, 1)  # lexicographically-first maximizer


def test_classical_all_ones():
    inst = z_instance(4, [(0, 1, 2), (1, 2, 3)], [1.0, 1.0])
    assert classical_value(inst, (1,) * 4) == 1.0
    best, x = classical_max(inst)
    assert best == 1.0 and x == (1, 1, 1, 1)


def test_classical_parity_symmetry_even_k():
    rng = np.random.default_rng(11)
    hyper = [tuple(sorted(rng.choice(5, 2, replace=False).tolist())) for _ in range(6)]
    inst = z_instance(5, hyper, tuple(rng.standard_normal(6)))
    x = tuple(int(v) for v in rng.choice([-1, 1], 5))
    neg = tuple(-v for v in x)
    assert abs(classical_value(inst, x) - classical_value(inst, neg)) < 1e-15


def test_classical_value_refuses_an_assignment_of_another_length():
    inst = z_instance(3, [(0, 2)], [1.0])
    for x in ((1, 1), (1, 1, 1, 1)):
        with pytest.raises(ValueError, match=rf"^assignment of {len(x)} entries != n=3$"):
            classical_value(inst, x)


def test_classical_brute_force_of_an_empty_instance_is_one_half():
    inst = Instance(2, 1, np.zeros((0, 1), dtype=np.int64), np.zeros((0, 1), dtype=np.int64), [],
                    "one-basis-z")
    assert classical_value(inst, (1, -1)) == 0.5
    assert classical_max(inst) == (0.5, (1, 1))


def test_quadratic_form_check_refuses_large_n_and_non_unit_states():
    # both guards run before the graph is read
    big = generate(GeneratorConfig(n=9, k=2, m=1, seed=0))
    with pytest.raises(ResourceGuardError, match="^quadratic form check needs n <= 8$"):
        quadratic_form_check(big, np.zeros(1 << 9, dtype=complex), None)
    inst = generate(GeneratorConfig(n=3, k=2, m=1, seed=0))
    for scale in (2.0, 0.0):
        state = np.zeros(8, dtype=complex)
        state[3] = scale
        with pytest.raises(ValueError, match=rf"^state is not a unit vector \(norm {scale}\)$"):
            quadratic_form_check(inst, state, None)


def test_resource_guards():
    with pytest.raises(ResourceGuardError):
        dense_word(PauliOp.identity(13))
    with pytest.raises(ResourceGuardError):
        classical_max(z_instance(25, [(0, 1)], [1.0]))


# -- grouped assembly against the per-term reference ------------------------------

RANDOM_MODELS = ("rademacher-semirandom", "gaussian-semirandom", "random", "one-basis-z")


@st.composite
def instances(draw):
    """Generated instances on 1-10 qubits in all four models, m = 0 and all-zero
    coefficients included."""
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, min(3, n)))
    model = draw(st.sampled_from(RANDOM_MODELS))
    m = draw(st.integers(0, 60))
    if not m:
        empty = np.zeros((0, k), dtype=np.int64)
        return Instance(n, k, empty, empty, np.zeros(0), model)
    inst = generate(GeneratorConfig(n=n, k=k, m=m, model=model, seed=draw(st.integers(0, 99))))
    if draw(st.integers(0, 4)) == 0:
        return Instance(n, k, inst.sites, inst.letters, np.zeros(m), model)
    return inst


@settings(max_examples=60)
@given(instances())
def test_grouped_assembly_is_the_per_term_sum_byte_for_byte(inst):
    assert assemble(inst).toarray().tobytes() == assemble_reference(inst).tobytes()
    star = assemble_pauli_sum_reference(inst.n, instance_rows(inst))
    assert assemble_pauli_sum(inst.n, instance_rows(inst)).tobytes() == star.tobytes()


GROUP_CSR_CASES = {
    "verify-rademacher": verify_rademacher,
    "gaussian": lambda: generate(GeneratorConfig(n=9, k=3, m=40, model="gaussian-semirandom",
                                                 seed=0)),
    "one-basis": lambda: generate(GeneratorConfig(n=8, k=3, m=12, model="one-basis-z", seed=1)),
    # every word has an X or a Y, so there is no x-mask-0 group
    "no-z-only-word": lambda: explicit_instance(4, 2, ["X1 Z2", "Y2 Y3", "Z3 X4", "X1 Y4"],
                                                (0.5, -1.0, 2.0, 1.5)),
    # X1 X2 + Y1 Y2 sums to 0 at |00> and |11>
    "xx-plus-yy": lambda: explicit_instance(2, 2, ["X1 X2", "Y1 Y2"]),
}


@pytest.mark.parametrize("case", GROUP_CSR_CASES)
def test_group_csr_is_the_csr_of_the_dense_matrix_array_for_array(case):
    inst = GROUP_CSR_CASES[case]()
    got, want = assemble(inst), sp.csr_matrix(assemble_reference(inst))
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.data.all()  # no stored zero


@st.composite
def shared_x_sums(draw):
    """(n, terms) on 1-10 qubits: words from a pool of at most four x-masks, so words
    repeat and share x-masks, with +-1, Gaussian, complex or zero coefficients."""
    n = draw(st.integers(1, 10))
    xs = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4))
    masks = st.tuples(st.sampled_from(xs), st.integers(0, (1 << n) - 1))
    pool = draw(st.lists(masks, min_size=1, max_size=8))
    words = [PauliOp(n, x, z) for x, z in draw(st.lists(st.sampled_from(pool), max_size=40))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = len(words)
    coeffs = draw(st.sampled_from((
        rng.choice([-1.0, 1.0], size), rng.standard_normal(size),
        rng.standard_normal(size) + 1j * rng.standard_normal(size), np.zeros(size))))
    return n, list(zip(words, coeffs.tolist()))


@settings(max_examples=80)
@given(shared_x_sums())
def test_grouped_pauli_sum_is_the_per_term_sum_byte_for_byte(case):
    n, terms = case
    got = assemble_pauli_sum(n, terms)
    assert got.tobytes() == assemble_pauli_sum_reference(n, terms).tobytes()
    for op, _ in terms:
        assert dense_word(op).tobytes() == assemble_pauli_sum_reference(n, [(op, 1.0)]).tobytes()


def test_dense_sums_and_coefficients_refuse_another_qubit_count():
    # a Z or an X on qubit 2 of a one-qubit sum was dropped or raised IndexError
    for op in (PauliOp(2, 0, 2), PauliOp(2, 2, 0)):
        with pytest.raises(ValueError, match=r"^every term of a dense sum must act on n=1 "):
            assemble_pauli_sum(1, [(op, 1.0)])
    # the zero-qubit identity read 0.075 off a two-qubit sum; a one-qubit word raised IndexError
    h = assemble_pauli_sum(2, [(PauliOp.from_string("XZ"), 0.3)])
    for word in (PauliOp.identity(0), PauliOp.from_string("X")):
        with pytest.raises(ValueError, match=r"^matrix shape \(4, 4\) != "):
            pauli_coefficient(h, word)
    assert abs(pauli_coefficient(h, PauliOp.from_string("XZ")) - 0.3) < 1e-15


def test_grouped_assembly_guards_thirteen_qubits():
    inst = generate(GeneratorConfig(n=13, k=3, m=4, seed=0))
    for build in (lambda: assemble(inst),
                  lambda: assemble_pauli_sum(inst.n, instance_rows(inst)),
                  lambda: assemble_pauli_sum(13, [(PauliOp.identity(13), 1.0)])):
        with pytest.raises(ResourceGuardError, match="n <= 12, got 13"):
            build()


# -- Hermitian check --------------------------------------------------------------


@st.composite
def raw_csr(draw):
    """A square CSR matrix built from its raw arrays: entries in drawn order inside each
    row (so unsorted unless sorted on purpose), some duplicated, the pattern mirrored or
    not, the mirror's values equal or off by a small or large amount, real or complex."""
    dim = draw(st.integers(1, 7))
    dtype = draw(st.sampled_from((float, complex)))
    value = st.sampled_from((1.0, -1.0, 0.5, 2.0))
    if dtype is complex:
        value = st.builds(complex, value, value)
    entry = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1), value)
    entries = draw(st.lists(entry, max_size=20))
    if draw(st.booleans()):
        entries += [(j, i, v.conjugate() + draw(st.sampled_from((0.0, 1e-13, 1e-11, 1e-3))))
                    for i, j, v in entries]
    if draw(st.booleans()):
        entries.sort(key=lambda e: e[:2])
    entries.sort(key=lambda e: e[0])  # stable: each row keeps its order
    indptr = np.searchsorted([i for i, _, _ in entries], np.arange(dim + 1))
    return sp.csr_matrix((np.array([v for _, _, v in entries], dtype=dtype),
                          np.array([j for _, j, _ in entries], dtype=np.int32),
                          indptr.astype(np.int32)), shape=(dim, dim))


@settings(max_examples=300)
@given(raw_csr())
def test_hermitian_deviation_matches_the_difference_formula(m):
    arrays = [a.copy() for a in (m.data, m.indices, m.indptr)]
    dev = hermitian_deviation_reference(m.copy())
    refused = dev > HERMITIAN_TOL and dev > HERMITIAN_TOL * abs(m.copy()).max()
    assert hermitian_deviation(m) == dev
    try:
        check_hermitian(m)
    except ValueError:
        assert refused
    else:
        assert not refused
    for before, after in zip(arrays, (m.data, m.indices, m.indptr)):
        assert before.dtype == after.dtype and before.tobytes() == after.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_entries_are_refused(bad, monkeypatch):
    pair = np.array([[0.0, bad], [bad, 0.0]])
    for matrix in (pair, sp.csr_matrix(pair)):
        with pytest.raises(ValueError, match="non-finite entry"):
            spectral_norm(matrix)
    # one pair of mirrored entries in an operator past the dense cut-off
    h = assemble_pauli_sum(7, [(PauliOp.from_string("XZIIIII"), 0.25)])
    h[3, 5] = h[5, 3] = bad
    for matrix in (h, np.diag([1.0, 0.0]) + pair):
        with pytest.raises(ValueError, match="non-finite entry"):
            lambda_max(matrix.astype(complex))
    inst = generate(GeneratorConfig(n=5, k=3, m=6, model="one-basis-z", seed=2))
    pe = lift_classical(inst, MomentOracle.from_distribution(5, [(1, -1, 1, 1, -1)]), 4)
    moments = sos.moment_matrix(pe, 4)
    moments[0, 1] = moments[1, 0] = bad
    monkeypatch.setattr(sos, "moment_matrix", lambda *_: moments)
    with pytest.raises(ValueError, match="non-finite entry"):
        positivity_check(pe, 4)


# -- the oracle reads the instance columns only -----------------------------------


def test_oracle_and_certify_never_read_the_row_view(tmp_path, capsys, monkeypatch):
    odd = generate(GeneratorConfig(n=7, k=3, m=12, model="gaussian-semirandom", seed=3))
    even = generate(GeneratorConfig(n=6, k=2, m=10, model="random", seed=5))
    path = tmp_path / "inst"
    path.write_text(serialize(odd))
    expected = lambda_max(assemble(odd))
    rng = np.random.default_rng(0)
    psi = rng.standard_normal(1 << even.n) + 1j * rng.standard_normal(1 << even.n)
    psi /= np.linalg.norm(psi)
    graph = build_even(even, 1)
    qform = quadratic_form_check(even, psi, graph)

    def no_rows(_inst):
        raise AssertionError("Instance.constraints was read")

    monkeypatch.setattr(Instance, "constraints", property(no_rows))
    certify(odd, 2, eps=0.8)
    certify(even, 1, eps=0.8)
    assert lambda_max(assemble(odd)) == expected
    assert quadratic_form_check(even, psi, graph) == qform <= 1e-9
    assert main(["oracle", "--in", str(path)]) == 0
    assert f"lambda_max={expected!r}" in capsys.readouterr().out.splitlines()
