"""Instances and reference implementations shared by the test modules."""

import numpy as np

from hkxor.instances import GeneratorConfig, generate
from hkxor.pauli import PauliOp, enumerate_slice, mul_words


def explicit_instance(n, k, words_sparse, coeffs=None):
    """The explicit instance of the given sparse words, every coefficient 1.0 unless given."""
    words = tuple(PauliOp.from_sparse(w, n) for w in words_sparse)
    return generate(GeneratorConfig(n=n, k=k, m=len(words), model="explicit", words=words,
                                    coeffs=coeffs or (1.0,) * len(words)))


def single_zz():
    """Z1 Z2 with coefficient 1.0 on two qubits."""
    return explicit_instance(2, 2, ["Z1 Z2"])


def moment_matrix_reference(pe, d):
    """The degree-d moment matrix entry by entry: the word value of a^dag b times its phase."""
    words = [w for weight in range(min(d // 2, pe.n) + 1)
             for w in enumerate_slice(pe.n, weight)]
    mat = np.zeros((len(words), len(words)), dtype=complex)
    for i, a in enumerate(words):
        for j, b in enumerate(words):
            prod = mul_words(a, b)
            mat[i, j] = complex(pe.value(prod.op).times_i(prod.phase_exp))
    return mat


def degrees_reference(graph):
    """|w|/2 at both ends of every edge, summed over the interleaved (q, r), (r, q) entries."""
    ends = np.column_stack((graph.rows, graph.cols)).ravel()
    half = np.repeat(graph.weights[graph.tids] / 2.0, 2)
    return np.bincount(ends, weights=np.abs(half), minlength=graph.num_vertices)


def lambda_max_reference(matrix):
    """The top eigenvalue of a Hermitian matrix from a full dense ``eigvalsh``."""
    return float(np.linalg.eigvalsh(matrix)[-1])
