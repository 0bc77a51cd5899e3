"""Instances shared by the test modules."""

from hkxor.instances import GeneratorConfig, generate
from hkxor.pauli import PauliOp


def explicit_instance(n, k, words_sparse, coeffs=None):
    """The explicit instance of the given sparse words, every coefficient 1.0 unless given."""
    words = tuple(PauliOp.from_sparse(w, n) for w in words_sparse)
    return generate(GeneratorConfig(n=n, k=k, m=len(words), model="explicit", words=words,
                                    coeffs=coeffs or (1.0,) * len(words)))


def single_zz():
    """Z1 Z2 with coefficient 1.0 on two qubits."""
    return explicit_instance(2, 2, ["Z1 Z2"])
