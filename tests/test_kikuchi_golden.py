"""Golden KIKUCHI v1 dumps: sha256 of even, odd, pruned and level-n graph dumps.

The constants were recorded from the list-based edge representation that
preceded the typed COO store, so they pin the store to byte-identical dumps
and, for pruned graphs, to the same deleted edges and the same gamma.  The
two odd graphs at scale were recorded from the per-candidate builder that
preceded the batch one (``type_edges``), and the k=4 even graphs from the
builder that ranked every endpoint from scratch.  The graphs past 64 qubits
(even) and 64 sites (odd) were recorded from the builders that enumerated
each constraint's shared words and each type's free slots themselves.
"""

import hashlib
from itertools import product

import pytest

from hkxor.instances import GeneratorConfig, generate
from hkxor.kikuchi_even import build_even, build_level_n, dump_graph
from hkxor.kikuchi_odd import (BipartiteDecomposition, Bucket, build_odd, edge_delete,
                               regularity_decompose)
from hkxor.oracle import assemble, pauli_coefficient
from hkxor.pauli import PauliOp

from helpers import explicit_instance, instance_rows


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def pruned_dump(graph, eta):
    pruned, gamma = edge_delete(graph, eta)
    return dump_graph(pruned) + f"gamma={gamma!r}\n"


def test_pruned_dump_at_eta_1():
    # the instance of test_edge_delete_prunes_and_equalizes
    inst = explicit_instance(4, 3, ["X1 X2 Y3", "X1 Y2 Y3", "X1 Z2 Y4", "X1 X2 Z4"])
    g = build_odd(regularity_decompose(inst, ell=2, eps=1.0), inst, t=1, ell=2)
    assert sha(pruned_dump(g, 1)) == (
        "db185448e3e7d93568b8fcb57e4eec846f4fe256dbe3cf1d18ee5fb98c3951ce")


def test_pruned_dumps_at_eta_2_on_criterion_11_instances():
    text = ""
    for seed in range(30):
        inst = generate(GeneratorConfig(n=6, k=3, m=12, model="random", seed=2000 + seed))
        g = build_odd(regularity_decompose(inst, 2, 1.0), inst, 1, 2)
        text += pruned_dump(g, 2)
    assert sha(text) == "c04fa2c1c494f299982ee5da28aeff1232fb3d1ad40aeb2203be16933858fdda"


def test_even_dump():
    inst = generate(GeneratorConfig(n=6, k=2, m=8, model="gaussian-semirandom", seed=5))
    assert sha(dump_graph(build_even(inst, 2))) == (
        "1a3a205d44524baf96d2f54bf2200b894373d7a274daaca24a8854645b11bbda")


@pytest.mark.parametrize("model,seed,ell,edges,digest", [
    ("rademacher-semirandom", 11, 2, 60,
     "7ac094102b5c9da07f9832e6520e9938f80dca0d18862ab94594ad6a153bac8a"),
    ("rademacher-semirandom", 11, 3, 720,
     "7096b629665f0bc7edaf676bd3a5ebc33bfaa12e6a2d7d71d9606aa9218a1163"),
    ("gaussian-semirandom", 12, 2, 60,
     "5b6a8438a733e396428be08c8d67b23571db4b4adc9bc2015c0073e9212b8bae"),
    ("gaussian-semirandom", 12, 3, 720,
     "4f7a63780d2d76ec147d0cd6fd611eebb2807f79a6152ccf2ed13f0bde5017cf"),
])
def test_even_dump_k4(model, seed, ell, edges, digest):
    # ell = k/2 shares no site off supp(P); ell = k/2 + 1 shares one
    inst = generate(GeneratorConfig(n=8, k=4, m=10, model=model, seed=seed))
    g = build_even(inst, ell)
    assert g.num_edges == edges
    assert sha(dump_graph(g)) == digest


def test_odd_dump():
    inst = generate(GeneratorConfig(n=4, k=3, m=6, model="gaussian-semirandom", seed=7))
    g = build_odd(regularity_decompose(inst, 2, 1.0), inst, 1, 2)
    assert sha(dump_graph(g)) == (
        "41078219596e544390600be487d8e72e6574fa20ef4552960c0e8539c6e9c469")


def test_level_n_dumps():
    terms = [(PauliOp.from_sparse("Z1 Z2", 2), 0.75), (PauliOp.from_sparse("X1", 2), -1.5),
             (PauliOp.from_sparse("Y2", 2), 0.1)]
    assert sha(dump_graph(build_level_n(terms, n=2))) == (
        "6cfdb910183d8f351876974844405219c6887b45de88d46afdd95cee4662a790")
    # every word's coefficient in the assembled Hamiltonian, in FullGroupIndex rank order
    dense = assemble(generate(GeneratorConfig(n=2, k=2, m=3, model="gaussian-semirandom",
                                              seed=3))).toarray()
    words = [PauliOp(2, x, z) for x, z in product(range(4), repeat=2)]
    coeffs = [pauli_coefficient(dense, p) for p in words]
    assert max(abs(c.imag) for c in coeffs) <= 1e-12
    terms = [(p, c.real) for p, c in zip(words, coeffs)]
    assert sha(dump_graph(build_level_n(terms, 2))) == (
        "b64367e65127d58e673ccbe552de0fece2612f4fb243984fd876ac6aa9a54293")


def test_partial_pruning_dumps_at_level_3():
    # gamma strictly between 0 and 1, so the dumps pin which edges each phase deletes
    text = ""
    for n, m, seed, eta in ((6, 16, 1, 1), (6, 16, 3, 2), (5, 14, 4, 2)):
        inst = generate(GeneratorConfig(n=n, k=3, m=m, model="random", seed=seed))
        g = build_odd(regularity_decompose(inst, 3, 1.0), inst, 1, 3)
        text += pruned_dump(g, eta)
    assert sha(text) == "54ea316017bef2e96ffb4756bd2d5b796df92616921e3b94f7d800ecd4b09f90"


def odd_dump(graph):
    return dump_graph(graph) + f"skipped={graph.skipped!r}\n"


def test_odd_dump_at_benchmark_scale():
    # n=12, k=3, m=60, ell=3, eps=0.8 with one word structure and seeded signs
    words = tuple(w for w, _ in instance_rows(generate(GeneratorConfig(n=12, k=3, m=60, seed=0))))
    inst = generate(GeneratorConfig(n=12, k=3, m=60, model="rademacher-semirandom", seed=1,
                                    words=words))
    dec = regularity_decompose(inst, 3, 0.8)
    assert dec.nonempty_levels() == [1]
    g = build_odd(dec, inst, 1, 3)
    assert (g.num_edges, len(g.pairs)) == (37120, 190)
    assert sha(odd_dump(g)) == "dee3c8831f8ccb5fa50a0f9c4a40ca88e3f05977dff80622c738746d59b45e95"


def test_odd_dumps_with_odd_residual_weight():
    # k=5 and t=2: weight-3 residuals, so both (1, 2) and (2, 1) splits place edges
    n = 7
    words = ["X1 Y2 Y3 Y4 Y5", "X1 Y2 Z3 Z4 Z5", "X1 Y2 X3 Y4 Z6", "X1 Y2 Z5 X6 Y7",
             "X1 Y2 Y3 Y4 Y5", "Z3 Z4 X5 Z6 Z7", "Y3 X4 X5 Y6 Z7", "Z3 Y4 X5 Y6 Z7"]
    coeffs = [1.0, -1.0, 0.5, -2.0, 1.5, -1.0, 1.0, 0.25]
    ops = [PauliOp.from_sparse(w, n) for w in words]
    inst = generate(GeneratorConfig(n=n, k=5, m=len(ops), model="explicit", words=tuple(ops),
                                    coeffs=coeffs))
    dec = BipartiteDecomposition(n=n, k=5, buckets=(
        Bucket(t=2, center=PauliOp.from_sparse("X1 Y2", n), cids=(0, 1, 2, 3, 4)),
        Bucket(t=2, center=PauliOp.from_sparse("X5 Z7", n), cids=(5, 7)),
        Bucket(t=1, center=PauliOp.from_sparse("Y3", n), cids=(6,), residual=True)))
    text = "".join(odd_dump(build_odd(dec, inst, 2, ell)) for ell in (3, 4))
    assert sha(text) == "d5080d718b2809baa5010acf927b6f45be354aac75a3205dee0b3a81b8fe680c"


def wide_even_text(n, k, ell, m, model, seed):
    return dump_graph(build_even(generate(GeneratorConfig(n=n, k=k, m=m, model=model,
                                                          seed=seed)), ell))


def wide_odd_text(n, ell, m, model, seed):
    """Every built slice of an n-qubit k=3 instance, then its prunes at eta 1 and 2."""
    inst = generate(GeneratorConfig(n=n, k=3, m=m, model=model, seed=seed))
    dec = regularity_decompose(inst, ell, 0.5)
    text = ""
    for t in dec.nonempty_levels():
        if any(len(b.cids) >= 2 for b in dec.slice(t)):
            g = build_odd(dec, inst, t, ell)
            text += odd_dump(g) + pruned_dump(g, 1) + pruned_dump(g, 2)
    return text


@pytest.mark.parametrize("case,lines,digest", [
    # n > 64: the words' masks take the object-dtype path of masks_from_arrays
    ((65, 2, 1, 40, "rademacher-semirandom", 1), 81,
     "1ed34b9f3aea001247833f6ae2e927f599cd135fea9ee8112f4fc6916dfb6813"),
    ((66, 4, 3, 4, "gaussian-semirandom", 2), 4465,
     "29abe00d5492cc87b201b2e3bc8ada3ff9aa9841cba0bccba3c6d29abc4a363c"),
    ((70, 2, 2, 6, "rademacher-semirandom", 3), 2449,
     "70a8e5bbce94ae83e512caa2737e1336b14c3ddf6fd6d3e91d0d53ba363d5c58"),
    ((70, 4, 2, 10, "gaussian-semirandom", 4), 61,
     "40f1622d1c23913ef2277e6b6cf02ee950931662bcb2e59d04eb0e447a7cde2a"),
])
def test_even_dumps_past_64_qubits(case, lines, digest):
    text = wide_even_text(*case)
    assert (len(text.splitlines()), sha(text)) == (lines, digest)


@pytest.mark.parametrize("case,lines,digest", [
    # 2n > 64 sites: vertices are ranked past the uint64 mask width
    ((34, 3, 60, "rademacher-semirandom", 5), 119502,
     "f1f03003c9a5da4d4b71ede8491ff0ec679fd341db58bb8f462c7e61d1c7a73b"),
    ((40, 2, 80, "gaussian-semirandom", 6), 882,
     "3fc664fb86fd04ef985539a00635bba7b4780efa319a5da40cdc89a85901e872"),
])
def test_odd_dumps_past_64_sites(case, lines, digest):
    text = wide_odd_text(*case)
    assert (len(text.splitlines()), sha(text)) == (lines, digest)
