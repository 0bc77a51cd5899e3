"""Hamiltonian k-XOR instances: representation, generation, serialization.

An instance is a multiset of constraints (C, P_C, b_C): a k-site support C,
a Pauli word P_C supported exactly on C, and a real coefficient b_C.  It
defines the Hamiltonian  Id/2 + (1/2|H|) * sum_C b_C P_C.

Generation models (coefficient law / structure law):

* ``rademacher-semirandom``  coefficients i.i.d. uniform +-1; hypergraph and
  Pauli letters arbitrary (explicit in the config, or sampled uniformly once).
* ``gaussian-semirandom``    coefficients i.i.d. standard normal.
* ``random``                 hypergraph of m uniform k-subsets (sampled with
  replacement as a multiset) with uniform non-identity letters; +-1 signs.
* ``one-basis-z``            every word is Z-type; +-1 signs.
* ``explicit``               nothing sampled; words and coefficients given.

Randomness comes from a counter-based Philox generator keyed by the 64-bit
seed (the ``rng=philox`` token in file headers names it), so a fixed seed
reproduces the instance byte-for-byte under a fixed library version.

Sites are 0-indexed in the Python API; the text format is 1-indexed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .pauli import _LETTERS, PauliOp

MODELS = ("rademacher-semirandom", "gaussian-semirandom", "random", "one-basis-z", "explicit")

_FORMAT_MAGIC = "HKXOR"
_FORMAT_VERSION = "v1"


class ParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class Constraint:
    """One signed local term: sorted 0-indexed support, word on it, coefficient."""

    support: tuple[int, ...]
    pauli: PauliOp
    coeff: float

    def __post_init__(self) -> None:
        if self.pauli.support() != self.support:
            raise ValueError(f"word support {self.pauli.support()} != {self.support}")


@dataclass(frozen=True)
class Instance:
    n: int
    k: int
    constraints: tuple[Constraint, ...]
    model: str
    seed: int = 0

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        for c in self.constraints:
            if c.pauli.n != self.n:
                raise ValueError("constraint qubit count differs from instance")
            if len(c.support) != self.k:
                raise ValueError(f"constraint arity {len(c.support)} != k={self.k}")
        if self.model == "one-basis-z":
            for c in self.constraints:
                if c.pauli.xmask != 0:
                    raise ValueError("one-basis-z instance contains a non-Z word")

    @property
    def m(self) -> int:
        return len(self.constraints)

    def is_one_basis(self) -> bool:
        """True iff every site of every word carries the same single letter type."""
        types = set()
        for c in self.constraints:
            for i in c.support:
                types.add(c.pauli.letter_at(i))
        return len(types) <= 1

    def hypergraph(self) -> tuple[tuple[int, ...], ...]:
        return tuple(c.support for c in self.constraints)

    def coeffs(self) -> tuple[float, ...]:
        return tuple(c.coeff for c in self.constraints)


@dataclass(frozen=True)
class GeneratorConfig:
    n: int
    k: int
    m: int
    model: str = "rademacher-semirandom"
    seed: int = 0
    hypergraph: tuple[tuple[int, ...], ...] | None = None
    words: tuple[PauliOp, ...] | None = None
    coeffs: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


def generate(cfg: GeneratorConfig) -> Instance:
    """Draw an instance; deterministic given the config (Philox keyed by seed).

    Draw order: per constraint, first the support (a uniform k-subset) and
    then one uniform letter per site; after all words, the coefficient block.
    Explicitly supplied structure skips its draws, so a fixed hypergraph with
    varying seeds varies only letters/coefficients.
    """
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))

    words: list[PauliOp] = []
    if cfg.words is not None:
        if len(cfg.words) != cfg.m:
            raise ValueError("explicit words must have length m")
        words = list(cfg.words)
    else:
        supports: list[tuple[int, ...]] = []
        if cfg.hypergraph is not None:
            if len(cfg.hypergraph) != cfg.m:
                raise ValueError("explicit hypergraph must have m edges")
            supports = [tuple(sorted(e)) for e in cfg.hypergraph]
        for i in range(cfg.m):
            if cfg.hypergraph is None:
                sup = tuple(sorted(int(s) for s in rng.choice(cfg.n, size=cfg.k, replace=False)))
            else:
                sup = supports[i]
            if cfg.model == "one-basis-z":
                word = PauliOp.from_letters(cfg.n, sup, "Z" * cfg.k)
            else:
                # k scalar draws take the same values from the stream as one
                # size=k draw, and cost less than that one call for small k
                letters = "".join(_LETTERS[rng.integers(0, 3)] for _ in range(cfg.k))
                word = PauliOp.from_letters(cfg.n, sup, letters)
            words.append(word)

    for w in words:
        if w.weight() != cfg.k:
            raise ValueError(f"word {w} has weight {w.weight()}, expected k={cfg.k}")

    if cfg.coeffs is not None:
        coeffs = [float(b) for b in cfg.coeffs]
        if len(coeffs) != cfg.m:
            raise ValueError("explicit coefficients must have length m")
    elif cfg.model == "explicit":
        raise ValueError("explicit model requires explicit coefficients")
    elif cfg.model == "gaussian-semirandom":
        coeffs = [float(b) for b in rng.standard_normal(cfg.m)]
    else:
        coeffs = [float(2 * b - 1) for b in rng.integers(0, 2, size=cfg.m)]

    constraints = tuple(
        Constraint(w.support(), w, b) for w, b in zip(words, coeffs)
    )
    return Instance(cfg.n, cfg.k, constraints, cfg.model, cfg.seed)


def check_eps(eps: float) -> None:
    """Raise ValueError unless 0 < eps <= 1, the range every eps-dependent bound needs."""
    if not 0 < eps <= 1:
        raise ValueError(f"need 0 < eps <= 1, got {eps}")


def threshold_size(n: float, k: int, ell: int, eps: float) -> int:
    """ceil(n * (n/ell)^(k/2-1) * ln(n) / eps^4), the refutation density."""
    check_eps(eps)
    if not k / 2 <= ell <= n / 2:
        raise ValueError(f"need k/2 <= ell <= n/2, got k={k}, ell={ell}, n={n}")
    return math.ceil(n * (n / ell) ** (k / 2 - 1) * math.log(n) / eps**4)


# -- text format --------------------------------------------------------------


def serialize(inst: Instance) -> str:
    """One header line, then one constraint per line: sparse word + coefficient."""
    lines = [
        f"{_FORMAT_MAGIC} {_FORMAT_VERSION} n={inst.n} k={inst.k} m={inst.m} "
        f"model={inst.model} seed={inst.seed} rng=philox"
    ]
    for c in inst.constraints:
        lines.append(f"{c.pauli.to_sparse()} {c.coeff!r}")
    return "\n".join(lines) + "\n"


def read_header(line: str, magic: str, version: str, keys: tuple[str, ...]) -> list[str]:
    """Values of ``keys`` in a ``<magic> <version> key=value ...`` header (line 1).

    Raises ParseError for another magic or version, a token without ``=``, a
    repeated key or a missing one; keys not asked for are allowed.
    """
    head = line.split()
    if len(head) < 2 or head[0] != magic:
        raise ParseError(1, f"expected {magic} header")
    if head[1] != version:
        raise ParseError(1, f"unsupported format version {head[1]!r}")
    fields: dict[str, str] = {}
    for tok in head[2:]:
        key, sep, val = tok.partition("=")
        if not sep:
            raise ParseError(1, f"header token {tok!r} is not key=value")
        if key in fields:
            raise ParseError(1, f"duplicate header field {key!r}")
        fields[key] = val
    for key in keys:
        if key not in fields:
            raise ParseError(1, f"missing header field {key!r}")
    return [fields[key] for key in keys]


def parse(text: str) -> Instance:
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, "empty document")
    n, k, m, model, seed = read_header(lines[0], _FORMAT_MAGIC, _FORMAT_VERSION,
                                       ("n", "k", "m", "model", "seed"))
    try:
        n, k, m, seed = int(n), int(k), int(m), int(seed)
    except ValueError:
        raise ParseError(1, "header fields n, k, m and seed must be integers") from None

    constraints = []
    body = [(i + 2, ln) for i, ln in enumerate(lines[1:]) if ln.strip()]
    if len(body) != m:
        raise ParseError(len(lines) + 1 if len(body) < m else body[m][0],
                         f"expected {m} constraint lines, found {len(body)}")
    for lineno, ln in body:
        toks = ln.split()
        if len(toks) < 2:
            raise ParseError(lineno, "expected a sparse word and a coefficient")
        try:
            coeff = float(toks[-1])
        except ValueError:
            raise ParseError(lineno, f"bad coefficient {toks[-1]!r}") from None
        try:
            word = PauliOp.from_sparse(" ".join(toks[:-1]), n)
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
        if word.weight() != k:
            raise ParseError(lineno, f"word weight {word.weight()} != k={k}")
        constraints.append(Constraint(word.support(), word, coeff))
    try:
        return Instance(n, k, tuple(constraints), model, seed)
    except ValueError as exc:
        raise ParseError(1, str(exc)) from None


def digest(inst: Instance) -> str:
    """SHA-256 of the serialized instance; identifies it in reports."""
    return hashlib.sha256(serialize(inst).encode("utf-8")).hexdigest()
