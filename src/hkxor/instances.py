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
seed (the ``rng=philox`` token in file headers names it).  Supports, letters
and signs are read straight off its raw 64-bit outputs with the rules numpy's
``Generator`` applies to them (see :class:`_Philox32`), so their bytes depend
only on the Philox stream, which numpy keeps fixed (NEP 19); Gaussian
coefficients still come from ``Generator.standard_normal``.

Sites are 0-indexed in the Python API; the text format is 1-indexed.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass

import numpy as np

from .pauli import PauliOp

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


_U32 = 0xFFFFFFFF
# raw 64-bit outputs fetched per refill of the 32-bit buffer
_RAW_BLOCK = 4096


class _Philox32:
    """The 32-bit draws ``Generator(Philox(key=seed))`` makes, read off the raw stream.

    numpy's Generator splits each 64-bit Philox output into its low 32 bits
    and then its high 32 bits, and draws a bounded integer by Lemire's method
    (Lemire, ACM TOMACS 2019).  The methods below replay those rules draw for
    draw, so each takes exactly the words the numpy call it names would take.
    """

    def __init__(self, seed: int):
        self._bits = np.random.Philox(key=seed)
        self._fetched = 0  # 32-bit words read off the bit generator
        self._words: list[int] = []  # unread words, the next one last

    @property
    def used(self) -> int:
        """32-bit words consumed so far."""
        return self._fetched - len(self._words)

    def _fill(self, raw_count: int) -> None:
        raw = self._bits.random_raw(raw_count)
        words = np.empty(2 * raw_count, dtype=np.uint64)
        words[0::2] = raw & _U32
        words[1::2] = raw >> 32
        self._words[:0] = words[::-1].tolist()
        self._fetched += 2 * raw_count

    def below(self, r: int) -> int:
        """Uniform in [0, r]: ``integers(0, r + 1)``; r = 0 takes no draw."""
        if r == 0:
            return 0
        r1 = r + 1
        words = self._words
        while True:
            if not words:
                self._fill(_RAW_BLOCK)
            m = words.pop() * r1
            if m & _U32 >= (_U32 - r) % r1:
                return m >> 32

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` words, as uint64."""
        if count > len(self._words):
            self._fill((count - len(self._words) + 1) // 2)
        split = len(self._words) - count
        out = self._words[split:]
        del self._words[split:]
        return np.array(out[::-1], dtype=np.uint64)

    def subset_mask(self, n: int, k: int) -> int:
        """Site mask of ``choice(n, size=k, replace=False)``, taking its draws."""
        below = self.below
        mask = 0
        if n > 10000 and k > n // 50:
            # numpy shuffles the tail of arange(n); the support is its last k slots
            moved: dict[int, int] = {}
            for i in range(n - 1, max(n - k, 1) - 1, -1):
                j = below(i)
                moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
            for i in range(n - k, n):
                mask |= 1 << moved.get(i, i)
            return mask
        # Floyd's algorithm, then a shuffle of the k picks whose order sorting discards
        for j in range(n - k, n):
            bit = 1 << below(j)
            mask |= 1 << j if mask & bit else bit
        for i in range(k - 1, 0, -1):
            below(i)
        return mask

    def word(self, n: int, mask: int) -> PauliOp:
        """One uniform letter per site of ``mask``, in ascending site order."""
        below = self.below
        xm = zm = 0
        rest = mask
        while rest:
            low = rest & -rest
            code = below(2)  # 0, 1, 2 -> X, Y, Z
            if code != 2:
                xm |= low
            if code != 0:
                zm |= low
            rest ^= low
        return PauliOp(n, xm, zm)


def _edge_mask(edge, n: int, k: int) -> int:
    """Site mask of an explicit hyperedge; ValueError unless k distinct sites in [0, n)."""
    mask = 0
    for site in edge:
        site = operator.index(site)
        if not 0 <= site < n:
            raise ValueError(f"site {site} out of range for n={n}")
        if mask >> site & 1:
            raise ValueError(f"duplicate site {site}")
        mask |= 1 << site
    if len(edge) != k:
        raise ValueError(f"hyperedge {tuple(edge)} has {len(edge)} sites, expected k={k}")
    return mask


def generate(cfg: GeneratorConfig) -> Instance:
    """Draw an instance; deterministic given the config (Philox keyed by seed).

    Draw order: per constraint, first the support (a uniform k-subset) and
    then one uniform letter per site; after all words, the coefficient block.
    Explicitly supplied structure skips its draws, so a fixed hypergraph with
    varying seeds varies only letters/coefficients.
    """
    stream = _Philox32(cfg.seed)

    if cfg.words is not None:
        if len(cfg.words) != cfg.m:
            raise ValueError("explicit words must have length m")
        words = list(cfg.words)
    else:
        edges = None
        if cfg.hypergraph is not None:
            if len(cfg.hypergraph) != cfg.m:
                raise ValueError("explicit hypergraph must have m edges")
            edges = [_edge_mask(e, cfg.n, cfg.k) for e in cfg.hypergraph]
        words = []
        for i in range(cfg.m):
            mask = stream.subset_mask(cfg.n, cfg.k) if edges is None else edges[i]
            if cfg.model == "one-basis-z":
                words.append(PauliOp(cfg.n, 0, mask))
            else:
                words.append(stream.word(cfg.n, mask))

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
        # standard_normal reads whole 64-bit outputs, from the first one the
        # 32-bit draws above left untouched
        bits = np.random.Philox(key=cfg.seed)
        bits.random_raw(-(-stream.used // 2), output=False)
        coeffs = np.random.Generator(bits).standard_normal(cfg.m).tolist()
    else:
        # integers(0, 2) never rejects: its threshold is 2**32 mod 2 = 0
        coeffs = ((stream.take(cfg.m) >> 31) * 2.0 - 1.0).tolist()

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
