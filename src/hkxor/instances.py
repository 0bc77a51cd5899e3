"""Hamiltonian k-XOR instances: representation, generation, serialization.

An instance is a multiset of constraints (C, P_C, b_C): a k-site support C,
a Pauli word P_C supported exactly on C, and a real coefficient b_C.  Since
C is the support of P_C, a :class:`Constraint` stores only P_C and b_C and
reads C off the word.  An instance defines the Hamiltonian
Id/2 + (1/2|H|) * sum_C b_C P_C.

Generation models (coefficient law / structure law):

* ``rademacher-semirandom``  coefficients i.i.d. uniform +-1; hypergraph and
  Pauli letters arbitrary (explicit in the config, or sampled uniformly once).
* ``gaussian-semirandom``    coefficients i.i.d. standard normal.
* ``random``                 hypergraph of m uniform k-subsets (sampled with
  replacement as a multiset) with uniform non-identity letters; +-1 signs.
* ``one-basis-z``            every word is Z-type; +-1 signs.
* ``explicit``               coefficients given; words given, or drawn
  as for the other models.

Randomness comes from one ``numpy.random.Generator`` on a Philox bit
generator keyed by the 64-bit seed (the ``rng=philox`` token in file
headers names it).  Supports and letters are drawn as numpy's per-row
``choice(n, size=k, replace=False)`` and ``integers(0, 3)`` calls would
draw them, but a block of rows at a time: one ``integers`` call on a
broadcast array of upper bounds.  A row's columns are its support draws
(Floyd's steps and the shuffle whose order sorting discards, or the steps
of the tail shuffle numpy runs instead for large n) and its letter draws.
Signs are ``integers(0, 2)`` and Gaussian coefficients
``standard_normal``.  NEP 19 keeps bit-generator streams fixed but not
``Generator`` method streams, so the bytes rest on numpy's bounded-draw
rule (Lemire's method) and its Gaussian sampler; the byte goldens and the
numpy-call tests fail on any numpy whose calls differ.

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
    """One signed local term b_C P_C: a Pauli word and its coefficient.

    Its support C is the word's: :attr:`support` reads it off ``pauli``.
    """

    pauli: PauliOp
    coeff: float

    @property
    def support(self) -> tuple[int, ...]:
        """Ascending 0-indexed sites the word acts on."""
        return self.pauli.support()


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
            if c.pauli.weight() != self.k:
                raise ValueError(f"constraint arity {c.pauli.weight()} != k={self.k}")
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
        if self.words is not None and self.hypergraph is not None:
            raise ValueError("give explicit words or an explicit hypergraph, not both")


# most draws made as one block: bounds each block's temporaries
_BLOCK_WORDS = 1 << 16


def _tail_shuffle(n: int, k: int) -> bool:
    """True where ``choice(n, size=k, replace=False)`` shuffles a tail instead of Floyd."""
    return n > 10000 and k > n // 50


def _check_edge(edge, n: int, k: int) -> None:
    """ValueError unless an explicit hyperedge is k distinct sites in [0, n)."""
    seen = set()
    for site in edge:
        site = operator.index(site)
        if not 0 <= site < n:
            raise ValueError(f"site {site} out of range for n={n}")
        if site in seen:
            raise ValueError(f"duplicate site {site}")
        seen.add(site)
    if len(edge) != k:
        raise ValueError(f"hyperedge {tuple(edge)} has {len(edge)} sites, expected k={k}")


def _floyd_sites(n: int, k: int, draws: np.ndarray) -> np.ndarray:
    """Sorted supports of Floyd's algorithm, one row per row of its draws.

    ``draws`` holds the draws for j = n - k, ..., n - 1 with j > 0 (j = 0
    picks site 0 with no draw); step j keeps its draw unless an earlier step
    of the row picked it, and picks j then.
    """
    picks = np.zeros((len(draws), k), dtype=np.int64)
    col = 0
    for t, j in enumerate(range(n - k, n)):
        if j == 0:
            continue
        draw = draws[:, col]
        col += 1
        picks[:, t] = np.where((picks[:, :t] == draw[:, None]).any(axis=1), j, draw)
    picks.sort(axis=1)
    return picks


def _tail_sites(n: int, k: int, draws: np.ndarray) -> np.ndarray:
    """Sorted supports of numpy's tail shuffle, one row per row of its draws.

    ``draws`` starts with the draws for i = n - 1, ..., max(n - k, 1): step i
    swaps slots i and its draw of arange(n), and the support is the last k slots.
    """
    slots = np.tile(np.arange(n), (len(draws), 1))
    rows = np.arange(len(draws))
    for t, i in enumerate(range(n - 1, max(n - k, 1) - 1, -1)):
        j = draws[:, t]
        slots[:, i], slots[rows, j] = slots[rows, j], slots[:, i].copy()
    return np.sort(slots[:, n - k:], axis=1)


def _block_rows(n: int, sites: np.ndarray, codes: np.ndarray | None) -> list[PauliOp]:
    """Words of rows of sites and their letter codes (0, 1, 2 -> X, Y, Z), column by column.

    ``codes`` None means every letter is Z.  Masks are uint64 sums of distinct
    bits up to 64 qubits and Python ints beyond.
    """
    dtype = np.uint64 if n <= 64 else object
    bits = np.ones((), dtype=dtype) << sites.astype(dtype)
    if codes is None:
        xms = [0] * len(sites)
        zms = bits.sum(axis=1).tolist()
    else:
        xms = np.where(codes != 2, bits, 0).sum(axis=1).tolist()
        zms = np.where(codes != 0, bits, 0).sum(axis=1).tolist()
    return [PauliOp(n, x, z) for x, z in zip(xms, zms)]


def _draw_words(rng: np.random.Generator, cfg: GeneratorConfig) -> list[PauliOp]:
    """Words of the constraints, drawn as numpy's per-row choice/integers calls would draw them.

    Each row's draws are its support and then one letter per site in ascending
    site order (none for one-basis-z).  The support takes Floyd's k draws for
    j > 0 and then the k - 1 draws of the shuffle whose order sorting
    discards, or, on numpy's tail-shuffle branch, one draw per shuffled slot;
    an explicit hyperedge takes none.  A block of rows is one ``integers``
    call on a broadcast (rows, w) array of upper bounds: numpy draws it
    element by element, redrawing a rejected draw in place as the per-row
    calls do.
    """
    n, k, m = cfg.n, cfg.k, cfg.m
    fixed = None
    tail = False
    if cfg.hypergraph is not None:
        if len(cfg.hypergraph) != m:
            raise ValueError("explicit hypergraph must have m edges")
        for edge in cfg.hypergraph:
            _check_edge(edge, n, k)
        fixed = np.sort(np.array(cfg.hypergraph, dtype=np.int64).reshape(m, k), axis=1)
        bounds = []
    elif _tail_shuffle(n, k):
        tail = True
        bounds = list(range(n - 1, max(n - k, 1) - 1, -1))
    else:
        bounds = [j for j in range(n - k, n) if j] + list(range(k - 1, 0, -1))
    letters = cfg.model != "one-basis-z"
    highs = np.array(bounds + [2] * (k if letters else 0), dtype=np.int64) + 1
    width = len(highs)
    rows_per_block = max(_BLOCK_WORDS // max(width, 1), 1)
    words: list[PauliOp] = []
    while len(words) < m:
        i = len(words)
        draws = rng.integers(0, np.broadcast_to(highs, (min(m - i, rows_per_block), width)))
        if fixed is not None:
            sites = fixed[i:i + len(draws)]
        elif tail:
            sites = _tail_sites(n, k, draws)
        else:
            sites = _floyd_sites(n, k, draws)
        words += _block_rows(n, sites, draws[:, width - k:] if letters else None)
    return words


def generate(cfg: GeneratorConfig) -> Instance:
    """Draw an instance; deterministic given the config (Philox keyed by seed).

    One ``Generator(Philox(key=seed))`` makes every draw.  Draw order: per
    constraint, first the support (a uniform k-subset) and then one uniform
    letter per site; after all words, the coefficients (``integers(0, 2)``
    signs or ``standard_normal``).  Explicitly supplied structure skips its
    draws, so a fixed hypergraph with varying seeds varies only
    letters/coefficients.
    """
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))

    if cfg.words is not None:
        if len(cfg.words) != cfg.m:
            raise ValueError("explicit words must have length m")
        words = list(cfg.words)
    else:
        words = _draw_words(rng, cfg)

    if cfg.coeffs is not None:
        coeffs = [float(b) for b in cfg.coeffs]
        if len(coeffs) != cfg.m:
            raise ValueError("explicit coefficients must have length m")
        if not all(map(math.isfinite, coeffs)):
            raise ValueError("explicit coefficients must be finite")
    elif cfg.model == "explicit":
        raise ValueError("explicit model requires explicit coefficients")
    elif cfg.model == "gaussian-semirandom":
        coeffs = rng.standard_normal(cfg.m).tolist()
    else:
        coeffs = (rng.integers(0, 2, size=cfg.m) * 2.0 - 1.0).tolist()

    constraints = tuple(map(Constraint, words, coeffs))
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
        if not math.isfinite(coeff):
            raise ParseError(lineno, f"coefficient {toks[-1]!r} is not finite")
        try:
            word = PauliOp.from_sparse(" ".join(toks[:-1]), n)
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
        if word.weight() != k:
            raise ParseError(lineno, f"word weight {word.weight()} != k={k}")
        constraints.append(Constraint(word, coeff))
    try:
        return Instance(n, k, tuple(constraints), model, seed)
    except ValueError as exc:
        raise ParseError(1, str(exc)) from None


def digest(inst: Instance) -> str:
    """SHA-256 of the serialized instance; identifies it in reports."""
    return hashlib.sha256(serialize(inst).encode("utf-8")).hexdigest()
