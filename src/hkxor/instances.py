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
coefficients still come from ``Generator.standard_normal``.  The supports
and letters of all m constraints are drawn as one (m, w) block of 32-bit
words: a row's w columns are Floyd's draws, the discarded shuffle draws and
the letter draws, Lemire's rule is applied to the whole block, and the rare
row holding a rejected draw is redrawn word by word (as is every row where
numpy shuffles a tail instead of running Floyd).

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
# most 32-bit words drawn as one block: bounds each block's temporaries
_BLOCK_WORDS = 1 << 16


class _Philox32:
    """The 32-bit draws ``Generator(Philox(key=seed))`` makes, read off the raw stream.

    numpy's Generator splits each 64-bit Philox output into its low 32 bits
    and then its high 32 bits, and draws a bounded integer by Lemire's method
    (Lemire, ACM TOMACS 2019): ``integers(0, r + 1)`` multiplies a word u by
    r + 1, returns the high half of the product and rejects u (drawing again)
    when the low half is below 2**32 mod (r + 1).  The methods below replay
    those rules draw for draw, so each takes exactly the words the numpy call
    it names would take.  :meth:`bounded_block` applies the rule to a whole
    block of rows at once and hands back the words from the first row holding
    a rejected draw, which the scalar :meth:`below` then redraws.
    """

    def __init__(self, seed: int):
        self._bits = np.random.Philox(key=seed)
        self._fetched = 0  # 32-bit words read off the bit generator
        self._words: list[int] = []  # unread words, the next one last

    @property
    def used(self) -> int:
        """32-bit words consumed so far."""
        return self._fetched - len(self._words)

    def _raw_words(self, raw_count: int) -> np.ndarray:
        """The next ``2 * raw_count`` words off the bit generator, as uint64."""
        raw = self._bits.random_raw(raw_count)
        words = np.empty(2 * raw_count, dtype=np.uint64)
        words[0::2] = raw & _U32
        words[1::2] = raw >> 32
        self._fetched += 2 * raw_count
        return words

    def below(self, r: int) -> int:
        """Uniform in [0, r]: ``integers(0, r + 1)``; r = 0 takes no draw."""
        if r == 0:
            return 0
        r1 = r + 1
        words = self._words
        while True:
            if not words:
                words[:] = self._raw_words(_RAW_BLOCK)[::-1].tolist()
            m = words.pop() * r1
            if m & _U32 >= (_U32 - r) % r1:
                return m >> 32

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` words, as uint64."""
        words = self._words
        head = words[max(len(words) - count, 0):]
        del words[len(words) - len(head):]
        out = np.array(head[::-1], dtype=np.uint64)
        if len(out) < count:
            more = self._raw_words((count - len(out) + 1) // 2)
            words.extend(more[count - len(out):].tolist())  # at most one word
            out = np.concatenate((out, more[:count - len(out)]))
        return out

    def bounded_block(self, rows: int, bounds: np.ndarray) -> np.ndarray:
        """``below(r)`` for each r of ``bounds`` (all positive), row after row.

        Returns the (rows', len(bounds)) values of the rows before the first
        one that holds a rejected draw (all ``rows`` if none does); the words
        of that row and the rows after it go back unread.
        """
        words = self.take(rows * len(bounds)).reshape(rows, len(bounds))
        r1 = bounds.astype(np.uint64) + 1
        product = words * r1
        bad = ((product & _U32) < 2**32 % r1).any(axis=1)
        if bad.any():
            keep = int(bad.argmax())
            self._words.extend(words[keep:].ravel()[::-1].tolist())
            product = product[:keep]
        return (product >> 32).astype(np.int64)

    def subset_mask(self, n: int, k: int) -> int:
        """Site mask of ``choice(n, size=k, replace=False)``, taking its draws."""
        below = self.below
        mask = 0
        if _tail_shuffle(n, k):
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


def _tail_shuffle(n: int, k: int) -> bool:
    """True where ``choice(n, size=k, replace=False)`` shuffles a tail instead of Floyd."""
    return n > 10000 and k > n // 50


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


def _block_rows(n: int, sites: np.ndarray, codes: np.ndarray | None) -> tuple[list, list]:
    """Supports and words of rows of sorted sites and letter codes (0, 1, 2 -> X, Y, Z).

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
    return list(zip(*sites.T.tolist())), [PauliOp(n, x, z) for x, z in zip(xms, zms)]


def _draw_words(stream: _Philox32, cfg: GeneratorConfig) -> tuple[list, list]:
    """Sorted supports and words of the constraints, drawn as numpy's choice/integers would.

    Each row's draws are its support (Floyd's k draws for j > 0, then the k - 1
    draws of the shuffle whose order sorting discards; none for an explicit
    hyperedge) and then one letter per site (none for one-basis-z).  Rows are
    drawn as blocks; a row holding a rejected draw, and every row on numpy's
    tail-shuffle branch, is drawn word by word.
    """
    n, k, m = cfg.n, cfg.k, cfg.m
    letters = cfg.model != "one-basis-z"
    if cfg.hypergraph is not None:
        if len(cfg.hypergraph) != m:
            raise ValueError("explicit hypergraph must have m edges")
        edges = [_edge_mask(e, n, k) for e in cfg.hypergraph]
        fixed = np.sort(np.array(cfg.hypergraph, dtype=np.int64).reshape(m, k), axis=1)
        bounds = []
    else:
        edges = fixed = None
        bounds = [j for j in range(n - k, n) if j] + list(range(k - 1, 0, -1))
    width = len(bounds) + (k if letters else 0)
    bounds = np.array(bounds + [2] * (width - len(bounds)), dtype=np.int64)
    blocked = fixed is not None or not _tail_shuffle(n, k)
    rows_per_block = max(_BLOCK_WORDS // max(width, 1), 1)
    supports: list = []
    words: list = []
    while len(words) < m:
        i = len(words)
        if blocked:
            want = min(m - i, rows_per_block)
            draws = stream.bounded_block(want, bounds)
            sites = fixed[i:i + len(draws)] if fixed is not None else _floyd_sites(n, k, draws)
            block_supports, block_words = _block_rows(
                n, sites, draws[:, width - k:] if letters else None)
            supports += block_supports
            words += block_words
            if len(draws) == want:
                continue
        # the next row holds a rejected draw, or numpy shuffles the tail
        mask = edges[len(words)] if edges is not None else stream.subset_mask(n, k)
        word = stream.word(n, mask) if letters else PauliOp(n, 0, mask)
        supports.append(word.support())
        words.append(word)
    return supports, words


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
        supports = [w.support() for w in words]
    else:
        supports, words = _draw_words(stream, cfg)

    for w in words:
        if w.weight() != cfg.k:
            raise ValueError(f"word {w} has weight {w.weight()}, expected k={cfg.k}")

    if cfg.coeffs is not None:
        coeffs = [float(b) for b in cfg.coeffs]
        if len(coeffs) != cfg.m:
            raise ValueError("explicit coefficients must have length m")
        if not all(map(math.isfinite, coeffs)):
            raise ValueError("explicit coefficients must be finite")
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

    constraints = tuple(map(Constraint, supports, words, coeffs))
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
        constraints.append(Constraint(word.support(), word, coeff))
    try:
        return Instance(n, k, tuple(constraints), model, seed)
    except ValueError as exc:
        raise ParseError(1, str(exc)) from None


def digest(inst: Instance) -> str:
    """SHA-256 of the serialized instance; identifies it in reports."""
    return hashlib.sha256(serialize(inst).encode("utf-8")).hexdigest()
