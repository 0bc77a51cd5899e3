"""Exact algebra of n-qubit Pauli words.

A phase-free Pauli word is encoded by two n-bit integers ``(xmask, zmask)``:
site ``i`` carries the letter given by the bit pair ``(x_i, z_i)``::

    (0, 0) -> I      (1, 0) -> X      (1, 1) -> Y      (0, 1) -> Z

The word represented by the pair is the Hermitian operator

    W(x, z) = i^{|x & z|} * X^x * Z^z,

so every ``PauliOp`` squares to the identity with phase +1.  Products of two
words pick up a phase in {+1, +i, -1, -i}; :class:`PhasedPauli` carries that
phase explicitly as an exponent of i modulo 4.

Sites are 0-indexed internally.  All textual formats (dense ``"IXZY..."``
strings and sparse ``"X3 Z7"`` strings) use 1-indexed sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Iterator

import numpy as np

# letter codes used by the canonical ordering: X < Y < Z
_LETTERS = "XYZ"
_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
# letter of a site's bit pair, indexed by x | z << 1
_PAIR_LETTER = "IXZY"
# letter code (X, Y, Z -> 0, 1, 2) of a site's bit pair, indexed by x | z << 1
_PAIR_CODE = (-1, 0, 2, 1)
# its inverse: the bit pair x | z << 1 of letter code 0, 1, 2 (X, Y, Z)
_CODE_PAIR = (1, 3, 2)

PHASES = (1, 1j, -1, -1j)


@dataclass(frozen=True)
class PauliOp:
    """Phase-free n-qubit Pauli word in symplectic bit-pair encoding."""

    n: int
    xmask: int
    zmask: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"qubit count must be nonnegative, got {self.n}")
        if (self.xmask | self.zmask) >> self.n:
            raise ValueError("mask bits beyond qubit count must be zero")

    @staticmethod
    def identity(n: int) -> "PauliOp":
        return PauliOp(n, 0, 0)

    @staticmethod
    def single(n: int, site: int, letter: str) -> "PauliOp":
        """Single-letter word acting on a 0-indexed site."""
        if not 0 <= site < n:
            raise ValueError(f"site {site} out of range for n={n}")
        x, z = _letter_bits(letter)
        return PauliOp(n, x << site, z << site)

    @staticmethod
    def from_letters(n: int, sites: tuple[int, ...] | list[int], letters: str) -> "PauliOp":
        """Word with ``letters[j]`` on 0-indexed ``sites[j]``, identity elsewhere."""
        if len(sites) != len(letters):
            raise ValueError("sites and letters must have equal length")
        xm = zm = 0
        for site, letter in zip(sites, letters):
            if not 0 <= site < n:
                raise ValueError(f"site {site} out of range for n={n}")
            x, z = _letter_bits(letter)
            if x == 0 and z == 0:
                raise ValueError("identity letter not allowed in from_letters")
            if (xm | zm) >> site & 1:
                raise ValueError(f"duplicate site {site}")
            xm |= x << site
            zm |= z << site
        return PauliOp(n, xm, zm)

    @property
    def support_mask(self) -> int:
        return self.xmask | self.zmask

    def weight(self) -> int:
        return (self.xmask | self.zmask).bit_count()

    def support(self) -> tuple[int, ...]:
        """Ascending 0-indexed sites carrying a non-identity letter."""
        return _set_bits(self.support_mask)

    def is_identity(self) -> bool:
        return self.xmask == 0 and self.zmask == 0

    def letter_at(self, site: int) -> str:
        return _PAIR_LETTER[(self.xmask >> site & 1) | (self.zmask >> site & 1) << 1]

    def restrict(self, site_mask: int) -> "PauliOp":
        """Word equal to self on sites in ``site_mask``, identity elsewhere."""
        return PauliOp(self.n, self.xmask & site_mask, self.zmask & site_mask)

    # -- textual formats (1-indexed sites) ---------------------------------

    def to_string(self) -> str:
        """Dense length-n string over {I, X, Y, Z}; position j is site j+1."""
        return "".join(self.letter_at(i) for i in range(self.n))

    def to_sparse(self) -> str:
        """Sparse form like ``"X3 Z7"`` with ascending 1-indexed sites; identity is ``"I"``."""
        xm, zm = self.xmask, self.zmask
        parts = []
        rest = xm | zm
        while rest:
            low = rest & -rest  # the bit of 0-indexed site low.bit_length() - 1
            parts.append(_PAIR_LETTER[(xm & low != 0) | (zm & low != 0) << 1]
                         + str(low.bit_length()))
            rest ^= low
        return " ".join(parts) or "I"

    @staticmethod
    def from_string(s: str) -> "PauliOp":
        xm = zm = 0
        for i, ch in enumerate(s):
            x, z = _letter_bits(ch)
            xm |= x << i
            zm |= z << i
        return PauliOp(len(s), xm, zm)

    @staticmethod
    def from_sparse(s: str, n: int) -> "PauliOp":
        s = s.strip()
        if s == "I" or s == "":
            return PauliOp.identity(n)
        xm = zm = 0
        last_site = 0
        for tok in s.split():
            letter, site_str = tok[0].upper(), tok[1:]
            if letter not in "XYZ" or not site_str.isdigit():
                raise ValueError(f"bad sparse Pauli token {tok!r}")
            site = int(site_str)
            if not 1 <= site <= n:
                raise ValueError(f"site {site} out of range for n={n}")
            if site <= last_site:
                raise ValueError(f"sites must be ascending in {s!r}")
            last_site = site
            x, z = _LETTER_BITS[letter]
            xm |= x << (site - 1)
            zm |= z << (site - 1)
        return PauliOp(n, xm, zm)

    def __str__(self) -> str:
        return self.to_sparse()


def canonical_key(op: PauliOp) -> tuple:
    """Sort key: weight, then support lexicographic, then letters X<Y<Z (first site most significant)."""
    sup = op.support()
    xm, zm = op.xmask, op.zmask
    return (len(sup), sup, tuple(_PAIR_CODE[(xm >> i & 1) | (zm >> i & 1) << 1] for i in sup))


@dataclass(frozen=True)
class PhasedPauli:
    """Pauli word with an explicit global phase i^phase_exp, phase_exp in {0,1,2,3}."""

    op: PauliOp
    phase_exp: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    @property
    def phase(self) -> complex:
        return PHASES[self.phase_exp]


def _letter_bits(letter: str) -> tuple[int, int]:
    """The (x, z) bits of a letter I, X, Y or Z (either case); ValueError for any other."""
    try:
        return _LETTER_BITS[letter.upper()]
    except KeyError:
        raise ValueError(f"bad Pauli letter {letter!r}") from None


def _set_bits(mask: int) -> tuple[int, ...]:
    """Ascending positions of the set bits of a nonnegative int, one step per set bit."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return tuple(bits)


def site_mask(sites) -> int:
    """Bit mask with bit s set for every 0-indexed site s."""
    mask = 0
    for s in sites:
        mask |= 1 << s
    return mask


def _check_same_n(a: PauliOp, b: PauliOp) -> None:
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} != {b.n}")


def mul_words(p: PauliOp, q: PauliOp) -> PhasedPauli:
    """Exact product p*q of two phase-free words, phase included.

    With W(x,z) = i^{|x&z|} X^x Z^z the product phase exponent is
    |x1&z1| + |x2&z2| - |x3&z3| + 2*|z1&x2|  (mod 4), x3 = x1^x2, z3 = z1^z2.
    """
    _check_same_n(p, q)
    x3 = p.xmask ^ q.xmask
    z3 = p.zmask ^ q.zmask
    e = (
        (p.xmask & p.zmask).bit_count()
        + (q.xmask & q.zmask).bit_count()
        - (x3 & z3).bit_count()
        + 2 * (p.zmask & q.xmask).bit_count()
    )
    return PhasedPauli(PauliOp(p.n, x3, z3), e % 4)


def multiply(a: PhasedPauli, b: PhasedPauli) -> PhasedPauli:
    """Exact group product of two phased Pauli words."""
    w = mul_words(a.op, b.op)
    return PhasedPauli(w.op, w.phase_exp + a.phase_exp + b.phase_exp)


def commutes(a: PauliOp, b: PauliOp) -> bool:
    """True iff the symplectic form vanishes: an even number of sites anticommute."""
    _check_same_n(a, b)
    s = (a.xmask & b.zmask).bit_count() + (a.zmask & b.xmask).bit_count()
    return s % 2 == 0


# -- canonical enumeration of weight slices --------------------------------


def slice_size(n: int, ell: int) -> int:
    """Number of weight-ell words on n qubits: 3^ell * C(n, ell)."""
    return 3**ell * math.comb(n, ell)


@lru_cache(maxsize=None)
def _binomials(n: int, ell: int) -> tuple[tuple[int, ...], ...]:
    """C(x, y) for x <= n, y <= ell; zero where x - y > n - ell.

    Ranking a sorted weight-ell support only reads entries with
    x - y <= n - ell, each at most C(n, ell), so the zeros are never read.
    """
    return tuple(tuple(math.comb(x, y) if x - y <= n - ell else 0 for y in range(ell + 1))
                 for x in range(n + 1))


@lru_cache(maxsize=None)
def _binomial_array(n: int, ell: int) -> np.ndarray:
    table = np.array(_binomials(n, ell), dtype=np.int64)
    table.setflags(write=False)
    return table


def _comb_unrank(rank: int, n: int, k: int) -> tuple[int, ...]:
    sites = []
    v = 0
    for j in range(k):
        while True:
            block = math.comb(n - 1 - v, k - 1 - j)
            if rank < block:
                break
            rank -= block
            v += 1
        sites.append(v)
        v += 1
    return tuple(sites)


class SliceIndex:
    """Bijection between weight-ell words on n qubits and [0, 3^ell * C(n, ell)).

    Ordering: supports ascending lexicographic (as sorted site tuples); within
    a support, letters ordered X < Y < Z with the lowest site most significant.
    For sorted sites c_0 < ... < c_(ell-1) with c_(-1) = -1, the hockey-stick
    identity gives the support rank in closed form,

        sum_j C(n - 1 - c_(j-1), ell - j) - C(n - c_j, ell - j),

    which both ``rank`` (one word) and ``rank_batch`` (arrays) evaluate.
    ``rank`` keeps every rank it computes, keyed by the word's masks, so a
    builder that meets the same vertex many times ranks it once; the memo
    holds at most ``size`` entries.
    """

    def __init__(self, n: int, ell: int):
        if not 0 <= ell <= n:
            raise ValueError(f"need 0 <= ell <= n, got ell={ell}, n={n}")
        self.n = n
        self.ell = ell
        self.size = slice_size(n, ell)
        self._comb = _binomials(n, ell)
        self._ranks: dict[tuple[int, int], int] = {}

    def rank(self, op: PauliOp) -> int:
        if op.n != self.n:
            raise ValueError(f"qubit counts differ: {op.n} != {self.n}")
        key = (op.xmask, op.zmask)
        found = self._ranks.get(key)
        if found is None:
            found = self._ranks[key] = self._rank(*key)
        return found

    def _rank(self, xmask: int, zmask: int) -> int:
        """Rank of the word (xmask, zmask) on self.n qubits, computed from its bits."""
        sup = _set_bits(xmask | zmask)
        if len(sup) != self.ell:
            raise ValueError(f"word has weight {len(sup)}, slice expects {self.ell}")
        comb = self._comb
        sup_rank = code = 0
        prev = -1
        for j, s in enumerate(sup):
            y = self.ell - j
            sup_rank += comb[self.n - 1 - prev][y] - comb[self.n - s][y]
            prev = s
            code = 3 * code + _PAIR_CODE[(xmask >> s & 1) | (zmask >> s & 1) << 1]
        return sup_rank * 3**self.ell + code

    def rank_batch(self, sites: np.ndarray, letters: np.ndarray) -> np.ndarray:
        """int64 ranks of the words given row by row as (..., ell) site and letter arrays.

        ``sites`` are 0-indexed and distinct within a row, in any order;
        ``letters`` are the codes 0, 1, 2 for X, Y, Z.  Equal to ``rank``
        word by word, without building the words, so it also serves slices
        whose words do not fit an int64 mask.
        """
        if self.size >= 2**63:
            raise ValueError(f"slice size {self.size} does not fit int64 ranks")
        sites = np.asarray(sites, dtype=np.int64)
        letters = np.asarray(letters, dtype=np.int64)
        if sites.shape != letters.shape or sites.shape[-1:] != (self.ell,):
            raise ValueError(f"need matching (..., {self.ell}) site and letter arrays")
        order = np.argsort(sites, axis=-1)
        sites = np.take_along_axis(sites, order, axis=-1)
        letters = np.take_along_axis(letters, order, axis=-1)
        if sites.size and (sites[..., 0].min() < 0 or sites[..., -1].max() >= self.n
                           or (np.diff(sites, axis=-1) <= 0).any()
                           or letters.min() < 0 or letters.max() > 2):
            raise ValueError("sites must be distinct in [0, n) and letters in {0, 1, 2}")
        comb = _binomial_array(self.n, self.ell)
        y = self.ell - np.arange(self.ell)
        prev = np.concatenate((np.full(sites.shape[:-1] + (1,), -1, dtype=np.int64),
                               sites[..., :-1]), axis=-1)
        sup_rank = (comb[self.n - 1 - prev, y] - comb[self.n - sites, y]).sum(axis=-1)
        return sup_rank * 3**self.ell + (letters * 3 ** (y - 1)).sum(axis=-1)

    def unrank(self, index: int) -> PauliOp:
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} out of range [0, {self.size})")
        sup_rank, code = divmod(index, 3**self.ell)
        sites = _comb_unrank(sup_rank, self.n, self.ell)
        letters = []
        for _ in range(self.ell):
            code, d = divmod(code, 3)
            letters.append(_LETTERS[d])
        letters.reverse()
        return PauliOp.from_letters(self.n, sites, "".join(letters))


def enumerate_slice(n: int, ell: int) -> Iterator[PauliOp]:
    """Yield all 3^ell * C(n, ell) weight-ell words in canonical SliceIndex order."""
    if not 0 <= ell <= n:
        raise ValueError(f"need 0 <= ell <= n, got ell={ell}, n={n}")
    for sites in combinations(range(n), ell):
        for letters in product(_LETTERS, repeat=ell):
            yield PauliOp.from_letters(n, sites, "".join(letters))
