"""Exact algebra of n-qubit Pauli words.

A phase-free Pauli word is encoded by two n-bit integers ``(xmask, zmask)``:
site ``i`` carries the letter given by the bit pair ``(x_i, z_i)``::

    (0, 0) -> I      (1, 0) -> X      (1, 1) -> Y      (0, 1) -> Z

The word represented by the pair is the Hermitian operator

    W(x, z) = i^{|x & z|} * X^x * Z^z,

so every ``PauliOp`` squares to the identity with phase +1.  Products of two
words pick up a phase in {+1, +i, -1, -i}; :class:`PhasedPauli` carries that
phase explicitly as an exponent of i modulo 4.

Both are immutable tuples of their fields, ``(n, xmask, zmask)`` and
``(op, phase_exp)``: building one is a single ``tuple.__new__`` after the
checks, and hashing and comparing run in C.  A word hashes and compares as
its field tuple, so ``PauliOp(2, 1, 0) == (2, 1, 0)`` and words order like
tuples under ``<``.

Sites are 0-indexed internally.  All textual formats (dense ``"IXZY..."``
strings and sparse ``"X3 Z7"`` strings) use 1-indexed sites.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import lru_cache
from itertools import combinations, product
from typing import Iterator

import numpy as np

# letter of each letter code (X, Y, Z -> 0, 1, 2), the canonical order X < Y < Z
LETTERS = "XYZ"
_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
# letter of a site's bit pair, indexed by x | z << 1
_PAIR_LETTER = "IXZY"
# letter code (X, Y, Z -> 0, 1, 2) of a site's bit pair, indexed by x | z << 1
_PAIR_CODE = (-1, 0, 2, 1)

PHASES = (1, 1j, -1, -1j)


_tuple_new = tuple.__new__


class PauliOp(namedtuple("PauliOp", "n xmask zmask")):
    """Phase-free n-qubit Pauli word in symplectic bit-pair encoding."""

    __slots__ = ()

    def __new__(cls, n: int, xmask: int, zmask: int) -> "PauliOp":
        if n < 0:
            raise ValueError(f"qubit count must be nonnegative, got {n}")
        if (xmask | zmask) >> n:
            raise ValueError("mask bits beyond qubit count must be zero")
        return _tuple_new(cls, (n, xmask, zmask))

    @classmethod
    def _make(cls, iterable) -> "PauliOp":
        # namedtuple's _make (and _replace, which calls it) would skip the checks
        return cls(*iterable)

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
        check_sites(sites, n)
        xm = zm = 0
        for site, letter in zip(sites, letters):
            x, z = _letter_bits(letter)
            if x == 0 and z == 0:
                raise ValueError("identity letter not allowed in from_letters")
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
        return word_columns(self.xmask, self.zmask)[0]

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
        sites, codes = word_columns(self.xmask, self.zmask)
        return " ".join(f"{LETTERS[c]}{s + 1}" for s, c in zip(sites, codes)) or "I"

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
            if letter not in "XYZ" or not (site_str.isascii() and site_str.isdigit()):
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
    sites, codes = word_columns(op.xmask, op.zmask)
    return (len(sites), sites, codes)


class PhasedPauli(namedtuple("PhasedPauli", "op phase_exp")):
    """Pauli word with an explicit global phase i^phase_exp, phase_exp in {0,1,2,3}."""

    __slots__ = ()

    def __new__(cls, op: PauliOp, phase_exp: int = 0) -> "PhasedPauli":
        try:
            phase_exp = operator.index(phase_exp)
        except TypeError:
            raise TypeError(f"phase exponent must be an integer, got {phase_exp!r}") from None
        return _tuple_new(cls, (op, phase_exp % 4))

    @classmethod
    def _make(cls, iterable) -> "PhasedPauli":
        return cls(*iterable)

    @property
    def phase(self) -> complex:
        return PHASES[self.phase_exp]


def _letter_bits(letter: str) -> tuple[int, int]:
    """The (x, z) bits of a letter I, X, Y or Z (either case); ValueError for any other."""
    try:
        return _LETTER_BITS[letter.upper()]
    except KeyError:
        raise ValueError(f"bad Pauli letter {letter!r}") from None


def word_columns(xmask: int, zmask: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The ascending 0-indexed sites of the word (xmask, zmask) and their letter codes
    (X, Y, Z -> 0, 1, 2): one row of :func:`masks_from_arrays`, read back."""
    sites, codes = [], []
    rest = xmask | zmask
    while rest:
        low = rest & -rest  # the bit of site low.bit_length() - 1
        sites.append(low.bit_length() - 1)
        codes.append(_PAIR_CODE[(xmask & low != 0) | (zmask & low != 0) << 1])
        rest ^= low
    return tuple(sites), tuple(codes)


def check_sites(sites, n: int) -> None:
    """ValueError unless the 0-indexed sites are distinct in [0, n); TypeError for a
    site that is not an integer."""
    seen = set()
    for site in sites:
        site = operator.index(site)
        if not 0 <= site < n:
            raise ValueError(f"site {site} out of range for n={n}")
        if site in seen:
            raise ValueError(f"duplicate site {site}")
        seen.add(site)


def site_mask(sites) -> int:
    """Bit mask with bit s set for every 0-indexed site s."""
    mask = 0
    for s in sites:
        mask |= 1 << s
    return mask


# -- words as (site, letter) arrays ----------------------------------------------


def mask_arrays(n: int, sites: np.ndarray, letters: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(xmasks, zmasks) of the words given along the last axis: letter code
    ``letters[..., j]`` (0, 1, 2 -> X, Y, Z) on site ``sites[..., j]``.

    The sites of a word must be distinct in [0, n); ``letters`` broadcasts
    against ``sites``.  Masks are uint64 sums of distinct bits up to 64
    qubits and Python ints in object arrays beyond.
    """
    dtype = np.uint64 if n <= 64 else object
    bits = np.ones((), dtype=dtype) << sites.astype(dtype)
    return (np.where(letters != 2, bits, 0).sum(axis=-1),
            np.where(letters != 0, bits, 0).sum(axis=-1))


def masks_from_arrays(n: int, sites: np.ndarray, letters: np.ndarray) -> tuple[list, list]:
    """The rows of :func:`mask_arrays` of (m, k) site and letter arrays, as two lists of
    Python ints."""
    xmasks, zmasks = mask_arrays(n, sites, letters)
    return xmasks.tolist(), zmasks.tolist()


def words_from_arrays(n: int, sites: np.ndarray, letters: np.ndarray) -> list[PauliOp]:
    """Words of the rows of :func:`masks_from_arrays`."""
    return [PauliOp(n, x, z) for x, z in zip(*masks_from_arrays(n, sites, letters))]


def words_to_arrays(words, n: int, weight: int) -> tuple[np.ndarray, np.ndarray]:
    """(len(words), weight) int64 ascending sites and int8 letter codes (X, Y, Z -> 0, 1, 2).

    The inverse of :func:`words_from_arrays`.  Raises ValueError unless every
    word acts on n qubits with the given weight.
    """
    if any(w.n != n for w in words):
        raise ValueError(f"every word must act on n={n} qubits")
    rows = [word_columns(w.xmask, w.zmask) for w in words]
    for sites, _ in rows:
        if len(sites) != weight:
            raise ValueError(f"word weight {len(sites)} != {weight}")
    return (np.array([sites for sites, _ in rows], dtype=np.int64).reshape(len(rows), weight),
            np.array([codes for _, codes in rows], dtype=np.int8).reshape(len(rows), weight))


def _check_same_n(a: PauliOp, b: PauliOp) -> None:
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} != {b.n}")


def mul_words(p: PauliOp, q: PauliOp) -> PhasedPauli:
    """Exact product p*q of two phase-free words, phase included.

    With W(x,z) = i^{|x&z|} X^x Z^z the product phase exponent is
    |x1&z1| + |x2&z2| - |x3&z3| + 2*|z1&x2|  (mod 4), x3 = x1^x2, z3 = z1^z2.

    The result is built without re-checking: the XOR of two in-range masks
    is in range, and ``e % 4`` is what PhasedPauli stores.  Each word is
    unpacked once, the cheapest read of a tuple's fields.
    """
    n, px, pz = p
    qn, qx, qz = q
    if n != qn:  # _check_same_n, inlined on this hot path
        raise ValueError(f"qubit counts differ: {n} != {qn}")
    x3, z3 = px ^ qx, pz ^ qz
    e = ((px & pz).bit_count() + (qx & qz).bit_count() - (x3 & z3).bit_count()
         + 2 * (pz & qx).bit_count())
    return _tuple_new(PhasedPauli, (_tuple_new(PauliOp, (n, x3, z3)), e % 4))


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
def _binomial_array(n: int, ell: int) -> np.ndarray:
    """Read-only C(x, y) for x <= n, y <= ell; zero where x - y > n - ell.

    Ranking a sorted weight-ell support only reads entries with
    x - y <= n - ell, each at most C(n, ell), so the zeros are never read.
    The table is int64 when C(n, ell) fits and holds Python ints otherwise.
    """
    table = np.array([[math.comb(x, y) if x - y <= n - ell else 0 for y in range(ell + 1)]
                      for x in range(n + 1)],
                     dtype=np.int64 if math.comb(n, ell) < 2**63 else object)
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
    For sorted sites c_0 < ... < c_(ell-1), the support rank is

        C(n, ell) - 1 - sum_j C(n - 1 - c_j, ell - j),

    as term j counts the supports after it that first differ at position j:
    their last ell - j sites all lie above c_j.  Both ``rank`` (one word) and
    ``rank_batch`` (arrays) evaluate it.  ``rank`` keeps every rank it
    computes, keyed by the word's masks, so a builder that meets the same
    vertex many times ranks it once; the memo holds at most ``size`` entries.
    """

    def __init__(self, n: int, ell: int):
        if not 0 <= ell <= n:
            raise ValueError(f"need 0 <= ell <= n, got ell={ell}, n={n}")
        self.n = n
        self.ell = ell
        self.size = slice_size(n, ell)
        self._comb = _binomial_array(n, ell).tolist()
        self._ranks: dict[tuple[int, int], int] = {}

    def rank(self, op: PauliOp) -> int:
        n, xmask, zmask = op
        if n != self.n:
            raise ValueError(f"qubit counts differ: {n} != {self.n}")
        try:
            return self._ranks[xmask, zmask]
        except KeyError:  # at most size misses per index; _rank checks the weight
            found = self._ranks[xmask, zmask] = self._rank(xmask, zmask)
            return found

    def _rank(self, xmask: int, zmask: int) -> int:
        """Rank of the word (xmask, zmask) on self.n qubits, computed from its bits."""
        sites, codes = word_columns(xmask, zmask)
        n, ell, comb = self.n, self.ell, self._comb
        if len(sites) != ell:
            raise ValueError(f"word has weight {len(sites)}, slice expects {ell}")
        sup_rank = comb[n][ell] - 1
        code = 0
        for j, (s, c) in enumerate(zip(sites, codes)):
            sup_rank -= comb[n - 1 - s][ell - j]
            code = 3 * code + c
        return sup_rank * 3**ell + code

    def rank_batch(self, sites: np.ndarray, letters: np.ndarray) -> np.ndarray:
        """Ranks of the words given row by row as (..., ell) site and letter arrays.

        ``sites`` are 0-indexed and distinct within a row, in any order;
        ``letters`` are the codes 0, 1, 2 for X, Y, Z; both must have an
        integer dtype.  Equal to ``rank`` word by word, without building the
        words, so it also serves slices whose words do not fit an int64
        mask.  The ranks are int64 when the slice has fewer than 2^63 words
        and Python ints in an object array otherwise.  The work goes column
        by column: a site's position j in its sorted row is the number of
        smaller sites in the row, a sum of ell - 1 column comparisons, so no
        row is sorted; the positions sum to ell (ell - 1) / 2 exactly when
        the row's sites are distinct.
        """
        n, ell = self.n, self.ell
        sites, letters = np.asarray(sites), np.asarray(letters)
        if sites.dtype.kind not in "iu" or letters.dtype.kind not in "iu":
            raise ValueError("sites and letter codes must be integers")
        if sites.shape != letters.shape or sites.shape[-1:] != (ell,):
            raise ValueError(f"need matching (..., {ell}) site and letter arrays")
        cols = [sites[..., i].astype(np.int64, copy=False) for i in range(ell)]
        pos = [sum((c > d for d in cols[:i] + cols[i + 1:]), np.zeros_like(c))
               for i, c in enumerate(cols)]
        if sites.size and (sites.min() < 0 or sites.max() >= n
                           or (sum(pos) != ell * (ell - 1) // 2).any()
                           or letters.min() < 0 or letters.max() > 2):
            raise ValueError("sites must be distinct in [0, n) and letters in {0, 1, 2}")
        dtype = np.int64 if self.size < 2**63 else object
        comb = _binomial_array(n, ell)
        flat = comb.ravel().astype(dtype, copy=False)  # entry (x, y) at x (ell + 1) + y
        pow3 = np.array([3 ** (ell - 1 - j) for j in range(ell)], dtype=dtype)  # 3^(ell-1-j) at j
        ranks = np.full(sites.shape[:-1], (int(comb[n, ell]) - 1) * 3**ell, dtype=dtype)
        for i, (c, j) in enumerate(zip(cols, pos)):
            ranks -= flat[(n - 1 - c) * (ell + 1) + ell - j] * 3**ell
            ranks += letters[..., i] * pow3[j]
        return ranks

    def unrank(self, index: int) -> PauliOp:
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} out of range [0, {self.size})")
        sup_rank, code = divmod(index, 3**self.ell)
        xmask = zmask = 0
        # the last site's letter code is the least significant digit
        for s in reversed(_comb_unrank(sup_rank, self.n, self.ell)):
            code, c = divmod(code, 3)
            xmask |= (c != 2) << s  # as masks_from_arrays: X and Y set x, Y and Z set z
            zmask |= (c != 0) << s
        return PauliOp(self.n, xmask, zmask)


def slice_arrays(n: int, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Every weight-ell word on n qubits in canonical SliceIndex order, row by row:
    (size, ell) int64 ascending sites and int8 letter codes (X, Y, Z -> 0, 1, 2).

    ell = 0 gives one empty row, the identity.
    """
    if not 0 <= ell <= n:
        raise ValueError(f"need 0 <= ell <= n, got ell={ell}, n={n}")
    supports = list(combinations(range(n), ell))
    codes = list(product(range(3), repeat=ell))
    return (np.repeat(np.array(supports, dtype=np.int64).reshape(len(supports), ell),
                      len(codes), axis=0),
            np.tile(np.array(codes, dtype=np.int8).reshape(len(codes), ell), (len(supports), 1)))


def enumerate_slice(n: int, ell: int) -> Iterator[PauliOp]:
    """Yield all 3^ell * C(n, ell) weight-ell words in canonical SliceIndex order."""
    yield from words_from_arrays(n, *slice_arrays(n, ell))
