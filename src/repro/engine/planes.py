"""Multi-word bitplane layout -- masks wider than one int64 word.

The fused backend (:mod:`repro.engine.fused`) packs every occupancy
mask into signed int64 words of :data:`WORD_BITS` usable bits.  A
fabric has three mask families, one per indexed dimension:

* **middle masks** (``m`` bits) -- first-stage blocked/full planes and
  availability masks;
* **module masks** (``r`` bits) -- destination sets and second-stage
  blocker rows;
* **wavelength masks** (``k`` bits) -- per-fiber carrier sets.

:class:`PlaneLayout` pins down, per family, how many words one mask
occupies (``W = ceil(bits / WORD_BITS)``); ``W == 1`` for every family
is the historical single-word layout, kept bit-identical as the fast
path.  The helpers here are the single source of the packing
arithmetic between plain Python-int masks and word rows:
:func:`split_mask` / :func:`join_words` for one mask and
:func:`pack_masks` for a nested sequence of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

try:  # NumPy is optional everywhere in this repo.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None  # type: ignore[assignment]

__all__ = [
    "WORD_BITS",
    "WORD_MASK",
    "PlaneLayout",
    "join_words",
    "pack_masks",
    "split_mask",
    "words_needed",
]

#: usable bits per int64 plane word; 62 keeps every word comfortably
#: inside a *signed* int64 (no sign-bit traps in numba or numpy).
WORD_BITS = 62
#: mask selecting one word's bits out of a wide Python int.
WORD_MASK = (1 << WORD_BITS) - 1


def words_needed(bits: int) -> int:
    """Words required for a ``bits``-wide mask (at least one)."""
    return max(1, -(-bits // WORD_BITS))


@dataclass(frozen=True)
class PlaneLayout:
    """Words-per-mask for one fabric's three mask families.

    Attributes:
        m_words: words per middle mask (``ceil(m / WORD_BITS)``).
        r_words: words per output-module mask (``ceil(r / WORD_BITS)``).
        k_words: words per wavelength mask (``ceil(k / WORD_BITS)``).
    """

    m_words: int
    r_words: int
    k_words: int

    @classmethod
    def for_fabric(cls, m: int, r: int, k: int) -> "PlaneLayout":
        """The layout for a ``v(n, r, m, k)`` fabric (n needs no mask)."""
        return cls(
            m_words=words_needed(m),
            r_words=words_needed(r),
            k_words=words_needed(k),
        )

    @property
    def width(self) -> int:
        """The widest family's word count -- the fabric's plane width W."""
        return max(self.m_words, self.r_words, self.k_words)

    @property
    def multiword(self) -> bool:
        """True when any mask family needs more than one int64 word."""
        return self.width > 1

    @property
    def word_bits(self) -> int:
        """Usable bits per word (:data:`WORD_BITS`)."""
        return WORD_BITS


def split_mask(value: int, words: int) -> list[int]:
    """Split a Python-int mask into ``words`` little-endian int64 words."""
    return [(value >> (WORD_BITS * wi)) & WORD_MASK for wi in range(words)]


def join_words(words: Any) -> int:
    """Rejoin little-endian words (any int sequence) into a Python int."""
    value = 0
    for wi, word in enumerate(words):
        value |= int(word) << (WORD_BITS * wi)
    return value


def pack_masks(values: Any, words: int) -> Any:
    """Pack a (nested) sequence of Python-int masks into ``[..., words]``."""
    if _np is None:  # pragma: no cover - callers are numpy-gated
        raise ValueError("pack_masks requires numpy")
    base = _np.asarray(values, dtype=object)
    out = _np.empty(base.shape + (words,), dtype=_np.int64)
    for wi in range(words):
        shifted = base
        for _ in range(wi):
            shifted = shifted >> WORD_BITS
        out[..., wi] = (shifted & WORD_MASK).astype(_np.int64)
    return out

