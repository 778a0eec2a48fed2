"""Portable deterministic random numbers for fold generation.

PCG32 (pcg_xsh_rr_64_32 from the PCG family): 64-bit LCG state with an
XSH-RR output permutation.  The reference C implementation is a dozen
lines and has been ported to most languages, so fold assignments written
by this package can be reproduced exactly outside Python.  Streams are
selected with the standard odd-increment construction.

:meth:`Pcg32.next_below` is the scalar reference: one LCG step and one
rejection test per draw.  :meth:`Pcg32.draws_below` gives the same draws a
whole array at a time by jumping ahead.  Its bounds are one integer array,
and an integer ndarray is taken as it is; :meth:`Pcg32.shuffle` builds the
bounds of all its lists as one such array, with no Python work per element
before the draws.  With multiplier ``a``, increment ``c`` and state ``s``
before the first draw, the state before the k-th draw is
``a^k s + c (a^0 + ... + a^(k-1))`` mod 2^64.  The two coefficient
tables are built by doubling in uint64 arrays, whose arithmetic wraps mod
2^64 as the LCG does.  They depend on neither the seed nor the stream, so
one read-only pair is kept for the process and grown when a call needs more
draws.  The XSH-RR output is applied to the states of up to 2^16 draws at
once.  Rejection stays exact: the draws before the first rejected one are
kept, the state moves past the rejected draw, and the rest are drawn again
from there, as the scalar loop would.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_MULTIPLIER = 6364136223846793005
#: most draws computed in one array pass, which bounds the memory a long plan takes
_BLOCK = 1 << 16
#: the jump tables for k below their length, read-only; neither value depends
#: on the count asked for, so a slice equals a table built for that count alone
_tables = (np.ones(1, dtype=np.uint64), np.zeros(1, dtype=np.uint64))


def _jump_tables(count: int) -> tuple[np.ndarray, np.ndarray]:
    """(a^k, a^0 + ... + a^(k-1)) mod 2^64 for k < count, as read-only uint64
    arrays: slices of ``_tables``, which grows when ``count`` exceeds it, to
    ``count`` or, below ``_BLOCK`` entries, to twice its size.

    Each pass doubles the filled prefix: for i below the filled size m,
    a^(m+i) = a^m a^i and the sum up to m+i is (sum up to m) + a^m (sum up
    to i).  Only arrays meet in the arithmetic, which wraps without the
    overflow warnings numpy raises for scalars.  A grown table is filled
    before it replaces the old one, so a caller never sees a partial one."""
    global _tables
    mult, plus = _tables
    size = len(mult)
    if size < count:
        a_m = (int(mult[-1]) * _MULTIPLIER) & _MASK64  # a^size and the sum below size
        sum_m = (int(plus[-1]) + int(mult[-1])) & _MASK64
        total = max(count, min(2 * size, _BLOCK))
        mult, plus = np.resize(mult, total), np.resize(plus, total)
        while size < total:
            step = min(size, total - size)
            np.multiply(mult[:step], np.uint64(a_m), out=mult[size:size + step])
            np.multiply(plus[:step], np.uint64(a_m), out=plus[size:size + step])
            plus[size:size + step] += np.uint64(sum_m)
            size, a_m, sum_m = 2 * size, (a_m * a_m) & _MASK64, (sum_m + a_m * sum_m) & _MASK64
        mult.flags.writeable = plus.flags.writeable = False
        _tables = mult, plus
    return mult[:count], plus[:count]


def _output(states: np.ndarray) -> np.ndarray:
    """XSH-RR of each uint64 state, as uint64 values below 2^32."""
    xorshifted = (((states >> np.uint64(18)) ^ states) >> np.uint64(27)).astype(np.uint32)
    rot = (states >> np.uint64(59)).astype(np.uint32)
    return ((xorshifted >> rot) | (xorshifted << ((np.uint32(32) - rot) & np.uint32(31)))
            ).astype(np.uint64)


def _index(name: str, value) -> int:
    """``value`` as an int, numpy integers too; a value that ``operator.index``
    refuses raises ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


class Pcg32:
    """pcg32 generator; ``seed`` is the state seed, ``stream`` the sequence.

    Both are integers, Python or numpy, taken mod 2^64 as the C reference's
    ``uint64_t`` arguments are.  A bad argument, here or in a draw, raises
    ValueError, not an :class:`~atlm.errors.AtlmError`: the generator is a
    building block, and :class:`~atlm.validation.ValidationPlan` refuses a bad
    plan seed with PlanError before a generator sees it.
    """

    def __init__(self, seed: int, stream: int = 0):
        seed, stream = _index("seed", seed), _index("stream", stream)
        self.state = 0
        self.inc = (((stream & _MASK64) << 1) | 1) & _MASK64
        self._next()
        self.state = (self.state + (seed & _MASK64)) & _MASK64
        self._next()

    def _next(self) -> int:
        old = self.state
        self.state = (old * _MULTIPLIER + self.inc) & _MASK64
        xorshifted = (((old >> 18) ^ old) >> 27) & 0xFFFFFFFF
        rot = old >> 59
        return ((xorshifted >> rot) | (xorshifted << ((-rot) & 31))) & 0xFFFFFFFF

    def next_uint32(self) -> int:
        return self._next()

    def next_below(self, bound: int) -> int:
        """Uniform draw in [0, bound), unbiased via rejection; ``bound`` is an
        integer (a Python or numpy int or bool) in 1..2^32."""
        if not (isinstance(bound, (int, np.integer, np.bool_)) and 0 < bound <= 1 << 32):
            raise ValueError(f"bound must be an integer in 1..2^32, got {bound!r}")
        bound = int(bound)
        threshold = (1 << 32) % bound
        while True:
            r = self._next()
            if r >= threshold:
                return r % bound

    def draws_below(self, bounds) -> list[int]:
        """``[next_below(b) for b in bounds]``, leaving the same state, drawn
        a whole array at a time (see the module docstring).  The bounds are
        integers in 1..2^32, read as one integer array: an integer ndarray is
        taken as it is, and any other iterable is made into one by numpy.
        Any other bound, a float or text among them, makes that array one of
        another kind, and is refused as ``next_below`` refuses it."""
        if not (isinstance(bounds, np.ndarray) and bounds.dtype.kind in "biu"):
            bounds = np.array(list(bounds))
        if bounds.size and bounds.dtype.kind not in "biu":
            raise ValueError(f"bounds must be integers in 1..2^32, got {bounds.dtype} bounds")
        if bounds.size and not (0 < bounds.min() and bounds.max() <= 1 << 32):
            raise ValueError(f"bounds must be in 1..2^32, got {bounds.min()}..{bounds.max()}")
        mult, plus = _jump_tables(min(len(bounds), _BLOCK))
        pending = bounds.astype(np.uint64)
        thresholds = np.uint64(1 << 32) % pending
        draws: list[int] = []
        while pending.size:
            m = min(pending.size, _BLOCK)
            states = mult[:m] * np.uint64(self.state) + plus[:m] * np.uint64(self.inc)
            outputs = _output(states)
            rejected = np.flatnonzero(outputs < thresholds[:m])
            kept = int(rejected[0]) if rejected.size else m
            draws.extend((outputs[:kept] % pending[:kept]).tolist())
            # step past the last kept draw, or past the rejected one
            last = int(states[min(kept, m - 1)])
            self.state = (last * _MULTIPLIER + self.inc) & _MASK64
            pending, thresholds = pending[kept:], thresholds[kept:]
        return draws

    def shuffle(self, *lists: list) -> None:
        """In-place Fisher-Yates shuffle of each list, descending index order.

        The lists are shuffled one after another, as successive calls would
        shuffle them, with all of their draws taken in one
        :meth:`draws_below` call.  Its bounds, ``len(items)`` down to 2 for
        each list, are built as one integer array of concatenated ranges."""
        bounds = np.concatenate([np.arange(len(items), 1, -1) for items in lists]
                                or [np.empty(0, dtype=int)])
        draws = iter(self.draws_below(bounds))
        for items in lists:
            for i, j in zip(range(len(items) - 1, 0, -1), draws):
                items[i], items[j] = items[j], items[i]
