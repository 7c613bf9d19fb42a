"""Counter-based pseudorandom numbers (SplitMix64 in counter mode).

Every draw is a pure function of (seed, stream, counter), so any sample can
be reproduced from the seed alone, streams never overlap by construction,
and the generator is trivial to port bit-for-bit to other languages:

    output(i) = mix64(base + i * GOLDEN)          (all arithmetic mod 2**64)

where ``mix64`` is the SplitMix64 finalizer (Steele, Lea & Flood 2014) and
``base`` encodes the (seed, stream) pair.  Uniform doubles take the top 53
bits of the output, giving values in [0, 1).

A generator reads its stream sequentially from counter 0; ``seek`` moves
it to any counter, so a draw is addressable by (seed, stream, counter) and
a consumer may read a stretch of the stream in any order of pieces.

``raw`` is that formula in one numpy pass: the counters 0..n-1 as an
array, times GOLDEN, plus base + counter * GOLDEN, then ``mix64`` over the
words in place.  The checks draw at most a few times 10**4 words per call
at their default sizes, and SectorMeasure draws its cloud 2**14 words at
a time; at those sizes a draw costs about 9 ns per uniform, a small share
of any check's time, so the generator keeps no tables or buffers.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, as_integer, shown, wrong_type

# SplitMix64 constants: the 64-bit golden-ratio increment and the two
# avalanche multipliers of the finalizer.
GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

_U64 = np.uint64
_GOLDEN = int(GOLDEN)
_MASK = (1 << 64) - 1
_INV_2_53 = float(2.0**-53)


def mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer applied elementwise to a uint64 array.

    Works in place: ``z`` is overwritten with the result, which is also
    returned.  Anything but a writeable uint64 array of at least one
    dimension is a DomainError.
    """
    if not (isinstance(z, np.ndarray) and z.dtype == np.uint64 and z.ndim
            and z.flags.writeable):
        raise DomainError("mix64 takes a writeable uint64 array of at least one dimension")
    t = z >> _U64(30)
    z ^= t
    z *= _MIX1
    np.right_shift(z, _U64(27), out=t)
    z ^= t
    z *= _MIX2
    np.right_shift(z, _U64(31), out=t)
    z ^= t
    return z


class CounterRng:
    """Deterministic stream of uniforms addressed by a running counter.

    ``seed`` selects the master sequence, ``stream`` a non-overlapping
    substream (substream bases are themselves SplitMix64 outputs of the
    seed, offset by the stream index).  Both are integers in [0, 2**64),
    so (seed, stream, counter) names one draw; DomainError otherwise.
    Instances keep only the counter position as state; identical call
    sequences yield identical results.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = as_integer(seed, "seed", lo=0, hi=_MASK)
        self.stream = as_integer(stream, "stream", lo=0, hi=_MASK)
        # stream offset in exact integer arithmetic; numpy scalars would
        # warn on the wrapping multiply
        offset = (self.stream * _GOLDEN) & _MASK
        base = np.array([(self.seed + offset) & _MASK], dtype=np.uint64)
        self._base = int(mix64(base)[0])
        self._counter = 0

    def seek(self, counter: int) -> None:
        """Move to ``counter``: the next draw is output(counter)."""
        self._counter = as_integer(counter, "counter", lo=0)

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit words as a uint64 array.

        The counters drawn must lie below 2**64, the period of the stream.
        """
        n = as_integer(n, "n", lo=0)
        if self._counter + n > 1 << 64:
            raise DomainError(f"counters {shown(self._counter)} + {shown(n)} run past 2**64")
        words = np.arange(n, dtype=np.uint64)
        words *= GOLDEN
        words += _U64((self._base + self._counter * _GOLDEN) & _MASK)
        self._counter += n
        return mix64(words)

    def uniforms(self, n: int) -> np.ndarray:
        """Next ``n`` doubles, uniform on [0, 1), as a float64 array."""
        # the top 53 bits of each word; their conversion and scaling are exact
        u = (self.raw(n) >> _U64(11)).astype(np.float64)
        u *= _INV_2_53
        return u

    def uniform(self, lo: float, hi: float, n: int) -> np.ndarray:
        """Next ``n`` doubles, uniform on [lo, hi); lo, hi and hi - lo must be finite reals."""
        try:
            if not (math.isfinite(lo) and math.isfinite(hi - lo)):
                raise DomainError(f"uniform range [{shown(lo)}, {shown(hi)}) is not finite")
        except (TypeError, OverflowError):
            raise wrong_type("lo and hi must be reals", lo, hi) from None
        return lo + (hi - lo) * self.uniforms(n)
