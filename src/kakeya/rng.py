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

The hot path builds no counter array.  ``raw`` adds one scalar offset,
base + counter * GOLDEN, to a table of GOLDEN * i (built on first use,
2**14 words at most) one piece at a time, and ``mix64`` runs the
finalizer over each piece in place with one shift scratch buffer.
``raw`` allocates its one result array, and ``uniforms``/``uniform``
shift, convert and scale the words in that array's memory; each in-place
step rounds exactly like the expression it replaces, so the drawn values
are those of the formula above.
"""

from __future__ import annotations

import math
from numbers import Real

import numpy as np

from .errors import DomainError, as_integer

# SplitMix64 constants: the 64-bit golden-ratio increment and the two
# avalanche multipliers of the finalizer.
GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

_U64 = np.uint64
_GOLDEN = int(GOLDEN)
_MASK = (1 << 64) - 1
_INV_2_53 = float(2.0**-53)

# Largest piece ``raw`` draws at once: its table of GOLDEN * i and its
# scratch buffer stay in a core's L2 cache.
_PIECE = 1 << 14
# GOLDEN * i for i below its length; grown on first use, never at import,
# so a process that draws only a few words builds only a few entries.
_golden_steps = None


def _steps(m: int) -> np.ndarray:
    """GOLDEN * i (mod 2**64) for i < m <= _PIECE."""
    global _golden_steps
    have = 0 if _golden_steps is None else _golden_steps.shape[0]
    if have < m:
        _golden_steps = np.arange(min(_PIECE, max(m, 2 * have)), dtype=np.uint64) * GOLDEN
    return _golden_steps[:m]


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
            raise DomainError(f"counters {self._counter} + {n} run past 2**64")
        out = np.empty(n, dtype=np.uint64)
        for lo in range(0, n, _PIECE):
            piece = out[lo:lo + _PIECE]
            offset = (self._base + (self._counter + lo) * _GOLDEN) & _MASK
            np.add(_steps(piece.shape[0]), _U64(offset), out=piece)
            mix64(piece)
        self._counter += n
        return out

    def uniforms(self, n: int) -> np.ndarray:
        """Next ``n`` doubles, uniform on [0, 1), as a float64 array."""
        words = self.raw(n)
        # the top 53 bits of each word, converted and scaled in the words'
        # memory; below 2**53 the int64 conversion is exact (and faster
        # than the uint64 one), and so is the scaling
        words >>= _U64(11)
        u = words.view(np.float64)
        np.copyto(u, words.view(np.int64), casting="unsafe")
        u *= _INV_2_53
        return u

    def uniform(self, lo: float, hi: float, n: int) -> np.ndarray:
        """Next ``n`` doubles, uniform on [lo, hi); lo, hi and hi - lo must be finite reals."""
        if not (isinstance(lo, Real) and isinstance(hi, Real)
                and math.isfinite(lo) and math.isfinite(hi - lo)):
            raise DomainError(f"uniform range [{lo!r}, {hi!r}) is not two finite reals")
        u = self.uniforms(n)
        u *= hi - lo
        u += lo
        return u
