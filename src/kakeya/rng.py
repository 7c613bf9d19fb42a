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

The hot path allocates one output array per call and works on it in
place: ``raw`` turns the counter range into words, ``mix64`` runs the
finalizer over them in place with one shift scratch buffer, and
``uniforms``/``uniform`` shift, convert and scale that one buffer.  Each
in-place step rounds exactly like the expression it replaces, so the
drawn values are those of the formula above.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, as_integer

# SplitMix64 constants: the 64-bit golden-ratio increment and the two
# avalanche multipliers of the finalizer.
GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

_U64 = np.uint64
_INV_2_53 = float(2.0**-53)


def mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer applied elementwise to a uint64 array.

    Works in place: ``z`` is overwritten with the result, which is also
    returned.
    """
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
    seed, offset by the stream index).  Instances keep only the counter
    position as state; identical call sequences yield identical results.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = as_integer(seed, "seed")
        self.stream = as_integer(stream, "stream")
        mask = 0xFFFFFFFFFFFFFFFF
        # stream offset in exact integer arithmetic; numpy scalars would
        # warn on the wrapping multiply
        offset = (self.stream * 0x9E3779B97F4A7C15) & mask
        base = np.array([(self.seed + offset) & mask], dtype=np.uint64)
        self._base = mix64(base)[0]
        self._counter = 0

    def seek(self, counter: int) -> None:
        """Move to ``counter``: the next draw is output(counter)."""
        self._counter = as_integer(counter, "counter", lo=0)

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit words as a uint64 array."""
        n = as_integer(n, "n", lo=0)
        z = np.arange(self._counter, self._counter + n, dtype=np.uint64)
        self._counter += n
        z *= GOLDEN
        z += self._base
        return mix64(z)

    def uniforms(self, n: int) -> np.ndarray:
        """Next ``n`` doubles, uniform on [0, 1)."""
        words = self.raw(n)
        words >>= _U64(11)
        u = words.astype(np.float64)
        u *= _INV_2_53
        return u

    def uniform(self, lo: float, hi: float, n: int) -> np.ndarray:
        """Next ``n`` doubles, uniform on [lo, hi); lo and hi - lo must be finite."""
        if not (math.isfinite(lo) and math.isfinite(hi - lo)):
            raise DomainError(f"uniform range [{lo}, {hi}) is not finite")
        u = self.uniforms(n)
        u *= hi - lo
        u += lo
        return u
