"""Counter-based random number streams.

Every sampling operation in this package draws from an :class:`RngStream`,
a thin wrapper around numpy's Philox counter-based bit generator keyed by a
``(seed, stream)`` pair of 64-bit integers.  The same pair always reproduces
the same sequence, no matter what other streams exist or in which order work
is scheduled, which is what makes parallel evaluation reproducible.

Child streams are derived, never split statefully: ``stream.derive(i, j)``
returns a fresh stream whose id is a 64-bit hash of the parent id and the
indices, so a simulation can hand out one stream per task / per step / per
draw without any coordination.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One round of splitmix64; bijective on 64-bit ints, good dispersion."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _combine(parent: int, index: int) -> int:
    return _splitmix64(_splitmix64(parent) ^ ((index * 0xD1342543DE82EF95) & _MASK64))


class RngStream:
    """One independent random stream identified by ``(seed, stream)``.

    The generator state is created lazily from the key, on the first draw,
    so constructing or deriving a stream is cheap and two streams with the
    same key are interchangeable.
    """

    __slots__ = ("seed", "stream", "_generator")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64
        self._generator = None

    @property
    def _gen(self) -> np.random.Generator:
        if self._generator is None:
            self._generator = np.random.Generator(np.random.Philox(key=[self.seed, self.stream]))
        return self._generator

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed:#x}, stream={self.stream:#x})"

    def derive(self, *indices: int) -> "RngStream":
        """Fresh independent child stream; same seed, hashed stream id."""
        sid = self.stream
        for ix in indices:
            sid = _combine(sid, int(ix))
        return RngStream(self.seed, sid)

    # -- sampling -----------------------------------------------------------

    def uniform(self, lo: float = 0.0, hi: float = 1.0, size=None):
        return self._gen.uniform(lo, hi, size=size)

    def normal(self, size=None):
        return self._gen.standard_normal(size=size)

    def integers(self, lo: int, hi: int, size=None):
        """Uniform integers in [lo, hi)."""
        return self._gen.integers(lo, hi, size=size)

    def complex_normal(self, size=None):
        """Standard circularly-symmetric complex normal CN(0, 1).

        Real and imaginary parts are independent N(0, 1/2), so E|z|^2 = 1.
        """
        if size is None:
            re, im = self._gen.standard_normal(2)
            return complex(re, im) * np.sqrt(0.5)
        z = self._gen.standard_normal(tuple(np.atleast_1d(size)) + (2,))
        return (z[..., 0] + 1j * z[..., 1]) * np.sqrt(0.5)
