"""Deterministic, splittable random streams.

Every piece of randomness in the toolkit flows through a RandomStream seeded
by a 64-bit value. Streams for sub-tasks (one augmented sentence, one
generated document) are derived by hashing the parent seed together with the
sub-task coordinates, so output never depends on traversal or thread order.

The generator is SplitMix64: state advances by a fixed odd constant and each
output is an avalanche mix of the state. It is tiny, fast, platform-stable,
and trivially splittable, which is all we need; statistical heavy lifting is
not required here.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class _Float(float):
    """sum(values, LEFT_TO_RIGHT) adds left to right, each step rounded as
    `+` rounds, on every Python: from 3.12 on, sum() compensates rounding
    when its start is an exact float, but not from a float subclass."""


LEFT_TO_RIGHT = _Float()


def _mix(z: int) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit value."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(*parts: int) -> int:
    """Combine integer coordinates into a new 64-bit seed.

    derive_seed(master, run, doc, sent) gives every sentence of every
    augmentation run its own independent stream.
    """
    h = _mix(0x5DEECE66D)
    for p in parts:
        h = _mix((h ^ (p & _MASK)) * _GOLDEN)
    return h


class RandomStream:
    """A seeded SplitMix64 stream with the few draw primitives we use."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix(self._state)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n). Rejection-sampled, so unbiased."""
        if n <= 0:
            raise ValueError("randrange() bound must be positive")
        # Reject draws from the tail that would bias small residues.
        limit = _MASK - (_MASK % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def choice(self, seq):
        if not seq:
            raise ValueError("choice() from empty sequence")
        return seq[self.randrange(len(seq))]

    def weighted_choice(self, seq, weights):
        """Pick one element with probability proportional to its weight."""
        total = sum(weights, LEFT_TO_RIGHT)
        r = self.random() * total
        acc = 0.0
        for item, w in zip(seq, weights):
            acc += w
            if r < acc:
                return item
        return seq[-1]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, seq, k: int) -> list:
        """k distinct elements, uniform without replacement, order random."""
        if k > len(seq):
            raise ValueError("sample() larger than population")
        pool = list(seq)
        self.shuffle(pool)
        return pool[:k]
