"""Reservoir sampling (Vitter's Algorithm R).

Paper §3.2: SGD over an evolving instance stream must sample *uniformly over
everything seen so far* — plain random sampling over the buffered prefix
over-weights old instances, which breaks the correctness condition (the
approximation would not be a valid initial guess).  Reservoir sampling keeps
every instance equally likely regardless of arrival time.

Both samplers share one contract with their owner: ``offer`` returns the
slot it wrote, ``draw_indices`` makes the draw that ``draw`` makes, and
``snapshot`` is a cheap copy whose RNG stays a saved bit-generator state
until it first draws.  ``rows`` is a per-slot cache that the owner keeps
current from the returned slots (the SGD program's row slab); a snapshot
never carries it.
"""

from __future__ import annotations

import copy
from typing import Any, Generic, Iterable, Iterator, TypeVar

import numpy as np

T = TypeVar("T")


class _Sampler(Generic[T]):
    """What both samplers share: the sample list, its RNG and snapshots."""

    def __init__(self, capacity: int, rng: np.random.Generator) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._rng: np.random.Generator | None = rng
        #: ``(bit-generator class, state)`` of a snapshot that has not
        #: drawn yet; :attr:`rng` turns it back into a Generator.
        self._rng_state: tuple[type, dict] | None = None
        self.sample: list[T] = []
        self.seen = 0
        #: The owner's per-slot cache, indexed like ``sample``.  Dropped
        #: here whenever items move other than through a slot ``offer``
        #: returns; never copied into a snapshot.
        self.rows: Any = None

    @property
    def rng(self) -> np.random.Generator:
        rng = self._rng
        if rng is None:
            bit_generator_cls, state = self._rng_state
            bit_generator = bit_generator_cls()
            bit_generator.state = state
            rng = self._rng = np.random.Generator(bit_generator)
            self._rng_state = None
        return rng

    def offer(self, item: T) -> int | None:
        """Present one stream element; returns the slot it now occupies,
        or ``None`` if the sample did not take it."""
        raise NotImplementedError

    def extend(self, items: Iterable[T]) -> None:
        for item in items:
            self.offer(item)

    def draw_indices(self, count: int) -> np.ndarray:
        """Slots of ``count`` items drawn uniformly (with replacement)
        from the current sample; an empty sample draws nothing."""
        if not self.sample:
            return np.empty(0, dtype=np.int64)
        return self.rng.integers(0, len(self.sample), size=count)

    def draw(self, count: int) -> list[T]:
        """Draw ``count`` items uniformly (with replacement) from the
        current sample."""
        sample = self.sample
        return [sample[i] for i in self.draw_indices(count).tolist()]

    def snapshot(self) -> "_Sampler[T]":
        """Independent copy sharing the (immutable) items.  It keeps the
        bit-generator state, not a Generator, and draws exactly the
        stream this sampler would have drawn from here on."""
        clone = copy.copy(self)
        clone.sample = list(self.sample)
        clone.rows = None
        if self._rng is not None:
            bit_generator = self._rng.bit_generator
            clone._rng = None
            clone._rng_state = (type(bit_generator), bit_generator.state)
        return clone

    def __len__(self) -> int:
        return len(self.sample)

    def __iter__(self) -> Iterator[T]:
        return iter(self.sample)


class ReservoirSampler(_Sampler[T]):
    """Fixed-capacity uniform sample over an unbounded stream.

    >>> rng = np.random.default_rng(0)
    >>> sampler = ReservoirSampler(capacity=2, rng=rng)
    >>> sampler.extend(range(100))
    >>> len(sampler.sample)
    2
    """

    def offer(self, item: T) -> int | None:
        self.seen += 1
        if len(self.sample) < self.capacity:
            self.sample.append(item)
            return len(self.sample) - 1
        slot = int(self.rng.integers(0, self.seen))
        if slot < self.capacity:
            self.sample[slot] = item
            return slot
        return None


class RecencyBiasedBuffer(_Sampler[T]):
    """The *broken* sampler the paper warns against: keeps the most recent
    ``capacity`` items only, so older data is forgotten and the main
    loop's guesses stop being valid for the full input.  Included as the
    contrast case for tests and ablations; drop-in compatible with
    :class:`ReservoirSampler`."""

    def __init__(self, capacity: int,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(capacity,
                         rng if rng is not None else np.random.default_rng(0))

    def offer(self, item: T) -> int:
        self.seen += 1
        self.sample.append(item)
        if len(self.sample) > self.capacity:
            self.sample.pop(0)
            self.rows = None    # every slot shifted: the owner rebuilds
        return len(self.sample) - 1


def sample_is_uniform(counts: dict[Any, int], trials: int,
                      capacity: int, population: int,
                      tolerance: float = 0.35) -> bool:
    """Chi-square-style sanity check used by tests: is every item's
    inclusion frequency within ``tolerance`` of ``capacity/population``?"""
    expected = trials * capacity / population
    if expected <= 0:
        return False
    return all(abs(count - expected) <= tolerance * expected
               for count in counts.values())
