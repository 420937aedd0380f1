"""Seed and random-number-generator management.

Every stochastic component in the library (initial oscillator phases, phase
noise, annealing baselines) draws randomness from a :class:`numpy.random.Generator`
obtained through this module, so a single integer seed makes a full experiment
reproducible while independent iterations still receive decorrelated streams.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple, Union

import numpy as np

SeedLike = Union[
    None,
    int,
    np.random.Generator,
    np.random.SeedSequence,
    "ReplicaRNG",
    "ThroughputRNG",
]


class ReplicaRNG:
    """A bundle of per-replica generators with a batched draw interface.

    Batched (replica-parallel) runs need randomness that is *bit-identical* to
    running each replica sequentially with its own seed.  ``ReplicaRNG`` holds
    one :class:`numpy.random.Generator` per replica and serves draws of shape
    ``(R, ...)`` by stacking one ``(...)`` draw from each replica's generator,
    so every replica consumes its stream in exactly the order a sequential run
    with that replica's generator would.

    The object quacks like a generator for the draw methods the solver uses
    (``standard_normal``, ``normal``, ``uniform``), which lets the noise
    helpers and integrators stay agnostic of whether they drive one replica or
    a batch.
    """

    def __init__(self, generators: Sequence[np.random.Generator]) -> None:
        generators = list(generators)
        if not generators:
            raise ValueError("ReplicaRNG needs at least one generator")
        for generator in generators:
            if not isinstance(generator, np.random.Generator):
                raise TypeError(f"expected numpy Generators, got {type(generator)!r}")
        self.generators = generators

    @classmethod
    def from_seeds(cls, seeds: Sequence[SeedLike]) -> "ReplicaRNG":
        """Build one generator per seed (the per-iteration seeds of a solve)."""
        return cls([make_rng(seed) for seed in seeds])

    @property
    def num_replicas(self) -> int:
        """Number of independent replica streams."""
        return len(self.generators)

    def _replica_shape(self, size) -> Tuple[int, ...]:
        """Normalize a requested ``size`` into the per-replica draw shape."""
        if size is None:
            return ()
        if np.ndim(size) == 0:
            return (int(size),)
        size = tuple(int(value) for value in size)
        if not size or size[0] != self.num_replicas:
            raise ValueError(
                f"batched draws must have a leading replica axis of {self.num_replicas}, got size {size}"
            )
        return size[1:]

    def standard_normal(self, size=None) -> np.ndarray:
        """Stacked per-replica ``standard_normal`` draws of shape ``(R, ...)``."""
        shape = self._replica_shape(size)
        return np.stack([generator.standard_normal(shape) for generator in self.generators])

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None) -> np.ndarray:
        """Stacked per-replica ``normal`` draws of shape ``(R, ...)``."""
        shape = self._replica_shape(size)
        return np.stack([generator.normal(loc, scale, size=shape) for generator in self.generators])

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None) -> np.ndarray:
        """Stacked per-replica ``uniform`` draws of shape ``(R, ...)``."""
        shape = self._replica_shape(size)
        return np.stack([generator.uniform(low, high, size=shape) for generator in self.generators])

    def noise_block(
        self, num_steps: int, shape: Tuple[int, ...], out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Standard-normal noise for ``num_steps`` integrator steps at once.

        ``shape`` is the batched state shape ``(R, N)``; the result has shape
        ``(num_steps, R, N)``.  Each replica's block is drawn in one chunked
        ``standard_normal`` call, which numpy guarantees to consume the stream
        exactly like ``num_steps`` successive ``(N,)`` draws.  ``out``, a block
        an earlier call returned, is refilled in place (see
        :func:`normal_noise_block`).
        """
        if num_steps < 1:
            raise ValueError(f"num_steps must be >= 1, got {num_steps}")
        per_replica = self._replica_shape(shape)
        if out is None:
            # One (R, num_steps, N) buffer handed back as a transposed *view*:
            # each replica's slice is contiguous, so the generator fills it
            # like a chunked draw, and no transposed copy is ever made.
            block = np.empty((self.num_replicas, num_steps) + per_replica, dtype=float)
            block = block.swapaxes(0, 1)
        else:
            block = _refill_target(out, (num_steps, self.num_replicas) + per_replica)
        for replica, generator in enumerate(self.generators):
            generator.standard_normal(out=block[:, replica])
        return block


class ThroughputRNG:
    """A single batched noise stream for the throughput precision tier.

    Where :class:`ReplicaRNG` maintains one generator per replica (the price
    of bit-identity with sequential runs), ``ThroughputRNG`` drives *one*
    PCG64 stream for the whole replica batch and draws in float32.  Replica
    independence is statistical rather than structural: the generator is
    seeded with a :class:`numpy.random.SeedSequence` over the job's
    per-replica seeds, so the stream is deterministic per seed set — and a
    different seed set yields an uncorrelated stream — but replicas no longer
    own stream positions, so results are not invariant under replica
    re-chunking.

    Noise blocks contain *two-point* increments ``+-1``, one raw generator
    bit each, instead of Gaussians.  They have mean 0, variance 1 and third
    moment 0, which is all the weak order-1 Euler–Maruyama convergence the
    solver relies on asks of a per-step increment (the simplified weak Euler
    scheme, Kloeden & Platen 1992, §14.1), and 64 of them come from one
    64-bit word, where a float32 Gaussian or uniform costs a word or half a
    word each.

    The class quacks like :class:`ReplicaRNG` for the draw methods the solver
    uses (``standard_normal``, ``normal``, ``uniform``, ``noise_block``), with
    the same ``(R, ...)`` shape semantics, so the noise helpers and
    integrators stay tier-agnostic.
    """

    def __init__(self, seeds: Sequence[Optional[int]], num_replicas: Optional[int] = None) -> None:
        seeds = list(seeds)
        if not seeds:
            raise ValueError("ThroughputRNG needs at least one seed")
        self.seeds = seeds
        self._num_replicas = int(num_replicas) if num_replicas is not None else len(seeds)
        if self._num_replicas < 1:
            raise ValueError(f"num_replicas must be >= 1, got {self._num_replicas}")
        if any(seed is None for seed in seeds):
            # Non-deterministic fallback: no seeds means no reproducibility
            # contract to honour, so use OS entropy.
            self.generator = np.random.default_rng()
        else:
            self.generator = np.random.default_rng(
                np.random.SeedSequence([int(seed) for seed in seeds])
            )

    @property
    def num_replicas(self) -> int:
        """Replica count the batched draws span."""
        return self._num_replicas

    def _replica_shape(self, size) -> Tuple[int, ...]:
        """Normalize a requested ``size`` into the per-replica draw shape."""
        if size is None:
            return ()
        if np.ndim(size) == 0:
            return (int(size),)
        size = tuple(int(value) for value in size)
        if not size or size[0] != self.num_replicas:
            raise ValueError(
                f"batched draws must have a leading replica axis of {self.num_replicas}, got size {size}"
            )
        return size[1:]

    def standard_normal(self, size=None) -> np.ndarray:
        """One float32 ``standard_normal`` draw of shape ``(R, ...)``."""
        shape = (self.num_replicas,) + self._replica_shape(size)
        return self.generator.standard_normal(shape, dtype=np.float32)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None) -> np.ndarray:
        """One float32 ``normal`` draw of shape ``(R, ...)``."""
        draw = self.standard_normal(size)
        if scale != 1.0:
            np.multiply(draw, np.float32(scale), out=draw)
        if loc != 0.0:
            np.add(draw, np.float32(loc), out=draw)
        return draw

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None) -> np.ndarray:
        """One float32 ``uniform`` draw of shape ``(R, ...)``.

        ``Generator.uniform`` has no dtype parameter, so the draw is a float32
        ``random`` rescaled in place.
        """
        shape = (self.num_replicas,) + self._replica_shape(size)
        draw = self.generator.random(shape, dtype=np.float32)
        if high != 1.0 or low != 0.0:
            np.multiply(draw, np.float32(high - low), out=draw)
            if low != 0.0:
                np.add(draw, np.float32(low), out=draw)
        return draw

    def noise_block(
        self, num_steps: int, shape: Tuple[int, ...], out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Unit-variance float32 noise for ``num_steps`` integrator steps.

        Shape ``(num_steps, R, N)`` like :meth:`ReplicaRNG.noise_block`, but
        every value is a two-point increment ``+-1``: one bit of the raw
        64-bit generator words, unpacked and mapped ``b -> 2b - 1``.  ``out``,
        a block an earlier call returned, is refilled in place (see
        :func:`normal_noise_block`).
        """
        if num_steps < 1:
            raise ValueError(f"num_steps must be >= 1, got {num_steps}")
        block_shape = (num_steps, self.num_replicas) + self._replica_shape(shape)
        count = int(np.prod(block_shape))
        words = self.generator.bit_generator.random_raw(-(-count // 64))
        # Map in int8 and convert once: one float32 pass instead of three.
        signs = np.unpackbits(words.view(np.uint8), count=count).view(np.int8)
        np.multiply(signs, 2, out=signs)
        np.subtract(signs, 1, out=signs)
        if out is None:
            return signs.astype(np.float32).reshape(block_shape)
        block = _refill_target(out, block_shape)
        np.copyto(block, signs.reshape(block_shape))
        return block


def _refill_target(out: np.ndarray, block_shape: Tuple[int, ...]) -> np.ndarray:
    """The leading ``block_shape[0]`` steps of ``out``, an earlier noise block."""
    if out.shape[1:] != block_shape[1:] or out.shape[0] < block_shape[0]:
        raise ValueError(f"cannot refill a noise block of shape {out.shape} as {block_shape}")
    return out[: block_shape[0]]


def normal_noise_block(
    rng: SeedLike, num_steps: int, shape: Tuple[int, ...], out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Draw ``(num_steps,) + shape`` unit-variance noise from ``rng``.

    For a plain generator this is one chunked draw (bit-identical to
    ``num_steps`` successive ``shape`` draws); for a :class:`ReplicaRNG` the
    block is assembled from the per-replica streams.  A :class:`ThroughputRNG`
    returns float32 two-point ``+-1`` increments instead of Gaussians.

    ``out`` may be a block an earlier call on the same ``rng`` returned, at
    least ``num_steps`` long: the draw then refills its leading steps in
    place and returns them, with the values a fresh block would hold.  A
    caller drawing block after block thus reuses one buffer instead of
    allocating (and page-faulting) a new one each time.
    """
    if isinstance(rng, (ReplicaRNG, ThroughputRNG)):
        return rng.noise_block(num_steps, shape, out=out)
    block_shape = (num_steps,) + tuple(shape)
    if out is None:
        return make_rng(rng).standard_normal(block_shape)
    return make_rng(rng).standard_normal(out=_refill_target(out, block_shape))


def make_rng(seed: SeedLike = None) -> Union[np.random.Generator, "ReplicaRNG", "ThroughputRNG"]:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be ``None`` (non-deterministic), an integer, a
    :class:`numpy.random.SeedSequence`, or an existing generator (returned
    unchanged so callers can thread one generator through a pipeline).  A
    :class:`ReplicaRNG` or :class:`ThroughputRNG` is likewise returned
    unchanged so batched pipelines can thread their replica streams through
    the same code paths.
    """
    if isinstance(seed, (np.random.Generator, ReplicaRNG, ThroughputRNG)):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, count: int) -> list:
    """Return ``count`` independent generators derived from ``seed``.

    Independent streams are produced with :class:`numpy.random.SeedSequence`
    spawning, which guarantees statistical independence between the children
    regardless of how many random numbers each consumes.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive a seed sequence from the generator's bit stream.
        seed = int(seed.integers(0, 2**63 - 1))
    sequence = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]


def iteration_seeds(seed: SeedLike, count: int) -> list:
    """Return ``count`` integer seeds derived deterministically from ``seed``.

    Useful when per-iteration seeds need to be recorded alongside results so a
    single iteration can be replayed later.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        seed = int(seed.integers(0, 2**63 - 1))
    sequence = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [int(child.generate_state(1, dtype=np.uint64)[0] % (2**31 - 1)) for child in sequence.spawn(count)]


def random_phases(num: int, rng: SeedLike = None, low: float = 0.0, high: float = 2.0 * np.pi) -> np.ndarray:
    """Draw ``num`` uniformly random phases in ``[low, high)``.

    This models the random ROSC start-up phases the paper obtains by turning
    oscillators on at random instants and letting jitter decorrelate them.
    """
    if num < 0:
        raise ValueError(f"num must be non-negative, got {num}")
    generator = make_rng(rng)
    return generator.uniform(low, high, size=num)
