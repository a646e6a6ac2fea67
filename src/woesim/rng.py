"""Deterministic sub-stream derivation for reproducible simulation runs."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import SpecError, _integer

_MASK64 = (1 << 64) - 1

# Fixed tags; changing them would silently reseed every recorded run.
ROLE_TAGS = {"train": 1, "val": 2, "test": 3, "synth": 4}


def check_master_seed(master_seed: int) -> None:
    """Refuse a master seed that is not an integer in [0, 2**64): masking
    would alias a larger one, and a float has no bits to mix."""
    if not 0 <= _integer("master seed", master_seed) <= _MASK64:
        raise SpecError(f"master seed must be an integer in [0, 2**64), got {master_seed!r}")


def splitmix64(z: int) -> int:
    """One round of the SplitMix64 finalizer (64-bit avalanche mix)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def substream_seed(master_seed: int, iteration: int, role: str) -> int:
    """Derive the 64-bit sub-stream seed for (master_seed, iteration, role)."""
    if role not in ROLE_TAGS:
        raise ValueError(f"unknown stream role {role!r}")
    h = splitmix64(operator.index(master_seed) & _MASK64)
    h = splitmix64(h ^ (operator.index(iteration) & _MASK64))
    return splitmix64(h ^ ROLE_TAGS[role])


@dataclass(frozen=True)
class RngStream:
    """Addressable random stream, identified by (master_seed, iteration, role).

    Identical fields always reproduce the identical stream, and distinct
    roles at the same iteration map to disjoint streams, which is what makes
    train/validation/test draws independent and runs schedule-invariant.
    """

    master_seed: int
    iteration: int = 0
    role: str = "synth"

    def __post_init__(self) -> None:
        check_master_seed(self.master_seed)
        if self.role not in ROLE_TAGS:
            raise ValueError(f"unknown stream role {self.role!r}")
        if _integer("iteration", self.iteration, ValueError) < 0:
            raise ValueError(f"iteration must be a nonnegative integer, got {self.iteration!r}")

    @property
    def seed(self) -> int:
        return substream_seed(self.master_seed, self.iteration, self.role)

    def generator(self) -> np.random.Generator:
        """A fresh 64-bit generator positioned at the start of the stream."""
        return np.random.default_rng(self.seed)
