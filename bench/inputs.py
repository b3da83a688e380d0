"""Seeded input generators for the benchmark workloads.

The program only ever receives the red masks these functions return.
Each generator is a pure function of its arguments, so one seed always
gives the same inputs.
"""

from __future__ import annotations

import random
from functools import lru_cache

from partycover import build_sharp_example, num_edges
from partycover.lab import SEED_STRIDE


def batch_rng(workload: str, seed: int, batch: int) -> random.Random:
    """Generator for one batch; string seeds hash the same way in every process."""
    return random.Random(f"{workload}/{seed}/{batch}")


def uniform_masks(n: int, seed: int, count: int) -> list[int]:
    """The red masks ``scan(n, "random", samples=count, seed=seed)`` visits, in order."""
    m = num_edges(n)
    return [random.Random(seed + SEED_STRIDE * i).getrandbits(m)
            for i in range(count)]


@lru_cache(maxsize=None)
def sharp_mask(n: int) -> int:
    """Red mask of ``build_sharp_example(n)``, where both colors peak at n/2."""
    return build_sharp_example(n).red_mask()


def planted_mask(n: int, flip_p: float, rng: random.Random) -> int:
    """``sharp_mask(n)`` with each edge flipped independently with probability flip_p."""
    mask = sharp_mask(n)
    for k in range(num_edges(n)):
        if rng.random() < flip_p:
            mask ^= 1 << k
    return mask


def gray_window(start: int, length: int) -> list[int]:
    """Masks ``i ^ (i >> 1)`` for i in [start, start + length): the exhaustive scan's order."""
    return [i ^ (i >> 1) for i in range(start, start + length)]
