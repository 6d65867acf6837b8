"""Deterministic RNG substreams.

Every stochastic stage of the toolkit (splitting, forest training,
bootstrap, posterior sampling, randomized acceptance) draws from its own
named substream of a single master seed, so reruns are reproducible and
stages can be reordered without perturbing each other.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["substream"]


def _label_key(label) -> int:
    # crc32 is stable across platforms and python versions
    return zlib.crc32(str(label).encode("utf-8"))


def substream(seed: int, *labels) -> np.random.Generator:
    """Generator for the substream of ``seed`` named by ``labels``.

    Same (seed, labels) always yields the same stream; different labels
    yield statistically independent streams.
    """
    key = tuple(_label_key(l) for l in labels)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _draw_kept(draw, keep, n: int, limit: int, abort) -> tuple[np.ndarray, int]:
    """``n`` rows that pass ``keep``, in draw order from batches ``draw(k)`` of the k still short; the count rejected.

    Raises ``RuntimeError(abort(rejected))`` once more than ``limit`` have been rejected.
    """
    kept, short, rejected = [], n, 0
    while short > 0:
        rows = draw(short)
        ok = keep(rows)
        n_ok = int(np.count_nonzero(ok))
        kept.append(rows if n_ok == ok.size else rows[ok])
        short -= n_ok
        rejected += short
        if rejected > limit:
            raise RuntimeError(abort(rejected))
    return (kept[0] if len(kept) == 1 else np.concatenate(kept)), rejected
