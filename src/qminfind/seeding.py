"""Deterministic random-stream derivation.

Every Monte Carlo run owns a private ``random.Random`` derived from the
master seed and a run key, so results do not depend on execution order or
worker layout.  String seeding goes through SHA-512 (CPython's documented
``seed(a, version=2)`` path), which is stable across platforms.
"""
from __future__ import annotations

import random


def derive_stream(seed: int, *key: object) -> random.Random:
    """Return an independent RNG for the run identified by ``key``.

    ``derive_stream(seed, "lemma1", 7)`` always yields the same stream, and
    streams with different keys are statistically independent.
    """
    tag = ":".join(map(str, (seed, *key)))
    return random.Random(tag)
