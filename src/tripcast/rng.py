"""Seeded, platform-portable random streams.

All randomness in the package flows through PCG64 generators whose seeds are
derived by hashing a base seed together with string tokens. Two properties
follow: (1) the same (seed, token...) pair yields the same stream on every
platform and regardless of call order elsewhere, and (2) independent units of
work (days, ensemble members, folds) get independent substreams, so they can
be computed in any order or in parallel without changing results.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(base_seed: int, *tokens: object) -> int:
    """Derive a 64-bit child seed from a base seed and a token path."""
    material = ":".join([str(int(base_seed))] + [str(t) for t in tokens])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def substream(base_seed: int, *tokens: object) -> np.random.Generator:
    """A PCG64 generator on an independent substream of ``base_seed``."""
    return np.random.Generator(np.random.PCG64(derive_seed(base_seed, *tokens)))
