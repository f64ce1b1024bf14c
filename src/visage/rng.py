"""Deterministic random streams.

Every stochastic subsystem draws from its own named substream derived
from one integer seed, so adding draws to one subsystem never shifts the
randomness of another. Streams are backed by Philox (counter based,
Philox4x64-10), whose output is fixed by the numpy bit-generator contract
and does not vary across platforms or numpy releases.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ._inputs import integer


def substream(seed: int, name: str) -> np.random.Generator:
    """Return the generator for ``name`` under the given master seed.

    The substream key mixes the seed with a SHA-256 digest of the name,
    so distinct names yield statistically independent streams and the
    mapping is reproducible from the (seed, name) pair alone. A seed
    that is not an integer raises DataError.
    """
    integer("seed", seed)
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 8], "little") for i in (0, 8, 16, 24)]
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF, *words]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
