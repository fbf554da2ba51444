"""Reproducible random streams.

Each Monte-Carlo experiment (a sweep row, or one run among several) gets
its own generator seeded by a SHA-256 digest of (master seed, experiment
id, trial index), so its result does not depend on what ran before it.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(master_seed: int, experiment_id: str, trial: int = 0) -> int:
    digest = hashlib.sha256(
        f"{master_seed}:{experiment_id}:{trial}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_rng(master_seed: int, experiment_id: str, trial: int = 0) -> random.Random:
    return random.Random(derive_seed(master_seed, experiment_id, trial))
