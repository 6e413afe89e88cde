"""Named RNG substreams derived from a single master seed.

Every random quantity in the toolkit flows through `substream`, so results
are reproducible under any scheduling of parallel work.

`hashlib` is imported at the first call, not at module load: its `_hashlib`
maps OpenSSL's libcrypto, about 3.5 MiB of resident memory, and only the
commands that draw seeded streams (gen, sweep --spec, verify and the
studies) call `substream`. A quantize process never loads it.
"""

from __future__ import annotations

import numpy as np


def substream(master_seed: int, *labels) -> np.random.Generator:
    """Independent generator for (master_seed, labels), stable across runs."""
    import hashlib

    if master_seed < 0:
        raise ValueError("master seed must be non-negative")
    tag = "/".join(str(x) for x in labels).encode()
    digest = hashlib.sha256(tag).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *words]))
