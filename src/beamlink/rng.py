"""Counter-style derivation of independent random substreams.

Every random quantity in the toolkit is drawn from a generator obtained
through :func:`substream`, keyed by a root seed plus a tuple of integers
naming its purpose (and, for sweeps, the block index). Streams with
distinct keys are statistically independent and depend only on the key,
never on the order in which they are created, so trial blocks can run in
any order or in parallel and still reproduce bit for bit.
"""

from __future__ import annotations

import numpy as np

# numpy 2 imports numpy.random on first use; import it with the package
# so that the first substream call inside a runner does not pay for it.
import numpy.random  # noqa: F401


def substream(root_seed: int, *key: int) -> np.random.Generator:
    """Return the generator for the substream named by ``key``.

    Parameters
    ----------
    root_seed : int
        Nonnegative root seed shared by a whole experiment.
    *key : int
        Integers identifying the purpose of the stream, e.g.
        ``(purpose, snr_index, block_index)``.
    """
    root = int(root_seed)
    if root < 0:
        raise ValueError("root seed must be a nonnegative integer")
    seq = np.random.SeedSequence(root, spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(seq)
