"""Shared test helpers."""

import contextlib

from repro.logic import bitmodels, shards


@contextlib.contextmanager
def forced_tiers(table_max=None, shard_max=None):
    """Retarget the tier cutoffs for the block, then restore both.

    ``table_max`` replaces ``bitmodels._TABLE_MAX_LETTERS`` and
    ``shard_max`` replaces ``shards.SHARD_MAX_LETTERS``; ``None`` leaves
    that cutoff as it is.  ``forced_tiers(0, 0)`` sends every alphabet to
    the sparse carrier, ``forced_tiers(table_max=1)`` small alphabets to
    the sharded bitplanes.
    """
    saved = (bitmodels._TABLE_MAX_LETTERS, shards.SHARD_MAX_LETTERS)
    if table_max is not None:
        bitmodels._TABLE_MAX_LETTERS = table_max
    if shard_max is not None:
        shards.SHARD_MAX_LETTERS = shard_max
    try:
        yield
    finally:
        bitmodels._TABLE_MAX_LETTERS, shards.SHARD_MAX_LETTERS = saved
