"""The coarse-partition exchange: the one place a row is assigned to a
partition.

Every wide step (per-sentence dedup/top-k, surface canonicalization,
edge dedup, the graph, join, window, corpus and query operators, the
jobs) runs the same shape, and this module is the only one that builds
it: tag each row with ``hash(key) % num_parts``, sort-group on the tag
(``groupby(tag).map_groups``) and run one vectorized kernel per PART.
That is a few large Ray groups instead of one per key (Ray pays ~1 ms
of Python per aggregate group). The sort-based engine is kept on
purpose: Ray's hash shuffle stalled at 64 parts on a 4-CPU box.

:func:`key_parts` is the partition function. It hashes Arrow-typed
columns with ``pandas.util.hash_array`` (SipHash under pandas' fixed
default key, so every process computes the same parts):

- dispatch is on the column's Arrow TYPE, never on batch values: an
  int64 key hashes the same whether or not its batch holds a null
  (a pandas batch would have widened that column to float64);
- every integer width hashes as int64, and an integral float as the
  int it equals, so one number lands in one part on both sides of a
  join;
- strings hash as their utf-8 bytes (embedded NULs included);
- a row with a null (or NaN) key component goes to part 0;
- composite keys combine the per-column hashes in column order.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_TAG = "__xpart"
_MIX = np.uint64(1000003)


def _column_hash(col) -> tuple:
    """(uint64 hash per row, null mask) of one Arrow key column."""
    from pandas.util import hash_array

    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    t = col.type
    null = col.is_null().to_numpy(zero_copy_only=False)
    if pa.types.is_null(t):
        return np.zeros(len(col), np.uint64), null
    if pa.types.is_integer(t):
        vals = col.cast(pa.int64(), safe=False).fill_null(0).to_numpy()
        return hash_array(vals), null
    if pa.types.is_floating(t):
        vals = col.cast(pa.float64()).fill_null(0.0).to_numpy()
        null = null | np.isnan(vals)
        h = hash_array(vals)
        whole = np.isfinite(vals) & (vals == np.trunc(vals)) & (
            np.abs(vals) < 2.0**63
        )
        h[whole] = hash_array(vals[whole].astype(np.int64))
        return h, null
    if (pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_binary(t) or pa.types.is_large_binary(t)):
        vals = col.to_numpy(zero_copy_only=False)
    else:  # bool, temporal, decimal, nested: the value's string form
        vals = np.array(
            [None if v is None else str(v) for v in col.to_pylist()],
            dtype=object,
        )
    return hash_array(vals, categorize=False), null


def key_parts(table: pa.Table, cols, num_parts: int) -> np.ndarray:
    """int64 partition id in ``[0, num_parts)`` per row of ``table``,
    hashed over the key column(s) ``cols`` (a name or a list)."""
    cols = [cols] if isinstance(cols, str) else list(cols)
    h = None
    null = np.zeros(table.num_rows, dtype=bool)
    for c in cols:
        hc, nc = _column_hash(table.column(c))
        null |= nc
        h = hc if h is None else (h * _MIX) ^ hc
    parts = (h % np.uint64(num_parts)).astype(np.int64)
    parts[null] = 0
    return parts


def exchange(ds, keys, kernel, *, num_parts: int | None = None,
             batch_format: str = "pandas", combine=None):
    """Run ``kernel`` once per coarse partition of ``ds`` on ``keys``.

    All rows of one key land in one part, so a kernel that finishes
    every key from the rows it is given (dedup, aggregate, window,
    co-group) is exact under any part count. ``kernel`` gets the part
    without the tag column, as a ``batch_format`` batch ('pandas' or
    'pyarrow'). ``combine`` (Arrow table → Arrow table) runs first, in
    the same map task: the per-batch combiner that shrinks what the
    exchange moves. ``ds`` may be a list of Datasets with one schema (a
    co-group): each is tagged in its own map task before the union, so
    the tag fuses with the map that built it instead of costing one
    more Ray operator. ``num_parts`` defaults to
    ``dataops._cluster_parts()``. The Ray operators keep the names of
    ``combine`` and ``kernel``."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    if num_parts is None:
        from .dataops import _cluster_parts

        num_parts = _cluster_parts()

    def tag(batch: pa.Table) -> pa.Table:
        if combine is not None:
            batch = combine(batch)
        parts = key_parts(batch, keys, num_parts)
        return batch.append_column(_TAG, pa.array(parts, pa.int64()))

    def run(part):
        if batch_format == "pandas":
            return kernel(part.drop(columns=[_TAG]))
        return kernel(part.drop_columns([_TAG]))

    tag.__name__ = getattr(combine, "__name__", "add_part")
    run.__name__ = getattr(kernel, "__name__", "per_part")
    arms = [
        d.map_batches(tag, batch_format="pyarrow")
        for d in (ds if isinstance(ds, (list, tuple)) else [ds])
    ]
    tagged = arms[0].union(*arms[1:]) if len(arms) > 1 else arms[0]
    return tagged.groupby(_TAG).map_groups(run, batch_format=batch_format)


def exchange_per_key(ds, keys, kernel, *, num_parts: int | None = None):
    """:func:`exchange` (``ds`` a Dataset or a list of them) plus the
    in-part sub-group loop: ``kernel(df)`` runs once per distinct key,
    on a pandas frame of that key's rows. Inside the part the key is
    ``dataops.composite_key_bytes`` (NUL-safe and injective; pandas'
    string hashtable truncates at NULs)."""
    import pandas as pd

    from .dataops import composite_key_bytes

    keys = [keys] if isinstance(keys, str) else list(keys)

    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        k = pd.Series(composite_key_bytes(*(g[c] for c in keys)),
                      index=g.index)
        outs = [kernel(sub) for _, sub in g.groupby(k, sort=False)]
        return pd.concat(outs, ignore_index=True)

    per_key.__name__ = getattr(kernel, "__name__", "per_part")
    return exchange(ds, keys, per_key, num_parts=num_parts)
