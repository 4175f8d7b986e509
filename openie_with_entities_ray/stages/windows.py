"""Partitioned window functions: running aggregates and lag/lead deltas.

The reference has no window operators (its analytics are corpus-wide
accumulators, run.py predict path); these are the training-data-pipeline
analogues of SQL ``... OVER (PARTITION BY k ORDER BY o)`` — per-entity
running totals and inter-event gaps — built on the repo's standard
coarse-partition shape:

- ONE shuffle: ``stages/exchange.py:exchange`` on ``part_col`` (a
  cluster-scaled part count), never one Ray group per partition key
  (~1 ms of Python per Ray aggregate group is a wall at 1e8 users);
- inside each part a single vectorized pandas sort + groupby-transform
  computes every key's window at once.

Partition-key co-location is the documented assumption: all rows of one
key land in one part (guaranteed by the hash), so window frames never
span Ray groups. ``running_sum`` / ``lag_delta`` are
rows-unbounded-preceding frames; ``range_rolling`` is the bounded
RANGE-interval frame over the same scaffold.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .exchange import exchange


def running_sum(ds, *, part_col: str, order_cols: list,
                value_col: str, out_col: str = "running_sum",
                keep_cols: list | None = None,
                num_parts: int | None = None):
    """``SUM(value) OVER (PARTITION BY part_col ORDER BY order_cols
    ROWS UNBOUNDED PRECEDING)``. ``order_cols`` must end in a unique
    tiebreaker or ties make the prefix order (and thus the running
    value) nondeterministic. Integer value columns stay integer-exact
    (pandas cumsum over int64)."""
    if keep_cols is None:
        keep_cols = [part_col] + list(order_cols)
    out_cols = list(keep_cols) + [out_col]

    def kernel(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([part_col] + list(order_cols), kind="mergesort")
        df[out_col] = df.groupby(part_col, sort=False)[value_col].cumsum()
        return df[out_cols]

    return exchange(ds, part_col, kernel, num_parts=num_parts)


def range_rolling(ds, *, part_col: str, ts_col: str,
                  preceding: int, value_col: str | None = None,
                  out_count: str = "n_win", out_sum: str = "sum_win",
                  keep_cols: list | None = None,
                  num_parts: int | None = None):
    """``COUNT(*) / SUM(value) OVER (PARTITION BY part_col ORDER BY
    ts_col RANGE BETWEEN <preceding> PRECEDING AND CURRENT ROW)`` — the
    bounded time-interval frame (``ts_col`` and ``preceding`` share one
    integer unit, e.g. epoch microseconds).

    SQL RANGE semantics exactly: the frame is every peer row of the same
    key with ``ts in [t - preceding, t]``, both bounds inclusive, and
    rows tying on ``ts`` share one frame (so no tiebreaker is needed —
    the answer is order-independent within ties, unlike ROWS frames).

    Kernel: one sort per part, then per key a pair of binary searches
    over the key's sorted ``ts`` vector (``np.searchsorted`` left at
    ``t - preceding``, right at ``t``) and an exact int64 prefix-sum
    difference for the windowed sum — O(n log n) per key, no pairwise
    expansion, integer-exact when ``value_col`` is int64."""
    if keep_cols is None:
        keep_cols = [part_col, ts_col]
    out_cols = list(keep_cols) + [out_count] + (
        [out_sum] if value_col is not None else []
    )

    def kernel(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([part_col, ts_col], kind="mergesort")
        ts = df[ts_col].to_numpy(dtype="int64")
        codes = pd.factorize(df[part_col], sort=False)[0]
        # group boundaries in the (key, ts)-sorted frame
        starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
        ends = np.r_[starts[1:], len(codes)]
        n_win = np.empty(len(ts), dtype="int64")
        if value_col is not None:
            vals = df[value_col].to_numpy(dtype="int64")
            s_win = np.empty(len(ts), dtype="int64")
        for s, e in zip(starts, ends):
            t = ts[s:e]
            lo = np.searchsorted(t, t - preceding, side="left")
            hi = np.searchsorted(t, t, side="right")
            n_win[s:e] = hi - lo
            if value_col is not None:
                prefix = np.r_[0, np.cumsum(vals[s:e])]
                s_win[s:e] = prefix[hi] - prefix[lo]
        df[out_count] = n_win
        if value_col is not None:
            df[out_sum] = s_win
        return df[out_cols]

    return exchange(ds, part_col, kernel, num_parts=num_parts)


def lag_delta(ds, *, part_col: str, order_cols: list, value_col: str,
              out_col: str = "delta", keep_cols: list | None = None,
              drop_first: bool = True, num_parts: int | None = None):
    """``value - LAG(value) OVER (PARTITION BY part_col ORDER BY
    order_cols)``. With ``drop_first`` (default) each key's first row —
    whose lag is NULL — is dropped, so the output dtype stays exact
    int64 instead of a nullable float; pass False to keep NaN deltas.
    ``order_cols`` must end in a unique tiebreaker."""
    if keep_cols is None:
        keep_cols = [part_col] + list(order_cols)
    out_cols = list(keep_cols) + [out_col]

    def kernel(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([part_col] + list(order_cols), kind="mergesort")
        # nullable Int64 keeps the diff in the integer domain — a plain
        # int64 diff() round-trips through float64, which corrupts
        # values past 2**53 (e.g. nanosecond timestamps)
        vals = df[value_col]
        if pd.api.types.is_integer_dtype(vals):
            vals = vals.astype("Int64")
        df[out_col] = vals.groupby(
            df[part_col], sort=False
        ).diff()
        if drop_first:
            df = df[df[out_col].notna()].copy()
            df[out_col] = df[out_col].astype("int64")
        return df[out_cols]

    return exchange(ds, part_col, kernel, num_parts=num_parts)
