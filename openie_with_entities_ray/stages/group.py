"""Grouped per-sentence dedup + top-k (A1/A3) for detached inputs.

The fused flagship path and the CLI never need this (splits stay
row-co-located in stages/extract.py, and the CLI's ``--split_fp`` blocks
enter its kernel as one row each). This stage exists for the staged
pipeline (``fused=False``) and for merging prediction sets: a
hash-partition ``groupby`` on the original-sentence identity, then a
per-group kernel that sorts by (split_id, depth) — Ray gives no arrival-
order guarantee, and the reference's dedup is first-wins in encounter
order (model.py:595-634) — before exact dedup and stable top-k
(metric.py:435-438).
"""

from __future__ import annotations

import pandas as pd

from ..functions.triples import Triple, dedup_exact, top_k

GROUP_KEY = ["repo", "path", "commit", "sent_id"]


def _dedup_topk_group(group: pd.DataFrame, num_extractions: int) -> pd.DataFrame:
    group = group.sort_values(["split_id", "depth"], kind="mergesort")
    triples = [
        Triple(a1, r, a2, c)
        for a1, r, a2, c in zip(
            group["arg1"], group["rel"], group["arg2"], group["confidence"]
        )
    ]
    kept = top_k(dedup_exact(triples), num_extractions)
    seen = set()
    for t in kept:
        seen.add((t.arg1, t.rel, t.arg2, t.confidence))
    mask = [
        (a1, r, a2, c) in seen
        for a1, r, a2, c in zip(
            group["arg1"], group["rel"], group["arg2"], group["confidence"]
        )
    ]
    out = group[mask]
    # a dedup-key survivor may match several rows (same triple from several
    # splits); keep only the first in encounter order per dedup key
    out = out.drop_duplicates(subset=["arg1", "rel", "arg2"], keep="first")
    return out


def dedup_topk_grouped(triples_ds, num_extractions: int = 5,
                       num_parts: int | None = None):
    """Shuffled variant of the reference's per-sentence accumulator.

    Scale shape: coarse hash partition of the sentence identity
    (cluster-scaled part count) with a pandas sub-group loop inside each
    part — never ``groupby(GROUP_KEY)`` directly, which pays Ray's
    ~1 ms/group on one group PER SENTENCE (the ``distinct_pairs`` idiom,
    dataops.py:121). crc32 runs over the raw key bytes, so the partition
    is safe for any content; the in-part pandas groupby is on the
    component columns (not a joined string), so it is NUL-safe too."""
    import zlib

    import pyarrow as pa

    from .dataops import _cluster_parts

    if num_parts is None:
        num_parts = _cluster_parts()

    from .dataops import composite_key_bytes

    def add_part(batch: pa.Table) -> pa.Table:
        keys = composite_key_bytes(
            batch.column("repo").to_pylist(),
            batch.column("path").to_pylist(),
            batch.column("commit").to_pylist(),
            batch.column("sent_id").to_pylist(),
        )
        parts = [zlib.crc32(k) % num_parts for k in keys]
        return batch.append_column("__gpart", pa.array(parts, pa.int64()))

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        # injective NUL-safe composite bytes key (dataops docstring)
        g = g.assign(
            _k=composite_key_bytes(
                g["repo"], g["path"], g["commit"], g["sent_id"]
            )
        )
        outs = [
            _dedup_topk_group(sub, num_extractions)
            for _, sub in g.groupby("_k", sort=False)
        ]
        out = pd.concat(outs) if outs else g.iloc[0:0]
        return out.drop(columns=["_k", "__gpart"])

    return (
        triples_ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("__gpart")
        .map_groups(per_part, batch_format="pandas")
    )


def merge_prediction_sets(ds_a, ds_b, num_extractions: int = 5):
    """J5 (utils/merge_output_files.py:4-70): union two triple sets, drop
    exact dups per sentence, keep top-k by confidence."""
    return dedup_topk_grouped(ds_a.union(ds_b), num_extractions)
