"""Grouped per-sentence dedup + top-k (A1/A3) for detached inputs.

The flagship path and the CLI never need this (splits stay
row-co-located in stages/extract.py, and the CLI's ``--split_fp`` blocks
enter its kernel as one row each). :func:`dedup_topk_grouped` merges
prediction sets that arrive detached, e.g. a union of two prediction
files (COVERAGE.md J5): a coarse exchange on the original-sentence
identity, then a per-group kernel that sorts by (split_id, depth) — Ray
gives no arrival-order guarantee, and the reference's dedup is
first-wins in encounter order (model.py:595-634) — before exact dedup
and stable top-k (metric.py:435-438). :func:`_dedup_topk_group` is also
the per-sentence step of the stage-by-stage reference (ConjSplitter →
OIEExtractor → this) that the benchmark's serial replay and the tests
compare the fused kernels against.
"""
from __future__ import annotations

import pandas as pd

from ..functions.triples import Triple, dedup_exact, top_k
from .exchange import exchange_per_key

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
    """Shuffled variant of the reference's per-sentence accumulator:
    ``exchange_per_key`` on the sentence identity (one Ray group per
    PART, never per sentence), then :func:`_dedup_topk_group` per
    sentence."""

    def dedup_topk(sentence: pd.DataFrame) -> pd.DataFrame:
        return _dedup_topk_group(sentence, num_extractions)

    return exchange_per_key(
        triples_ds, GROUP_KEY, dedup_topk, num_parts=num_parts
    )
