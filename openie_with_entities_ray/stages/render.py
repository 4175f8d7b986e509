"""Renderers for the reference's output formats (K1, K2) as batch kernels.

The reference appends to ``.oie`` / ``.allennlp`` / ``.conj`` / ``.labels``
files per batch (/root/reference/model.py:635-710 — unresumable partial
files on crash). Here each format is a pure kernel over the triples
table producing one text row per original sentence; the
sink is partitioned Parquet (or ``write_text``-style via a single column),
so output is idempotent and resumable. Used by the parity tests to compare
byte output against the reference's formats.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from ..functions.triples import (
    Triple,
    ext_to_allennlp,
    ext_to_sentence,
    ext_to_string,
)
from .exchange import exchange_per_key

_SENT_KEY = ["repo", "path", "commit", "sent_id"]


def render_oie_blocks(triples_ds, *, style: str = "labels"):
    """K1: per original sentence — the sentence line then one rendered
    extraction line per triple (model.py:640-651). ``style='sentences'``
    uses the ext_to_sentence form (run.py:238, model.py:642-645).

    Grouped per sentence with ``exchange_per_key`` (one Ray group per
    part, never per sentence); sorting by split_id, depth within the
    group keeps the reference's encounter order."""

    def render(group: pd.DataFrame) -> pd.DataFrame:
        group = group.sort_values(["split_id", "depth"], kind="mergesort")
        sentence = group["orig_sentence"].iloc[0]
        lines = [sentence]
        for a1, r, a2, c in zip(
            group["arg1"], group["rel"], group["arg2"], group["confidence"]
        ):
            t = Triple(a1, r, a2, c)
            lines.append(
                ext_to_sentence(t) if style == "sentences" else ext_to_string(t)
            )
        return pd.DataFrame(
            {
                "repo": [group["repo"].iloc[0]],
                "path": [group["path"].iloc[0]],
                "commit": [group["commit"].iloc[0]],
                "sent_id": [group["sent_id"].iloc[0]],
                "block": ["\n".join(lines)],
            }
        )

    return exchange_per_key(triples_ds, _SENT_KEY, render)


def render_allennlp_lines(triples_ds):
    """K2: one allennlp line per triple (model.py:648-654)."""

    def render(batch: pa.Table) -> pa.Table:
        lines = [
            ext_to_allennlp(s, Triple(a1, r, a2, c))
            for s, a1, r, a2, c in zip(
                batch.column("orig_sentence").to_pylist(),
                batch.column("arg1").to_pylist(),
                batch.column("rel").to_pylist(),
                batch.column("arg2").to_pylist(),
                batch.column("confidence").to_pylist(),
            )
        ]
        return pa.table(
            {
                "repo": batch.column("repo"),
                "path": batch.column("path"),
                "sent_id": batch.column("sent_id"),
                "line": pa.array(lines, pa.string()),
            }
        )

    return triples_ds.map_batches(render, batch_format="pyarrow")
