"""Offline training-data pipeline (O18 as a Ray stage).

Input: rows of (sentence, extraction_line) where extraction_line is a
bootstrapped OpenIE-4/5 result line (``conf (arg1; rel; arg2; ...)``).
Output: the S2 labels-file table — (sentence, tags rows) for sentences
whose extractions aligned completely — written as Parquet or rendered to
the reference's blank-line-separated labels format.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from ..functions.labelgen import build_tags, make_extraction, parse_openie_line
from .exchange import exchange


def align_extractions(ds, max_rows_per_sentence: int = 5):
    """(sentence, extraction_line) rows → (sentence, tags list<list<str>>).

    Per-sentence grouping keeps the reference's per-example row cap
    (data.py:260) — the first ``max_rows_per_sentence`` rows of each
    sentence within its part of an ``exchange`` on the sentence;
    alignment itself is per-row and embarrassingly parallel."""

    def align(batch: pa.Table) -> pa.Table:
        sentences = batch.column("sentence").to_pylist()
        lines = batch.column("extraction_line").to_pylist()
        out_sent, out_tags = [], []
        for sentence, line in zip(sentences, lines):
            parsed = parse_openie_line(line)
            if parsed is None:
                continue
            conf, arg1, arg2, args, time_args, loc_args, rel = parsed
            ext = make_extraction(
                sentence, conf, arg1, rel, arg2,
                args=args, loc_args=loc_args, time_args=time_args,
            )
            tags = build_tags(ext)
            if tags is not None:
                out_sent.append(sentence)
                out_tags.append(tags)
        return pa.table(
            {
                "sentence": pa.array(out_sent, pa.string()),
                "tags": pa.array(out_tags, pa.list_(pa.string())),
            }
        )

    aligned = ds.map_batches(align, batch_format="pyarrow")

    def cap(part: pa.Table) -> pa.Table:
        # Arrow-native first-N (a filter): keeps tags as list<string>
        # blocks (a pandas block turns the list column into object
        # ndarrays that cannot convert back to Arrow for downstream
        # sort/write stages). The sentence key is NUL-safe bytes.
        from .dataops import composite_key_bytes

        key = pd.Series(
            composite_key_bytes(part.column("sentence").to_pylist())
        )
        rank = key.groupby(key, sort=False).cumcount().to_numpy()
        return part.filter(pa.array(rank < max_rows_per_sentence))

    return exchange(aligned, "sentence", cap, batch_format="pyarrow")


def write_labels_file(aligned_ds, path: str) -> int:
    """Streaming S2-format sink (the scale path of render_labels_file).

    Distributed sort by sentence co-locates each sentence's tag rows,
    then batches stream through the driver one at a time — peak driver
    memory is one batch, not the corpus. Returns the number of sentence
    blocks written. Output ordering is lexicographic by sentence (the
    format itself is order-insensitive: the S2 reader keys on the
    sentence line of each block)."""
    n = 0
    prev_sent = None
    with open(path, "w") as fh:
        for batch in aligned_ds.sort("sentence").iter_batches(
            batch_format="pyarrow"
        ):
            for sentence, tags in zip(
                batch.column("sentence").to_pylist(),
                batch.column("tags").to_pylist(),
            ):
                if sentence != prev_sent:
                    if prev_sent is not None:
                        fh.write("\n")
                    fh.write(sentence + " [unused1] [unused2] [unused3]\n")
                    prev_sent = sentence
                    n += 1
                fh.write(" ".join(tags) + "\n")
    return n


def render_labels_file(aligned_ds) -> str:
    """Blank-line-separated S2 format (data.py:256-309 reader's input).

    Fixture-scale only (drains take_all into a driver dict) — use
    :func:`write_labels_file` for anything larger."""
    blocks = []
    import collections

    by_sent = collections.defaultdict(list)
    for r in aligned_ds.take_all():
        by_sent[r["sentence"]].append(list(r["tags"]))
    for sentence in by_sent:
        lines = [sentence + " [unused1] [unused2] [unused3]"]
        for tags in by_sent[sentence]:
            lines.append(" ".join(tags))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
