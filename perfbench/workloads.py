"""Seeded inputs for the benchmark's workloads.

Each input is a pure function of (workload, seed, size): the program under
test receives only the generated files, never the seed.

- ``prose_graph``: documents shaped like the sf ``documents.parquet`` table
  (one ~55-word sentence per document drawn from its 30-word vocabulary,
  ~5% ending in ``dup``, five languages, twenty sources), generated fresh
  per seed so every sentence is distinct and no word is a dictionary alias.
- ``code_shards``: ``synthetic_source_docs_table(n, seed)`` split into K
  Parquet shards, exactly the table the graph job reads.
- ``cli_splitpredict``: ``synthetic_sentence(i, seed)`` lines, the CLI's
  sentence-file input.
"""

from __future__ import annotations

import os
import random

import pyarrow as pa
import pyarrow.parquet as pq

WORKLOADS = ("prose_graph", "code_shards", "cli_splitpredict")

# Sizes of one timed run and of the warm-up run, chosen so a run takes a
# few seconds on 4 CPUs: the timed window then holds several runs and
# reports their median.
SIZES = {
    "prose_graph": {"docs": 2000, "files": 8, "warmup_docs": 100},
    "code_shards": {"docs": 1200, "shards": 3, "warmup_docs": 100},
    "cli_splitpredict": {"lines": 1000, "warmup_lines": 100},
}

WHY = {
    "prose_graph": (
        "long distinct prose sentences with no alias match: entity tagging "
        "and the canonicalize exchange do most of the work, unhidden by memos"
    ),
    "code_shards": (
        "the graph job's per-shard pipelines over code comments with "
        "coordinations: extraction dominates, entity and exchange bypassed"
    ),
    "cli_splitpredict": (
        "the CLI's two actor pools, grouped dedup shuffle and ordered writes "
        "from the main process over the same labeler and decoder kernels"
    ),
}

# The sf documents table's vocabulary and language mix.
_PROSE_VOCAB = (
    "a agg batch big column customer data fast filter group hash join key "
    "line merge order part query row scan slow small sort spark stream "
    "table the value vector window"
).split()
_PROSE_LANGS = ("en",) * 8 + ("zh", "zh", "es", "es", "fr", "fr", "de", "de")


def prose_docs_table(n: int, seed: int) -> pa.Table:
    """``n`` source_docs rows of seeded one-sentence prose."""
    rng = random.Random(f"prose:{seed}")
    texts, langs = [], []
    for _ in range(n):
        words = [rng.choice(_PROSE_VOCAB) for _ in range(rng.randint(10, 100))]
        if rng.random() < 0.05:
            words.append("dup")
        texts.append(" ".join(words))
        langs.append(rng.choice(_PROSE_LANGS))
    return pa.table(
        {
            "repo": pa.array([f"corpus/src{i % 20}" for i in range(n)]),
            "path": pa.array([f"docs/doc_{i}.txt" for i in range(n)]),
            "commit": pa.array([format(i, "012x") for i in range(n)]),
            "lang": pa.array(langs, pa.string()),
            "content": pa.array(texts, pa.string()),
        }
    )


def code_docs_table(n: int, seed: int) -> pa.Table:
    from openie_with_entities_ray.sources.source_docs import (
        synthetic_source_docs_table,
    )

    return synthetic_source_docs_table(n, seed)


def cli_lines(n: int, seed: int) -> list:
    from openie_with_entities_ray.sources.source_docs import synthetic_sentence

    return [synthetic_sentence(i, seed) for i in range(n)]


def _write_files(table: pa.Table, dest: str, k: int) -> list:
    """``table`` as ``k`` consecutive Parquet files under ``dest``."""
    os.makedirs(dest, exist_ok=True)
    n = table.num_rows
    bounds = [round(i * n / k) for i in range(k + 1)]
    paths = []
    for i in range(k):
        path = os.path.join(dest, f"part-{i:03d}.parquet")
        pq.write_table(table.slice(bounds[i], bounds[i + 1] - bounds[i]), path)
        paths.append(path)
    return paths


def write_inputs(workload: str, seed: int, dest: str, warmup: bool = False) -> dict:
    """Write one workload's input under ``dest``; returns its paths.

    The warm-up input uses a different seed stream than any timed input
    (``-1 - seed``) so no timed run reads data a warm-up already saw."""
    size = SIZES[workload]
    if warmup:
        seed = -1 - seed
    os.makedirs(dest, exist_ok=True)
    if workload == "prose_graph":
        n = size["warmup_docs" if warmup else "docs"]
        return {"docs": _write_files(prose_docs_table(n, seed), dest, size["files"])}
    if workload == "code_shards":
        n = size["warmup_docs" if warmup else "docs"]
        k = 1 if warmup else size["shards"]
        return {"shards": _write_files(code_docs_table(n, seed), dest, k)}
    if workload == "cli_splitpredict":
        n = size["warmup_lines" if warmup else "lines"]
        path = os.path.join(dest, "sentences.txt")
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(cli_lines(n, seed)) + "\n")
        return {"sentences": path}
    raise ValueError(f"unknown workload {workload!r}")
