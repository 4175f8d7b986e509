"""Arrow schemas for every stage boundary (SURVEY.md §1.4).

One logical table per stage; blocks are Arrow tables end-to-end
(``map_batches(batch_format="pyarrow")``). Provenance keys
(repo, path, commit, sent_id, split_id, depth) ride along every row so no
stage ever needs a driver-side dict (the reference's ``mapping`` /
``conj_word_mapping`` dicts, run.py:163-226, become columns).

Each boundary is declared here once, and its producer emits it through
:func:`rows`:

- ``SOURCE_DOCS``: ``sources/source_docs.py`` (the synthetic corpus);
- ``SENTENCES``: ``stages/sentences.py:_explode_batch``;
- ``SPLIT_SENTENCES``: ``stages/extract.py:ConjSplitter``;
- ``TRIPLES``: ``stages/extract.py:FusedExtractor`` (``OIEExtractor``
  emits its input's carried fields plus ``TRIPLE_FIELDS``);
- ``ENTITY_TRIPLES``: ``stages/entity.py:FusedExtractorWithEntities``
  (``EntityTagger`` appends ``ENTITY_FIELDS`` to any triples table);
- ``SPLIT_ROWS``: ``stages/extract.py:SplitExtractor`` (the CLI's rows);
- ``EDGES``: ``stages/graph.py:triples_to_edges``;
- ``NODES``: ``stages/canonical.py:finalize``.
"""

from __future__ import annotations

import pyarrow as pa

# Input table per BASELINE.json input_hint.
SOURCE_DOCS = pa.schema(
    [
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("lang", pa.string()),
        ("content", pa.string()),
    ]
)

# source_docs + lineage column (north-rule invariant: per-row sha256 of
# content carried unchanged through the pipeline).
DOC_KEYS = [
    ("repo", pa.string()),
    ("path", pa.string()),
    ("commit", pa.string()),
    ("content_sha256", pa.string()),
]

SENTENCES = pa.schema(
    DOC_KEYS
    + [
        ("sent_id", pa.int64()),
        ("sentence", pa.string()),  # normalized, space-tokenized, marker-free
    ]
)

SPLIT_SENTENCES = pa.schema(
    DOC_KEYS
    + [
        ("sent_id", pa.int64()),
        ("split_id", pa.int64()),
        ("split_sentence", pa.string()),
        ("orig_sentence", pa.string()),
        ("conj_words", pa.list_(pa.string())),
        # the split's sorted original-word positions (run.py:246-291)
        ("split_indices", pa.list_(pa.int64())),
    ]
)

# one extraction: the fields a kernel adds per decoded triple
TRIPLE_FIELDS = [
    ("depth", pa.int64()),
    ("arg1", pa.string()),
    ("rel", pa.string()),
    ("arg2", pa.string()),
    ("confidence", pa.float64()),
]
TRIPLE_STRUCT = pa.struct(TRIPLE_FIELDS)

TRIPLES = pa.schema(
    DOC_KEYS
    + [
        ("sent_id", pa.int64()),
        ("split_id", pa.int64()),
        ("depth", pa.int64()),
        ("orig_sentence", pa.string()),
        ("arg1", pa.string()),
        ("rel", pa.string()),
        ("arg2", pa.string()),
        ("confidence", pa.float64()),
    ]
)

# linked entity ids/types per triple part and the c1-c4 violation flags
ENTITY_FIELDS = [
    ("subj_ents", pa.list_(pa.string())),
    ("subj_types", pa.list_(pa.string())),
    ("obj_ents", pa.list_(pa.string())),
    ("obj_types", pa.list_(pa.string())),
    ("rel_ents", pa.list_(pa.string())),
    ("viol_c1", pa.bool_()),
    ("viol_c2", pa.bool_()),
    ("viol_c3", pa.bool_()),
    ("viol_c4", pa.bool_()),
]

ENTITY_TRIPLES = pa.schema(list(TRIPLES) + ENTITY_FIELDS)

# one row per split of a sentence occurrence, carrying the split's
# surviving triples; first_sid orders the .oie writer's merge
SPLIT_ROWS = pa.schema(
    DOC_KEYS
    + [
        ("sent_id", pa.int64()),
        ("first_sid", pa.int64()),
        ("split_id", pa.int64()),
        ("split_sentence", pa.string()),
        ("orig_sentence", pa.string()),
        ("split_indices", pa.list_(pa.int64())),
        ("triples", pa.list_(TRIPLE_STRUCT)),
    ]
)

NODES = pa.schema(
    [
        ("node_id", pa.string()),
        ("surface_norm", pa.string()),
        ("surface", pa.string()),
        ("n_mentions", pa.int64()),
    ]
)

EDGES = pa.schema(
    [
        ("src", pa.string()),
        ("dst", pa.string()),
        ("rel", pa.string()),
        ("confidence", pa.float64()),
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("sent_id", pa.int64()),
    ]
)


def rows(schema: pa.Schema, batch: pa.Table, src, cols: dict) -> pa.Table:
    """A ``schema`` table built from a kernel's new columns and its input.

    A field named in ``cols`` becomes ``pa.array(cols[name], field.type)``;
    every other field is carried from ``batch``, by one Arrow take at the
    source-row indices ``src`` (``None``: every row, in order). The schema
    fixes column order and types, so a 0-row output is still typed: one
    null-typed block would corrupt the Dataset's schema (round-4
    mixed-block hazard)."""
    carried = batch.select([f.name for f in schema if f.name not in cols])
    if src is not None:
        carried = carried.take(pa.array(src, pa.int64()))
    return pa.table(
        [pa.array(cols[f.name], f.type) if f.name in cols
         else carried.column(f.name) for f in schema],
        schema=schema,
    )
