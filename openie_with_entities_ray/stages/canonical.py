"""Canonicalization shuffle: surface forms → canonical entity IDs.

North-star stage: a groupby-aggregate that clusters argument surface forms
into canonical ids. Surface normalization follows the reference's
predicate/entity normalizer (strip punctuation, lower, collapse spaces —
/root/reference/scripts/pubmed_analysis.py:22-31).

Skew design (north rule "salted keys for skewed popular entities"):
popular surfaces (Zipf heads) are pre-aggregated *inside* ``map_batches``
— each batch emits at most one partial row per distinct surface — so the
all-to-all ``groupby`` moves O(distinct-per-batch) rows, not O(rows);
the hot key's traffic is already combined per-block, which is the salted
two-phase aggregation in its Ray Data form.

Canonical id = sha256 of the normalized surface (content-addressed: no
global counter, no coordination, stable across cluster sizes; sha256 so
the DuckDB oracle can recompute it — DuckDB has no sha1).
"""

from __future__ import annotations

import hashlib
import string
from collections import Counter

import pyarrow as pa

from .exchange import exchange

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def normalize_surface(text: str) -> str:
    """pubmed_analysis.py:23-25: strip punctuation, lower, single spaces."""
    return " ".join(text.translate(_PUNCT_TABLE).lower().split())


def canonical_id(norm_surface: str) -> str:
    return "C" + hashlib.sha256(norm_surface.encode("utf-8")).hexdigest()[:16]


_ENT_COL_OF = {"arg1": "subj_ents", "arg2": "obj_ents"}


def _partial_counts(batch: pa.Table) -> pa.Table:
    """Per-batch combiner: (surface col) → one row per distinct node key
    with its partial count + an example raw surface.

    Entity-aware: when the triples carry entity columns, an argument
    that linked to EXACTLY ONE entity becomes that entity's node (the
    same ``node_of`` rule graph.triples_to_edges applies to edge
    endpoints — keeping the nodes table referentially closed over the
    edges it ships with); all other arguments canonicalize by
    normalized surface as before. ``is_ent`` rides along so the merge
    and finalize phases keep the two key spaces separate."""
    counts: Counter = Counter()
    example = {}
    for col in ("arg1", "arg2"):
        if col not in batch.column_names:
            continue
        ents_col = _ENT_COL_OF[col]
        ents = (
            batch.column(ents_col).to_pylist()
            if ents_col in batch.column_names
            else [None] * batch.num_rows
        )
        for v, es in zip(batch.column(col).to_pylist(), ents):
            v = v or ""
            if es is not None and len(es) == 1:
                key = (es[0], True)
            else:
                # empty/punctuation-only arguments are real nodes: edges
                # key them to canonical_id('') (graph.node_of), so
                # dropping them here would dangle those endpoints
                key = (normalize_surface(v), False)
            counts[key] += 1
            # per-batch example = lexicographic MIN raw surface, so the
            # global Min aggregate is the true corpus-wide min regardless
            # of how rows landed in batches (deterministic at any
            # parallelism, and SQL-reproducible as min(arg))
            prev = example.get(key)
            if prev is None or v < prev:
                example[key] = v
    keys = list(counts)
    return pa.table(
        {
            "surface_norm": pa.array([k for k, _ in keys], pa.string()),
            "is_ent": pa.array([e for _, e in keys], pa.bool_()),
            "surface": pa.array([example[k] for k in keys], pa.string()),
            "n_mentions": pa.array([counts[k] for k in keys], pa.int64()),
        }
    )


def canonicalize_surfaces(triples_ds, num_parts: int | None = None):
    """triples → nodes table (node_id, surface_norm, surface, n_mentions).

    Two-phase aggregate: per-batch partials (combiner) → ``exchange``
    on the surface → ONE Arrow hash aggregate per part. The
    'surface' kept per canonical id is the lexicographic min of the
    per-batch examples (deterministic under any partitioning).

    Entity-tagged triples (subj_ents/obj_ents columns present) follow
    graph.triples_to_edges' ``node_of`` rule: a uniquely-linked argument
    contributes its ENTITY node (node_id = the linked id, surface_norm
    carries that id) instead of a surface node, so the emitted nodes
    table covers every edge endpoint — no dangling ids.

    Scale shape: the merge groups by a cluster-scaled part key, never by
    ``surface_norm`` directly — Ray pays ~1 ms of Python per aggregate
    group (measured, BASELINE.md tail), so one group per distinct
    surface walls at corpus scale. Inside the part one Arrow hash
    aggregate merges the partials. Arrow hashes a string by its length
    and bytes, so surfaces that differ only after an embedded NUL stay
    distinct; its string ``min`` is utf-8 byte order, which equals the
    code-point ``<`` the combiner uses, so the kept surface is the
    corpus-wide min. (pandas' ``min`` on an object column runs one
    Python call per group, and its string hashtable truncates at NULs.)"""

    # a named wrapper: the Ray operator is called ``partial``, and the
    # module-global lookup keeps ``_partial_counts`` patchable
    def partial(batch: pa.Table) -> pa.Table:
        return _partial_counts(batch)

    return merge_partials(
        triples_ds.map_batches(partial, batch_format="pyarrow"),
        num_parts=num_parts,
    )


def merge(g: pa.Table) -> pa.Table:
    """One part's :func:`_partial_counts` rows → one row per node key."""
    out = g.group_by(
        ["surface_norm", "is_ent"], use_threads=False
    ).aggregate([("surface", "min"), ("n_mentions", "sum")])
    return out.select(
        ["surface_norm", "is_ent", "surface_min", "n_mentions_sum"]
    ).rename_columns(["surface_norm", "is_ent", "surface", "n_mentions"])


def finalize(batch: pa.Table) -> pa.Table:
    """Merged rows → nodes table rows (node ids assigned)."""
    norms = batch.column("surface_norm").to_pylist()
    is_ent = batch.column("is_ent").to_pylist()
    return pa.table(
        {
            # entity rows keep the linked id verbatim (the id the
            # edge endpoints carry); surface rows content-address
            "node_id": pa.array(
                [n if e else canonical_id(n)
                 for n, e in zip(norms, is_ent)],
                pa.string(),
            ),
            "surface_norm": batch.column("surface_norm"),
            "surface": batch.column("surface"),
            "n_mentions": batch.column("n_mentions"),
        }
    )


def merge_partials(partials_ds, num_parts: int | None = None):
    """:func:`_partial_counts` rows → nodes table: ``exchange`` on the
    surface, ONE Arrow hash aggregate per part (:func:`merge`), then node
    ids (:func:`finalize`). The partial rows come from
    :func:`canonicalize_surfaces`' ``partial`` map or from the graph
    writer task of ``pipelines/flagship.py:materialize_graph``."""
    agg = exchange(partials_ds, "surface_norm", merge, num_parts=num_parts,
                   batch_format="pyarrow")
    return agg.map_batches(finalize, batch_format="pyarrow")


def predicate_frequencies(triples_ds, num_parts: int | None = None):
    """A7 skew probe (pubmed_analysis.py:22-31): normalized predicate →
    count, sorted desc. Same combiner → coarse-partition merge shape as
    :func:`canonicalize_surfaces` (one Ray group per PART, not per
    distinct predicate; a NUL-safe Arrow hash aggregate inside the
    part)."""

    def partial(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        for v in batch.column("rel").to_pylist():
            norm = normalize_surface(v or "")
            if norm:
                counts[norm] += 1
        norms = list(counts)
        return pa.table(
            {
                "rel_norm": pa.array(norms, pa.string()),
                "n": pa.array([counts[x] for x in norms], pa.int64()),
            }
        )

    def merge(g: pa.Table) -> pa.Table:
        out = g.group_by("rel_norm", use_threads=False).aggregate(
            [("n", "sum")]
        )
        return out.select(["rel_norm", "n_sum"]).rename_columns(
            ["rel_norm", "n"]
        )

    return exchange(
        triples_ds, "rel_norm", merge, combine=partial, num_parts=num_parts,
        batch_format="pyarrow",
    ).sort("n", descending=True)
