"""Flagship pipeline: source_docs → sentences → triples → entities → graph.

Ray-Data-native splitpredict analogue (/root/reference/run.py:161-243):

    read_parquet(source_docs)
      → map_batches: sentence explode + sha256 lineage   (stateless tasks)
      → map_kernel(FusedExtractor[WithEntities])         (tasks, one kernel
          per worker process: conj-split + OIE label + decode +
          per-sentence dedup/top-k [+ entity tagging], zero shuffle —
          see stages/extract.py)
      → [groupby canonicalization / edge dedup / partitioned write]

Everything is lazy/streaming; nothing materializes the corpus.
"""

from __future__ import annotations

import os

from ..stages.canonical import canonicalize_surfaces
from ..stages.extract import (
    ConjSplitter,
    FusedExtractor,
    OIEExtractor,
    map_kernel,
)
from ..stages.entity import tag_entities
from ..stages.graph import (
    completed_partitions,
    dedup_edges,
    manifest_input as _manifest_input,
    triples_to_edges,
    write_partition,
)
from ..stages.group import dedup_topk_grouped
from ..stages.sentences import docs_to_sentences


def extract_triples(
    docs_ds,
    *,
    seed: int = 777,
    num_extractions: int = 5,
    no_lt: bool = False,
    fused: bool = True,
    batch_size: int = 512,
    labeler_spec: dict | None = None,
):
    """source_docs Dataset → final triples Dataset (TRIPLES schema).

    ``labeler_spec`` selects the grid labeler per kernel (see
    state/labeler.py:make_labeler) — e.g. ``{"kind": "grid",
    "oie_weights": "w.npz", "conj_weights": "w.npz"}`` runs the numpy
    BERT forward inside the tasks instead of the surrogate."""
    sentences = docs_to_sentences(docs_ds)
    if fused:
        return map_kernel(
            sentences, FusedExtractor, batch_size=batch_size, seed=seed,
            num_extractions=num_extractions, no_lt=no_lt,
            labeler_spec=labeler_spec,
        )
    # staged variant: conj-split stage → OIE stage → grouped dedup/top-k
    splits = map_kernel(
        sentences, ConjSplitter, batch_size=batch_size, seed=seed,
        labeler_spec=labeler_spec,
    ).drop_columns(["conj_words", "split_indices"])
    raw = map_kernel(
        splits, OIEExtractor, batch_size=batch_size, seed=seed, no_lt=no_lt,
        labeler_spec=labeler_spec,
    )
    return dedup_topk_grouped(raw, num_extractions)


def extract_triples_with_entities(docs_ds, ent_backend: str = "dictionary",
                                  fused: bool = True, **kwargs):
    """Fused default: extraction + entity tagging in one kernel
    (stages/entity.py:FusedExtractorWithEntities — saves an object-store
    round trip of the full triples table). The staged path keeps the two
    stages separate."""
    if fused:
        from ..stages.entity import FusedExtractorWithEntities

        seed = kwargs.pop("seed", 777)
        num_extractions = kwargs.pop("num_extractions", 5)
        no_lt = kwargs.pop("no_lt", False)
        labeler_spec = kwargs.pop("labeler_spec", None)
        batch_size = kwargs.pop("batch_size", 512)
        if kwargs:
            # the staged branch would raise via extract_triples(**kwargs);
            # a silently-dropped typo (num_extraction=) must not run with
            # defaults here either
            raise TypeError(
                f"unexpected keyword arguments: {sorted(kwargs)}"
            )
        return map_kernel(
            docs_to_sentences(docs_ds), FusedExtractorWithEntities,
            batch_size=batch_size, seed=seed,
            num_extractions=num_extractions, no_lt=no_lt,
            backend=ent_backend, labeler_spec=labeler_spec,
        )
    return tag_entities(extract_triples(docs_ds, fused=False, **kwargs),
                        backend=ent_backend)


def build_graph(triples_ds, *, deduped: bool = True):
    """triples → (nodes_ds, edges_ds)."""
    nodes = canonicalize_surfaces(triples_ds)
    edges = triples_ds.map_batches(triples_to_edges, batch_format="pyarrow")
    if deduped:
        edges = dedup_edges(edges)
    return nodes, edges


def materialize_graph(docs_ds, out_dir: str, *, seed: int = 777,
                      with_entities: bool = True,
                      ent_backend: str = "dictionary"):
    """End-to-end run: triples → Parquet once, then edges + nodes as two
    cheap scans OF THAT PARQUET. Both sinks need the full triples table;
    at 100 TB the scale-safe fan-out is durable storage (one streaming
    write, column-pruned re-reads), not ``materialize()`` pinning the
    whole table in the object store and spilling it. The triples Parquet
    doubles as the pipeline's checkpoint output.

    Stale outputs from a previous (possibly crashed) run are DELETED
    first: Ray's write_parquet appends fresh-UUID files, so without the
    cleanup a re-run would read both generations of triples and silently
    double-count (same rationale as stages/graph.py:write_partition)."""
    import shutil

    import ray.data

    for sub in ("triples", "edges", "nodes"):
        path = os.path.join(out_dir, sub)
        if os.path.isdir(path):
            shutil.rmtree(path)

    triples = (
        extract_triples_with_entities(docs_ds, seed=seed,
                                      ent_backend=ent_backend)
        if with_entities
        else extract_triples(docs_ds, seed=seed)
    )
    triples.write_parquet(f"{out_dir}/triples")

    edge_cols = [
        "arg1", "arg2", "rel", "confidence", "repo", "path", "commit",
        "sent_id",
    ] + (["subj_ents", "obj_ents"] if with_entities else [])
    tri = ray.data.read_parquet(f"{out_dir}/triples", columns=edge_cols)
    tri.map_batches(
        triples_to_edges, batch_format="pyarrow"
    ).write_parquet(f"{out_dir}/edges")
    node_cols = ["arg1", "arg2"] + (
        ["subj_ents", "obj_ents"] if with_entities else []
    )  # entity columns so nodes cover entity-substituted edge endpoints
    canonicalize_surfaces(
        ray.data.read_parquet(f"{out_dir}/triples", columns=node_cols)
    ).write_parquet(f"{out_dir}/nodes")


def resumable_materialize(
    input_shards,
    out_dir: str,
    *,
    seed: int = 777,
    resume: bool = True,
    with_entities: bool = False,
):
    """Resumable run over a list of input Parquet shards.

    The unit of resume is the *input shard* (north-rule per-partition
    checkpoints): each shard runs the full streaming pipeline and writes
    ``out_dir/edges/part=<k>/`` plus a manifest carrying the shard path and
    its input row sha. A re-run skips every shard whose manifest exists —
    pruning happens at the read, so nothing upstream re-executes (unlike a
    post-hoc filter on the output). At cluster scale input_shards are the
    source-table files; per-shard pipelines still stream block-by-block.

    Partition k is bound to input_shards[k]: each manifest records its
    shard path, and a resume whose list disagrees with a completed
    manifest fails loudly (same parameter-drift rule as jobs/scrub_job)
    — a silently reordered/prepended list would otherwise skip the
    wrong shard and double-count another.

    Returns (manifests_written, shards_skipped).
    """
    import ray.data

    edges_dir = f"{out_dir}/edges"
    done = completed_partitions(edges_dir) if resume else set()
    manifests, skipped = [], []
    for part, shard_path in enumerate(input_shards):
        if part in done:
            recorded = _manifest_input(edges_dir, part)
            if recorded is not None and recorded != str(shard_path):
                raise ValueError(
                    f"resume mismatch: edges/part={part} was built from "
                    f"{recorded!r} but input_shards[{part}] is "
                    f"{shard_path!r} — pass the original shard list, or "
                    "resume=False to rebuild everything"
                )
            skipped.append(part)
            continue
        docs = ray.data.read_parquet(shard_path)
        triples = (
            extract_triples_with_entities(docs, seed=seed)
            if with_entities
            else extract_triples(docs, seed=seed)
        )
        edges = triples.map_batches(triples_to_edges, batch_format="pyarrow")
        manifests.append(
            write_partition(
                edges, edges_dir, part, extra_meta={"input": str(shard_path)}
            )
        )
    return manifests, skipped
