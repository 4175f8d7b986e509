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
``resumable_materialize`` runs the same explode → extractor → edges
callables inside one task per run of an input row group, all pending
shards in one execution.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

from ..stages.canonical import canonicalize_surfaces
from ..stages.extract import (
    ConjSplitter,
    FusedExtractor,
    OIEExtractor,
    map_kernel,
)
from ..stages.entity import tag_entities
from ..stages.graph import (
    clear_partition,
    commit_partition,
    completed_partitions,
    dedup_edges,
    read_manifest,
    triples_to_edges,
    # resumable_materialize no longer calls it, but perfbench's tracer
    # patches ``flagship.write_partition`` by name (perfbench/session.py)
    write_partition,  # noqa: F401
)
from ..stages.group import dedup_topk_grouped
from ..stages.sentences import DOCS_BATCH, _explode_batch, docs_to_sentences


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


# A row group splits into at most this many work units, each a run of
# whole DOCS_BATCH batches (Ray's own read cut a one-file shard into 8
# blocks on 4 CPUs), so a shard of one large row group still spreads
# over the CPUs. A unit decodes the row group up to its own start, so the
# bound also caps that re-read at a few row groups' worth.
UNIT_SPLIT = 8


def _shard_units(part: int, path: str) -> list:
    """Work units of one input shard, from its Parquet footer: row group
    ``i``'s rows ``[start, stop)``, its batches dealt evenly over
    ``min(batches, UNIT_SPLIT)`` units. An empty row group has none."""
    meta = pq.ParquetFile(path).metadata
    units = []
    for i in range(meta.num_row_groups):
        n = meta.row_group(i).num_rows
        batches = -(-n // DOCS_BATCH)
        k = min(batches, UNIT_SPLIT)
        cuts = ([min(j * batches // k * DOCS_BATCH, n) for j in range(k + 1)]
                if n else [])
        units += [{"part": part, "path": path, "row_group": i,
                   "start": a, "stop": b} for a, b in zip(cuts, cuts[1:])]
    return units


class _EdgeUnitWriter:
    """One work unit of :func:`resumable_materialize`: rows
    ``[start, stop)`` of a row group ``i`` of an input shard →
    ``edges/part=<k>/rg-<i>-<start>.parquet``.

    The rows stream in ``DOCS_BATCH``-doc batches through the flagship's
    own callables (explode → fused extractor → edges). The file name is a
    function of the unit alone, so a retried task overwrites its own
    output; a unit without edges writes no file. Returns one
    ``(part, rows, busy_s)`` row per unit."""

    def __init__(self, edges_dir: str, seed: int, with_entities: bool):
        from ..stages.entity import FusedExtractorWithEntities

        self.edges_dir = edges_dir
        self.extract = (FusedExtractorWithEntities(seed=seed)
                        if with_entities else FusedExtractor(seed=seed))

    def __call__(self, units: pa.Table) -> pa.Table:
        import time

        rows, busy = [], []
        for u in units.to_pylist():
            t0 = time.perf_counter()
            rows.append(self.write_unit(**u))
            busy.append(time.perf_counter() - t0)
        return pa.table({"part": units.column("part"),
                         "rows": pa.array(rows, pa.int64()),
                         "busy_s": pa.array(busy, pa.float64())})

    def write_unit(self, part: int, path: str, row_group: int, start: int,
                   stop: int) -> int:
        dest = os.path.join(self.edges_dir, f"part={part}",
                            f"rg-{row_group}-{start}.parquet")
        writer, rows, at = None, 0, 0
        try:
            for rb in pq.ParquetFile(path).iter_batches(
                row_groups=[row_group], batch_size=DOCS_BATCH
            ):
                lo, at = at, at + rb.num_rows
                if at <= start:
                    continue
                docs = pa.Table.from_batches([rb]).slice(
                    max(start - lo, 0), stop - max(start, lo)
                )
                edges = triples_to_edges(self.extract(_explode_batch(docs)))
                if edges.num_rows:
                    if writer is None:
                        os.makedirs(os.path.dirname(dest), exist_ok=True)
                        writer = pq.ParquetWriter(dest, edges.schema)
                    writer.write_table(edges)
                    rows += edges.num_rows
                if at >= stop:
                    break
        finally:
            if writer is not None:
                writer.close()
        return rows


def resumable_materialize(
    input_shards,
    out_dir: str,
    *,
    seed: int = 777,
    resume: bool = True,
    with_entities: bool = False,
):
    """Resumable run over a list of input Parquet shard files.

    The unit of resume is the *input shard* (north-rule per-partition
    checkpoints): shard k's edges land in ``out_dir/edges/part=<k>/`` and
    its manifest records the shard path and content stamp
    (``memo._path_stamp``: bytes, newest mtime). A re-run skips every
    shard whose manifest exists — pruning happens before anything is
    read, so nothing upstream re-executes.

    The unit of *work* is a run of rows inside one row group: every
    pending shard's row groups (read from its Parquet footer), each cut
    into at most ``UNIT_SPLIT`` runs of whole ``DOCS_BATCH`` batches, run
    as tasks of ONE Ray execution (``_EdgeUnitWriter``). Small shards
    share the CPUs instead of paying an execution's fixed latency floor
    one after another, and one large row group still spreads over them.
    The driver commits a shard's manifest when its last unit reports, so
    checkpoints still land shard by shard; its ``elapsed_s`` is the sum
    of its units' task times. A shard without rows is committed at once
    with 0 rows. Pending partitions are cleared first (stale manifest and
    files of a crashed or non-resumed run alike).

    Partition k is bound to input_shards[k]: a resume whose list
    disagrees with a completed manifest's path, or whose shard changed
    since that manifest's stamp, fails loudly (same parameter-drift
    rule as jobs/scrub_job) — a reordered list or a rewritten shard
    would otherwise skip the wrong rows and double-count others.
    Manifests written before stamps existed resume on the path check.

    Returns (manifests_written sorted by partition, shards_skipped).
    """
    import ray.data

    from ..memo import _path_stamp

    edges_dir = f"{out_dir}/edges"
    done = completed_partitions(edges_dir) if resume else set()
    pending, skipped = {}, []
    for part, shard_path in enumerate(input_shards):
        shard_path = str(shard_path)
        stamp = _path_stamp(shard_path)
        stamp = stamp and list(stamp)  # as its JSON manifest reads back
        if part in done:
            recorded = read_manifest(edges_dir, part)
            for key, now in (("input", shard_path), ("stamp", stamp)):
                if recorded.get(key, now) != now:
                    raise ValueError(
                        f"resume mismatch: edges/part={part} was built "
                        f"from {key} {recorded[key]!r} but "
                        f"input_shards[{part}] has {now!r} — pass the "
                        "original, unchanged shards, or resume=False to "
                        "rebuild everything"
                    )
            skipped.append(part)
            continue
        pending[part] = {"input": shard_path, "stamp": stamp}

    def commit(part: int, rows: int, busy_s: float) -> dict:
        return commit_partition(edges_dir, part, {
            "partition": part, "rows": rows, "elapsed_s": round(busy_s, 3),
            **pending[part],
        })

    units, remaining, manifests = [], {}, []
    for part, lineage in pending.items():
        clear_partition(edges_dir, part)
        shard_units = _shard_units(part, lineage["input"])
        units += shard_units
        if shard_units:
            remaining[part] = len(shard_units)
        else:
            manifests.append(commit(part, 0, 0.0))
    if units:
        results = map_kernel(
            ray.data.from_items(units, override_num_blocks=len(units)),
            _EdgeUnitWriter, edges_dir=edges_dir, seed=seed,
            with_entities=with_entities,
        )
        rows, busy = dict.fromkeys(remaining, 0), dict.fromkeys(remaining, 0.0)
        for r in results.iter_rows():
            part = r["part"]
            rows[part] += r["rows"]
            busy[part] += r["busy_s"]
            remaining[part] -= 1
            if not remaining[part]:
                manifests.append(commit(part, rows[part], busy[part]))
    return sorted(manifests, key=lambda m: m["partition"]), skipped
