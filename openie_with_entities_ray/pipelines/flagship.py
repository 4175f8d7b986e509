"""Flagship pipeline: source_docs → sentences → triples → entities → graph.

Ray-Data-native splitpredict analogue (/root/reference/run.py:161-243):

    read_parquet(source_docs)
      → map_batches: sentence explode + sha256 lineage   (stateless tasks)
      → map_kernel(FusedExtractor[WithEntities])         (tasks, one kernel
          per worker process: conj-split + OIE label + decode +
          per-sentence dedup/top-k [+ entity tagging], zero shuffle —
          see stages/extract.py)
      → [groupby canonicalization / edge dedup / partitioned write]

Everything is lazy/streaming; nothing materializes the corpus. The two
graph writers run the same explode → extractor → edges body per docs
batch (``_graph_batch``) inside their tasks, each in ONE Ray execution:
``materialize_graph`` writes triples and edges from the extraction task
and sends only the canonicalize partials through the nodes exchange;
``resumable_materialize`` runs one task per run of an input row group,
all pending shards together.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

from .. import schemas
from ..stages import canonical
from ..stages.canonical import canonicalize_surfaces, merge_partials
from ..stages.extract import FusedExtractor, map_kernel
from ..stages.graph import (
    clear_partition,
    commit_partition,
    dedup_edges,
    pending_partitions,
    shard_lineage,
    triples_to_edges,
    # resumable_materialize no longer calls it, but perfbench's tracer
    # patches ``flagship.write_partition`` by name (perfbench/session.py)
    write_partition,  # noqa: F401
)
from ..stages.sentences import DOCS_BATCH, _explode_batch, docs_to_sentences


def extract_triples(
    docs_ds,
    *,
    seed: int = 777,
    num_extractions: int = 5,
    no_lt: bool = False,
    batch_size: int = 512,
    labeler_spec: dict | None = None,
):
    """source_docs Dataset → final triples Dataset (TRIPLES schema).

    ``labeler_spec`` selects the grid labeler per kernel (see
    state/labeler.py:make_labeler) — e.g. ``{"kind": "grid",
    "oie_weights": "w.npz", "conj_weights": "w.npz"}`` runs the numpy
    BERT forward inside the tasks instead of the surrogate."""
    return map_kernel(
        docs_to_sentences(docs_ds), FusedExtractor, batch_size=batch_size,
        seed=seed, num_extractions=num_extractions, no_lt=no_lt,
        labeler_spec=labeler_spec,
    )


def extract_triples_with_entities(
    docs_ds,
    ent_backend: str = "dictionary",
    *,
    seed: int = 777,
    num_extractions: int = 5,
    no_lt: bool = False,
    batch_size: int = 512,
    labeler_spec: dict | None = None,
):
    """Extraction + entity tagging in one kernel
    (stages/entity.py:FusedExtractorWithEntities — saves an object-store
    round trip of the full triples table)."""
    from ..stages.entity import FusedExtractorWithEntities

    return map_kernel(
        docs_to_sentences(docs_ds), FusedExtractorWithEntities,
        batch_size=batch_size, seed=seed, num_extractions=num_extractions,
        no_lt=no_lt, backend=ent_backend, labeler_spec=labeler_spec,
    )


def build_graph(triples_ds, *, deduped: bool = True):
    """triples → (nodes_ds, edges_ds)."""
    nodes = canonicalize_surfaces(triples_ds)
    edges = triples_ds.map_batches(triples_to_edges, batch_format="pyarrow")
    if deduped:
        edges = dedup_edges(edges)
    return nodes, edges


def _extractor(seed: int, with_entities: bool,
               ent_backend: str = "dictionary"):
    """The fused extraction kernel of the graph writers."""
    if with_entities:
        from ..stages.entity import FusedExtractorWithEntities

        return FusedExtractorWithEntities(seed=seed, backend=ent_backend)
    return FusedExtractor(seed=seed)


def _graph_batch(extract, docs: pa.Table):
    """One docs batch → (triples, edges): the per-batch body of both graph
    writers, ``_GraphWriter`` and ``_EdgeUnitWriter``."""
    triples = extract(_explode_batch(docs))
    return triples, triples_to_edges(triples)


class _GraphWriter:
    """One ``DOCS_BATCH`` docs batch of :func:`materialize_graph`: its
    triples → ``triples/<name>``, their edges → ``edges/<name>``, and
    its ``canonical._partial_counts`` rows as the batch's output, the
    rows the canonicalize exchange merges into nodes.

    ``<name>`` is ``<token>-<task id>-<ordinal>.parquet``: the token is
    minted once per call, the Ray task id stays the same on every retry
    of one task, and the ordinal counts the task's batches in this
    process. A task retried after its worker died rewrites its own files
    instead of adding copies (Ray's Parquet datasink names files by write
    uuid, task index and block index the same way). A batch without
    triples writes no file."""

    def __init__(self, out_dir: str, token: str, seed: int,
                 with_entities: bool, ent_backend: str):
        self.dirs = [os.path.join(out_dir, d) for d in ("triples", "edges")]
        self.token = token
        self.extract = _extractor(seed, with_entities, ent_backend)
        self.task, self.ordinal = None, 0

    def __call__(self, docs: pa.Table) -> pa.Table:
        import ray

        task = ray.get_runtime_context().get_task_id() or "driver"
        if task != self.task:
            self.task, self.ordinal = task, 0
        name = f"{self.token}-{task}-{self.ordinal}.parquet"
        self.ordinal += 1
        triples, edges = _graph_batch(self.extract, docs)
        if triples.num_rows:
            for d, table in zip(self.dirs, (triples, edges)):
                os.makedirs(d, exist_ok=True)
                pq.write_table(table, os.path.join(d, name))
        return canonical._partial_counts(triples)


GRAPH_TABLES = ("triples", "edges", "nodes")


def materialize_graph(docs_ds, out_dir: str, *, seed: int = 777,
                      with_entities: bool = True,
                      ent_backend: str = "dictionary"):
    """End-to-end run: docs → ``triples/``, ``edges/`` and ``nodes/``
    Parquet in ONE Ray execution.

    Each ``DOCS_BATCH`` docs batch runs in one task (``_GraphWriter``):
    it extracts the batch's triples and writes them and their edges
    itself, then hands on only its ``_partial_counts`` rows, which feed
    the canonicalize exchange (``merge`` → ``finalize`` → nodes write)
    directly. The fan-out stays scale-safe without re-reading anything:
    the full triples and edges tables go straight to storage from the
    task that made them, and only the partials — O(distinct surfaces per
    batch) rows — cross the exchange. Nothing pins the triples table in
    the object store.

    Stale outputs from a previous (possibly crashed) run are DELETED
    first: every call names its files with a fresh token, so without the
    cleanup a re-run would leave both generations side by side and a
    reader would silently double-count (same rationale as
    stages/graph.py:write_partition). A run that extracts no triples
    writes each table as one 0-row ``empty.parquet`` with the schema a
    non-empty run writes."""
    import shutil
    import uuid

    for sub in GRAPH_TABLES:
        path = os.path.join(out_dir, sub)
        if os.path.isdir(path):
            shutil.rmtree(path)

    partials = map_kernel(
        docs_ds, _GraphWriter, batch_size=DOCS_BATCH, out_dir=out_dir,
        token=uuid.uuid4().hex, seed=seed, with_entities=with_entities,
        ent_backend=ent_backend,
    )
    merge_partials(partials).write_parquet(f"{out_dir}/nodes")
    if not os.path.isdir(os.path.join(out_dir, "triples")):
        # no batch yielded a triple: each table becomes one 0-row file,
        # its schema the one the same callables give a non-empty run
        triples, edges = _graph_batch(
            _extractor(seed, with_entities, ent_backend),
            schemas.SOURCE_DOCS.empty_table(),
        )
        nodes = canonical.finalize(
            canonical.merge(canonical._partial_counts(triples))
        )
        for sub, table in zip(GRAPH_TABLES, (triples, edges, nodes)):
            os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
            pq.write_table(table, os.path.join(out_dir, sub, "empty.parquet"))


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
        self.edges_dir = edges_dir
        self.extract = _extractor(seed, with_entities)

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
                _, edges = _graph_batch(self.extract, docs)
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
    shard whose manifest exists (``stages/graph.py:pending_partitions``,
    the resume decision of every manifest-tracked stage) — pruning
    happens before anything is read, so nothing upstream re-executes.

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
    since that manifest's stamp, fails with "resume mismatch" — a
    reordered list or a rewritten shard would otherwise skip the wrong
    rows and double-count others. Manifests written before stamps
    existed resume on the path check.

    Returns (manifests_written sorted by partition, shards_skipped).
    """
    import ray.data

    edges_dir = f"{out_dir}/edges"
    lineages = [shard_lineage(shard) for shard in input_shards]
    pending, skipped = pending_partitions(edges_dir, lineages, resume)

    units, remaining, manifests = [], {}, []
    for part in pending:
        clear_partition(edges_dir, part)
        shard_units = _shard_units(part, lineages[part]["input"])
        units += shard_units
        if shard_units:
            remaining[part] = len(shard_units)
        else:
            manifests.append(
                commit_partition(edges_dir, part, 0, 0.0, lineages[part]))
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
                manifests.append(commit_partition(
                    edges_dir, part, rows[part], busy[part], lineages[part]))
    return sorted(manifests, key=lambda m: m["partition"]), skipped
