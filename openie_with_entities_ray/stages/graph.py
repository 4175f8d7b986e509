"""Graph materialization: triples → node/edge Parquet with resumable,
manifest-tracked partitioned output.

Replaces the reference's append-mode output files
(/root/reference/model.py:697-701 — a crashed run leaves a partial,
unresumable file) with idempotent per-partition Parquet + a manifest.
``flagship.resumable_materialize`` writes edges only, one partition per
input shard:

    out_dir/
      edges/part=<k>/rg-<i>-<s>.parquet
                                     (one file per work unit that
                                      yields edges: row group i's rows
                                      from s on — part k is bound to
                                      input_shards[k])
      edges/_manifests/part-<k>.json {"partition": k, "rows": n,
                                      "elapsed_s": ..., "input": shard,
                                      "stamp": [bytes, mtime_ns]}

``flagship.materialize_graph`` (one run, no manifests; a re-run deletes
all three directories first) writes the whole graph:

    out_dir/
      triples/<token>-<task>-<j>.parquet
                                     (one file per docs batch that
                                      yields triples: the call's token,
                                      the Ray task id and the batch's
                                      ordinal in that task)
      edges/<token>-<task>-<j>.parquet
                                     (the same batch's edges)
      nodes/...parquet               (canonicalize merge, Ray's writer)

(a run without triples writes each of the three as one 0-row
``empty.parquet``).

Resume is one protocol: every manifest-tracked stage of the package
and of ``jobs/`` decides it through :func:`pending_partitions` (all but
``resumable_materialize`` through :func:`write_partitions`). Partition
k's lineage is what its manifest records of its input
(:func:`shard_lineage`, or a unit's own key) plus the parameters its
rows depend on. A re-run builds the partitions without a manifest and
skips the others only once :func:`check_resume` finds their lineage
unchanged — it raises "resume mismatch" otherwise, as it does for a
completed partition beyond a listing that shrank. A partition that reads
more than its own shard also records :func:`listing_digest` of the whole
input as ``listing``. A manifest is ``{partition, rows, elapsed_s}``
plus the lineage, committed by :func:`commit_partition`; ``elapsed_s``
is :func:`write_partition`'s wall time, or the sum of the unit task
times in ``resumable_materialize``. Whole-input state that is one JSON
document (a job's broadcast set) resumes through
:func:`resume_artifact` under the same comparison.
"""

from __future__ import annotations

import hashlib
import json
import os

import pyarrow as pa

from .. import schemas
from .exchange import exchange


_CANON_MEMO: dict = {}  # per-worker-process memo: surfaces are Zipf
_EDGE_KEY = ["src", "rel", "dst"]


def triples_to_edges(batch: pa.Table) -> pa.Table:
    """``schemas.EDGES``: canonical src/dst from normalized arg surfaces
    (linked entity id when the entity stage provided exactly one), the
    triple's rel, confidence and provenance carried."""
    from .canonical import canonical_id, normalize_surface

    def canon(surface: str) -> str:
        hit = _CANON_MEMO.get(surface)
        if hit is None:
            if len(_CANON_MEMO) > 500_000:
                _CANON_MEMO.clear()
            hit = canonical_id(normalize_surface(surface))
            _CANON_MEMO[surface] = hit
        return hit

    a1 = batch.column("arg1").to_pylist()
    a2 = batch.column("arg2").to_pylist()
    subj_ents = (
        batch.column("subj_ents").to_pylist()
        if "subj_ents" in batch.column_names
        else [[] for _ in a1]
    )
    obj_ents = (
        batch.column("obj_ents").to_pylist()
        if "obj_ents" in batch.column_names
        else [[] for _ in a1]
    )

    def node_of(surface, ents):
        if ents and len(ents) == 1:
            return ents[0]
        return canon(surface)

    return schemas.rows(schemas.EDGES, batch, None, {
        "src": [node_of(s, e) for s, e in zip(a1, subj_ents)],
        "dst": [node_of(s, e) for s, e in zip(a2, obj_ents)],
    })


def dedup_edges(edges_ds, num_parts: int | None = None):
    """Corpus-level exact edge dedup (SURVEY.md §2.8): keep the
    max-confidence witness per (src, rel, dst).

    Scale shape: ``exchange`` on the edge key (cluster-scaled part
    count) and ONE vectorized pandas sort + ``groupby(edge_key).head(1)``
    inside each part. Never ``groupby(edge_key)`` directly: Ray pays
    ~1 ms of Python per aggregate group (measured, BASELINE.md tail),
    so one Ray group per distinct edge walls at ~1e6 s for 1e9 distinct
    edges; this shape pays #parts group calls regardless of corpus
    size."""
    # per-batch partial dedup BEFORE the shuffle (the combiner shape):
    # duplicate edges are heavily batch-local (same doc/sentence), so
    # the sort moves ~distinct rows instead of the full edge table.
    # Safe because best-row-per-key selection under a total row order
    # is associative (property-tested against the shipped kernel).
    partial = edges_ds.map_batches(
        best_edge_per_key, batch_format="pandas", batch_size=65536
    )
    return exchange(partial, _EDGE_KEY, best_edge_per_key,
                    num_parts=num_parts)


def edge_provenance(edges_ds, *, k: int = 3, num_parts: int | None = None):
    """Per-edge lineage aggregation (the north rule's per-partition
    lineage surface): for every (src, rel, dst), the total witness
    count plus the first-k sorted witness refs ``repo:path:sent_id`` —
    output is BOUNDED per edge however hot it is (a 10^9-witness
    stopword edge still emits one row carrying k refs).

    Combiner shape: within-batch partial (count + k-smallest witness
    strings per edge) → ``exchange`` on the edge key → in-part
    pandas merge (sum counts; union the ≤ k·batches candidate refs,
    re-sort, slice k). k-min of a union of per-batch k-mins is the
    global k-min, so the result is partition-invariant."""
    from .dataops import composite_key_bytes

    def partial(batch: pa.Table) -> pa.Table:
        agg: dict = {}
        for s, r, d, rp, pt, si in zip(
            batch.column("src").to_pylist(),
            batch.column("rel").to_pylist(),
            batch.column("dst").to_pylist(),
            batch.column("repo").to_pylist(),
            batch.column("path").to_pylist(),
            batch.column("sent_id").to_pylist(),
        ):
            ent = agg.setdefault((s, r, d), [0, []])
            ent[0] += 1
            ent[1].append(f"{rp}:{pt}:{si}")
        keys = sorted(agg)
        return pa.table(
            {
                "src": pa.array([x[0] for x in keys], pa.string()),
                "rel": pa.array([x[1] for x in keys], pa.string()),
                "dst": pa.array([x[2] for x in keys], pa.string()),
                "n": pa.array([agg[x][0] for x in keys], pa.int64()),
                "wits": pa.array(
                    [sorted(agg[x][1])[:k] for x in keys],
                    pa.list_(pa.string()),
                ),
            }
        )

    def merge(g):
        g = g.assign(
            _k=composite_key_bytes(g["src"], g["rel"], g["dst"])
        )
        out = g.groupby("_k", as_index=False).agg(
            src=("src", "first"), rel=("rel", "first"),
            dst=("dst", "first"), n_witnesses=("n", "sum"),
            wits=("wits", lambda col: sorted(
                w for lst in col for w in lst
            )[:k]),
        )
        out["witnesses"] = [",".join(ws) for ws in out["wits"]]
        return out[["src", "rel", "dst", "n_witnesses", "witnesses"]]

    return exchange(edges_ds, _EDGE_KEY, merge, combine=partial,
                    num_parts=num_parts)


def kg_snapshot_diff(edges_a, edges_b, *, num_parts: int | None = None):
    """Diff two DEDUPED edge snapshots — the incremental-build
    primitive (which edges a new corpus revision adds, removes, or
    rescores). Inputs carry one row per (src, rel, dst) with
    ``conf_centi``. Output: one row per DIFFERING key with status ∈
    {'added' (B only), 'removed' (A only), 'changed' (conf differs)}
    and both sides' conf (NULL where absent, nullable Int64 — see the
    int64 round-trip memory note).

    Shape: tag each side, union, ONE ``exchange`` on the edge key,
    in-part vectorized pandas outer merge — unchanged keys die inside
    their part, so only the diff leaves the exchange."""
    from .dataops import composite_key_bytes

    def tag(side: str):
        def fn(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "src": batch.column("src"),
                    "rel": batch.column("rel"),
                    "dst": batch.column("dst"),
                    "conf_centi": batch.column("conf_centi"),
                    "side": pa.array([side] * batch.num_rows, pa.string()),
                }
            )

        return fn

    def diff_part(g):
        import numpy as np
        import pandas as pd

        g = g.assign(
            _k=composite_key_bytes(g["src"], g["rel"], g["dst"])
        )
        cols = ["_k", "src", "rel", "dst", "conf_centi"]
        m = g[g["side"] == "a"][cols].merge(
            g[g["side"] == "b"][cols],
            on="_k", how="outer", suffixes=("_a", "_b"), indicator=True,
        )
        status = np.where(
            m["_merge"] == "right_only", "added",
            np.where(
                m["_merge"] == "left_only", "removed",
                np.where(
                    m["conf_centi_a"] != m["conf_centi_b"],
                    "changed", "unchanged",
                ),
            ),
        )
        m = m.assign(status=status)
        m = m[m["status"] != "unchanged"]
        return pd.DataFrame(
            {
                "src": m["src_a"].where(m["src_a"].notna(), m["src_b"]),
                "rel": m["rel_a"].where(m["rel_a"].notna(), m["rel_b"]),
                "dst": m["dst_a"].where(m["dst_a"].notna(), m["dst_b"]),
                "status": m["status"],
                # -1 sentinel for "absent on this side": keeps both the
                # engine and the SQL oracle in plain int64 (a NULL int
                # would force float64 on one side and Int64 on the
                # other — dtype mismatch at the driver's schema gate)
                "conf_a": m["conf_centi_a"].fillna(-1).astype("int64"),
                "conf_b": m["conf_centi_b"].fillna(-1).astype("int64"),
            }
        )

    arms = [
        edges_a.map_batches(tag("a"), batch_format="pyarrow"),
        edges_b.map_batches(tag("b"), batch_format="pyarrow"),
    ]
    return exchange(arms, _EDGE_KEY, diff_part, num_parts=num_parts)


# Tie-break columns forming a TOTAL order over witness rows: every
# identity column an edge/triple table can carry participates, so the
# surviving witness is identical under any batching/partitioning (the
# pre-shuffle combiner depends on this — a partial order would make the
# winner depend on batch boundaries for rows tying on a prefix).
_EDGE_TIEBREAK = ("repo", "path", "commit", "sent_id", "split_id", "depth")


def _edge_sort_spec(df):
    by = ["confidence"] + [c for c in _EDGE_TIEBREAK if c in df.columns]
    return dict(
        by=by,
        ascending=[False] + [True] * (len(by) - 1),
        kind="mergesort",
    )


def best_edge_per_key(df):
    """THE edge-dedup kernel (module-level so the combiner, the final
    per-part pass, and the associativity property test all run the same
    code): max-confidence witness per (src, rel, dst), keyed by the
    injective NUL-safe composite bytes key."""
    from .dataops import composite_key_bytes

    return (
        df.assign(
            _k=composite_key_bytes(df["src"], df["rel"], df["dst"])
        )
        .sort_values(**_edge_sort_spec(df))
        .groupby("_k", sort=False)
        .head(1)
        .drop(columns=["_k"])
    )


# ---------------------------------------------------------------------------
# resumable partitioned writer


def _manifest_path(out_dir: str, part: int) -> str:
    return os.path.join(out_dir, "_manifests", f"part-{part}.json")


def shard_lineage(shard) -> dict:
    """What a manifest records of the input its partition was built from:
    the path and its ``memo._path_stamp`` (bytes, newest mtime), the stamp
    as a list, as its JSON manifest reads back. A list of paths (a
    multi-file unit) records the list and one stamp per path."""
    from ..memo import _path_stamp

    def stamp(path: str):
        st = _path_stamp(path)
        return st and list(st)

    if isinstance(shard, (list, tuple)):
        paths = [str(p) for p in shard]
        return {"input": paths, "stamp": [stamp(p) for p in paths]}
    return {"input": str(shard), "stamp": stamp(str(shard))}


def check_resume(out_dir: str, part: int, lineage: dict) -> None:
    """Refuse to skip completed partition ``part`` when its manifest
    records a different value for a key of ``lineage``: a reordered or
    extended input list, a rewritten input or a changed parameter would
    otherwise keep rows built from something else. A key the manifest
    lacks (written before it was recorded) passes."""
    _check_lineage(f"{os.path.basename(out_dir)}/part={part}",
                   _read_json(_manifest_path(out_dir, part)) or {}, lineage)


def _check_lineage(what: str, recorded: dict, lineage: dict) -> None:
    for key, now in lineage.items():
        if recorded.get(key, now) != now:
            raise ValueError(
                f"resume mismatch: {what} was built with {key} "
                f"{recorded[key]!r} but this run has {now!r} — pass the "
                "original, unchanged inputs and parameters, or rebuild "
                "with --no-resume"
            )


def _read_json(path: str):
    """The JSON document at ``path``, or None when there is none to read."""
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def _write_json(path: str, doc: dict) -> None:
    """Write ``doc`` to ``path`` atomically (tmp file + rename): a crash
    leaves either the old file or the whole new one."""
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(doc, f)
    os.replace(tmp, path)


def listing_digest(paths) -> str:
    """The ``listing`` lineage key of a stage that reads the whole input:
    a digest of the ordered input paths, so a resume over an extended,
    shrunk or reordered listing is refused. Each shard's stamp stays with
    the per-shard stage that reads it."""
    return hashlib.sha256(
        json.dumps([str(p) for p in paths]).encode()
    ).hexdigest()


def resume_artifact(path: str, lineage: dict, build, *, resume: bool):
    """Whole-input state (a JSON document built from every input at once,
    such as a job's broadcast set) under the partitions' resume protocol:
    on resume the document at ``path`` is reused once
    :func:`check_resume`'s comparison accepts its recorded ``lineage``;
    otherwise ``build()``'s dict is stored with ``lineage`` atomically.
    Returns ``(document, built)``."""
    doc = _read_json(path) if resume else None
    if doc is not None:
        _check_lineage(os.path.basename(path), doc, lineage)
        return doc, False
    doc = {**build(), **lineage}
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    _write_json(path, doc)
    return doc, True


def completed_partitions(out_dir: str) -> set:
    mdir = os.path.join(out_dir, "_manifests")
    if not os.path.isdir(mdir):
        return set()
    done = set()
    for name in os.listdir(mdir):
        if name.startswith("part-") and name.endswith(".json"):
            done.add(int(name[len("part-") : -len(".json")]))
    return done


def pending_partitions(out_dir: str, lineages, resume: bool):
    """The resume decision: ``(pending, skipped)`` partition lists for
    ``lineages[k]``, partition k's lineage. A completed partition is
    skipped only after :func:`check_resume` accepts its manifest;
    ``resume=False`` leaves every one pending. A completed partition at
    or beyond ``len(lineages)`` (a listing that shrank) refuses the
    resume; without resuming it is cleared."""
    done = completed_partitions(out_dir)
    beyond = sorted(part for part in done if part >= len(lineages))
    if beyond and resume:
        raise ValueError(
            f"resume mismatch: {os.path.basename(out_dir)}/part={beyond[0]} "
            f"was built but this run has only {len(lineages)} partitions "
            "— pass the original, unchanged inputs, or rebuild with "
            "--no-resume"
        )
    for part in beyond:
        clear_partition(out_dir, part)
    if not resume:
        done = set()
    pending, skipped = [], []
    for part, lineage in enumerate(lineages):
        if part in done:
            check_resume(out_dir, part, lineage)
            skipped.append(part)
        else:
            pending.append(part)
    return pending, skipped


def write_partitions(out_dir: str, lineages, build, *, resume: bool,
                     partition_cols=None):
    """Write every pending partition k (:func:`pending_partitions`) as
    :func:`write_partition` of the Dataset ``build(k)``, its manifest
    recording ``lineages[k]``. Returns ``(manifests, skipped)``."""
    pending, skipped = pending_partitions(out_dir, lineages, resume)
    manifests = [
        write_partition(build(k), out_dir, k, lineages[k], partition_cols)
        for k in pending
    ]
    return manifests, skipped


def clear_partition(out_dir: str, part: int) -> str:
    """Delete partition ``part``'s manifest, then its files (a crashed or
    non-resumed earlier attempt): manifest first, so a crash in between
    can never leave a manifest over missing files. Returns the
    partition's directory."""
    import shutil

    try:
        os.remove(_manifest_path(out_dir, part))
    except FileNotFoundError:
        pass
    dest = os.path.join(out_dir, f"part={part}")
    if os.path.isdir(dest):
        shutil.rmtree(dest)  # a failed delete raises: no leftovers kept
    return dest


def write_partition(ds_part, out_dir: str, part: int, lineage: dict,
                    partition_cols=None) -> dict:
    """Write one partition's rows + manifest atomically. A partition is
    only declared done by its manifest (tmp file + rename); any parquet
    files from a previous crashed attempt are DELETED before rewriting —
    Ray names output files with fresh UUIDs, so without the cleanup a
    resume would double-count the partial files. Row counts come from the
    written files' own metadata (one pipeline execution, not two).
    ``partition_cols`` hive-partitions the rows WITHIN the partition dir
    (``part=<k>/<col>=<v>/...``) so downstream readers can prune at the
    storage level (jobs/ann_job.py prunes IVF buckets this way)."""
    import time

    import pyarrow.dataset as pads

    t0 = time.perf_counter()
    dest = clear_partition(out_dir, part)
    if partition_cols:
        ds_part.write_parquet(dest, partition_cols=list(partition_cols))
    else:
        ds_part.write_parquet(dest)
    # an empty partition writes no files/dir at all — still a valid,
    # completed partition (e.g. a dedup shard with zero dup pairs)
    rows = (
        pads.dataset(dest, format="parquet").count_rows()
        if os.path.isdir(dest)
        else 0
    )
    return commit_partition(out_dir, part, rows, time.perf_counter() - t0,
                            lineage)


def commit_partition(out_dir: str, part: int, rows: int, elapsed_s: float,
                     lineage: dict) -> dict:
    """Declare partition ``part`` done: write its manifest — the north
    rule's metrics + lineage, ``{partition, rows, elapsed_s}`` plus
    ``lineage`` — atomically (tmp file + rename), so a crash leaves
    either no manifest or a whole one. Returns the manifest."""
    meta = {"partition": part, "rows": rows,
            "elapsed_s": round(elapsed_s, 3), **lineage}
    os.makedirs(os.path.join(out_dir, "_manifests"), exist_ok=True)
    _write_json(_manifest_path(out_dir, part), meta)
    return meta
