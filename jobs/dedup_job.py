"""Cluster job entrypoint: resumable corpus deduplication.

The training-data counterpart of jobs/graph_job.py — runs the dedup
pipeline over a sharded documents table and writes a per-shard,
manifest-tracked verdict table:

    ray job submit --address http://<head>:8265 \
        --working-dir . \
        -- python jobs/dedup_job.py \
           --input '/mnt/data/documents/*.parquet' --out /mnt/out/dedup \
           --method exact|minhash|simhash

Per input shard the job writes ``out/<method>/part=<k>/`` Parquet plus a
manifest; a re-run skips every shard whose manifest exists (pruned at
the read — nothing upstream re-executes). Every stage goes through
``stages/graph.py:write_partitions``: a shard's manifest records its
path and stamp, a band's its band, and a resume over a reordered,
extended or rewritten listing fails with "resume mismatch"
(``--no-resume`` rebuilds everything). Exact dedup emits
(content_sha256, keeper_id, n_docs) groups; minhash/simhash emit
verified near-dup pairs WITHIN the shard (the resumable embarrassingly-
parallel first stage that removes the bulk of duplicates next to the
data).

``--cross-shard`` (minhash or simhash) appends the GLOBAL pass in two
further manifest-tracked stages:

1. ``out/<method>/sigs/part=<k>/`` — per shard, the signature table of
   that shard's SURVIVORS (shard docs anti-joined against the
   within-shard dup ids); one manifest per shard, so the signature
   stage resumes at shard granularity.
2. ``out/<method>/global/part=<b>/`` — per band (16 LSH bands for
   minhash, 4 x 16-bit bands for simhash), the verified cross-shard
   pairs from the union of all signature tables filtered to band ``b``
   (parquet predicate pushdown). Bands are independent partitions, so
   each is its own resumable unit; a killed run resumes at the first
   unfinished band.

The same pair can surface from several bands, so consumers distinct
the global parts (within a band the pairs are already distinct).

``--emit-survivors`` appends stage 3, closing the loop corpus→corpus:
all pair tables → connected components → min-id keeper per duplicate
cluster → per-shard anti-join, writing surviving doc ids to
``out/<method>/survivors/part=<k>/`` (manifest per shard).
"""

from __future__ import annotations

import argparse
import glob
import json
import sys

# ONE source of truth for the minhash geometry: the per-shard pass and
# the cross-shard global pass must agree or the survivor anti-joins and
# the band iteration silently use the wrong parameters.
MINHASH_THRESHOLD = 0.8
MINHASH_NUM_PERM = 128
MINHASH_NUM_BANDS = 16


def _pipeline(method: str, docs):
    from openie_with_entities_ray.stages.dataops import (
        exact_dedup_groups,
        minhash_candidate_pairs,
        simhash_pairs,
    )

    if method == "exact":
        return exact_dedup_groups(docs)
    if method == "minhash":
        return minhash_candidate_pairs(
            docs, threshold=MINHASH_THRESHOLD, num_perm=MINHASH_NUM_PERM,
            num_bands=MINHASH_NUM_BANDS,
        )
    if method == "simhash":
        return simhash_pairs(docs, max_hamming=3)
    raise SystemExit(f"unknown --method {method}")


def run_cross_shard(shards, out_dir: str, method: str = "minhash", *,
                    resume: bool = True) -> dict:
    """The global (cross-shard) near-dup pass — see module docstring.
    Works for minhash (16 LSH bands) and simhash (4 x 16-bit bands);
    both share the shape: per-shard survivor signatures → per-band
    global pairs, manifests at each granularity."""
    import os

    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray
    import ray.data

    from openie_with_entities_ray.stages.dataops import (
        _bucketed_signatures,
        cluster_cpus,
        minhash_band_pairs,
        simhash_band_pairs,
        simhash_signatures,
    )
    from openie_with_entities_ray.stages.graph import (
        shard_lineage,
        write_partitions,
    )

    if method == "minhash":
        num_bands = MINHASH_NUM_BANDS
        sig_columns = ["doc_id", "band", "band_hash", "signature"]

        def signatures(docs):
            return _bucketed_signatures(
                docs, num_perm=MINHASH_NUM_PERM, num_bands=MINHASH_NUM_BANDS,
                text_col="text", id_col="doc_id", seed=7,
            )

        def band_pairs(sig_ds):
            return minhash_band_pairs(
                sig_ds, num_perm=MINHASH_NUM_PERM,
                threshold=MINHASH_THRESHOLD,
            )
    elif method == "simhash":
        num_bands = 4
        sig_columns = ["doc_id", "band", "band_key", "simhash"]

        signatures = simhash_signatures

        def band_pairs(sig_ds):
            return simhash_band_pairs(sig_ds, max_hamming=3)
    else:
        raise SystemExit(f"--cross-shard unsupported for method {method}")

    # stage 1: per-shard survivor signatures
    def survivor_signatures(part: int):
        docs = ray.data.read_parquet(shards[part], columns=["doc_id", "text"])
        pair_files = glob.glob(
            os.path.join(out_dir, f"part={part}", "*.parquet")
        )
        if pair_files:
            dropped = ray.data.read_parquet(
                pair_files, columns=["id_b"]
            ).map_batches(
                lambda b: pa.table({"doc_id": b.column("id_b")}),
                batch_format="pyarrow",
            )
            # within a pair the smaller id survives (id_a < id_b), so the
            # shard's survivors are docs minus the id_b side
            docs = docs.join(
                dropped,
                join_type="left_anti",
                num_partitions=max(2, cluster_cpus() // 4),
                on=("doc_id",),
            )
        return signatures(docs)

    sig_dir = os.path.join(out_dir, "sigs")
    sigs, _ = write_partitions(
        sig_dir, [shard_lineage(shard) for shard in shards],
        survivor_signatures, resume=resume,
    )

    # stage 2: per-band global pairs over ALL shards' signatures
    sig_files = sorted(glob.glob(os.path.join(sig_dir, "part=*", "*.parquet")))
    if not sig_files:
        # every input shard was empty (an empty partition writes no
        # parquet at all) — the global pass trivially has zero pairs
        return {
            "cross_shard_sigs_written": len(sigs),
            "cross_shard_bands_written": 0,
            "cross_shard_bands_skipped": 0,
        }

    def global_pairs(band: int):
        # explicit columns= also drops the hive-inferred 'part' column
        # from the part=<k> directory names (it would collide with the
        # bucket shuffle key added downstream)
        return band_pairs(ray.data.read_parquet(
            sig_files,
            columns=sig_columns,
            filter=(pads.field("band") == band),
        ))

    bands, skipped = write_partitions(
        os.path.join(out_dir, "global"),
        [{"band": band} for band in range(num_bands)],
        global_pairs, resume=resume,
    )
    return {
        "cross_shard_sigs_written": len(sigs),
        "cross_shard_bands_written": len(bands),
        "cross_shard_bands_skipped": len(skipped),
    }


def run_emit_survivors(shards, out_dir: str, *, resume: bool = True) -> dict:
    """Stage 3 — close the dedup loop corpus→corpus: union every pair
    table this job produced (within-shard parts + cross-shard global
    parts) → connected components over the pair graph (labels stay a
    Dataset) → keeper = min doc id per component → per input shard,
    anti-join the dropped ids and write the SURVIVING doc ids to
    ``out/<method>/survivors/part=<k>/`` with a manifest per shard
    (resume skips finished shards; the dropped-id table is computed once
    and reused across shards)."""
    import os

    import ray.data

    from openie_with_entities_ray.stages.dataops import (
        cluster_cpus,
        near_dedup_dropped_ids,
    )
    from openie_with_entities_ray.stages.graph import (
        shard_lineage,
        write_partitions,
    )

    pair_files = sorted(
        glob.glob(os.path.join(out_dir, "part=*", "*.parquet"))
        + glob.glob(os.path.join(out_dir, "global", "part=*", "*.parquet"))
    )
    dropped = None
    if pair_files:
        # columns= also drops the hive-inferred 'part' column
        pairs = ray.data.read_parquet(pair_files, columns=["id_a", "id_b"])
        # computed once, pinned in the object store, consumed per shard
        dropped = near_dedup_dropped_ids(pairs).materialize()

    def survivors(part: int):
        docs = ray.data.read_parquet(shards[part], columns=["doc_id"])
        n_dropped = dropped.count() if dropped is not None else 0
        if n_dropped > 0:
            docs = docs.join(
                dropped,
                join_type="left_anti",
                # capped by the dropped-id count: an all-empty hash-join
                # partition is built schemaless and crashes key lookup
                num_partitions=max(
                    1,
                    min(max(2, cluster_cpus() // 4), n_dropped // 16 + 1),
                ),
                on=("doc_id",),
            )
        return docs

    manifests, skipped = write_partitions(
        os.path.join(out_dir, "survivors"),
        [shard_lineage(shard) for shard in shards], survivors,
        resume=resume,
    )
    return {
        "survivor_shards_written": len(manifests),
        "survivor_shards_skipped": len(skipped),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True,
                    help="glob of documents parquet shards")
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--method", default="exact",
                    choices=["exact", "minhash", "simhash"])
    ap.add_argument("--cross-shard", action="store_true",
                    help="after the per-shard pass, run the global "
                         "cross-shard near-dup stage (minhash/simhash)")
    ap.add_argument("--emit-survivors", action="store_true",
                    help="after the pair stages, write the surviving doc "
                         "ids per shard (pairs → connected components → "
                         "min-id keeper → anti-join)")
    ap.add_argument("--no-resume", action="store_true")
    args = ap.parse_args(argv)
    if args.cross_shard and args.method not in ("minhash", "simhash"):
        print(json.dumps({
            "error": "--cross-shard requires --method minhash|simhash"
        }))
        return 1
    if args.emit_survivors and args.method not in ("minhash", "simhash"):
        print(json.dumps({
            "error": "--emit-survivors requires --method minhash|simhash "
                     "(pair-emitting methods)"
        }))
        return 1

    import os

    import ray

    if not ray.is_initialized():
        ray.init(address="auto" if "RAY_JOB_ID" in os.environ else "local",
                 include_dashboard=False, ignore_reinit_error=True,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, ".")
    import ray.data

    from openie_with_entities_ray.stages.graph import (
        shard_lineage,
        write_partitions,
    )

    if "://" in args.input:
        print(json.dumps({
            "error": "object-store URIs need a pyarrow.fs listing step; "
                     "pass a local/NFS glob"
        }))
        return 1
    shards = sorted(glob.glob(args.input))
    if not shards:
        print(json.dumps({"error": f"no shards match {args.input}"}))
        return 1

    out_dir = os.path.join(args.out, args.method)
    manifests, skipped = write_partitions(
        out_dir, [shard_lineage(shard) for shard in shards],
        lambda part: _pipeline(args.method, ray.data.read_parquet(
            shards[part], columns=["doc_id", "text"])),
        resume=not args.no_resume,
    )
    summary = {
        "method": args.method,
        "shards_total": len(shards),
        "shards_skipped": len(skipped),
        "shards_written": len(manifests),
        "rows_written": sum(m["rows"] for m in manifests),
        "out": out_dir,
    }
    if args.cross_shard:
        summary.update(
            run_cross_shard(
                shards, out_dir, args.method, resume=not args.no_resume
            )
        )
    if args.emit_survivors:
        summary.update(
            run_emit_survivors(
                shards, out_dir, resume=not args.no_resume
            )
        )
    print(json.dumps(summary))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
