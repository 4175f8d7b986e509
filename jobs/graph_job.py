"""Cluster job entrypoint: resumable KG materialization.

Submit to a fixed-size multi-node cluster (the north-rule deployment
path):

    ray job submit --address http://<head>:8265 \
        --working-dir . \
        -- python jobs/graph_job.py \
           --input '/mnt/data/source_docs/*.parquet' --out /mnt/out/kg

or run standalone on one node (auto-inits a local session). ``--input``
is a local/NFS glob; object-store URIs need a filesystem listing step
(pyarrow.fs) that this sandbox cannot exercise — the job rejects them
with a clear error rather than silently matching nothing. Input shards
(the source table's files) are the unit of resume: finished shards are
skipped via their manifests, so re-submitting the same job after a
failure — a SIGKILL included — completes only the remaining work and
yields byte-identical output (tests/test_resumable.py). Row groups are
the unit of work (a large row group is cut into at most eight runs of
whole batches): every pending shard's row groups run as tasks of one
Ray execution, and each shard's manifest is committed when its last
unit reports. A manifest records its shard's path and content stamp; a
resume over a reordered list or a rewritten shard fails with "resume
mismatch" (``--no-resume`` rebuilds everything).
"""

from __future__ import annotations

import argparse
import glob
import json
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True,
                    help="glob of source_docs parquet shards")
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--seed", type=int, default=777)
    ap.add_argument("--with-entities", action="store_true")
    ap.add_argument("--no-resume", action="store_true")
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():
        # under `ray job submit` the runtime attaches to the cluster; the
        # standalone fallback starts a local session
        ray.init(address="auto" if "RAY_JOB_ID" in __import__("os").environ
                 else "local",
                 include_dashboard=False, ignore_reinit_error=True,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, ".")
    from openie_with_entities_ray.pipelines.flagship import resumable_materialize

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
    manifests, skipped = resumable_materialize(
        shards,
        args.out,
        seed=args.seed,
        resume=not args.no_resume,
        with_entities=args.with_entities,
    )
    print(
        json.dumps(
            {
                "shards_total": len(shards),
                "shards_skipped": len(skipped),
                "shards_written": len(manifests),
                "rows_written": sum(m["rows"] for m in manifests),
                "out": args.out,
            }
        )
    )
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
