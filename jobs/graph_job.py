"""Cluster job entrypoint: resumable KG materialization.

Submit to a fixed-size multi-node cluster (the north-rule deployment
path):

    ray job submit --address http://<head>:8265 \
        --working-dir . \
        -- python jobs/graph_job.py \
           --input '/mnt/data/source_docs/*.parquet' --out /mnt/out/kg

or run standalone on one node (starts a local session). ``--input``
is a local/NFS glob; object-store URIs need a filesystem listing step
(pyarrow.fs) — the job rejects them, and a glob that matches nothing,
on stderr with exit status 2 (``cli.input_shards``). Input shards
(the source table's files) are the unit of resume: finished shards are
skipped via their manifests, so re-submitting the same job after a
failure — a SIGKILL included — completes only the remaining work and
yields byte-identical output (tests/test_resumable.py). Row groups are
the unit of work (a large row group is cut into at most eight runs of
whole batches): every pending shard's row groups run as tasks of one
Ray execution, and each shard's manifest is committed when its last
unit reports. A manifest records its shard's path and content stamp; a
resume over a reordered or shrunk list or a rewritten shard fails with
"resume mismatch" (``--no-resume`` rebuilds everything).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from openie_with_entities_ray.cli import input_shards, ray_session  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True,
                    help="glob of source_docs parquet shards")
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--seed", type=int, default=777)
    ap.add_argument("--with-entities", action="store_true")
    ap.add_argument("--no-resume", action="store_true")
    args = ap.parse_args(argv)
    shards = input_shards(args.input)
    from openie_with_entities_ray.pipelines.flagship import (
        resumable_materialize,
    )

    with ray_session():
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
