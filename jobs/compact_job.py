"""Cluster job entrypoint: small-file compaction.

The small-file problem at 100 TB: per-shard jobs (curate, dedup
survivors, incremental ingests) leave directories of thousands of tiny
parquet files, and every downstream read then pays per-file open/footer
cost while Ray gets one undersized block per file. This job coalesces
them into ~``--target-rows`` outputs — the fourth job next to
jobs/graph_job.py, jobs/dedup_job.py and jobs/curate_job.py:

    ray job submit --address http://<head>:8265 \
        --working-dir . \
        -- python jobs/compact_job.py \
           --input '/mnt/out/curate/survivors/part=*/*.parquet' \
           --out /mnt/out/compacted --target-rows 1000000

Plan-then-execute, both deterministic:

1. **Plan** — per-file row counts come from parquet FOOTER METADATA
   only (no data read); files are greedily packed in sorted-path order
   into units of >= target rows. The plan is a pure function of the
   input listing.
2. **Execute** — one output unit = one ``part=<k>`` directory written
   via ``stages/graph.py:write_partitions`` (atomic tmp+rename manifest,
   crashed-attempt cleanup); a re-run skips every finished unit. A
   unit's manifest records its input paths and their stamps, so a resume
   over a changed listing — a file added, removed or rewritten, which
   moves the unit boundaries — fails with "resume mismatch" instead of
   skipping units that now stand for other files (``--no-resume``
   rebuilds everything). Rows stream file→file through Ray's read;
   nothing is pinned corpus-wide.

Row ORDER within a unit follows the sorted input-file order (parquet
readers preserve per-file order), so compaction composes with
``sorted_export`` output without destroying its global order.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys


def plan_units(files, target_rows: int):
    """Greedy bin-pack of sorted files into units of >= target_rows
    (footer-metadata row counts — no data is read). Returns a list of
    path lists; every file lands in exactly one unit."""
    import pyarrow.parquet as pq

    units, cur, cur_rows = [], [], 0
    for path in files:
        cur.append(path)
        cur_rows += pq.ParquetFile(path).metadata.num_rows
        if cur_rows >= target_rows:
            units.append(cur)
            cur, cur_rows = [], 0
    if cur:
        units.append(cur)
    return units


def run_compact(files, out_dir: str, *, target_rows: int = 1_000_000,
                resume: bool = True) -> dict:
    import ray.data

    from openie_with_entities_ray.stages.graph import (
        shard_lineage,
        write_partitions,
    )

    os.makedirs(out_dir, exist_ok=True)
    units = plan_units(files, target_rows)
    manifests, skipped = write_partitions(
        out_dir, [shard_lineage(paths) for paths in units],
        lambda k: ray.data.read_parquet(units[k]), resume=resume,
    )
    return {
        "input_files": len(files),
        "units": len(units),
        "written": len(manifests),
        "skipped": len(skipped),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--input", required=True,
                   help="glob of input parquet files")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--target-rows", type=int, default=1_000_000,
                   help="minimum rows per compacted output unit")
    p.add_argument("--no-resume", action="store_true",
                   help="rebuild every unit even if its manifest exists")
    args = p.parse_args(argv)

    sys.path.insert(0, ".")

    files = sorted(glob.glob(args.input))
    if not files:
        print(f"no files match {args.input!r}", file=sys.stderr)
        return 2

    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR")
    try:
        summary = run_compact(
            files, args.out, target_rows=args.target_rows,
            resume=not args.no_resume,
        )
        print(json.dumps(summary, sort_keys=True))
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
