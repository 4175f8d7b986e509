"""Cluster job entrypoint: resumable cross-shard boilerplate scrub.

The deployable face of
``stages/dataops.py:remove_boilerplate_sentences`` (RefinedWeb/CCNet
line-dedup) — the sixth job next to graph/dedup/curate/compact/ann:

    ray job submit --address http://<head>:8265 --working-dir . \
        -- python jobs/scrub_job.py \
           --input '/mnt/data/documents/*.parquet' --out /mnt/out/scrub \
           --min-docs 3

Two stages, the same persist-the-small-global-artifact-once structure
as jobs/ann_job.py:

1. **Frequent-sentence set** — ``frequent_sentence_hashes`` over the
   FULL input glob (sentence counting is global by definition; a
   per-shard count would miss a footer spread one-per-shard). Written
   atomically to ``out/boilerplate.json`` (md5 hashes + parameters); a
   resumed run REUSES the file, so shards scrubbed before and after a
   crash are stripped against the SAME set — without this, a resume
   would silently mix two boilerplate definitions.
2. **Per-shard strip** — for each input shard: read →
   ``strip_boilerplate`` against the broadcast set →
   ``out/scrubbed/part=<k>/`` (doc_id, n_kept, n_removed, clean_text)
   plus a manifest (``stages/graph.py:write_partitions``); a re-run
   skips finished shards. A manifest records its shard's path and stamp
   and ``min_docs``: a resume over a reordered, extended or rewritten
   listing, or under another ``--min-docs``, fails with "resume
   mismatch" (``--no-resume`` rewrites everything).

The duplicated-SPAN scrub (``dup_span_scrub``) has no broadcast-sized
global artifact (its duplicated-gram set is corpus-scaled), so it stays
a pipeline operator; this job covers the sentence-level pass that
removes the bulk of template text next to the data.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys


def _load_boiler(out_dir: str):
    path = os.path.join(out_dir, "boilerplate.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)


def _store_boiler(out_dir: str, meta: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "boilerplate.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.replace(tmp, path)


def run_scrub(files, out_dir: str, *, min_docs: int = 3,
              resume: bool = True) -> dict:
    import ray.data

    from openie_with_entities_ray.stages.dataops import (
        frequent_sentence_hashes,
        strip_boilerplate,
    )
    from openie_with_entities_ray.stages.graph import (
        shard_lineage,
        write_partitions,
    )

    meta = _load_boiler(out_dir) if resume else None
    if meta is not None and meta.get("min_docs") != min_docs:
        # A resumed run with a DIFFERENT min_docs would recount the set
        # while finished shards keep the OLD set — the exact
        # mixed-definition inconsistency the persisted-set design exists
        # to prevent. Fail loudly instead (each shard's manifest records
        # min_docs too).
        raise SystemExit(
            f"{out_dir}/boilerplate.json was built with "
            f"min_docs={meta.get('min_docs')} but this run requests "
            f"min_docs={min_docs}; finished shards would mix two "
            "boilerplate definitions. Re-run with --no-resume to "
            "recount the set and rewrite every shard."
        )
    if meta is None:
        corpus = ray.data.read_parquet(files)
        hashes = frequent_sentence_hashes(corpus, min_docs=min_docs)
        meta = {
            "min_docs": min_docs,
            "n_boilerplate_sentences": len(hashes),
            "input_files": len(files),
            "hashes": hashes,
        }
        _store_boiler(out_dir, meta)
        counted = True
    else:
        counted = False

    manifests, skipped = write_partitions(
        os.path.join(out_dir, "scrubbed"),
        [{**shard_lineage(path), "min_docs": min_docs} for path in files],
        lambda k: strip_boilerplate(ray.data.read_parquet(files[k]),
                                    meta["hashes"]),
        resume=resume,
    )

    return {
        "input_files": len(files),
        "boiler_counted": counted,
        "n_boilerplate_sentences": meta["n_boilerplate_sentences"],
        "shards_written": len(manifests),
        "shards_skipped": len(skipped),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--input", required=True,
                   help="glob of document parquet shards")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--min-docs", type=int, default=3,
                   help="a sentence in >= this many distinct docs is "
                        "boilerplate")
    p.add_argument("--no-resume", action="store_true",
                   help="recount the set and rewrite every shard")
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
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    try:
        report = run_scrub(
            files, args.out, min_docs=args.min_docs,
            resume=not args.no_resume,
        )
        print(json.dumps(report))
        return 0
    finally:
        ray.shutdown()


if __name__ == "__main__":
    raise SystemExit(main())
