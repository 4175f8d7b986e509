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
   atomically to ``out/boilerplate.json`` (md5 hashes) with its lineage
   — the input listing (``stages/graph.py:listing_digest``) and
   ``min_docs`` — through ``stages/graph.py:resume_artifact``. A resumed
   run reuses the file only when both are unchanged, so shards scrubbed
   before and after a crash are stripped against the SAME set; a
   reordered, extended or shrunk listing or another ``--min-docs``
   fails with "resume mismatch".
2. **Per-shard strip** — for each input shard: read →
   ``strip_boilerplate`` against the broadcast set →
   ``out/scrubbed/part=<k>/`` (doc_id, n_kept, n_removed, clean_text)
   plus a manifest (``stages/graph.py:write_partitions``); a re-run
   skips finished shards. A manifest records its shard's path and stamp
   and the set's lineage: a resume over a rewritten shard fails with
   "resume mismatch" too (``--no-resume`` rewrites everything).

The duplicated-SPAN scrub (``dup_span_scrub``) has no broadcast-sized
global artifact (its duplicated-gram set is corpus-scaled), so it stays
a pipeline operator; this job covers the sentence-level pass that
removes the bulk of template text next to the data.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from openie_with_entities_ray.cli import input_shards, ray_session  # noqa: E402


def run_scrub(files, out_dir: str, *, min_docs: int = 3,
              resume: bool = True) -> dict:
    import ray.data

    from openie_with_entities_ray.stages.dataops import (
        frequent_sentence_hashes,
        strip_boilerplate,
    )
    from openie_with_entities_ray.stages.graph import (
        listing_digest,
        resume_artifact,
        shard_lineage,
        write_partitions,
    )

    def count():
        hashes = frequent_sentence_hashes(ray.data.read_parquet(files),
                                          min_docs=min_docs)
        return {"n_boilerplate_sentences": len(hashes),
                "input_files": len(files), "hashes": hashes}

    lineage = {"listing": listing_digest(files), "min_docs": min_docs}
    meta, counted = resume_artifact(
        os.path.join(out_dir, "boilerplate.json"), lineage, count,
        resume=resume,
    )
    manifests, skipped = write_partitions(
        os.path.join(out_dir, "scrubbed"),
        [{**shard_lineage(path), **lineage} for path in files],
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
    files = input_shards(args.input)
    with ray_session():
        report = run_scrub(
            files, args.out, min_docs=args.min_docs,
            resume=not args.no_resume,
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
