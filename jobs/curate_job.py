"""Cluster job entrypoint: end-to-end training-corpus curation.

Composes the quality filter, global exact dedup and budget accounting
into ONE resumable job over a sharded documents table (the third job
next to jobs/graph_job.py and jobs/dedup_job.py):

    ray job submit --address http://<head>:8265 \
        --working-dir . \
        -- python jobs/curate_job.py \
           --input '/mnt/data/documents/*.parquet' --out /mnt/out/curate

Stages 1-3 are manifest-tracked (``stages/graph.py:write_partitions``
— atomic tmp+rename manifests; a re-run skips every finished unit, and
refuses with "resume mismatch" when a unit's recorded lineage differs
from this run's; ``--no-resume`` rebuilds everything):

1. ``clean/part=<k>`` — per input shard: C4-style quality filter
   (same kernels and default thresholds as
   ``stages/dataops.py:quality_filter``), full surviving doc rows plus
   ``content_sha256``, its hex-prefix partition key, language and token
   stats. Embarrassingly parallel next to the data. With
   ``--benchmark <glob>`` the same scan also drops docs sharing any
   word n-gram with the eval set (dataops.decontaminate's rule, fused
   — the gram set is built and ``ray.put`` ONCE per job). Its manifest
   records the shard's path and stamp (``stages/graph.py:shard_lineage``)
   and the ``--benchmark`` glob, so a resume over a reordered list, a
   shard rewritten since or another benchmark is refused.
2. ``keepers/part=<p>`` — global exact dedup at hash granularity: for
   each of the 16 sha256 hex prefixes, the min-doc_id keeper per
   distinct hash over ALL clean shards (parquet predicate pushdown on
   ``sha_prefix``, per-batch combiner, ``exchange`` on the hash — never
   one Ray group per hash). 16 independent resumable units, each
   recording its ``sha_prefix`` and the whole input listing
   (``stages/graph.py:listing_digest``), so a resume over an extended
   listing is refused instead of keeping keepers that never saw the
   new shards.
3. ``survivors/part=<k>`` — per shard (manifest: the shard's path and
   the listing):
   clean rows whose doc_id IS the keeper for their hash (inner hash
   join on the hash + vectorized equality filter), i.e. cross-shard
   exact dedup applied next to the data. Empty-after-cleaning shards
   short-circuit (Ray's native join cannot take a zero-row side).
4. ``report.json`` — per-language docs/words/BPE-ish tokens over the
   curated corpus; a tiny aggregate rewritten atomically whenever any
   survivor shard was (re)written.

Near-duplicate removal is jobs/dedup_job.py's domain
(``--cross-shard --emit-survivors``); point it at this job's
``survivors/`` output to chain the two.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from openie_with_entities_ray.cli import input_shards, ray_session  # noqa: E402


def clean_shard(shard_path: str, *, min_words: int = 20,
                max_words: int = 1000, min_stopword_permille: int = 50,
                max_punct_permille: int = 200, bench_gram_ref=None,
                decon_n: int = 5):
    """One shard's quality-filter pass: full surviving rows + hash and
    stats columns. Same decision rule as dataops.quality_filter (which
    emits only the stats projection). With ``bench_gram_ref`` (a
    ``ray.put`` frozenset of benchmark word n-grams from
    dataops.benchmark_ngrams) the pass also drops contaminated docs —
    same rule as dataops.decontaminate, fused into the existing scan so
    decontamination costs no extra stage."""
    import pyarrow as pa
    import ray
    import ray.data

    from openie_with_entities_ray.functions.textstats import (
        bpe_ish_token_count,
        detect_language,
        quality_stats,
    )
    from openie_with_entities_ray.stages.dataops import _word_ngrams

    docs = ray.data.read_parquet(shard_path)

    def keep(batch: pa.Table) -> pa.Table:
        grams = (
            ray.get(bench_gram_ref) if bench_gram_ref is not None else None
        )
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        rows = []
        for idx, (i, t) in enumerate(zip(ids, texts)):
            q = quality_stats(t)
            if not (min_words <= q["n_words"] <= max_words):
                continue
            if q["stopword_permille"] < min_stopword_permille:
                continue
            if q["punct_permille"] > max_punct_permille:
                continue
            if grams is not None and any(
                g in grams for g in _word_ngrams(t, decon_n)
            ):
                continue
            sha = hashlib.sha256(t.encode()).hexdigest()
            rows.append((idx, sha, q["n_words"], bpe_ish_token_count(t),
                         detect_language(t)))
        # explicit int64 indices: a bare [] infers a null-typed array,
        # which array_take rejects
        taken = batch.take(
            pa.array([r[0] for r in rows], type=pa.int64())
        )
        cols = {c: taken.column(c) for c in taken.column_names}
        cols["content_sha256"] = pa.array([r[1] for r in rows], pa.string())
        cols["sha_prefix"] = pa.array(
            [int(r[1][0], 16) for r in rows], pa.int64()
        )
        cols["n_words"] = pa.array([r[2] for r in rows], pa.int64())
        cols["n_tokens_bpe"] = pa.array([r[3] for r in rows], pa.int64())
        cols["lang_detected"] = pa.array([r[4] for r in rows], pa.string())
        return pa.table(cols)

    return docs.map_batches(keep, batch_format="pyarrow")


def keeper_partition(clean_files, prefix: int):
    """Min-doc_id keeper per distinct content hash, for one sha prefix:
    per-batch combiner → ``exchange`` on the hash → vectorized
    per-part min. Emits (content_sha256, keeper_id)."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray.data

    from openie_with_entities_ray.stages.exchange import exchange

    ds = ray.data.read_parquet(
        clean_files,
        columns=["doc_id", "content_sha256", "sha_prefix"],
        filter=(pads.field("sha_prefix") == prefix),
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        agg = df.groupby("content_sha256", as_index=False).agg(
            keeper_id=("doc_id", "min")
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        return group.groupby("content_sha256", as_index=False).agg(
            keeper_id=("keeper_id", "min")
        )

    return exchange(ds, "content_sha256", merge, combine=partial)


def survivors_partition(clean_part_files, keeper_files):
    """One shard's curated rows: clean rows whose doc_id is the global
    keeper for their hash — a PAIR-membership semi-join ((sha, doc_id)
    ∈ keepers) over the tagged co-group (joins.py), not Ray's native
    hash join: keepers per shard can be far fewer than the partition
    count and the native join intermittently dies on the resulting
    empty right partitions (the CLAUDE.md join hazard, seen flaking in
    the end-to-end test)."""
    import pyarrow as pa
    import ray.data

    from openie_with_entities_ray.stages.dataops import cluster_cpus
    from openie_with_entities_ray.stages.exchange import exchange
    from openie_with_entities_ray.stages.joins import (
        _KEY,
        _SIDE,
        _conform_union,
        _to_pandas_exact,
    )

    clean = ray.data.read_parquet(clean_part_files)
    if "part" in clean.schema().names:
        # hive-inferred from the part=<k> directory name; keep it out of
        # the survivors schema
        clean = clean.drop_columns(["part"])
    out_schema = clean.schema()
    keep_cols = list(out_schema.names)
    keep_types = dict(zip(out_schema.names, out_schema.types))

    keepers = ray.data.read_parquet(
        keeper_files, columns=["content_sha256", "keeper_id"]
    ).map_batches(
        lambda b: pa.table(
            {
                "__keeper_sha": b.column("content_sha256"),
                "keeper_id": b.column("keeper_id"),
            }
        ),
        batch_format="pyarrow",
    )
    arms, _fields = _conform_union(
        clean, keepers,
        left_key="content_sha256", right_key="__keeper_sha",
    )

    def pick(batch: pa.Table) -> pa.Table:
        df = _to_pandas_exact(batch)
        left = df[df[_SIDE] == 0]
        right = df[df[_SIDE] == 1]
        if len(left) == 0 or len(right) == 0:
            mask = [False] * len(left)
        else:
            ok = set(
                zip(right["__keeper_sha"],
                    (int(k) for k in right["keeper_id"]))
            )
            mask = [
                (s, int(d)) in ok
                for s, d in zip(left["content_sha256"], left["doc_id"])
            ]
        out = left[mask] if len(left) else left
        return pa.table(
            {
                c: pa.array(list(out[c]), keep_types[c])
                for c in keep_cols
            }
        )

    return exchange(arms, _KEY, pick, batch_format="pyarrow",
                    num_parts=max(2, cluster_cpus() // 4))


def write_report(survivor_files, out_dir: str) -> dict:
    """Per-language budget over the curated corpus; atomic rewrite."""
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    if not survivor_files:
        report = {"langs": [], "total_docs": 0}
    else:
        ds = ray.data.read_parquet(
            survivor_files,
            columns=["lang_detected", "n_words", "n_tokens_bpe"],
        )

        def partial(batch: pa.Table) -> pa.Table:
            df = batch.to_pandas()
            agg = df.groupby("lang_detected", as_index=False).agg(
                n_docs=("lang_detected", "size"),
                n_words=("n_words", "sum"),
                n_tokens_bpe=("n_tokens_bpe", "sum"),
            )
            return pa.Table.from_pandas(agg, preserve_index=False)

        rows = (
            ds.map_batches(partial, batch_format="pyarrow")
            .groupby("lang_detected")
            .aggregate(
                Sum("n_docs", alias_name="n_docs"),
                Sum("n_words", alias_name="n_words"),
                Sum("n_tokens_bpe", alias_name="n_tokens_bpe"),
            )
            .take_all()  # one row per language
        )
        rows.sort(key=lambda r: r["lang_detected"])
        report = {
            "langs": [
                {
                    "lang": r["lang_detected"],
                    "n_docs": int(r["n_docs"]),
                    "n_words": int(r["n_words"]),
                    "n_tokens_bpe": int(r["n_tokens_bpe"]),
                }
                for r in rows
            ],
            "total_docs": int(sum(r["n_docs"] for r in rows)),
        }
    tmp = os.path.join(out_dir, "report.json.tmp")
    with open(tmp, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    os.replace(tmp, os.path.join(out_dir, "report.json"))
    return report


def run_curate(shards, out_dir: str, *, resume: bool = True,
               min_words: int = 20, max_words: int = 1000,
               min_stopword_permille: int = 50,
               max_punct_permille: int = 200,
               benchmark: str | None = None, decon_n: int = 5) -> dict:
    import pyarrow as pa
    import ray.data

    from openie_with_entities_ray.stages.graph import (
        listing_digest,
        shard_lineage,
        write_partitions,
    )

    os.makedirs(out_dir, exist_ok=True)

    # optional decontamination broadcast: ONE gram-set build + ray.put
    # for the whole job (deterministic from the benchmark files, so a
    # resumed run recomputes the identical set)
    bench_gram_ref = None
    if benchmark:
        from openie_with_entities_ray.stages.dataops import (
            benchmark_ngrams,
        )

        bench_gram_ref = ray.put(
            benchmark_ngrams(
                ray.data.read_parquet(input_shards(benchmark)), n=decon_n
            )
        )

    lineages = [shard_lineage(shard) for shard in shards]
    listing = listing_digest(shards)

    # stage 1: per-shard clean (+ fused decontamination when requested)
    clean_dir = os.path.join(out_dir, "clean")
    cleaned, _ = write_partitions(
        clean_dir,
        [{**lineage, "benchmark": benchmark or ""} for lineage in lineages],
        lambda part: clean_shard(
            shards[part], min_words=min_words, max_words=max_words,
            min_stopword_permille=min_stopword_permille,
            max_punct_permille=max_punct_permille,
            bench_gram_ref=bench_gram_ref, decon_n=decon_n,
        ),
        resume=resume,
    )

    clean_files = sorted(
        glob.glob(os.path.join(clean_dir, "part=*", "*.parquet"))
    )

    # stage 2: global keepers per sha prefix
    def keepers(prefix: int):
        if clean_files:
            return keeper_partition(clean_files, prefix)
        return ray.data.from_arrow(
            pa.table(
                {
                    "content_sha256": pa.array([], pa.string()),
                    "keeper_id": pa.array([], pa.int64()),
                }
            )
        )

    keep_dir = os.path.join(out_dir, "keepers")
    kept, _ = write_partitions(
        keep_dir,
        [{"sha_prefix": prefix, "listing": listing} for prefix in range(16)],
        keepers, resume=resume,
    )

    keeper_files = sorted(
        glob.glob(os.path.join(keep_dir, "part=*", "*.parquet"))
    )

    # stage 3: per-shard survivors
    def survivors(part: int):
        part_files = sorted(
            glob.glob(os.path.join(clean_dir, f"part={part}", "*.parquet"))
        )
        if part_files and keeper_files:
            return survivors_partition(part_files, keeper_files)
        # shard emptied by the quality filter: zero survivors (the
        # native join cannot take a zero-row side)
        return ray.data.from_arrow(
            pa.table({"doc_id": pa.array([], pa.int64())})
        )

    # the path binds part k to shard k; the shard's stamp is checked by
    # the clean stage, which runs first over the same listing
    surv_dir = os.path.join(out_dir, "survivors")
    survived, _ = write_partitions(
        surv_dir,
        [{"input": lineage["input"], "listing": listing}
         for lineage in lineages],
        survivors, resume=resume,
    )

    # stage 4: budget report (rewritten if anything changed or missing)
    survivor_files = sorted(
        glob.glob(os.path.join(surv_dir, "part=*", "*.parquet"))
    )
    report_path = os.path.join(out_dir, "report.json")
    if survived or not os.path.exists(report_path):
        report = write_report(survivor_files, out_dir)
    else:
        with open(report_path) as f:
            report = json.load(f)

    return {
        "shards": len(shards),
        "clean_written": len(cleaned),
        "keepers_written": len(kept),
        "survivors_written": len(survived),
        "curated_docs": report.get("total_docs", 0),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--input", required=True,
                   help="glob of input documents parquet shards")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--no-resume", action="store_true",
                   help="rebuild every partition even if its manifest exists")
    p.add_argument("--min-words", type=int, default=20)
    p.add_argument("--max-words", type=int, default=1000)
    p.add_argument("--min-stopword-permille", type=int, default=50)
    p.add_argument("--max-punct-permille", type=int, default=200)
    p.add_argument("--benchmark", default=None,
                   help="glob of benchmark/eval parquet shards; docs "
                        "sharing any word n-gram with them are dropped "
                        "in the clean stage")
    p.add_argument("--decon-n", type=int, default=5,
                   help="n-gram size for --benchmark decontamination")
    args = p.parse_args(argv)
    shards = input_shards(args.input)
    with ray_session():
        summary = run_curate(
            shards, args.out, resume=not args.no_resume,
            min_words=args.min_words, max_words=args.max_words,
            min_stopword_permille=args.min_stopword_permille,
            max_punct_permille=args.max_punct_permille,
            benchmark=args.benchmark, decon_n=args.decon_n,
        )
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
