"""Cluster job entrypoint: persisted ANN (IVF) index build + probe.

The fifth job next to jobs/graph_job.py, jobs/dedup_job.py,
jobs/curate_job.py and jobs/compact_job.py: the in-pipeline ANN
operators (stages/dataops.py:ivf_build / ivf_search) rebuild the index
per query session, which is wrong once the corpus is 100 TB and queries
arrive forever. This job persists the index ONCE, partitioned so a
probe reads only its ``nprobe`` buckets from storage:

    # build (resumable per input shard)
    ray job submit --address http://<head>:8265 --working-dir . \
        -- python jobs/ann_job.py build \
           --input '/mnt/data/embeddings/*.parquet' --out /mnt/out/ann \
           --num-centroids 64 --sample-size 8192

    # probe (reads nprobe/num_centroids of the corpus, not all of it)
    python jobs/ann_job.py probe --out /mnt/out/ann \
        --query-json '[0.1, -0.3, ...]' --k 10 --nprobe 4

Build = two deterministic steps:

1. **Centroids** — :func:`ivf_centroids` over the full input glob
   (content-addressed reservoir sample + fixed Lloyd iterations).
   Written atomically to ``out/centroids.json`` (tmp + rename); a
   resumed run REUSES the existing file, so shards assigned before and
   after a crash see identical centroids — without this, a resume
   would silently mix two incompatible bucket spaces.
2. **Assignments** — per input shard ``k``: read → ``ivf_assign``
   against the broadcast centroids → ``out/assignments/part=<k>/``
   hive-partitioned by ``ivf_bucket`` (``ivf_bucket=<b>/*.parquet``),
   plus a manifest (``stages/graph.py:write_partitions``); a re-run
   skips every finished shard. A manifest records its shard's path and
   stamp: a resume over a reordered, extended or rewritten listing fails
   with "resume mismatch" (``--no-resume`` rewrites everything).

Probe never touches Ray's shuffle machinery and never reads the full
index: it ranks buckets against the persisted centroids, GLOBS only the
``nprobe`` matching ``ivf_bucket=<b>`` directories (storage-level
partition pruning — the report carries ``files_read``/``files_total``
as evidence), and runs the brute-force cosine top-k
(:func:`ann_topk`) over that pruned read. Recall/cost is the standard
IVF trade: raise ``--nprobe`` toward ``--num-centroids`` for exact.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys


def _load_centroids(out_dir: str):
    path = os.path.join(out_dir, "centroids.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)


def _store_centroids(out_dir: str, meta: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "centroids.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.replace(tmp, path)


def run_build(files, out_dir: str, *, num_centroids: int = 16,
              sample_size: int = 2048, seed: int = 17,
              vec_col: str = "embedding", id_col: str = "vec_id",
              resume: bool = True) -> dict:
    import numpy as np
    import ray.data

    from openie_with_entities_ray.stages.dataops import (
        ivf_assign,
        ivf_centroids,
    )
    from openie_with_entities_ray.stages.graph import (
        shard_lineage,
        write_partitions,
    )

    cent_meta = _load_centroids(out_dir) if resume else None
    if cent_meta is not None:
        requested = {"num_centroids": num_centroids,
                     "sample_size": sample_size, "seed": seed,
                     "vec_col": vec_col, "id_col": id_col}
        stored = {k: cent_meta.get(k) for k in requested}
        if stored != requested:
            # Reusing a centroid set trained under different parameters
            # would silently ignore the CLI's request, and finished
            # assignment shards would mix two index definitions.
            raise SystemExit(
                f"{out_dir}/centroids.json was built with {stored} but "
                f"this run requests {requested}; re-run with "
                "--no-resume to retrain and rewrite every shard."
            )
    if cent_meta is None:
        corpus = ray.data.read_parquet(files, columns=[id_col, vec_col])
        cents = ivf_centroids(
            corpus, num_centroids, sample_size, seed,
            vec_col=vec_col, id_col=id_col,
        )
        cent_meta = {
            "centroids": cents.tolist(),
            "num_centroids": num_centroids,
            "sample_size": sample_size,
            "seed": seed,
            "vec_col": vec_col,
            "id_col": id_col,
            "dim": int(cents.shape[1]),
            "input_files": len(files),
        }
        _store_centroids(out_dir, cent_meta)
        trained = True
    else:
        trained = False

    centroids = np.asarray(cent_meta["centroids"], dtype=np.float64)

    def assign(k: int):
        shard = ray.data.read_parquet(
            files[k], columns=[cent_meta["id_col"], cent_meta["vec_col"]]
        )
        return ivf_assign(shard, centroids, vec_col=cent_meta["vec_col"])

    manifests, skipped = write_partitions(
        os.path.join(out_dir, "assignments"),
        [shard_lineage(path) for path in files], assign,
        resume=resume, partition_cols=["ivf_bucket"],
    )

    return {
        "input_files": len(files),
        "centroids_trained": trained,
        "num_centroids": int(cent_meta["num_centroids"]),
        "shards_written": len(manifests),
        "shards_skipped": len(skipped),
    }


def run_probe(out_dir: str, query, *, k: int = 10,
              nprobe: int = 4) -> dict:
    import numpy as np
    import ray.data

    from openie_with_entities_ray.stages.dataops import ann_topk
    from openie_with_entities_ray.stages.graph import completed_partitions

    cent_meta = _load_centroids(out_dir)
    if cent_meta is None:
        raise SystemExit(f"no centroids.json under {out_dir!r} — run build")
    assign_dir = os.path.join(out_dir, "assignments")
    shard_dirs = sorted(glob.glob(os.path.join(assign_dir, "part=*")))
    done = completed_partitions(assign_dir)
    incomplete = [
        d for d in shard_dirs
        if int(os.path.basename(d).split("=", 1)[1]) not in done
    ]
    if incomplete:
        raise SystemExit(
            f"index incomplete: {len(incomplete)} shard dir(s) without a "
            f"manifest (e.g. {incomplete[0]!r}) — finish the build first"
        )

    centroids = np.asarray(cent_meta["centroids"], dtype=np.float64)
    qn = np.asarray(query, dtype=np.float64)
    if qn.shape != (centroids.shape[1],):
        raise SystemExit(
            f"query dim {qn.shape} != index dim ({centroids.shape[1]},)"
        )
    qn = qn / (np.linalg.norm(qn) or 1.0)
    probe = np.argsort(-(centroids @ qn))[:nprobe].tolist()

    files_total = sorted(
        glob.glob(os.path.join(assign_dir, "part=*", "ivf_bucket=*", "*"))
    )
    files_read = [
        p for p in files_total
        if int(p.split("ivf_bucket=")[1].split(os.sep)[0]) in set(probe)
    ]
    id_col = cent_meta["id_col"]
    results = []
    if files_read:
        pruned = ray.data.read_parquet(
            files_read, columns=[id_col, cent_meta["vec_col"]]
        )
        top = ann_topk(
            pruned, qn, k,
            vec_col=cent_meta["vec_col"], id_col=id_col,
        ).take_all()  # k rows — tiny by construction
        results = [
            {id_col: r[id_col], "cosine": round(float(r["cosine"]), 9)}
            for r in top
        ]

    return {
        "k": k,
        "nprobe": nprobe,
        "probe_buckets": [int(b) for b in probe],
        "files_read": len(files_read),
        "files_total": len(files_total),
        "results": results,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="train centroids + write assignments")
    b.add_argument("--input", required=True,
                   help="glob of embedding parquet shards")
    b.add_argument("--out", required=True, help="index output directory")
    b.add_argument("--num-centroids", type=int, default=16)
    b.add_argument("--sample-size", type=int, default=2048)
    b.add_argument("--seed", type=int, default=17)
    b.add_argument("--vec-col", default="embedding")
    b.add_argument("--id-col", default="vec_id")
    b.add_argument("--no-resume", action="store_true",
                   help="retrain centroids and rewrite every shard")

    q = sub.add_parser("probe", help="top-k search against a built index")
    q.add_argument("--out", required=True, help="index directory")
    q.add_argument("--query-json", help="query vector as a JSON float list")
    q.add_argument("--query-file",
                   help="path to a JSON file holding the query vector")
    q.add_argument("--k", type=int, default=10)
    q.add_argument("--nprobe", type=int, default=4)

    args = p.parse_args(argv)
    sys.path.insert(0, ".")

    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    try:
        if args.cmd == "build":
            files = sorted(glob.glob(args.input))
            if not files:
                print(f"no files match {args.input!r}", file=sys.stderr)
                return 2
            report = run_build(
                files, args.out,
                num_centroids=args.num_centroids,
                sample_size=args.sample_size, seed=args.seed,
                vec_col=args.vec_col, id_col=args.id_col,
                resume=not args.no_resume,
            )
        else:
            if bool(args.query_json) == bool(args.query_file):
                print("probe needs exactly one of --query-json/--query-file",
                      file=sys.stderr)
                return 2
            if args.query_json:
                query = json.loads(args.query_json)
            else:
                with open(args.query_file) as f:
                    query = json.load(f)
            report = run_probe(
                args.out, query, k=args.k, nprobe=args.nprobe
            )
        print(json.dumps(report))
        return 0
    finally:
        ray.shutdown()


if __name__ == "__main__":
    raise SystemExit(main())
