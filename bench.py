"""Benchmark harness.

Default: run the headline pipelines over $GRAFT_SF_DIR (default
/root/testdata/sf0.1) at num_cpus=$RAY_GRAFT_CPUS (default 32) and print
ONE JSON line:

    {"metric": "flagship_e2e", "value": <sec>, "unit": "sec",
     "queries": {...per-pipeline sec...}, "sf": ..., "num_cpus": N,
     "rows": {...}, "throughput_rows_per_s": ...,
     "hardware": {"cpu_count": ..., "loadavg_before": [1m, 5m, 15m],
                  "loadavg_after": [...]}}

--scaling: run the headline pipeline in fresh processes at num_cpus=N
and num_cpus=4N, N = cpu_count // 4 (at least 1; see scaling_levels), on
the same input and report both throughputs plus scaling efficiency
(sandbox proxy for N vs 4N nodes) next to the box's cpu_count.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))


def scaling_levels() -> tuple:
    """(N, 4N) CPUs for the scaling runs and the hardware probe, from
    this box: N = cpu_count // 4, at least 1 (1→4 on a 4-CPU box)."""
    n = max(1, (os.cpu_count() or 1) // 4)
    return n, 4 * n


def _loadavg() -> list:
    return [round(x, 2) for x in os.getloadavg()]


def run_bench() -> dict:
    import ray

    hardware = {"cpu_count": os.cpu_count(), "loadavg_before": _loadavg()}
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
            log_to_driver=False,  # keep stdout to exactly one JSON line
        )
    import logging

    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from openie_with_entities_ray.pipelines.flagship import (
        build_graph,
        extract_triples_with_entities,
    )
    from openie_with_entities_ray.queries import (
        q_ann_topk,
        q_boilerplate_clean,
        q_dup_span_scrub,
        q_events_windows,
        q_lineitem_agg,
        q_minhash_pairs,
        q_revenue_by_nation,
        q_semantic_dedup,
        q_training_order,
    )
    from openie_with_entities_ray.sources.source_docs import read_source_docs

    # warm the OS page cache so we measure compute+shuffle, not first I/O
    read_source_docs(SF_DIR).count()

    timings: dict = {}
    rows: dict = {}

    def timed(name, fn):
        t0 = time.perf_counter()
        n = fn()
        timings[name] = round(time.perf_counter() - t0, 3)
        rows[name] = n

    # the sf documents table is one tiny parquet file (one read block);
    # replicate deterministically + repartition so the headline measures
    # pipeline throughput, not single-block serialization (BASELINE.md)
    replicate = int(os.environ.get("GRAFT_BENCH_REPLICATE", "120"))
    # fixed block count at every parallelism level so the scaling
    # comparison sees identical per-task overhead
    n_blocks = 96

    def docs():
        return read_source_docs(
            SF_DIR, num_blocks=n_blocks, replicate=replicate
        )

    # headline: flagship extraction + entity link + graph materialize
    def flagship():
        triples = extract_triples_with_entities(docs())
        nodes, edges = build_graph(triples, deduped=False)
        n_e = edges.count()
        return n_e

    # this sandbox is a VM with up to 2x host-weather variance between
    # identical runs (BASELINE.md); the driver sees ONE bench run per
    # round, so the headline number itself must be weather-robust:
    # best-of-N inside the default mode (N=2), same protocol as the
    # committed baseline
    n_runs = int(os.environ.get("GRAFT_BENCH_RUNS", "2"))
    flagship_runs = []
    n_e = 0
    for _ in range(n_runs):
        t0 = time.perf_counter()
        n_e = flagship()
        flagship_runs.append(round(time.perf_counter() - t0, 3))
    timings["flagship"] = min(flagship_runs)
    rows["flagship"] = n_e

    if os.environ.get("GRAFT_BENCH_ONLY") != "flagship":
        # deduped corpus-level edge build (§2.8) as its own entry so the
        # coarse-partition dedup's cost stays visible round over round
        # (same input as the headline; headline protocol unchanged)
        timed(
            "flagship_deduped_edges",
            lambda: build_graph(
                extract_triples_with_entities(docs()), deduped=True
            )[1].count(),
        )
        timed("lineitem_agg", lambda: q_lineitem_agg(SF_DIR).count())
        timed("revenue_by_nation", lambda: q_revenue_by_nation(SF_DIR).count())
        timed("events_windows", lambda: q_events_windows(SF_DIR).count())
        timed("minhash_pairs", lambda: q_minhash_pairs(SF_DIR).count())
        timed("ann_topk", lambda: q_ann_topk(SF_DIR).count())
        timed(
            "semantic_dedup", lambda: q_semantic_dedup(SF_DIR).count()
        )
        timed(
            "training_order", lambda: q_training_order(SF_DIR).count()
        )
        timed(
            "boilerplate_clean",
            lambda: q_boilerplate_clean(SF_DIR).count(),
        )
        timed(
            "dup_span_scrub", lambda: q_dup_span_scrub(SF_DIR).count()
        )

    # hardware-ceiling probe (best-of-2, ~11 s) in the driver-visible
    # output so the scaling claim stays falsifiable every round.
    # GRAFT_BENCH_PROBE=0 skips it.
    hw_probe = None
    if os.environ.get("GRAFT_BENCH_PROBE", "1") != "0":
        try:
            hw_probe = round(hardware_scaling_baseline(*scaling_levels()), 3)
        except Exception:  # noqa: BLE001 — a probe failure must not kill
            hw_probe = None  # the bench line the driver parses

    result = {
        "metric": "flagship_e2e",
        "value": timings["flagship"],
        "unit": "sec",
        "hw_per_proc_ceiling": hw_probe,
        "queries": timings,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "rows": rows,
        "flagship_runs": flagship_runs,
        "total_sec": round(sum(timings.values()), 3),
        "throughput_rows_per_s": (
            round(rows["flagship"] / timings["flagship"], 1)
            if timings["flagship"]
            else None
        ),
        "hardware": {**hardware, "loadavg_after": _loadavg()},
    }
    ray.shutdown()
    return result


_HW_PROBE = '''
import time, sys
sys.path.insert(0, {repo!r})
from openie_with_entities_ray.stages.extract import FusedExtractor
import pyarrow.parquet as pq
texts = pq.read_table({docs!r}, columns=["text"]).column("text").to_pylist()[:3000] * 4
fe = FusedExtractor()
t0 = time.perf_counter()
n = 0
for t in texts:
    n += len(fe.extract_one(" ".join(t.split()[:60])))
print(n, time.perf_counter() - t0)
'''


def hardware_scaling_baseline(lo: int, hi: int, samples: int = 2) -> float:
    """Per-process throughput ratio of hi vs lo *independent Python
    processes* running the extraction kernel — no Ray involved. On one
    box this is <1 (shared memory bus / turbo clocks); a real N→4N
    cluster adds machines, not bus contention, so the single-node
    efficiency proxy should be read relative to this ceiling."""
    work = _HW_PROBE.format(
        repo=os.path.dirname(os.path.abspath(__file__)),
        docs=f"{SF_DIR}/documents.parquet",
    )

    def rate(k: int) -> float:
        t0 = time.perf_counter()
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", work],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(k)
        ]
        results = [p.communicate() for p in procs]
        wall = time.perf_counter() - t0
        for p, (out, err) in zip(procs, results):
            if p.returncode != 0 or not out.split():
                raise RuntimeError(
                    f"hardware probe worker failed (rc={p.returncode}): "
                    f"{err.strip()[-500:]}"
                )
        total = sum(int(out.split()[0]) for out, _ in results)
        return total / wall / k

    # the probe rides the same host noise as everything else: take the
    # best of `samples` interleaved measurements per level
    r_hi = max(rate(hi) for _ in range(samples))
    r_lo = max(rate(lo) for _ in range(samples))
    return r_hi / r_lo


def run_scaling() -> dict:
    def one(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_BENCH_ONLY="flagship",
            GRAFT_BENCH_RUNS="1",  # best-of happens at this level instead
            # larger corpus for the scaling comparison so the fixed costs
            # (Ray start, worker imports, read barrier) drop below ~5% of
            # wall time
            GRAFT_BENCH_REPLICATE=os.environ.get(
                "GRAFT_BENCH_REPLICATE", "320"
            ),
        )
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        line = next(
            l for l in reversed(out.strip().splitlines()) if l.startswith("{")
        )
        return json.loads(line)

    lo, hi = scaling_levels()
    # hardware baseline BEFORE and AFTER: host weather on this VM can
    # shift mid-protocol (measured: ceiling 0.95 with the slowest 4N-CPU
    # run of the day in one window) — publishing both keeps the claim
    # falsifiable; the normalization uses their max (the ceiling is a
    # best-case process-scaling bound)
    hw_pre = hardware_scaling_baseline(lo, hi)
    time.sleep(5)
    # INTERLEAVE lo/hi runs (lo,hi,lo,hi) instead of all-lo-then-all-hi:
    # a weather shift between phases would otherwise bias the ratio in
    # either direction; interleaving puts both levels in every phase
    runs_lo, runs_hi = [], []
    for _ in range(2):
        runs_lo.append(one(lo))
        time.sleep(3)
        runs_hi.append(one(hi))
        time.sleep(3)
    r_lo = min(runs_lo, key=lambda r: r["value"])
    r_hi = min(runs_hi, key=lambda r: r["value"])
    hw_post = hardware_scaling_baseline(lo, hi)
    hw = max(hw_pre, hw_post)
    t_lo = r_lo["value"]
    t_hi = r_hi["value"]
    # throughput-basis efficiency: (T_lo/T_hi) / (hi/lo); 1.0 = linear
    eff = (t_lo / t_hi) / (hi / lo)
    return {
        "metric": "scaling_efficiency",
        "value": round(eff, 3),
        "unit": "ratio",
        "sec_lo": t_lo,
        "sec_hi": t_hi,
        "num_cpus_lo": lo,
        "num_cpus_hi": hi,
        "cpu_count": os.cpu_count(),
        "throughput_lo": round(r_lo["rows"]["flagship"] / t_lo, 1),
        "throughput_hi": round(r_hi["rows"]["flagship"] / t_hi, 1),
        "hw_per_proc_ceiling": round(hw, 3),
        "hw_ceiling_pre": round(hw_pre, 3),
        "hw_ceiling_post": round(hw_post, 3),
        "bus_normalized_efficiency": round(eff / hw, 3),
        "sf": SF_DIR,
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
