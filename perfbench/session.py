"""One Ray session of the benchmark: set-up, warm-up, timed runs, trace.

Started by ``perfbench/run.py`` as a child process with a JSON config as its
only argument, from the repository root with the root on ``PYTHONPATH``, so
this process, the raylet and every Ray worker it forks import the package
from the same tree. It reports progress as ``PERFBENCH <json>`` lines on
stdout; the harness enforces a deadline on each and tears the session's
process tree down when one is missed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
import traceback

import ray

from perfbench.measure import (
    PeakRss,
    blobs_hash,
    cpu_delta,
    cpu_times,
    loadavg,
    parquet_dir_table,
    tables_hash,
)
from perfbench.trace import Tracer

MIN_RUNS = 3


def emit(event: str, **fields) -> None:
    print("PERFBENCH " + json.dumps({"event": event, **fields}), flush=True)


@ray.remote(num_cpus=0)
def _import_package() -> None:
    import openie_with_entities_ray.cli  # noqa: F401
    import openie_with_entities_ray.pipelines.flagship  # noqa: F401


def start_session(cfg: dict) -> None:
    import logging

    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=cfg["num_cpus"],
        object_store_memory=cfg["object_store_mb"] << 20,
        include_dashboard=False,
        log_to_driver=False,
        logging_level="ERROR",
        _temp_dir=cfg["ray_temp_dir"],
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    # one zero-CPU task per CPU: worker processes start and import the
    # package before anything is timed as a run
    ray.get([_import_package.remote() for _ in range(cfg["num_cpus"])])


def run_workload(workload: str, inputs: dict, out: str) -> None:
    """One call of the workload's entry point, writing under ``out``."""
    if workload == "prose_graph":
        from openie_with_entities_ray.pipelines.flagship import materialize_graph

        materialize_graph(ray.data.read_parquet(inputs["docs"]), out)
    elif workload == "code_shards":
        from openie_with_entities_ray.pipelines.flagship import resumable_materialize

        manifests, skipped = resumable_materialize(inputs["shards"], out)
        if len(manifests) != len(inputs["shards"]) or skipped:
            raise RuntimeError(f"{len(manifests)} manifests, {len(skipped)} skipped")
    else:
        from openie_with_entities_ray import cli

        # the CLI shuts down the session it runs in; the benchmark keeps
        # its session across runs, so the call is suppressed while it runs
        os.makedirs(out, exist_ok=True)
        real_shutdown = ray.shutdown
        ray.shutdown = lambda *a, **k: None
        try:
            cli.main(["--mode", "splitpredict", "--inp", inputs["sentences"],
                      "--out", os.path.join(out, "out")])
        finally:
            ray.shutdown = real_shutdown


def output_digest(workload: str, inputs: dict, out: str):
    """(hash, triples emitted) of one run's outputs, as replay.py hashes them."""
    if workload == "prose_graph":
        tables = [parquet_dir_table(os.path.join(out, d)) for d in ("triples", "edges", "nodes")]
        return tables_hash(*tables), tables[0].num_rows
    if workload == "code_shards":
        import pyarrow as pa

        parts = []
        for k in range(len(inputs["shards"])):
            t = parquet_dir_table(os.path.join(out, "edges", f"part={k}"))
            parts.append(t.append_column("part", pa.array([k] * t.num_rows, pa.int64())))
        edges = pa.concat_tables(parts)
        return tables_hash(edges), edges.num_rows
    blobs = []
    for ext in ("conj", "oie", "allennlp"):
        with open(os.path.join(out, f"out.{ext}"), "rb") as f:
            blobs.append(f.read())
    return blobs_hash(blobs), blobs[2].count(b"\n")


def timed_run(cfg: dict, index: int) -> dict:
    out = os.path.join(cfg["work_dir"], f"run-{index}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    load_before = loadavg()
    cpu0 = cpu_times()
    try:
        with PeakRss(os.getpid()) as rss:
            t0 = time.perf_counter()
            run_workload(cfg["workload"], cfg["inputs"], out)
            wall = time.perf_counter() - t0
        cpu = cpu_delta(cpu0, cpu_times())
        load_after = loadavg()
        digest, triples = output_digest(cfg["workload"], cfg["inputs"], out)
    except Exception:
        return {"ok": False, "error": traceback.format_exc()}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return {
        "ok": True, "wall_s": wall, "cpu_s": cpu["cpu_s"],
        "steal_share": cpu["steal_share"], "peak_rss_mb": rss.peak / 2**20,
        "load_before": load_before, "load_after": load_after,
        "hash": digest, "triples": triples,
    }


def install_ray_hooks(tracer: Tracer, executions: list) -> None:
    """Spans around the writers that run in this process, and Ray Data's
    own stats of every execution the traced run starts."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from openie_with_entities_ray import cli
    from openie_with_entities_ray.pipelines import flagship

    tracer.patch(flagship, "write_partition", "graph.write_partition")
    tracer.patch(cli, "_write_conj", "cli.write_conj")
    tracer.patch(cli, "_write_oie_allennlp", "cli.write_oie")
    seen = set()

    def make(original):
        def shutdown(self, *args, **kwargs):
            done = self._final_stats is not None
            result = original(self, *args, **kwargs)
            if not done and self._final_stats is not None:
                executions.append(_operator_stats(self._final_stats, seen))
            return result

        return shutdown

    tracer.wrap(StreamingExecutor, "shutdown", make)


def _operator_stats(stats, seen: set) -> list:
    """[(operator name, summed task wall seconds, rows out)] of one execution
    and the upstream datasets it ran. A materialized upstream dataset's
    stats hang under every later execution, so records already in ``seen``
    are skipped."""
    ops, todo = [], [stats]
    while todo:
        st = todo.pop()
        for op in st.to_summary().operators_stats:
            rec = (
                op.operator_name,
                (op.wall_time or {}).get("sum", 0.0),
                int((op.output_num_rows or {}).get("sum", 0)),
            )
            if not op.is_sub_operator and rec not in seen:
                seen.add(rec)
                ops.append(list(rec))
        todo.extend(st.parents)
    return ops


def traced_run(cfg: dict) -> dict:
    out = os.path.join(cfg["work_dir"], "traced")
    os.makedirs(out, exist_ok=True)
    tracer, executions = Tracer(), []
    install_ray_hooks(tracer, executions)
    try:
        t0 = time.perf_counter()
        run_workload(cfg["workload"], cfg["inputs"], out)
        wall = time.perf_counter() - t0
    finally:
        tracer.restore()
    digest, _ = output_digest(cfg["workload"], cfg["inputs"], out)
    bytes_out = sum(
        os.path.getsize(os.path.join(out, f)) for f in os.listdir(out)
        if os.path.isfile(os.path.join(out, f))
    )
    shutil.rmtree(out, ignore_errors=True)
    return {"wall_s": wall, "hash": digest, "spans": tracer.summary(),
            "executions": executions, "bytes_out": bytes_out}


def main(cfg: dict) -> int:
    sessions = []
    for i in range(cfg["sessions"]):
        t0 = time.perf_counter()
        start_session(cfg)
        sessions.append(time.perf_counter() - t0)
        if i < cfg["sessions"] - 1:
            ray.shutdown()
        emit("session", seconds=sessions[-1])
    warm = os.path.join(cfg["work_dir"], "warmup")
    t0 = time.perf_counter()
    run_workload(cfg["workload"], cfg["warmup_inputs"], warm)
    emit("setup", session_s=sessions, warmup_s=time.perf_counter() - t0)
    shutil.rmtree(warm, ignore_errors=True)

    # runs continue while the next one, at the median length so far, ends
    # inside the window, and at least MIN_RUNS are made for a median
    lengths, start = [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        predicted = sorted(lengths)[len(lengths) // 2] if lengths else 0.0
        if len(lengths) >= MIN_RUNS and t0 - start + predicted > cfg["seconds"]:
            break
        emit("run_start", index=len(lengths))
        result = timed_run(cfg, len(lengths))
        lengths.append(time.perf_counter() - t0)
        emit("run", **result)
    if cfg["trace"]:
        emit("trace_start")
        emit("trace", **traced_run(cfg))
    ray.shutdown()
    emit("done")
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
