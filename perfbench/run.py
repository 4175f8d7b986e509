"""Benchmark harness: one workload (or all) through the engine's entry points.

    python3 perfbench/run.py --workload prose_graph --seed 1 --seconds 15 --trace 0

Run from the repository root. The harness

1. writes the workload's inputs from ``--seed`` (single-threaded, before
   anything is timed) under ``.perfbench_work/``;
2. replays them serially through the stage callables (replay.py) for the
   expected output hash, the input properties and, with ``--trace 1``, the
   per-layer numbers;
3. starts one Ray session process (session.py) that sets up, warms up and
   runs the entry point repeatedly for ``--seconds``, and, with
   ``--trace 1``, makes one more run with Ray Data's execution stats taken;
4. checks every run's output hash against the replay's, and enforces a
   deadline on every step: a step past it has the session's whole process
   tree killed and counts as a failed run.

It prints one JSON line of details (hardware, input properties, every run)
and, last, the result line: ``{"correct", "attempted", "failed",
"metrics"}``, with the end-to-end metrics under ``--trace 0`` and the
per-layer metrics under ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NUM_CPUS = 4  # the CPU affinity of the reference box and the ROADMAP baseline
OBJECT_STORE_MB = 768
SESSIONS = 2  # session starts per end-to-end run; setup_s takes their median
GLOBAL_DEADLINE_S = 170.0
STEP_DEADLINE_S = {"session": 60.0, "setup": 90.0, "run": 60.0, "trace": 90.0, "done": 30.0}
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SELF_TIME_TOLERANCE = 0.05  # layer self times must cover serial_s to within this share


class DeadlineMissed(Exception):
    pass


class BenchmarkFailed(Exception):
    """A workload produced no result: set-up failed or no run succeeded."""


def _check_layout() -> None:
    missing = [p for p in ("openie_with_entities_ray/__init__.py", "perfbench/session.py")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        sys.exit(f"perfbench: {ROOT} is not a repository checkout (missing {missing})")


def _ray_temp_dir() -> str:
    """Ray's temp dir inside the checkout, unless the path is too long for
    the Unix sockets Ray puts three levels below it (108 bytes in all, the
    levels take 65); then Ray's own default."""
    path = os.path.join(WORK_ROOT, "ray")
    return path if len(path) <= 42 else os.environ.get("RAY_TMPDIR", "/tmp/ray")


class Session:
    """The Ray session child process and its deadline-bounded event stream."""

    def __init__(self, cfg: dict, deadline: float):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (ROOT, env.get("PYTHONPATH")) if p)
        env["RAY_USAGE_STATS_ENABLED"] = "0"
        self.deadline = deadline
        self.seen = {}  # pid -> start time of every process seen in the tree
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.session", json.dumps(cfg)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True,
        )
        self._buf = b""

    def next_event(self, step: str) -> dict:
        """The next ``PERFBENCH`` event, or DeadlineMissed after the step's
        deadline; other output lines are passed through to stderr."""
        from perfbench.measure import descendants

        until = min(self.deadline, time.monotonic() + STEP_DEADLINE_S[step])
        fd = self.proc.stdout.fileno()
        while True:
            self.seen.update(descendants(self.proc.pid))
            while b"\n" in self._buf:
                line, self._buf = self._buf.split(b"\n", 1)
                text = line.decode("utf-8", "replace")
                if text.startswith("PERFBENCH "):
                    return json.loads(text[len("PERFBENCH "):])
                print(text, file=sys.stderr)
            left = until - time.monotonic()
            if left <= 0:
                raise DeadlineMissed(step)
            ready, _, _ = select.select([fd], [], [], min(left, 1.0))
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    code = self.proc.wait()
                    raise RuntimeError(f"session exited with code {code} during {step}")
                self._buf += chunk

    def close(self) -> None:
        """Kill whatever is left of the session's process tree and wait
        until every process in it has ended."""
        from perfbench.measure import alive, descendants

        if self.proc.poll() is None:
            self.seen.update(descendants(self.proc.pid))
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        for pid, start in self.seen.items():
            if alive(pid, start):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        end = time.monotonic() + 20
        while any(alive(p, s) for p, s in self.seen.items()) and time.monotonic() < end:
            time.sleep(0.1)


def _tail(xs):
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None when there are too few samples."""
    n = len(xs)
    if n < 20:
        return None
    p = int(100 * (n - 10) / n)
    return p, sorted(xs)[max(0, -(-p * n // 100) - 1)]


def _hardware() -> dict:
    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True).stdout)
    except (OSError, ValueError):
        nproc = None
    return {
        "num_cpus": NUM_CPUS,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "nproc": nproc,
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    from perfbench import replay, workloads
    from perfbench.trace import Tracer

    started = time.monotonic()
    work = os.path.join(WORK_ROOT, str(os.getpid()))
    ray_tmp = _ray_temp_dir()
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = workloads.write_inputs(workload, seed, os.path.join(work, "input"))
        warm = workloads.write_inputs(workload, seed, os.path.join(work, "warmup-input"),
                                      warmup=True)
        tracer = Tracer()
        replay.install(tracer)
        try:
            expected = replay.replay(workload, inputs, tracer)
        finally:
            tracer.restore()
        cfg = {
            "workload": workload, "inputs": inputs, "warmup_inputs": warm,
            "work_dir": work, "seconds": seconds, "trace": trace,
            "num_cpus": NUM_CPUS, "object_store_mb": OBJECT_STORE_MB,
            "sessions": 1 if trace else SESSIONS, "ray_temp_dir": ray_tmp,
        }
        events = _drive(cfg, started + GLOBAL_DEADLINE_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if ray_tmp.startswith(WORK_ROOT):
            shutil.rmtree(ray_tmp, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    return _report(workload, seed, trace, expected, tracer, events)


def _drive(cfg: dict, deadline: float) -> dict:
    """Run the session; returns its events, with runs that missed a
    deadline or reported the wrong event recorded as failed."""
    session = Session(cfg, deadline)
    ev = {"sessions": [], "runs": [], "trace": None, "error": None}
    step = "session"
    try:
        for _ in range(cfg["sessions"]):
            ev["sessions"].append(session.next_event("session")["seconds"])
        step = "setup"
        ev["setup"] = session.next_event("setup")
        while True:
            step = "run"
            e = session.next_event("run")  # run_start, trace_start or done
            if e["event"] == "run_start":
                ev["runs"].append({"ok": False, "error": "deadline"})
                ev["runs"][-1] = session.next_event("run")
                continue
            if e["event"] == "trace_start":
                step = "trace"
                ev["trace"] = session.next_event("trace")
                step = "done"
                session.next_event("done")
            break
    except (DeadlineMissed, RuntimeError) as exc:
        ev["error"] = f"{type(exc).__name__} during {step}: {exc}"
    finally:
        session.close()
    return ev


def _report(workload, seed, trace, expected, tracer, ev) -> dict:
    from perfbench import replay, workloads

    if "setup" not in ev:
        raise BenchmarkFailed(f"{workload} set-up failed: {ev['error']}")
    runs = ev["runs"]
    for r in runs:
        if r.get("ok") and r["hash"] != expected["hash"]:
            r["ok"], r["error"] = False, f"output hash {r['hash']} != replay {expected['hash']}"
    good = [r for r in runs if r.get("ok")]
    if not good:
        errors = [r.get("error") for r in runs] + [ev["error"]]
        raise BenchmarkFailed(f"no {workload} run succeeded: {errors}")
    failed = len(runs) - len(good)
    walls = [r["wall_s"] for r in good]
    run_s = statistics.median(walls)
    setup_s = statistics.median(ev["sessions"]) + ev["setup"]["warmup_s"]
    details = {
        "workload": workload, "seed": seed, "why": workloads.WHY[workload],
        "hardware": _hardware(), "input": expected["props"],
        "expected_hash": expected["hash"], "triples": expected["triples"],
        "fail_ratio": failed / len(runs), "error": ev["error"],
        "setup": {"session_s": ev["sessions"], "warmup_s": ev["setup"]["warmup_s"]},
        "runs": [{k: v for k, v in r.items() if k not in ("event", "hash")} for r in runs],
        "run_s_tail": _tail(walls),
    }
    if trace:
        tr = ev["trace"]
        if tr is None:
            raise BenchmarkFailed(f"{workload} traced run failed: {ev['error']}")
        details["traced_run_hash_ok"] = tr["hash"] == expected["hash"]
        failed += 0 if details["traced_run_hash_ok"] else 1
        metrics = replay.layer_metrics(workload, expected, tracer)
        metrics.update(_ray_layer_metrics(tr, run_s, expected["serial_s"]))
        details["ray_executions"] = tr["executions"]
        details["self_time_tolerance"] = SELF_TIME_TOLERANCE
        units = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    else:
        metrics = {
            "run_s": run_s,
            "triples_per_s": expected["triples"] / run_s,
            "cpu_s": statistics.median([r["cpu_s"] for r in good]),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in good]),
            "setup_s": setup_s,
        }
        units = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    result = {
        "correct": failed == 0 and ev["error"] is None,
        "attempted": len(runs) + (1 if trace else 0),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return {"details": details, "result": result}


def op_key(name: str) -> str:
    """Metric key of a Ray Data operator: the functions of a fused
    ``MapBatches(f)->MapBatches(g)`` chain, or the operator types, joined
    by ``-`` (``MapBatches(_explode_batch)->MapBatches(FusedExtractor)`` →
    ``explode_batch-FusedExtractor``, ``ReadParquet->SplitBlocks(3)`` →
    ``ReadParquet-SplitBlocks``)."""
    parts = []
    for comp in name.split("->"):
        m = re.fullmatch(r"(\w+)\((.*)\)", comp)
        if m is None:
            parts.append(comp)
        elif m.group(1) in ("MapBatches", "Map", "FlatMap", "Filter"):
            parts.append(m.group(2).strip("_<>"))
        else:
            parts.append(m.group(1))
    return re.sub(r"[^A-Za-z0-9_.-]", "_", "-".join(parts))


def _ray_layer_metrics(tr: dict, run_s: float, serial_s: float) -> dict:
    """Per-layer metrics of the traced Ray run. An operator whose key is not
    declared in BENCHMARK.json is summed into ``ray.op.other``."""
    spans = tr["spans"]
    metrics = {
        "graph.write_partition.busy_s": spans.get("graph.write_partition", {}).get("busy_s", 0.0),
        "cli.write_conj_s": spans.get("cli.write_conj", {}).get("busy_s", 0.0),
        "cli.write_oie_s": spans.get("cli.write_oie", {}).get("busy_s", 0.0),
        "cli.bytes_out": tr["bytes_out"],
        "ray.executions": len(tr["executions"]),
        "ray.parallel_efficiency": serial_s / (run_s * NUM_CPUS),
        "trace.overhead_ratio": (tr["wall_s"] - run_s) / run_s,
    }
    declared = [m["name"] for m in _declared()["per_layer"]]
    for name in declared:
        if name.startswith("ray.op."):
            metrics[name] = 0
    for ops in tr["executions"]:
        for op, wall_s, rows in ops:
            key = f"ray.op.{op_key(op)}"
            if f"{key}.wall_s" not in declared:
                key = "ray.op.other"
            metrics[f"{key}.wall_s"] += wall_s
            metrics[f"{key}.rows_out"] += rows
    return metrics


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _check_layout()
    # a SIGTERM (e.g. an outer timeout) unwinds through the finally blocks
    # that kill the session's process tree and remove the work dir
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in WORKLOADS for n in names):
        ap.error(f"--workload must be one of {WORKLOADS} or all")
    status = 0
    for name in names:
        try:
            out = run_one(name, args.seed, args.seconds, bool(args.trace))
        except BenchmarkFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            status = 1
            continue
        print(json.dumps(out["details"]))
        print(json.dumps(out["result"]), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
