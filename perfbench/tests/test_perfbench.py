"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

The smoke tests start real Ray sessions (about half a minute each).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pyarrow.parquet as pq
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import run, workloads  # noqa: E402
from perfbench.measure import alive, table_hash  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TINY = {
    "prose_graph": {"docs": 60, "files": 2, "warmup_docs": 20},
    "code_shards": {"docs": 60, "shards": 2, "warmup_docs": 20},
    "cli_splitpredict": {"lines": 60, "warmup_lines": 20},
}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "SIZES", TINY)


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _input_digest(inputs: dict) -> list:
    out = []
    for key, value in sorted(inputs.items()):
        for path in value if isinstance(value, list) else [value]:
            if path.endswith(".txt"):
                with open(path, "rb") as f:
                    out.append(f.read())
            else:
                out.append(table_hash(pq.read_table(path)))
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload, tiny, tmp_path):
    a = workloads.write_inputs(workload, 5, str(tmp_path / "a"))
    b = workloads.write_inputs(workload, 5, str(tmp_path / "b"))
    c = workloads.write_inputs(workload, 6, str(tmp_path / "c"))
    w = workloads.write_inputs(workload, 5, str(tmp_path / "w"), warmup=True)
    assert _input_digest(a) == _input_digest(b)
    assert _input_digest(a) != _input_digest(c)
    assert _input_digest(a) != _input_digest(w)


def test_benchmark_json_follows_the_contract():
    spec = _declared()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_op_keys_are_metric_names():
    for op in ("MapBatches(_explode_batch)->MapBatches(FusedExtractorWithEntities)",
               "ReadParquet->SplitBlocks(3)", "MapBatches(<lambda>)", "Write"):
        assert NAME.fullmatch(f"ray.op.{run.op_key(op)}.wall_s")
    assert run.op_key("ReadParquet->SplitBlocks(8)") == "ReadParquet-SplitBlocks"


def test_self_times_partition_the_traced_time():
    t = Tracer()

    def leaf():
        time.sleep(0.01)

    def outer():
        t.span("leaf", leaf)()
        t.span("leaf", leaf)()
        time.sleep(0.01)

    t.span("outer", outer)()
    s = t.summary()
    assert s["leaf"]["calls"] == 2
    total = s["outer"]["busy_s"]
    assert abs(s["outer"]["self_s"] + s["leaf"]["self_s"] - total) < 1e-9
    assert s["outer"]["self_s"] < total


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_smoke_run_passes_its_output_check(workload, tiny):
    out = run.run_one(workload, seed=3, seconds=1, trace=True)
    result, details = out["result"], out["details"]
    assert result["correct"] and result["failed"] == 0, details
    declared = {m["name"] for m in _declared()["per_layer"]}
    assert set(result["metrics"]) == declared
    layers = result["metrics"]
    assert layers["labeler.label_oie.calls"]["value"] > 0
    attributed = layers["trace.attributed_ratio"]["value"]
    assert 1 - run.SELF_TIME_TOLERANCE <= attributed <= 1.0
    assert details["input"]["docs"] == sum(
        v for k, v in TINY[workload].items() if k in ("docs", "lines"))


def test_untraced_smoke_run_reports_every_end_to_end_metric(tiny):
    out = run.run_one("cli_splitpredict", seed=4, seconds=1, trace=False)
    result = out["result"]
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in _declared()["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert out["details"]["hardware"]["num_cpus"] == run.NUM_CPUS


def test_a_run_past_its_deadline_is_torn_down_and_counted(tiny, monkeypatch):
    monkeypatch.setitem(run.STEP_DEADLINE_S, "run", 0.5)
    seen = {}
    close = run.Session.close

    def spy(self):
        close(self)
        seen.update(self.seen)

    monkeypatch.setattr(run.Session, "close", spy)
    with pytest.raises(run.BenchmarkFailed, match="no code_shards run succeeded"):
        run.run_one("code_shards", seed=3, seconds=1, trace=False)
    assert seen and not any(alive(p, s) for p, s in seen.items())


def test_outside_a_checkout_the_harness_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "prose_graph", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
