"""The resume protocol of stages/graph.py and its users.

flagship.resumable_materialize: row-group work units in one Ray
execution, shard-level manifests. Parity is checked against an
independent per-shard oracle: the same callables applied to the whole
shard table in one process, with no Ray, no row-group split and no
batching. A resume must survive a SIGKILL of the whole run and refuse a
shard rewritten since its manifest.

``write_partitions``/``pending_partitions``: the one resume decision of
every manifest-tracked job stage — skip on an unchanged input, refuse a
changed one, rebuild everything without resume; a SIGKILLed job resumes
to a clean run's output.
"""

import glob
import importlib.util
import json
import os
import re
import signal
import subprocess
import sys
import time

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from openie_with_entities_ray.sources.source_docs import synthetic_doc

SEED = 42
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _docs_table(lo: int, hi: int) -> pa.Table:
    docs = [synthetic_doc(i, SEED) for i in range(lo, hi)]
    return pa.table({c: [d[c] for d in docs] for c in docs[0]})


def _write_shard(path, table, **kwargs) -> str:
    pq.write_table(table, path, **kwargs)
    return str(path)


def _oracle_edges(table: pa.Table, with_entities: bool) -> pa.Table:
    """Shard k's edges without the engine: explode → fused extractor →
    edges over the whole shard table at once."""
    from openie_with_entities_ray.stages.entity import (
        FusedExtractorWithEntities,
    )
    from openie_with_entities_ray.stages.extract import FusedExtractor
    from openie_with_entities_ray.stages.graph import triples_to_edges
    from openie_with_entities_ray.stages.sentences import _explode_batch

    kernel = (FusedExtractorWithEntities if with_entities
              else FusedExtractor)(seed=777)
    return triples_to_edges(kernel(_explode_batch(table)))


def _rows(table: pa.Table) -> list:
    names = sorted(table.column_names)
    return sorted(zip(*(table.column(n).to_pylist() for n in names)))


def _part_files(out, part: int) -> list:
    d = os.path.join(out, "edges", f"part={part}")
    return sorted(os.listdir(d)) if os.path.isdir(d) else []


def _part_rows(out, part: int) -> list:
    files = _part_files(out, part)
    if not files:
        return []
    d = os.path.join(out, "edges", f"part={part}")
    return _rows(pa.concat_tables(
        [pq.read_table(os.path.join(d, f)) for f in files]
    ))


@pytest.mark.parametrize("with_entities", [False, True])
def test_resumable_materialize_matches_per_shard_oracle(
    ray_session, tmp_path, with_entities
):
    """Several row groups per shard, a 0-row shard (one empty row group),
    a shard with no row group at all and a row group cut into several
    units: every partition holds exactly its oracle's edges, one
    ``rg-<i>-<start>.parquet`` per unit with edges."""
    from openie_with_entities_ray.pipelines.flagship import (
        resumable_materialize,
    )

    from openie_with_entities_ray.stages.sentences import DOCS_BATCH

    multi = _docs_table(0, 30)
    empty = multi.slice(0, 0)
    # one row group of 2 batches and a bit: three units
    tables = [multi, empty, empty, _docs_table(30, 70 + 2 * DOCS_BATCH)]
    shards = [
        _write_shard(tmp_path / "s0.parquet", multi, row_group_size=7),
        _write_shard(tmp_path / "s1.parquet", empty),
        str(tmp_path / "s2.parquet"),
        _write_shard(tmp_path / "s3.parquet", tables[3]),
    ]
    pq.ParquetWriter(shards[2], multi.schema).close()  # 0 row groups
    assert pq.ParquetFile(shards[0]).metadata.num_row_groups == 5
    assert pq.ParquetFile(shards[2]).metadata.num_row_groups == 0

    out = tmp_path / "out"
    manifests, skipped = resumable_materialize(
        shards, str(out), with_entities=with_entities
    )
    assert skipped == []
    assert [m["partition"] for m in manifests] == [0, 1, 2, 3]
    for part, table in enumerate(tables):
        want = _rows(_oracle_edges(table, with_entities))
        assert _part_rows(out, part) == want, part
        assert manifests[part]["rows"] == len(want)
        assert manifests[part]["input"] == shards[part]
    assert manifests[0]["rows"] > 0
    assert _part_files(out, 0) == [f"rg-{i}-0.parquet" for i in range(5)]
    assert _part_files(out, 1) == _part_files(out, 2) == []
    assert _part_files(out, 3) == [
        f"rg-0-{s}.parquet" for s in (0, DOCS_BATCH, 2 * DOCS_BATCH)
    ]


@pytest.mark.parametrize("rows", [0, 1, 255, 256, 257, 2048, 2049, 100_000])
def test_shard_units_cover_row_groups_in_whole_batches(tmp_path, rows):
    """A row group's units cover its rows exactly, in order, start on a
    ``DOCS_BATCH`` boundary and number at most ``UNIT_SPLIT``."""
    from openie_with_entities_ray.pipelines.flagship import (
        UNIT_SPLIT,
        _shard_units,
    )
    from openie_with_entities_ray.stages.sentences import DOCS_BATCH

    path = _write_shard(tmp_path / "s.parquet",
                        pa.table({"x": pa.array(range(rows), pa.int64())}),
                        row_group_size=max(rows, 1))
    units = _shard_units(7, path)
    assert all(u["part"] == 7 and u["row_group"] == 0 for u in units)
    assert len(units) <= UNIT_SPLIT
    spans = [(u["start"], u["stop"]) for u in units]
    bounds = [0] + [b for _, b in spans]
    assert spans == list(zip(bounds, bounds[1:])) and bounds[-1] == rows
    assert all(a % DOCS_BATCH == 0 and b > a for a, b in spans)
    assert len(units) == min(UNIT_SPLIT, -(-rows // DOCS_BATCH))


def test_resumable_materialize_runs_one_execution(ray_session, monkeypatch,
                                                  tmp_path):
    """All pending shards run in ONE Ray execution of the unit kernel,
    not one execution per shard."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    from openie_with_entities_ray.pipelines.flagship import (
        resumable_materialize,
    )

    plans = []
    real_execute = StreamingExecutor.execute

    def execute(self, dag, *args, **kwargs):
        names, todo = [], [dag]
        while todo:
            op = todo.pop()
            names.append(op.name)
            todo.extend(op.input_dependencies)
        plans.append(names)
        return real_execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", execute)
    shards = [
        _write_shard(tmp_path / f"s{k}.parquet", _docs_table(k * 8, k * 8 + 8))
        for k in range(3)
    ]
    manifests, _ = resumable_materialize(shards, str(tmp_path / "out"))
    assert len(manifests) == 3
    assert len(plans) == 1, plans
    assert "MapBatches(_UnitWriter)" in plans[0], plans


def test_resume_rejects_changed_shard(ray_session, tmp_path):
    """A completed partition whose shard was rewritten since its
    manifest's stamp refuses to resume; a manifest without a stamp (an
    older run's) still resumes on its path alone."""
    from openie_with_entities_ray.pipelines.flagship import (
        resumable_materialize,
    )

    tables = [_docs_table(0, 6), _docs_table(6, 12)]
    shards = [_write_shard(tmp_path / f"s{k}.parquet", t)
              for k, t in enumerate(tables)]
    out = tmp_path / "out"
    resumable_materialize(shards, str(out))

    manifest = out / "edges" / "_manifests" / "part-0.json"
    meta = json.loads(manifest.read_text())
    st = os.stat(shards[0])
    assert meta["stamp"] == [st.st_size, st.st_mtime_ns]
    _write_shard(shards[0], tables[0])  # same bytes, new generation
    os.utime(shards[0], ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    with pytest.raises(ValueError, match="resume mismatch"):
        resumable_materialize(shards, str(out))

    del meta["stamp"]
    manifest.write_text(json.dumps(meta))
    manifests, skipped = resumable_materialize(shards, str(out))
    assert manifests == [] and skipped == [0, 1]


_KILLED_RUN = """
import sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from openie_with_entities_ray.pipelines.flagship import resumable_materialize
resumable_materialize(sys.argv[2:], sys.argv[1])
"""


def test_resumable_materialize_survives_sigkill(ray_session, tmp_path):
    """SIGKILL a run (driver and its whole Ray session) once its first
    manifest lands; the in-process resume completes the rest and every
    partition equals a clean run's, with no stale row-group file left in
    a rebuilt partition."""
    from openie_with_entities_ray.pipelines.flagship import (
        resumable_materialize,
    )

    shards = [
        _write_shard(tmp_path / "s0.parquet", _docs_table(0, 40)),
        _write_shard(tmp_path / "s1.parquet", _docs_table(40, 100),
                     row_group_size=12),
        _write_shard(tmp_path / "s2.parquet", _docs_table(100, 140)),
        _write_shard(tmp_path / "s3.parquet", _docs_table(140, 180)),
    ]
    out = tmp_path / "killed"
    mdir = out / "edges" / "_manifests"
    proc = subprocess.Popen(
        [sys.executable, "-c", _KILLED_RUN, str(out), *shards],
        cwd=REPO, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    try:
        deadline = time.monotonic() + 240
        while not (mdir.is_dir() and any(
            n.endswith(".json") for n in os.listdir(mdir)
        )):
            assert proc.poll() is None, proc.stderr.read()[-2000:]
            assert time.monotonic() < deadline, "no manifest in time"
            time.sleep(0.01)
    finally:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        proc.stderr.close()

    committed = {int(n[len("part-"):-len(".json")])
                 for n in os.listdir(mdir) if n.endswith(".json")}
    assert 0 < len(committed) < 4, committed  # killed mid-run
    # a leftover from an earlier generation of every unfinished partition
    for part in set(range(4)) - committed:
        stale = out / "edges" / f"part={part}"
        stale.mkdir(parents=True, exist_ok=True)
        pq.write_table(pa.table({"src": ["stale"]}), stale / "rg-99.parquet")

    manifests, skipped = resumable_materialize(shards, str(out))
    assert sorted(skipped) == sorted(committed)
    assert [m["partition"] for m in manifests] == sorted(
        set(range(4)) - committed
    )

    clean = tmp_path / "clean"
    resumable_materialize(shards, str(clean), resume=False)
    for part in range(4):
        assert _part_files(out, part) == _part_files(clean, part), part
        assert _part_rows(out, part) == _part_rows(clean, part), part
    assert len(_part_files(clean, 1)) == 5


def test_graph_job_rejects_input_without_source_docs_columns(tmp_path):
    """``jobs/graph_job.py`` over a ``documents.parquet``-shaped shard
    (``doc_id, text, lang, source, n_chars``: no source_docs ``content``)
    exits 2 naming the file on stderr, before it clears a pending
    partition or starts Ray."""
    bad = _write_shard(tmp_path / "documents.parquet", pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": ["Alice founded Acme .", "Bob left ."],
        "lang": ["en", "en"],
        "source": ["web", "web"],
        "n_chars": pa.array([20, 10], pa.int64()),
    }))
    out = tmp_path / "out"
    stale = out / "edges" / "part=0" / "rg-0-0.parquet"
    stale.parent.mkdir(parents=True)
    pq.write_table(pa.table({"src": ["stale"]}), stale)
    proc = subprocess.run(
        [sys.executable, "jobs/graph_job.py", "--input", bad,
         "--out", str(out)],
        capture_output=True, text=True, timeout=120, cwd=REPO,
    )
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert repr(bad) in proc.stderr and "content" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert stale.exists()


def _job(name: str):
    """``jobs/<name>.py`` as a module (``jobs/`` is not a package)."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(REPO, "jobs", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _ids(lo: int, hi: int) -> pa.Table:
    return pa.table({"doc_id": pa.array(range(lo, hi), pa.int64())})


def _rewrite(path: str, table: pa.Table) -> None:
    """Rewrite ``path`` with ``table``, its mtime moved on by a second so
    the stamp changes whatever the file system's time resolution."""
    st = os.stat(path)
    _write_shard(path, table)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))


def test_write_partitions_resume_protocol(ray_session, tmp_path):
    """Skip on an unchanged input; refuse a rewritten, reordered or
    extended-in-front listing and a changed parameter, building nothing;
    build only the new partition of a listing extended at its end; a
    manifest without a stamp resumes on its path; ``resume=False``
    rebuilds everything."""
    import ray.data

    from openie_with_entities_ray.stages.graph import (
        shard_lineage,
        write_partitions,
    )

    out = tmp_path / "out"
    built = []

    def build(k: int):
        built.append(k)
        return ray.data.from_items([{"k": k}])

    def run(listing, resume=True, param=1):
        lineages = [{**shard_lineage(p), "param": param} for p in listing]
        return write_partitions(str(out), lineages, build, resume=resume)

    paths = [_write_shard(tmp_path / f"s{k}.parquet", _ids(k, k + 1))
             for k in (1, 2)]
    manifests, skipped = run(paths)
    assert [m["partition"] for m in manifests] == [0, 1] and skipped == []
    st = os.stat(paths[0])
    assert manifests[0] == {
        "partition": 0, "rows": 1, "elapsed_s": manifests[0]["elapsed_s"],
        "input": paths[0], "stamp": [st.st_size, st.st_mtime_ns],
        "param": 1,
    }
    assert json.loads(
        (out / "_manifests" / "part-0.json").read_text()) == manifests[0]

    built.clear()
    assert run(paths) == ([], [0, 1]) and built == []

    last = _write_shard(tmp_path / "s3.parquet", _ids(3, 4))
    manifests, skipped = run(paths + [last])
    assert [m["partition"] for m in manifests] == [2] and skipped == [0, 1]
    assert built == [2]
    paths.append(last)

    first = _write_shard(tmp_path / "s0.parquet", _ids(0, 1))
    built.clear()
    for listing in ([first] + paths, [paths[1], paths[0], paths[2]]):
        with pytest.raises(ValueError, match="resume mismatch"):
            run(listing)
    with pytest.raises(ValueError, match="resume mismatch"):
        run(paths, param=2)
    _rewrite(paths[0], _ids(1, 2))
    with pytest.raises(ValueError, match="resume mismatch"):
        run(paths)
    assert built == []

    manifest = out / "_manifests" / "part-0.json"
    meta = json.loads(manifest.read_text())
    del meta["stamp"]
    manifest.write_text(json.dumps(meta))
    assert run(paths) == ([], [0, 1, 2]) and built == []

    manifests, skipped = run(paths, resume=False)
    assert [m["partition"] for m in manifests] == [0, 1, 2]
    assert skipped == [] and built == [0, 1, 2]
    st = os.stat(paths[0])
    assert manifests[0]["stamp"] == [st.st_size, st.st_mtime_ns]


def test_write_partitions_refuses_a_shrunk_listing(ray_session, tmp_path):
    """A completed partition beyond a listing that shrank refuses the
    resume, building nothing; ``resume=False`` clears it with its files
    and rebuilds the listed partitions."""
    import ray.data

    from openie_with_entities_ray.stages.graph import (
        shard_lineage,
        write_partitions,
    )

    out = tmp_path / "out"
    built = []

    def build(k: int):
        built.append(k)
        return ray.data.from_items([{"k": k}])

    paths = [_write_shard(tmp_path / f"s{k}.parquet", _ids(k, k + 1))
             for k in range(3)]
    lineages = [shard_lineage(p) for p in paths]
    write_partitions(str(out), lineages, build, resume=True)
    built.clear()
    with pytest.raises(ValueError, match="resume mismatch"):
        write_partitions(str(out), lineages[:2], build, resume=True)
    assert built == []
    assert (out / "_manifests" / "part-2.json").exists()

    manifests, skipped = write_partitions(str(out), lineages[:2], build,
                                          resume=False)
    assert [m["partition"] for m in manifests] == [0, 1] and skipped == []
    assert not (out / "_manifests" / "part-2.json").exists()
    assert not (out / "part=2").exists()
    assert write_partitions(str(out), lineages[:2], build,
                            resume=True) == ([], [0, 1])


def _prose(tag: str) -> str:
    return (f"the {tag} sat on the mat and the dog lay by the door "
            f"while the sun was high in the sky today")


def _vectors(k: int) -> pa.Table:
    import numpy as np

    rows = np.random.default_rng(k).normal(size=(30, 4))
    return pa.table({
        "vec_id": pa.array(range(k * 30, k * 30 + 30), pa.int64()),
        "embedding": pa.array(rows.tolist(), pa.list_(pa.float64())),
    })


_EXTENDED = {
    # job: (shard k's table, run(job module, files, out, resume))
    "curate": (
        lambda k: pa.table({"doc_id": pa.array([k], pa.int64()),
                            "text": [_prose(f"cat{k}")], "lang": ["en"]}),
        lambda job, files, out, resume: job.run_curate(
            files, out, resume=resume),
    ),
    "scrub": (
        # "a ." is in every doc, "b ." in one doc of shard 1 and both of
        # shard 2: at min_docs 3 the third shard makes "b ." frequent too
        lambda k: pa.table({
            "doc_id": pa.array([10 * k, 10 * k + 1], pa.int64()),
            "text": [f"x{k} . a ." + (" b ." if k else ""),
                     f"y{k} . a ." + (" b ." if k == 2 else "")],
            "lang": ["en", "en"],
        }),
        lambda job, files, out, resume: job.run_scrub(
            files, out, min_docs=3, resume=resume),
    ),
    "ann": (
        _vectors,
        lambda job, files, out, resume: job.run_build(
            files, out, num_centroids=2, sample_size=32, resume=resume),
    ),
    "dedup": (
        lambda k: pa.table({"doc_id": pa.array([k], pa.int64()),
                            "text": [_prose(f"cat{k}")]}),
        lambda job, files, out, resume: job.run_cross_shard(
            files, out, "simhash", resume=resume),
    ),
}


@pytest.mark.parametrize("name", sorted(_EXTENDED))
def test_whole_input_state_refuses_an_extended_listing(ray_session,
                                                        tmp_path, name):
    """A shard added to the listing changes what every whole-input stage
    read: curate's keepers and survivors, scrub's boilerplate set, ann's
    centroids, dedup's global bands. The resume refuses with "resume
    mismatch" instead of keeping state built without the new shard;
    without resuming the output equals a clean run's."""
    table, run = _EXTENDED[name]
    job = _job(f"{name}_job")
    files = [_write_shard(tmp_path / f"s{k}.parquet", table(k))
             for k in range(3)]
    out = str(tmp_path / "out")
    run(job, files[:2], out, True)
    with pytest.raises(ValueError, match="resume mismatch"):
        run(job, files, out, True)
    assert run(job, files, out, False) == run(
        job, files, str(tmp_path / "clean"), True)


def _dir_ids(path) -> list:
    return sorted(
        i for f in glob.glob(os.path.join(str(path), "**", "*.parquet"),
                             recursive=True)
        for i in pq.read_table(f).column("doc_id").to_pylist()
    )


def test_compact_job_resume_refuses_a_changed_listing(ray_session,
                                                      tmp_path):
    """A file that sorts first moves every unit boundary: the resume
    refuses instead of skipping both units and losing the new file's
    rows; ``resume=False`` rebuilds all 200 rows."""
    compact = _job("compact_job")
    src = tmp_path / "shards"
    src.mkdir()

    def shard(k: int) -> str:
        return _write_shard(src / f"shard-{k}.parquet",
                            _ids(k * 40, k * 40 + 40))

    files = [shard(k) for k in range(1, 5)]
    out = str(tmp_path / "compact")
    assert compact.run_compact(files, out, target_rows=100) == {
        "input_files": 4, "units": 2, "written": 2, "skipped": 0,
    }
    files = [shard(0)] + files
    with pytest.raises(ValueError, match="resume mismatch"):
        compact.run_compact(files, out, target_rows=100)
    rebuilt = compact.run_compact(files, out, target_rows=100, resume=False)
    assert rebuilt["written"] == 2
    assert _dir_ids(out) == list(range(200))


def _scrub_shard(k: int, body: str = "body") -> pa.Table:
    return pa.table({
        "doc_id": pa.array([k * 10 + 1, k * 10 + 2], pa.int64()),
        "text": [f"shard {k} {body} one . click here to subscribe now .",
                 f"shard {k} {body} two ."],
        "lang": ["en", "en"],
    })


def test_scrub_job_resume_refuses_a_rewritten_shard_or_min_docs(
    ray_session, tmp_path
):
    """jobs/scrub_job.py: a shard rewritten since its manifest, or a
    resume under another ``min_docs`` whose boilerplate set is recounted,
    is refused instead of mixing two inputs or two definitions."""
    scrub = _job("scrub_job")
    files = [_write_shard(tmp_path / f"docs-{k}.parquet", _scrub_shard(k))
             for k in range(3)]
    out = str(tmp_path / "scrub")
    assert scrub.run_scrub(files, out, min_docs=2)["shards_written"] == 3
    _rewrite(files[1], _scrub_shard(1, "changed"))
    with pytest.raises(ValueError, match="resume mismatch"):
        scrub.run_scrub(files, out, min_docs=2)

    _rewrite(files[1], _scrub_shard(1))
    out = str(tmp_path / "scrub2")
    assert scrub.run_scrub(files, out, min_docs=2)["shards_written"] == 3
    os.remove(os.path.join(out, "boilerplate.json"))
    with pytest.raises(ValueError, match="resume mismatch"):
        scrub.run_scrub(files, out, min_docs=3)


def test_dedup_job_resume_refuses_a_rewritten_shard(ray_session,
                                                    monkeypatch, tmp_path):
    """jobs/dedup_job.py: a resume after a shard was rewritten since its
    manifest fails with "resume mismatch"; an unchanged re-run skips."""
    import ray

    dedup = _job("dedup_job")
    # main() shuts down the session it ran in and puts "." on sys.path
    monkeypatch.setattr(ray, "shutdown", lambda *a, **k: None)
    monkeypatch.setattr(sys, "path", list(sys.path))
    src = tmp_path / "shards"
    src.mkdir()

    def docs(k: int, text: str) -> pa.Table:
        return pa.table({"doc_id": pa.array([k, k + 100], pa.int64()),
                         "text": [text, text]})

    paths = [_write_shard(src / f"s{k}.parquet", docs(k, f"doc {k}"))
             for k in range(2)]
    argv = ["--input", str(src / "*.parquet"), "--out",
            str(tmp_path / "dedup"), "--method", "exact"]
    assert dedup.main(argv) == 0
    assert dedup.main(argv) == 0
    _rewrite(paths[1], docs(1, "another text"))
    with pytest.raises(ValueError, match="resume mismatch"):
        dedup.main(argv)


def test_compact_job_survives_sigkill(ray_session, tmp_path):
    """SIGKILL ``jobs/compact_job.py`` (the job process and its Ray session)
    once its first manifest lands; the resume completes the rest, and
    every unit equals a clean run's — rows and lineage — with no stale
    file left in a rebuilt unit."""
    compact = _job("compact_job")
    src = tmp_path / "shards"
    src.mkdir()
    files = [_write_shard(src / f"shard-{k}.parquet",
                          _ids(k * 40, k * 40 + 40)) for k in range(8)]
    out = tmp_path / "killed"
    mdir = out / "_manifests"
    with open(tmp_path / "stderr.txt", "w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "jobs/compact_job.py", "--input",
             str(src / "*.parquet"), "--out", str(out),
             "--target-rows", "40"],
            cwd=REPO, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            deadline = time.monotonic() + 240
            while not (mdir.is_dir() and any(
                n.endswith(".json") for n in os.listdir(mdir)
            )):
                if proc.poll() is not None:
                    err.seek(0)
                    pytest.fail(err.read()[-2000:])
                assert time.monotonic() < deadline, "no manifest in time"
                time.sleep(0.01)
        finally:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()

    committed = {int(n[len("part-"):-len(".json")])
                 for n in os.listdir(mdir) if n.endswith(".json")}
    assert 0 < len(committed) < 8, committed  # killed mid-run
    for part in set(range(8)) - committed:
        stale = out / f"part={part}"
        stale.mkdir(parents=True, exist_ok=True)
        pq.write_table(_ids(999, 1000), stale / "stale.parquet")

    resumed = compact.run_compact(files, str(out), target_rows=40)
    assert resumed["skipped"] == len(committed)
    assert resumed["written"] == 8 - len(committed)

    clean = tmp_path / "clean"
    compact.run_compact(files, str(clean), target_rows=40, resume=False)

    def lineage(root, part: int) -> dict:
        meta = json.loads(
            (root / "_manifests" / f"part-{part}.json").read_text())
        del meta["elapsed_s"]
        return meta

    for part in range(8):
        assert _dir_ids(out / f"part={part}") == list(
            range(part * 40, part * 40 + 40)), part
        assert _dir_ids(out / f"part={part}") == _dir_ids(
            clean / f"part={part}"), part
        assert lineage(out, part) == lineage(clean, part), part


def test_resume_goes_only_through_stages_graph():
    """Every manifest-tracked stage of the package and the jobs resumes
    through ``stages/graph.py:write_partitions``/``pending_partitions``:
    outside that module nothing calls ``write_partition(`` or
    ``check_resume(``."""
    call = re.compile(r"\b(?:write_partition|check_resume)\(")
    files = sorted(
        glob.glob(os.path.join(REPO, "openie_with_entities_ray", "**",
                               "*.py"), recursive=True)
        + glob.glob(os.path.join(REPO, "jobs", "*.py"))
    )
    assert len(files) > 30
    hits = []
    for path in files:
        rel = os.path.relpath(path, REPO)
        if rel == os.path.join("openie_with_entities_ray", "stages",
                               "graph.py"):
            continue
        with open(path, encoding="utf-8") as f:
            hits += [f"{rel}:{i}: {line.strip()}"
                     for i, line in enumerate(f, 1) if call.search(line)]
    assert not hits, "\n".join(hits)
