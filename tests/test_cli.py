"""CLI smoke tests: each mode driven through the real entry point in a
subprocess (own Ray session, like a user's shell)."""

import ast
import glob
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SENTENCES = """Alice , Bob and Carol founded Acme Corp in New York .
Dave , the CEO of Globex , acquired Initech .
the sum of X and Y increased .
"""


def run_cli(*argv, timeout=240):
    return subprocess.run(
        [sys.executable, "-m", "openie_with_entities_ray", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=ROOT,
    )


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    inp = tmp / "sentences.txt"
    inp.write_text(SENTENCES)
    res = run_cli(
        "--mode", "splitpredict", "--inp", str(inp),
        "--out", str(tmp / "out"), "--type", "labels", "--num_cpus", "4",
    )
    assert res.returncode == 0, res.stderr[-800:]
    return tmp


def test_splitpredict_outputs(outputs):
    oie = (outputs / "out.oie").read_text()
    blocks = oie.strip("\n").split("\n\n")
    assert len(blocks) == 3  # every sentence gets a block
    assert blocks[0].splitlines()[0].startswith("Alice , Bob and Carol")
    assert "0.98: (Alice; founded; Acme Corp in New York)" in blocks[0]
    # unbreakable veto: no split for the 'sum of' sentence
    conj = (outputs / "out.conj").read_text()
    assert "the sum of X and Y increased ." in conj
    assert conj.count("Y increased .\n") == 1  # only inside the original
    labels = (outputs / "out.labels").read_text()
    assert "ARG1" in labels and "REL" in labels
    allennlp = (outputs / "out.allennlp").read_text()
    assert allennlp.count("\n") == allennlp.count("</arg2>")


def test_eval_round_trip(outputs):
    # predictions as their own gold → perfect under both matchers
    gold = outputs / "gold.tsv"
    lines = []
    for line in (outputs / "out.allennlp").read_text().splitlines():
        sent, tags, conf = line.split("\t")
        import re

        a1 = re.search(r"<arg1>\s*(.*?)\s*</arg1>", tags).group(1)
        rel = re.search(r"<rel>\s*(.*?)\s*</rel>", tags).group(1)
        a2 = re.search(r"<arg2>\s*(.*?)\s*</arg2>", tags).group(1)
        lines.append(f"{sent}\t{rel}\t{a1}\t{a2}")
    gold.write_text("\n".join(lines) + "\n")

    res = run_cli("--mode", "eval", "--gold", str(gold),
                  "--inp", str(outputs / "out.allennlp"))
    assert "AUC: 1.0" in res.stdout, res.stdout

    res57 = run_cli("--mode", "eval", "--matcher", "wire57",
                    "--gold", str(gold), "--inp", str(outputs / "out.allennlp"))
    assert "f1: 1.0000" in res57.stdout, res57.stdout


def test_convert_mode(outputs):
    res = run_cli("--mode", "convert", "--inp", str(outputs / "out.allennlp"),
                  "--threshold", "0.95")
    assert res.returncode == 0
    assert "0.98: (" in res.stdout
    assert "0.91:" not in res.stdout  # thresholded out


def test_missing_args_error():
    res = run_cli("--mode", "splitpredict", "--out", "/tmp/x")
    assert res.returncode != 0
    assert "requires --inp" in res.stderr


def test_ray_session_address(ray_session, monkeypatch):
    """Under ``ray job submit`` (``RAY_JOB_ID`` set) the session attaches
    to the cluster; standalone it starts a local instance with
    ``num_cpus`` whose workers find the package on ``PYTHONPATH``; a
    session already up is used as it is. Every exit shuts down through
    the ``ray.shutdown`` the module holds then."""
    import ray
    from ray.data import DataContext

    from openie_with_entities_ray import cli

    DataContext.get_current()  # built once per process, under a session
    inits, shutdowns, up = [], [], []
    monkeypatch.setattr(ray, "is_initialized", lambda: bool(up))
    monkeypatch.setattr(ray, "init", lambda **kw: inits.append(kw))
    monkeypatch.setattr(ray, "shutdown", lambda: shutdowns.append(1))
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    monkeypatch.setenv("RAY_JOB_ID", "01000000")
    with cli.ray_session(3):
        pass
    monkeypatch.delenv("RAY_JOB_ID")
    with cli.ray_session(3):
        pass
    up.append(True)
    with cli.ray_session(3):
        pass
    assert [kw["address"] for kw in inits] == ["auto", "local"]
    assert "num_cpus" not in inits[0] and inits[1]["num_cpus"] == 3
    assert os.environ["PYTHONPATH"] == os.pathsep.join([ROOT, "elsewhere"])
    assert len(shutdowns) == 3


def test_input_shards_lists_or_exits_2(tmp_path, capsys):
    """A glob's files come back sorted; an object-store URI or a glob
    that matches nothing exits with status 2 and a message on stderr."""
    from openie_with_entities_ray.cli import input_shards

    for name in ("b.parquet", "a.parquet"):
        (tmp_path / name).write_bytes(b"")
    assert input_shards(str(tmp_path / "*.parquet")) == [
        str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")]
    for pattern in (str(tmp_path / "*.json"), "s3://bucket/*.parquet"):
        with pytest.raises(SystemExit) as exit_:
            input_shards(pattern)
        assert exit_.value.code == 2
        assert pattern in capsys.readouterr().err


def _ray_init_calls(path: str) -> list:
    """Line numbers of the ``ray.init(...)`` calls in ``path``."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute) and node.func.attr == "init"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "ray"
    ]


def test_entry_points_open_ray_only_through_ray_session():
    """The CLI and every job open Ray through ``cli.ray_session`` and list
    their input through ``cli.input_shards``: no ``ray.init(`` call in
    ``jobs/`` or in the package outside that helper, and no job puts "."
    on ``sys.path`` or globs ``args.input`` itself."""
    cli_path = os.path.join(ROOT, "openie_with_entities_ray", "cli.py")
    with open(cli_path, encoding="utf-8") as f:
        helper = next(
            node for node in ast.parse(f.read()).body
            if isinstance(node, ast.FunctionDef)
            and node.name == "ray_session"
        )
    jobs = sorted(glob.glob(os.path.join(ROOT, "jobs", "*.py")))
    package = glob.glob(os.path.join(ROOT, "openie_with_entities_ray", "**",
                                     "*.py"), recursive=True)
    assert len(jobs) == 6 and len(package) > 30
    hits = []
    for path in jobs + package:
        rel = os.path.relpath(path, ROOT)
        hits += [
            f"{rel}:{line}: ray.init(" for line in _ray_init_calls(path)
            if not (path == cli_path
                    and helper.lineno <= line <= helper.end_lineno)
        ]
    assert _ray_init_calls(cli_path)
    for path in jobs + [cli_path]:
        with open(path, encoding="utf-8") as f:
            src = f.read()
        rel = os.path.relpath(path, ROOT)
        hits += [f"{rel}: {needle}"
                 for needle in ('sys.path.insert(0, ".")',
                                "glob.glob(args.input)")
                 if needle in src]
        hits += [f"{rel}: no {call}"
                 for call in ("ray_session(", "input_shards(")
                 if call not in src]
    assert not hits, "\n".join(hits)


def test_job_runs_from_another_directory(tmp_path):
    """A job started by path from another working directory, with no
    ``PYTHONPATH``, imports the package in its driver and in its Ray
    workers, and reads relative paths against that directory."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    for k in range(2):
        pq.write_table(pa.table({
            "doc_id": pa.array([k * 10, k * 10 + 1], pa.int64()),
            "text": [f"body {k} one . click here now .",
                     f"body {k} two . click here now ."],
            "lang": ["en", "en"],
        }), tmp_path / f"docs-{k}.parquet")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run(
        [sys.executable, os.path.join(ROOT, "jobs", "scrub_job.py"),
         "--input", "docs-*.parquet", "--out", "out", "--min-docs", "4"],
        capture_output=True, text=True, timeout=300, cwd=tmp_path, env=env,
    )
    assert res.returncode == 0, res.stderr[-800:]
    rep = json.loads(res.stdout.strip().splitlines()[-1])
    assert rep["n_boilerplate_sentences"] == 1
    assert rep["shards_written"] == 2
    assert (tmp_path / "out" / "boilerplate.json").is_file()


def test_compact_job_plan_and_resume(tmp_path):
    """jobs/compact_job.py: footer-metadata bin-packing, row-lossless
    compaction, and manifest resume (second run writes nothing)."""
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    src = tmp_path / "shards"
    src.mkdir()
    # 5 tiny files of 40 rows -> target 100 packs [40,40,40]=120, [40,40]=80
    for k in range(5):
        ids = list(range(k * 40, k * 40 + 40))
        pq.write_table(
            pa.table({"doc_id": pa.array(ids, pa.int64())}),
            src / f"shard-{k}.parquet",
        )
    out = tmp_path / "compact"

    def run_job():
        return subprocess.run(
            [sys.executable, "jobs/compact_job.py",
             "--input", str(src / "*.parquet"),
             "--out", str(out), "--target-rows", "100"],
            capture_output=True, text=True, timeout=240, cwd=ROOT,
        )

    first = run_job()
    assert first.returncode == 0, first.stderr[-500:]
    rep1 = json.loads(first.stdout.strip().splitlines()[-1])
    assert rep1 == {"input_files": 5, "units": 2, "written": 2,
                    "skipped": 0}
    import pyarrow.dataset as pads

    got = sorted(
        pads.dataset(str(out), format="parquet")
        .to_table(columns=["doc_id"]).column("doc_id").to_pylist()
    )
    assert got == list(range(200))  # row-lossless

    second = run_job()
    rep2 = json.loads(second.stdout.strip().splitlines()[-1])
    assert rep2["written"] == 0 and rep2["skipped"] == 2


def test_dedup_job_resumable(tmp_path):
    """jobs/dedup_job.py: per-shard manifests; a re-run skips finished
    shards and writes nothing new."""
    import json

    out = tmp_path / "dedup"

    def run_job(*extra):
        return subprocess.run(
            [sys.executable, "jobs/dedup_job.py",
             "--input", "/root/testdata/sf0.001/documents.parquet",
             "--out", str(out), "--method", "exact", *extra],
            capture_output=True, text=True, timeout=240, cwd=ROOT,
        )

    first = run_job()
    assert first.returncode == 0, first.stderr[-500:]
    rep1 = json.loads(first.stdout.strip().splitlines()[-1])
    assert rep1["shards_written"] == 1 and rep1["rows_written"] == 500

    second = run_job()
    rep2 = json.loads(second.stdout.strip().splitlines()[-1])
    assert rep2["shards_skipped"] == 1 and rep2["shards_written"] == 0


def test_dedup_job_cross_shard_resumable(tmp_path):
    """--cross-shard: the global pass finds ACROSS-shard near-dups that
    the per-shard pass cannot, and resumes mid-run at band granularity
    (a crash between bands re-runs only the unfinished bands)."""
    import json
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    dup = ("the quick brown fox jumps over the lazy dog again and again "
           "today in the bright warm morning sun near the old farm")
    uniq = [
        f"completely distinct document number {i} about topic {i * 7} "
        f"with its own content and vocabulary set {i * 13}"
        for i in range(6)
    ]
    shard_dir = tmp_path / "shards"
    shard_dir.mkdir()
    # shard 0: exact dup inside the shard (ids 0,1) + unique docs
    pq.write_table(
        pa.table({"doc_id": [0, 1, 2, 3, 4],
                  "text": [dup, dup, uniq[0], uniq[1], uniq[2]]}),
        shard_dir / "s0.parquet",
    )
    # shard 1: the same text again -> only the CROSS-shard pass sees it
    pq.write_table(
        pa.table({"doc_id": [10, 11, 12, 13],
                  "text": [dup, uniq[3], uniq[4], uniq[5]]}),
        shard_dir / "s1.parquet",
    )
    out = tmp_path / "dedup"

    def run_job():
        return subprocess.run(
            [sys.executable, "jobs/dedup_job.py",
             "--input", str(shard_dir / "*.parquet"),
             "--out", str(out), "--method", "minhash", "--cross-shard"],
            capture_output=True, text=True, timeout=240, cwd=ROOT,
        )

    first = run_job()
    assert first.returncode == 0, first.stderr[-800:]
    rep1 = json.loads(first.stdout.strip().splitlines()[-1])
    assert rep1["shards_written"] == 2
    assert rep1["cross_shard_sigs_written"] == 2
    assert rep1["cross_shard_bands_written"] == 16

    def global_pairs():
        import glob as g

        pairs = set()
        for f in g.glob(str(out / "minhash" / "global" / "part=*" /
                             "*.parquet")):
            t = pq.read_table(f)
            pairs |= set(zip(t.column("id_a").to_pylist(),
                             t.column("id_b").to_pylist()))
        return pairs

    pairs1 = global_pairs()
    # within-shard dup (0,1) was removed before the global pass: survivor
    # 0 pairs with shard 1's copy; the dropped id 1 appears nowhere
    assert (0, 10) in pairs1
    assert not any(1 in p for p in pairs1)

    # simulate a crash after band 5: delete manifests+outputs of the rest
    gdir = out / "minhash" / "global"
    for band in range(6, 16):
        (gdir / "_manifests" / f"part-{band}.json").unlink()
        shutil.rmtree(gdir / f"part={band}")
    resumed = run_job()
    assert resumed.returncode == 0, resumed.stderr[-800:]
    rep2 = json.loads(resumed.stdout.strip().splitlines()[-1])
    assert rep2["shards_skipped"] == 2  # per-shard pass untouched
    assert rep2["cross_shard_sigs_written"] == 0
    assert rep2["cross_shard_bands_skipped"] == 6
    assert rep2["cross_shard_bands_written"] == 10
    assert global_pairs() == pairs1  # byte-equal result after resume


def _staged_triples(splits):
    """Per-occurrence dedup of ``splits`` by the staged kernels, an
    implementation independent of the CLI's one kernel pass."""
    from openie_with_entities_ray.stages.extract import OIEExtractor, map_kernel
    from openie_with_entities_ray.stages.group import dedup_topk_grouped

    raw = map_kernel(
        splits.drop_columns(["triples", "split_indices"]), OIEExtractor,
        batch_size=512, seed=777, no_lt=False,
    )
    return dedup_topk_grouped(raw, None)


def _sorted_splits(splits):
    return sorted(
        splits.take_all(), key=lambda r: (r["sent_id"], r["split_id"])
    )


def _naive_conj(splits):
    """The expected .conj text of a split table (model.py:678-690)."""
    by_sid: dict = {}
    for r in _sorted_splits(splits):
        by_sid.setdefault(r["sent_id"], []).append(r)
    blocks = []
    for sid in sorted(by_sid):
        orig = by_sid[sid][0]["orig_sentence"]
        ss = [r["split_sentence"] for r in by_sid[sid]]
        blocks.append(orig if ss == [orig] else "\n".join([orig] + ss))
    return "\n\n".join(blocks) + "\n"


def _naive_labels(splits, seed=777):
    """The expected .labels text of a split table (run.py:246-291 file
    shape), every split labeled here in the driver."""
    from openie_with_entities_ray.functions.triples import (
        project_labels_to_original,
    )
    from openie_with_entities_ray.state.labeler import make_labeler

    labeler = make_labeler(None, seed)
    items, sid = [], None
    for r in _sorted_splits(splits):
        if r["sent_id"] != sid:
            sid = r["sent_id"]
            items.append("\n" + r["orig_sentence"])
        label_rows, _ = labeler.label_oie(r["split_sentence"])
        items += project_labels_to_original(
            label_rows, list(r["split_indices"]),
            len(r["orig_sentence"].split()),
        )
    return "\n".join(items + ["\n"])


def _naive_cli_outputs(splits, triples_ds):
    """Naive whole-file replica of the reference writer semantics
    (model.py:609-702): the expected .conj, .oie and .allennlp texts."""
    from openie_with_entities_ray.functions.triples import (
        Triple,
        ext_to_allennlp,
        ext_to_string,
    )

    split_rows = _sorted_splits(splits)
    expect_conj = _naive_conj(splits)

    by_sent: dict = {}
    for r in split_rows:  # first-seen order, duplicates merge
        by_sent.setdefault(r["orig_sentence"], [])
    for r in sorted(
        triples_ds.take_all(),
        key=lambda r: (r["sent_id"], r["split_id"], r["depth"]),
    ):
        t = Triple(r["arg1"], r["rel"], r["arg2"], r["confidence"])
        bucket = by_sent.setdefault(r["orig_sentence"], [])
        if all(x.dedup_key != t.dedup_key for x in bucket):
            bucket.append(t)
    oie_blocks, allennlp_lines = [], []
    for sentence, ts in by_sent.items():
        block = sentence + "\n"
        for t in ts:
            block += ext_to_string(t) + "\n"
            allennlp_lines.append(ext_to_allennlp(sentence, t))
        oie_blocks.append(block)
    expect_oie = "\n".join(oie_blocks) + "\n"
    expect_allennlp = "".join(x + "\n" for x in allennlp_lines)
    return expect_conj, expect_oie, expect_allennlp


def _cli_args(*argv):
    from openie_with_entities_ray.cli import build_parser

    return build_parser().parse_args(list(argv))


def test_streaming_writers_byte_parity(ray_session, tmp_path):
    """The streaming .oie/.allennlp/.conj writers must be byte-identical
    to the reference's whole-file writer semantics (model.py:609-702),
    reimplemented naively here from the same rows — including duplicate
    sentences (first-seen merge + cross-occurrence dedup) and
    coordination splits."""
    from openie_with_entities_ray.cli import (
        _extract_rows,
        _read_sentence_file,
        _write_conj,
        _write_oie_allennlp,
    )

    inp = tmp_path / "sents.txt"
    inp.write_text(
        "Alice , Bob and Carol founded Acme Corp in New York .\n"
        "Dave , the CEO of Globex , acquired Initech .\n"
        "Alice , Bob and Carol founded Acme Corp in New York .\n"
        "The merger was approved by the board .\n"
        "Dave , the CEO of Globex , acquired Initech .\n"
    )
    splits = _extract_rows(
        _read_sentence_file(str(inp)),
        _cli_args("--mode", "splitpredict", "--inp", str(inp)), None,
    )
    triples_ds = _staged_triples(splits)

    # streamed output (the code under test)
    _write_conj(splits, str(tmp_path / "got"))
    _write_oie_allennlp(splits, str(tmp_path / "got"), "")

    expect_conj, expect_oie, expect_allennlp = _naive_cli_outputs(
        splits, triples_ds
    )
    assert (tmp_path / "got.conj").read_text() == expect_conj
    assert (tmp_path / "got.oie").read_text() == expect_oie
    assert (tmp_path / "got.allennlp").read_text() == expect_allennlp


def test_split_fp_duplicate_sentence_byte_parity(ray_session, tmp_path):
    """--split_fp: one original sentence in two blocks with different
    splits. Each block is its own occurrence in .conj, and in .oie the
    second occurrence's new triples land under the first block."""
    from openie_with_entities_ray import cli

    orig = "Alice , Bob and Carol founded Acme Corp in New York ."
    split_fp = tmp_path / "splits.conj"
    split_fp.write_text(
        f"{orig}\nAlice founded Acme Corp in New York .\n"
        "Bob founded Acme Corp in New York .\n\n"
        "Dave , the CEO of Globex , acquired Initech .\n\n"
        f"{orig}\nCarol founded Acme Corp in New York .\n"
    )
    args = _cli_args("--mode", "splitpredict", "--split_fp", str(split_fp),
                     "--out", str(tmp_path / "got"))
    cli.run_splitpredict(args)

    splits = cli._extract_rows(cli._presplit_dataset(str(split_fp)), args,
                               None)
    expect_conj, expect_oie, expect_allennlp = _naive_cli_outputs(
        splits, _staged_triples(splits)
    )
    assert (tmp_path / "got.conj").read_text() == expect_conj
    assert (tmp_path / "got.oie").read_text() == expect_oie
    assert (tmp_path / "got.allennlp").read_text() == expect_allennlp
    first_block = expect_oie.split("\n\n")[0]
    assert first_block.startswith(orig) and "(Carol;" in first_block


def test_predict_oie_byte_parity(ray_session, tmp_path):
    """--mode predict --task oie: every sentence is its own only split."""
    from openie_with_entities_ray import cli

    inp = tmp_path / "sents.txt"
    inp.write_text(
        "Alice , Bob and Carol founded Acme Corp in New York .\n"
        "Dave , the CEO of Globex , acquired Initech .\n"
        "Alice , Bob and Carol founded Acme Corp in New York .\n"
    )
    args = _cli_args("--mode", "predict", "--task", "oie", "--inp", str(inp),
                     "--out", str(tmp_path / "got"))
    cli.run_predict(args)

    splits = cli._extract_rows(
        cli._read_sentence_file(str(inp), identity_splits=True), args, None
    )
    assert all(r["split_sentence"] == r["orig_sentence"]
               for r in splits.take_all())
    _, expect_oie, expect_allennlp = _naive_cli_outputs(
        splits, _staged_triples(splits)
    )
    assert (tmp_path / "got.oie").read_text() == expect_oie
    assert (tmp_path / "got.allennlp").read_text() == expect_allennlp


def test_labels_and_predict_conj_byte_parity(ray_session, tmp_path):
    """``--type labels`` writes the .labels of every split in input order,
    and ``predict --task conj`` the .conj of its split-only kernel, both
    byte-identical to a whole-table render of the same splits."""
    from openie_with_entities_ray import cli
    from openie_with_entities_ray.stages.extract import (
        ConjSplitter,
        map_kernel,
    )

    inp = tmp_path / "sents.txt"
    inp.write_text(
        "Alice , Bob and Carol founded Acme Corp in New York .\n"
        "\n"
        "Dave , the CEO of Globex , acquired Initech .\n"
        "Alice , Bob and Carol founded Acme Corp in New York .\n"
        "the sum of X and Y increased .\n"
    )
    args = _cli_args("--mode", "splitpredict", "--inp", str(inp),
                     "--type", "labels", "--out", str(tmp_path / "split"))
    cli.run_splitpredict(args)
    splits = cli._extract_rows(cli._read_sentence_file(str(inp)), args, None)
    assert (tmp_path / "split.labels").read_text() == _naive_labels(splits)

    args = _cli_args("--mode", "predict", "--task", "conj", "--inp",
                     str(inp), "--out", str(tmp_path / "conj"))
    cli.run_predict(args)
    conj_splits = map_kernel(cli._read_sentence_file(str(inp)), ConjSplitter)
    expect = _naive_conj(conj_splits)
    assert (tmp_path / "conj.conj").read_text() == expect
    assert expect == (tmp_path / "split.conj").read_text()


def test_multi_block_input_writes_in_input_order(ray_session, monkeypatch,
                                                 tmp_path):
    """A sentence Dataset of several blocks, the first far larger than the
    rest so its task ends last, still reaches every writer in input order:
    .conj, .oie, .allennlp and .labels match the whole-table renders,
    with duplicate lines inside and across blocks. The writers sort
    nothing, so this fails if the blocks come back in completion order."""
    import ray.data

    from openie_with_entities_ray import cli
    from openie_with_entities_ray.sources.source_docs import (
        synthetic_sentence,
    )

    lines = [synthetic_sentence(i, seed=3) for i in range(400)]
    lines[5] = lines[7] = lines[2]  # duplicates besides the grammar's own
    lines += ["", lines[2], lines[390], lines[391]] + lines[300:312]
    inp = tmp_path / "sents.txt"
    inp.write_text("\n".join(lines) + "\n")
    assert len(set(lines)) < len(lines) - 20

    real_from_arrow = ray.data.from_arrow
    cuts = [0, 360, 368, 376, 384, 392, 400, len(lines)]

    def sliced(table):
        return real_from_arrow(
            [table.slice(a, b - a) for a, b in zip(cuts, cuts[1:])])

    monkeypatch.setattr(ray.data, "from_arrow", sliced)
    args = _cli_args("--mode", "splitpredict", "--inp", str(inp),
                     "--batch_size", "4")
    rows = cli._extract_rows(cli._read_sentence_file(str(inp)), args, None)
    assert rows.num_blocks() > 1
    got = str(tmp_path / "got")
    cli._write_conj(rows, got)
    cli._write_oie_allennlp(rows, got, "")
    cli._write_labels(rows, got, 777, False)

    expect_conj, expect_oie, expect_allennlp = _naive_cli_outputs(
        rows, _staged_triples(rows)
    )
    assert (tmp_path / "got.conj").read_text() == expect_conj
    assert (tmp_path / "got.oie").read_text() == expect_oie
    assert (tmp_path / "got.allennlp").read_text() == expect_allennlp
    assert (tmp_path / "got.labels").read_text() == _naive_labels(rows)


def test_dedup_job_cross_shard_simhash(tmp_path):
    """--cross-shard with --method simhash: same two-level shape (4
    bands); the across-shard exact dup is found globally after the
    within-shard copy is removed."""
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    dup = ("the quick brown fox jumps over the lazy dog again and again "
           "today in the bright warm morning sun near the old farm")
    shard_dir = tmp_path / "shards"
    shard_dir.mkdir()
    pq.write_table(
        pa.table({"doc_id": [0, 1, 2],
                  "text": [dup, dup,
                           "another entirely different document about "
                           "query planners and join orders"]}),
        shard_dir / "s0.parquet",
    )
    pq.write_table(
        pa.table({"doc_id": [10, 11],
                  "text": [dup,
                           "yet another unrelated text concerning "
                           "storage engines and page caches"]}),
        shard_dir / "s1.parquet",
    )
    out = tmp_path / "dedup"
    res = subprocess.run(
        [sys.executable, "jobs/dedup_job.py",
         "--input", str(shard_dir / "*.parquet"),
         "--out", str(out), "--method", "simhash", "--cross-shard"],
        capture_output=True, text=True, timeout=240, cwd=ROOT,
    )
    assert res.returncode == 0, res.stderr[-800:]
    rep = json.loads(res.stdout.strip().splitlines()[-1])
    assert rep["cross_shard_sigs_written"] == 2
    assert rep["cross_shard_bands_written"] == 4

    import glob as g

    pairs = set()
    for f in g.glob(str(out / "simhash" / "global" / "part=*" /
                        "*.parquet")):
        t = pq.read_table(f)
        pairs |= set(zip(t.column("id_a").to_pylist(),
                         t.column("id_b").to_pylist()))
    assert (0, 10) in pairs
    assert not any(1 in p for p in pairs)  # within-shard dup removed


def test_dedup_job_cross_shard_empty_shards(tmp_path):
    """All input shards empty -> the signature stage writes no parquet at
    all; the global pass must complete with zero pairs instead of
    raising on an empty read_parquet path list."""
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    shard_dir = tmp_path / "shards"
    shard_dir.mkdir()
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "text": pa.array([], pa.string())})
    pq.write_table(empty, shard_dir / "s0.parquet")
    pq.write_table(empty, shard_dir / "s1.parquet")

    res = subprocess.run(
        [sys.executable, "jobs/dedup_job.py",
         "--input", str(shard_dir / "*.parquet"),
         "--out", str(tmp_path / "dedup"), "--method", "minhash",
         "--cross-shard"],
        capture_output=True, text=True, timeout=240, cwd=ROOT,
    )
    assert res.returncode == 0, res.stderr[-800:]
    rep = json.loads(res.stdout.strip().splitlines()[-1])
    assert rep["shards_written"] == 2 and rep["rows_written"] == 0
    assert rep["cross_shard_sigs_written"] == 2
    assert rep["cross_shard_bands_written"] == 0


def test_dedup_job_emit_survivors(tmp_path):
    """--emit-survivors closes the loop: within-shard pair (0,1) and
    cross-shard pair (0,10) form one component with keeper 0, so the
    survivor table is every doc id except 1 and 10; a re-run skips the
    finished survivor shards."""
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    dup = ("the quick brown fox jumps over the lazy dog again and again "
           "today in the bright warm morning sun near the old farm")
    uniq = [
        f"completely distinct document number {i} about topic {i * 7} "
        f"with its own content and vocabulary set {i * 13}"
        for i in range(6)
    ]
    shard_dir = tmp_path / "shards"
    shard_dir.mkdir()
    pq.write_table(
        pa.table({"doc_id": [0, 1, 2, 3, 4],
                  "text": [dup, dup, uniq[0], uniq[1], uniq[2]]}),
        shard_dir / "s0.parquet",
    )
    pq.write_table(
        pa.table({"doc_id": [10, 11, 12, 13],
                  "text": [dup, uniq[3], uniq[4], uniq[5]]}),
        shard_dir / "s1.parquet",
    )
    out = tmp_path / "dedup"

    def run_job():
        return subprocess.run(
            [sys.executable, "jobs/dedup_job.py",
             "--input", str(shard_dir / "*.parquet"),
             "--out", str(out), "--method", "minhash", "--cross-shard",
             "--emit-survivors"],
            capture_output=True, text=True, timeout=300, cwd=ROOT,
        )

    first = run_job()
    assert first.returncode == 0, first.stderr[-800:]
    rep = json.loads(first.stdout.strip().splitlines()[-1])
    assert rep["survivor_shards_written"] == 2

    import glob as g

    survivors = set()
    for f in g.glob(str(out / "minhash" / "survivors" / "part=*" /
                        "*.parquet")):
        survivors |= set(pq.read_table(f).column("doc_id").to_pylist())
    assert survivors == {0, 2, 3, 4, 11, 12, 13}

    second = run_job()
    rep2 = json.loads(second.stdout.strip().splitlines()[-1])
    assert rep2["survivor_shards_skipped"] == 2
    assert rep2["survivor_shards_written"] == 0


def test_curate_job_end_to_end_and_resumable(tmp_path):
    """jobs/curate_job.py: quality filter -> global exact dedup ->
    survivors + budget report, manifest-resumable at every stage. A
    cross-shard duplicate keeps only the min doc_id; low-quality docs
    never reach the keepers; a re-run writes nothing."""
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    def prose(tag):
        # 22 words, stopword-heavy, punctuation-free: passes the
        # default C4-style thresholds
        return (f"the {tag} sat on the mat and the dog lay by the door "
                f"while the sun was high in the sky today")

    dup = prose("cat")
    shard_dir = tmp_path / "shards"
    shard_dir.mkdir()
    # shard 0: dup + unique passing + too-short reject
    pq.write_table(
        pa.table({"doc_id": [2, 3, 4],
                  "text": [dup, prose("owl"), "x"],
                  "lang": ["en"] * 3}),
        shard_dir / "s0.parquet",
    )
    # shard 1: the SAME text (cross-shard dup, higher id) + unique
    pq.write_table(
        pa.table({"doc_id": [10, 11],
                  "text": [dup, prose("fox")],
                  "lang": ["en"] * 2}),
        shard_dir / "s1.parquet",
    )
    out = tmp_path / "curate"

    def run_job():
        return subprocess.run(
            [sys.executable, "jobs/curate_job.py",
             "--input", str(shard_dir / "*.parquet"), "--out", str(out)],
            capture_output=True, text=True, timeout=300, cwd=ROOT,
        )

    first = run_job()
    assert first.returncode == 0, first.stderr[-800:]
    rep1 = json.loads(first.stdout.strip().splitlines()[-1])
    assert rep1 == {
        "shards": 2, "clean_written": 2, "keepers_written": 16,
        "survivors_written": 2, "curated_docs": 3,
    }

    surv_files = sorted((out / "survivors").glob("part=*/*.parquet"))
    ids = sorted(
        i for f in surv_files
        for i in pq.read_table(f, columns=["doc_id"])["doc_id"].to_pylist()
    )
    assert ids == [2, 3, 11]  # dup keeper is min id; reject never appears

    report = json.loads((out / "report.json").read_text())
    assert report["total_docs"] == 3
    assert report["langs"][0]["lang"] == "en"
    assert report["langs"][0]["n_words"] == 3 * 22

    second = run_job()
    rep2 = json.loads(second.stdout.strip().splitlines()[-1])
    assert rep2["clean_written"] == 0
    assert rep2["keepers_written"] == 0
    assert rep2["survivors_written"] == 0
    assert rep2["curated_docs"] == 3


def test_curate_job_resume_refuses_a_rewritten_shard(ray_session, tmp_path):
    """The clean stage's manifest records its shard's path and stamp: a
    resume after one shard was rewritten fails with "resume mismatch"
    instead of keeping the old shard's rows; a manifest without a stamp
    (written before stamps existed) still resumes on its path."""
    import importlib.util
    import json
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "curate_job", os.path.join(root, "jobs", "curate_job.py"))
    curate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(curate)

    def prose(tag):
        return (f"the {tag} sat on the mat and the dog lay by the door "
                f"while the sun was high in the sky today")

    def write(path, ids, tags):
        pq.write_table(pa.table({"doc_id": ids,
                                 "text": [prose(t) for t in tags],
                                 "lang": ["en"] * len(ids)}), path)

    shards = [str(tmp_path / "s0.parquet"), str(tmp_path / "s1.parquet")]
    write(shards[0], [1, 2], ["cat", "owl"])
    write(shards[1], [3], ["fox"])
    out = str(tmp_path / "curate")
    assert curate.run_curate(shards, out)["curated_docs"] == 3
    manifests = [tmp_path / "curate" / "clean" / "_manifests" /
                 f"part-{k}.json" for k in (0, 1)]
    for k, m in enumerate(manifests):
        meta = json.loads(m.read_text())
        assert meta["input"] == shards[k] and len(meta["stamp"]) == 2

    write(shards[1], [3, 4], ["fox", "hen"])
    with pytest.raises(ValueError, match="resume mismatch"):
        curate.run_curate(shards, out)
    with pytest.raises(ValueError, match="resume mismatch"):
        curate.run_curate(list(reversed(shards)), out)

    for m in manifests:
        meta = json.loads(m.read_text())
        del meta["stamp"]
        m.write_text(json.dumps(meta))
    assert curate.run_curate(shards, out)["clean_written"] == 0
    rebuilt = curate.run_curate(shards, str(tmp_path / "fresh"))
    assert rebuilt["curated_docs"] == 4


def test_curate_job_benchmark_decontamination(tmp_path):
    """--benchmark drops docs sharing any word 5-gram with the eval
    shards during the clean stage; unrelated docs survive."""
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    def prose(tag):
        return (f"the {tag} sat on the mat and the dog lay by the door "
                f"while the sun was high in the sky today")

    shard_dir = tmp_path / "shards"
    shard_dir.mkdir()
    contaminated = prose("cat")
    clean_doc = (
        "a very different story entirely with many other things going "
        "on here and the weather is calm while people walk about town"
    )
    pq.write_table(
        pa.table({"doc_id": [1, 2],
                  "text": [contaminated, clean_doc],
                  "lang": ["en"] * 2}),
        shard_dir / "s0.parquet",
    )
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    # benchmark shares the 'sat on the mat and' run with doc 1 only
    pq.write_table(
        pa.table({"doc_id": [100],
                  "text": [prose("cat")],
                  "lang": ["en"]}),
        bench_dir / "b0.parquet",
    )
    out = tmp_path / "curate"
    res = subprocess.run(
        [sys.executable, "jobs/curate_job.py",
         "--input", str(shard_dir / "*.parquet"), "--out", str(out),
         "--benchmark", str(bench_dir / "*.parquet")],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert res.returncode == 0, res.stderr[-800:]
    rep = json.loads(res.stdout.strip().splitlines()[-1])
    assert rep["curated_docs"] == 1
    surv_files = sorted((out / "survivors").glob("part=*/*.parquet"))
    ids = [
        i for f in surv_files
        for i in pq.read_table(f, columns=["doc_id"])["doc_id"].to_pylist()
    ]
    assert ids == [2]


def test_ann_job_build_probe_resume(tmp_path):
    """jobs/ann_job.py: persisted IVF index — resumable build (centroids
    trained once and reused, finished shards skipped on re-run),
    storage-level bucket pruning at probe time (files_read <
    files_total), and the probe's top-k agrees with a pure-numpy oracle
    computed from the PERSISTED centroids over the fixture vectors."""
    import json

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    fixture = pq.read_table(
        "/root/testdata/sf0.001/embeddings.parquet",
        columns=["vec_id", "embedding"],
    )
    shard_dir = tmp_path / "shards"
    shard_dir.mkdir()
    half = fixture.num_rows // 2
    pq.write_table(fixture.slice(0, half), shard_dir / "emb-0.parquet")
    pq.write_table(fixture.slice(half), shard_dir / "emb-1.parquet")
    out = tmp_path / "ann"

    def run_build():
        return subprocess.run(
            [sys.executable, "jobs/ann_job.py", "build",
             "--input", str(shard_dir / "*.parquet"), "--out", str(out),
             "--num-centroids", "8", "--sample-size", "256",
             "--seed", "17"],
            capture_output=True, text=True, timeout=300, cwd=ROOT,
        )

    first = run_build()
    assert first.returncode == 0, first.stderr[-800:]
    rep1 = json.loads(first.stdout.strip().splitlines()[-1])
    assert rep1["centroids_trained"] is True
    assert rep1["shards_written"] == 2 and rep1["shards_skipped"] == 0

    second = run_build()
    rep2 = json.loads(second.stdout.strip().splitlines()[-1])
    assert rep2["centroids_trained"] is False
    assert rep2["shards_written"] == 0 and rep2["shards_skipped"] == 2

    # resume with DIFFERENT build parameters must refuse, not silently
    # reuse the stale centroid set
    mismatch = subprocess.run(
        [sys.executable, "jobs/ann_job.py", "build",
         "--input", str(shard_dir / "*.parquet"), "--out", str(out),
         "--num-centroids", "4", "--sample-size", "256", "--seed", "17"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert mismatch.returncode != 0
    assert "--no-resume" in mismatch.stderr

    query = fixture.column("embedding")[0].as_py()
    res = subprocess.run(
        [sys.executable, "jobs/ann_job.py", "probe",
         "--out", str(out), "--query-json", json.dumps(query),
         "--k", "10", "--nprobe", "3"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert res.returncode == 0, res.stderr[-800:]
    rep = json.loads(res.stdout.strip().splitlines()[-1])
    assert len(rep["probe_buckets"]) == 3
    assert 0 < rep["files_read"] < rep["files_total"]

    # pure-numpy oracle from the persisted centroids: assign every
    # fixture vector, restrict to the probe buckets, cosine top-k with
    # the engine's (-sim, id) tie-break
    cents = np.asarray(
        json.load(open(out / "centroids.json"))["centroids"],
        dtype=np.float64,
    )
    ids = np.asarray(fixture.column("vec_id").to_pylist())
    mat = np.array(fixture.column("embedding").to_pylist(),
                   dtype=np.float64)
    nrm = np.linalg.norm(mat, axis=1, keepdims=True)
    nrm[nrm == 0] = 1.0
    buckets = ((mat / nrm) @ cents.T).argmax(axis=1)
    qn = np.asarray(query, dtype=np.float64)
    qn = qn / np.linalg.norm(qn)
    probe = set(np.argsort(-(cents @ qn))[:3].tolist())
    mask = np.isin(buckets, list(probe))
    sims = (mat[mask] @ qn) / np.linalg.norm(mat[mask], axis=1)
    sub_ids = ids[mask]
    order = np.lexsort((sub_ids, -sims))[:10]
    assert [r["vec_id"] for r in rep["results"]] == sub_ids[order].tolist()
    got_cos = [r["cosine"] for r in rep["results"]]
    assert np.allclose(got_cos, sims[order], atol=1e-8)


def test_scrub_job_build_resume(tmp_path):
    """jobs/scrub_job.py: the frequent-sentence set is counted over ALL
    shards (a footer spread one-per-shard is still caught), persisted
    once and reused on resume; per-shard strip outputs match the
    in-process operator; a re-run writes nothing."""
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    footer = "click here to subscribe now ."
    shard_dir = tmp_path / "shards"
    shard_dir.mkdir()
    # the footer appears ONCE PER SHARD (3 shards) — only a global
    # count sees min_docs=3
    for k in range(3):
        pq.write_table(
            pa.table({
                "doc_id": pa.array([k * 10 + 1, k * 10 + 2], pa.int64()),
                "text": pa.array([
                    f"shard {k} body one . {footer}",
                    f"shard {k} body two has no footer .",
                ], pa.string()),
                "lang": pa.array(["en", "en"], pa.string()),
            }),
            shard_dir / f"docs-{k}.parquet",
        )
    out = tmp_path / "scrub"

    def run_job():
        return subprocess.run(
            [sys.executable, "jobs/scrub_job.py",
             "--input", str(shard_dir / "*.parquet"),
             "--out", str(out), "--min-docs", "3"],
            capture_output=True, text=True, timeout=300, cwd=ROOT,
        )

    first = run_job()
    assert first.returncode == 0, first.stderr[-800:]
    rep1 = json.loads(first.stdout.strip().splitlines()[-1])
    assert rep1["boiler_counted"] is True
    assert rep1["n_boilerplate_sentences"] == 1
    assert rep1["shards_written"] == 3 and rep1["shards_skipped"] == 0

    rows = {}
    for f in sorted(out.glob("scrubbed/part=*/*.parquet")):
        t = pq.read_table(f)
        for r in t.to_pylist():
            rows[r["doc_id"]] = (r["n_removed"], r["clean_text"])
    # every footer instance stripped, bodies intact
    for k in range(3):
        assert rows[k * 10 + 1] == (1, f"shard {k} body one .")
        assert rows[k * 10 + 2] == (
            0, f"shard {k} body two has no footer ."
        )

    second = run_job()
    rep2 = json.loads(second.stdout.strip().splitlines()[-1])
    assert rep2["boiler_counted"] is False
    assert rep2["shards_written"] == 0 and rep2["shards_skipped"] == 3

    # resume with a DIFFERENT --min-docs must refuse: finished shards
    # would otherwise mix two boilerplate definitions
    mismatch = subprocess.run(
        [sys.executable, "jobs/scrub_job.py",
         "--input", str(shard_dir / "*.parquet"),
         "--out", str(out), "--min-docs", "2"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert mismatch.returncode != 0
    assert "--no-resume" in mismatch.stderr

    # --no-resume recounts under the new threshold and rewrites all
    redo = subprocess.run(
        [sys.executable, "jobs/scrub_job.py",
         "--input", str(shard_dir / "*.parquet"),
         "--out", str(out), "--min-docs", "2", "--no-resume"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert redo.returncode == 0, redo.stderr[-800:]
    rep3 = json.loads(redo.stdout.strip().splitlines()[-1])
    assert rep3["boiler_counted"] is True
    assert rep3["shards_written"] == 3
