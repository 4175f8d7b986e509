"""End-to-end conformance: distributed engine vs single-process oracle.

The north-rule gate: the Ray pipeline's triples must match the
reference-semantics oracle at P/R >= 0.95 (they should be identical — the
labeler is a pure function, so any gap is an engine-plumbing defect),
the content_sha256 lineage invariant must hold per row, and a resumed run
must produce the same output as an uninterrupted one.
"""

import collections
import glob
import os
import re

import pyarrow.parquet as pq
import pytest

from openie_with_entities_ray.eval.benchmark import precision_recall
from openie_with_entities_ray.functions.text import sha256_hex
from openie_with_entities_ray.pipelines.oracle import oracle_predictions
from openie_with_entities_ray.sources.source_docs import (
    synthetic_doc,
    synthetic_source_docs,
)

N_DOCS = 150
SEED = 42
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def engine_triples(ray_session):
    from openie_with_entities_ray.pipelines.flagship import extract_triples

    docs = synthetic_source_docs(N_DOCS, seed=SEED)
    return extract_triples(docs).take_all()


def group_by_sentence(rows):
    """Collapse engine rows to the reference output data model: a dict
    keyed by sentence with exact-dedup per sentence (the reference's
    all_predictions accumulator merges duplicate sentences across the
    corpus, model.py:609-634; our per-doc lineage rows are richer)."""
    grouped = collections.defaultdict(list)
    for r in rows:
        ex = (r["rel"], [r["arg1"], r["arg2"]], r["confidence"])
        if ex not in grouped[r["orig_sentence"]]:
            grouped[r["orig_sentence"]].append(ex)
    return dict(grouped)


def test_parity_vs_oracle(engine_triples):
    docs = [synthetic_doc(i, SEED) for i in range(N_DOCS)]
    gold = {
        sent: [(t.rel, [t.arg1, t.arg2], t.confidence) for t in triples]
        for sent, triples in oracle_predictions(docs, seed=777).items()
        if triples
    }
    predicted = group_by_sentence(engine_triples)

    precision, recall = precision_recall(gold, predicted)
    assert precision >= 0.95 and recall >= 0.95, (precision, recall)
    # with a pure-function labeler the match must in fact be exact
    assert precision == 1.0 and recall == 1.0

    # exact multiset equality of (sentence, arg1, rel, arg2, conf)
    gold_set = {
        (s, a[0], r, a[1], c) for s, exs in gold.items() for r, a, c in exs
    }
    pred_set = {
        (s, a[0], r, a[1], c) for s, exs in predicted.items() for r, a, c in exs
    }
    assert gold_set == pred_set


def test_staged_pipeline_matches_fused(engine_triples):
    """The fused kernel equals the stage-by-stage reference run serially
    in this process: explode → ConjSplitter → OIEExtractor → per-sentence
    grouped dedup/top-k (the composition of perfbench/replay.py)."""
    from openie_with_entities_ray.sources.source_docs import (
        synthetic_source_docs_table,
    )
    from openie_with_entities_ray.stages.extract import (
        ConjSplitter,
        OIEExtractor,
    )
    from openie_with_entities_ray.stages.group import (
        GROUP_KEY,
        _dedup_topk_group,
    )
    from openie_with_entities_ray.stages.sentences import _explode_batch

    sents = _explode_batch(synthetic_source_docs_table(N_DOCS, seed=SEED))
    splits = ConjSplitter()(sents).drop(["conj_words", "split_indices"])
    raw = OIEExtractor()(splits).to_pandas()
    staged = [
        row
        for _, group in raw.groupby(GROUP_KEY, sort=False)
        for row in _dedup_topk_group(group, 5).to_dict("records")
    ]
    assert staged
    key = lambda r: (
        r["repo"], r["path"], r["sent_id"], r["arg1"], r["rel"], r["arg2"],
        r["confidence"],
    )
    assert sorted(map(key, staged)) == sorted(map(key, engine_triples))


def test_lineage_sha256(engine_triples):
    expected = {}
    for i in range(N_DOCS):
        d = synthetic_doc(i, SEED)
        expected[(d["repo"], d["path"], d["commit"])] = sha256_hex(d["content"])
    assert engine_triples, "pipeline produced no rows"
    for r in engine_triples:
        assert r["content_sha256"] == expected[(r["repo"], r["path"], r["commit"])]


def test_resumable_materialize(ray_session, tmp_path):
    import ray.data

    from openie_with_entities_ray.pipelines.flagship import resumable_materialize

    # 4 input shards on disk
    shards = []
    for k in range(4):
        docs = [synthetic_doc(i, SEED) for i in range(k * 20, (k + 1) * 20)]
        import pyarrow as pa

        path = tmp_path / f"shard{k}.parquet"
        pq.write_table(
            pa.table({c: [d[c] for d in docs] for c in docs[0]}), path
        )
        shards.append(str(path))

    out_interrupted = tmp_path / "out_a"
    out_full = tmp_path / "out_b"

    # "crashed" run: only the first two shards complete
    m1, skipped1 = resumable_materialize(shards[:2], str(out_interrupted))
    assert len(m1) == 2 and skipped1 == []

    # resumed run over all shards: skips 0 and 1
    m2, skipped2 = resumable_materialize(shards, str(out_interrupted))
    assert skipped2 == [0, 1] and [m["partition"] for m in m2] == [2, 3]

    # uninterrupted run
    m3, _ = resumable_materialize(shards, str(out_full), resume=False)
    assert len(m3) == 4

    def edge_set(root):
        ds = ray.data.read_parquet(str(root / "edges"))
        return sorted(
            (r["src"], r["rel"], r["dst"], r["repo"], r["path"], r["sent_id"])
            for r in ds.take_all()
        )

    assert edge_set(out_interrupted) == edge_set(out_full)


def test_graph_materialize(ray_session):
    from openie_with_entities_ray.pipelines.flagship import (
        build_graph,
        extract_triples,
    )

    docs = synthetic_source_docs(60, seed=SEED)
    triples = extract_triples(docs)
    nodes, edges = build_graph(triples)
    node_rows = nodes.take_all()
    edge_rows = edges.take_all()
    assert node_rows and edge_rows
    # node ids are content-addressed: recomputing from surface_norm agrees
    from openie_with_entities_ray.stages.canonical import canonical_id

    for n in node_rows[:50]:
        assert n["node_id"] == canonical_id(n["surface_norm"])
    # deduped edges are unique on (src, rel, dst)
    keys = [(e["src"], e["rel"], e["dst"]) for e in edge_rows]
    assert len(keys) == len(set(keys))


def test_canonicalize_combiner_bounds_shuffle(ray_session):
    """Skew handling: the canonicalization shuffle moves at most one row
    per distinct normalized surface per batch (the map-side combiner =
    salted two-phase aggregation), no matter how hot a key is."""
    import pyarrow as pa
    import ray.data

    from openie_with_entities_ray.stages.canonical import _partial_counts

    # one Zipf-hot surface in 90% of rows
    n = 1000
    batch = pa.table(
        {
            "arg1": ["Acme Corp" if i % 10 else f"rare{i}" for i in range(n)],
            "arg2": ["Hooli"] * n,
        }
    )
    partial = _partial_counts(batch)
    # 1000 rows in → (distinct surfaces) rows out, hot key pre-summed
    assert partial.num_rows == len(set(batch.column("arg1").to_pylist())) + 1
    counts = dict(
        zip(
            partial.column("surface_norm").to_pylist(),
            partial.column("n_mentions").to_pylist(),
        )
    )
    assert counts["acme corp"] == 900
    assert counts["hooli"] == 1000


def _canonical_oracle(blocks):
    """Pure-Python nodes and predicate counts of ``blocks``: the
    ``node_of`` key rule, a Counter of mentions and the code-point min
    raw surface per node."""
    from openie_with_entities_ray.stages.canonical import (
        canonical_id,
        normalize_surface,
    )

    counts, surface, rels = (collections.Counter(), {},
                             collections.Counter())
    for b in blocks:
        for row in b.to_pylist():
            for col, ents_col in (("arg1", "subj_ents"),
                                  ("arg2", "obj_ents")):
                v, es = row[col] or "", row[ents_col]
                key = ((es[0], True) if es is not None and len(es) == 1
                       else (normalize_surface(v), False))
                counts[key] += 1
                surface[key] = min(surface.get(key, v), v)
            rel = normalize_surface(row["rel"] or "")
            if rel:
                rels[rel] += 1
    nodes = sorted(
        (n if e else canonical_id(n), n, surface[(n, e)], c)
        for (n, e), c in counts.items()
    )
    return nodes, sorted(rels.items())


@pytest.mark.parametrize("num_parts", [1, 3, 64])
def test_canonicalize_surfaces_matches_python_oracle(ray_session, num_parts):
    """The nodes table (and predicate counts) equal a Counter + ``min``
    oracle under any part count: surfaces that differ only after an
    embedded NUL stay distinct, the kept surface is the code-point min
    (U+FFFF sorts before U+1F600 there, after it in UTF-16), empty and
    punctuation-only arguments are one '' node, and an entity-linked
    argument is its own node beside a surface node of the same text.
    Rows of one key sit in different blocks, so the merge (not only
    the per-batch combiner) decides every count and min."""
    import pyarrow as pa
    import ray.data

    from openie_with_entities_ray.stages.canonical import (
        canonicalize_surfaces,
        predicate_frequencies,
    )

    ents = pa.list_(pa.string())
    rows = [
        ("Ali\x00ce", None, "lives\x00in", "Ac\x00me", ["acme corp"]),
        ("Ali\x00cf", None, "lives\x00im", "acme corp", None),
        ("ali\x00ce!", [], "lives\x00in", "Acme Corp", ["acme corp"]),
        ("\uffff", ["Q_x"], "", "!!!", None),
        ("\U0001F600", ["Q_x"], "...", "", ["Q_a", "Q_b"]),
        (None, None, None, "Acme, Corp.", None),
        ("acme corp", ["acme corp"], "Founded", "\U0001F600x", None),
        ("Acme Corp", None, "founded", "\uffffx", None),
    ]
    blocks = [
        pa.table(
            {
                "arg1": pa.array([a1], pa.string()),
                "subj_ents": pa.array([e1], ents),
                "rel": pa.array([r], pa.string()),
                "arg2": pa.array([a2], pa.string()),
                "obj_ents": pa.array([e2], ents),
            }
        )
        for a1, e1, r, a2, e2 in rows
    ]
    want_nodes, want_rels = _canonical_oracle(blocks)
    assert ("Q_x", "Q_x", "\uffff", 2) in want_nodes
    assert len({n for _, n, _, _ in want_nodes}) < len(want_nodes)

    nodes = canonicalize_surfaces(ray.data.from_arrow(blocks),
                                  num_parts=num_parts)
    got = sorted(
        (r["node_id"], r["surface_norm"], r["surface"], r["n_mentions"])
        for r in nodes.take_all()
    )
    assert got == want_nodes
    schema = nodes.schema()
    assert dict(zip(schema.names, schema.types))["n_mentions"] == pa.int64()

    freqs = predicate_frequencies(ray.data.from_arrow(blocks),
                                  num_parts=num_parts).take_all()
    assert sorted((r["rel_norm"], r["n"]) for r in freqs) == want_rels
    assert [r["n"] for r in freqs] == sorted(
        (r["n"] for r in freqs), reverse=True
    )


def test_adversarial_content(ray_session):
    """Nasty documents (marker tokens inside content, curly quotes,
    control chars, emoji, glued punctuation, monster tokens, empty
    comments, massive repetition) must neither crash the engine nor break
    oracle parity."""
    import pyarrow as pa
    import ray.data

    from openie_with_entities_ray.pipelines.flagship import (
        extract_triples_with_entities,
    )

    nasty = [
        "# Alice founded [unused1] Acme .\nx=1",
        "# “Bob” said ’hello’ and left .",
        "# the \x9c weird \t token founded X .",
        "# A, B and C founded D.",
        "# " + "w" * 300 + " founded X .",
        "# 🎉 Alice founded Acme 🎉 .",
        "# [unusedfoo] is REL-ish and Alice founded Acme .",
        "# Ali\x00ce founded Ac\x00me and Ali\x00cf founded Acme .",
        "#\n#\n# \n",
        "# Alice founded Acme .\n" * 50,
        "no comments at all just code x = 1",
    ]
    docs = [
        {"repo": "r", "path": f"p{i}", "commit": str(i), "lang": "py",
         "content": c}
        for i, c in enumerate(nasty)
    ]
    ds = ray.data.from_arrow(
        pa.table({k: [d[k] for d in docs] for k in docs[0]})
    )
    rows = extract_triples_with_entities(ds).take_all()

    predicted = group_by_sentence(rows)
    gold = {
        s: [(t.rel, [t.arg1, t.arg2], t.confidence) for t in ts]
        for s, ts in oracle_predictions(docs, seed=777).items()
        if ts
    }
    gs = {(s, a[0], r, a[1], c) for s, e in gold.items() for r, a, c in e}
    ps = {(s, a[0], r, a[1], c) for s, e in predicted.items() for r, a, c in e}
    assert gs == ps and len(gs) > 0


def test_queries_deferred_imports_resolve():
    """Every `from .x import y` inside a queries.py function body must
    resolve — guards against a refactor deleting/renaming a stage
    function that only a lazily-importing query references (regression:
    a bad edit dropped `def triangle_count` and no test noticed until
    the oracle gate ran)."""
    import ast
    import importlib
    import inspect

    from openie_with_entities_ray import queries as qmod

    src = inspect.getsource(qmod)
    tree = ast.parse(src)
    missing = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        pkg = "openie_with_entities_ray"
        mod = importlib.import_module(
            "." * node.level + (node.module or ""), pkg
        )
        for alias in node.names:
            if not hasattr(mod, alias.name):
                missing.append(f"{node.module}:{alias.name}")
    assert not missing, missing


def test_sources_compile_without_warnings():
    """Every module of the package, the jobs, the tools and bench.py
    compiles with warnings as errors: an invalid string escape such as
    ``"\\["`` is a SyntaxWarning today and a SyntaxError in a later
    Python (write ``"\\\\["`` or a raw string)."""
    import warnings

    files = sorted(
        glob.glob(os.path.join(ROOT, "openie_with_entities_ray", "**",
                               "*.py"), recursive=True)
        + glob.glob(os.path.join(ROOT, "jobs", "*.py"))
        + glob.glob(os.path.join(ROOT, "tools", "*.py"))
        + [os.path.join(ROOT, "bench.py")]
    )
    assert len(files) > 30
    failed = []
    for path in files:
        with open(path, encoding="utf-8") as f:
            src = f.read()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                compile(src, path, "exec")
            except (SyntaxError, Warning) as e:
                failed.append(f"{os.path.relpath(path, ROOT)}: {e}")
    assert not failed, "\n".join(failed)


def test_resume_rejects_reordered_shard_list(ray_session, tmp_path):
    """A resumed run whose shard list disagrees with a completed
    manifest must fail loudly, not silently skip the wrong shard."""
    import pyarrow as pa
    import pytest

    from openie_with_entities_ray.pipelines.flagship import (
        resumable_materialize,
    )

    shards = []
    for k in range(2):
        docs = [synthetic_doc(i, SEED) for i in range(k * 10, (k + 1) * 10)]
        path = tmp_path / f"shard{k}.parquet"
        pq.write_table(
            pa.table({c: [d[c] for d in docs] for c in docs[0]}), path
        )
        shards.append(str(path))

    out = tmp_path / "out"
    resumable_materialize(shards[:1], str(out))
    with pytest.raises(ValueError, match="resume mismatch"):
        resumable_materialize(list(reversed(shards)), str(out))


def test_staged_oie_empty_batch_keeps_schema(ray_session):
    """An OIEExtractor batch whose splits decode to ZERO triples must
    emit typed carried columns, not null-typed ones (one such block
    corrupts Dataset schema unification — mixed-block hazard)."""
    import pyarrow as pa

    from openie_with_entities_ray.stages.extract import OIEExtractor

    batch = pa.table(
        {
            "repo": pa.array(["r"], pa.string()),
            "path": pa.array(["p"], pa.string()),
            "commit": pa.array(["c"], pa.string()),
            "sent_id": pa.array([0], pa.int64()),
            "orig_sentence": pa.array(["Done ."], pa.string()),
            "split_id": pa.array([0], pa.int64()),
            "split_sentence": pa.array(["Done ."], pa.string()),
        }
    )
    out = OIEExtractor()(batch)
    assert out.num_rows == 0  # no verbs -> zero triples
    assert out.schema.field("repo").type == pa.string(), out.schema
    assert out.schema.field("sent_id").type == pa.int64(), out.schema
    assert not any(
        pa.types.is_null(f.type) for f in out.schema
    ), out.schema


@pytest.mark.parametrize("rows", [12, 0])
def test_producers_emit_declared_schemas(rows):
    """Every stage-boundary producer emits exactly the schema that
    ``schemas.py`` declares for it, over the first ``rows`` docs of the
    synthetic corpus (0: a 0-row batch)."""
    import pyarrow as pa

    from openie_with_entities_ray import schemas
    from openie_with_entities_ray.sources.source_docs import (
        synthetic_source_docs_table,
    )
    from openie_with_entities_ray.stages import canonical
    from openie_with_entities_ray.stages.entity import (
        FusedExtractorWithEntities,
    )
    from openie_with_entities_ray.stages.extract import (
        ConjSplitter,
        FusedExtractor,
        SplitExtractor,
    )
    from openie_with_entities_ray.stages.graph import triples_to_edges
    from openie_with_entities_ray.stages.sentences import _explode_batch

    sents = _explode_batch(synthetic_source_docs_table(rows, seed=SEED))
    occurrences = sents.append_column("first_sid", sents.column("sent_id"))
    occurrences = occurrences.append_column(
        "splits", pa.nulls(sents.num_rows, pa.list_(pa.string())))
    triples = FusedExtractor()(sents)
    ent_triples = FusedExtractorWithEntities()(sents)
    produced = [
        (schemas.SENTENCES, sents),
        (schemas.SPLIT_SENTENCES, ConjSplitter()(sents)),
        (schemas.TRIPLES, triples),
        (schemas.ENTITY_TRIPLES, ent_triples),
        (schemas.SPLIT_ROWS, SplitExtractor()(occurrences)),
        (schemas.EDGES, triples_to_edges(triples)),
        (schemas.EDGES, triples_to_edges(ent_triples)),
        (schemas.NODES, canonical.finalize(
            canonical.merge(canonical._partial_counts(ent_triples)))),
    ]
    for declared, out in produced:
        assert (out.num_rows > 0) == (rows > 0), declared
        assert out.schema.equals(declared), (declared, out.schema)


def test_entity_graph_nodes_cover_edge_endpoints(ray_session):
    """Referential integrity: with entity linking on, every edge
    src/dst id appears in the nodes table (uniquely-linked arguments
    become ENTITY nodes, mirroring triples_to_edges' node_of rule)."""
    import ray.data

    from openie_with_entities_ray.pipelines.flagship import (
        build_graph,
        extract_triples_with_entities,
    )

    docs = ray.data.from_items(
        [
            {
                "repo": "r", "path": f"p{i}", "commit": "c", "lang": "en",
                "content": synthetic_doc(i, SEED)["content"],
            }
            for i in range(8)
        ]
    )
    triples = extract_triples_with_entities(docs)
    nodes, edges = build_graph(triples, deduped=True)
    node_ids = set(nodes.to_pandas()["node_id"])
    edf = edges.to_pandas()
    endpoints = set(edf["src"]) | set(edf["dst"])
    assert endpoints, "no edges extracted"
    dangling = endpoints - node_ids
    assert not dangling, sorted(dangling)[:5]


def _rows(table):
    return sorted(map(repr, table.to_pylist()))


def test_entity_pipeline_twice_matches_serial_with_fresh_kernels(
    ray_session, monkeypatch
):
    """Two calls in one session both equal a single-process kernel, and
    each call builds its own kernel: EntityTagger's memos from the first
    call never serve the second."""
    from collections import OrderedDict

    import pyarrow as pa
    import ray.data

    from openie_with_entities_ray.oracles import entity_fixture_docs
    from openie_with_entities_ray.pipelines.flagship import (
        extract_triples_with_entities,
    )
    from openie_with_entities_ray.stages import extract
    from openie_with_entities_ray.stages.entity import (
        FusedExtractorWithEntities,
    )
    from openie_with_entities_ray.stages.sentences import docs_to_sentences

    fns = []
    real_kernel_fn = extract.kernel_fn

    def spy(cls, **kwargs):
        fns.append(real_kernel_fn(cls, **kwargs))
        return fns[-1]

    monkeypatch.setattr(extract, "kernel_fn", spy)
    monkeypatch.setattr(extract, "_kernels", OrderedDict())
    docs = ray.data.from_items(entity_fixture_docs(24)).repartition(3)
    sents = pa.concat_tables(list(
        docs_to_sentences(docs).iter_batches(batch_format="pyarrow",
                                             batch_size=None)
    ))
    serial = FusedExtractorWithEntities()(sents)
    assert any(serial.column("subj_ents").to_pylist())
    expected = _rows(serial)

    for _ in range(2):
        got = extract_triples_with_entities(docs, batch_size=8).to_arrow_refs()
        assert _rows(pa.concat_tables(ray.get(got))) == expected
    assert len(fns) == 2 and fns[0].__name__ == "FusedExtractorWithEntities"

    # the same batch functions in this process: one kernel per call
    fns[0](sents)
    (first,) = extract._kernels.values()
    assert first.tag._mention_cache
    fns[0](sents)
    assert list(extract._kernels.values()) == [first]
    assert _rows(fns[1](sents)) == expected
    second = list(extract._kernels.values())[1]
    assert second is not first
    assert second.tag._mention_cache is not first.tag._mention_cache


def test_kernel_plans_run_no_actor_pool(ray_session, monkeypatch, tmp_path):
    """Every kernel class runs as Ray Data tasks: no plan of the flagship
    (with and without entities), of the CLI's splitpredict and conj
    predict, or of the stages that once ran actor pools (wordpiece
    counts, row-local SQL, media decode/frames/resize, MinHash
    signatures, embedding LSH) starts an actor pool."""
    from ray.data._internal.execution.operators.actor_pool_map_operator import (
        ActorPoolMapOperator,
    )
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    import pyarrow as pa
    import ray.data

    from openie_with_entities_ray import cli
    from openie_with_entities_ray.pipelines.flagship import (
        extract_triples,
        extract_triples_with_entities,
    )
    from openie_with_entities_ray.stages.dataops import (
        embedding_near_dup_pairs,
        minhash_candidate_pairs,
        sql_map_batches,
    )
    from openie_with_entities_ray.stages.multimodal import (
        decode_media,
        resize_images,
        sample_frames,
        synthetic_media_table,
    )
    from openie_with_entities_ray.stages.sentences import (
        with_wordpiece_counts,
    )

    operators = []
    real_execute = StreamingExecutor.execute

    def execute(self, dag, *args, **kwargs):
        todo = [dag]
        while todo:
            op = todo.pop()
            operators.append(op)
            todo.extend(op.input_dependencies)
        return real_execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", execute)
    docs = synthetic_source_docs(12, seed=SEED)
    assert extract_triples(docs).take_all()
    assert extract_triples_with_entities(docs).take_all()
    inp = tmp_path / "sentences.txt"
    inp.write_text("Alice , Bob and Carol founded Acme Corp in New York .\n"
                   "Dave , the CEO of Globex , acquired Initech .\n")
    cli.run_splitpredict(cli.build_parser().parse_args(
        ["--mode", "splitpredict", "--inp", str(inp),
         "--out", str(tmp_path / "out"), "--type", "labels"]
    ))
    assert (tmp_path / "out.labels").read_text().strip()
    cli.run_predict(cli.build_parser().parse_args(
        ["--mode", "predict", "--task", "conj", "--inp", str(inp),
         "--out", str(tmp_path / "conj")]
    ))
    assert (tmp_path / "conj.conj").read_text().strip()

    sents = ray.data.from_items([{"sentence": "Alice met Bob ."}])
    assert with_wordpiece_counts(sents).take_all()
    assert sql_map_batches(sents, "SELECT sentence FROM batch").take_all()
    media = ray.data.from_arrow(synthetic_media_table(6))
    assert decode_media(media).take_all()
    assert sample_frames(media).take_all()
    assert resize_images(media).take_all()
    text = "the quick brown fox jumps over the lazy dog again"
    docs = ray.data.from_items([{"doc_id": i, "text": text}
                                for i in range(2)])
    assert minhash_candidate_pairs(docs).take_all()
    emb = ray.data.from_arrow(pa.table({
        "vec_id": pa.array([0, 1], pa.int64()),
        "embedding": pa.array([[1.0, 0.0], [1.0, 0.0]],
                              pa.list_(pa.float64())),
    }))
    assert embedding_near_dup_pairs(emb, dim=2, num_planes=2).take_all()

    names = " ".join(op.name for op in operators)
    for kernel in ("FusedExtractor", "FusedExtractorWithEntities",
                   "ConjSplitter", "SplitExtractor", "_LabelProjector",
                   "WordpieceCounter", "DuckDBBatchSQL", "MediaDecoder",
                   "FrameSampler", "ImageResizer", "MinHashSignatures",
                   "LSHBucketer"):
        assert f"MapBatches({kernel})" in names, kernel
    pools = [op.name for op in operators
             if isinstance(op, ActorPoolMapOperator)]
    assert not pools, pools


def test_kernel_classes_run_only_through_map_kernel():
    """stages/extract.py:map_kernel is the one host for a kernel class:
    no module of the package or the jobs builds an actor pool (a class
    passed to ``map_batches`` with constructor arguments, a
    ``concurrency=`` pool size or an ``ActorPoolStrategy``)."""
    pool = re.compile(r"fn_constructor_kwargs|concurrency=|ActorPoolStrategy")
    files = sorted(
        glob.glob(os.path.join(ROOT, "openie_with_entities_ray", "**",
                               "*.py"), recursive=True)
        + glob.glob(os.path.join(ROOT, "jobs", "*.py"))
    )
    assert len(files) > 30
    hits = []
    for path in files:
        with open(path, encoding="utf-8") as f:
            for i, line in enumerate(f, 1):
                if pool.search(line):
                    rel = os.path.relpath(path, ROOT)
                    hits.append(f"{rel}:{i}: {line.strip()}")
    assert not hits, "\n".join(hits)


def test_cli_splitpredict_plan_has_no_exchange(ray_session, monkeypatch,
                                               tmp_path):
    """The CLI's splitpredict is one kernel pass plus ordered writes: no
    join, no grouped shuffle (per_part/merge/first_wins) and exactly one
    execution, the materialized kernel table. The writers read its blocks
    in input order, so no sort runs anywhere in the CLI."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    from openie_with_entities_ray import cli

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
    inp = tmp_path / "sentences.txt"
    inp.write_text("Alice , Bob and Carol founded Acme Corp in New York .\n"
                   "Dave , the CEO of Globex , acquired Initech .\n"
                   "Alice , Bob and Carol founded Acme Corp in New York .\n")
    cli.run_splitpredict(cli.build_parser().parse_args(
        ["--mode", "splitpredict", "--inp", str(inp),
         "--out", str(tmp_path / "out")]
    ))
    oie = (tmp_path / "out.oie").read_text()
    assert len(oie.strip("\n").split("\n\n")) == 2  # duplicates merge

    names = " ".join(n for plan in plans for n in plan)
    assert "MapBatches(SplitExtractor)" in names
    for banned in ("Join", "per_part", "merge", "first_wins", "add_key",
                   "add_part"):
        assert banned not in names, (banned, plans)
    assert len(plans) == 1, plans
    with open(cli.__file__, encoding="utf-8") as f:
        assert ".sort(" not in f.read()


# --- materialize_graph: one execution, serial oracle, re-runs -----------

GRAPH_DIRS = ("triples", "edges", "nodes")


def _write_docs(tmp_path, n: int, copies: int = 1) -> list:
    """``synthetic_source_docs_table(n)`` as Parquet: two files of its
    halves, each written ``copies`` times (byte-identical copies)."""
    from openie_with_entities_ray.sources.source_docs import (
        synthetic_source_docs_table,
    )

    table = synthetic_source_docs_table(n, seed=SEED)
    half = n // 2
    paths = []
    for i, part in enumerate((table.slice(0, half), table.slice(half))):
        for c in range(copies):
            path = tmp_path / f"docs-{i}-{c}.parquet"
            pq.write_table(part, path)
            paths.append(str(path))
    return paths


def _graph_oracle(paths, with_entities: bool) -> dict:
    """The three tables without Ray, composed as perfbench/replay.py
    composes them: ``_explode_batch`` → fused extractor →
    ``triples_to_edges``, and ``_partial_counts`` over batches of the
    triples merged by (surface_norm, is_ent) into summed mentions and the
    minimum surface."""
    import pyarrow as pa

    from openie_with_entities_ray.stages.canonical import (
        _partial_counts,
        canonical_id,
    )
    from openie_with_entities_ray.stages.entity import (
        FusedExtractorWithEntities,
    )
    from openie_with_entities_ray.stages.extract import FusedExtractor
    from openie_with_entities_ray.stages.graph import triples_to_edges
    from openie_with_entities_ray.stages.sentences import _explode_batch

    docs = pa.concat_tables([pq.read_table(p) for p in paths])
    kernel = (FusedExtractorWithEntities if with_entities
              else FusedExtractor)(seed=777)
    triples = kernel(_explode_batch(docs))
    edges = triples_to_edges(triples)
    counts, surface = collections.Counter(), {}
    for start in range(0, triples.num_rows, 97):
        part = _partial_counts(triples.slice(start, 97))
        for norm, is_ent, s, n in zip(*(
            part.column(c).to_pylist()
            for c in ("surface_norm", "is_ent", "surface", "n_mentions")
        )):
            counts[(norm, is_ent)] += n
            surface[(norm, is_ent)] = min(surface.get((norm, is_ent), s), s)
    nodes = pa.table({
        "node_id": [n if e else canonical_id(n) for n, e in counts],
        "surface_norm": [n for n, _ in counts],
        "surface": [surface[k] for k in counts],
        "n_mentions": pa.array(list(counts.values()), pa.int64()),
    })
    return {"triples": triples, "edges": edges, "nodes": nodes}


def _sorted_rows(tables) -> list:
    """The rows of ``tables`` (columns by name) as sorted reprs."""
    names = sorted(tables[0].column_names)
    return sorted(repr(r) for t in tables
                  for r in zip(*(t.column(n).to_pylist() for n in names)))


def _graph_rows(out) -> tuple:
    """Each output table of ``out`` as :func:`_sorted_rows`, and the files
    it was read from."""
    rows, files = {}, {}
    for d in GRAPH_DIRS:
        files[d] = sorted(glob.glob(os.path.join(str(out), d, "**",
                                                 "*.parquet"),
                                    recursive=True))
        assert files[d], f"no {d} files"
        rows[d] = _sorted_rows([pq.read_table(f) for f in files[d]])
    return rows, files


def _oracle_rows(oracle: dict) -> dict:
    return {d: _sorted_rows([t]) for d, t in oracle.items()}


def _count_executions(monkeypatch) -> list:
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    calls = []
    real_execute = StreamingExecutor.execute

    def execute(self, dag, *args, **kwargs):
        calls.append(dag.name)
        return real_execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", execute)
    return calls


@pytest.mark.parametrize("with_entities", [True, False])
def test_materialize_graph_one_execution_matches_serial_oracle(
    ray_session, monkeypatch, tmp_path, with_entities
):
    """triples, edges and nodes equal the serial composition of the
    kernels, row for row, and the whole call is ONE streaming execution
    (the unit tasks write triples and edges; their partials feed the
    nodes exchange). A second call into the same ``out_dir`` replaces
    the first run's output instead of adding to it: its triples and
    edges files are the first run's names, each named after its unit."""
    import ray.data

    from openie_with_entities_ray.pipelines.flagship import (
        materialize_graph,
    )

    paths = _write_docs(tmp_path, 80)
    want = _oracle_rows(_graph_oracle(paths, with_entities))
    assert want["triples"] and want["nodes"]
    out = tmp_path / "graph"
    calls = _count_executions(monkeypatch)
    materialize_graph(ray.data.read_parquet(paths), str(out),
                      with_entities=with_entities)
    assert len(calls) == 1, calls
    got, first_files = _graph_rows(out)
    assert got == want

    materialize_graph(ray.data.read_parquet(paths), str(out),
                      with_entities=with_entities)
    assert len(calls) == 2, calls
    again, files = _graph_rows(out)
    assert again == want
    for d in ("triples", "edges"):
        assert files[d] == first_files[d], d


def test_materialize_graph_duplicate_inputs_keep_both_copies(
    ray_session, monkeypatch, tmp_path
):
    """Two byte-identical copies of each input file (same rows, so equal
    batches, in one task or in two) give twice the triples and edges and
    twice every node's mentions: no file name of one unit collides with
    another's. Patching ``DOCS_BATCH`` to 10 in this process makes the
    driver plan 10-doc units, so each input file writes several files;
    the workers keep their own ``DOCS_BATCH`` and read each unit as one
    batch."""
    import pyarrow as pa
    import ray.data

    from openie_with_entities_ray.pipelines import flagship

    monkeypatch.setattr(flagship, "DOCS_BATCH", 10)
    single = _write_docs(tmp_path, 40)
    oracle = _graph_oracle(single, with_entities=True)
    paths = _write_docs(tmp_path, 40, copies=2)
    out = tmp_path / "graph"
    flagship.materialize_graph(ray.data.read_parquet(paths), str(out))
    got, files = _graph_rows(out)
    want = _oracle_rows(oracle)
    for d in ("triples", "edges"):
        assert got[d] == sorted(want[d] * 2), d
        assert len(files[d]) >= 8
    nodes = oracle["nodes"]
    doubled = nodes.set_column(
        3, "n_mentions",
        pa.array([2 * n for n in nodes.column("n_mentions").to_pylist()],
                 pa.int64()),
    )
    assert got["nodes"] == _oracle_rows({"nodes": doubled})["nodes"]


def test_unit_writer_retry_rewrites_its_own_files(tmp_path):
    """A retried unit — a fresh kernel in a new process running the same
    unit again — rewrites the files of its first run instead of adding
    copies, and returns the same rows, for both outputs: the graph's
    ``triples/`` and ``edges/`` with their partials, and the graph job's
    ``edges/part=<k>/`` with its summary row."""
    import pyarrow as pa

    from openie_with_entities_ray.pipelines.flagship import (
        _shard_units,
        _UnitWriter,
    )

    paths = _write_docs(tmp_path, 12)
    units = pa.Table.from_pylist(_shard_units(3, paths[0]))
    for graph, dirs in ((True, ("triples", "edges")),
                        (False, ("edges/part=3",))):
        out = tmp_path / f"graph-{graph}"

        def run():
            got = _UnitWriter(str(out), seed=777, with_entities=True,
                              graph=graph)(units)
            files = {d: sorted(os.listdir(out / d)) for d in dirs}
            rows = {d: _sorted_rows([pq.read_table(out / d / f)
                                     for f in files[d]]) for d in dirs}
            if not graph:
                got = got.drop_columns(["busy_s"])
            return got, files, rows

        got, files, rows = run()
        assert got.num_rows and all(rows.values())
        name = "3-rg-0-0.parquet" if graph else "rg-0-0.parquet"
        assert files == {d: [name] for d in dirs}
        again, *rest = run()
        assert again.equals(got) and rest == [files, rows], graph


def test_unit_writer_streams_units_of_several_batches(monkeypatch,
                                                     tmp_path):
    """Units of several ``DOCS_BATCH`` batches, run in this process so
    the patched batch size reaches the writer: each unit keeps one
    triples and one edges writer open across its batches and joins its
    batches' partials, and the units together write exactly the serial
    oracle's rows, for both outputs. 40 docs at 1-doc batches make 8
    units of 5 batches, each starting inside the row group."""
    import pyarrow as pa

    from openie_with_entities_ray.pipelines import flagship

    monkeypatch.setattr(flagship, "DOCS_BATCH", 1)
    one = str(tmp_path / "docs.parquet")
    pq.write_table(pa.concat_tables(
        [pq.read_table(p) for p in _write_docs(tmp_path, 40)]), one)
    units = flagship._shard_units(0, one)
    assert [u["stop"] - u["start"] for u in units] == [5] * 8
    oracle = _graph_oracle([one], with_entities=False)
    want = _oracle_rows(oracle)
    for graph in (True, False):
        out = tmp_path / f"graph-{graph}"
        got = flagship._UnitWriter(str(out), seed=777, with_entities=False,
                                   graph=graph)(pa.Table.from_pylist(units))
        dirs = {"triples": "triples", "edges": "edges"} if graph else {
            "edges": "edges/part=0"}
        for d, sub in dirs.items():
            files = sorted(os.listdir(out / sub))
            assert len(files) == len(units), (d, files)
            assert _sorted_rows([pq.read_table(out / sub / f)
                                 for f in files]) == want[d], d
        if graph:
            mentions = collections.Counter()
            for norm, n in zip(got.column("surface_norm").to_pylist(),
                               got.column("n_mentions").to_pylist()):
                mentions[norm] += n
            nodes = oracle["nodes"]
            assert mentions == dict(zip(
                nodes.column("surface_norm").to_pylist(),
                nodes.column("n_mentions").to_pylist()))
        else:
            assert got.column("rows").to_pylist() == [
                pq.read_metadata(out / "edges/part=0"
                                 / f"rg-0-{u['start']}.parquet").num_rows
                for u in units]
            assert sum(got.column("rows").to_pylist()) == len(want["edges"])


def _record_plans(monkeypatch) -> list:
    """``(op_resource_reservation_enabled, operator names)`` of every
    execution started while the hook is on."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    plans = []
    real_execute = StreamingExecutor.execute

    def execute(self, dag, *args, **kwargs):
        names, todo = [], [dag]
        while todo:
            op = todo.pop()
            names.append(op.name)
            todo.extend(op.input_dependencies)
        plans.append(
            (self._data_context.op_resource_reservation_enabled, names))
        return real_execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", execute)
    return plans


def test_materialize_graph_one_file_runs_unit_tasks_unreserved(
    ray_session, monkeypatch, tmp_path
):
    """One input file of one row group (CLI ``--mode graph`` is usually
    given one file) is cut into ``UNIT_SPLIT`` units that run as tasks of
    one execution without Ray Data's per-operator reservation and with no
    read operator in the plan; the outputs equal the serial oracle and
    the caller's Dataset keeps its reservation flag. Patching
    ``DOCS_BATCH`` to 8 in this process makes the driver plan the row
    group as more than ``UNIT_SPLIT`` batches; the workers keep their own
    ``DOCS_BATCH`` and read each unit as one batch (units of several
    batches: ``test_unit_writer_streams_units_of_several_batches``)."""
    import pyarrow as pa
    import ray.data

    from openie_with_entities_ray.pipelines import flagship

    monkeypatch.setattr(flagship, "DOCS_BATCH", 8)
    paths = _write_docs(tmp_path, 80)
    one = str(tmp_path / "docs.parquet")
    pq.write_table(pa.concat_tables([pq.read_table(p) for p in paths]), one)
    assert pq.ParquetFile(one).metadata.num_row_groups == 1
    units = flagship._shard_units(0, one)
    assert len(units) == flagship.UNIT_SPLIT < 80 // 8
    docs = ray.data.read_parquet(one)
    plans = _record_plans(monkeypatch)
    out = tmp_path / "graph"
    flagship.materialize_graph(docs, str(out), with_entities=False)
    assert len(plans) == 1, plans
    reserved, names = plans[0]
    assert reserved is False
    assert any("MapBatches(_UnitWriter)" in n.split("->") for n in names)
    assert not [n for n in names if "Read" in n], names
    assert docs.context.op_resource_reservation_enabled is True
    rows, files = _graph_rows(out)
    assert rows == _oracle_rows(_graph_oracle([one], with_entities=False))
    assert [os.path.basename(f) for f in files["triples"]] == sorted(
        f"0-rg-0-{u['start']}.parquet" for u in units)


def test_resumable_materialize_runs_unreserved(ray_session, monkeypatch,
                                               tmp_path):
    """The unit execution of the graph job runs without the per-operator
    reservation, and the session's own context is left as it was."""
    from ray.data import DataContext

    from openie_with_entities_ray.pipelines.flagship import (
        resumable_materialize,
    )

    paths = _write_docs(tmp_path, 20)
    plans = _record_plans(monkeypatch)
    manifests, _ = resumable_materialize(paths, str(tmp_path / "out"))
    assert len(manifests) == len(paths)
    assert [reserved for reserved, _ in plans] == [False], plans
    assert "MapBatches(_UnitWriter)" in plans[0][1]
    assert DataContext.get_current().op_resource_reservation_enabled


class _Identity:
    """A kernel class for :func:`map_kernel` that returns its batch."""

    def __call__(self, batch):
        return batch


def test_unreserved_clears_the_flag_and_restores_it(ray_session):
    """The helper clears the flag on the context a derived Dataset shares
    with its source and puts back whatever was there before, also when
    its body raises; the session's own context is never touched."""
    import ray.data
    from ray.data import DataContext

    from openie_with_entities_ray.stages.extract import map_kernel, unreserved

    source = ray.data.from_items([{"x": i} for i in range(4)])
    derived = map_kernel(source, _Identity)
    ctx = source.context
    for before in (True, False):
        ctx.op_resource_reservation_enabled = before
        with pytest.raises(RuntimeError, match="body"):
            with unreserved(derived):
                assert ctx.op_resource_reservation_enabled is False
                raise RuntimeError("body")
        assert ctx.op_resource_reservation_enabled is before
    assert DataContext.get_current().op_resource_reservation_enabled


def _source_files() -> list:
    """The package, ``jobs/``, ``tools/`` and the top-level scripts."""
    return sorted(
        glob.glob(os.path.join(ROOT, "openie_with_entities_ray", "**",
                               "*.py"), recursive=True)
        + glob.glob(os.path.join(ROOT, "jobs", "*.py"))
        + glob.glob(os.path.join(ROOT, "tools", "*.py"))
        + glob.glob(os.path.join(ROOT, "*.py"))
    )


def test_no_ray_data_internal_imports():
    """Nothing in the package, ``jobs/``, ``tools/`` or the top-level
    scripts imports ``ray.data._internal``: Ray Data's private modules
    move between releases, so the program uses its public API only."""
    import ast

    hits = []
    for path in _source_files():
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            if any(n == "ray.data._internal"
                   or n.startswith("ray.data._internal.") for n in names):
                hits.append(f"{os.path.relpath(path, ROOT)}:{node.lineno}: "
                            f"{ast.unparse(node)}")
    assert not hits, "\n".join(hits)


def test_reservation_flag_is_set_only_by_unreserved():
    """``stages/extract.py:unreserved`` is the one writer of Ray Data's
    ``op_resource_reservation_*`` settings in the package, ``jobs/``,
    ``tools/`` and the top-level scripts — by assignment, ``setattr`` or
    keyword — and it writes the Dataset's own context, never
    ``DataContext.get_current()``'s."""
    import ast

    files = _source_files()
    helper = os.path.join("openie_with_entities_ray", "stages", "extract.py")

    def flag(name) -> bool:
        return isinstance(name, str) and name.startswith(
            "op_resource_reservation")

    allowed, hits = [], []
    for path in files:
        rel = os.path.relpath(path, ROOT)
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        spans = [(fn.lineno, fn.end_lineno) for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef)
                 and fn.name == "unreserved" and rel == helper]
        for node in ast.walk(tree):
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            writes = any(isinstance(t, ast.Attribute) and flag(t.attr)
                         for t in targets)
            if isinstance(node, ast.Call):
                writes = any(flag(k.arg) for k in node.keywords) or (
                    isinstance(node.func, ast.Name)
                    and node.func.id == "setattr" and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)
                    and flag(node.args[1].value))
            if writes:
                where = f"{rel}:{node.lineno}: {ast.unparse(node)}"
                inside = any(a <= node.lineno <= b for a, b in spans)
                (allowed if inside else hits).append(where)
            if (isinstance(node, ast.Attribute) and node.attr == "get_current"
                    and any(a <= node.lineno <= b for a, b in spans)):
                hits.append(f"{rel}:{node.lineno}: get_current() in helper")
    assert allowed, "unreserved no longer writes the flag"
    assert not hits, "\n".join(hits)


@pytest.mark.parametrize("with_entities", [False, True])
def test_materialize_graph_empty_input_writes_empty_tables(
    ray_session, tmp_path, with_entities
):
    """A 0-row input extracts no triples: the call writes ``triples/``,
    ``edges/`` and ``nodes/`` as one 0-row file each, with the schema a
    non-empty run writes — and a previous run's output in the same
    ``out_dir`` is removed first."""
    import ray.data

    from openie_with_entities_ray.pipelines.flagship import (
        materialize_graph,
    )
    from openie_with_entities_ray.sources.source_docs import (
        synthetic_source_docs_table,
    )

    empty = tmp_path / "empty.parquet"
    pq.write_table(synthetic_source_docs_table(0, seed=SEED), empty)
    out = tmp_path / "graph"
    materialize_graph(ray.data.read_parquet(_write_docs(tmp_path, 10)),
                      str(out), with_entities=with_entities)
    _, full = _graph_rows(out)
    want = {d: pq.read_schema(full[d][0]) for d in GRAPH_DIRS}

    materialize_graph(ray.data.read_parquet(str(empty)), str(out),
                      with_entities=with_entities)
    for d in GRAPH_DIRS:
        files = glob.glob(os.path.join(str(out), d, "**", "*.parquet"),
                          recursive=True)
        assert len(files) == 1, (d, files)
        table = pq.read_table(files[0])
        assert table.num_rows == 0, d
        assert table.schema.equals(want[d]), (d, table.schema)


def test_materialize_graph_refuses_a_dataset_it_cannot_plan(
    ray_session, tmp_path
):
    """A Dataset that lists no input file (``from_items``) raises
    ``ValueError`` before anything in ``out_dir`` is touched: there are
    no files to plan units from, and writing empty tables would be a
    silent wrong answer."""
    import ray.data

    from openie_with_entities_ray.pipelines.flagship import (
        materialize_graph,
    )

    out = tmp_path / "graph"
    (out / "triples").mkdir(parents=True)
    with pytest.raises(ValueError, match="lists no input file"):
        materialize_graph(ray.data.from_items([{"x": 1}]), str(out))
    assert os.listdir(out) == ["triples"]


def test_cli_graph_mode_on_empty_input_exits_zero(
    ray_session, monkeypatch, tmp_path
):
    """``--mode graph`` over a 0-row Parquet input exits 0 and leaves
    the three tables, each one 0-row file."""
    import ray

    from openie_with_entities_ray import cli
    from openie_with_entities_ray.sources.source_docs import (
        synthetic_source_docs_table,
    )

    empty = tmp_path / "empty.parquet"
    pq.write_table(synthetic_source_docs_table(0, seed=SEED), empty)
    # the CLI shuts down the session it ran in; keep the test session's
    monkeypatch.setattr(ray, "shutdown", lambda *a, **k: None)
    out = tmp_path / "cli"
    assert cli.main(["--mode", "graph", "--inp", str(empty),
                     "--out", str(out)]) == 0
    for d in GRAPH_DIRS:
        assert pq.read_table(str(out / d)).num_rows == 0, d


def test_cli_graph_mode_rejects_input_without_source_docs_columns(
    ray_session, monkeypatch, tmp_path, capsys
):
    """``--mode graph`` over a Parquet file without the source_docs
    columns (a ``documents.parquet``-shaped table: ``doc_id, text, lang,
    source, n_chars``) exits 2 before any execution, naming the file and
    its missing columns on stderr; files that have them pass."""
    import pyarrow as pa
    import ray
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    from openie_with_entities_ray import cli

    docs = tmp_path / "docs"
    docs.mkdir()
    paths = _write_docs(tmp_path, 4)
    for p in paths:
        os.replace(p, docs / os.path.basename(p))
    bad = docs / "zz-documents.parquet"
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["Alice founded Acme .", "Bob left ."]),
        "lang": pa.array(["en", "en"]),
        "source": pa.array(["web", "web"]),
        "n_chars": pa.array([20, 10], pa.int64()),
    }), bad)
    executions = []
    monkeypatch.setattr(StreamingExecutor, "execute",
                        lambda *a, **k: executions.append(a))
    # the CLI shuts down the session it ran in; keep the test session's
    monkeypatch.setattr(ray, "shutdown", lambda *a, **k: None)
    out = tmp_path / "out"
    for inp in (docs, docs / "*.parquet"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--mode", "graph", "--inp", str(inp),
                      "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip()
        assert err == (f"{str(bad)!r}: no source_docs column(s) "
                       "repo, path, commit, content"), err
    assert not executions and not out.exists()


def test_cli_graph_mode_writes_the_materialize_graph_tables(
    ray_session, monkeypatch, tmp_path
):
    """``--mode graph`` writes the same triples, edges and nodes as a
    direct ``materialize_graph`` call on the same Parquet input."""
    import ray
    import ray.data

    from openie_with_entities_ray import cli
    from openie_with_entities_ray.pipelines.flagship import (
        materialize_graph,
    )

    paths = _write_docs(tmp_path, 30)
    inp = tmp_path / "docs"
    inp.mkdir()
    for p in paths:
        os.replace(p, inp / os.path.basename(p))
    direct = tmp_path / "direct"
    materialize_graph(ray.data.read_parquet(str(inp)), str(direct))
    # the CLI shuts down the session it ran in; keep the test session's
    monkeypatch.setattr(ray, "shutdown", lambda *a, **k: None)
    assert cli.main(["--mode", "graph", "--inp", str(inp),
                     "--out", str(tmp_path / "cli")]) == 0
    assert _graph_rows(tmp_path / "cli")[0] == _graph_rows(direct)[0]
