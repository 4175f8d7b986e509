"""Single-process serial replay of a workload through the stage callables.

The replay runs the generated input through the same callables the Ray
pipeline maps over its blocks, in pipeline order and without Ray:
``_explode_batch`` → ``FusedExtractorWithEntities``/``FusedExtractor`` or
``ConjSplitter``/``OIEExtractor`` → ``triples_to_edges`` →
``_partial_counts`` → ``_dedup_topk_group``, with the same batch sizes. It
gives two things:

- the expected output hash every timed Ray run must reproduce: every
  kernel is a pure function of its rows, so block boundaries and
  parallelism cannot change the output;
- the per-layer numbers, from spans recorded around each layer function
  where its caller looks it up. Its wall time is ``serial_s``, the
  single-threaded baseline of the same job.

The CLI's ``.conj``/``.oie``/``.allennlp`` renderers and the nodes merge are
re-stated here, as the reference the Ray writers must match byte for byte.
"""

from __future__ import annotations

import time
import zlib
from collections import Counter

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from openie_with_entities_ray.stages.canonical import normalize_surface
from perfbench.measure import blobs_hash, tables_hash
from perfbench.trace import Tracer

SEED = 777  # the pipelines' default labeler seed, used by every entry point
EXPLODE_BATCH = 256  # stages.sentences.docs_to_sentences
EXTRACT_BATCH = 512  # pipelines.flagship.extract_triples / cli --batch_size
MAP_BATCH = 1024  # Ray Data's default map_batches batch size
EDGE_COLS = ["arg1", "arg2", "rel", "confidence", "repo", "path", "commit", "sent_id"]


def _batches(table: pa.Table, size: int):
    for start in range(0, table.num_rows, size):
        yield table.slice(start, size)


def install(tracer: Tracer) -> None:
    """Wrap every layer function the replay reaches with a span recorder."""
    from openie_with_entities_ray.stages import canonical, entity, extract, graph, group, sentences
    from openie_with_entities_ray.state import labeler, ner

    c = tracer.counters

    def on_explode(args, out):
        c["docs"] += args[0].num_rows
        c["sentences"] += out.num_rows

    def on_split(args, out):
        c["split_calls"] += 1
        c["splits"] += max(1, len(out[0]))

    def on_decode(args, out):
        c["decoded"] += len(out)

    def on_partial(args, out):
        c["partial_rows"] += out.num_rows

    def on_group(args, out):
        c["group_rows_in"] += len(args[0])
        c["group_rows_out"] += len(out)

    tracer.patch(sentences, "_explode_batch", "sentences", on_explode)
    for cls in (extract.FusedExtractor, extract.ConjSplitter, extract.OIEExtractor):
        tracer.patch(cls, "__call__", "extract")
    tracer.patch(labeler.DeterministicLabeler, "label_conj", "labeler.label_conj")
    tracer.patch(labeler.DeterministicLabeler, "label_oie", "labeler.label_oie")
    tracer.patch(extract, "decode_coordinations", "conjunctions")
    tracer.patch(extract, "split_on_coordinations", "conjunctions", on_split)
    tracer.patch(extract, "decode_sentence_triples", "triples.decode", on_decode)
    tracer.patch(entity.EntityTagger, "__call__", "entity")
    tracer.count(entity.EntityTagger, "_find", "memo_lookups", when=lambda args: bool(args[1]))
    tracer.count(entity.EntityTagger, "_link", "memo_lookups")
    tracer.patch(ner.DictionaryNER, "find_mentions", "ner.find_mentions")
    tracer.patch(ner.DictionaryNER, "link", "ner.link")
    tracer.patch(graph, "triples_to_edges", "graph.triples_to_edges")
    tracer.patch(canonical, "_partial_counts", "canonical.partial", on_partial)
    tracer.patch(group, "_dedup_topk_group", "group", on_group)


def replay(workload: str, inputs: dict, tracer: Tracer) -> dict:
    """Run ``workload`` serially under ``tracer`` (already installed).

    Returns the expected output ``hash``, the ``triples`` count, ``serial_s``,
    and the ``props`` of the input the layers depend on."""
    run = {"prose_graph": _prose_graph, "code_shards": _code_shards,
           "cli_splitpredict": _cli_splitpredict}[workload]
    loaded = _load(workload, inputs)
    t0 = time.perf_counter()
    out = run(loaded, tracer)
    out["serial_s"] = time.perf_counter() - t0
    if "blobs" in out:
        out["hash"] = blobs_hash(out.pop("blobs"))
    else:
        out["hash"] = tables_hash(*out.pop("tables"))
    sents = [s for t in out.pop("sentences") for s in t.column("sentence").to_pylist()]
    triples_tables = out.pop("triples_tables")
    surfaces = {
        normalize_surface(s or "")
        for t in triples_tables
        for col in ("arg1", "arg2")
        for s in t.column(col).to_pylist()
    }
    files = inputs.get("docs") or inputs.get("shards") or [inputs["sentences"]]
    out["props"] = _props(workload, loaded, sents, surfaces, len(files), tracer)
    out["mentions"] = sum(
        pc.sum(pc.list_value_length(t.column(col))).as_py() or 0
        for t in triples_tables
        for col in ("subj_ents", "obj_ents", "rel_ents")
        if col in t.column_names
    )
    if "partials" in out:
        out["partial_max_part_share"] = max_part_share(
            [s for t in out.pop("partials") for s in t.column("surface_norm").to_pylist()]
        )
    return out


def _load(workload: str, inputs: dict):
    if workload == "prose_graph":
        return {"docs": pa.concat_tables([pq.read_table(p) for p in inputs["docs"]])}
    if workload == "code_shards":
        return {"shards": [pq.read_table(p) for p in inputs["shards"]]}
    with open(inputs["sentences"], encoding="utf-8") as f:
        return {"path": inputs["sentences"], "lines": f.read().splitlines()}


def _sentences(docs: pa.Table) -> pa.Table:
    from openie_with_entities_ray.stages import sentences

    return pa.concat_tables(
        [sentences._explode_batch(b) for b in _batches(docs, EXPLODE_BATCH)]
    )


def _extract(extractor, sents: pa.Table) -> pa.Table:
    return pa.concat_tables([extractor(b) for b in _batches(sents, EXTRACT_BATCH)])


def _edges(triples: pa.Table) -> pa.Table:
    from openie_with_entities_ray.stages import graph

    return pa.concat_tables(
        [graph.triples_to_edges(b) for b in _batches(triples, MAP_BATCH)]
    )


def _prose_graph(loaded, tracer):
    """pipelines.flagship.materialize_graph, entity stage on."""
    from openie_with_entities_ray.stages import canonical
    from openie_with_entities_ray.stages.entity import FusedExtractorWithEntities

    sents = _sentences(loaded["docs"])
    triples = _extract(FusedExtractorWithEntities(seed=SEED), sents)
    edges = _edges(triples.select(EDGE_COLS + ["subj_ents", "obj_ents"]))
    node_cols = triples.select(["arg1", "arg2", "subj_ents", "obj_ents"])
    partials = [canonical._partial_counts(b) for b in _batches(node_cols, MAP_BATCH)]
    nodes = tracer.span("replay.nodes_merge", _merge_nodes)(partials)
    return {
        "tables": [triples, edges, nodes],
        "triples": triples.num_rows,
        "edges": edges.num_rows,
        "nodes": nodes.num_rows,
        "partials": partials,
        "sentences": [sents],
        "triples_tables": [triples],
    }


def _merge_nodes(partials) -> pa.Table:
    """canonicalize_surfaces' merge + finalize over all per-batch partials:
    per (surface_norm, is_ent) key, summed mentions and the minimum surface."""
    from openie_with_entities_ray.stages.canonical import canonical_id

    counts, example = Counter(), {}
    for t in partials:
        for norm, is_ent, surface, n in zip(
            *(t.column(c).to_pylist() for c in ("surface_norm", "is_ent", "surface", "n_mentions"))
        ):
            key = (norm, is_ent)
            counts[key] += n
            if key not in example or surface < example[key]:
                example[key] = surface
    keys = list(counts)
    return pa.table(
        {
            "node_id": pa.array([n if e else canonical_id(n) for n, e in keys], pa.string()),
            "surface_norm": pa.array([n for n, _ in keys], pa.string()),
            "surface": pa.array([example[k] for k in keys], pa.string()),
            "n_mentions": pa.array([counts[k] for k in keys], pa.int64()),
        }
    )


def _code_shards(loaded, tracer):
    """pipelines.flagship.resumable_materialize, entity stage off: one
    pipeline per shard, edges of shard k in partition k."""
    from openie_with_entities_ray.stages.extract import FusedExtractor

    edges, sents, triples = [], [], []
    for part, docs in enumerate(loaded["shards"]):
        sents.append(_sentences(docs))
        triples.append(_extract(FusedExtractor(seed=SEED), sents[-1]))
        e = _edges(triples[-1])
        edges.append(e.append_column("part", pa.array([part] * e.num_rows, pa.int64())))
    edges = pa.concat_tables(edges)
    return {
        "tables": [edges],
        "triples": sum(t.num_rows for t in triples),
        "edges": edges.num_rows,
        "sentences": sents,
        "triples_tables": triples,
    }


def cli_sentences(path: str, lines) -> pa.Table:
    """cli._read_sentence_file without Ray: normalized lines, keyed by
    line number, empty and over-long lines dropped."""
    from openie_with_entities_ray.functions.text import (
        normalize_sentence,
        sha256_hex,
        within_length_limit,
    )

    rows = {"repo": [], "path": [], "commit": [], "content_sha256": [],
            "sent_id": [], "sentence": []}
    for i, line in enumerate(lines):
        sent = normalize_sentence(line)
        if not sent or not within_length_limit(sent):
            continue
        rows["repo"].append("cli")
        rows["path"].append(path)
        rows["commit"].append("")
        rows["content_sha256"].append(sha256_hex(line))
        rows["sent_id"].append(i)
        rows["sentence"].append(sent)
    return pa.table(rows)


def _cli_splitpredict(loaded, tracer):
    """cli.main(["--mode", "splitpredict", ...]) with default flags."""
    from openie_with_entities_ray.stages.extract import ConjSplitter, OIEExtractor

    sents = cli_sentences(loaded["path"], loaded["lines"])
    splits = _extract(ConjSplitter(seed=SEED), sents)
    raw = _extract(OIEExtractor(seed=SEED), splits.drop(["conj_words", "split_indices"]))
    triples = tracer.span("replay.group", _group_dedup)(raw)
    blobs = tracer.span("replay.render", render_cli)(splits, triples)
    return {
        "blobs": blobs,
        "triples": blobs[2].count(b"\n"),  # one .allennlp line per written triple
        "sentences": [sents],
        "triples_tables": [triples],
    }


def _group_dedup(raw: pa.Table) -> pa.Table:
    """stages.group.dedup_topk_grouped without the exchange: the per-sentence
    kernel over each original sentence's rows, uncapped as the CLI runs it."""
    import pandas as pd

    from openie_with_entities_ray.stages import group

    df = raw.to_pandas()
    kept = [group._dedup_topk_group(g, None) for _, g in df.groupby("sent_id", sort=False)]
    return pa.Table.from_pandas(pd.concat(kept) if kept else df, preserve_index=False)


def render_cli(splits: pa.Table, triples: pa.Table) -> list:
    """The CLI's ``.conj``, ``.oie`` and ``.allennlp`` file contents."""
    from openie_with_entities_ray.functions.triples import (
        Triple,
        ext_to_allennlp,
        ext_to_string,
        triple_dedup_key,
    )

    rows = sorted(
        zip(*(splits.column(c).to_pylist()
              for c in ("sent_id", "split_id", "orig_sentence", "split_sentence")))
    )
    blocks, by_sid, first_sid = [], {}, {}
    for sid, _split_id, orig, split in rows:
        by_sid.setdefault(sid, (orig, []))[1].append(split)
        first_sid[orig] = min(first_sid.get(orig, sid), sid)
    for sid, (orig, parts) in by_sid.items():
        blocks.append(orig if parts == [orig] else "\n".join([orig] + parts))
    conj = "\n\n".join(blocks) + "\n"

    trows = sorted(
        (first_sid[orig], sid, split_id, depth, orig, a1, rel, a2, conf)
        for sid, split_id, depth, orig, a1, rel, a2, conf in zip(
            *(triples.column(c).to_pylist()
              for c in ("sent_id", "split_id", "depth", "orig_sentence",
                        "arg1", "rel", "arg2", "confidence"))
        )
    )
    seen, per_sentence = set(), {}
    for fsid, _sid, _split, _depth, orig, a1, rel, a2, conf in trows:
        key = (orig, triple_dedup_key(a1, rel, a2))
        if key not in seen:
            seen.add(key)
            per_sentence.setdefault(fsid, []).append(Triple(a1, rel, a2, conf))
    oie_blocks, allennlp = [], []
    for orig, fsid in sorted(first_sid.items(), key=lambda kv: kv[1]):
        block = orig + "\n"
        for t in per_sentence.get(fsid, ()):
            block += ext_to_string(t) + "\n"
            allennlp.append(ext_to_allennlp(orig, t) + "\n")
        oie_blocks.append(block)
    oie = "\n".join(oie_blocks) + "\n"
    return [conj.encode(), oie.encode(), "".join(allennlp).encode()]


def max_part_share(keys) -> float:
    """Largest share of ``keys`` that one partition of the canonicalize
    exchange receives (crc32 of the key modulo the program's part count)."""
    from openie_with_entities_ray.stages.dataops import _cluster_parts

    num_parts = _cluster_parts()
    parts = Counter(zlib.crc32(k.encode("utf-8")) % num_parts for k in keys)
    return max(parts.values()) / sum(parts.values()) if parts else 0.0


def _props(workload: str, loaded, sents: list, surfaces: set, files: int,
           tracer: Tracer) -> dict:
    """The input properties the layers depend on."""
    c = tracer.counters
    if workload == "cli_splitpredict":
        docs = len(loaded["lines"])
    else:
        docs = loaded["docs"].num_rows if workload == "prose_graph" else sum(
            t.num_rows for t in loaded["shards"])
    return {
        "docs": docs,
        "sentences": len(sents),
        "distinct_sentence_share": len(set(sents)) / max(1, len(sents)),
        "mean_words_per_sentence": sum(len(s.split()) for s in sents) / max(1, len(sents)),
        "splits_per_sentence": c["splits"] / max(1, c["split_calls"]),
        "distinct_surfaces": len(surfaces),
        "canonical_max_part_share": max_part_share(surfaces),
        "input_files": files,
    }


def layer_metrics(workload: str, out: dict, tracer: Tracer) -> dict:
    """The per-layer metrics of one traced replay; a layer the workload
    does not reach reads 0."""
    spans, c = tracer.summary(), tracer.counters

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    kept = c["group_rows_out"] if workload == "cli_splitpredict" else out["triples"]
    lookups = c["memo_lookups"]
    misses = get("ner.find_mentions", "calls") + get("ner.link", "calls")
    metrics = {
        "sentences.busy_s": get("sentences", "busy_s"),
        "sentences.per_doc": ratio(c["sentences"], c["docs"]),
        "conjunctions.busy_s": get("conjunctions", "busy_s"),
        "conjunctions.splits_per_sentence": ratio(c["splits"], c["split_calls"]),
        "triples.kept_ratio": ratio(kept, c["decoded"]),
        "extract.self_s": get("extract", "self_s"),
        "entity.self_s": get("entity", "self_s"),
        "entity.memo_hit_ratio": ratio(lookups - misses, lookups),
        "entity.mentions_per_triple": ratio(out["mentions"], out["triples"]),
        "graph.edges": out.get("edges", 0),
        "canonical.partial_rows": c["partial_rows"],
        "canonical.nodes": out.get("nodes", 0),
        "canonical.max_part_share": out.get("partial_max_part_share", 0.0),
        "group.busy_s": get("group", "busy_s"),
        "group.rows_in": c["group_rows_in"],
        "group.rows_out": c["group_rows_out"],
        "serial_s": out["serial_s"],
        "replay.self_s": sum(get(n, "self_s") for n in spans if n.startswith("replay.")),
        "trace.attributed_ratio": ratio(sum(s["self_s"] for s in spans.values()), out["serial_s"]),
    }
    for layer in ("labeler.label_conj", "labeler.label_oie", "triples.decode",
                  "ner.find_mentions", "ner.link"):
        metrics[f"{layer}.calls"] = get(layer, "calls")
        metrics[f"{layer}.busy_s"] = get(layer, "busy_s")
    metrics["graph.triples_to_edges.busy_s"] = get("graph.triples_to_edges", "busy_s")
    metrics["canonical.partial.busy_s"] = get("canonical.partial", "busy_s")
    return metrics
