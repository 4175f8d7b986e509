"""CLI — the reference ``run.py`` surface re-expressed over Ray Data.

A user of the reference runs (README.md:59-63):

    python run.py --mode splitpredict --inp sentences.txt --out out \
        --task oie --num_extractions 5 ...

Here the same pipelines run as:

    python -m openie_with_entities_ray --mode splitpredict \
        --inp sentences.txt --out /tmp/out --num_extractions 5

Modes (the reference's mode-composition micro-DSL, run.py:401-402, as a
stage registry):

- ``predict``       task=oie: OIE extraction without conjunction
                    splitting; task=conj: only the splitter (writes .conj)
- ``splitpredict``  conj split then OIE (the flagship; writes .oie,
                    .allennlp, .conj and, with ``--type labels``,
                    .labels)
- ``eval``          CaRB benchmark: ``--gold`` TSV vs ``--inp`` allennlp
                    file → AUC + optimal F1 (carb/carb.py:436-524)
- ``graph``         Parquet source_docs table → nodes/edges Parquet
- ``train``/``resume``  not supported: this engine performs inference/KG
                    construction; training stays in the reference stack
                    (SURVEY.md §3.2)

Input files speak the reference's format: one sentence per line,
punctuation space-separated (README.md:53-57). Checkpoint flags
(``--oie_model``/``--conj_model``) select the labeler backend: absent →
the deterministic surrogate labeler (seeded by ``--seed``).

The CLI owns its Ray session (guarded init + shutdown); library code
never initializes Ray.
"""

from __future__ import annotations

import argparse
import sys


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="openie_with_entities_ray",
        description="Ray-Data-native OpenIE / KG-construction engine",
    )
    p.add_argument("--mode", required=True,
                   choices=["predict", "splitpredict", "eval", "graph",
                            "convert"])
    p.add_argument("--format", type=str, default="allennlp",
                   help="input format for --mode convert (allennlp, oie, "
                        "tabbed, clausie, ollie, stanford, props, openie4, "
                        "openie5, benchmark_gold)")
    p.add_argument("--threshold", type=float, default=None,
                   help="drop extractions below this confidence "
                        "(--mode convert; utils/readable.py analogue)")
    p.add_argument("--inp", type=str, help="input file (or parquet for graph)")
    p.add_argument("--out", type=str, help="output path prefix / directory")
    p.add_argument("--task", type=str, default="oie", choices=["oie", "conj"])
    p.add_argument("--gold", type=str, help="gold TSV for --mode eval")
    p.add_argument("--matcher", type=str, default="carb",
                   choices=["carb", "wire57", "simple", "exact", "pred",
                            "lexical", "bow", "strict", "binary", "bleu"],
                   help="eval protocol: CaRB PR sweep (with any matcher "
                        "from the reference registry, carb/carb.py:480-505) "
                        "or Wire57 greedy-F1")
    p.add_argument("--split_fp", type=str, default="",
                   help="pre-split conj file: skip the conj model and use "
                        "these splits (run.py:206-227 path)")
    p.add_argument("--num_extractions", type=int, default=None,
                   help="cap triples per sentence; the reference's writer "
                        "emits ALL deduped extractions (the cap applies "
                        "only in its eval, metric.py:435-438), so the "
                        "default here is uncapped")
    p.add_argument("--no_lt", action="store_true")
    p.add_argument("--type", type=str, default="",
                   help="'labels' adds a .labels output; 'sentences' "
                        "renders 'arg1 rel arg2' lines in the .oie file")
    p.add_argument("--seed", type=int, default=777)
    p.add_argument("--batch_size", type=int, default=512)
    p.add_argument("--num_cpus", type=int, default=None)
    p.add_argument("--ent_extractor", type=str, default="dictionary",
                   choices=["dictionary", "capitalized"],
                   help="mention-detector backend (the reference's "
                        "flair|spacy switch; both deterministic here)")
    p.add_argument("--oie_model", type=str, default="")
    p.add_argument("--conj_model", type=str, default="")
    p.add_argument("--vocab", type=str, default="",
                   help="wordpiece vocab.txt for the grid labeler "
                        "(absent -> the demo vocab)")
    return p


def _labeler_spec(args):
    """--oie_model/--conj_model select the labeler backend
    (run.py:229-236 loads a conj and an oie checkpoint): ``.npz`` →
    the torch-free numpy GridLabeler (state/labeler.py:GridLabeler);
    ``.ckpt`` needs torch — convert once with
    state/labeler.py:ckpt_to_npz and pass the .npz. Absent → the
    deterministic surrogate (seeded by --seed)."""
    oie = getattr(args, "oie_model", "") or ""
    conj = getattr(args, "conj_model", "") or ""
    if not oie and not conj:
        return None
    for path in (oie, conj):
        if path.endswith(".ckpt"):
            raise SystemExit(
                f"{path}: .ckpt needs torch to deserialize; convert "
                "once with openie_with_entities_ray.state.labeler."
                "ckpt_to_npz and pass the .npz here"
            )
    spec = {"kind": "grid"}
    if oie:
        spec["oie_weights"] = oie
    if conj:
        spec["conj_weights"] = conj
    if getattr(args, "vocab", ""):
        spec["vocab_path"] = args.vocab
    return spec


def _read_sentence_file(path: str):
    """S1 reader: one sentence per line, normalized (data.py:417-438);
    provenance = (cli, path, line number)."""
    import pyarrow as pa
    import ray.data

    from .functions.text import normalize_sentence, sha256_hex, within_length_limit

    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
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
    return ray.data.from_arrow(pa.table(rows))


def _conj_stage(sentences_ds, seed: int, batch_size: int,
                labeler_spec=None):
    from .stages.extract import ConjSplitter, map_kernel

    return map_kernel(sentences_ds, ConjSplitter, batch_size=batch_size,
                      seed=seed, labeler_spec=labeler_spec)


def _stream_rows(ds, keys, columns=None):
    """Rows of ``ds`` in ``keys`` order with O(batch) driver memory: the
    distributed sort orders the block sequence and ``iter_batches``
    follows it — the streaming replacement for ``take_all()`` + a driver
    sort (the render files are inherently sequential sinks, but the
    driver never holds more than one batch)."""
    if columns is not None:
        ds = ds.select_columns(columns)
    for batch in ds.sort(keys).iter_batches(
        batch_size=4096, batch_format="pyarrow"
    ):
        yield from batch.to_pylist()


def _write_conj(splits_ds, out: str) -> None:
    """K4: orig + splits per block, blank-line separated (model.py:678-690),
    rendered as a stream over the sorted splits with a one-block carry."""
    with open(f"{out}.conj", "w", encoding="utf-8") as f:
        cur_sid = None
        cur_orig = ""
        cur_splits: list = []
        first = True

        def flush():
            nonlocal first
            if cur_sid is None:
                return
            block = (
                cur_orig
                if cur_splits == [cur_orig]
                else "\n".join([cur_orig] + cur_splits)
            )
            f.write(("" if first else "\n\n") + block)
            first = False

        for r in _stream_rows(
            splits_ds,
            ["sent_id", "split_id"],
            ["sent_id", "split_id", "orig_sentence", "split_sentence"],
        ):
            if r["sent_id"] != cur_sid:
                flush()
                cur_sid = r["sent_id"]
                cur_orig = r["orig_sentence"]
                cur_splits = []
            cur_splits.append(r["split_sentence"])
        flush()
        f.write("\n")


def _first_seen_sentences(splits_ds):
    """Distinct original sentences with their first-seen sent_id (the
    reference's corpus-wide first-seen-order output keying,
    model.py:609-634): coarse crc32 partition + a vectorized pandas
    min per text — one Ray group per PART, not per distinct sentence."""
    import zlib

    import pandas as pd
    import pyarrow as pa

    from .stages.dataops import _cluster_parts

    num_parts = _cluster_parts()

    def add_part(batch: pa.Table) -> pa.Table:
        texts = batch.column("orig_sentence").to_pylist()
        return pa.table(
            {
                "orig_sentence": batch.column("orig_sentence"),
                "sent_id": batch.column("sent_id"),
                "part": pa.array(
                    [
                        zlib.crc32(t.encode("utf-8")) % num_parts
                        for t in texts
                    ],
                    pa.int64(),
                ),
            }
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        # bytes group key: pandas' str hashtable truncates at embedded
        # NULs, merging distinct sentences from adversarial content
        g = g.assign(
            _k=[s.encode("utf-8") for s in g["orig_sentence"]]
        )
        out = g.groupby("_k", as_index=False).agg(
            orig_sentence=("orig_sentence", "first"),
            first_sid=("sent_id", "min"),
        )
        return out.drop(columns=["_k"])

    return (
        splits_ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(merge, batch_format="pandas")
    )


def _write_oie_allennlp(triples_ds, splits_ds, out: str, style: str) -> None:
    """K1 + K2 with the reference's exact file shape (model.py:609-654,
    697-702): predictions keyed corpus-wide by original-sentence TEXT in
    first-seen order (duplicate sentences merge; triples exact-deduped
    across occurrences), every sentence gets a block even with zero
    extractions, and blocks are blank-line separated (each block ends
    with a newline, blocks joined with '\\n').

    Distributed render: the first-seen key table is computed by coarse-
    partitioned groupby, triples join it by sentence text, the
    cross-occurrence first-wins dedup runs vectorized per part, and the
    driver merges the two SORTED row streams with O(batch) memory —
    byte-identical to the whole-file writer, no corpus-sized
    ``take_all``."""
    import zlib

    import pandas as pd
    import pyarrow as pa

    from .functions.triples import (
        Triple,
        ext_to_allennlp,
        ext_to_sentence,
        ext_to_string,
    )
    from .stages.dataops import _cluster_parts, cluster_cpus

    # materialized: consumed by the triples join AND the header stream —
    # lazy would run the coarse-partition shuffle twice
    headers = _first_seen_sentences(splits_ds).materialize()
    hdr_renamed = headers.map_batches(
        lambda b: pa.table(
            {
                "__hdr_sentence": b.column("orig_sentence"),
                "first_sid": b.column("first_sid"),
            }
        ),
        batch_format="pyarrow",
    )
    joined = triples_ds.join(
        hdr_renamed,
        join_type="inner",
        num_partitions=max(2, cluster_cpus() // 4),
        on=("orig_sentence",),
        right_on=("__hdr_sentence",),
    )

    num_parts = _cluster_parts()

    from .stages.dataops import composite_key_bytes

    def add_key(batch: pa.Table) -> pa.Table:
        from .functions.triples import triple_dedup_key

        a1 = batch.column("arg1").to_pylist()
        rel = batch.column("rel").to_pylist()
        a2 = batch.column("arg2").to_pylist()
        sents = batch.column("orig_sentence").to_pylist()
        keys = [
            triple_dedup_key(x, y, z) for x, y, z in zip(a1, rel, a2)
        ]
        parts = [
            zlib.crc32(k) % num_parts
            for k in composite_key_bytes(sents, keys)
        ]
        batch = batch.append_column("dedup_key", pa.array(keys, pa.string()))
        return batch.append_column("__part", pa.array(parts, pa.int64()))

    def first_wins(g: pd.DataFrame) -> pd.DataFrame:
        # injective NUL-safe composite bytes key (dataops docstring)
        g = g.assign(
            _k=composite_key_bytes(g["orig_sentence"], g["dedup_key"])
        )
        out = (
            g.sort_values(
                ["sent_id", "split_id", "depth"], kind="mergesort"
            )
            .groupby("_k", sort=False)
            .head(1)
        )
        return out.drop(columns=["_k", "__part"])

    prepped = (
        joined.map_batches(add_key, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(first_wins, batch_format="pandas")
    )

    hdr_iter = _stream_rows(
        headers, ["first_sid"], ["first_sid", "orig_sentence"]
    )
    tri_iter = _stream_rows(
        prepped,
        ["first_sid", "sent_id", "split_id", "depth"],
        [
            "first_sid", "sent_id", "split_id", "depth", "arg1", "rel",
            "arg2", "confidence",
        ],
    )
    with open(f"{out}.oie", "w", encoding="utf-8") as foie, open(
        f"{out}.allennlp", "w", encoding="utf-8"
    ) as fall:
        tri = next(tri_iter, None)
        first_block = True
        for hdr in hdr_iter:
            sid = hdr["first_sid"]
            sentence = hdr["orig_sentence"]
            block = sentence + "\n"
            while tri is not None and tri["first_sid"] == sid:
                t = Triple(tri["arg1"], tri["rel"], tri["arg2"],
                           tri["confidence"])
                block += (
                    ext_to_sentence(t)
                    if style == "sentences"
                    else ext_to_string(t)
                ) + "\n"
                fall.write(ext_to_allennlp(sentence, t) + "\n")
                tri = next(tri_iter, None)
            foie.write(("" if first_block else "\n") + block)
            first_block = False
        foie.write("\n")


class _LabelProjector:
    """Kernel: label each split sentence and project the label rows onto
    original word positions (O11) on WORKERS; the driver only renders."""

    def __init__(self, seed: int, labeler_spec=None):
        from .state.labeler import DeterministicLabeler, make_labeler

        self.labeler = (make_labeler(labeler_spec) if labeler_spec
                        else DeterministicLabeler(seed=seed))

    def __call__(self, batch):
        import pyarrow as pa

        from .functions.triples import project_labels_to_original

        sids = batch.column("sent_id").to_pylist()
        split_ids = batch.column("split_id").to_pylist()
        origs = batch.column("orig_sentence").to_pylist()
        splits = batch.column("split_sentence").to_pylist()
        idxs = batch.column("split_indices").to_pylist()
        lines_col = []
        for orig, split, idx in zip(origs, splits, idxs):
            rows_lbl, _ = self.labeler.label_oie(split)
            lines_col.append(
                project_labels_to_original(
                    rows_lbl, list(idx), len(orig.split())
                )
            )
        return pa.table(
            {
                "sent_id": pa.array(sids, pa.int64()),
                "split_id": pa.array(split_ids, pa.int64()),
                "orig_sentence": pa.array(origs, pa.string()),
                "lines": pa.array(lines_col, pa.list_(pa.string())),
            }
        )


def _write_labels(splits_ds, out: str, seed: int, no_lt: bool,
                  labeler_spec=None) -> None:
    """K3/O11: label rows projected onto original word positions
    (run.py:246-291 file shape, incl. the leading blank line per block).
    Projection runs in Ray Data tasks; the driver streams the sorted rows."""
    from .stages.extract import map_kernel

    proj = map_kernel(splits_ds, _LabelProjector, seed=seed,
                      labeler_spec=labeler_spec)
    with open(f"{out}.labels", "w", encoding="utf-8") as f:
        first = True

        def emit(x: str) -> None:
            nonlocal first
            f.write(("" if first else "\n") + x)
            first = False

        cur_sid = None
        for r in _stream_rows(proj, ["sent_id", "split_id"]):
            if r["sent_id"] != cur_sid:
                cur_sid = r["sent_id"]
                emit("\n" + r["orig_sentence"])
            for line in r["lines"]:
                emit(line)
        emit("\n")


def _presplit_dataset(split_fp: str):
    """run.py:206-227: blank-line blocks of (original, splits...) replace
    the conj model's output; provenance keys synthesized per block."""
    import pyarrow as pa
    import ray.data

    from .functions.text import sha256_hex
    from .sources.readers import parse_conj_blocks

    with open(split_fp, "r", encoding="utf-8") as f:
        blocks = parse_conj_blocks(f.read())
    rows = {
        "repo": [], "path": [], "commit": [], "content_sha256": [],
        "sent_id": [], "split_id": [], "split_sentence": [],
        "orig_sentence": [], "conj_words": [], "split_indices": [],
    }
    for sent_id, (orig, splits) in enumerate(blocks):
        for split_id, split_sentence in enumerate(splits):
            rows["repo"].append("cli")
            rows["path"].append(split_fp)
            rows["commit"].append("")
            rows["content_sha256"].append(sha256_hex(orig))
            rows["sent_id"].append(sent_id)
            rows["split_id"].append(split_id)
            rows["split_sentence"].append(split_sentence)
            rows["orig_sentence"].append(orig)
            rows["conj_words"].append([])
            rows["split_indices"].append([])
    return ray.data.from_arrow(
        pa.table(
            {
                **{k: pa.array(rows[k]) for k in
                   ("repo", "path", "commit", "content_sha256", "sent_id",
                    "split_id", "split_sentence", "orig_sentence")},
                "conj_words": pa.array(rows["conj_words"], pa.list_(pa.string())),
                "split_indices": pa.array(
                    rows["split_indices"], pa.list_(pa.int64())
                ),
            }
        )
    )


def run_splitpredict(args) -> None:
    from .stages.extract import OIEExtractor, map_kernel
    from .stages.group import dedup_topk_grouped

    spec = _labeler_spec(args)
    if args.split_fp:
        splits = _presplit_dataset(args.split_fp).materialize()
    else:
        sentences = _read_sentence_file(args.inp)
        # materialized once: consumed by the .conj writer, the first-seen
        # key table, the OIE stage and the labels writer (a lazy Dataset
        # would re-run the labeler per consumer); pinned blocks spill to
        # the object store, nothing corpus-sized lands on the driver
        splits = _conj_stage(sentences, args.seed, args.batch_size,
                             labeler_spec=spec).materialize()
    _write_conj(splits, args.out)

    raw = map_kernel(
        splits.drop_columns(["conj_words", "split_indices"]), OIEExtractor,
        batch_size=args.batch_size, seed=args.seed, no_lt=args.no_lt,
        labeler_spec=spec,
    )
    triples = dedup_topk_grouped(raw, args.num_extractions)
    _write_oie_allennlp(triples, splits, args.out, args.type)
    if "labels" in (args.type or ""):
        _write_labels(splits, args.out, args.seed, args.no_lt,
                      labeler_spec=spec)
    print(
        f"Triples written to {args.out}.oie, Conjunctions written to "
        f"{args.out}.conj"
    )


def run_predict(args) -> None:
    spec = _labeler_spec(args)
    if args.task == "conj":
        sentences = _read_sentence_file(args.inp)
        _write_conj(
            _conj_stage(sentences, args.seed, args.batch_size,
                        labeler_spec=spec), args.out
        )
        print(f"Conjunctions written to {args.out}.conj")
        return
    # task oie: no conjunction splitting — each sentence is its own split
    import pyarrow as pa

    from .stages.extract import OIEExtractor, map_kernel
    from .stages.group import dedup_topk_grouped

    sentences = _read_sentence_file(args.inp)

    def as_splits(batch: pa.Table) -> pa.Table:
        cols = {c: batch.column(c) for c in batch.column_names}
        n = batch.num_rows
        cols["split_id"] = pa.array([0] * n, pa.int64())
        cols["split_sentence"] = batch.column("sentence")
        cols["orig_sentence"] = batch.column("sentence")
        return pa.table(cols)

    splits = sentences.map_batches(
        as_splits, batch_format="pyarrow"
    ).materialize()  # consumed by both the OIE stage and the key table
    raw = map_kernel(splits, OIEExtractor, batch_size=args.batch_size,
                     seed=args.seed, no_lt=args.no_lt, labeler_spec=spec)
    triples = dedup_topk_grouped(raw, args.num_extractions)
    _write_oie_allennlp(triples, splits, args.out, args.type)
    print(f"Triples written to {args.out}.oie")


def run_eval(args) -> None:
    """CaRB standalone eval (carb/carb.py:507-524 output shape)."""
    import collections

    from .eval.benchmark import compare
    from .sources.readers import parse_allennlp_line, parse_gold_tsv_line

    gold: dict = collections.defaultdict(list)
    with open(args.gold, "r", encoding="utf-8") as f:
        for line in f:
            rec = parse_gold_tsv_line(line)
            if rec:
                gold[rec[0]].append((rec[1], rec[2], 1.0))
    pred: dict = collections.defaultdict(list)
    with open(args.inp, "r", encoding="utf-8") as f:
        for line in f:
            rec = parse_allennlp_line(line)
            if rec:
                pred[rec[0]].append((rec[2], [rec[1], rec[3]], rec[4]))
    if args.matcher == "wire57":
        from .eval.benchmark import normalize_key
        from .eval.wire57 import wire57_scores

        # sentence keys normalized exactly like the carb path (spacing /
        # PTB-escape differences must not zero the scores); args beyond
        # arg2 join into the object (binarization), empty arg lists
        # (every arg carried 'C: ') become empty strings
        def to57(exs):
            return [
                (a[0] if a else "", r, " ".join(a[1:]))
                for r, a, _ in exs
            ]

        g57: dict = {}
        for s, exs in gold.items():
            g57.setdefault(normalize_key(s), []).extend(to57(exs))
        p57: dict = {}
        for s, exs in pred.items():
            p57.setdefault(normalize_key(s), []).extend(to57(exs))
        s = wire57_scores(g57, p57)
        print(
            f"Wire57 precision: {s['precision']:.4f}  recall: "
            f"{s['recall']:.4f}  f1: {s['f1']:.4f}"
        )
        return
    from .eval.matcher import MATCHERS

    auc, optimal, curve = compare(
        dict(gold), dict(pred), matching_func=MATCHERS[args.matcher]
    )
    print(f"AUC: {auc}\tOptimal (precision, recall, F1): {optimal[:3]}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write("Precision\tRecall\tConfidence\n")
            for p, r, c in sorted(curve, key=lambda x: x[1]):
                f.write(f"{p}\t{r}\t{c}\n")


def run_convert(args) -> None:
    """utils/readable.py analogue: any extraction format → the reference's
    human-readable blocks (sentence, then 'conf: (arg1; rel; arg2...)'
    lines, blank-line separated), with an optional confidence threshold."""
    import collections

    from .sources.readers import (
        BLOCK_PARSERS,
        LINE_PARSERS,
        parse_allennlp_line,
        parse_tabbed_line,
    )

    def iter_records():
        if args.format == "allennlp":
            with open(args.inp, encoding="utf-8") as f:
                for line in f:
                    rec = parse_allennlp_line(line)
                    if rec:
                        yield (rec[0], rec[2], [rec[1], rec[3]], rec[4])
        elif args.format == "tabbed":
            with open(args.inp, encoding="utf-8") as f:
                for line in f:
                    rec = parse_tabbed_line(line)
                    if rec:
                        yield (rec[0], rec[2], rec[3], rec[1])
        elif args.format in LINE_PARSERS:
            with open(args.inp, encoding="utf-8") as f:
                for line in f:
                    rec = LINE_PARSERS[args.format](line)
                    if rec:
                        yield rec
        elif args.format in BLOCK_PARSERS:
            with open(args.inp, encoding="utf-8") as f:
                yield from BLOCK_PARSERS[args.format](f.read())
        else:
            raise SystemExit(f"unknown --format {args.format}")

    by_sent = collections.defaultdict(list)
    for sent, rel, arg_list, conf in iter_records():
        if args.threshold is not None and conf < args.threshold:
            continue
        by_sent[sent].append((conf, rel, arg_list))
    blocks = []
    for sent, exs in by_sent.items():
        lines = [sent]
        for conf, rel, arg_list in exs:
            body = "; ".join([arg_list[0] if arg_list else "", rel]
                             + list(arg_list[1:]))
            lines.append(f"{conf:.02f}: ({body})")
        blocks.append("\n".join(lines))
    out = f"{args.out}.readable" if args.out else None
    text = "\n\n".join(blocks) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"Readable output written to {out}")
    else:
        print(text, end="")


def run_graph(args) -> None:
    import ray.data

    from .pipelines.flagship import materialize_graph

    docs = ray.data.read_parquet(args.inp)
    materialize_graph(docs, args.out, seed=args.seed,
                      ent_backend=args.ent_extractor)
    print(f"Graph written to {args.out}/nodes and {args.out}/edges")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.inp and not (args.mode == "splitpredict" and args.split_fp):
        parser.error(f"--mode {args.mode} requires --inp")
    if not args.out and args.mode not in ("eval", "convert"):
        parser.error(f"--mode {args.mode} requires --out")
    if args.mode == "eval" and not args.gold:
        parser.error("--mode eval requires --gold")
    needs_ray = args.mode in ("predict", "splitpredict", "graph")
    if needs_ray:
        import ray

        if not ray.is_initialized():
            ray.init(
                address="local",
                num_cpus=args.num_cpus,
                include_dashboard=False,
                ignore_reinit_error=True,
                logging_level="ERROR",
            )
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
    try:
        if args.mode == "splitpredict":
            run_splitpredict(args)
        elif args.mode == "predict":
            run_predict(args)
        elif args.mode == "eval":
            run_eval(args)
        elif args.mode == "convert":
            run_convert(args)
        elif args.mode == "graph":
            run_graph(args)
    finally:
        if needs_ray:
            import ray

            ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
