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
punctuation space-separated (README.md:53-57).

``splitpredict`` and ``predict --task oie`` are one kernel pass plus
ordered writes, in one Ray execution. The driver reads every line, so it
stamps each sentence row with ``first_sid`` (the line number of the
text's first occurrence). One Ray Data task pass
(``stages/extract.py:SplitExtractor``, the flagship's per-sentence body)
maps each occurrence to one row per split with that split's triples
after the occurrence's dedup + top-k. The sentence Dataset's own context
preserves order, so that table is materialized in input order, i.e.
sorted by ``(sent_id, split_id)``: the ``.conj``/``.labels`` writers
stream it as it is. The ``.oie``/``.allennlp`` writer needs the order
``(first_sid, sent_id, split_id)``; a text's first occurrence comes
before its later ones, so it collects the later occurrences' triples in
one pass and streams the first occurrences in a second, appending each
block's collected rows under a first-wins set. No sort, no join and no
grouped shuffle runs. ``--split_fp`` blocks enter the same kernel as a
``splits`` column (no conj labeler); ``predict --task oie`` uses each
sentence as its only split. Checkpoint flags
(``--oie_model``/``--conj_model``) select the labeler backend: absent →
the deterministic surrogate labeler (seeded by ``--seed``).

The CLI owns its Ray session through :func:`ray_session`, which the
``jobs/*.py`` entry points share with :func:`input_shards`; library code
never initializes Ray.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import os
import sys


@contextlib.contextmanager
def ray_session(num_cpus=None):
    """The Ray session of an entry point (this CLI and ``jobs/*.py``).
    A session that is already up is used as it is. Under ``ray job
    submit`` (``RAY_JOB_ID`` set) it attaches to the cluster; otherwise it
    starts a local instance with ``num_cpus``, whose workers find the
    package on ``PYTHONPATH``. Progress bars are off. On exit it calls
    ``ray.shutdown`` as the ``ray`` module holds it then, so a caller that
    keeps its session across calls can replace it."""
    import ray
    from ray.data import DataContext

    if not ray.is_initialized() and "RAY_JOB_ID" in os.environ:
        ray.init(address="auto", include_dashboard=False,
                 logging_level="ERROR")
    elif not ray.is_initialized():
        # a local instance's workers inherit this environment: they import
        # the package from its root whatever the working directory
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        os.environ["PYTHONPATH"] = os.pathsep.join(
            filter(None, [root, os.environ.get("PYTHONPATH")]))
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        yield
    finally:
        ray.shutdown()


def input_shards(pattern: str) -> list:
    """The sorted files a local/NFS glob matches. An object-store URI
    (listing one needs a pyarrow.fs step) or a glob that matches nothing
    ends the program: a message on stderr and exit status 2."""
    if "://" in pattern:
        problem = ("object-store URIs need a pyarrow.fs listing step; "
                   "pass a local/NFS glob")
    else:
        files = sorted(glob.glob(pattern))
        if files:
            return files
        problem = "no files match"
    print(f"{pattern!r}: {problem}", file=sys.stderr)
    raise SystemExit(2)


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
    p.add_argument("--inp", type=str,
                   help="input file (for graph: a Parquet file, directory "
                        "or glob)")
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


def _sentence_dataset(path: str, entries):
    """The kernel's input rows from ``(sent_id, sha source, sentence,
    splits)`` entries; ``splits`` None lets the kernel's conj labeler split
    the sentence. Each row is stamped with ``first_sid``, the sent_id of
    its text's first occurrence (the reference keys its output by sentence
    text in first-seen order, model.py:609-634).

    The Dataset keeps its blocks in input order: ``from_arrow`` gives it
    a context of its own, which every Dataset derived from it shares, so
    the flag reaches the kernel and its writers and nothing else."""
    import pyarrow as pa
    import ray.data

    from .functions.text import sha256_hex

    sids, sha_srcs, sents, splits = list(zip(*entries)) or ([], [], [], [])
    first_sid: dict = {}
    n = len(sids)
    ds = ray.data.from_arrow(pa.table({
        "repo": pa.array(["cli"] * n, pa.string()),
        "path": pa.array([path] * n, pa.string()),
        "commit": pa.array([""] * n, pa.string()),
        "content_sha256": pa.array([sha256_hex(s) for s in sha_srcs],
                                   pa.string()),
        "sent_id": pa.array(sids, pa.int64()),
        "first_sid": pa.array(
            [first_sid.setdefault(s, i) for i, s in zip(sids, sents)],
            pa.int64(),
        ),
        "sentence": pa.array(sents, pa.string()),
        "splits": pa.array(splits, pa.list_(pa.string())),
    }))
    ds.context.execution_options.preserve_order = True
    return ds


def _read_sentence_file(path: str, identity_splits: bool = False):
    """S1 reader: one sentence per line, normalized (data.py:417-438);
    provenance = (cli, path, line number). ``identity_splits`` makes each
    sentence its own only split (predict without conjunction splitting)."""
    from .functions.text import normalize_sentence, within_length_limit

    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    entries = []
    for i, line in enumerate(lines):
        sent = normalize_sentence(line)
        if sent and within_length_limit(sent):
            entries.append(
                (i, line, sent, [sent] if identity_splits else None)
            )
    return _sentence_dataset(path, entries)


def _presplit_dataset(split_fp: str):
    """run.py:206-227: blank-line blocks of (original, splits...) replace
    the conj model's output; one row per block with its splits."""
    from .sources.readers import parse_conj_blocks

    with open(split_fp, "r", encoding="utf-8") as f:
        blocks = parse_conj_blocks(f.read())
    return _sentence_dataset(
        split_fp,
        [(i, orig, orig, splits) for i, (orig, splits) in enumerate(blocks)],
    )


def _extract_rows(sentences_ds, args, labeler_spec):
    """The one kernel pass, materialized: each sentence occurrence → one
    row per split with its surviving triples
    (stages/extract.py:SplitExtractor), in input order."""
    from .stages.extract import SplitExtractor, map_kernel

    return map_kernel(
        sentences_ds, SplitExtractor, batch_size=args.batch_size,
        seed=args.seed, num_extractions=args.num_extractions,
        no_lt=args.no_lt, labeler_spec=labeler_spec,
    ).materialize()


def _stream_rows(ds, columns, where=None):
    """The ``columns`` of ``ds``'s rows in its block order, one block at a
    time (a materialized Dataset starts no execution). ``where`` maps an
    Arrow block to the mask of the rows to keep. Columns are picked per
    block here: ``Dataset.select_columns`` would be an execution of its
    own."""
    for batch in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
        if where is not None:
            batch = batch.filter(where(batch))
        yield from batch.select(columns).to_pylist()


def _write_conj(splits_ds, out: str) -> None:
    """K4: orig + splits per block, blank-line separated (model.py:678-690),
    rendered as a stream over the splits in input order, i.e. by
    ``(sent_id, split_id)``, with a one-block carry: the driver holds one
    Arrow block at a time."""
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
            splits_ds, ["sent_id", "orig_sentence", "split_sentence"]
        ):
            if r["sent_id"] != cur_sid:
                flush()
                cur_sid = r["sent_id"]
                cur_orig = r["orig_sentence"]
                cur_splits = []
            cur_splits.append(r["split_sentence"])
        flush()
        f.write("\n")


def _write_oie_allennlp(rows_ds, out: str, style: str) -> None:
    """K1 + K2 with the reference's exact file shape (model.py:609-654,
    697-702): predictions keyed corpus-wide by original-sentence TEXT in
    first-seen order (duplicate sentences merge; triples exact-deduped
    across occurrences), every sentence gets a block even with zero
    extractions, and blocks are blank-line separated (each block ends
    with a newline, blocks joined with '\\n').

    ``rows_ds`` is the kernel's per-split table, materialized in input
    order: each occurrence's triples are already deduped and cut to
    top-k, and ``first_sid`` names the block each row belongs to. The
    rows are written in ``(first_sid, sent_id, split_id)`` order from two
    passes over the blocks, with no sort: a text's first occurrence comes
    before its later ones, so the first pass collects the triples of the
    later-occurrence rows by ``first_sid``, and the second streams the
    first-occurrence rows and ends each sentence's block with its
    collected rows. The driver holds those later-occurrence triples and
    one Arrow block; the cross-occurrence first-wins dedup is one set per
    block."""
    import pyarrow.compute as pc

    from .functions.triples import (
        Triple,
        ext_to_allennlp,
        ext_to_sentence,
        ext_to_string,
    )

    later: dict = {}
    for r in _stream_rows(
        rows_ds, ["first_sid", "triples"],
        lambda b: pc.not_equal(b["first_sid"], b["sent_id"]),
    ):
        later.setdefault(r["first_sid"], []).append(r["triples"])

    render = ext_to_sentence if style == "sentences" else ext_to_string
    with open(f"{out}.oie", "w", encoding="utf-8") as foie, open(
        f"{out}.allennlp", "w", encoding="utf-8"
    ) as fall:
        cur_sid = None
        sentence = ""
        seen: set = set()

        def emit(triples):
            for x in triples:
                t = Triple(x["arg1"], x["rel"], x["arg2"], x["confidence"])
                if t.dedup_key in seen:
                    continue
                seen.add(t.dedup_key)
                foie.write(render(t) + "\n")
                fall.write(ext_to_allennlp(sentence, t) + "\n")

        def end_block():
            for triples in later.pop(cur_sid, ()):
                emit(triples)

        for r in _stream_rows(
            rows_ds, ["sent_id", "orig_sentence", "triples"],
            lambda b: pc.equal(b["first_sid"], b["sent_id"]),
        ):
            if r["sent_id"] != cur_sid:
                if cur_sid is not None:
                    end_block()
                    foie.write("\n")
                cur_sid = r["sent_id"]
                sentence = r["orig_sentence"]
                foie.write(sentence + "\n")
                seen.clear()
            emit(r["triples"])
        end_block()
        foie.write("\n")


class _LabelProjector:
    """Kernel: label each split sentence and project the label rows onto
    original word positions (O11) on WORKERS; the driver only renders."""

    def __init__(self, seed: int, labeler_spec=None):
        from .state.labeler import make_labeler

        self.labeler = make_labeler(labeler_spec, seed)

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
    ``splits_ds`` is the kernel's per-split table (``split_sentence``,
    ``split_indices``) in input order; projection runs in Ray Data tasks
    that keep that order, and the driver streams their rows as they come,
    one Arrow block at a time."""
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
        for r in _stream_rows(proj, ["sent_id", "orig_sentence", "lines"]):
            if r["sent_id"] != cur_sid:
                cur_sid = r["sent_id"]
                emit("\n" + r["orig_sentence"])
            for line in r["lines"]:
                emit(line)
        emit("\n")


def run_splitpredict(args) -> None:
    spec = _labeler_spec(args)
    if args.split_fp:
        sentences = _presplit_dataset(args.split_fp)
    else:
        sentences = _read_sentence_file(args.inp)
    # materialized once, in input order: read by the .conj, .oie/.allennlp
    # and .labels writers (a lazy Dataset would re-run the labelers per
    # writer); pinned blocks spill to the object store
    rows = _extract_rows(sentences, args, spec)
    _write_conj(rows, args.out)
    _write_oie_allennlp(rows, args.out, args.type)
    if "labels" in (args.type or ""):
        _write_labels(rows, args.out, args.seed, args.no_lt,
                      labeler_spec=spec)
    print(
        f"Triples written to {args.out}.oie, Conjunctions written to "
        f"{args.out}.conj"
    )


def run_predict(args) -> None:
    spec = _labeler_spec(args)
    if args.task == "conj":
        from .stages.extract import ConjSplitter, map_kernel

        splits = map_kernel(_read_sentence_file(args.inp), ConjSplitter,
                            batch_size=args.batch_size, seed=args.seed,
                            labeler_spec=spec)
        _write_conj(splits, args.out)
        print(f"Conjunctions written to {args.out}.conj")
        return
    # task oie: no conjunction splitting — each sentence is its own split
    sentences = _read_sentence_file(args.inp, identity_splits=True)
    _write_oie_allennlp(_extract_rows(sentences, args, spec), args.out,
                        args.type)
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


def _check_source_docs(paths: list) -> None:
    """End the program before any execution when a listed Parquet file
    (or one under a listed directory) lacks a ``schemas.SOURCE_DOCS``
    column: ``stages/sentences.py:_explode_batch`` reads ``lang`` and
    ``content`` and carries ``repo``, ``path`` and ``commit``. Each such
    file is named on stderr with its missing columns; exit status 2."""
    import pyarrow.dataset
    import pyarrow.parquet as pq

    from .schemas import SOURCE_DOCS

    problems = []
    for path in paths:
        files = (pyarrow.dataset.dataset(path, format="parquet").files
                 if os.path.isdir(path) else [path])
        for f in files:
            have = set(pq.read_schema(f).names)
            missing = [c for c in SOURCE_DOCS.names if c not in have]
            if missing:
                problems.append(f"{f!r}: no source_docs column(s) "
                                f"{', '.join(missing)}")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        raise SystemExit(2)


def run_graph(args) -> None:
    import ray.data

    from .pipelines.flagship import materialize_graph

    paths = input_shards(args.inp)
    _check_source_docs(paths)
    docs = ray.data.read_parquet(paths)
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
    with ray_session(args.num_cpus) if needs_ray else contextlib.nullcontext():
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
