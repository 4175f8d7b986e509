"""The model stages: conjunction split + OIE extraction.

:class:`FusedExtractor` is the extraction kernel. Because every split of
a sentence is produced inside the same batch iteration, per-original-
sentence dedup + top-k (/root/reference/model.py:595-634,
metric.py:435-438) complete *in-stage* with zero shuffle: the
reference's corpus-wide ``all_predictions`` accumulator (model.py:609,
its scalability wall) disappears entirely. Its per-sentence body,
:meth:`FusedExtractor.extract_splits`, is the one definition of split →
label → decode → dedup → top-k; :class:`SplitExtractor` runs the same
body for the CLI and emits one row per split for its writers.

Two narrower kernels remain. :class:`ConjSplitter` is split-only
(``predict --task conj``, the ``q_conj_splits*`` queries).
:class:`OIEExtractor` labels pre-split rows without dedup; with
``stages/group.py:_dedup_topk_group`` it is the reference-shaped
splitpredict (/root/reference/run.py:161-243, the driver-side
``mapping``/``conj_word_mapping`` dicts replaced by carried columns,
SURVEY.md J1/J2) that tests compare the fused kernel against.

:func:`map_kernel` is the package's one host for a kernel class: it
runs the class as Ray Data tasks, building its state once per worker
process per call in ``__init__`` (the slot where a ``TorchGridLabeler``
would load BERT weights, the reference's run.py:46-51), and the task
pool's worker processes are reused across executions instead of an
actor pool being spawned for each one.
"""

from __future__ import annotations

import uuid
from collections import OrderedDict

import pyarrow as pa

from ..functions.conjunctions import decode_coordinations, split_on_coordinations
from ..functions.triples import (
    decode_sentence_triples,
    dedup_exact,
    dedup_near,
    top_k,
)
from ..state.labeler import DeterministicLabeler, make_labeler

_SENT_KEY_COLS = ("repo", "path", "commit", "content_sha256", "sent_id")

# kernels of the last few map_kernel calls that ran in this process (one
# plan may chain kernel stages, e.g. resize_images after decode_media,
# and a worker runs the tasks of both). It lives
# at module level because a Ray task's function is unpickled afresh for
# every task: only the worker process's imported module outlasts a task,
# and kernel_fn's closure reaches it through _cached_kernel, which
# cloudpickle sends by reference, not by value.
_KERNEL_CACHE_SIZE = 4
_kernels: OrderedDict = OrderedDict()


def _cached_kernel(key, cls, ctor_kwargs: dict):
    """``cls(**ctor_kwargs)``, built at most once per process per ``key``."""
    kernel = _kernels.get(key)
    if kernel is None:
        kernel = _kernels[key] = cls(**ctor_kwargs)
        while len(_kernels) > _KERNEL_CACHE_SIZE:
            _kernels.popitem(last=False)
    else:
        _kernels.move_to_end(key)
    return kernel


def kernel_fn(cls, **ctor_kwargs):
    """A batch function that applies one ``cls(**ctor_kwargs)`` per worker
    process. The key carries a token minted per call, so every pipeline
    gets fresh kernel state (e.g. EntityTagger's memos) and never sees
    another's. The function is named after the class, so Ray's operator
    reads ``MapBatches(<cls>)``."""
    key = (cls, repr(sorted(ctor_kwargs.items())), uuid.uuid4().hex)

    def run(batch: pa.Table) -> pa.Table:
        return _cached_kernel(key, cls, ctor_kwargs)(batch)

    run.__name__ = run.__qualname__ = cls.__name__
    return run


def map_kernel(ds, cls, *, batch_size=None, **ctor_kwargs):
    """``ds.map_batches`` of a kernel class over Arrow batches as Ray Data
    tasks (see :func:`kernel_fn`)."""
    return ds.map_batches(kernel_fn(cls, **ctor_kwargs),
                          batch_format="pyarrow", batch_size=batch_size)


def _split_sentence_rows(labeler, sentence: str, with_indices: bool = False):
    """conj label → decode → split; '' split list means identity
    (run.py:180-187: a sentence with no surviving coordination maps to
    itself). Returns ``(splits, conj_words, indices)``; ``indices`` is
    ``None`` unless ``with_indices`` asks for each split's sorted
    original-word index list (run.py:246-291 uses them to project labels
    back onto original positions; identity split → full range,
    run.py:256-258)."""
    rows = labeler.label_conj(sentence)
    coords = decode_coordinations(rows)
    splits, conj_words, indices = split_on_coordinations(coords, sentence.split())
    if not splits:
        splits = [sentence]
        indices = [list(range(len(sentence.split())))]
    return (splits, conj_words,
            [sorted(ix) for ix in indices] if with_indices else None)


class ConjSplitter:
    """sentences → split_sentences (SPLIT_SENTENCES schema).

    The split-only kernel: ``predict --task conj`` and the
    ``q_conj_splits*`` queries need each split as a row, with no OIE
    labeling, which :class:`FusedExtractor` never emits."""

    def __init__(self, seed: int = 777, labeler_spec: dict | None = None):
        self.labeler = (make_labeler(labeler_spec) if labeler_spec
                        else DeterministicLabeler(seed=seed))

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = {c: batch.column(c).to_pylist() for c in _SENT_KEY_COLS}
        sentences = batch.column("sentence").to_pylist()
        out = {c: [] for c in _SENT_KEY_COLS}
        out_split_id, out_split, out_orig, out_conj, out_idx = [], [], [], [], []
        for row_idx, sentence in enumerate(sentences):
            splits, conj_words, indices = _split_sentence_rows(
                self.labeler, sentence, with_indices=True
            )
            for split_id, split_sentence in enumerate(splits):
                for c in _SENT_KEY_COLS:
                    out[c].append(keys[c][row_idx])
                out_split_id.append(split_id)
                out_split.append(split_sentence)
                out_orig.append(sentence)
                out_conj.append(conj_words)
                out_idx.append(indices[split_id])
        return pa.table(
            {
                "repo": pa.array(out["repo"], pa.string()),
                "path": pa.array(out["path"], pa.string()),
                "commit": pa.array(out["commit"], pa.string()),
                "content_sha256": pa.array(out["content_sha256"], pa.string()),
                "sent_id": pa.array(out["sent_id"], pa.int64()),
                "split_id": pa.array(out_split_id, pa.int64()),
                "split_sentence": pa.array(out_split, pa.string()),
                "orig_sentence": pa.array(out_orig, pa.string()),
                "conj_words": pa.array(out_conj, pa.list_(pa.string())),
                "split_indices": pa.array(out_idx, pa.list_(pa.int64())),
            }
        )


class OIEExtractor:
    """split_sentences → raw triples (before per-sentence dedup/top-k).

    Emits every valid extraction with its (split_id, depth) so a grouped
    dedup stage can reproduce the reference's first-wins order even when
    splits of one sentence land in different blocks (stages/group.py).
    No pipeline runs it: with :class:`ConjSplitter` and
    ``group._dedup_topk_group`` it is the stage-by-stage reference that
    the benchmark's serial replay and ``tests/test_cli.py`` compare the
    fused kernels against."""

    def __init__(self, seed: int = 777, no_lt: bool = False,
                 labeler_spec: dict | None = None):
        self.labeler = (make_labeler(labeler_spec) if labeler_spec
                        else DeterministicLabeler(seed=seed))
        self.no_lt = no_lt

    def __call__(self, batch: pa.Table) -> pa.Table:
        carry_cols = [
            c
            for c in batch.column_names
            if c in _SENT_KEY_COLS + ("orig_sentence", "split_id")
        ]
        carried = {c: batch.column(c).to_pylist() for c in carry_cols}
        splits = batch.column("split_sentence").to_pylist()
        out = {c: [] for c in carry_cols}
        out_depth, out_a1, out_rel, out_a2, out_conf = [], [], [], [], []
        for row_idx, split_sentence in enumerate(splits):
            rows, confs = self.labeler.label_oie(split_sentence)
            for depth, triple in decode_sentence_triples(
                rows, confs, split_sentence, no_lt=self.no_lt
            ):
                for c in carry_cols:
                    out[c].append(carried[c][row_idx])
                out_depth.append(depth)
                out_a1.append(triple.arg1)
                out_rel.append(triple.rel)
                out_a2.append(triple.arg2)
                out_conf.append(triple.confidence)
        # type carried columns from the INPUT schema: an inferred
        # pa.array([]) is null-typed, and one zero-triple batch would
        # corrupt the Dataset schema (round-4 mixed-block hazard)
        cols = {
            c: pa.array(out[c], type=batch.schema.field(c).type)
            for c in carry_cols
        }
        cols["depth"] = pa.array(out_depth, pa.int64())
        cols["arg1"] = pa.array(out_a1, pa.string())
        cols["rel"] = pa.array(out_rel, pa.string())
        cols["arg2"] = pa.array(out_a2, pa.string())
        cols["confidence"] = pa.array(out_conf, pa.float64())
        return pa.table(cols)


class FusedExtractor:
    """sentences → final per-sentence triples, dedup + top-k in-stage.

    The unit of work is one original sentence row, so all cross-split state
    the reference keeps in driver dicts (mapping, conj_word_mapping,
    all_predictions) is local to the loop body — no shuffle, no
    accumulator, O(batch) memory.
    """

    def __init__(
        self,
        seed: int = 777,
        num_extractions: int = 5,
        no_lt: bool = False,
        near_dedup: bool = False,
        labeler_spec: dict | None = None,
    ):
        self.labeler = (make_labeler(labeler_spec) if labeler_spec
                        else DeterministicLabeler(seed=seed))
        self.num_extractions = num_extractions
        self.no_lt = no_lt
        self.near_dedup = near_dedup  # off by default (metric.py:426-430)

    def extract_one(self, sentence: str):
        """All surviving triples of one original sentence, in final order."""
        return self.extract_splits(sentence)[2]

    def extract_splits(self, sentence: str, splits=None,
                       with_indices: bool = False):
        """split → label → decode → dedup → top-k of one original sentence.

        Returns ``(splits, indices, kept)``: the split sentences, their
        original-word index lists (``None`` unless ``with_indices`` and the
        conj labeler split the sentence) and the surviving
        ``(split_id, depth, Triple)`` in final order. A given ``splits``
        list (a pre-split block) skips the conj labeler."""
        if splits is None:
            splits, conj_words, indices = _split_sentence_rows(
                self.labeler, sentence, with_indices
            )
        else:
            conj_words, indices = [], None
        collected = []  # (split_id, depth, Triple) in reference encounter order
        for split_id, split_sentence in enumerate(splits):
            rows, confs = self.labeler.label_oie(split_sentence)
            for depth, triple in decode_sentence_triples(
                rows, confs, split_sentence, no_lt=self.no_lt
            ):
                collected.append((split_id, depth, triple))
        triples = dedup_exact(t for _, _, t in collected)
        if self.near_dedup:
            triples = dedup_near(triples, conj_words)
        kept = top_k(triples, self.num_extractions)
        # recover (split_id, depth) provenance for the survivors
        by_id = {id(t): (s, d) for s, d, t in collected}
        return splits, indices, [(*by_id[id(t)], t) for t in kept]

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = {c: batch.column(c).to_pylist() for c in _SENT_KEY_COLS}
        sentences = batch.column("sentence").to_pylist()
        out = {c: [] for c in _SENT_KEY_COLS}
        out_split, out_depth, out_orig = [], [], []
        out_a1, out_rel, out_a2, out_conf = [], [], [], []
        for row_idx, sentence in enumerate(sentences):
            for split_id, depth, t in self.extract_one(sentence):
                for c in _SENT_KEY_COLS:
                    out[c].append(keys[c][row_idx])
                out_split.append(split_id)
                out_depth.append(depth)
                out_orig.append(sentence)
                out_a1.append(t.arg1)
                out_rel.append(t.rel)
                out_a2.append(t.arg2)
                out_conf.append(t.confidence)
        return pa.table(
            {
                "repo": pa.array(out["repo"], pa.string()),
                "path": pa.array(out["path"], pa.string()),
                "commit": pa.array(out["commit"], pa.string()),
                "content_sha256": pa.array(out["content_sha256"], pa.string()),
                "sent_id": pa.array(out["sent_id"], pa.int64()),
                "split_id": pa.array(out_split, pa.int64()),
                "depth": pa.array(out_depth, pa.int64()),
                "orig_sentence": pa.array(out_orig, pa.string()),
                "arg1": pa.array(out_a1, pa.string()),
                "rel": pa.array(out_rel, pa.string()),
                "arg2": pa.array(out_a2, pa.string()),
                "confidence": pa.array(out_conf, pa.float64()),
            }
        )


TRIPLE_STRUCT = pa.struct(
    [
        ("depth", pa.int64()),
        ("arg1", pa.string()),
        ("rel", pa.string()),
        ("arg2", pa.string()),
        ("confidence", pa.float64()),
    ]
)


class SplitExtractor(FusedExtractor):
    """sentence occurrences → one row per split, carrying the split's
    survivors of the occurrence's dedup + top-k (the CLI's output table).

    A non-null ``splits`` list gives a row's pre-split sentences and skips
    the conj labeler. ``first_sid`` is carried so the ``.oie`` writer can
    merge duplicate sentences in first-seen order."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        key_cols = _SENT_KEY_COLS + ("first_sid",)
        keys = {c: batch.column(c).to_pylist() for c in key_cols}
        sentences = batch.column("sentence").to_pylist()
        given = batch.column("splits").to_pylist()
        out = {c: [] for c in key_cols}
        out_split_id, out_split, out_orig, out_idx, out_triples = (
            [], [], [], [], []
        )
        for row_idx, sentence in enumerate(sentences):
            splits, indices, kept = self.extract_splits(
                sentence, given[row_idx], with_indices=True
            )
            per_split = [[] for _ in splits]
            for split_id, depth, t in sorted(kept, key=lambda x: x[:2]):
                per_split[split_id].append(
                    {"depth": depth, "arg1": t.arg1, "rel": t.rel,
                     "arg2": t.arg2, "confidence": t.confidence}
                )
            for split_id, split_sentence in enumerate(splits):
                for c in key_cols:
                    out[c].append(keys[c][row_idx])
                out_split_id.append(split_id)
                out_split.append(split_sentence)
                out_orig.append(sentence)
                out_idx.append(indices[split_id] if indices else [])
                out_triples.append(per_split[split_id])
        return pa.table(
            {
                "repo": pa.array(out["repo"], pa.string()),
                "path": pa.array(out["path"], pa.string()),
                "commit": pa.array(out["commit"], pa.string()),
                "content_sha256": pa.array(out["content_sha256"], pa.string()),
                "sent_id": pa.array(out["sent_id"], pa.int64()),
                "first_sid": pa.array(out["first_sid"], pa.int64()),
                "split_id": pa.array(out_split_id, pa.int64()),
                "split_sentence": pa.array(out_split, pa.string()),
                "orig_sentence": pa.array(out_orig, pa.string()),
                "split_indices": pa.array(out_idx, pa.list_(pa.int64())),
                "triples": pa.array(out_triples, pa.list_(TRIPLE_STRUCT)),
            }
        )
