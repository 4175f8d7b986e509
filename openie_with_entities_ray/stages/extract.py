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
process per call in ``__init__`` (where a ``GridLabeler`` loads its
``.npz`` weights, the reference's run.py:46-51), and the task
pool's worker processes are reused across executions instead of an
actor pool being spawned for each one. :func:`unreserved` runs a kernel
execution that feeds an exchange without Ray Data's per-operator CPU
reservation when nothing in its plan can run ahead of the kernel, so the
kernel's tasks can use every CPU.
"""

from __future__ import annotations

import contextlib
import uuid
from collections import OrderedDict

import pyarrow as pa

from .. import schemas
from ..functions.conjunctions import decode_coordinations, split_on_coordinations
from ..functions.triples import decode_sentence_triples, dedup_exact, top_k
from ..state.labeler import make_labeler

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


@contextlib.contextmanager
def unreserved(ds, kernel):
    """Run the executions of ``ds`` started inside without Ray Data's
    per-operator resource reservation when no operator of its plan can
    produce blocks ahead of ``kernel`` (a class run by
    :func:`map_kernel`); otherwise the reservation stays on. The
    previous setting comes back on exit, also when the body raises.

    Ray Data 2.49 reserves at least one task's worth of CPU for every
    operator of a plan, also for one behind a sort barrier that cannot
    start yet: a read → kernel → exchange plan on 4 CPUs keeps 3.5 CPUs
    reserved and leaves the kernel one task at a time. The reservation
    is also what bounds a standalone read operator: without it, nothing
    holds the read back and it lands the input in the object store
    ahead of the kernel. So the flag is cleared only when ``ds``'s
    physical plan feeds the kernel's operator straight from its input
    buffer: its read fused into the kernel's tasks (``batch_size=None``
    and at least twice as many input files as CPUs — Ray splits the
    blocks of fewer files and does not fuse a split read), or no read
    at all (``from_items`` units that read their own rows).
    Every Dataset derived from ``ds`` shares its context, so the flag is
    restored on that one object, never set on ``DataContext.get_current()``.
    """
    ctx = ds.context
    before = ctx.op_resource_reservation_enabled
    ctx.op_resource_reservation_enabled = before and not _kernel_leads(
        ds, kernel)
    try:
        yield
    finally:
        ctx.op_resource_reservation_enabled = before


def _kernel_leads(ds, kernel) -> bool:
    """Whether the operator running ``kernel`` in ``ds``'s physical plan
    takes its blocks only from the plan's input buffer, so everything
    before the kernel runs inside the kernel's own tasks."""
    from ray.data._internal.execution.operators.input_data_buffer import (
        InputDataBuffer,
    )
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.optimizers import get_execution_plan

    # planned from a plan of its own: planning replaces the plan's DAG
    plan = LogicalPlan(ds._logical_plan.dag, ds.context)
    todo = [get_execution_plan(plan).dag]
    while todo:
        op = todo.pop()
        if f"MapBatches({kernel.__name__})" in op.name.split("->"):
            return all(isinstance(up, InputDataBuffer)
                       for up in op.input_dependencies)
        todo.extend(op.input_dependencies)
    return False


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


def _triple_cols(found) -> dict:
    """The ``schemas.TRIPLE_FIELDS`` columns of ``(depth, Triple)`` pairs."""
    return {
        "depth": [d for d, _ in found],
        "arg1": [t.arg1 for _, t in found],
        "rel": [t.rel for _, t in found],
        "arg2": [t.arg2 for _, t in found],
        "confidence": [t.confidence for _, t in found],
    }


class ConjSplitter:
    """sentences → split_sentences (``schemas.SPLIT_SENTENCES``).

    The split-only kernel: ``predict --task conj`` and the
    ``q_conj_splits*`` queries need each split as a row, with no OIE
    labeling, which :class:`FusedExtractor` never emits."""

    def __init__(self, seed: int = 777, labeler_spec: dict | None = None):
        self.labeler = make_labeler(labeler_spec, seed)

    def __call__(self, batch: pa.Table) -> pa.Table:
        src, split_ids, split_sents, origs, conj, idx = [], [], [], [], [], []
        for row_idx, sentence in enumerate(batch.column("sentence").to_pylist()):
            splits, conj_words, indices = _split_sentence_rows(
                self.labeler, sentence, with_indices=True
            )
            n = len(splits)
            src += [row_idx] * n
            split_ids += range(n)
            split_sents += splits
            origs += [sentence] * n
            conj += [conj_words] * n
            idx += indices
        return schemas.rows(schemas.SPLIT_SENTENCES, batch, src, {
            "split_id": split_ids, "split_sentence": split_sents,
            "orig_sentence": origs, "conj_words": conj, "split_indices": idx,
        })


# the input columns OIEExtractor carries onto its triples, when present
_OIE_CARRIED = ("repo", "path", "commit", "content_sha256", "sent_id",
                "orig_sentence", "split_id")


class OIEExtractor:
    """split_sentences → raw triples (before per-sentence dedup/top-k):
    the input's carried columns plus ``schemas.TRIPLE_FIELDS``.

    Emits every valid extraction with its (split_id, depth) so a grouped
    dedup stage can reproduce the reference's first-wins order even when
    splits of one sentence land in different blocks (stages/group.py).
    No pipeline runs it: with :class:`ConjSplitter` and
    ``group._dedup_topk_group`` it is the stage-by-stage reference that
    the benchmark's serial replay and ``tests/test_cli.py`` compare the
    fused kernels against."""

    def __init__(self, seed: int = 777, no_lt: bool = False,
                 labeler_spec: dict | None = None):
        self.labeler = make_labeler(labeler_spec, seed)
        self.no_lt = no_lt

    def __call__(self, batch: pa.Table) -> pa.Table:
        src, found = [], []
        splits = batch.column("split_sentence").to_pylist()
        for row_idx, split_sentence in enumerate(splits):
            labels, confs = self.labeler.label_oie(split_sentence)
            decoded = decode_sentence_triples(
                labels, confs, split_sentence, no_lt=self.no_lt
            )
            src += [row_idx] * len(decoded)
            found += decoded
        carried = [f for f in batch.schema if f.name in _OIE_CARRIED]
        schema = pa.schema(carried + schemas.TRIPLE_FIELDS)
        return schemas.rows(schema, batch, src, _triple_cols(found))


class FusedExtractor:
    """sentences → final per-sentence triples (``schemas.TRIPLES``),
    dedup + top-k in-stage.

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
        labeler_spec: dict | None = None,
    ):
        self.labeler = make_labeler(labeler_spec, seed)
        self.num_extractions = num_extractions
        self.no_lt = no_lt

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
        indices = None
        if splits is None:
            splits, _, indices = _split_sentence_rows(
                self.labeler, sentence, with_indices
            )
        collected = []  # (split_id, depth, Triple) in reference encounter order
        for split_id, split_sentence in enumerate(splits):
            rows, confs = self.labeler.label_oie(split_sentence)
            for depth, triple in decode_sentence_triples(
                rows, confs, split_sentence, no_lt=self.no_lt
            ):
                collected.append((split_id, depth, triple))
        kept = top_k(dedup_exact(t for _, _, t in collected),
                     self.num_extractions)
        # recover (split_id, depth) provenance for the survivors
        by_id = {id(t): (s, d) for s, d, t in collected}
        return splits, indices, [(*by_id[id(t)], t) for t in kept]

    def __call__(self, batch: pa.Table) -> pa.Table:
        src, split_ids, origs, found = [], [], [], []
        for row_idx, sentence in enumerate(batch.column("sentence").to_pylist()):
            for split_id, depth, t in self.extract_one(sentence):
                src.append(row_idx)
                split_ids.append(split_id)
                origs.append(sentence)
                found.append((depth, t))
        return schemas.rows(schemas.TRIPLES, batch, src, {
            "split_id": split_ids, "orig_sentence": origs,
            **_triple_cols(found),
        })


class SplitExtractor(FusedExtractor):
    """sentence occurrences → one row per split, carrying the split's
    survivors of the occurrence's dedup + top-k (``schemas.SPLIT_ROWS``,
    the CLI's output table).

    A non-null ``splits`` list gives a row's pre-split sentences and skips
    the conj labeler. ``first_sid`` is carried so the ``.oie`` writer can
    merge duplicate sentences in first-seen order."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        sentences = batch.column("sentence").to_pylist()
        given = batch.column("splits").to_pylist()
        src, split_ids, split_sents, origs, idx, triples = (
            [], [], [], [], [], []
        )
        for row_idx, (sentence, pre) in enumerate(zip(sentences, given)):
            splits, indices, kept = self.extract_splits(
                sentence, pre, with_indices=True
            )
            per_split = [[] for _ in splits]
            for split_id, depth, t in sorted(kept, key=lambda x: x[:2]):
                per_split[split_id].append(
                    {"depth": depth, "arg1": t.arg1, "rel": t.rel,
                     "arg2": t.arg2, "confidence": t.confidence}
                )
            n = len(splits)
            src += [row_idx] * n
            split_ids += range(n)
            split_sents += splits
            origs += [sentence] * n
            idx += indices or [[]] * n
            triples += per_split
        return schemas.rows(schemas.SPLIT_ROWS, batch, src, {
            "split_id": split_ids, "split_sentence": split_sents,
            "orig_sentence": origs, "split_indices": idx, "triples": triples,
        })
