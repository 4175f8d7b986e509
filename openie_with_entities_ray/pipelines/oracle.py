"""Single-process row-by-row oracle with the reference's control flow.

Re-implements the splitpredict lifecycle exactly the way the reference
drives it — corpus-wide dict accumulators keyed by original sentence in
first-seen order (/root/reference/run.py:161-243, model.py:595-654,
metric.py:435-438) — using the same pure kernels and the same
deterministic labeler as the distributed pipeline.

Purpose (SURVEY.md §7.0): the distributed engine must reproduce this
oracle's triples at P/R >= 0.95 (north rule). Because the labeler is a
pure function of the sentence, any mismatch is an *engine* defect
(ordering, grouping, dedup under shuffles), which is exactly what the
conformance gate should detect.
"""

from __future__ import annotations

from ..functions.conjunctions import decode_coordinations, split_on_coordinations
from ..functions.text import extract_sentences
from ..functions.triples import decode_sentence_triples, top_k
from ..state.labeler import DeterministicLabeler


def oracle_predictions(
    docs,
    *,
    seed: int = 777,
    num_extractions: int = 5,
    no_lt: bool = False,
):
    """docs: iterable of dicts with repo/path/commit/lang/content.

    Returns ``{orig_sentence: [Triple, ...]}`` in first-seen order — the
    reference's ``all_predictions`` output data model (model.py:609-634,
    grouped by original sentence, exact-dedup first-wins, then top-k by
    confidence as in metric.py:435-438).
    """
    labeler = DeterministicLabeler(seed=seed)
    all_predictions: dict = {}

    for doc in docs:
        for sentence in extract_sentences(doc["content"], doc.get("lang", "")):
            # conj stage (run.py:167-204): split, or identity mapping
            conj_rows = labeler.label_conj(sentence)
            coords = decode_coordinations(conj_rows)
            splits, conj_words, _ = split_on_coordinations(
                coords, sentence.split()
            )
            if not splits:
                splits = [sentence]
            # oie stage over splits, accumulate per original sentence
            bucket = all_predictions.setdefault(sentence, [])
            for split_sentence in splits:
                rows, confs = labeler.label_oie(split_sentence)
                for _depth, t in decode_sentence_triples(
                    rows, confs, split_sentence, no_lt=no_lt
                ):
                    if t.dedup_key not in {x.dedup_key for x in bucket}:
                        bucket.append(t)

    for sentence in all_predictions:
        all_predictions[sentence] = top_k(
            all_predictions[sentence], num_extractions
        )
    return all_predictions
