"""Stage S1/O1/O2/O4: source_docs → sentences.

One map_batches over Arrow batches: per doc, sha256 the content (lineage
column, north-rule invariant), mine comment/docstring text, split into
sentences; then the O1 normalization (quotes + punctuation spacing +
whitespace re-join, /root/reference/data.py:428-438) and the 100-word cap
(/root/reference/data.py:284) run VECTORIZED over the exploded sentence
column via pyarrow.compute (``normalize_sentences_arrow`` — a
replace_substring chain, no Python per-sentence work; bit-equal to the
scalar kernel by differential fuzz test). One row in → N sentence rows
out, provenance keys carried on every row (pc.take by doc index) so no
later stage needs a driver-side mapping. ``sent_id`` numbers the
SURVIVING sentences per doc, as the scalar path always did.

Stateless tasks (no model state); the per-doc mining is regex-bound, so
the kernel compiles its regexes at module import (once per worker
process).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import schemas
from ..functions.text import (
    MAX_WORDS,
    extract_comment_text,
    normalize_sentences_arrow,
    sha256_hex,
    split_prose_sentences,
)


def _explode_batch(batch: pa.Table) -> pa.Table:
    langs = batch.column("lang").to_pylist()
    contents = batch.column("content").to_pylist()

    shas: list = []
    raw: list = []
    doc_idx: list = []
    for i, (lang, content) in enumerate(zip(langs, contents)):
        shas.append(sha256_hex(content))
        for chunk in extract_comment_text(content, lang):
            for sent in split_prose_sentences(chunk):
                raw.append(sent)
                doc_idx.append(i)

    norm = normalize_sentences_arrow(pa.array(raw, pa.string()))
    # word count = spaces + 1 after whitespace collapse; keep non-empty
    # sentences of <= MAX_WORDS words (data.py:284)
    mask = pc.and_(
        pc.greater(pc.utf8_length(norm), 0),
        pc.less_equal(pc.count_substring(norm, " "), MAX_WORDS - 1),
    )
    keep = np.flatnonzero(mask.to_numpy(zero_copy_only=False))
    idx = np.asarray(doc_idx, dtype=np.int64)[keep] if len(keep) else (
        np.empty(0, dtype=np.int64)
    )

    # sent_id = rank among this doc's surviving sentences (doc_idx is
    # non-decreasing by construction)
    n = len(idx)
    pos = np.arange(n, dtype=np.int64)
    if n:
        is_start = np.empty(n, dtype=bool)
        is_start[0] = True
        is_start[1:] = idx[1:] != idx[:-1]
        sent_id = pos - np.maximum.accumulate(np.where(is_start, pos, 0))
    else:
        sent_id = pos

    take_doc = pa.array(idx)
    return schemas.rows(schemas.SENTENCES, batch, take_doc, {
        "content_sha256": pc.take(pa.array(shas, pa.string()), take_doc),
        "sent_id": sent_id,
        "sentence": pc.take(norm, pa.array(keep)),
    })


# docs per explode batch: docs_to_sentences' Ray batches and the row-group
# streams of flagship.resumable_materialize's work units
DOCS_BATCH = 256


def docs_to_sentences(docs_ds, *, batch_size: int = DOCS_BATCH):
    """source_docs Dataset → sentences Dataset (``schemas.SENTENCES``)."""
    return docs_ds.map_batches(
        _explode_batch, batch_format="pyarrow", batch_size=batch_size
    )


class WordpieceCounter:
    """O4's second half as a flag-and-carry column (SURVEY O4: flag,
    don't drop): per sentence, ``n_wordpieces`` = len([bos] + pieces +
    [eos]) from the torch-free greedy longest-prefix kernel
    (functions/wordpiece.py, data.py:294-303) and ``fits_model`` =
    the reference's <=100-words AND <512-wordpieces gate
    (data.py:284-285) as int64 0/1.

    A kernel class run through :func:`.extract.map_kernel`: the vocab
    dict (30k entries for a real vocab.txt) loads once per worker process
    in ``__init__``, never per batch."""

    def __init__(self, vocab=None, vocab_path=None,
                 sentence_col: str = "sentence"):
        from ..functions.wordpiece import demo_vocab, load_vocab

        if vocab is None:
            vocab = load_vocab(vocab_path) if vocab_path else demo_vocab()
        self.vocab = vocab
        self.sentence_col = sentence_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.wordpiece import encode_words, fits_model_limits

        counts, fits = [], []
        for sent in batch.column(self.sentence_col).to_pylist():
            words = sent.split()
            ids, _starts = encode_words(words, self.vocab)
            counts.append(len(ids))
            fits.append(1 if fits_model_limits(words, ids) else 0)
        cols = {c: batch.column(c) for c in batch.column_names}
        cols["n_wordpieces"] = pa.array(counts, pa.int64())
        cols["fits_model"] = pa.array(fits, pa.int64())
        return pa.table(cols)


def with_wordpiece_counts(sentences_ds, *, vocab=None, vocab_path=None,
                          sentence_col: str = "sentence",
                          batch_size: int = 1024):
    """Attach the O4 wordpiece-count columns to any sentence Dataset."""
    from .extract import map_kernel

    return map_kernel(
        sentences_ds, WordpieceCounter, batch_size=batch_size, vocab=vocab,
        vocab_path=vocab_path, sentence_col=sentence_col,
    )
