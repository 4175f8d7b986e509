"""Training-data-pipeline operators over document/embedding tables:
dedup (exact, MinHash-LSH, SimHash, embedding-cosine), similarity search
(brute-force + LSH-bucketed ANN), and text analysis.

Distributed shapes — every shuffle is ``stages/exchange.py``:
``exchange`` (coarse parts, one vectorized kernel per part) or
``exchange_per_key`` (one kernel call per key of a bounded column):
- exact dedup: content hash (per-batch combiner) → ``exchange`` on the
  hash → min-key witness per hash (SURVEY.md §2.8);
- MinHash-LSH: signature per row (a ``map_kernel`` task stage;
  permutation params built once per worker process) → explode to
  (band, band_hash, id, signature) rows → ``exchange`` on (band,
  band_hash) → in-bucket pairs verified by signature agreement (no text
  re-shipped) → distinct pairs;
- SimHash: 64-bit signature → 4x16-bit band buckets → ``exchange`` on
  (band, band_key) → in-bucket Hamming verify;
- term / n-gram statistics: per-batch Counter combiner → ``exchange`` on
  the term (on (term, bucket) where one hot term must spread over
  parts) → in-part sum;
- bounded keys (k-means clusters, strata, range buckets, profiled
  columns): ``exchange_per_key``;
- ANN: per-batch numpy matmul against a broadcast query matrix, partial
  top-k per batch, tiny final merge (the classic combiner shape).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.dedup import MinHasher, simhash64
from ..functions.textstats import (
    bpe_ish_token_count,
    detect_language,
    md5_fingerprint,
    quality_stats,
    rolling_fingerprint,
    token_count,
)
from .exchange import exchange, exchange_per_key
from .extract import map_kernel

# ---------------------------------------------------------------------------
# text analysis


def add_text_stats(docs_ds, text_col: str = "text"):
    """Quality / token / language / fingerprint columns in one pass."""

    def stats(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        q = [quality_stats(t) for t in texts]
        cols = {name: batch.column(name) for name in batch.column_names}
        cols["n_words"] = pa.array([x["n_words"] for x in q], pa.int64())
        cols["stopword_permille"] = pa.array(
            [x["stopword_permille"] for x in q], pa.int64()
        )
        cols["mean_word_len_centi"] = pa.array(
            [x["mean_word_len_centi"] for x in q], pa.int64()
        )
        cols["punct_permille"] = pa.array(
            [x["punct_permille"] for x in q], pa.int64()
        )
        cols["n_tokens_bpe"] = pa.array(
            [bpe_ish_token_count(t) for t in texts], pa.int64()
        )
        cols["lang_detected"] = pa.array(
            [detect_language(t) for t in texts], pa.string()
        )
        cols["fingerprint_md5"] = pa.array(
            [md5_fingerprint(t) for t in texts], pa.string()
        )
        cols["fingerprint_rolling"] = pa.array(
            [rolling_fingerprint(t) for t in texts], pa.int64()
        )
        return pa.table(cols)

    return docs_ds.map_batches(stats, batch_format="pyarrow")


def add_repetition_stats(docs_ds, text_col: str = "text"):
    """Gopher-style repetition/boilerplate signals (duplicate- and
    top-n-gram permille for n in {2,3}) appended as integer columns —
    one stateless pass, no shuffle (see
    functions/textstats.py:repetition_stats)."""
    from ..functions.textstats import repetition_stats

    def stats(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        reps = [repetition_stats(t) for t in texts]
        cols = {name: batch.column(name) for name in batch.column_names}
        for key in ("dup_2gram_permille", "top_2gram_permille",
                    "dup_3gram_permille", "top_3gram_permille"):
            cols[key] = pa.array([r[key] for r in reps], pa.int64())
        return pa.table(cols)

    return docs_ds.map_batches(stats, batch_format="pyarrow")


def scrub_documents(docs_ds, text_col: str = "text"):
    """PII scrub: URLs → ``<URL>``, emails → ``<EMAIL>`` (URLs first so
    a userinfo '@' is not double-counted); appends ``n_redactions`` and
    replaces the text column in place. Stateless single pass."""
    from ..functions.textstats import redact_pii

    def scrub(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        pairs = [redact_pii(t) for t in texts]
        cols = {name: batch.column(name) for name in batch.column_names}
        cols[text_col] = pa.array([p[0] for p in pairs], pa.string())
        cols["n_redactions"] = pa.array(
            [p[1] for p in pairs], pa.int64()
        )
        return pa.table(cols)

    return docs_ds.map_batches(scrub, batch_format="pyarrow")


def winnow_docs(docs_ds, *, k: int = 4, w: int = 5,
                text_col: str = "text", id_col: str = "doc_id"):
    """Explode each document into its winnowing fingerprint set
    (functions/textstats.py:winnow_fingerprints — the MOSS code-
    plagiarism fingerprinting scheme). One stateless pass; output rows
    (id, fingerprint) are distinct by construction (the kernel returns
    a per-doc set)."""
    from ..functions.textstats import winnow_fingerprints

    def explode(batch: pa.Table) -> pa.Table:
        ids: list = []
        fps: list = []
        for d, t in zip(
            batch.column(id_col).to_pylist(),
            batch.column(text_col).to_pylist(),
        ):
            for f in winnow_fingerprints(t, k, w):
                ids.append(d)
                fps.append(f)
        return pa.table(
            {
                id_col: pa.array(ids, batch.schema.field(id_col).type),
                "fingerprint": pa.array(fps, pa.int64()),
            }
        )

    return docs_ds.map_batches(explode, batch_format="pyarrow")


def duplicate_spans(docs_ds, *, k: int = 4, w: int = 5,
                    text_col: str = "text", id_col: str = "doc_id",
                    num_parts: int | None = None):
    """Cross-document duplicated-span detection (the Lee et al. 2022
    "Deduplicating Training Data" shape at fingerprint granularity):
    every winnowing fingerprint shared by >=2 documents, with how many
    documents share it and the min/max sharing doc id.

    100-TB shape: :func:`winnow_docs` explodes each doc into a bounded
    fingerprint set (stateless pass), a per-batch combiner collapses to
    (fingerprint, partial ndocs/min/max), and the only shuffle is an
    ``exchange`` on the fingerprint with a vectorized
    pandas merge inside each part — never one Ray group per fingerprint.
    Correct because winnow_docs emits per-doc DISTINCT fingerprints and
    a doc's rows never split across batches, so partial counts are doc
    counts."""
    fps = winnow_docs(docs_ds, k=k, w=w, text_col=text_col, id_col=id_col)

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        agg = df.groupby("fingerprint", as_index=False).agg(
            ndocs=(id_col, "size"),
            first_doc=(id_col, "min"),
            last_doc=(id_col, "max"),
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby("fingerprint", as_index=False).agg(
            ndocs=("ndocs", "sum"),
            first_doc=("first_doc", "min"),
            last_doc=("last_doc", "max"),
        )
        return out[out["ndocs"] >= 2]

    return exchange(fps, "fingerprint", merge, combine=partial,
                    num_parts=num_parts)


def term_postings(docs_ds, *, text_col: str = "text",
                  id_col: str = "doc_id", bucket_size: int = 1000,
                  num_parts: int | None = None):
    """Sharded inverted index: one row per (term, doc-id bucket) with
    the bucket's sorted posting list as a comma-joined string and its
    document frequency.

    100-TB shape: posting lists are sharded by ``id_col // bucket_size``
    so no row ever exceeds ``bucket_size`` ids — a stopword appearing in
    a billion docs becomes a million bounded rows, not one giant one.
    Per-batch kernel emits distinct (term, bucket, partial-postings),
    the exchange key is (term, bucket) — a hot term's buckets still
    spread over parts — and the per-part finish is a vectorized pandas
    groupby on utf-8 BYTES keys (NUL-safe discipline; see
    composite_key_bytes)."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        ex = (
            batch[[id_col]]
            .assign(term=batch[text_col].str.split())
            .explode("term")
        )
        ex = ex[ex["term"].notna() & ex["term"].astype(bool)]
        # encode BEFORE deduplicating: pandas drop_duplicates/factorize
        # on str keys truncates at an embedded NUL (would merge terms
        # that differ only after it); bytes keys hash fully
        ex["term_b"] = ex["term"].str.encode("utf-8")
        ex = ex.drop_duplicates([id_col, "term_b"])
        ex["bucket"] = ex[id_col] // bucket_size
        g = ex.groupby(["term_b", "bucket"], as_index=False).agg(
            postings=(id_col, lambda s: ",".join(str(i) for i in sorted(s)))
        )
        return g[["term_b", "bucket", "postings"]]

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        def join_sorted(s: pd.Series) -> str:
            ids = sorted({int(i) for p in s for i in p.split(",")})
            return ",".join(str(i) for i in ids)

        out = group.groupby(["term_b", "bucket"], as_index=False).agg(
            postings=("postings", join_sorted)
        )
        out["df_bucket"] = pd.Series(
            [p.count(",") + 1 for p in out["postings"]], dtype="int64"
        )
        out["term"] = out.pop("term_b").str.decode("utf-8")
        out["bucket"] = out["bucket"].astype("int64")
        return out[["term", "bucket", "df_bucket", "postings"]]

    return exchange(
        docs_ds.map_batches(partial, batch_format="pandas", batch_size=4096),
        ["term_b", "bucket"], merge, num_parts=num_parts,
    )


def deterministic_sample(docs_ds, *, rate_permille: int = 100,
                         id_col: str = "doc_id", salt: str = "sample"):
    """Content-addressed sampling: keep a row iff
    ``md5(salt|id) mod 1000 < rate_permille``.

    No RNG state — the decision is a pure function of the row id, so the
    sample is identical across cluster sizes, task retries, and resumed
    runs (the property a 100 TB pipeline needs from its sampler), and
    DuckDB reproduces it exactly (``md5_number_lower``)."""
    from ..functions.textstats import _md5_number_lower

    def keep(batch: pa.Table) -> pa.Table:
        mask = [
            _md5_number_lower(f"{salt}|{i}") % 1000 < rate_permille
            for i in batch.column(id_col).to_pylist()
        ]
        return batch.filter(pa.array(mask, pa.bool_()))

    return docs_ds.map_batches(keep, batch_format="pyarrow")


def exact_k_sample(docs_ds, *, k: int, strat_col: str = "lang",
                   id_col: str = "doc_id", salt: str = "ksamp"):
    """EXACTLY ``k`` rows per stratum (fixed-size eval subsets), chosen
    as the k smallest ``md5(salt|id)`` values — content-addressed like
    :func:`deterministic_sample`, so the subset is cluster-size / retry
    / resume-invariant, but with a guaranteed size instead of a rate.

    Shape: per-batch per-stratum partial top-k (smallest hashes) →
    per-stratum merge of the ≤ k·num_batches partial rows (strata are
    few by nature; the merge never sees the corpus). Ties are
    impossible at md5 granularity for distinct ids; equal ids keep one
    row via the (hash, id) order. Output: input columns of the winners.
    """
    from ..functions.textstats import _md5_number_lower

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["_h"] = [
            _md5_number_lower(f"{salt}|{i}") for i in df[id_col]
        ]
        out = (
            df.sort_values(["_h", id_col], kind="mergesort")
            .groupby(strat_col, sort=False)
            .head(k)
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.sort_values(["_h", id_col], kind="mergesort")
            .head(k)
            .drop(columns=["_h"])
        )

    return exchange_per_key(
        docs_ds.map_batches(partial, batch_format="pyarrow"), strat_col, merge
    )


def weighted_sample(docs_ds, *, weight_col: str, max_weight: int,
                    id_col: str = "doc_id", salt: str = "wsamp"):
    """Weighted content-addressed sampling: keep a row iff
    ``md5(salt|id) mod max_weight < weight`` — i.e. with probability
    ``weight / max_weight``, deterministically per row (the mixture-
    building extension of :func:`deterministic_sample`: upweight long /
    high-quality docs without RNG state; identical across cluster
    sizes, retries and resumes; weights ≥ max_weight always keep).

    ``weight_col`` must be integer-valued so the DuckDB oracle
    reproduces the decision bit-for-bit."""
    from ..functions.textstats import _md5_number_lower

    def keep(batch: pa.Table) -> pa.Table:
        ws = batch.column(weight_col).to_pylist()
        mask = [
            _md5_number_lower(f"{salt}|{i}") % max_weight < int(w)
            for i, w in zip(batch.column(id_col).to_pylist(), ws)
        ]
        return batch.filter(pa.array(mask, pa.bool_()))

    return docs_ds.map_batches(keep, batch_format="pyarrow")


def dataset_splits(docs_ds, *, val_permille: int = 50,
                   test_permille: int = 50, id_col: str = "doc_id",
                   salt: str = "split"):
    """Deterministic train/val/test assignment with the same
    content-addressed rule as :func:`deterministic_sample`:
    ``b = md5(salt|id) mod 1000``; b < val_permille → 'val', next
    ``test_permille`` → 'test', rest → 'train'. No RNG state — the
    assignment is a pure function of the row id, identical across
    cluster sizes, retries and resumes, and disjoint-by-construction
    (one bucket per row). Output: input columns + ``split``."""
    from ..functions.textstats import _md5_number_lower

    cut_val = val_permille
    cut_test = val_permille + test_permille

    def assign(batch: pa.Table) -> pa.Table:
        buckets = [
            _md5_number_lower(f"{salt}|{i}") % 1000
            for i in batch.column(id_col).to_pylist()
        ]
        return batch.append_column(
            "split",
            pa.array(
                [
                    "val" if b < cut_val
                    else "test" if b < cut_test
                    else "train"
                    for b in buckets
                ],
                pa.string(),
            ),
        )

    return docs_ds.map_batches(assign, batch_format="pyarrow")


def stratified_sample(docs_ds, rates_permille: dict, *,
                      default_permille: int = 0,
                      strat_col: str = "lang", id_col: str = "doc_id",
                      salt: str = "strat"):
    """Per-stratum deterministic sampling (training-data mixture
    weighting: e.g. keep 50% of 'en', 20% of 'de', drop the rest). Same
    content-addressed rule as :func:`deterministic_sample` with the rate
    looked up per stratum; the rates dict is a task-closure broadcast."""
    from ..functions.textstats import _md5_number_lower

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        strata = batch.column(strat_col).to_pylist()
        mask = [
            _md5_number_lower(f"{salt}|{i}") % 1000
            < rates_permille.get(s, default_permille)
            for i, s in zip(ids, strata)
        ]
        return batch.filter(pa.array(mask, pa.bool_()))

    return docs_ds.map_batches(keep, batch_format="pyarrow")


def quality_filter(docs_ds, *, min_words: int = 20, max_words: int = 1000,
                   min_stopword_permille: int = 50,
                   max_punct_permille: int = 200, text_col: str = "text",
                   id_col: str = "doc_id"):
    """C4-style corpus cleaning: drop documents outside the length band,
    with too few stopwords (non-prose), or too much punctuation (markup/
    code). One stateless pass composing the text-stats kernels; emits
    (doc_id, lang_detected, n_words, n_tokens_bpe) for the survivors."""

    def keep(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        ids, langs, words, toks = [], [], [], []
        for i, t in zip(batch.column(id_col).to_pylist(), texts):
            q = quality_stats(t)
            if not (min_words <= q["n_words"] <= max_words):
                continue
            if q["stopword_permille"] < min_stopword_permille:
                continue
            if q["punct_permille"] > max_punct_permille:
                continue
            ids.append(i)
            langs.append(detect_language(t))
            words.append(q["n_words"])
            toks.append(bpe_ish_token_count(t))
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "lang_detected": pa.array(langs, pa.string()),
                "n_words": pa.array(words, pa.int64()),
                "n_tokens_bpe": pa.array(toks, pa.int64()),
            }
        )

    return docs_ds.map_batches(keep, batch_format="pyarrow")


def corpus_budget(docs_ds, *, strat_col: str = "lang",
                  text_col: str = "text"):
    """Token-budget accounting per stratum (how much training data do we
    have per language?): per-batch combiner → tiny groupby (stratum
    cardinality, not corpus cardinality)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        agg: dict = {}
        for s, t in zip(
            batch.column(strat_col).to_pylist(),
            batch.column(text_col).to_pylist(),
        ):
            row = agg.setdefault(s, [0, 0, 0])
            row[0] += 1
            row[1] += len(t.split())
            row[2] += bpe_ish_token_count(t)
        strata = sorted(agg)
        return pa.table(
            {
                strat_col: pa.array(strata, pa.string()),
                "n_docs": pa.array([agg[s][0] for s in strata], pa.int64()),
                "total_words": pa.array(
                    [agg[s][1] for s in strata], pa.int64()
                ),
                "total_tokens_bpe": pa.array(
                    [agg[s][2] for s in strata], pa.int64()
                ),
            }
        )

    return (
        docs_ds.map_batches(partial, batch_format="pyarrow")
        .groupby(strat_col)
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("total_words", alias_name="total_words"),
            Sum("total_tokens_bpe", alias_name="total_tokens_bpe"),
        )
    )


# ---------------------------------------------------------------------------
# exact dedup


def exact_dedup_groups(docs_ds, text_col: str = "text",
                       id_col: str = "doc_id",
                       num_parts: int | None = None):
    """content sha256 → (hash, keeper id, group size).

    Scale shape: ``exchange`` on the content hash (cluster-scaled part
    count) + ONE vectorized pandas aggregate per part — never
    ``groupby(content_sha256)`` directly, which pays Ray's ~1 ms/group
    on one group per DISTINCT DOCUMENT. Hex hashes are NUL-free, so the
    in-part str groupby is safe."""

    def hash_batch(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        shas = [hashlib.sha256(t.encode()).hexdigest() for t in texts]
        return pa.table(
            {
                "content_sha256": pa.array(shas, pa.string()),
                id_col: batch.column(id_col),
            }
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("content_sha256", as_index=False).agg(
            keeper_id=(id_col, "min"), n_docs=(id_col, "size")
        )

    return exchange(docs_ds, "content_sha256", merge, combine=hash_batch,
                    num_parts=num_parts)


def cluster_cpus(default: int = 8) -> int:
    """The one CPU probe (shared by partition/parallelism sizing)."""
    import ray

    return (
        int(ray.cluster_resources().get("CPU", default))
        if ray.is_initialized()
        else default
    )


def _cluster_parts(min_parts: int = 64) -> int:
    """Coarse-partition count scaled to the cluster (~4x cores, floor 64)
    so shuffle parallelism grows with the cluster and per-group size
    shrinks with it — never a fixed handful of corpus-sized groups."""
    return max(min_parts, 4 * cluster_cpus())


def composite_key_bytes(*cols):
    """THE canonical composite group key for in-part pandas groupbys over
    corpus-derived text: length-prefixed utf-8 bytes per component.

    Two hazards it closes (both measured):
    - pandas' string hashtable truncates str keys at embedded NULs,
      silently merging distinct groups → bytes use the NUL-safe object
      hashtable;
    - a delimiter-joined key is ambiguous — ('X', 'Y\\x00Z') and
      ('X\\x00Y', 'Z') encode identically with a NUL join → the length
      prefix makes the encoding injective for any content.

    A null component (None, NaN, pd.NA, NaT) encodes as the length
    marker 0xFFFFFFFF with no payload, so it forms its own group (SQL
    GROUP BY semantics) instead of colliding with the string 'None'.

    Each argument is a column (iterable); returns a list of bytes keys,
    one per row."""
    import struct

    null = struct.pack(">I", 0xFFFFFFFF)
    out = []
    for vals in zip(*cols):
        b = bytearray()
        for v in vals:
            if (v is None or v is pd.NA or v is pd.NaT
                    or (isinstance(v, float) and v != v)):
                b += null
                continue
            enc = str(v).encode("utf-8")
            b += struct.pack(">I", len(enc))
            b += enc
        out.append(bytes(b))
    return out


def distinct_pairs(pairs_ds, value_col: str, how: str = "max",
                   num_parts: int | None = None):
    """Distinct (id_a, id_b) with min/max over ``value_col``.

    High-cardinality Ray aggregates pay ~1ms of Python per group, so a
    166k-group ``groupby(pair).aggregate()`` takes minutes. Instead:
    ``exchange`` on ``id_a`` (few, large parts) and a vectorized pandas
    groupby inside each part — same result, constant number of Ray
    groups. ``num_parts`` defaults to ~4x cluster cores."""

    def dedup(group: pd.DataFrame) -> pd.DataFrame:
        return (
            group.groupby(["id_a", "id_b"], as_index=False)[value_col]
            .agg(how)
        )

    return exchange(pairs_ds, "id_a", dedup, num_parts=num_parts)


# ---------------------------------------------------------------------------
# MinHash-LSH near-dup


class MinHashSignatures:
    """Kernel: permutation params once per worker process (built by
    :func:`.extract.map_kernel`); signatures per batch."""

    def __init__(self, num_perm: int = 128, seed: int = 7, k: int = 3,
                 text_col: str = "text", id_col: str = "doc_id",
                 num_bands: int = 16):
        self.hasher = MinHasher(num_perm=num_perm, seed=seed, k=k)
        self.text_col = text_col
        self.id_col = id_col
        self.num_bands = num_bands

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_pylist()
        texts = batch.column(self.text_col).to_pylist()
        out_id, out_band, out_hash, out_sig = [], [], [], []
        for i, t in zip(ids, texts):
            sig = self.hasher.signature(t)
            for band, bh in self.hasher.band_hashes(sig, self.num_bands):
                out_id.append(i)
                out_band.append(band)
                out_hash.append(bh)
                out_sig.append(sig.tobytes())
        # the id column keeps the caller's name (self.id_col) so the
        # downstream group kernels' `group[id_col]` stays correct for any
        # id column, not just 'doc_id'
        return pa.table(
            {
                self.id_col: pa.array(out_id),
                "band": pa.array(out_band, pa.int32()),
                "band_hash": pa.array(out_hash, pa.string()),
                "signature": pa.array(out_sig, pa.binary()),
            }
        )


def minhash_candidate_pairs(
    docs_ds,
    *,
    threshold: float = 0.8,
    num_perm: int = 128,
    num_bands: int = 16,
    text_col: str = "text",
    id_col: str = "doc_id",
    seed: int = 7,
):
    """LSH buckets → verified near-dup pairs (id_a < id_b, est_permille).

    Verification uses signature agreement (an unbiased Jaccard estimator),
    so bucket groups never re-ship document text; the estimate goes out as
    integer permille so the DuckDB oracle's value matches exactly.

    Scale shape: ``exchange`` on ``(band, band_hash)`` with a part count
    scaled to the cluster — same-bucket rows still co-locate, but group
    count tracks the cluster, not the corpus (a ``groupby(band)`` with
    num_bands groups would materialize 1/num_bands of ALL signatures into
    a single task at 100 TB). Buckets inside a part are resolved with a
    vectorized pandas groupby.
    """
    sigs = _bucketed_signatures(
        docs_ds, num_perm=num_perm, num_bands=num_bands, text_col=text_col,
        id_col=id_col, seed=seed,
    )
    return minhash_band_pairs(
        sigs, num_perm=num_perm, threshold=threshold, id_col=id_col
    )


def minhash_band_pairs(sigs, *, num_perm: int = 128,
                       threshold: float = 0.8, id_col: str = "doc_id"):
    """Verified near-dup pairs from a signature table (columns ``id_col,
    band, band_hash, signature``): ``exchange`` on the bucket, in-part
    pair extraction with signature-agreement verification → distinct
    pairs. The verify stage of the one-shot :func:`minhash_candidate_pairs`
    and the cross-shard GLOBAL stage of the two-level dedup job
    (jobs/dedup_job.py), where signatures are computed once per shard next
    to the data and each band is an independent, resumable global
    partition."""

    def part_pairs(group: pd.DataFrame) -> pd.DataFrame:
        a_ids, b_ids, est = [], [], []
        # drop singleton buckets before the Python group loop (most buckets
        # hold one doc; iterating them costs more than the real work)
        counts = group.groupby(["band", "band_hash"])[id_col].transform(
            "size"
        )
        group = group[counts >= 2]
        for _, bucket in group.groupby(["band", "band_hash"], sort=False):
            rows = bucket.drop_duplicates(subset=[id_col]).sort_values(
                id_col
            )
            ids = rows[id_col].to_list()
            sigs_mat = np.stack(
                [np.frombuffer(s, dtype=np.uint64) for s in rows["signature"]]
            )
            for i in range(len(ids)):
                eq = (sigs_mat[i + 1 :] == sigs_mat[i]).sum(axis=1)
                keep = np.nonzero(eq / num_perm >= threshold)[0]
                for off in keep:
                    a_ids.append(ids[i])
                    b_ids.append(ids[i + 1 + off])
                    est.append((1000 * int(eq[off])) // num_perm)
        # typed columns even when empty — an untyped empty block breaks
        # downstream schema unification (Ray warns 'RefBundle with a
        # different schema')
        id_dtype = group[id_col].dtype
        return pd.DataFrame(
            {
                "id_a": pd.Series(a_ids, dtype=id_dtype),
                "id_b": pd.Series(b_ids, dtype=id_dtype),
                "est_permille": pd.Series(est, dtype="int64"),
            }
        )

    pairs = exchange(sigs, ["band", "band_hash"], part_pairs)
    # same pair can surface from several bands → distinct
    return distinct_pairs(pairs, "est_permille", how="max")


def dup_pair_components(pairs_ds):
    """CC labeling of a near-dup pair table (``id_a, id_b``):
    zero-pad the non-negative integer ids to 20 digits (so the
    component algorithm's lexicographic min IS the numeric min) and
    run :func:`~.graph_algos.connected_components_join` (labels stay
    a Dataset). The shared prefix of :func:`near_dedup_dropped_ids`
    and :func:`leakage_safe_splits` — both accept the result via
    their ``comp_ds`` seam so one labeling can serve both (the gate
    does this; a production dedup job can too). ``pairs_ds`` must be
    non-empty."""
    from .graph_algos import connected_components_join

    def to_edges(batch: pa.Table) -> pa.Table:
        a = batch.column("id_a").to_pylist()
        b = batch.column("id_b").to_pylist()
        return pa.table(
            {
                "src": pa.array([f"{x:020d}" for x in a], pa.string()),
                "dst": pa.array([f"{x:020d}" for x in b], pa.string()),
            }
        )

    return connected_components_join(
        pairs_ds.map_batches(to_edges, batch_format="pyarrow")
    )


def near_dedup_dropped_ids(pairs_ds, *, id_col: str = "doc_id",
                           comp_ds=None):
    """Near-dup pair table (``id_a, id_b``) → the ids to DROP: connected
    components over the pair graph (:func:`dup_pair_components` —
    labels stay a Dataset, nothing corpus-scaled touches the driver),
    keeper = numeric-min id per component, dropped = every other
    member. ``comp_ds`` supplies a precomputed labeling (skips the CC
    run when the caller shares one across consumers).

    Ids must be non-negative integers. The pair table is materialized
    first (it is duplicate-pair-sized, orders of magnitude below the
    corpus) — the empty case then costs a metadata-only count instead
    of a join against an empty, schemaless dataset."""
    import ray.data

    if comp_ds is None:
        pairs_ds = pairs_ds.materialize()
        if pairs_ds.count() == 0:
            return ray.data.from_arrow(
                pa.table({id_col: pa.array([], pa.int64())})
            )
        comp = dup_pair_components(pairs_ds)
    else:
        comp = comp_ds

    def dropped(batch: pa.Table) -> pa.Table:
        out = [
            int(n)
            for n, c in zip(
                batch.column("node_id").to_pylist(),
                batch.column("component").to_pylist(),
            )
            if n != c
        ]
        return pa.table({id_col: pa.array(out, pa.int64())})

    return comp.map_batches(dropped, batch_format="pyarrow")


def near_dedup_corpus(
    docs_ds,
    *,
    threshold: float = 0.8,
    num_perm: int = 128,
    num_bands: int = 16,
    text_col: str = "text",
    id_col: str = "doc_id",
    pairs_ds=None,
    comp_ds=None,
):
    """Corpus → corpus near-dedup, the full loop users actually want:
    MinHash-LSH pairs → connected components → keep the min-id document
    of every duplicate cluster → anti-join the dropped ids back out.
    Returns the SURVIVING ids (single ``id_col`` column); join payload
    columns back by id downstream (never ship text through the dedup
    shuffles).

    ``pairs_ds`` overrides the pair source — e.g. the union of the
    cross-shard dedup job's per-shard and global pair tables
    (jobs/dedup_job.py --emit-survivors), where pairs were already
    computed next to the data."""
    if pairs_ds is None:
        pairs_ds = minhash_candidate_pairs(
            docs_ds, threshold=threshold, num_perm=num_perm,
            num_bands=num_bands, text_col=text_col, id_col=id_col,
        )
    # dropped is duplicate-cluster-sized — materializing it makes the
    # count metadata-only and lets the join partition count scale DOWN
    # for tiny inputs (an all-empty hash-join partition is built
    # schemaless by Ray and crashes pyarrow's key resolution)
    dropped = near_dedup_dropped_ids(
        pairs_ds, id_col=id_col, comp_ds=comp_ds
    ).materialize()
    n_dropped = dropped.count()
    if n_dropped == 0:
        return docs_ds.select_columns([id_col])
    return docs_ds.select_columns([id_col]).join(
        dropped,
        join_type="left_anti",
        num_partitions=max(
            1, min(max(2, cluster_cpus() // 4), n_dropped // 16 + 1)
        ),
        on=(id_col,),
    )


def leakage_safe_splits(
    docs_ds,
    *,
    threshold: float = 0.5,
    num_perm: int = 128,
    num_bands: int = 16,
    val_permille: int = 50,
    test_permille: int = 50,
    text_col: str = "text",
    id_col: str = "doc_id",
    pairs_ds=None,
    comp_ds=None,
):
    """Split-leakage repair: the deterministic train/val/test
    assignment (:func:`dataset_splits`) with the guarantee that every
    NEAR-DUPLICATE CLUSTER lands entirely in one split — the split of
    its keeper (min-id) document. Without this, a doc in train and its
    near-copy in test silently leaks eval data into training (the
    standard failure the dedup-before-split literature warns about).

    Shape: MinHash pairs → :func:`~.graph_algos.
    connected_components_join` (labels stay a Dataset) → each clustered
    doc's split recomputed in place as the pure md5 function of its
    KEEPER id (no join back to the base assignment needed), un-clustered
    docs keep their own md5 split via a Bloom-prefiltered anti-join —
    no corpus-sized state on the driver at any point. Output:
    (id_col, split).

    ``pairs_ds`` overrides the pair source exactly as in
    :func:`near_dedup_corpus` (e.g. the cross-shard job's pair table).
    """
    from .joins import bloom_anti_join

    if pairs_ds is None:
        pairs_ds = minhash_candidate_pairs(
            docs_ds, threshold=threshold, num_perm=num_perm,
            num_bands=num_bands, text_col=text_col, id_col=id_col,
        )
    base = dataset_splits(
        docs_ds.select_columns([id_col]),
        val_permille=val_permille, test_permille=test_permille,
        id_col=id_col,
    )
    if comp_ds is None:
        pairs_ds = pairs_ds.materialize()
        if pairs_ds.count() == 0:
            return base
        comp = dup_pair_components(pairs_ds)
    else:
        comp = comp_ds

    def decode_labels(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "member": pa.array(
                    [int(n)
                     for n in batch.column("node_id").to_pylist()],
                    pa.int64(),
                ),
                "keeper": pa.array(
                    [int(c)
                     for c in batch.column("component").to_pylist()],
                    pa.int64(),
                ),
            }
        )

    labels = comp.map_batches(decode_labels, batch_format="pyarrow")

    def keeper_split(batch: pa.Table) -> pa.Table:
        from ..functions.textstats import _md5_number_lower

        cut_val = val_permille
        cut_test = val_permille + test_permille
        buckets = [
            _md5_number_lower(f"split|{k}") % 1000
            for k in batch.column("keeper").to_pylist()
        ]
        return pa.table(
            {
                id_col: batch.column("member"),
                "split": pa.array(
                    [
                        "val" if b < cut_val
                        else "test" if b < cut_test
                        else "train"
                        for b in buckets
                    ],
                    pa.string(),
                ),
            }
        )

    # clustered docs: the keeper's split is the same pure md5 function
    # of the keeper id — recompute it in place instead of joining back
    # to `base` (one exchange fewer; bit-identical by construction)
    fixed = labels.map_batches(keeper_split, batch_format="pyarrow")
    members = labels.map_batches(
        lambda b: pa.table({"member": b.column("member")}),
        batch_format="pyarrow",
    )
    untouched = bloom_anti_join(
        lambda: base, members, on=id_col, right_on="member"
    )
    return untouched.union(fixed)


def _bucketed_signatures(docs_ds, *, num_perm, num_bands, text_col,
                         id_col, seed):
    """Shared LSH scaffold: MinHash signatures exploded to (id, band,
    band_hash, signature) rows — consumed by both the signature-verify
    and the exact-Jaccard pair pipelines."""
    return map_kernel(
        docs_ds, MinHashSignatures, num_perm=num_perm, seed=seed,
        text_col=text_col, id_col=id_col, num_bands=num_bands,
    )


def jaccard_verified_pairs(
    docs_ds,
    *,
    threshold: float = 0.5,
    num_perm: int = 128,
    num_bands: int = 16,
    text_col: str = "text",
    id_col: str = "doc_id",
    seed: int = 7,
):
    """MinHash-LSH candidates verified by EXACT n-gram Jaccard (the
    classic candidate→verify dedup pipeline: approximate recall from the
    bands, exact precision from the verify).

    The distinct candidate pairs are HASH-JOINED back to the documents
    table by id (two ``Dataset.join`` s with cluster-scaled partitions)
    — nothing corpus-sized touches the driver, so the path holds at
    100 TB.

    Emits ``jaccard_permille`` = (1000*|A∩B|)//|A∪B| over word-3-gram
    shingle sets; shingle arrays are memoized per verify batch (pairs
    arrive bucket-clustered, so hot docs repeat within a batch)."""
    sigs = _bucketed_signatures(
        docs_ds, num_perm=num_perm, num_bands=num_bands, text_col=text_col,
        id_col=id_col, seed=seed,
    )

    def part_candidates(group: pd.DataFrame) -> pd.DataFrame:
        a_ids, b_ids = [], []
        counts = group.groupby(["band", "band_hash"])[id_col].transform(
            "size"
        )
        group = group[counts >= 2]
        for _, bucket in group.groupby(["band", "band_hash"], sort=False):
            ids = sorted(set(bucket[id_col].to_list()))
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    a_ids.append(ids[i])
                    b_ids.append(ids[j])
        id_dtype = group[id_col].dtype  # typed even when empty
        return pd.DataFrame(
            {
                "id_a": pd.Series(a_ids, dtype=id_dtype),
                "id_b": pd.Series(b_ids, dtype=id_dtype),
                "one": pd.Series([1] * len(a_ids), dtype="int64"),
            }
        )

    cands = exchange(sigs, ["band", "band_hash"], part_candidates)
    distinct = distinct_pairs(cands, "one", how="max")

    # two hash joins back to the documents table — candidates are tiny
    # relative to the corpus, so each join ships only the matching
    # document rows; partitions scale with the cluster (~cpus/4
    # aggregator actors, see revenue_by_nation)
    num_partitions = max(2, cluster_cpus() // 4)

    def renamed(id_name: str, text_name: str):
        def proj(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    id_name: batch.column(id_col),
                    text_name: batch.column(text_col),
                }
            )

        return docs_ds.map_batches(proj, batch_format="pyarrow")

    paired = distinct.join(
        renamed("__jid_a", "__text_a"),
        join_type="inner",
        num_partitions=num_partitions,
        on=("id_a",),
        right_on=("__jid_a",),
    ).join(
        renamed("__jid_b", "__text_b"),
        join_type="inner",
        num_partitions=num_partitions,
        on=("id_b",),
        right_on=("__jid_b",),
    )

    def verify(batch: pa.Table) -> pa.Table:
        from ..functions.dedup import shingles

        a = batch.column("id_a").to_pylist()
        b = batch.column("id_b").to_pylist()
        ta = batch.column("__text_a").to_pylist()
        tb = batch.column("__text_b").to_pylist()
        memo: dict = {}  # per-batch shingle memo (hot docs repeat)

        def sh(doc_id, text):
            s = memo.get(doc_id)
            if s is None:
                s = shingles(text)
                memo[doc_id] = s
            return s

        keep, o_j = [], []
        for k in range(len(a)):
            sa = sh(a[k], ta[k])
            sb = sh(b[k], tb[k])
            inter = len(np.intersect1d(sa, sb, assume_unique=True))
            union = len(sa) + len(sb) - inter
            if union and inter / union >= threshold:
                keep.append(k)
                o_j.append((1000 * inter) // union)
        filtered = batch.take(pa.array(keep, pa.int64()))
        return pa.table(
            {
                "id_a": filtered.column("id_a"),  # keeps the id dtype
                "id_b": filtered.column("id_b"),
                "jaccard_permille": pa.array(o_j, pa.int64()),
            }
        )

    return paired.map_batches(verify, batch_format="pyarrow")


def top_terms(docs_ds, *, k: int = 20, text_col: str = "text",
              id_col: str = "doc_id"):
    """Corpus vocabulary stats: per-word DOCUMENT frequency, top-k by
    (df desc, word asc). Per-batch partial df (distinct words per doc) →
    coarse-partition merge → tiny global sort+limit."""

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        counts: Counter = Counter()
        for t in batch.column(text_col).to_pylist():
            counts.update(set(t.split()))
        words = sorted(counts)
        return pa.table(
            {
                "word": pa.array(words, pa.string()),
                "df": pa.array([counts[w] for w in words], pa.int64()),
            }
        )

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        # bytes group key — pandas' str hashtable truncates at embedded
        # NULs, merging distinct words from adversarial content
        group = group.assign(
            _k=[w.encode("utf-8") for w in group["word"]]
        )
        out = group.groupby("_k", as_index=False).agg(
            word=("word", "first"), df=("df", "sum")
        )
        return out.drop(columns=["_k"])

    return (
        exchange(docs_ds, "word", merge, combine=partial)
        .sort(["df", "word"], descending=[True, False])
        .limit(k)
    )


def corpus_freq_scores(docs_ds, *, text_col: str = "text",
                       id_col: str = "doc_id", scale: int = 1000,
                       num_parts: int | None = None):
    """Corpus-statistics document scoring — the CCNet-LM-filter shape
    with the corpus itself as the language model: each document scores
    ``floor(scale * mean corpus frequency of its token instances)``.
    Low scores flag rare-word/gibberish documents, high scores flag
    stopword soup; both tails are what a quality-filtering pass trims.

    Zero joins and zero broadcast: stage 1 explodes docs to
    ``(doc_id, token, n_in_doc)`` rows (per-doc combiner inside the
    batch) and coarse-partitions BY TOKEN, so every instance of a token
    lands in the part that can compute that token's GLOBAL corpus count
    from the very rows it holds (a groupby-transform, no count table is
    ever built or shipped); stage 2 re-partitions the per-(doc, token)
    contributions by doc and folds them to the integer score. Two
    all-to-all exchanges of pre-combined rows — the count side never
    exists as a separate dataset, so there is nothing to broadcast at
    any corpus size. Hot tokens concentrate instances in one part
    (vectorized kernel, same documented tradeoff as duplicate_spans).

    Integer-exact end to end: counts are int64, the score is
    ``(sum * scale) // n`` (floor division on positives — DuckDB ``//``
    parity). Token rule: Python ``str.split()`` mirrored by the
    ``_SQL_WORDS`` fragment (same proven pair as :func:`top_terms`).
    Zero-token documents are absent from the output on both engines."""

    def explode(batch: pa.Table) -> pa.Table:
        from collections import Counter

        ids, toks, ns = [], [], []
        for i, t in zip(
            batch.column(id_col).to_pylist(),
            batch.column(text_col).to_pylist(),
        ):
            for w, n in Counter((t or "").split()).items():
                ids.append(i)
                toks.append(w)
                ns.append(n)
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "tok": pa.array(toks, pa.string()),
                "n": pa.array(ns, pa.int64()),
            }
        )

    def per_token_part(g: pd.DataFrame) -> pd.DataFrame:
        # bytes key: pandas' str hashtable truncates at embedded NULs
        key = pd.Series(
            [w.encode("utf-8") for w in g["tok"]], index=g.index
        )
        cnt = g["n"].groupby(key).transform("sum")  # global corpus count
        out = pd.DataFrame(
            {
                id_col: g[id_col],
                "s": g["n"] * cnt,
                "n": g["n"],
            }
        )
        return out.groupby(id_col, as_index=False).agg(
            s=("s", "sum"), n=("n", "sum")
        )

    def per_doc_part(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(id_col, as_index=False).agg(
            s=("s", "sum"), n=("n", "sum")
        )
        out["freq_score"] = (out["s"] * scale) // out["n"]
        return out[[id_col, "freq_score"]]

    per_tok = exchange(docs_ds, "tok", per_token_part, combine=explode,
                       num_parts=num_parts)
    return exchange(per_tok, id_col, per_doc_part, num_parts=num_parts)


def importance_weights(docs_ds, *, target_lang: str = "en",
                       lang_col: str = "lang", text_col: str = "text",
                       id_col: str = "doc_id", scale: int = 1_000_000,
                       num_parts: int | None = None):
    """DSIR-shaped importance weighting (Xie et al. 2023, "Data
    Selection for Language Models via Importance Resampling"): score
    every document by how target-domain-like its unigrams are, where
    the target domain is the corpus slice with ``lang == target_lang``
    and the proposal distribution is the whole corpus. High-weight
    documents are the resampling candidates when curating a
    domain-focused training mix from a general crawl.

    Same join-free groupby-transform shape as
    :func:`corpus_freq_scores`: stage 1 explodes docs to per-(doc,
    token) count rows — carrying ``nt`` = the count if the doc is a
    target-domain doc else 0 — and coarse-partitions BY TOKEN, so each
    part computes every token's global target count and corpus count
    from the rows it already holds (no count table is built, shipped,
    or broadcast at any corpus size); stage 2 re-partitions by doc and
    folds to the integer weight. Two all-to-all exchanges of
    pre-combined rows.

    Integer-exact end to end (DuckDB ``//`` parity): per-(doc, token)
    contribution is ``n * ((t_cnt * scale) // c_cnt)`` and the doc
    weight is ``(sum of contributions) // n_tokens``. Tokens absent
    from the target slice contribute 0; ``t_cnt <= c_cnt`` always, so
    weights live in ``[0, scale]``. Zero-token docs are absent from
    the output on both engines."""

    def explode(batch: pa.Table) -> pa.Table:
        from collections import Counter

        ids, toks, ns, nts = [], [], [], []
        for i, t, lg in zip(
            batch.column(id_col).to_pylist(),
            batch.column(text_col).to_pylist(),
            batch.column(lang_col).to_pylist(),
        ):
            is_target = lg == target_lang
            for w, n in Counter((t or "").split()).items():
                ids.append(i)
                toks.append(w)
                ns.append(n)
                nts.append(n if is_target else 0)
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "tok": pa.array(toks, pa.string()),
                "n": pa.array(ns, pa.int64()),
                "nt": pa.array(nts, pa.int64()),
            }
        )

    def per_token_part(g: pd.DataFrame) -> pd.DataFrame:
        # bytes key: pandas' str hashtable truncates at embedded NULs
        key = pd.Series(
            [w.encode("utf-8") for w in g["tok"]], index=g.index
        )
        c_cnt = g["n"].groupby(key).transform("sum")
        t_cnt = g["nt"].groupby(key).transform("sum")
        out = pd.DataFrame(
            {
                id_col: g[id_col],
                "s": g["n"] * ((t_cnt * scale) // c_cnt),
                "n": g["n"],
            }
        )
        return out.groupby(id_col, as_index=False).agg(
            s=("s", "sum"), n=("n", "sum")
        )

    def per_doc_part(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(id_col, as_index=False).agg(
            s=("s", "sum"), n=("n", "sum")
        )
        out["weight_ppm"] = out["s"] // out["n"]
        return out[[id_col, "weight_ppm"]]

    per_tok = exchange(docs_ds, "tok", per_token_part, combine=explode,
                       num_parts=num_parts)
    return exchange(per_tok, id_col, per_doc_part, num_parts=num_parts)


def length_quantiles(docs_ds, *, quantiles=(0.5, 0.9, 0.99),
                     text_col: str = "text"):
    """EXACT word-length quantiles via distributed counting: per-batch
    value-counts of n_words (bounded domain) → one small groupby → the
    quantile walk over the merged histogram. percentile_disc semantics
    (smallest value whose cumulative count reaches ceil(q*N)), matching
    DuckDB. No sort of the corpus — the histogram is O(distinct lengths).
    """
    import math

    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        counts: Counter = Counter(
            len(t.split()) for t in batch.column(text_col).to_pylist()
        )
        return pa.table(
            {
                "n_words": pa.array(sorted(counts), pa.int64()),
                "n": pa.array(
                    [counts[v] for v in sorted(counts)], pa.int64()
                ),
            }
        )

    hist = (
        docs_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("n_words")
        .aggregate(Sum("n", alias_name="n"))
        .sort("n_words")
        .take_all()  # O(distinct lengths) rows — a true small result
    )
    total = sum(r["n"] for r in hist)
    out_q, out_v = [], []
    for q in quantiles:
        target = max(1, math.ceil(q * total))
        cum = 0
        val = hist[-1]["n_words"] if hist else 0
        for r in hist:
            cum += r["n"]
            if cum >= target:
                val = r["n_words"]
                break
        out_q.append(int(round(q * 100)))
        out_v.append(int(val))
    return pa.table(
        {
            "q_percent": pa.array(out_q, pa.int64()),
            "n_words": pa.array(out_v, pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# SimHash near-dup


def simhash_signatures(docs_ds, *, text_col: str = "text",
                       id_col: str = "doc_id"):
    """64-bit SimHash exploded to (id, band, band_key, simhash) rows —
    4x16-bit bands (any pair within Hamming distance 3 shares at least
    one exact band). Shared by the one-shot :func:`simhash_pairs` and
    the dedup job's cross-shard global stage."""

    def sig_batch(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        out_id, out_band, out_key, out_sig = [], [], [], []
        for i, t in zip(ids, texts):
            h = simhash64(t)
            for band in range(4):
                key = (h >> (band * 16)) & 0xFFFF
                out_id.append(i)
                out_band.append(band)
                out_key.append(key)
                out_sig.append(h)
        return pa.table(
            {
                id_col: pa.array(out_id),
                "band": pa.array(out_band, pa.int32()),
                "band_key": pa.array(out_key, pa.int64()),
                "simhash": pa.array(out_sig, pa.uint64()),
            }
        )

    return docs_ds.map_batches(sig_batch, batch_format="pyarrow")


def simhash_band_pairs(sig_ds, *, max_hamming: int = 3,
                       id_col: str = "doc_id"):
    """Verified pairs from an EXISTING simhash signature table (columns
    ``id_col, band, band_key, simhash``) — the cross-shard GLOBAL stage
    (jobs/dedup_job.py): each of the 4 bands is an independent,
    resumable global partition; this handles one such slice (a
    band-filtered parquet read works as is)."""
    return _verify_simhash_pairs(
        sig_ds, max_hamming=max_hamming, id_col=id_col
    )


def simhash_pairs(
    docs_ds,
    *,
    max_hamming: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """64-bit SimHash; candidate buckets via 4x16-bit bands, then exact
    Hamming verify in-bucket.

    Scale shape: ``exchange`` on ``(band, band_key)`` with a part count
    scaled to the cluster (see :func:`minhash_candidate_pairs`) — never
    a 4-group ``groupby(band)`` that would funnel a quarter of the corpus's
    signatures into one task."""
    return _verify_simhash_pairs(
        simhash_signatures(docs_ds, text_col=text_col, id_col=id_col),
        max_hamming=max_hamming, id_col=id_col,
    )


def _verify_simhash_pairs(sigs, *, max_hamming, id_col):
    """Shared bucket verify: ``exchange`` on the bucket, then a
    vectorized XOR + popcount matrix per bucket."""

    def band_pairs(group: pd.DataFrame) -> pd.DataFrame:
        # vectorized in-bucket verify: XOR matrix + popcount via unpackbits
        # (clustered corpora produce buckets of hundreds of docs — a Python
        # pair loop goes quadratic in interpreter time)
        frames = []
        counts = group.groupby(["band", "band_key"])[id_col].transform(
            "size"
        )
        group = group[counts >= 2]
        for _, bucket in group.groupby(["band", "band_key"], sort=False):
            rows = bucket.drop_duplicates(subset=[id_col]).sort_values(
                id_col
            )
            ids = np.asarray(rows[id_col].to_list())
            sigs = np.asarray(rows["simhash"].to_list(), dtype=np.uint64)
            xor = sigs[:, None] ^ sigs[None, :]
            dist = np.unpackbits(
                xor.view(np.uint8).reshape(xor.shape + (8,)), axis=-1
            ).sum(axis=-1)
            ii, jj = np.nonzero(np.triu(dist <= max_hamming, k=1))
            if len(ii):
                frames.append(
                    pd.DataFrame(
                        {
                            "id_a": ids[ii],
                            "id_b": ids[jj],
                            "hamming": dist[ii, jj].astype(np.int64),
                        }
                    )
                )
        if not frames:
            return pd.DataFrame(
                {
                    "id_a": pd.Series(dtype="int64"),
                    "id_b": pd.Series(dtype="int64"),
                    "hamming": pd.Series(dtype="int64"),
                }
            )
        return pd.concat(frames, ignore_index=True)

    pairs = exchange(sigs, ["band", "band_key"], band_pairs)
    return distinct_pairs(pairs, "hamming", how="min")


# ---------------------------------------------------------------------------
# similarity search over embeddings


def ann_topk(
    emb_ds,
    query: np.ndarray,
    k: int = 10,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
):
    """Brute-force cosine top-k: per-batch numpy matmul → per-batch partial
    top-k rows → tiny final sort/limit. The query vector is captured in the
    task closure (one object-store copy, not per batch)."""
    qn = query.astype(np.float64)
    qn = qn / (np.linalg.norm(qn) or 1.0)

    def partial(batch: pa.Table) -> pa.Table:
        mat = np.array(batch.column(vec_col).to_pylist(), dtype=np.float64)
        ids = np.array(batch.column(id_col).to_pylist())
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        sims = (mat @ qn) / norms
        order = np.lexsort((ids, -sims))[:k]
        return pa.table(
            {
                id_col: pa.array(ids[order]),
                "cosine": pa.array(sims[order], pa.float64()),
            }
        )

    partials = emb_ds.map_batches(partial, batch_format="pyarrow")
    top = partials.sort(["cosine", id_col], descending=[True, False]).limit(k)
    return top


def auto_num_planes(corpus_size: int, target_bucket: int = 64,
                    min_planes: int = 4, max_planes: int = 24) -> int:
    """Planes per LSH table sized to the corpus: 2^planes buckets/table,
    so planes = ceil(log2(N / target_bucket)) keeps expected bucket
    occupancy ~target_bucket as N grows — at 100 TB the verify stays a
    bounded in-bucket matmul instead of a corpus-sized bucket. Callers
    pass a cheap ``count()`` or a corpus-size hint."""
    import math

    if corpus_size <= target_bucket:
        return min_planes
    return max(
        min_planes,
        min(max_planes, math.ceil(math.log2(corpus_size / target_bucket))),
    )


class LSHBucketer:
    """Random-hyperplane LSH with L tables of P planes each (the kernel
    holds the projection matrices, built once per worker process by
    :func:`.extract.map_kernel`). A vector lands in L buckets; a pair at
    angle θ collides in at least one table with prob 1-(1-(1-θ/π)^P)^L —
    recall/precision is tuned with (P, L). Multi-table = the scale path
    for approximate cosine search and near-dup. Size P with
    :func:`auto_num_planes` so buckets stay bounded as the corpus grows.

    Emits ONLY (id_col, vec_col, table, bucket) — the ×L replication must
    never ship payload columns into the bucket shuffle (a caller with a
    text/metadata column would otherwise pay L copies of it); join payload
    back by id after the verify."""

    def __init__(self, dim: int = 64, num_planes: int = 4,
                 num_tables: int = 6, seed: int = 11,
                 id_col: str = "vec_id", vec_col: str = "embedding"):
        rng = np.random.RandomState(seed)
        self.planes = [
            rng.randn(num_planes, dim) for _ in range(num_tables)
        ]
        self.num_planes = num_planes
        self.id_col = id_col
        self.vec_col = vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        mat = np.array(
            batch.column(self.vec_col).to_pylist(), dtype=np.float64
        )
        n = mat.shape[0]
        ids = batch.column(self.id_col).to_pylist()
        vecs = batch.column(self.vec_col).to_pylist()
        out_ids, out_vecs, tables, buckets = [], [], [], []
        for t, planes in enumerate(self.planes):
            bits = (mat @ planes.T) > 0
            bucket = (bits * (1 << np.arange(self.num_planes))).sum(axis=1)
            out_ids.extend(ids)
            out_vecs.extend(vecs)
            tables.extend([t] * n)
            buckets.extend(bucket.tolist())
        return pa.table(
            {
                self.id_col: pa.array(out_ids),
                self.vec_col: pa.array(out_vecs),
                "table": pa.array(tables, pa.int32()),
                "bucket": pa.array(buckets, pa.int64()),
            }
        )


def seeded_reservoir_sample(
    ds,
    sample_size: int,
    *,
    seed: int = 17,
    id_col: str = "vec_id",
):
    """Distributed deterministic reservoir: each row's priority is
    ``md5(seed|id)`` and the sample is the ``sample_size`` rows with the
    smallest priorities — a pure function of (seed, row ids), so the
    result is identical under any partitioning, cluster size, retry, or
    resume (the same content-addressed rule as
    :func:`deterministic_sample`, in bottom-k form for a fixed-size
    sample). Scale shape: per-batch partial bottom-k → tiny global
    sort/limit; the driver never sees more than ``sample_size`` rows.
    Ties (md5 collisions) break on the id for a total order."""
    from ..functions.textstats import _md5_number_lower

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        # 63-bit mask: the priority must fit a SIGNED int64 column with
        # ordering identical to the unsigned hash (a uint64→int64 wrap
        # would reorder the global sort vs the in-batch bottom-k)
        prio = np.array(
            [
                _md5_number_lower(f"{seed}|{i}") & ((1 << 63) - 1)
                for i in ids
            ],
            dtype=np.int64,
        )
        order = np.lexsort((np.array(ids), prio))[:sample_size]
        return batch.take(order).append_column(
            "_prio", pa.array(prio[order], pa.int64())
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .sort(["_prio", id_col])
        .limit(sample_size)
        .drop_columns(["_prio"])
    )


def ivf_centroids(
    emb_ds,
    num_centroids: int = 16,
    sample_size: int = 2048,
    seed: int = 17,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> np.ndarray:
    """Deterministic IVF centroid training: seeded init + fixed Lloyd
    iterations over a bounded driver-side sample. The sample is the
    content-addressed :func:`seeded_reservoir_sample` — deterministic
    given (seed, corpus) regardless of partitioning or cluster size, and
    the driver holds only ``sample_size`` vectors; centroids stay tiny
    and broadcast. Split out of :func:`ivf_build` so a persisted-index
    job (jobs/ann_job.py) can train once over the full corpus and then
    assign shard-by-shard with :func:`ivf_assign`."""
    sample_rows = seeded_reservoir_sample(
        emb_ds, sample_size, seed=seed, id_col=id_col
    ).take_all()
    sample = np.array([r[vec_col] for r in sample_rows], dtype=np.float64)
    norms = np.linalg.norm(sample, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    sample = sample / norms
    rng = np.random.RandomState(seed)
    centroids = sample[rng.choice(len(sample), num_centroids, replace=False)]
    for _ in range(5):  # fixed Lloyd iterations → deterministic
        assign = (sample @ centroids.T).argmax(axis=1)
        for c in range(num_centroids):
            members = sample[assign == c]
            if len(members):
                v = members.mean(axis=0)
                n = np.linalg.norm(v)
                centroids[c] = v / n if n else centroids[c]
    return centroids


def ivf_assign(emb_ds, centroids: np.ndarray, vec_col: str = "embedding"):
    """Append an ``ivf_bucket`` column: nearest (cosine) centroid per
    row, computed as one batch matmul against the broadcast centroid
    matrix (``ray.put`` once, read in every task)."""
    import ray

    cent_ref = ray.put(np.asarray(centroids, dtype=np.float64))

    def assign_bucket(batch: pa.Table) -> pa.Table:
        cents = ray.get(cent_ref)
        mat = np.array(batch.column(vec_col).to_pylist(), dtype=np.float64)
        nrm = np.linalg.norm(mat, axis=1, keepdims=True)
        nrm[nrm == 0] = 1.0
        buckets = ((mat / nrm) @ cents.T).argmax(axis=1)
        return batch.append_column(
            "ivf_bucket", pa.array(buckets, pa.int64())
        )

    return emb_ds.map_batches(assign_bucket, batch_format="pyarrow")


def ivf_build(
    emb_ds,
    num_centroids: int = 16,
    sample_size: int = 2048,
    seed: int = 17,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
):
    """IVF index build: :func:`ivf_centroids` (deterministic k-means over
    a bounded sample) → centroid matrix + the dataset with an
    ``ivf_bucket`` assignment column (:func:`ivf_assign` against the
    broadcast centroids)."""
    centroids = ivf_centroids(
        emb_ds, num_centroids, sample_size, seed,
        vec_col=vec_col, id_col=id_col,
    )
    return centroids, ivf_assign(emb_ds, centroids, vec_col=vec_col)


def ivf_search(
    bucketed_ds,
    centroids: np.ndarray,
    query: np.ndarray,
    k: int = 10,
    nprobe: int = 4,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
):
    """Search only the ``nprobe`` nearest centroid buckets (row pruning
    before the matmul), then brute-force top-k within them."""
    qn = query.astype(np.float64)
    qn = qn / (np.linalg.norm(qn) or 1.0)
    probe = np.argsort(-(centroids @ qn))[:nprobe].tolist()
    probe_set = set(int(b) for b in probe)

    def in_probe(batch: pa.Table) -> pa.Table:
        mask = [int(b) in probe_set for b in batch.column("ivf_bucket").to_pylist()]
        return batch.filter(pa.array(mask))

    pruned = bucketed_ds.map_batches(in_probe, batch_format="pyarrow")
    return ann_topk(pruned, query, k, vec_col=vec_col, id_col=id_col)


def embedding_dup_pairs_exact(
    emb_ds,
    ref_ids: np.ndarray,
    ref_mat: np.ndarray,
    *,
    threshold: float = 0.3,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
):
    """EXACT all-pairs cosine near-dup (the baseline an approximate method
    is measured against): the (id, vector) reference matrix is broadcast
    once via ``ray.put`` and every batch computes its own rows against it —
    the O(N^2) work distributes across tasks as O(batch x N) matmuls.

    Emits ``cosine_centi`` as FLOOR(cos*100 + 0.5) — the repo's standard
    integer-cents rule. Plain floor(cos*100) is NOT bit-reproducible
    against DuckDB: for exact-duplicate vectors numpy yields cos=1.0
    while list_cosine_similarity can yield 0.9999999999999998 (measured
    on 79/200 duplicated vectors), flipping 100 vs 99 at the floor
    boundary; the +0.5 rounding keeps both sides at 100. Exact-but-
    quadratic by design: use :func:`embedding_near_dup_pairs` (LSH) as
    the 100-TB scale path — this one caps at a broadcastable reference
    matrix.

    ``threshold``: pair membership is decided on the ROUNDED value —
    ``floor(cos*100 + 0.5) >= round(threshold*100)`` — not on the raw
    ``cos >= threshold``. This admits cosines up to half a centi below
    the nominal threshold (e.g. cosine 0.795 passes threshold 0.8); the
    trade is engine-reproducibility (numpy vs DuckDB raw doubles differ
    by ~2e-16 at the boundary)."""
    import ray

    norms = np.linalg.norm(ref_mat, axis=1)
    norms[norms == 0] = 1.0
    ref = ray.put((np.asarray(ref_ids), ref_mat, norms))
    # threshold on the ROUNDED integer, not the raw double: numpy and
    # DuckDB disagree by ~2e-16 on raw cosines, which can flip pair
    # membership at the boundary; the centi value is the reproducible one
    thr_centi = int(round(threshold * 100))

    def pairs(batch: pa.Table) -> pa.Table:
        ids_b, mat_b, norms_b = ray.get(ref)
        ids_a = np.array(batch.column(id_col).to_pylist())
        mat_a = np.array(batch.column(vec_col).to_pylist(), dtype=np.float64)
        norms_a = np.linalg.norm(mat_a, axis=1)
        norms_a[norms_a == 0] = 1.0
        sims = (mat_a @ mat_b.T) / np.outer(norms_a, norms_b)
        centi = np.floor(sims * 100 + 0.5)
        ii, jj = np.nonzero(
            (centi >= thr_centi) & (ids_a[:, None] < ids_b[None, :])
        )
        return pa.table(
            {
                "id_a": pa.array(ids_a[ii], pa.int64()),
                "id_b": pa.array(ids_b[jj], pa.int64()),
                "cosine_centi": pa.array(
                    centi[ii, jj].astype(np.int64), pa.int64()
                ),
            }
        )

    return emb_ds.map_batches(pairs, batch_format="pyarrow")


def embedding_near_dup_pairs(
    emb_ds,
    *,
    threshold: float = 0.3,
    dim: int = 64,
    id_col: str = "vec_id",
    num_planes: int | None = None,
    num_tables: int = 12,
    corpus_size: int | None = None,
):
    """Embedding-cosine near-dup, the approximate SCALE path: multi-table
    hyperplane LSH bucketing (a ``map_kernel`` task stage) → in-bucket
    pairwise cosine ≥ threshold → distinct pairs across tables.
    (num_planes, num_tables) set the recall/cost point.

    ``num_planes=None`` (default) auto-scales with the corpus via
    :func:`auto_num_planes`: from ``corpus_size`` if the caller already
    knows it, else the dataset is ``materialize()``d and counted —
    materializing first means the upstream pipeline executes ONCE (the
    count is then metadata-only and the bucketing pass reuses the pinned
    blocks; a bare ``count()`` would run any non-trivial upstream twice).
    Callers at scales where pinning the embedding table is unwanted
    should pass ``corpus_size`` (or an explicit ``num_planes``; the
    SQL-oracled query entry fixes the geometry that way).

    Scale shape: ``exchange`` on ``(table, bucket)`` with a part count
    scaled to the cluster (see :func:`minhash_candidate_pairs`); the in-bucket
    verify is one vectorized upper-triangle matmul, not a Python pair
    loop.

    ``threshold``: as in :func:`embedding_dup_pairs_exact`, membership
    is ``floor(cos*100 + 0.5) >= round(threshold*100)`` rather than raw
    ``cos >= threshold`` — up to half a centi wider than the nominal
    threshold, in exchange for engine-reproducible decisions."""
    if num_planes is None:
        if corpus_size is None:
            emb_ds = emb_ds.materialize()  # execute upstream once
            corpus_size = emb_ds.count()
        num_planes = auto_num_planes(int(corpus_size))
    thr_centi = int(round(threshold * 100))

    def bucket_pairs(part_group: pd.DataFrame) -> pd.DataFrame:
        frames = []
        counts = part_group.groupby(["table", "bucket"])[id_col].transform(
            "size"
        )
        part_group = part_group[counts >= 2]
        for _, group in part_group.groupby(["table", "bucket"], sort=False):
            rows = group.drop_duplicates(subset=[id_col]).sort_values(id_col)
            ids = np.asarray(rows[id_col].to_list())
            mat = np.array(rows["embedding"].to_list(), dtype=np.float64)
            norms = np.linalg.norm(mat, axis=1)
            norms[norms == 0] = 1.0
            mat = mat / norms[:, None]
            sims = mat @ mat.T
            ii, jj = np.nonzero(
                np.triu(np.floor(sims * 100 + 0.5) >= thr_centi, k=1)
            )
            if len(ii):
                frames.append(
                    pd.DataFrame(
                        {
                            "id_a": ids[ii],
                            "id_b": ids[jj],
                            "cosine": sims[ii, jj].astype(np.float64),
                        }
                    )
                )
        if not frames:
            return pd.DataFrame(
                {
                    "id_a": pd.Series(dtype="int64"),
                    "id_b": pd.Series(dtype="int64"),
                    "cosine": pd.Series(dtype="float64"),
                }
            )
        return pd.concat(frames, ignore_index=True)

    bucketed = map_kernel(
        emb_ds, LSHBucketer, dim=dim, num_planes=num_planes,
        num_tables=num_tables, id_col=id_col,
    )
    pairs = exchange(bucketed, ["table", "bucket"], bucket_pairs)
    return distinct_pairs(pairs, "cosine", how="max")


def grouped_topk(ds, *, group_cols, sort_cols, descending, k: int,
                 num_parts: int | None = None):
    """Top-k rows per group, the scale shape: a per-batch COMBINER
    (local sort + head(k) per group — shuffle moves at most k rows per
    group per input batch) feeding an ``exchange`` on the group columns
    (~4x cluster cores parts) with the identical vectorized kernel as
    the finisher — never one Ray group per distinct key.

    ``sort_cols``/``descending`` must define a TOTAL order (include a
    unique column) or the surviving rows depend on partitioning."""
    ascending = [not d for d in descending]

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        # group on the injective bytes key, NOT the str columns — the
        # str hashtable truncates at embedded NULs and would merge
        # distinct groups (the measured composite_key_bytes hazard)
        out = (
            df.assign(__gk=composite_key_bytes(*[df[c] for c in group_cols]))
            .sort_values(sort_cols, ascending=ascending, kind="mergesort")
            .groupby("__gk", sort=False)
            .head(k)
            .drop(columns="__gk")
        )
        return out

    return exchange(
        ds.map_batches(local_topk, batch_format="pandas", batch_size=65536),
        group_cols, local_topk, num_parts=num_parts,
    )


def kmv_distinct_sketch(ds, col: str, *, k: int = 256):
    """K-minimum-values distinct-count sketch: keep the k smallest
    DISTINCT md5 hashes of the column; estimate
    ``(k-1) * 2^64 // h_k`` from the kth smallest, or the exact
    distinct count when fewer than k hashes survive.

    Unlike probabilistic sketches seeded per run, the hash is the
    repo-standard deterministic md5 (``_md5_number_lower`` ==
    DuckDB's ``md5_number_lower``), so the estimate is bit-reproducible
    across cluster sizes/retries AND SQL-mirrorable — the oracle
    replicates it exactly. Shape: per-batch partial (<= k rows out per
    batch, so the merge input is sketch-sized regardless of corpus
    size) -> one merge (``exchange_per_key`` on a constant key) -> a
    single {n_distinct_est} row.
    Values are hashed via ``str(v)``; null-free input expected."""
    from ..functions.textstats import _md5_number_lower

    def partial(batch: pa.Table) -> pa.Table:
        vals = set(batch.column(col).to_pylist())
        hs = sorted(_md5_number_lower(str(v)) for v in vals)[:k]
        return pa.table(
            {
                "hv": pa.array(hs, pa.uint64()),
                "g": pa.array([0] * len(hs), pa.int64()),
            }
        )

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        hs = sorted(set(int(h) for h in df["hv"]))
        if len(hs) >= k:
            est = min((k - 1) * (1 << 64) // hs[k - 1], 2**63 - 1)
        else:
            est = len(hs)
        return pd.DataFrame({"n_distinct_est": [est]}).astype("int64")

    out = exchange_per_key(
        ds.map_batches(partial, batch_format="pyarrow"), "g", merge
    ).materialize()  # sketch-sized (one row, or zero on empty input)
    if out.count() == 0:
        # zero input rows: the merge group never ran — still honor the
        # one-row contract (the SQL oracle's scalar CASE always emits one)
        import ray.data

        return ray.data.from_arrow(
            pa.table({"n_distinct_est": pa.array([0], pa.int64())})
        )
    return out


# ---------------------------------------------------------------------------
# count-min sketch heavy hitters


def cms_heavy_hitters(docs_ds, *, threshold: int, depth: int = 4,
                      width: int = 1024, text_col: str = "text",
                      num_parts: int | None = None):
    """Heavy hitters via a count-min sketch (Cormode & Muthukrishnan
    2005): terms whose CMS ESTIMATE of total occurrences is >=
    ``threshold``. Estimates never undercount, so the output is a
    superset of the true heavy hitters with error bounded by
    corpus_size * e/width per the usual CMS bound.

    Deterministic and oracle-reproducible: row j's bucket for a term is
    ``md5_number_lower(f"cms{j}|{term}") % width`` (DuckDB computes the
    identical value).

    100-TB shape: the sketch is the WHOLE reduction — per-batch local
    term counts fold into (cell, count) partials with at most
    depth*width distinct cells, the final aggregate has depth*width
    (fixed, e.g. 4096) groups, and the finished sketch is broadcast via
    ``ray.put`` for the estimate pass. The only term-cardinality shuffle
    is the distinct-term dedup (``exchange`` on the term, vectorized
    per-part drop_duplicates)."""
    from collections import Counter

    import numpy as np
    import ray
    from ray.data.aggregate import Sum

    from ..functions.textstats import _md5_number_lower

    def cell_partial(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        for t in batch.column(text_col).to_pylist():
            counts.update(t.split())
        cells: Counter = Counter()
        for term, c in counts.items():
            for j in range(depth):
                b = _md5_number_lower(f"cms{j}|{term}") % width
                cells[j * width + b] += c
        ks = sorted(cells)
        return pa.table(
            {
                "cell": pa.array(ks, pa.int64()),
                "cnt": pa.array([cells[k] for k in ks], pa.int64()),
            }
        )

    sketch_rows = (
        docs_ds.map_batches(cell_partial, batch_format="pyarrow")
        .groupby("cell")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .take_all()  # bounded: at most depth*width rows
    )
    sketch = np.zeros(depth * width, dtype=np.int64)
    for r in sketch_rows:
        sketch[r["cell"]] = r["cnt"]
    sketch_ref = ray.put(sketch)

    def term_partial(batch: pa.Table) -> pa.Table:
        terms = set()
        for t in batch.column(text_col).to_pylist():
            terms.update(t.split())
        return pa.table({"term": pa.array(sorted(terms), pa.string())})

    def dedup(group: pd.DataFrame) -> pd.DataFrame:
        group = group.assign(_k=[w.encode("utf-8") for w in group["term"]])
        return group.drop_duplicates("_k")[["term"]].reset_index(drop=True)

    def estimate(batch: pa.Table) -> pa.Table:
        sk = ray.get(sketch_ref)
        terms = batch.column("term").to_pylist()
        est = [
            int(
                min(
                    sk[j * width + _md5_number_lower(f"cms{j}|{t}") % width]
                    for j in range(depth)
                )
            )
            for t in terms
        ]
        out = pa.table(
            {
                "term": pa.array(terms, pa.string()),
                "cms_estimate": pa.array(est, pa.int64()),
            }
        )
        import pyarrow.compute as pc

        return out.filter(
            pc.greater_equal(out.column("cms_estimate"), threshold)
        )

    return exchange(
        docs_ds, "term", dedup, combine=term_partial, num_parts=num_parts
    ).map_batches(estimate, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# order-invariant table checksum

_CHECKSUM_MOD = 999999999989  # prime < 2^40: per-batch partials stay
# far below int64 even when the final Sum folds ~2^20 block partials


def table_checksum(ds, cols: list, *, num_blocks: int | None = None):
    """Order-invariant content checksum for migration / resumable-write
    validation: ``SUM(md5_number_lower(col1||'|'||col2...) & (2^63-1))
    % 999999999989`` plus the row count, one row out. Addition is
    commutative so the result is independent of partitioning, task
    order and retries; per-batch partials are reduced mod a <2^40 prime
    so the final int64 Sum cannot overflow at any block count."""
    from ray.data.aggregate import Sum

    from ..functions.textstats import _FP_MASK, _md5_number_lower

    def partial(batch: pa.Table) -> pa.Table:
        arrays = [batch.column(c).to_pylist() for c in cols]
        s = 0
        for vals in zip(*arrays):
            key = "|".join("" if v is None else str(v) for v in vals)
            s += _md5_number_lower(key) & _FP_MASK
        return pa.table(
            {
                "n_rows": pa.array([batch.num_rows], pa.int64()),
                "checksum": pa.array([s % _CHECKSUM_MOD], pa.int64()),
            }
        )

    agg = ds.map_batches(partial, batch_format="pyarrow").aggregate(
        Sum("n_rows", alias_name="n_rows"),
        Sum("checksum", alias_name="checksum"),
    )
    return pd.DataFrame(
        {
            "n_rows": [int(agg["n_rows"] or 0)],
            "checksum": [int(agg["checksum"] or 0) % _CHECKSUM_MOD],
        }
    )


def grouped_length_quantiles(docs_ds, *, group_col: str = "lang",
                             quantiles=(0.5, 0.9), text_col: str = "text"):
    """EXACT per-group word-length quantiles (percentile_disc semantics,
    matching DuckDB: smallest value whose in-group cumulative count
    reaches ceil(q*N)) via the bounded-domain histogram trick: the only
    aggregate is over (group, n_words) — O(groups × distinct lengths)
    cells regardless of corpus size — and the quantile walk runs on that
    small table. No per-group value shuffle, no corpus sort, no skew
    exposure on hot groups."""
    import math
    from collections import Counter

    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter(
            (g, len(t.split()))
            for g, t in zip(
                batch.column(group_col).to_pylist(),
                batch.column(text_col).to_pylist(),
            )
        )
        ks = sorted(counts)
        return pa.table(
            {
                group_col: pa.array([k[0] for k in ks], pa.string()),
                "n_words": pa.array([k[1] for k in ks], pa.int64()),
                "n": pa.array([counts[k] for k in ks], pa.int64()),
            }
        )

    hist = (
        docs_ds.map_batches(partial, batch_format="pyarrow")
        .groupby([group_col, "n_words"])
        .aggregate(Sum("n", alias_name="n"))
        .sort([group_col, "n_words"])
        .take_all()  # O(groups × distinct lengths): a true small result
    )
    by_group: dict = {}
    for r in hist:
        by_group.setdefault(r[group_col], []).append((r["n_words"], r["n"]))
    out_g, out_q, out_v = [], [], []
    for g in sorted(by_group):
        rows = by_group[g]
        total = sum(n for _, n in rows)
        for q in quantiles:
            target = max(1, math.ceil(q * total))
            cum = 0
            val = rows[-1][0]
            for v, n in rows:
                cum += n
                if cum >= target:
                    val = v
                    break
            out_g.append(g)
            out_q.append(int(round(q * 100)))
            out_v.append(int(val))
    return pa.table(
        {
            group_col: pa.array(out_g, pa.string()),
            "q_percent": pa.array(out_q, pa.int64()),
            "n_words": pa.array(out_v, pa.int64()),
        }
    )


def quality_buckets(docs_ds, *, lang_col: str = "lang",
                    text_col: str = "text", id_col: str = "doc_id",
                    q_low: float = 0.25, q_high: float = 0.75):
    """CCNet-style per-language quality tiers: tag every document
    head / middle / tail by where its stopword ratio sits in its
    language's distribution (CCNet buckets corpora by per-language
    perplexity quantiles; stopword_permille is this repo's
    model-free quality score, functions/textstats.py:quality_stats).

    Scale shape — two streaming passes, no per-group value shuffle:
    pass 1 builds the bounded-domain (lang × permille ∈ [0, 1000])
    histogram — O(langs × 1001) cells regardless of corpus size —
    and walks it for the per-language percentile_disc thresholds
    (same exact semantics as grouped_length_quantiles); pass 2
    re-scores each doc statelessly and tags it against the
    closure-captured threshold map (tiny: one pair per language).
    Re-scoring beats materializing pass-1 scores: the kernel is
    cheap and both passes stay fully streaming.

    ``q_low`` / ``q_high`` must be exact binary fractions (.25/.75
    default) so ``ceil(q * N)`` cannot float-drift vs the oracle's
    ``percentile_disc``."""
    import math
    from collections import Counter

    from ray.data.aggregate import Sum

    from ..functions.textstats import quality_stats

    def partial(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter(
            (g, quality_stats(t)["stopword_permille"])
            for g, t in zip(
                batch.column(lang_col).to_pylist(),
                batch.column(text_col).to_pylist(),
            )
        )
        ks = sorted(counts)
        return pa.table(
            {
                lang_col: pa.array([k[0] for k in ks], pa.string()),
                "stopword_permille": pa.array(
                    [k[1] for k in ks], pa.int64()
                ),
                "n": pa.array([counts[k] for k in ks], pa.int64()),
            }
        )

    hist = (
        docs_ds.map_batches(partial, batch_format="pyarrow")
        .groupby([lang_col, "stopword_permille"])
        .aggregate(Sum("n", alias_name="n"))
        .sort([lang_col, "stopword_permille"])
        .take_all()  # O(langs × 1001): a true small result
    )
    by_lang: dict = {}
    for r in hist:
        by_lang.setdefault(r[lang_col], []).append(
            (r["stopword_permille"], r["n"])
        )
    thresholds: dict = {}
    for g, rows in by_lang.items():
        total = sum(n for _, n in rows)
        vals = []
        for q in (q_low, q_high):
            target = max(1, math.ceil(q * total))
            cum = 0
            val = rows[-1][0]
            for v, n in rows:
                cum += n
                if cum >= target:
                    val = v
                    break
            vals.append(int(val))
        thresholds[g] = (vals[0], vals[1])

    def assign(batch: pa.Table) -> pa.Table:
        langs = batch.column(lang_col).to_pylist()
        sp = [
            quality_stats(t)["stopword_permille"]
            for t in batch.column(text_col).to_pylist()
        ]
        buckets = []
        for g, s in zip(langs, sp):
            t_lo, t_hi = thresholds[g]
            buckets.append(
                "head" if s >= t_hi else "middle" if s >= t_lo else "tail"
            )
        return pa.table(
            {
                id_col: batch.column(id_col),
                lang_col: batch.column(lang_col),
                "stopword_permille": pa.array(sp, pa.int64()),
                "bucket": pa.array(buckets, pa.string()),
            }
        )

    return docs_ds.map_batches(assign, batch_format="pyarrow")


def jaccard_join_exact(docs_ds, *, threshold: float = 0.5,
                       text_col: str = "text", id_col: str = "doc_id",
                       num_parts: int | None = None):
    """EXACT set-similarity self-join via prefix filtering (the
    PPJoin family, Xiao et al. 2008): every pair of documents whose
    DISTINCT whitespace-token sets have Jaccard ≥ threshold — no LSH
    recall loss, provably no false negatives.

    Candidate rule: token sets are canonically ordered rare-first
    (ascending document frequency, then token); a set of size s keeps
    a prefix of ``s - ceil(t·s) + 1`` tokens (integer ceil — no float
    drift). J(A,B) ≥ t ⇒ |A∩B| ≥ ceil(t·max(|A|,|B|)) ⇒ qualifying
    pairs share a token in BOTH prefixes, so bucketing by emitted
    prefix tokens finds them all; prefix tokens are the rarest by
    construction, so buckets stay small under any stopword skew.

    Shape: pass 1 = df counts (per-batch combiner → coarse hash(word)
    partition → in-part pandas sum); the df order is broadcast via
    ``ray.put`` (vocab-sized — for an unbounded vocab substitute the
    md5-hash order: still exact, weaker pruning). pass 2 emits
    (prefix_token, id, token_list) coarse-partitioned by hash(token);
    in-part pandas buckets per token (NUL-safe bytes keys),
    pairwise-verifies INSIDE each bucket with integer
    ``jaccard_permille = 1000·|A∩B| // |A∪B|`` (membership decided on
    the integer, the repo's reproducibility rule), and cross-bucket
    duplicates collapse through :func:`distinct_pairs`."""
    from collections import Counter

    import ray

    thr_permille = int(round(threshold * 1000))

    def df_partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch.column(text_col).to_pylist():
            c.update(set(t.split()))
        ks = sorted(c)
        return pa.table(
            {
                "word": pa.array(ks, pa.string()),
                "df": pa.array([c[k] for k in ks], pa.int64()),
            }
        )

    def df_merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(_k=[w.encode("utf-8") for w in g["word"]])
        agg = g.groupby("_k", as_index=False).agg(
            word=("word", "first"), df=("df", "sum")
        )
        return agg[["word", "df"]]

    df_tbl = exchange(
        docs_ds, "word", df_merge, combine=df_partial, num_parts=num_parts
    ).to_pandas()
    df_ref = ray.put(
        dict(zip(df_tbl["word"], (int(x) for x in df_tbl["df"])))
    )

    def emit_prefix(batch: pa.Table) -> pa.Table:
        dfd = ray.get(df_ref)
        o_tok, o_id, o_set = [], [], []
        for did, t in zip(
            batch.column(id_col).to_pylist(),
            batch.column(text_col).to_pylist(),
        ):
            toks = sorted(set(t.split()), key=lambda w: (dfd[w], w))
            s = len(toks)
            if s == 0:
                continue
            plen = s - (-(-thr_permille * s // 1000)) + 1
            for w in toks[:plen]:
                o_tok.append(w)
                o_id.append(did)
                o_set.append(toks)
        return pa.table(
            {
                "token": pa.array(o_tok, pa.string()),
                "id": pa.array(o_id, pa.int64()),
                "toks": pa.array(o_set, pa.list_(pa.string())),
            }
        )

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b, out_j = [], [], []
        g = g.assign(_k=[w.encode("utf-8") for w in g["token"]])
        for _, grp in g.groupby("_k", sort=False):
            ids = grp["id"].to_numpy()
            order = np.argsort(ids)
            ids = ids[order]
            sets = [set(x) for x in grp["toks"].to_numpy()[order]]
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    inter = len(sets[i] & sets[j])
                    union = len(sets[i] | sets[j])
                    jp = 1000 * inter // union
                    if jp >= thr_permille:
                        out_a.append(int(ids[i]))
                        out_b.append(int(ids[j]))
                        out_j.append(jp)
        return pd.DataFrame(
            {"id_a": out_a, "id_b": out_b, "jaccard_permille": out_j}
        )

    pairs = exchange(docs_ds, "token", verify, combine=emit_prefix,
                     num_parts=num_parts)
    return distinct_pairs(
        pairs, "jaccard_permille", how="max", num_parts=num_parts
    )


def _lev_le1(a: str, b: str) -> int:
    """Levenshtein distance capped at 1: returns 0, 1, or 2 (meaning
    ">1"). O(len) — no DP table needed at this cap."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return 2
    if la == lb:  # exactly one substitution?
        diff = sum(1 for x, y in zip(a, b) if x != y)
        return 1 if diff == 1 else 2
    if la > lb:
        a, b, la, lb = b, a, lb, la
    # b is a plus one inserted char: skip the first mismatch
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return 1 if a[i:] == b[i + 1:] else 2


def edit_distance_join(ds, *, col: str, num_parts: int | None = None):
    """EXACT string-similarity self-join at edit distance ≤ 1 — the
    entity-resolution blocking primitive (typo'd surface forms, near-
    identical entity names) — via FastSS deletion neighborhoods
    (Bocek et al. 2007): every string emits itself plus its |s|
    single-character deletions as blocking keys; d(a,b) ≤ 1 implies a
    shared key (substitution ⇒ same-position deletions collide;
    insertion/deletion ⇒ one string IS a key of the other), and a
    shared key does NOT imply d ≤ 1 ('ab'/'ba' share 'a'), so buckets
    are pairwise-verified with the capped O(len) distance. Candidate
    work is O(N·len) keys — never the O(N²) cross product.

    Shape: one stateless key-emit pass → ``exchange`` on the key →
    in-part bytes-keyed buckets, pairwise verify → cross-bucket
    duplicates collapse through :func:`distinct_pairs`. Output:
    (id_a, id_b, dist) over DISTINCT input strings, id_a < id_b."""

    def emit_keys(batch: pa.Table) -> pa.Table:
        o_key, o_val = [], []
        for s in set(batch.column(col).to_pylist()):
            keys = {s} | {s[:i] + s[i + 1:] for i in range(len(s))}
            for kk in keys:
                o_key.append(kk)
                o_val.append(s)
        return pa.table(
            {
                "bkey": pa.array(o_key, pa.string()),
                "val": pa.array(o_val, pa.string()),
            }
        )

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b, out_d = [], [], []
        g = g.assign(_k=[x.encode("utf-8") for x in g["bkey"]])
        for _, grp in g.groupby("_k", sort=False):
            vals = sorted(set(grp["val"]))
            for i in range(len(vals)):
                for j in range(i + 1, len(vals)):
                    d = _lev_le1(vals[i], vals[j])
                    if d <= 1:
                        out_a.append(vals[i])
                        out_b.append(vals[j])
                        out_d.append(d)
        return pd.DataFrame({"id_a": out_a, "id_b": out_b, "dist": out_d})

    pairs = exchange(ds, "bkey", verify, combine=emit_keys,
                     num_parts=num_parts)
    return distinct_pairs(pairs, "dist", how="max", num_parts=num_parts)


def bpe_train(docs_ds, *, num_merges: int = 16, text_col: str = "text",
              num_parts: int | None = None) -> pa.Table:
    """Distributed BPE tokenizer training (Sennrich et al. 2016,
    arXiv:1508.07909): learn ``num_merges`` merge rules from corpus
    pair statistics.

    Scale trick (the paper's own): pair counts are computed over the
    DISTINCT-WORD table weighted by word frequency, never the raw
    corpus — one corpus pass builds (word, n); every merge round
    touches only the vocabulary working set (materialized per round:
    bounded by distinct words, not corpus size). Ray shape: word
    counts via per-batch Counter combiner → ``exchange`` on the word →
    in-part pandas sum (never one Ray group per word);
    each round is one streaming pass over the vocab emitting pair
    partials, exchanged on the (left, right) pair so
    each pair lands whole in one part; only ≤num_parts per-part argmax
    rows reach the driver, which picks the global best under the
    total-order tie-break (count desc, then (left, right) ascending).
    The winner is applied leftmost-first non-overlapping (the
    reference semantics) and the next round runs. Deterministic under
    any partitioning: integer counts + total-order tie-break.

    Returns the merge table (rank, left, right, n)."""
    from collections import Counter

    def word_partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch.column(text_col).to_pylist():
            c.update(t.split())
        ks = sorted(c)
        return pa.table(
            {
                "word": pa.array(ks, pa.string()),
                "n": pa.array([c[k] for k in ks], pa.int64()),
            }
        )

    def word_merge(g: pd.DataFrame) -> pd.DataFrame:
        # bytes key: pandas str hashtables truncate at embedded NULs
        g = g.assign(_k=[w.encode("utf-8") for w in g["word"]])
        agg = g.groupby("_k", as_index=False).agg(
            word=("word", "first"), n=("n", "sum")
        )
        return agg[["word", "n"]]

    def to_syms(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "syms": pa.array(
                    [list(w) for w in batch.column("word").to_pylist()],
                    pa.list_(pa.string()),
                ),
                "n": batch.column("n"),
            }
        )

    vocab = (
        exchange(docs_ds, "word", word_merge, combine=word_partial,
                 num_parts=num_parts)
        .map_batches(to_syms, batch_format="pyarrow")
        .materialize()
    )

    out_rank, out_left, out_right, out_n = [], [], [], []
    for rank in range(num_merges):

        def pair_partial(batch: pa.Table) -> pa.Table:
            c: Counter = Counter()
            for syms, n in zip(
                batch.column("syms").to_pylist(),
                batch.column("n").to_pylist(),
            ):
                for a, b in zip(syms, syms[1:]):
                    c[(a, b)] += n
            ks = sorted(c)
            return pa.table(
                {
                    "left": pa.array([k[0] for k in ks], pa.string()),
                    "right": pa.array([k[1] for k in ks], pa.string()),
                    "n": pa.array([c[k] for k in ks], pa.int64()),
                }
            )

        def part_best(g: pd.DataFrame) -> pd.DataFrame:
            g = g.assign(_k=composite_key_bytes(g["left"], g["right"]))
            agg = g.groupby("_k", as_index=False).agg(
                left=("left", "first"), right=("right", "first"),
                n=("n", "sum"),
            )
            agg = agg.sort_values(
                ["n", "left", "right"], ascending=[False, True, True]
            ).head(1)
            return agg[["left", "right", "n"]]

        best_rows = exchange(
            vocab, ["left", "right"], part_best, combine=pair_partial,
            num_parts=num_parts,
        ).take_all()  # ≤ num_parts rows
        if not best_rows:
            break  # every word is a single symbol: nothing to merge
        best = min(
            best_rows, key=lambda r: (-r["n"], r["left"], r["right"])
        )
        a, b = best["left"], best["right"]
        out_rank.append(rank)
        out_left.append(a)
        out_right.append(b)
        out_n.append(int(best["n"]))

        def apply_merge(batch: pa.Table, *, _a=a, _b=b) -> pa.Table:
            out = []
            for syms in batch.column("syms").to_pylist():
                res, i = [], 0
                while i < len(syms):
                    if (i + 1 < len(syms) and syms[i] == _a
                            and syms[i + 1] == _b):
                        res.append(_a + _b)
                        i += 2
                    else:
                        res.append(syms[i])
                        i += 1
                out.append(res)
            return pa.table(
                {
                    "syms": pa.array(out, pa.list_(pa.string())),
                    "n": batch.column("n"),
                }
            )

        vocab = vocab.map_batches(
            apply_merge, batch_format="pyarrow"
        ).materialize()

    return pa.table(
        {
            "rank": pa.array(out_rank, pa.int64()),
            "left": pa.array(out_left, pa.string()),
            "right": pa.array(out_right, pa.string()),
            "n": pa.array(out_n, pa.int64()),
        }
    )


def bpe_reference(texts, num_merges: int = 16) -> list:
    """Single-process mirror of :func:`bpe_train` for the differential
    test — same pair statistics, tie-break, and leftmost-first merge
    application, no Ray. Returns [(rank, left, right, n), ...]."""
    from collections import Counter

    vocab: Counter = Counter()
    for t in texts:
        vocab.update(t.split())
    syms = {w: list(w) for w in vocab}
    merges = []
    for rank in range(num_merges):
        pc: Counter = Counter()
        for w, n in vocab.items():
            s = syms[w]
            for a, b in zip(s, s[1:]):
                pc[(a, b)] += n
        if not pc:
            break
        (a, b), n = min(pc.items(), key=lambda kv: (-kv[1], kv[0]))
        merges.append((rank, a, b, int(n)))
        for w, s in syms.items():
            res, i = [], 0
            while i < len(s):
                if i + 1 < len(s) and s[i] == a and s[i + 1] == b:
                    res.append(a + b)
                    i += 2
                else:
                    res.append(s[i])
                    i += 1
            syms[w] = res
    return merges


def bpe_encode_word(word: str, ranks: dict) -> list:
    """Encode one word with trained BPE merges: repeatedly apply the
    LOWEST-rank merge present (leftmost-first within a pass) until no
    trained pair remains — the standard greedy BPE encode. ``ranks``
    maps (left, right) → merge rank. Pure function; shared by the
    distributed tokenizer and any mirror."""
    syms = list(word)
    while len(syms) > 1:
        best = None
        for a, b in zip(syms, syms[1:]):
            r = ranks.get((a, b))
            if r is not None and (best is None or r < best[0]):
                best = (r, a, b)
        if best is None:
            break
        _, a, b = best
        res, i = [], 0
        while i < len(syms):
            if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                res.append(a + b)
                i += 2
            else:
                res.append(syms[i])
                i += 1
        syms = res
    return syms


def bpe_token_counts(docs_ds, merges: pa.Table, *,
                     text_col: str = "text", id_col: str = "doc_id"):
    """Apply trained BPE merges to a corpus and count tokens per doc —
    the train→apply half of the tokenizer-budgeting loop. The ranks
    dict is tiny (one entry per merge) and closure-captured; the pass
    is stateless. Output: (id, n_bpe_tokens)."""
    ranks = {
        (l, r): int(k)
        for k, l, r in zip(
            merges.column("rank").to_pylist(),
            merges.column("left").to_pylist(),
            merges.column("right").to_pylist(),
        )
    }

    def kernel(batch: pa.Table) -> pa.Table:
        counts = [
            sum(len(bpe_encode_word(w, ranks)) for w in t.split())
            for t in batch.column(text_col).to_pylist()
        ]
        return pa.table(
            {
                id_col: batch.column(id_col),
                "n_bpe_tokens": pa.array(counts, pa.int64()),
            }
        )

    return docs_ds.map_batches(kernel, batch_format="pyarrow")


def chunk_documents(docs_ds, *, seq_len: int = 128,
                    id_col: str = "doc_id", text_col: str = "text"):
    """Training-sequence prep: split each document's whitespace tokens
    into fixed-length windows of ``seq_len`` (the last window keeps
    the remainder; empty documents emit no chunks). Doc-LEVEL
    chunking on purpose — each chunk is a pure function of its own
    document, so the op is a stateless flat map, reproducible under
    any partitioning; greedy cross-doc packing is order-dependent by
    construction and belongs in a final single-writer sink, not here.
    Output: (id, chunk_id, n_tokens, chunk_text)."""

    def kernel(batch: pa.Table) -> pa.Table:
        ids_out, cidx, ntok, ctext = [], [], [], []
        for did, t in zip(
            batch.column(id_col).to_pylist(),
            batch.column(text_col).to_pylist(),
        ):
            words = t.split()
            for i in range(0, len(words), seq_len):
                sl = words[i:i + seq_len]
                ids_out.append(did)
                cidx.append(i // seq_len)
                ntok.append(len(sl))
                ctext.append(" ".join(sl))
        return pa.table(
            {
                id_col: pa.array(
                    ids_out, batch.schema.field(id_col).type
                ),
                "chunk_id": pa.array(cidx, pa.int64()),
                "n_tokens": pa.array(ntok, pa.int64()),
                "chunk_text": pa.array(ctext, pa.string()),
            }
        )

    return docs_ds.map_batches(kernel, batch_format="pyarrow")


def _kmeans_kernels(scale: int):
    """Shared exact-integer k-means primitives: quantizer, column
    stacker, and the integer squared-distance expansion."""

    def _quant(mat) -> np.ndarray:
        return np.rint(
            np.asarray(mat, dtype=np.float64) * scale
        ).astype(np.int64)

    def _stack(col) -> np.ndarray:
        return np.stack(col.to_numpy(zero_copy_only=False))

    def _d2(x: np.ndarray, c: np.ndarray) -> np.ndarray:
        return (
            (x * x).sum(axis=1, keepdims=True)
            - 2 * (x @ c.T)
            + (c * c).sum(axis=1)[None, :]
        )

    return _quant, _stack, _d2


def _kmeans_centroids(emb_ds, *, k: int, iters: int, id_col: str,
                      vec_col: str, scale: int) -> np.ndarray:
    """Lloyd iterations of :func:`kmeans_embeddings`, returning the
    final k×d int64 centroid matrix. One streaming pass per round;
    the driver merge sees ≤ k × num_batches partial rows."""
    import ray

    _quant, _stack, _d2 = _kmeans_kernels(scale)

    def partial_mink(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy()
        return batch.take(pa.array(np.argsort(ids)[:k]))

    cand = (
        emb_ds.map_batches(partial_mink, batch_format="pyarrow")
        .to_pandas()
        .sort_values(id_col)
        .head(k)
    )
    cents = _quant(np.stack(cand[vec_col].to_numpy()))

    for _ in range(iters):
        ref = ray.put(cents)

        def partial_sums(batch: pa.Table, *, _ref=ref) -> pa.Table:
            c = ray.get(_ref)
            x = _quant(_stack(batch.column(vec_col)))
            assign = np.argmin(_d2(x, c), axis=1)
            cids = np.unique(assign)
            return pa.table(
                {
                    "cluster": pa.array(cids.astype(np.int64), pa.int64()),
                    "vec_sum": pa.array(
                        [x[assign == cid].sum(axis=0).tolist()
                         for cid in cids],
                        pa.list_(pa.int64()),
                    ),
                    "n": pa.array(
                        [int((assign == cid).sum()) for cid in cids],
                        pa.int64(),
                    ),
                }
            )

        parts = emb_ds.map_batches(
            partial_sums, batch_format="pyarrow"
        ).to_pandas()
        new = cents.copy()
        for cid in range(k):
            sel = parts[parts["cluster"] == cid]
            if not len(sel):
                continue  # empty cluster keeps its centroid
            s = np.sum(np.stack(sel["vec_sum"].to_numpy()),
                       axis=0, dtype=np.int64)
            new[cid] = s // int(sel["n"].sum())
        cents = new
    return cents


def kmeans_embeddings(emb_ds, *, k: int = 8, iters: int = 5,
                      id_col: str = "vec_id", vec_col: str = "embedding",
                      scale: int = 1_000_000):
    """Lloyd's k-means over an embedding column — the curation
    primitive behind cluster-balanced sampling and semantic dedup —
    in EXACT integer arithmetic so the result is bit-identical under
    any batching, partitioning, or cluster size (integer sums are
    associative; float reductions are not). Vectors are quantized to
    int64 micros, distances use the integer expansion
    ``|x|² - 2x·c + |c|²``, centroid updates are ``sum // n`` floor
    division, and argmin ties go to the lowest cluster index.

    Scale shape: centroids are k×d int64 (a few KB) broadcast via
    ``ray.put`` each round; every round is ONE streaming
    ``map_batches`` pass emitting ≤k partial (sum_vec, count) rows
    per batch, so the driver merge handles k × num_batches rows —
    never the corpus. Init is the k smallest ids' vectors, found
    with a per-batch partial min-k (no global sort). Each round
    re-executes the (column-pruned) read; callers looping many
    rounds over hot storage may pass a materialized dataset instead.
    Integer bound: |value| ≤ ~2·scale ⇒ per-cluster sums stay inside
    int64 up to ~10^12 rows at the default scale."""
    import ray

    cents = _kmeans_centroids(
        emb_ds, k=k, iters=iters, id_col=id_col, vec_col=vec_col,
        scale=scale,
    )
    final_ref = ray.put(cents)
    _quant, _stack, _d2 = _kmeans_kernels(scale)

    def assign_final(batch: pa.Table, *, _ref=final_ref) -> pa.Table:
        c = ray.get(_ref)
        x = _quant(_stack(batch.column(vec_col)))
        return pa.table(
            {
                id_col: batch.column(id_col),
                "cluster": pa.array(
                    np.argmin(_d2(x, c), axis=1).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    return emb_ds.map_batches(assign_final, batch_format="pyarrow")


def kmeans_reference(ids: np.ndarray, vecs: np.ndarray, *, k: int = 8,
                     iters: int = 5, scale: int = 1_000_000) -> np.ndarray:
    """Single-array numpy mirror of :func:`kmeans_embeddings` for the
    differential test — same quantization, same integer ops, same
    tie-breaks, no Ray. Returns the cluster id per input row."""
    q = np.rint(np.asarray(vecs, dtype=np.float64) * scale).astype(np.int64)
    cents = q[np.argsort(ids)[:k]].copy()

    def d2(x, c):
        return ((x * x).sum(1, keepdims=True) - 2 * (x @ c.T)
                + (c * c).sum(1)[None, :])

    for _ in range(iters):
        assign = np.argmin(d2(q, cents), axis=1)
        for cid in range(k):
            sel = q[assign == cid]
            if len(sel):
                cents[cid] = sel.sum(axis=0, dtype=np.int64) // len(sel)
    return np.argmin(d2(q, cents), axis=1).astype(np.int64)


def semantic_dedup(emb_ds, *, k: int = 8, iters: int = 3,
                   threshold: float = 0.3, id_col: str = "vec_id",
                   vec_col: str = "embedding", scale: int = 1_000_000):
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): cluster the
    embedding space with k-means, then look for near-duplicates ONLY
    within each cluster — the quadratic cosine work drops from O(N²)
    to Σ O(|cluster|²), and ``k`` scales with the corpus so cluster
    sizes stay bounded (the paper's trade: cross-cluster pairs are
    never examined).

    Shape: exact-integer k-means centroids (:func:`_kmeans_centroids`,
    broadcast per round) → ONE assignment pass that carries the
    embedding → ONE ``exchange_per_key`` on the cluster → per-cluster
    vectorized cosine matmul. A row is dropped iff a LOWER-id row in
    its cluster matches at ≥ threshold on the centi-rounded cosine
    (``floor(cos*100 + 0.5)``, the repo's reproducibility rule — see
    embedding_dup_pairs_exact). Deterministic end-to-end: integer
    k-means + centi cosine + min-id keeper. Returns survivors
    ``(id, cluster)``."""
    import ray

    cents = _kmeans_centroids(
        emb_ds, k=k, iters=iters, id_col=id_col, vec_col=vec_col,
        scale=scale,
    )
    ref = ray.put(cents)
    _quant, _stack, _d2 = _kmeans_kernels(scale)
    thr_centi = int(round(threshold * 100))

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(ref)
        x = _quant(_stack(batch.column(vec_col)))
        return pa.table(
            {
                id_col: batch.column(id_col),
                vec_col: batch.column(vec_col),
                "cluster": pa.array(
                    np.argmin(_d2(x, c), axis=1).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    def dedup_group(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].to_numpy()
        order = np.argsort(ids)
        ids = ids[order]
        mat = np.stack(df[vec_col].to_numpy()[order]).astype(np.float64)
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        centi = np.floor((mat @ mat.T) / np.outer(norms, norms) * 100 + 0.5)
        dup = np.triu(centi >= thr_centi, k=1).any(axis=0)
        return pd.DataFrame(
            {
                id_col: ids[~dup],
                "cluster": np.full(int((~dup).sum()),
                                   df["cluster"].iloc[0], dtype=np.int64),
            }
        )

    return exchange_per_key(
        emb_ds.map_batches(assign, batch_format="pyarrow"), "cluster",
        dedup_group,
    )


def percent_rank_by_value(ds, *, value_col: str, keep_cols: list,
                          out_col: str = "pct_permille",
                          scale: int = 1000):
    """Global SQL ``percent_rank() OVER (ORDER BY value_col)`` as exact
    integer permille — a window over the WHOLE dataset, which Ray Data
    has no native operator for. Shape: the bounded-domain histogram of
    ``value_col`` (per-batch value-counts → one small groupby) is walked
    into a cumulative count-of-smaller map, broadcast via ``ray.put``,
    and a stateless second pass maps every row —
    ``scale * count_smaller // max(N-1, 1)`` (rank()-1 == count of
    strictly smaller values, so ties share the min rank exactly as SQL).
    Requires a bounded value domain (lengths, buckets, scores); the
    histogram, not the corpus, is the only driver-side object."""
    import ray
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        counts: Counter = Counter(batch.column(value_col).to_pylist())
        ks = sorted(counts)
        return pa.table(
            {
                "v": pa.array(ks, pa.int64()),
                "n": pa.array([counts[k] for k in ks], pa.int64()),
            }
        )

    hist = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("v")
        .aggregate(Sum("n", alias_name="n"))
        .sort("v")
        .take_all()
    )
    total = sum(r["n"] for r in hist)
    denom = max(total - 1, 1)
    smaller: dict = {}
    cum = 0
    for r in hist:
        smaller[r["v"]] = cum
        cum += r["n"]
    smaller_ref = ray.put(smaller)

    def rank(batch: pa.Table) -> pa.Table:
        sm = ray.get(smaller_ref)
        vals = batch.column(value_col).to_pylist()
        cols = {c: batch.column(c) for c in keep_cols}
        cols[out_col] = pa.array(
            [scale * sm[v] // denom for v in vals], pa.int64()
        )
        return pa.table(cols)

    return ds.map_batches(rank, batch_format="pyarrow")


def kmv_distinct_by_group(ds, *, group_col: str, col: str, k: int = 256):
    """Per-group KMV distinct-count sketch: :func:`kmv_distinct_sketch`
    with one sketch per group. Deterministic md5 hashing (DuckDB
    ``md5_number_lower``) — bit-reproducible across cluster sizes and
    SQL-mirrorable; exact below k distinct per group.

    Group cardinality is assumed BOUNDED (event types, languages,
    buckets — not user ids): the merge is one kernel call per key
    (``exchange_per_key``) over sketch-sized partials (≤ k rows per
    group per batch)."""
    from ..functions.textstats import _md5_number_lower

    def partial(batch: pa.Table) -> pa.Table:
        per: dict = {}
        for g, v in zip(
            batch.column(group_col).to_pylist(),
            batch.column(col).to_pylist(),
        ):
            per.setdefault(g, set()).add(_md5_number_lower(str(v)))
        gs, hs = [], []
        for g in sorted(per):
            for h in sorted(per[g])[:k]:
                gs.append(g)
                hs.append(h)
        return pa.table(
            {
                group_col: pa.array(gs, pa.string()),
                "hv": pa.array(hs, pa.uint64()),
            }
        )

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        hs = sorted(set(int(h) for h in df["hv"]))
        if len(hs) >= k:
            est = min((k - 1) * (1 << 64) // hs[k - 1], 2**63 - 1)
        else:
            est = len(hs)
        return pd.DataFrame(
            {
                group_col: [df[group_col].iloc[0]],
                "n_distinct_est": [est],
            }
        ).astype({"n_distinct_est": "int64"})

    return exchange_per_key(
        ds.map_batches(partial, batch_format="pyarrow"), group_col, merge
    )


# ---------------------------------------------------------------------------
# benchmark decontamination


def _word_ngrams(text: str, n: int) -> list:
    """Whitespace word n-grams of ``lower(text)``, empty tokens dropped —
    token rule mirrors the oracle's
    ``list_filter(string_split_regex(lower(text), '\\s+'), x -> x <> '')``.
    The split class is RE2's ``\\s`` ([\\t\\n\\f\\r ]) spelled out, NOT
    Python's Unicode-aware ``\\s`` — Python would also split on \\v and
    NBSP, silently diverging from every DuckDB oracle on exotic
    whitespace (differentially fuzzed in test_dataops)."""
    import re as _re

    toks = [t for t in _re.split(r"[\t\n\f\r ]+", text.lower()) if t]
    return [
        " ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)
    ]


def benchmark_ngrams(bench_ds, *, n: int = 5,
                     text_col: str = "text") -> frozenset:
    """Distinct word n-grams of a (small-by-contract) benchmark/eval
    Dataset, per-batch deduped then fetched once to the driver — the
    broadcast side of :func:`decontaminate` and of the curate job's
    ``--benchmark`` stage."""

    def bench_grams(batch: pa.Table) -> pa.Table:
        out = set()
        for t in batch.column(text_col).to_pylist():
            out.update(_word_ngrams(t or "", n))
        return pa.table({"gram": pa.array(sorted(out), pa.string())})

    gram_df = bench_ds.map_batches(
        bench_grams, batch_format="pyarrow"
    ).to_pandas()
    return frozenset(gram_df["gram"])


def decontaminate(docs_ds, bench_ds, *, n: int = 5,
                  text_col: str = "text", id_col: str = "doc_id"):
    """Benchmark decontamination: flag training documents that share any
    word ``n``-gram with a benchmark/eval set (the standard pre-training
    hygiene pass; e.g. Brown et al. 2020 appendix C use 13-gram overlap).

    Distributed shape — small-side broadcast, not a corpus shuffle: the
    benchmark side (eval sets are KB–MB by definition) is reduced to its
    DISTINCT n-gram strings with a per-batch dedup, fetched once to the
    driver, and shipped to every task via one ``ray.put``; the training
    side streams through a single stateless ``map_batches`` doing
    set-membership counts. No groupby, no join shuffle, and nothing
    corpus-sized ever materializes on the driver.

    Output: one row per CONTAMINATED training doc —
    ``(id_col, n_matched)`` where ``n_matched`` is the count of distinct
    matched n-grams (exact integers; docs with zero matches are dropped).
    """
    import ray

    gram_ref = ray.put(benchmark_ngrams(bench_ds, n=n, text_col=text_col))

    def mark(batch: pa.Table) -> pa.Table:
        grams = ray.get(gram_ref)  # per-worker object-store cache hit
        ids, counts = [], []
        for i, t in zip(
            batch.column(id_col).to_pylist(),
            batch.column(text_col).to_pylist(),
        ):
            hit = len(set(_word_ngrams(t or "", n)) & grams)
            if hit:
                ids.append(i)
                counts.append(hit)
        return pa.table(
            {
                id_col: pa.array(ids, batch.schema.field(id_col).type),
                "n_matched": pa.array(counts, pa.int64()),
            }
        )

    return docs_ds.map_batches(mark, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# BM25 retrieval


def bm25_topk(docs_ds, query_terms, *, k: int = 10, k1: float = 1.2,
              b: float = 0.75, text_col: str = "text",
              id_col: str = "doc_id"):
    """BM25 top-k retrieval for one query (Robertson/Lucene variant:
    ``idf = ln((N - df + 0.5)/(df + 0.5) + 1)``) — the sparse sibling of
    :func:`ann_topk`.

    Two streaming passes, both combiner-shaped (nothing corpus-sized
    ever shuffles or lands on the driver):

    1. stats: one stateless pass emits a ONE-ROW partial per batch
       (n docs, total tokens, per-query-term doc frequencies — the
       query is a handful of terms, so the partial is O(|query|)
       columns); a tiny driver-side sum fixes N, avgdl and df.
    2. score: constants ride the task closure; each batch scores its
       docs vectorized and emits only its local top-k; final merge is
       a tiny sort/limit over per-batch partials (same shape as
       ``ann_topk``).

    Docs matching no query term are unscored (standard disjunctive
    retrieval). Returns (id_col, score_cents) — centi-rounded like
    every float aggregate in this repo so the DuckDB oracle compares
    exactly.
    """
    import re as _re

    terms = list(dict.fromkeys(query_terms))  # stable order, unique

    # RE2-exact whitespace class — see _word_ngrams
    def _toks(text: str) -> list:
        return [
            t
            for t in _re.split(r"[\t\n\f\r ]+", (text or "").lower())
            if t
        ]

    def stats_partial(batch: pa.Table) -> pa.Table:
        n = 0
        dl_sum = 0
        df = [0] * len(terms)
        for t in batch.column(text_col).to_pylist():
            toks = _toks(t)
            n += 1
            dl_sum += len(toks)
            seen = set(toks)
            for j, term in enumerate(terms):
                if term in seen:
                    df[j] += 1
        cols = {"n": [n], "dl_sum": [dl_sum]}
        for j in range(len(terms)):
            cols[f"df_{j}"] = [df[j]]
        return pa.table(
            {c: pa.array(v, pa.int64()) for c, v in cols.items()}
        )

    stats = (
        docs_ds.map_batches(stats_partial, batch_format="pyarrow")
        .to_pandas()  # one row per batch — tiny by construction
        .sum()
    )
    n_docs = int(stats["n"])
    avgdl = float(stats["dl_sum"]) / n_docs if n_docs else 1.0
    idf = {
        term: float(
            np.log(
                (n_docs - int(stats[f"df_{j}"]) + 0.5)
                / (int(stats[f"df_{j}"]) + 0.5)
                + 1.0
            )
        )
        for j, term in enumerate(terms)
    }

    def score_partial(batch: pa.Table) -> pa.Table:
        ids, scores = [], []
        for i, t in zip(
            batch.column(id_col).to_pylist(),
            batch.column(text_col).to_pylist(),
        ):
            toks = _toks(t)
            dl = len(toks)
            s = 0.0
            hit = False
            for term in terms:
                tf = toks.count(term)
                if not tf:
                    continue
                hit = True
                s += (
                    idf[term]
                    * tf
                    * (k1 + 1.0)
                    / (tf + k1 * (1.0 - b + b * dl / avgdl))
                )
            if hit:
                ids.append(i)
                scores.append(s)
        order = np.lexsort((np.array(ids), -np.array(scores)))[:k]
        ids_a = np.array(ids, dtype=object)[order]
        sc = np.array(scores, dtype=np.float64)[order]
        return pa.table(
            {
                id_col: pa.array(
                    list(ids_a), batch.schema.field(id_col).type
                ),
                "score": pa.array(sc, pa.float64()),
                "score_cents": pa.array(
                    np.floor(sc * 100 + 0.5).astype(np.int64), pa.int64()
                ),
            }
        )

    top = (
        docs_ds.map_batches(score_partial, batch_format="pyarrow")
        .sort(["score", id_col], descending=[True, False])
        .limit(k)
    )
    return top.drop_columns(["score"])


# ---------------------------------------------------------------------------
# term co-occurrence mining


def term_cooccurrence_topk(docs_ds, *, vocab_size: int = 40, k: int = 50,
                           text_col: str = "text",
                           id_col: str = "doc_id"):
    """Word-association mining: the top-``k`` pairs of high-df terms by
    document co-occurrence count (the integer core of PMI/lift scoring —
    counts are exported raw so callers pick their own association
    measure without float-parity concerns).

    Shapes:

    1. df pass: per-batch distinct-terms-per-doc counts (a doc never
       spans batches, so per-batch sums are exact partials) →
       ``exchange`` on the term, sum → global ``sort.limit(vocab_size)`` —
       only V rows ever reach the driver;
    2. pair pass: the top-V vocabulary rides the task closure; each
       batch expands every doc's distinct ∩ top-V terms to pairs and
       pre-counts them (≤ V²/2 counters per batch regardless of corpus
       size) → pair-keyed ``exchange`` sum → per-part top-k → tiny
       sort/limit merge.

    Returns (term_a, term_b, n_both, n_a, n_b), all int64.
    """
    import re as _re
    from collections import Counter

    # RE2-exact whitespace class — see _word_ngrams
    def _terms(text: str) -> set:
        return {
            t
            for t in _re.split(r"[\t\n\f\r ]+", (text or "").lower())
            if t
        }

    def df_partial(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        for t in batch.column(text_col).to_pylist():
            counts.update(_terms(t))
        ks = sorted(counts)
        return pa.table(
            {
                "term": pa.array(ks, pa.string()),
                "df": pa.array([counts[x] for x in ks], pa.int64()),
            }
        )

    def df_merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(_k=[t.encode("utf-8") for t in g["term"]])
        out = g.groupby("_k", as_index=False).agg(
            term=("term", "first"), df=("df", "sum")
        )
        return out[["term", "df"]].astype({"df": "int64"})

    top = (
        exchange(docs_ds, "term", df_merge, combine=df_partial)
        .sort(["df", "term"], descending=[True, False])
        .limit(vocab_size)
        .take_all()  # V rows by construction
    )
    dfs = {r["term"]: int(r["df"]) for r in top}
    vocab = frozenset(dfs)

    def pair_partial(batch: pa.Table) -> pa.Table:
        import itertools

        counts: Counter = Counter()
        for t in batch.column(text_col).to_pylist():
            present = sorted(_terms(t) & vocab)
            counts.update(itertools.combinations(present, 2))
        ks = sorted(counts)
        return pa.table(
            {
                "term_a": pa.array([p[0] for p in ks], pa.string()),
                "term_b": pa.array([p[1] for p in ks], pa.string()),
                "n_both": pa.array([counts[p] for p in ks], pa.int64()),
            }
        )

    def pair_merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(
            _k=[
                (a.encode("utf-8"), b.encode("utf-8"))
                for a, b in zip(g["term_a"], g["term_b"])
            ]
        )
        out = g.groupby("_k", as_index=False).agg(
            term_a=("term_a", "first"),
            term_b=("term_b", "first"),
            n_both=("n_both", "sum"),
        )
        out = out.sort_values(
            ["n_both", "term_a", "term_b"],
            ascending=[False, True, True],
            kind="mergesort",
        ).head(k)
        out["n_a"] = [dfs[t] for t in out["term_a"]]
        out["n_b"] = [dfs[t] for t in out["term_b"]]
        return out[["term_a", "term_b", "n_both", "n_a", "n_b"]].astype(
            {"n_both": "int64", "n_a": "int64", "n_b": "int64"}
        )

    return (
        exchange(docs_ds, ["term_a", "term_b"], pair_merge,
                 combine=pair_partial)
        .sort(
            ["n_both", "term_a", "term_b"],
            descending=[True, False, False],
        )
        .limit(k)
    )


# ---------------------------------------------------------------------------
# sequence packing


def pack_sequences(docs_ds, *, seq_len: int = 128,
                   bucket_size: int = 1024,
                   id_col: str = "doc_id", text_col: str = "text"):
    """Training-sequence packing: lay documents end-to-end in ``id_col``
    order and cut fixed ``seq_len`` windows — each doc gets the bin it
    STARTS in and its offset there (docs may straddle bins; standard
    packed pre-training with cross-doc attention masking).

    The core is a DISTRIBUTED EXCLUSIVE PREFIX SUM over an arbitrary
    total order, in two passes:

    1. bucket partials: per-batch token sums per id-range bucket
       (``id // bucket_size`` — integer ids; size the bucket so bucket
       count stays in the thousands at any corpus size) → tiny groupby;
       the sorted bucket sums come to the driver (one row per bucket)
       and turn into exclusive bucket offsets, shipped back via one
       ``ray.put``;
    2. per-bucket cumsum: ``exchange_per_key`` on the bucket → in-kernel
       sort by id + vectorized cumsum + the bucket's offset. No global sort, no
       corpus-sized driver state.

    Token rule = whitespace ``text.split()`` (mirrors SQL
    ``len(regexp_split_to_array(trim(text), ' +'))`` on this corpus).
    Returns (id_col, n_tokens, bin_id, bin_offset), all int64.
    """
    import ray

    def bucket_partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        sums: Counter = Counter()
        for i, t in zip(
            batch.column(id_col).to_pylist(),
            batch.column(text_col).to_pylist(),
        ):
            sums[int(i) // bucket_size] += len((t or "").split())
        ks = sorted(sums)
        return pa.table(
            {
                "bucket": pa.array(ks, pa.int64()),
                "toks": pa.array([sums[b] for b in ks], pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    bucket_sums = (
        docs_ds.map_batches(bucket_partial, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("toks", alias_name="toks"))
        .to_pandas()  # one row per bucket — bounded by construction
        .sort_values("bucket")
    )
    offs = bucket_sums["toks"].cumsum().shift(fill_value=0)
    offsets_ref = ray.put(
        dict(zip((int(b) for b in bucket_sums["bucket"]),
                 (int(o) for o in offs)))
    )

    def assign(batch: pa.Table) -> pa.Table:
        toks = [
            len((t or "").split())
            for t in batch.column(text_col).to_pylist()
        ]
        ids = batch.column(id_col).to_pylist()
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "n_tokens": pa.array(toks, pa.int64()),
                "bucket": pa.array(
                    [int(i) // bucket_size for i in ids], pa.int64()
                ),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        import ray as _ray

        offsets = _ray.get(offsets_ref)
        g = g.sort_values(id_col, kind="mergesort").reset_index(drop=True)
        base = offsets[int(g["bucket"].iloc[0])]
        start = base + g["n_tokens"].cumsum() - g["n_tokens"]
        return pd.DataFrame(
            {
                id_col: g[id_col],
                "n_tokens": g["n_tokens"],
                "bin_id": start // seq_len,
                "bin_offset": start % seq_len,
            }
        ).astype(
            {
                id_col: "int64",
                "n_tokens": "int64",
                "bin_id": "int64",
                "bin_offset": "int64",
            }
        )

    return exchange_per_key(
        docs_ds.map_batches(assign, batch_format="pyarrow"), "bucket",
        per_bucket,
    )


# ---------------------------------------------------------------------------
# mutual nearest-neighbor alignment


def mutual_nn_pairs(a_ds, b_ids: np.ndarray, b_mat: np.ndarray, *,
                    vec_col: str = "embedding", id_col: str = "vec_id"):
    """Mutual nearest-neighbor alignment between two embedding sets (the
    standard unsupervised entity/snapshot alignment rule: keep (a, b)
    iff b is a's best match AND a is b's best match).

    Ranking is on CENTI-ROUNDED cosine with id tie-breaks — the same
    reproducibility contract as every float op here, so the DuckDB
    oracle agrees exactly: a's choice = max cents then min b id; b's
    choice = max cents then min a id.

    Shapes: the B side is the broadcast small side (snapshot alignment;
    for two corpus-scale sides, LSH-bucket first — see LSHBucketer).
    One stream over A produces BOTH directions: per batch, each A row's
    argmax over B (vectorized) plus a per-batch B-side partial argmax;
    the B partials merge in a tiny |B|-row reduce whose result rides a
    second broadcast that filters the A choices. A is never collected.
    Output (id_a, id_b, cos_cents), int64 cents.
    """
    import ray

    bn = b_mat.astype(np.float64)
    bn = bn / np.maximum(np.linalg.norm(bn, axis=1, keepdims=True), 1e-300)
    b_order = np.argsort(b_ids, kind="stable")
    b_ids_s = np.asarray(b_ids)[b_order]
    bn = bn[b_order]

    def cents_matrix(batch: pa.Table) -> tuple:
        ids = np.array(batch.column(id_col).to_pylist())
        mat = np.array(
            batch.column(vec_col).to_pylist(), dtype=np.float64
        )
        mat = mat / np.maximum(
            np.linalg.norm(mat, axis=1, keepdims=True), 1e-300
        )
        cents = np.floor(mat @ bn.T * 100 + 0.5).astype(np.int64)
        return ids, cents

    def a_choices(batch: pa.Table) -> pa.Table:
        ids, cents = cents_matrix(batch)
        if len(ids) == 0:
            return pa.table(
                {
                    "id_a": pa.array([], pa.int64()),
                    "id_b": pa.array([], pa.int64()),
                    "cos_cents": pa.array([], pa.int64()),
                }
            )
        # b_ids_s ascending → argmax returns the FIRST (min id) maximum
        best = np.argmax(cents, axis=1)
        out = pa.table(
            {
                "id_a": pa.array(ids, pa.int64()),
                "id_b": pa.array(b_ids_s[best], pa.int64()),
                "cos_cents": pa.array(
                    cents[np.arange(len(ids)), best], pa.int64()
                ),
            }
        )
        return out

    def b_partials(batch: pa.Table) -> pa.Table:
        ids, cents = cents_matrix(batch)
        if len(ids) == 0:
            return pa.table(
                {
                    "id_b": pa.array([], pa.int64()),
                    "id_a": pa.array([], pa.int64()),
                    "cos_cents": pa.array([], pa.int64()),
                }
            )
        a_order = np.argsort(ids, kind="stable")
        cents_o = cents[a_order]
        best = np.argmax(cents_o, axis=0)  # first max → min a id
        return pa.table(
            {
                "id_b": pa.array(b_ids_s, pa.int64()),
                "id_a": pa.array(
                    np.asarray(ids)[a_order][best], pa.int64()
                ),
                "cos_cents": pa.array(
                    cents_o[best, np.arange(len(b_ids_s))], pa.int64()
                ),
            }
        )

    # tiny reduce: |B| rows per batch partial → one |B|-row table
    bp = a_ds.map_batches(
        b_partials, batch_format="pyarrow"
    ).to_pandas()
    bp = bp.sort_values(
        ["id_b", "cos_cents", "id_a"],
        ascending=[True, False, True],
        kind="mergesort",
    ).drop_duplicates("id_b")
    b_choice_ref = ray.put(
        dict(zip((int(x) for x in bp["id_b"]),
                 (int(x) for x in bp["id_a"])))
    )

    def mutual(batch: pa.Table) -> pa.Table:
        choice = ray.get(b_choice_ref)
        df = batch.to_pandas()
        keep = [
            choice.get(int(b)) == int(a)
            for a, b in zip(df["id_a"], df["id_b"])
        ]
        return pa.Table.from_pandas(df[keep], preserve_index=False)

    return (
        a_ds.map_batches(a_choices, batch_format="pyarrow")
        .map_batches(mutual, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# deterministic global shuffle order (training-data ordering)


def training_order(docs_ds, *, salt: str = "shuffle",
                   id_col: str = "doc_id", bucket_bits: int = 10):
    """Seeded GLOBAL shuffle rank for training-data ordering: every row
    gets ``shuffle_pos`` = its 0-based position under the total order
    ``(md5_number_lower(salt|id), id)``. Content-addressed like the
    sampling family (no RNG state), so the order is identical across
    cluster sizes, retries and resume, and any worker can re-derive the
    ranks of its own shard — the property data loaders need to seek into
    an epoch.

    NO global sort: the hash itself partitions the order. Bucket =
    top ``bucket_bits`` bits of the uint64 priority, so bucket-numeric
    order IS hash order, and the rank decomposes into a distributed
    exclusive prefix sum (same two-pass shape as :func:`pack_sequences`):

    1. per-batch bucket counts, ``exchange``d on the bucket (never
       one Ray group per bucket — Ray groups cost ~1 ms each) →
       exclusive offsets on the driver (one row per bucket, bounded by
       ``2**bucket_bits``) → one ``ray.put``;
    2. per-PARTITION kernel ranks many buckets at once: sort by
       (priority, id) lays buckets out contiguously (the bucket IS the
       priority's top bits), so rank = bucket offset + within-bucket
       cumcount.

    md5 is uniform, so bucket sizes are balanced ~N/2**bucket_bits with
    no skew regardless of id distribution; raise ``bucket_bits`` with
    corpus size (20 bits → ~1M-row offset table at 1T rows, still one
    driver dict + one ray.put).
    """
    import ray

    from ..functions.textstats import _md5_number_lower

    shift = np.uint64(64 - bucket_bits)

    def _prio(ids):
        return np.array(
            [_md5_number_lower(f"{salt}|{i}") for i in ids],
            dtype=np.uint64,
        )

    def bucket_partial(batch: pa.Table) -> pa.Table:
        pr = _prio(batch.column(id_col).to_pylist())
        b, c = np.unique(pr >> shift, return_counts=True)
        return pa.table(
            {
                "bucket": pa.array(b.astype(np.int64), pa.int64()),
                "n": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    def merge_counts(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("bucket", as_index=False).agg(n=("n", "sum"))

    counts = (
        exchange(docs_ds, "bucket", merge_counts, combine=bucket_partial)
        .to_pandas()  # ≤ 2**bucket_bits rows — bounded by construction
        .sort_values("bucket")
    )
    offs = counts["n"].cumsum().shift(fill_value=0)
    offsets_ref = ray.put(
        dict(zip((int(b) for b in counts["bucket"]),
                 (int(o) for o in offs)))
    )

    # exchange on the bucket (NOT one Ray group per bucket — at 2**20
    # buckets that's a million ~1 ms groups); one kernel ranks MANY
    # buckets: sorting by priority lays buckets out contiguously since
    # the bucket IS the priority's top bits
    def assign(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        pr = _prio(ids)
        bucket = (pr >> shift).astype(np.int64)
        return pa.table(
            {
                # pass the id column through unchanged — the hash rule is
                # content-addressed over str(id), so any id dtype works
                id_col: batch.column(id_col),
                # raw uint64 — an int64 reinterpret would flip the order
                # of priorities with the top bit set
                "_prio": pa.array(pr, pa.uint64()),
                "bucket": pa.array(bucket, pa.int64()),
            }
        )

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        import ray as _ray

        offsets = _ray.get(offsets_ref)
        g = g.sort_values(["_prio", id_col], kind="mergesort")
        base = np.array(
            [offsets[int(b)] for b in g["bucket"]], dtype=np.int64
        )
        within = g.groupby("bucket", sort=False).cumcount().to_numpy()
        return pd.DataFrame(
            {
                id_col: g[id_col].to_numpy(),
                "shuffle_pos": base + within,
            }
        )

    return exchange(docs_ds, "bucket", per_part, combine=assign)


# ---------------------------------------------------------------------------
# corpus n-gram count table


def ngram_counts(docs_ds, *, n: int = 3, min_count: int = 5,
                 text_col: str = "text"):
    """Corpus word-``n``-gram count table (the raw material of count-based
    LM smoothing, contamination screens and boilerplate mining): every
    lowercased ``n``-gram with total occurrence count >= ``min_count``.

    Shape: per-batch ``Counter`` partial (collapses within-batch
    repeats BEFORE the shuffle) → ``exchange`` on the n-gram (never one
    Ray group per distinct n-gram; part count scales with the cluster)
    → in-part pandas sum + threshold
    filter, so sub-threshold singletons — the overwhelming majority of
    the n-gram mass — die inside their partition and never hit a second
    shuffle.

    Token rule: lowercase, split on RE2's ``\\s`` class ``[\\t\\n\\f\\r ]``
    (NOT Python's Unicode ``\\s``) so DuckDB's ``regexp_split_to_array``
    reproduces the grams byte-for-byte (see CLAUDE.md). Case folding is
    Python ``str.lower()``, which agrees with DuckDB ``lower()`` on
    ASCII but can diverge on exotic Unicode (final sigma, dotted I) —
    the same documented caveat as the bm25/tf kernels in this module.
    """
    import re

    ws = re.compile(r"[\t\n\f\r ]+")
    sep_tok = " "

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        counts: Counter = Counter()
        for t in batch.column(text_col).to_pylist():
            toks = [x for x in ws.split((t or "").lower()) if x]
            counts.update(
                sep_tok.join(toks[i:i + n])
                for i in range(len(toks) - n + 1)
            )
        grams = sorted(counts)
        return pa.table(
            {
                "ngram": pa.array(grams, pa.string()),
                "n_occurrences": pa.array(
                    [counts[g] for g in grams], pa.int64()
                ),
            }
        )

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        group = group.assign(
            _k=[g.encode("utf-8") for g in group["ngram"]]
        )
        out = group.groupby("_k", as_index=False).agg(
            ngram=("ngram", "first"), n_occurrences=("n_occurrences", "sum")
        )
        out = out[out["n_occurrences"] >= min_count]
        return out.drop(columns=["_k"])

    return exchange(docs_ds, "ngram", merge, combine=partial)


def novelty_scores(docs_ds, *, n: int = 3, text_col: str = "text",
                   id_col: str = "doc_id", num_parts: int | None = None):
    """Per-document n-gram novelty (the memorization/boilerplate signal
    from the dedup literature): the integer basis-point fraction of a
    doc's DISTINCT word n-grams whose globally FIRST occurrence (min
    doc id) is this doc. Boilerplate-heavy and near-duplicate docs
    score low; genuinely new text scores near 10000.

    Same join-free token-partitioned groupby-transform shape as
    :func:`corpus_freq_scores`: stage 1 explodes docs to distinct
    (doc, gram) rows coarse-partitioned BY GRAM, so each part resolves
    every gram's global min-doc from the rows it already holds (no
    first-occurrence table is built or shipped); stage 2 folds per doc.
    Two all-to-all exchanges of pre-deduped rows.

    Token rule: lowercase + RE2 ``[\\t\\n\\f\\r ]`` split, identical to
    :func:`ngram_counts` (DuckDB-reproducible byte-for-byte). Docs with
    fewer than ``n`` words have no grams and are absent from the output
    on both engines."""
    import re

    ws = re.compile(r"[\t\n\f\r ]+")

    def explode(batch: pa.Table) -> pa.Table:
        ids, grams = [], []
        for i, t in zip(
            batch.column(id_col).to_pylist(),
            batch.column(text_col).to_pylist(),
        ):
            toks = [x for x in ws.split((t or "").lower()) if x]
            for g in {
                " ".join(toks[j:j + n])
                for j in range(len(toks) - n + 1)
            }:
                ids.append(i)
                grams.append(g)
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "gram": pa.array(grams, pa.string()),
            }
        )

    def per_gram_part(g: pd.DataFrame) -> pd.DataFrame:
        key = pd.Series(
            [x.encode("utf-8") for x in g["gram"]], index=g.index
        )
        first_doc = g[id_col].groupby(key).transform("min")
        out = pd.DataFrame(
            {
                id_col: g[id_col],
                "novel": (g[id_col] == first_doc).astype("int64"),
            }
        )
        return out.groupby(id_col, as_index=False).agg(
            novel=("novel", "sum"), total=("novel", "size")
        )

    def per_doc_part(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(id_col, as_index=False).agg(
            novel=("novel", "sum"), total=("total", "sum")
        )
        out["novelty_bp"] = (10000 * out["novel"]) // out["total"]
        return out[[id_col, "novelty_bp"]]

    per_gram = exchange(docs_ds, "gram", per_gram_part, combine=explode,
                        num_parts=num_parts)
    return exchange(per_gram, id_col, per_doc_part, num_parts=num_parts)


# ---------------------------------------------------------------------------
# range-partition boundary planning


def range_bounds(ds, *, value_col: str, id_col: str,
                 num_ranges: int = 8, rate_permille: int = 100,
                 salt: str = "rb"):
    """Equi-depth range-partition boundaries for ``value_col`` — the
    planning step before a balanced global sort / range shuffle: the
    ``i/num_ranges`` percentiles (``percentile_disc`` semantics:
    smallest value whose cumulative count reaches ``ceil(q*N)``) of a
    content-addressed md5 sample (``md5(salt|id) mod 1000 <
    rate_permille`` — the repo's standard deterministic-sample rule, so
    the plan is identical across cluster sizes/retries).

    Sample → per-batch value-counts → one small groupby (O(distinct
    sampled values), NOT corpus-sized) → driver quantile walk. Returns
    (range_idx 1..num_ranges-1, upper_bound), both int64.
    """
    import math

    from ray.data.aggregate import Sum

    from ..functions.textstats import _md5_number_lower

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        counts: Counter = Counter(
            int(v)
            for i, v in zip(
                batch.column(id_col).to_pylist(),
                batch.column(value_col).to_pylist(),
            )
            if _md5_number_lower(f"{salt}|{i}") % 1000 < rate_permille
        )
        vals = sorted(counts)
        return pa.table(
            {
                "v": pa.array(vals, pa.int64()),
                "n": pa.array([counts[v] for v in vals], pa.int64()),
            }
        )

    hist = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("v")
        .aggregate(Sum("n", alias_name="n"))
        .sort("v")
        .take_all()  # O(distinct sampled values) — small by design
    )
    total = sum(r["n"] for r in hist)
    if total == 0:
        # fail loudly: bounds from an empty sample would be garbage
        # (every row lands in one range); raise rate_permille or check
        # the input instead
        raise ValueError(
            f"range_bounds: the md5 sample is empty "
            f"(rate_permille={rate_permille}); no boundary plan exists"
        )
    idxs, bounds = [], []
    for i in range(1, num_ranges):
        target = max(1, math.ceil(i / num_ranges * total))
        cum = 0
        val = hist[-1]["v"] if hist else 0
        for r in hist:
            cum += r["n"]
            if cum >= target:
                val = r["v"]
                break
        idxs.append(i)
        bounds.append(int(val))
    import ray.data

    return ray.data.from_arrow(
        pa.table(
            {
                "range_idx": pa.array(idxs, pa.int64()),
                "upper_bound": pa.array(bounds, pa.int64()),
            }
        )
    )


def sorted_export(ds, out_dir: str, *, value_col: str, id_col: str,
                  num_ranges: int = 8, rate_permille: int = 100):
    """Globally-sorted Parquet export — the TotalOrderPartitioner
    shape: plan equi-depth boundaries from the deterministic md5 sample
    (:func:`range_bounds`), range-shuffle every row to its bucket, sort
    each bucket ONCE in memory-bounded isolation, and write
    ``part-{bucket:05d}.parquet`` files whose filename order IS the
    global ``(value_col, id_col)`` order. Never a corpus-wide
    ``Dataset.sort`` and never a driver-side row: the only all-to-all
    exchange carries each row exactly once, pre-tagged with its bucket.

    Writes happen inside the per-bucket kernel via tmp-file + atomic
    rename, so a retried bucket task is idempotent. Returns the
    manifest as a Dataset: (range_idx, path, n_rows, min_v, max_v) —
    bucket boundaries are auditable without re-reading the data."""
    import os

    import numpy as np

    bounds = [
        int(r["upper_bound"])
        for r in range_bounds(
            ds, value_col=value_col, id_col=id_col,
            num_ranges=num_ranges, rate_permille=rate_permille,
        ).take_all()
    ]
    os.makedirs(out_dir, exist_ok=True)

    def tag(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch.column(value_col).to_pylist(),
                       dtype=np.int64)
        ridx = np.searchsorted(np.asarray(bounds, dtype=np.int64), v,
                               side="left")
        return batch.append_column(
            "range_idx", pa.array(ridx.astype(np.int64), pa.int64())
        )

    def write_bucket(g: pd.DataFrame) -> pd.DataFrame:
        import pyarrow.parquet as pq

        ridx = int(g["range_idx"].iloc[0])
        g = g.sort_values([value_col, id_col],
                          kind="mergesort").drop(columns=["range_idx"])
        path = os.path.join(out_dir, f"part-{ridx:05d}.parquet")
        tmp = path + f".tmp-{os.getpid()}"
        pq.write_table(pa.Table.from_pandas(g, preserve_index=False),
                       tmp)
        os.replace(tmp, path)
        return pd.DataFrame(
            {
                "range_idx": [ridx],
                "path": [path],
                "n_rows": [len(g)],
                "min_v": [int(g[value_col].iloc[0])],
                "max_v": [int(g[value_col].iloc[-1])],
            }
        )

    return exchange_per_key(
        ds.map_batches(tag, batch_format="pyarrow"), "range_idx", write_bucket
    )


# ---------------------------------------------------------------------------
# broadcast semi-join kernel (shared by small-survivor-set queries)


def filter_by_broadcast_map(batch: pa.Table, *, key_col: str,
                            mapping: dict, value_name: str,
                            keep_cols=None) -> pa.Table:
    """Vectorized small-side broadcast semi-join for use inside
    ``map_batches``: keep the rows whose ``key_col`` is a key of
    ``mapping`` (``pc.is_in`` against the broadcast key set — no
    per-row Python membership loop) and append the mapped value as an
    int64 ``value_name`` column. ``mapping`` is the TINY side — ship it
    once with ``ray.put`` and ``ray.get`` it per batch (object-store
    local); the big side streams."""
    import pyarrow.compute as pc

    mask = pc.is_in(
        batch.column(key_col), value_set=pa.array(list(mapping.keys()))
    )
    kept = batch.filter(mask)
    cols = {c: kept.column(c) for c in (keep_cols or kept.column_names)}
    cols[value_name] = pa.array(
        [mapping[k] for k in kept.column(key_col).to_pylist()], pa.int64()
    )
    return pa.table(cols)


# ---------------------------------------------------------------------------
# cross-document boilerplate sentence removal (RefinedWeb/CCNet-style)


def _sentence_explode_fn(id_col: str, text_col: str, lang_col: str):
    """The shared (doc → sentence rows) explode for the boilerplate
    passes: (id, sent_id, sentence, md5 sent_hash) via the engine
    splitter (functions/text.py:extract_sentences)."""
    from ..functions.text import extract_sentences

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        langs = (batch.column(lang_col).to_pylist()
                 if lang_col in batch.column_names
                 else ["en"] * batch.num_rows)
        o_id, o_sid, o_sent, o_hash = [], [], [], []
        for i, t, lg in zip(ids, texts, langs):
            for sid, sent in enumerate(extract_sentences(t, lg)):
                o_id.append(i)
                o_sid.append(sid)
                o_sent.append(sent)
                o_hash.append(
                    hashlib.md5(sent.encode("utf-8")).hexdigest()
                )
        return pa.table({
            id_col: pa.array(o_id, pa.int64()),
            "sent_id": pa.array(o_sid, pa.int64()),
            "sentence": pa.array(o_sent, pa.string()),
            "sent_hash": pa.array(o_hash, pa.string()),
        })

    return explode


def frequent_sentence_hashes(
    docs_ds,
    *,
    min_docs: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
    lang_col: str = "lang",
) -> list:
    """Pass 1 of the boilerplate scrub, standalone so a job can persist
    the result (jobs/scrub_job.py writes it once and reuses it on
    resume — shards stripped before and after a crash must see the SAME
    set): explode to sentences → per-batch DISTINCT (md5, doc) pairs →
    ``exchange`` on the hash → per-part distinct-doc counts; only
    hashes with ``ndocs >= min_docs`` reach the driver. Boilerplate is
    rare by definition — the returned sorted list is the
    FREQUENT-sentence tail, not the corpus (same small-side contract as
    the promo/dimension broadcasts)."""
    explode = _sentence_explode_fn(id_col, text_col, lang_col)

    def pair_combine(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "sent_hash": batch.column("sent_hash").to_pylist(),
            "doc": batch.column(id_col).to_pylist(),
        }).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    def count_docs(g: pd.DataFrame) -> pa.Table:
        pairs = g.drop_duplicates(["sent_hash", "doc"])
        ndocs = pairs["sent_hash"].value_counts()
        # typed Arrow: a 0-row pandas frame has an untyped object column
        return pa.table({"sent_hash": pa.array(
            ndocs.index[ndocs >= min_docs], pa.string())})

    frequent = exchange(
        docs_ds.map_batches(explode, batch_format="pyarrow"), "sent_hash",
        count_docs, combine=pair_combine,
    ).take_all()  # boilerplate-cardinality — the small side
    return sorted(row["sent_hash"] for row in frequent)


def strip_boilerplate(
    docs_ds,
    boiler_hashes,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    lang_col: str = "lang",
):
    """Pass 2 of the boilerplate scrub given an already-known
    frequent-sentence hash set (broadcast once via ``ray.put``):
    explode, drop matching sentences, rebuild each doc in ONE
    ``exchange`` on the doc id (vectorized per-part: sort by
    (doc, sent_id) + groupby-join). Returns
    (id_col, n_kept, n_removed, clean_text); a doc whose every sentence
    is boilerplate comes back with ``clean_text = ''``."""
    import ray

    import pyarrow.compute as pc

    explode = _sentence_explode_fn(id_col, text_col, lang_col)
    boiler_ref = ray.put(pa.array(sorted(boiler_hashes), pa.string()))

    def mark_kept(batch: pa.Table) -> pa.Table:
        boiler = ray.get(boiler_ref)
        keep = pc.invert(
            pc.is_in(batch.column("sent_hash"), value_set=boiler)
        )
        return pa.table({
            id_col: batch.column(id_col),
            "sent_id": batch.column("sent_id"),
            "sentence": batch.column("sentence"),
            "keep": keep,
        })

    def rebuild(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_col, "sent_id"], kind="mergesort")
        kept = g[g["keep"]]
        joined = kept.groupby(id_col)["sentence"].agg(" ".join)
        stats = g.groupby(id_col)["keep"].agg(["sum", "count"])
        out = pd.DataFrame({
            id_col: stats.index.astype("int64"),
            "n_kept": stats["sum"].astype("int64").to_numpy(),
            "n_removed": (stats["count"] - stats["sum"])
            .astype("int64").to_numpy(),
        })
        out["clean_text"] = (
            out[id_col].map(joined).fillna("").astype(str)
        )
        return out.reset_index(drop=True)

    return exchange(
        docs_ds.map_batches(explode, batch_format="pyarrow"), id_col,
        rebuild, combine=mark_kept,
    )


def remove_boilerplate_sentences(
    docs_ds,
    *,
    min_docs: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
    lang_col: str = "lang",
):
    """Strip sentences that repeat across >= ``min_docs`` DISTINCT
    documents (headers, footers, cookie banners) and reassemble each
    document from its surviving sentences, in original order.

    Composition of :func:`frequent_sentence_hashes` (pass 1: count →
    frequent tail to the driver) and :func:`strip_boilerplate` (pass 2:
    broadcast-filter + per-doc rebuild) — two streaming passes over the
    corpus, one boilerplate-sized broadcast between them. Nothing
    corpus-sized ever sits on the driver; the shuffle carries 16-byte
    hashes (pass 1) and surviving sentences keyed by doc (pass 2).
    Returns (id_col, n_kept, n_removed, clean_text), with
    ``clean_text = ''`` for fully-boilerplate docs, mirroring SQL
    ``COALESCE(string_agg(...), '')``."""
    kw = dict(id_col=id_col, text_col=text_col, lang_col=lang_col)
    boiler = frequent_sentence_hashes(docs_ds, min_docs=min_docs, **kw)
    return strip_boilerplate(docs_ds, boiler, **kw)


# ---------------------------------------------------------------------------
# duplicated-span scrubbing (exact substring dedup, Lee et al. 2022 shape)


def dup_span_scrub(
    docs_ds,
    *,
    n: int = 5,
    min_count: int = 2,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Scrub every span of words covered by a word ``n``-gram that
    occurs >= ``min_count`` times in the WHOLE corpus (within-doc
    repeats count, as in the exact-substring dedup of "Deduplicating
    Training Data Makes Language Models Better"): overlapping/adjacent
    duplicated-gram hits are coalesced into maximal spans
    (gaps-and-islands) and each document is re-emitted without the
    covered words.

    Returns (id_col, total_words, dup_words, n_spans, clean_text);
    a document whose every word is covered comes back with
    ``clean_text = ''``; a document with NO tokens has no output row
    (both mirrored by the SQL oracle, which derives from the word
    explode rather than the documents table).

    Scale shape — three exchanges, text shipped exactly once:

    1. gram explode (doc, pos, gram) → ``exchange`` on the gram;
       each part holds ALL occurrences of its grams, so duplicated-ness
       is decided locally (join-free, like :func:`novelty_scores`) and
       only qualifying (doc, pos) hits leave the part.
    2. word explode (doc, pos, word) — the single text-bearing pass —
       co-grouped with the hits by ONE ``exchange`` on the doc id.
    3. per doc partition: islands via per-doc cummax
       (vectorized), word coverage via ``pd.merge_asof`` against the
       disjoint sorted spans (vectorized), reassembly via sorted
       group-join.

    Token rule: lowercase + RE2 ``[\\t\\n\\f\\r ]`` split, byte-identical
    to :func:`ngram_counts` / DuckDB ``regexp_split_to_array`` (see
    CLAUDE.md). Gram strings cross the first shuffle verbatim for
    bit-exact oracle parity; the scale knob there is hashing them to
    16 bytes (same trade the minhash path takes).
    """
    import re

    ws = re.compile(r"[\t\n\f\r ]+")

    def explode_grams(batch: pa.Table) -> pa.Table:
        ids, poss, grams = [], [], []
        for i, t in zip(
            batch.column(id_col).to_pylist(),
            batch.column(text_col).to_pylist(),
        ):
            toks = [x for x in ws.split((t or "").lower()) if x]
            for j in range(len(toks) - n + 1):
                ids.append(i)
                poss.append(j)
                grams.append(" ".join(toks[j:j + n]))
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "pos": pa.array(poss, pa.int64()),
            "gram": pa.array(grams, pa.string()),
        })

    def dup_hits(g: pd.DataFrame) -> pa.Table:
        key = pd.Series(
            [x.encode("utf-8") for x in g["gram"]], index=g.index
        )
        cnt = key.groupby(key).transform("size")
        out = g.loc[cnt >= min_count, [id_col, "pos"]]
        # the same schema as the word explode: both arms of one co-group
        return pa.table({
            id_col: pa.array(out[id_col].to_numpy(), pa.int64()),
            "pos": pa.array(out["pos"].to_numpy(), pa.int64()),
            "word": pa.array([""] * len(out), pa.string()),
            "is_hit": pa.array([1] * len(out), pa.int64()),
        })

    def explode_words(batch: pa.Table) -> pa.Table:
        ids, poss, words_ = [], [], []
        for i, t in zip(
            batch.column(id_col).to_pylist(),
            batch.column(text_col).to_pylist(),
        ):
            toks = [x for x in ws.split((t or "").lower()) if x]
            for j, w in enumerate(toks):
                ids.append(i)
                poss.append(j)
                words_.append(w)
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "pos": pa.array(poss, pa.int64()),
            "word": pa.array(words_, pa.string()),
            "is_hit": pa.array([0] * len(ids), pa.int64()),
        })

    def rebuild(g: pd.DataFrame) -> pd.DataFrame:
        words = g[g["is_hit"] == 0]
        hits = g[g["is_hit"] == 1]
        # islands: coalesce [pos, pos+n-1] hit intervals per doc —
        # adjacent (touching) intervals merge, so a span is maximal
        if len(hits):
            h = hits.sort_values([id_col, "pos"], kind="mergesort").copy()
            h["end"] = h["pos"] + (n - 1)
            h["cmx"] = h.groupby(id_col)["end"].cummax()
            prev = h.groupby(id_col)["cmx"].shift()
            newisl = (h["pos"] > prev.fillna(-2) + 1).astype("int64")
            h["island"] = newisl.groupby(h[id_col].to_numpy()).cumsum()
            spans = h.groupby([id_col, "island"], as_index=False).agg(
                s=("pos", "min"), e=("end", "max")
            )
        else:
            spans = pd.DataFrame({
                id_col: pd.Series([], dtype="int64"),
                "s": pd.Series([], dtype="int64"),
                "e": pd.Series([], dtype="int64"),
            })
        # coverage: last span with s <= pos per doc, covered iff pos <= e
        w = words.sort_values("pos", kind="mergesort")
        m = pd.merge_asof(
            w[[id_col, "pos", "word"]],
            spans.sort_values("s", kind="mergesort"),
            by=id_col, left_on="pos", right_on="s",
            direction="backward",
        )
        m["covered"] = m["pos"] <= m["e"].fillna(-1)
        m = m.sort_values([id_col, "pos"], kind="mergesort")
        joined = (
            m.loc[~m["covered"]]
            .groupby(id_col)["word"].agg(" ".join)
        )
        stats = m.groupby(id_col)["covered"].agg(["sum", "count"])
        nsp = spans.groupby(id_col).size() if len(spans) else pd.Series(
            dtype="int64"
        )
        out = pd.DataFrame({
            id_col: stats.index.astype("int64"),
            "total_words": stats["count"].astype("int64").to_numpy(),
            "dup_words": stats["sum"].astype("int64").to_numpy(),
        })
        out["n_spans"] = (
            out[id_col].map(nsp).fillna(0).astype("int64")
        )
        out["clean_text"] = (
            out[id_col].map(joined).fillna("").astype(str)
        )
        return out.reset_index(drop=True)

    hits_ds = exchange(docs_ds, "gram", dup_hits, combine=explode_grams)
    words_ds = docs_ds.map_batches(explode_words, batch_format="pyarrow")
    return exchange([words_ds, hits_ds], id_col, rebuild)


# ---------------------------------------------------------------------------
# row-local DuckDB SQL as a distributed batch stage (extension surface)


class DuckDBBatchSQL:
    """Kernel that runs ONE row-local DuckDB SQL statement over every
    Arrow batch (registered as the view ``batch``): an escape hatch
    that pushes arbitrary SQL projections / filters / scalar functions
    into the distributed map without writing a kernel. The connection
    is opened once per worker process (``__init__``, built by
    :func:`.extract.map_kernel`), each call is zero-copy Arrow in /
    Arrow out.

    ONLY row-local statements are sound: an aggregate or window in the
    statement sees one BATCH, not the dataset — use the engine's
    groupby/window operators for those. ``sql_map_batches`` is the
    callable-function wrapper."""

    def __init__(self, sql: str):
        import duckdb

        self._con = duckdb.connect()
        self._sql = sql

    def __call__(self, batch: pa.Table) -> pa.Table:
        self._con.register("batch", batch)
        try:
            return self._con.sql(self._sql).arrow()
        finally:
            self._con.unregister("batch")


def sql_map_batches(ds, sql: str, *, batch_size: int | None = None):
    """Apply a row-local DuckDB SQL statement (``... FROM batch``) to
    every batch of ``ds`` through :class:`DuckDBBatchSQL` tasks.
    Because the statement is row-local, the distributed result equals
    running the same statement over the whole table on one node — which
    is exactly what the oracle gate checks."""
    return map_kernel(ds, DuckDBBatchSQL, batch_size=batch_size, sql=sql)


# ---------------------------------------------------------------------------
# distinct set operations (INTERSECT / EXCEPT) and per-group mode


def set_op_distinct(left_ds, right_ds, op: str, *, cols: list):
    """SQL ``INTERSECT`` / ``EXCEPT`` (DISTINCT semantics) on ``cols``:
    per-batch distinct projection tagged by side → ONE co-group
    ``exchange`` on ``cols`` (both sides of a given key land together)
    → per-part vectorized membership decision. Output is globally
    distinct because each key lives in exactly one partition. Null-safe:
    the exchange routes on the Arrow-typed key, and the per-part pandas
    merge (nullable Int64, see ``_to_pandas_exact``) does the exact
    comparison."""
    from .joins import _to_pandas_exact

    if op not in ("intersect", "except"):
        raise ValueError(f"op must be intersect/except, got {op!r}")

    def project(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            t = batch.select(cols).group_by(cols, use_threads=False)
            t = t.aggregate([]).select(cols)  # Arrow-typed distinct rows
            return t.append_column(
                "_side", pa.array(np.full(t.num_rows, side), pa.int64())
            )

        return fn

    def decide(t: pa.Table) -> pd.DataFrame:
        # nullable Int64: a null-bearing part must not flip ints to
        # float64 for THAT part only
        g = _to_pandas_exact(t)
        l = g[g["_side"] == 0][cols].drop_duplicates()
        r = g[g["_side"] == 1][cols].drop_duplicates()
        # pandas merge matches NA==NA for nullable dtypes — exactly the
        # set-op NULL semantics (NULL IS NOT DISTINCT FROM NULL)
        merged = l.merge(r, on=cols, how="left", indicator=True)
        if op == "intersect":
            out = merged[merged["_merge"] == "both"][cols]
        else:
            out = merged[merged["_merge"] == "left_only"][cols]
        return out.reset_index(drop=True)

    return exchange(
        [left_ds.map_batches(project(0), batch_format="pyarrow"),
         right_ds.map_batches(project(1), batch_format="pyarrow")],
        cols, decide, batch_format="pyarrow",
    )


def mode_per_group(ds, *, group_col: str, value_col: str):
    """Deterministic per-group mode: the most frequent ``value_col``
    per ``group_col``, ties broken by the smaller value (SQL mirror:
    ``row_number() OVER (PARTITION BY g ORDER BY cnt DESC, v)`` = 1 —
    never bare ``mode()``, whose tie-break is engine-defined).
    Per-batch (group, value, n) Arrow combiner → ``exchange`` on the
    group (a group's every value lands together) → per-part count
    merge + vectorized argmax. Emits (group_col, value_col, n)."""
    import pyarrow.compute as pc

    from .joins import _to_pandas_exact

    def partial(batch: pa.Table) -> pa.Table:
        # Arrow's hash aggregate groups NULL keys together, as SQL does
        t = batch.group_by([group_col, value_col], use_threads=False)
        t = t.aggregate([(value_col, "count", pc.CountOptions(mode="all"))])
        return pa.table({
            group_col: t.column(group_col),
            value_col: t.column(value_col),
            "n": t.column(f"{value_col}_count"),
        })

    def merge(t: pa.Table) -> pd.DataFrame:
        # nullable Int64 + dropna=False: SQL groups NULL keys together
        # (pandas would silently drop them, and a null-bearing part
        # would flip int groups to float64); counts are never null
        g = _to_pandas_exact(t).astype({"n": "int64"})
        agg = g.groupby(
            [group_col, value_col], as_index=False, dropna=False
        ).agg(n=("n", "sum"))
        agg = agg.sort_values(
            [group_col, "n", value_col],
            ascending=[True, False, True],
            kind="mergesort",
            na_position="last",
        )
        return agg.groupby(
            group_col, as_index=False, dropna=False
        ).head(1)[
            [group_col, value_col, "n"]
        ].reset_index(drop=True)

    return exchange(ds, group_col, merge, combine=partial,
                    batch_format="pyarrow")


def unpivot(ds, *, id_cols: list, value_cols: list,
            name_col: str = "name", value_col: str = "value"):
    """Wide→long reshape (SQL UNPIVOT): each input row yields
    ``len(value_cols)`` output rows ``(id_cols..., name_col,
    value_col)``. Row-local by construction — a stateless vectorized
    ``pandas.melt`` per batch, NO shuffle — so the distributed result
    equals the single-node one (same row-locality argument as
    :func:`sql_map_batches`). Zero values are kept but NULL values are
    dropped, matching DuckDB UNPIVOT exactly."""

    def melt(b: pd.DataFrame) -> pd.DataFrame:
        out = b.melt(
            id_vars=id_cols, value_vars=value_cols,
            var_name=name_col, value_name=value_col,
        )
        # DuckDB UNPIVOT drops rows whose value is NULL (zeros stay)
        return out.dropna(subset=[value_col]).reset_index(drop=True)

    return ds.map_batches(melt, batch_format="pandas")


# ---------------------------------------------------------------------------
# exact distributed percentiles (type-1 / lower discrete quantile)


def value_distribution(ds, col: str, *, by: str | None = None,
                       num_parts: int | None = None):
    """(value[, by]) → exact count table, exchanged as a DISTRIBUTION.

    Each batch collapses to at most |distinct values in batch| partial
    rows (vectorized ``pc.value_counts`` / pandas groupby), then an
    ``exchange`` on the value sums the partials — the shuffle moves
    the value distribution, never the rows, so its volume is bounded by
    the value domain (lengths/scores are small-int domains) regardless
    of corpus size."""
    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        # SQL aggregate semantics: NULL values never count toward the
        # distribution (pc.value_counts would emit a null row); a null
        # GROUP key still forms its group.
        batch = batch.filter(pc.is_valid(batch.column(col)))
        if by is None:
            vc = pc.value_counts(batch.column(col).combine_chunks())
            t = pa.table(
                {
                    "v": vc.field("values"),
                    "cnt": pc.cast(vc.field("counts"), pa.int64()),
                }
            )
        else:
            from .joins import _to_pandas_exact

            # nullable-Int64 conversion: a null in the BY column must
            # not flip int64 columns to float64 (CLAUDE.md r4 hazard)
            df = _to_pandas_exact(batch.select([by, col]))
            g = df.groupby([by, col], as_index=False, dropna=False).size()
            t = pa.table(
                {
                    by: pa.array(g[by]),
                    "v": pa.array(g[col].astype("int64")),
                    "cnt": pa.array(g["size"], pa.int64()),
                }
            )
        return t

    keys = [by, "v"] if by else ["v"]

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        return group.groupby(keys, as_index=False, dropna=False)["cnt"].sum()

    return exchange(ds, "v", merge, combine=partial, num_parts=num_parts)


def _rank_select(dist: pd.DataFrame, q_permille) -> list[tuple]:
    """Walk one sorted (v, cnt) distribution; pick rank ceil(q/1000*n)."""
    import math

    dist = dist.sort_values("v").reset_index(drop=True)
    n = int(dist["cnt"].sum())
    cum = dist["cnt"].cumsum()
    out = []
    for q in q_permille:
        rank = max(1, math.ceil(q / 1000.0 * n))
        idx = int((cum >= rank).idxmax())
        out.append((int(q), int(dist["v"].iloc[idx])))
    return out


def exact_percentiles(ds, col: str, q_permille=(100, 250, 500, 750, 900),
                      *, by: str | None = None,
                      num_parts: int | None = None) -> pa.Table:
    """Exact discrete percentiles of an integer column, distributed.

    Type-1 (lower) quantile: the element at rank ``ceil(q/1000 * n)`` of
    the sorted values — deterministic under ties, and computable in SQL
    with ``row_number() OVER (ORDER BY v)`` (the oracle mirror). The
    heavy pass is :func:`value_distribution`; the final rank walk runs
    on the driver over the distribution table (|distinct values| rows —
    the same bounded-result contract as the BM25 stats pass), never the
    corpus. Returns a pyarrow.Table ``([by,] q_permille, value)``."""
    dist = value_distribution(ds, col, by=by, num_parts=num_parts).to_pandas()
    if len(dist) == 0 or "v" not in dist.columns:
        # empty input (or all-null column): Ray erases the block schema
        # of an executed-empty dataset (round-4 hazard), so build the
        # typed empty result explicitly — the SQL mirror yields 0 rows
        cols = {}
        if by is not None:
            by_type = pa.string()
            try:
                sch = ds.schema()
                for n, t in zip(sch.names, sch.types):
                    if n == by and isinstance(t, pa.DataType):
                        by_type = t
            except Exception:
                pass
            cols[by] = pa.array([], by_type)
        cols["q_permille"] = pa.array([], pa.int64())
        cols["value"] = pa.array([], pa.int64())
        return pa.table(cols)
    if by is None:
        rows = _rank_select(dist, q_permille)
        return pa.table(
            {
                "q_permille": pa.array([q for q, _ in rows], pa.int64()),
                "value": pa.array([v for _, v in rows], pa.int64()),
            }
        )
    out_by, out_q, out_v = [], [], []
    for key, g in dist.groupby(by, dropna=False, sort=True):
        for q, v in _rank_select(g, q_permille):
            out_by.append(key)
            out_q.append(q)
            out_v.append(v)
    return pa.table(
        {
            by: pa.array(out_by),
            "q_permille": pa.array(out_q, pa.int64()),
            "value": pa.array(out_v, pa.int64()),
        }
    )


def profile_table(ds, cols, *, kmv_k: int = 65536):
    """Column-profiling pass — the data-quality audit every ingest runs:
    per column ``(col, n_rows, n_nulls, n_distinct, min_v, max_v)``.

    ONE stream over the data: each batch emits one partial row per
    column (count, null count, min/max, and the column's k-minimum
    md5 hash sketch packed as bytes), then an ``exchange_per_key`` on
    the column name (``len(cols)`` keys) — the shuffle carries #blocks×#cols
    tiny rows regardless of corpus size. ``n_distinct`` follows the
    repo-standard KMV rule (:func:`kmv_distinct_sketch`): exact below
    ``kmv_k`` distinct values (so the SQL oracle's COUNT(DISTINCT)
    matches bit-for-bit at fixture scale), the ``(k-1)·2^64 // h_k``
    estimator beyond it (the 100-TB path; the sketch stays ≤ k·8
    bytes per column per batch). Nulls are excluded from distinct and
    min/max, SQL-style. min/max travel the shuffle as strings with a
    per-column kind tag (int values compared numerically after
    decode) so pandas block conversion can never drift an int64
    column to float64 (CLAUDE.md round-4 hazard). Integer and string
    columns are supported; other types raise."""
    import ray.data

    from ..functions.textstats import _md5_number_lower

    schema = ds.schema()
    kinds = {}
    for name, typ in zip(schema.names, schema.types):
        if name in cols:
            if isinstance(typ, pa.DataType):
                is_int = pa.types.is_integer(typ)
                is_str = pa.types.is_string(typ) or pa.types.is_large_string(
                    typ
                )
            else:  # pandas-block dataset: numpy dtype or python type
                is_int = getattr(typ, "kind", None) in ("i", "u")
                is_str = typ in (str, object) or getattr(
                    typ, "kind", None
                ) in ("U", "S", "O")
            if is_int:
                kinds[name] = "i"
            elif is_str:
                kinds[name] = "s"
            else:
                raise TypeError(
                    f"profile_table supports integer/string columns; "
                    f"{name!r} has type {typ}"
                )
    missing = [c for c in cols if c not in kinds]
    if missing:
        raise KeyError(f"profile_table: columns not in schema: {missing}")

    def partial(batch: pa.Table) -> pa.Table:
        out = {
            "col": [], "kind": [], "n": [], "nulls": [],
            "min_v": [], "max_v": [], "hvs": [],
        }
        for name in cols:
            arr = batch.column(name)
            vals = [v for v in arr.to_pylist() if v is not None]
            hs = sorted(
                _md5_number_lower(str(v)) for v in set(vals)
            )[:kmv_k]
            out["col"].append(name)
            out["kind"].append(kinds[name])
            out["n"].append(batch.num_rows)
            out["nulls"].append(batch.num_rows - len(vals))
            out["min_v"].append(str(min(vals)) if vals else None)
            out["max_v"].append(str(max(vals)) if vals else None)
            out["hvs"].append(
                np.asarray(hs, dtype=np.uint64).tobytes()
            )
        return pa.table(
            {
                "col": pa.array(out["col"], pa.string()),
                "kind": pa.array(out["kind"], pa.string()),
                "n": pa.array(out["n"], pa.int64()),
                "nulls": pa.array(out["nulls"], pa.int64()),
                "min_v": pa.array(out["min_v"], pa.string()),
                "max_v": pa.array(out["max_v"], pa.string()),
                "hvs": pa.array(out["hvs"], pa.binary()),
            }
        )

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        kind = df["kind"].iloc[0]
        dec = (lambda s: int(s)) if kind == "i" else (lambda s: s)
        mins = [dec(s) for s in df["min_v"] if s is not None]
        maxs = [dec(s) for s in df["max_v"] if s is not None]
        hs = sorted(
            set().union(
                *(np.frombuffer(b, dtype=np.uint64).tolist()
                  for b in df["hvs"])
            )
        )[:kmv_k]
        if len(hs) >= kmv_k:
            nd = min((kmv_k - 1) * (1 << 64) // int(hs[-1]), 2**63 - 1)
        else:
            nd = len(hs)
        return pd.DataFrame(
            {
                "col": [df["col"].iloc[0]],
                "n_rows": pd.Series([int(df["n"].sum())], dtype="int64"),
                "n_nulls": pd.Series(
                    [int(df["nulls"].sum())], dtype="int64"
                ),
                "n_distinct": pd.Series([int(nd)], dtype="int64"),
                "min_v": pd.Series(
                    [str(min(mins)) if mins else None], dtype="object"
                ),
                "max_v": pd.Series(
                    [str(max(maxs)) if maxs else None], dtype="object"
                ),
            }
        )

    out = exchange_per_key(
        ds.map_batches(partial, batch_format="pyarrow"), "col", merge
    ).materialize()  # len(cols) rows
    if out.count() == 0:
        # zero input rows: the SQL mirror still emits one row per column
        # (COUNT -> 0, MIN/MAX -> NULL)
        return ray.data.from_arrow(
            pa.table(
                {
                    "col": pa.array(sorted(cols), pa.string()),
                    "n_rows": pa.array([0] * len(cols), pa.int64()),
                    "n_nulls": pa.array([0] * len(cols), pa.int64()),
                    "n_distinct": pa.array([0] * len(cols), pa.int64()),
                    "min_v": pa.array([None] * len(cols), pa.string()),
                    "max_v": pa.array([None] * len(cols), pa.string()),
                }
            )
        )
    return out


def percentile_clip(ds, col: str, *, lo_permille: int = 50,
                    hi_permille: int = 950, num_parts: int | None = None):
    """Two-pass percentile-cutoff curation filter.

    Pass 1 computes the exact [lo, hi] cutoffs via
    :func:`exact_percentiles`; pass 2 re-streams the dataset filtering
    ``lo <= col <= hi`` — the cutoffs are two ints carried in the task
    closure (nothing is re-shipped per batch, no shuffle in pass 2)."""
    import pyarrow.compute as pc

    cuts = exact_percentiles(
        ds, col, (lo_permille, hi_permille), num_parts=num_parts
    )
    if cuts.num_rows == 0:
        # empty/all-null input: SQL's BETWEEN NULL AND NULL keeps no rows
        return ds.limit(0)
    lo, hi = cuts.column("value")[0].as_py(), cuts.column("value")[1].as_py()

    def keep(batch: pa.Table) -> pa.Table:
        v = batch.column(col)
        return batch.filter(
            pc.and_(pc.greater_equal(v, lo), pc.less_equal(v, hi))
        )

    return ds.map_batches(keep, batch_format="pyarrow")
