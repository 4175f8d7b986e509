"""Driver-facing query registry (SURVEY.md §2 coverage).

Each entry is a callable ``(sf_dir) -> ray.data.Dataset`` implemented
Ray-Data-first; ORACLE_SQL holds the DuckDB-equivalent ANSI SQL for every
SQL-expressible query (column names match exactly — the driver compares
sorted-by-name value hashes). Pipeline operators whose semantics need the
labeler/NER kernels are registered without SQL (rows-only checks) and are
covered instead by the tests' reference-semantics oracle gate.

Float-valued aggregates are returned as integer cents/permille
(``FLOOR(x*100 + 0.5)``) on both sides so value hashes cannot diverge on
float formatting.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa

from . import oracles
from .memo import cached_read_parquet, dataset_memo
from .stages.exchange import exchange

_ANN_SEED = 123
_ANN_K = 10


def _docs(sf_dir, num_blocks: int | None = None):
    """documents read; ``num_blocks`` repartitions after the read — the
    sf documents table is ONE parquet row group = ONE Ray block, so
    without it every downstream stage runs as a single task regardless
    of cluster size (at production scale file count provides natural
    block parallelism and the repartition is unnecessary)."""

    ds = cached_read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    if num_blocks:
        ds = ds.repartition(num_blocks)
    return ds


def _read_blocks() -> int:
    from .stages.dataops import cluster_cpus

    return max(8, cluster_cpus())


def _from_pandas_exact(df: pd.DataFrame) -> pa.Table:
    """0-row-safe small-result constructor.

    Ray's ``Dataset.to_pandas()`` on a 0-row dataset returns a frame
    with ZERO columns regardless of the dataset's schema (the block
    builder never sees a batch — round-4 hazard family, CLAUDE.md), so
    wrapping a tiny driver-side result back into a Dataset fails the
    oracle gate whenever the result window is legitimately empty.
    Return an explicit ``pyarrow.Table`` instead — the ``queries()``
    contract allows it, ``.to_pandas()`` keeps working, and an empty
    table keeps its columns and types. Empty ``object`` columns are
    pinned to ``string`` — Arrow would otherwise infer ``null``.
    """
    fields = []
    for name in df.columns:
        dt = df[name].dtype
        if dt == object or str(dt) in ("string", "str"):
            typ = pa.string()
        elif str(dt) == "Int64":
            typ = pa.int64()
        else:
            typ = pa.from_numpy_dtype(dt)
        fields.append(pa.field(name, typ))
    return pa.Table.from_pandas(
        df, schema=pa.schema(fields), preserve_index=False
    )


def ann_query_vector(dim: int = 64) -> np.ndarray:
    """Deterministic query vector, rounded so the SQL literal is exact."""
    v = np.random.RandomState(_ANN_SEED).randn(dim)
    return np.round(v, 4)


# ---------------------------------------------------------------------------
# documents table operators (SQL-oracled)


_MSFIX_WORDS = [
    "alpha", "beta", "gamma", "delta", "rows", "scan", "merge", "fast",
    "table", "query",
]


def multisentence_fixture_docs(n: int = 16):
    """Deterministic multi-sentence prose docs unioned into doc_sentences
    so the sentence SPLITTER (sent_id > 0), the length filter and the
    curly-quote normalizer are exercised by the driver's hard gate (the
    sf documents are all single-sentence). Negative doc_ids cannot
    collide with the corpus; the same rows are embedded as VALUES
    literals in the SQL oracle."""
    import hashlib

    docs = []
    for i in range(n):
        h = int.from_bytes(
            hashlib.md5(f"msfix:{i}".encode()).digest()[:8], "little"
        )
        sents = []
        for k in range(2 + h % 4):
            hk = int.from_bytes(
                hashlib.md5(f"msfix:{i}:{k}".encode()).digest()[:8], "little"
            )
            words = [
                _MSFIX_WORDS[(hk >> (4 * j)) % 10]
                for j in range(3 + hk % 5)
            ]
            sents.append(" ".join(words) + " .")
        if i == 0:
            sents.append("it’s fast .")  # quote normalization (O1)
        if i == 1:
            sents.append(" ".join(["pad"] * 120) + " .")  # >100w: dropped
        if i == 2:
            # decimal stays whole + unterminated tail survives the split
            sents.append("version 3.5 of it works")
        if i == 3:
            sents.append("glued punct works.")  # O1 punctuation spacing
        docs.append(
            {
                "doc_id": -(i + 1),
                "text": " " + "  ".join(sents) + " ",
                "lang": "en",
            }
        )
    return docs


def _docs_with_fixture(sf_dir):
    import ray.data

    fix = multisentence_fixture_docs()
    tbl = pa.table(
        {
            "doc_id": pa.array([d["doc_id"] for d in fix], pa.int64()),
            "text": pa.array([d["text"] for d in fix], pa.string()),
            "lang": pa.array([d["lang"] for d in fix], pa.string()),
        }
    )
    return _docs(sf_dir).union(ray.data.from_arrow(tbl))


def q_doc_sentences(sf_dir):
    """S1/O1: documents (∪ multi-sentence fixture) → normalized sentence
    rows (prose path)."""
    from .functions.text import extract_sentences

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        langs = batch.column("lang").to_pylist()
        o_id, o_sid, o_sent = [], [], []
        for i, t, lg in zip(ids, texts, langs):
            for sid, sent in enumerate(extract_sentences(t, lg)):
                o_id.append(i)
                o_sid.append(sid)
                o_sent.append(sent)
        return pa.table(
            {
                "doc_id": pa.array(o_id, pa.int64()),
                "sent_id": pa.array(o_sid, pa.int64()),
                "sentence": pa.array(o_sent, pa.string()),
            }
        )

    return _docs_with_fixture(sf_dir).map_batches(
        explode, batch_format="pyarrow"
    )


def _sql_doc_sentences() -> str:
    """Sentence splitter + normalizer in SQL with the ENGINE's exact
    split semantics, '(?<=[.!?])\\s+': RE2 has no lookbehind, so the
    split point is materialized by rewriting 'ender + whitespace' to
    'ender + \\x01' and splitting on \\x01 — unterminated tails survive
    and decimals like '3.5' stay whole, matching
    functions/text.py:split_prose_sentences on any input. The glued-
    punctuation spacing rule (O1, a lookaround in Python) is emulated
    with a consuming group '(\\w)([.,;:!?])(\\s|$)'. sent_id enumerates
    KEPT sentences (post length-filter), as the engine's enumerate()
    does."""
    rows = ",\n    ".join(
        "({id}, '{t}')".format(
            id=d["doc_id"], t=d["text"].replace("'", "''")
        )
        for d in multisentence_fixture_docs()
    )
    return _sql_sentence_rows(f"""
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT * FROM (VALUES {rows}) fix(doc_id, text)""")


def _sql_sentence_rows(alldocs_sql: str) -> str:
    """The sentence CTE chain over an ``alldocs(doc_id, text)`` source —
    shared by the doc_sentences oracle and every oracle that re-splits
    documents, so the SQL mirror of the splitter lives in ONE place."""
    return f"""
WITH alldocs AS ({alldocs_sql}
), chunks AS (
  SELECT doc_id,
         string_split(
           regexp_replace(trim(text), '([.!?])\\s+', '\\1' || chr(1), 'g'),
           chr(1)) AS rawsents
  FROM alldocs
), exploded AS (
  SELECT doc_id, unnest(rawsents) AS raw,
         generate_subscripts(rawsents, 1) AS ord
  FROM chunks
), normed AS (
  SELECT doc_id, ord,
         array_to_string(regexp_split_to_array(trim(
           regexp_replace(
             replace(replace(replace(raw, '’', chr(39)),
                     '”', repeat(chr(39), 2)), '“', repeat(chr(39), 2)),
             '(\\w)([.,;:!?])(\\s|$)', '\\1 \\2\\3', 'g')
         ), '\\s+'), ' ') AS sentence
  FROM exploded
)
SELECT doc_id,
       (row_number() OVER (PARTITION BY doc_id ORDER BY ord) - 1)::BIGINT
         AS sent_id,
       sentence
FROM normed
WHERE sentence <> ''
  AND len(regexp_split_to_array(sentence, ' ')) <= 100
"""


def q_doc_sentences_wordpieces(sf_dir):
    """O4's wordpiece half as a flag-and-carry column (SURVEY O4 says
    flag, don't drop; reference data.py:284-285,294-303): doc_sentences
    + ``n_wordpieces`` (len([bos]+pieces+[eos]) from the torch-free
    greedy longest-prefix kernel over the literal demo vocab) +
    ``fits_model`` (<=100 words AND <512 wordpieces, as int64). The SQL
    oracle mirrors the greedy longest-prefix walk with a recursive CTE
    over the same vocab literal."""
    from .stages.sentences import with_wordpiece_counts

    return with_wordpiece_counts(q_doc_sentences(sf_dir))


def _sql_doc_sentences_wordpieces() -> str:
    """Greedy longest-prefix wordpiece count in SQL: per (word, pos) the
    longest vocab match (prefix tokens at pos 0, '##' continuations
    after) is precomputed in ``best``; a recursive walk then advances
    through each distinct word, any failed step marking the whole word
    UNK (count 1 — the published algorithm's is_bad rule, also applied
    to >100-char words).

    SCOPE: the punctuation-split class mirrors only the ASCII half of
    BERT's is_punctuation rule (the engine kernel additionally splits
    Unicode category-P chars and strips control chars,
    functions/wordpiece.py:64-91). Every sf fixture is pure ASCII
    (checked), so the mirror is exact here; on non-ASCII corpora the
    ENGINE is the reference-faithful side and this oracle would
    under-split — do not extend the hash gate to such inputs without
    widening this class first (CLAUDE.md RE2-divergence rule)."""
    from .functions.wordpiece import demo_vocab

    vocab_values = ", ".join(
        "('" + t.replace("'", "''") + "')" for t in sorted(demo_vocab())
    )
    return f"""
WITH RECURSIVE
sents AS ({_sql_doc_sentences()}),
vocab(tok) AS (VALUES {vocab_values}),
rawwords AS (
  SELECT doc_id, sent_id, u.word0
  FROM sents, unnest(string_split(sentence, ' ')) AS u(word0)
),
-- basic_tokenize's punctuation split (functions/wordpiece.py:64-91,
-- ASCII ranges 33-47/58-64/91-96/123-126): every punct char becomes
-- its own sub-token before the greedy wordpiece walk
words AS (
  SELECT r.doc_id, r.sent_id, t.word
  FROM rawwords r,
       unnest(string_split(
         regexp_replace(r.word0, '([!-/:-@\\[-`{{-~])',
                        chr(1) || '\\1' || chr(1), 'g'),
         chr(1))) AS t(word)
  WHERE t.word <> ''
),
dwords AS (SELECT DISTINCT word FROM words),
grid AS (
  SELECT d.word, CAST(g.range AS INT) AS pos
  FROM dwords d CROSS JOIN range(0, 100) g
  WHERE CAST(g.range AS INT) < len(d.word)
),
best AS (
  SELECT g.word, g.pos,
         max(CASE WHEN g.pos = 0 THEN
                    CASE WHEN v.tok NOT LIKE '##%'
                          AND substr(g.word, 1, len(v.tok)) = v.tok
                         THEN len(v.tok) END
                  ELSE
                    CASE WHEN v.tok LIKE '##%' AND len(v.tok) > 2
                          AND substr(g.word, g.pos + 1, len(v.tok) - 2)
                              = substr(v.tok, 3)
                         THEN len(v.tok) - 2 END
             END) AS step_len
  FROM grid g, vocab v
  GROUP BY g.word, g.pos
),
walk(word, pos, n, bad) AS (
  SELECT word, 0, 0, false FROM dwords
  UNION ALL
  SELECT w.word,
         w.pos + coalesce(b.step_len, 0),
         w.n + 1,
         b.step_len IS NULL
  FROM walk w JOIN best b ON b.word = w.word AND b.pos = w.pos
  WHERE w.pos < len(w.word) AND NOT w.bad
),
word_counts AS (
  SELECT word,
         CASE WHEN len(word) > 100 OR bool_or(bad) THEN 1
              ELSE max(n) END AS n_pieces
  FROM walk GROUP BY word
),
per_sent AS (
  SELECT w.doc_id, w.sent_id, (2 + sum(c.n_pieces))::BIGINT AS n_wordpieces
  FROM words w JOIN word_counts c ON c.word = w.word
  GROUP BY w.doc_id, w.sent_id
)
SELECT s.doc_id, s.sent_id, s.sentence, p.n_wordpieces,
       (CASE WHEN len(string_split(s.sentence, ' ')) <= 100
              AND p.n_wordpieces < 512 THEN 1 ELSE 0 END)::BIGINT
         AS fits_model
FROM sents s JOIN per_sent p
  ON p.doc_id = s.doc_id AND p.sent_id = s.sent_id
"""


def q_token_counts(sf_dir):
    def counts(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tokens": pa.array(
                    [len(t.split()) for t in texts], pa.int64()
                ),
            }
        )

    return _docs(sf_dir).map_batches(counts, batch_format="pyarrow")


SQL_TOKEN_COUNTS = """
SELECT doc_id,
       len(regexp_split_to_array(trim(text), ' +'))::BIGINT AS n_tokens
FROM documents
"""


def q_lang_counts(sf_dir):
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        langs = pd.Series(batch.column("lang").to_pylist()).value_counts()
        return pa.table(
            {
                "lang": pa.array(langs.index.to_list(), pa.string()),
                "n_docs": pa.array(langs.to_list(), pa.int64()),
            }
        )

    return (
        _docs(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("n_docs", alias_name="n_docs"))
    )


SQL_LANG_COUNTS = """
SELECT lang, count(*)::BIGINT AS n_docs FROM documents GROUP BY lang
"""


def q_doc_hashes(sf_dir):
    """Lineage + fingerprint columns (north-rule sha256 invariant)."""
    import hashlib

    def hashes(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "content_sha256": pa.array(
                    [hashlib.sha256(t.encode()).hexdigest() for t in texts],
                    pa.string(),
                ),
                "fingerprint_md5": pa.array(
                    [hashlib.md5(t.encode()).hexdigest() for t in texts],
                    pa.string(),
                ),
            }
        )

    return _docs(sf_dir).map_batches(hashes, batch_format="pyarrow")


SQL_DOC_HASHES = """
SELECT doc_id, sha256(text) AS content_sha256, md5(text) AS fingerprint_md5
FROM documents
"""


def q_exact_dedup_docs(sf_dir):
    from .stages.dataops import exact_dedup_groups

    return exact_dedup_groups(_docs(sf_dir))


SQL_EXACT_DEDUP_DOCS = """
SELECT sha256(text) AS content_sha256,
       min(doc_id)::BIGINT AS keeper_id,
       count(*)::BIGINT AS n_docs
FROM documents GROUP BY 1
"""


def q_quality_scores(sf_dir):
    from .functions.textstats import quality_stats

    def stats(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        q = [quality_stats(t) for t in texts]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_words": pa.array([x["n_words"] for x in q], pa.int64()),
                "stopword_permille": pa.array(
                    [x["stopword_permille"] for x in q], pa.int64()
                ),
                "mean_word_len_centi": pa.array(
                    [x["mean_word_len_centi"] for x in q], pa.int64()
                ),
            }
        )

    return _docs(sf_dir).map_batches(stats, batch_format="pyarrow")


SQL_QUALITY_SCORES = """
WITH w AS (
  SELECT doc_id,
         regexp_split_to_array(trim(text), ' +') AS words,
         regexp_replace(text, ' ', '', 'g') AS nospace
  FROM documents
)
SELECT doc_id,
       len(words)::BIGINT AS n_words,
       ((1000 * len(list_filter(words,
           x -> lower(x) IN ('the','a','an','and','of','to','in','is','on','for'))))
         // len(words))::BIGINT AS stopword_permille,
       ((100 * len(nospace)) // len(words))::BIGINT AS mean_word_len_centi
FROM w
"""


# ---------------------------------------------------------------------------
# embeddings: similarity search


def q_ann_topk(sf_dir):
    from .stages.dataops import ann_topk

    emb = cached_read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    top = ann_topk(emb, ann_query_vector(), k=_ANN_K)

    def add_rank(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "rank": pa.array(
                    np.arange(1, batch.num_rows + 1), pa.int64()
                ),
                "vec_id": batch.column("vec_id"),
            }
        )

    # the limit(k) result is one small sorted block
    return top.repartition(1).map_batches(add_rank, batch_format="pyarrow")


def _sql_ann_topk() -> str:
    vec = ", ".join(f"{x:.4f}" for x in ann_query_vector())
    return f"""
SELECT row_number() OVER (
         ORDER BY list_cosine_similarity(embedding, [{vec}]) DESC, vec_id
       )::BIGINT AS rank,
       vec_id
FROM embeddings
ORDER BY rank LIMIT {_ANN_K}
"""


# ---------------------------------------------------------------------------
# relational operators over the TPC-H-ish tables (joins, aggregates, windows)


def _cents(x: float) -> int:
    return int(math.floor(x * 100 + 0.5))


def q_lineitem_agg(sf_dir):
    """TPC-H Q1 shape: per-batch combiner → tiny groupby (no raw-row
    shuffle)."""
    from ray.data.aggregate import Sum

    ds = cached_read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_returnflag", "l_linestatus", "l_quantity",
            "l_extendedprice", "l_discount",
        ],
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        batch["disc_price"] = batch["l_extendedprice"] * (1 - batch["l_discount"])
        g = (
            batch.groupby(["l_returnflag", "l_linestatus"], as_index=False)
            .agg(
                sum_qty=("l_quantity", "sum"),
                sum_base=("l_extendedprice", "sum"),
                sum_disc=("disc_price", "sum"),
                n_rows=("l_quantity", "size"),
            )
        )
        return g

    agg = (
        ds.map_batches(partial, batch_format="pandas", batch_size=65536)
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("sum_qty", alias_name="sum_qty"),
            Sum("sum_base", alias_name="sum_base"),
            Sum("sum_disc", alias_name="sum_disc"),
            Sum("n_rows", alias_name="n_rows"),
        )
    )

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "sum_qty_cents": pa.array(
                    [_cents(v) for v in batch.column("sum_qty").to_pylist()],
                    pa.int64(),
                ),
                "sum_base_cents": pa.array(
                    [_cents(v) for v in batch.column("sum_base").to_pylist()],
                    pa.int64(),
                ),
                "sum_disc_cents": pa.array(
                    [_cents(v) for v in batch.column("sum_disc").to_pylist()],
                    pa.int64(),
                ),
                "n_rows": batch.column("n_rows"),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


SQL_LINEITEM_AGG = """
SELECT l_returnflag, l_linestatus,
       CAST(FLOOR(SUM(l_quantity)*100 + 0.5) AS BIGINT) AS sum_qty_cents,
       CAST(FLOOR(SUM(l_extendedprice)*100 + 0.5) AS BIGINT) AS sum_base_cents,
       CAST(FLOOR(SUM(l_extendedprice*(1-l_discount))*100 + 0.5) AS BIGINT) AS sum_disc_cents,
       COUNT(*)::BIGINT AS n_rows
FROM lineitem GROUP BY l_returnflag, l_linestatus
"""


def _nation_revenue_rollup(joined, sf_dir):
    """Shared tail of the revenue-by-nation family: (o_custkey,
    l_extendedprice, l_discount) fact stream → (n_name, revenue_cents).

    Scale shape (no full-dimension driver dict anywhere): a per-batch
    COMBINER shrinks the fact stream to revenue partials per custkey
    BEFORE any exchange; the customer dimension — which scales with SF
    (~150k rows/SF), far too big to ship as a driver dict at the 100×
    target — joins through a distributed hash join; only the genuinely
    tiny 25-row nation map is broadcast. Ray's NATIVE hash join is
    safe here (unlike for filtered dimension subsets, which can empty
    out — those use stages/joins.py:equi_join): both sides are whole
    tables, never empty, and the partition count stays far below the
    small side's key count.
"""
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    def combine(batch: pd.DataFrame) -> pd.DataFrame:
        batch["revenue"] = batch["l_extendedprice"] * (1 - batch["l_discount"])
        return batch.groupby("o_custkey", as_index=False).agg(
            revenue=("revenue", "sum")
        )

    per_cust = joined.map_batches(
        combine, batch_format="pandas", batch_size=65536
    )
    customer = cached_read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    cpus = int(ray.cluster_resources().get("CPU", 8))
    with_nation = per_cust.join(
        customer,
        join_type="inner",
        num_partitions=max(2, cpus // 4),
        on=("o_custkey",),
        right_on=("c_custkey",),
    )

    import pyarrow.parquet as pq

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    nation_map = dict(
        zip(nation.column("n_nationkey").to_pylist(),
            nation.column("n_name").to_pylist())
    )
    nref = ray.put(nation_map)

    def to_nation(batch: pd.DataFrame) -> pd.DataFrame:
        nmap = ray.get(nref)
        batch["n_name"] = [nmap[int(k)] for k in batch["c_nationkey"]]
        return batch.groupby("n_name", as_index=False).agg(
            revenue=("revenue", "sum")
        )

    agg = (
        with_nation.map_batches(
            to_nation, batch_format="pandas", batch_size=65536
        )
        .groupby("n_name")
        .aggregate(Sum("revenue", alias_name="revenue"))
    )

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n_name": batch.column("n_name"),
                "revenue_cents": pa.array(
                    [_cents(v) for v in batch.column("revenue").to_pylist()],
                    pa.int64(),
                ),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


def q_revenue_by_nation(sf_dir):
    """lineitem ⋈ orders (hash join, both large), then the shared
    rollup: combiner → distributed customer join → 25-row nation
    broadcast (:func:`_nation_revenue_rollup`)."""
    import ray
    import ray.data

    li = cached_read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )
    orders = cached_read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )
    # hash-join partition count scales with the cluster: ~cpus/4 aggregator
    # actors (measured: oversubscribing them serializes the shuffle)
    cpus = int(ray.cluster_resources().get("CPU", 8))
    joined = li.join(
        orders,
        join_type="inner",
        num_partitions=max(2, cpus // 4),
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )
    return _nation_revenue_rollup(joined, sf_dir)


SQL_REVENUE_BY_NATION = """
SELECT n.n_name,
       CAST(FLOOR(SUM(l.l_extendedprice*(1-l.l_discount))*100 + 0.5) AS BIGINT)
         AS revenue_cents
FROM lineitem l
JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
GROUP BY n.n_name
"""


def q_revenue_share(sf_dir):
    """Ratio-to-total window (SQL ``SUM() OVER ()``): each nation's
    revenue share in basis points, computed with pure INTEGER floor
    division on cents so both engines agree bit-for-bit. The per-nation
    cents reuse the revenue_by_nation combiner; the grand total is a
    25-row driver-side sum (group cardinality = nations)."""

    base = q_revenue_by_nation(sf_dir)

    df = base.to_pandas()  # 25 rows — the nation dimension
    total = int(df["revenue_cents"].sum())
    df["share_bps"] = [
        int(c) * 10000 // total for c in df["revenue_cents"]
    ]
    return _from_pandas_exact(
        df.astype({"revenue_cents": "int64", "share_bps": "int64"})
    )


SQL_REVENUE_SHARE = """
WITH per_nation AS (
  SELECT n.n_name,
         CAST(FLOOR(SUM(l.l_extendedprice*(1-l.l_discount))*100 + 0.5)
              AS BIGINT) AS revenue_cents
  FROM lineitem l
  JOIN orders o ON l.l_orderkey = o.o_orderkey
  JOIN customer c ON o.o_custkey = c.c_custkey
  JOIN nation n ON c.c_nationkey = n.n_nationkey
  GROUP BY n.n_name
)
SELECT n_name, revenue_cents,
       (revenue_cents * 10000 // SUM(revenue_cents) OVER ())::BIGINT
         AS share_bps
FROM per_nation
"""


def q_local_supplier_revenue(sf_dir):
    """TPC-H Q5 shape: revenue from lineitems whose CUSTOMER and
    SUPPLIER share a nation, per nation, orders date-windowed. One
    big–big hash join (lineitem ⋈ filtered orders, column-pruned and
    pre-filtered BEFORE the shuffle); a combiner then shrinks the fact
    stream to revenue partials per (custkey, suppkey) and the
    SF-scaled customer and supplier dimensions attach through
    distributed tagged co-group joins (no full-dimension driver dict
    anywhere) — only the 25-row nation map is broadcast; the locality
    filter runs on the joined partials."""
    from datetime import datetime

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    import ray
    import ray.data
    from ray.data.aggregate import Sum

    from .stages.joins import equi_join

    li = cached_read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                 "l_discount"],
    )
    orders = cached_read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )
    lo = datetime(1995, 1, 1)
    hi = datetime(1997, 1, 1)

    def in_window(batch: pa.Table) -> pa.Table:
        d = batch.column("o_orderdate")
        mask = pc.and_(
            pc.greater_equal(d, pa.scalar(lo, type=d.type)),
            pc.less(d, pa.scalar(hi, type=d.type)),
        )
        return batch.filter(mask).select(["o_orderkey", "o_custkey"])

    cpus = int(ray.cluster_resources().get("CPU", 8))
    joined = li.join(
        orders.map_batches(in_window, batch_format="pyarrow"),
        join_type="inner",
        num_partitions=max(2, cpus // 4),
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    def combine(batch: pd.DataFrame) -> pd.DataFrame:
        batch["revenue"] = (
            batch["l_extendedprice"] * (1 - batch["l_discount"])
        )
        return batch.groupby(
            ["o_custkey", "l_suppkey"], as_index=False
        ).agg(revenue=("revenue", "sum"))

    per_pair = joined.map_batches(
        combine, batch_format="pandas", batch_size=65536
    )
    customer = cached_read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    supplier = cached_read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    with_dims = equi_join(
        equi_join(per_pair, customer, on="o_custkey",
                  right_on="c_custkey"),
        supplier, on="l_suppkey", right_on="s_suppkey",
    )

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    nref = ray.put(
        dict(zip(nation.column("n_nationkey").to_pylist(),
                 nation.column("n_name").to_pylist()))
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        nmap = ray.get(nref)
        batch = batch[batch["c_nationkey"] == batch["s_nationkey"]]
        if len(batch) == 0:
            return pd.DataFrame(
                {
                    "n_name": pd.Series([], dtype="object"),
                    "revenue": pd.Series([], dtype="float64"),
                }
            )
        batch = batch.assign(
            n_name=[nmap[int(n)] for n in batch["c_nationkey"]]
        )
        return batch.groupby("n_name", as_index=False).agg(
            revenue=("revenue", "sum")
        )

    agg = (
        with_dims.map_batches(partial, batch_format="pandas",
                              batch_size=65536)
        .groupby("n_name")
        .aggregate(Sum("revenue", alias_name="revenue"))
    )

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n_name": batch.column("n_name"),
                "revenue_cents": pa.array(
                    [
                        _cents(v)
                        for v in batch.column("revenue").to_pylist()
                    ],
                    pa.int64(),
                ),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


SQL_LOCAL_SUPPLIER_REVENUE = """
SELECT n.n_name,
       CAST(FLOOR(SUM(l.l_extendedprice*(1-l.l_discount))*100 + 0.5)
            AS BIGINT) AS revenue_cents
FROM lineitem l
JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN supplier s ON l.l_suppkey = s.s_suppkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
WHERE o.o_orderdate >= DATE '1995-01-01'
  AND o.o_orderdate < DATE '1997-01-01'
  AND c.c_nationkey = s.s_nationkey
GROUP BY n.n_name
"""


def q_revenue_by_nation_salted(sf_dir):
    """Same result as ``revenue_by_nation`` computed through
    :func:`stages.joins.salted_join` — the skew-aware join (north rule
    "salted keys for skewed popular entities") verified by the same
    value-hash oracle: a hot key spreads over num_salts partitions
    instead of capping the join at one straggler aggregator."""

    from .stages.joins import salted_join

    li = cached_read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )
    orders = cached_read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )
    joined = salted_join(li, orders, on="l_orderkey", right_on="o_orderkey")
    return _nation_revenue_rollup(joined, sf_dir)


def q_top_customers(sf_dir):
    """sort + limit: top 10 customers by total order value.

    Per-customer groups are high-cardinality (O(customers)), so the
    merge phase is the coarse-partition shape (groupby part →
    vectorized pandas groupby inside) rather than a per-key Ray
    aggregate at ~1 ms/group."""
    orders = cached_read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.groupby("o_custkey", as_index=False).agg(
            total=("o_totalprice", "sum"), n_orders=("o_totalprice", "size")
        )

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby("o_custkey", as_index=False).agg(
            total=("total", "sum"), n_orders=("n_orders", "sum")
        )
        out["total_cents"] = pd.Series(
            [_cents(v) for v in out.pop("total")], dtype="int64"
        )
        return out[["o_custkey", "total_cents", "n_orders"]]

    return (
        exchange(
            orders.map_batches(partial, batch_format="pandas",
                               batch_size=65536),
            "o_custkey", merge,
        )
        .sort(["total_cents", "o_custkey"], descending=[True, False])
        .limit(10)
    )


SQL_TOP_CUSTOMERS = """
SELECT o_custkey,
       CAST(FLOOR(SUM(o_totalprice)*100 + 0.5) AS BIGINT) AS total_cents,
       COUNT(*)::BIGINT AS n_orders
FROM orders GROUP BY o_custkey
ORDER BY total_cents DESC, o_custkey LIMIT 10
"""


def q_events_windows(sf_dir):
    """Streaming-shaped tumbling window: 1h windows per event_type.

    The final aggregate has thousands of (event_type, window_h) groups
    and Ray pays ~1 ms of Python per aggregate group, so the second
    phase is the coarse-partition shape: ``exchange`` on the group key,
    vectorized pandas groupby inside (same trick as
    ``distinct_pairs``) — the shuffle moves only per-batch partial rows
    either way."""
    ev = cached_read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        # parquet timestamps arrive as datetime64[us]; normalize to ns
        ts_ns = batch["ts"].astype("datetime64[ns]").astype("int64")
        batch["window_h"] = ts_ns // (3600 * 10**9)
        return batch.groupby(["event_type", "window_h"], as_index=False).agg(
            n_events=("value", "size"), sum_value=("value", "sum")
        )

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby(["event_type", "window_h"], as_index=False).agg(
            n_events=("n_events", "sum"), sum_value=("sum_value", "sum")
        )
        out["sum_value_cents"] = [
            _cents(v) for v in out.pop("sum_value")
        ]
        return out

    return exchange(
        ev.map_batches(partial, batch_format="pandas", batch_size=65536),
        ["event_type", "window_h"], merge,
    )


SQL_EVENTS_WINDOWS = """
SELECT event_type,
       CAST(FLOOR(epoch(ts)/3600) AS BIGINT) AS window_h,
       COUNT(*)::BIGINT AS n_events,
       CAST(FLOOR(SUM(value)*100 + 0.5) AS BIGINT) AS sum_value_cents
FROM events GROUP BY 1, 2
"""


def q_sessionize(sf_dir):
    """Session windows over the event stream: a >30-min gap starts a new
    session.

    Scale shape: ``exchange`` on user_id (cluster-scaled part count,
    the ``distinct_pairs`` idiom) and ONE vectorized pandas
    sort + gap computation per part — never ``groupby(user_id)`` with a
    Python call per user (~1 ms/group at 1e8 users is a wall)."""
    ev = cached_read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )

    def sessions(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["user_id", "ts"])
        ts = g["ts"].astype("datetime64[ns]").astype("int64") // 10**9
        same_user = g["user_id"].eq(g["user_id"].shift())
        new_sess = ((ts.diff() > 1800) & same_user).astype("int64")
        out = (
            pd.DataFrame({"user_id": g["user_id"], "new_sess": new_sess})
            .groupby("user_id", as_index=False)
            .agg(n_events=("new_sess", "size"), n_sessions=("new_sess", "sum"))
        )
        out["n_sessions"] = out["n_sessions"] + 1
        return out[["user_id", "n_events", "n_sessions"]]

    return exchange(ev, "user_id", sessions)


SQL_SESSIONIZE = """
WITH gaps AS (
  SELECT user_id,
         CASE WHEN epoch(ts) - epoch(lag(ts) OVER (PARTITION BY user_id
                ORDER BY ts)) > 1800 THEN 1 ELSE 0 END AS new_session
  FROM events
)
SELECT user_id,
       count(*)::BIGINT AS n_events,
       (sum(new_session) + 1)::BIGINT AS n_sessions
FROM gaps GROUP BY user_id
"""


def q_mktsegment_stats(sf_dir):
    from ray.data.aggregate import Sum

    cust = cached_read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_mktsegment", "c_acctbal"]
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.groupby("c_mktsegment", as_index=False).agg(
            n_customers=("c_acctbal", "size"), acctbal=("c_acctbal", "sum")
        )

    agg = (
        cust.map_batches(partial, batch_format="pandas", batch_size=65536)
        .groupby("c_mktsegment")
        .aggregate(
            Sum("n_customers", alias_name="n_customers"),
            Sum("acctbal", alias_name="acctbal"),
        )
    )

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_mktsegment": batch.column("c_mktsegment"),
                "n_customers": batch.column("n_customers"),
                "acctbal_cents": pa.array(
                    [_cents(v) for v in batch.column("acctbal").to_pylist()],
                    pa.int64(),
                ),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


SQL_MKTSEGMENT_STATS = """
SELECT c_mktsegment,
       count(*)::BIGINT AS n_customers,
       CAST(FLOOR(SUM(c_acctbal)*100 + 0.5) AS BIGINT) AS acctbal_cents
FROM customer GROUP BY c_mktsegment
"""


def q_customers_per_region(sf_dir):
    """Broadcast-join demo: nation+region (tiny) broadcast into a customer
    scan — no shuffle at all."""
    import ray
    import ray.data
    import pyarrow.parquet as pq
    from ray.data.aggregate import Sum

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey"]
    )
    region = pq.read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    )
    nmap = dict(
        zip(nation.column("n_nationkey").to_pylist(),
            nation.column("n_regionkey").to_pylist())
    )
    rmap = dict(
        zip(region.column("r_regionkey").to_pylist(),
            region.column("r_name").to_pylist())
    )
    maps_ref = ray.put((nmap, rmap))

    cust = cached_read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_nationkey"]
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        nm, rm = ray.get(maps_ref)
        batch["r_name"] = [rm[nm[k]] for k in batch["c_nationkey"].to_list()]
        return batch.groupby("r_name", as_index=False).agg(
            n_customers=("c_nationkey", "size")
        )

    return (
        cust.map_batches(partial, batch_format="pandas", batch_size=65536)
        .groupby("r_name")
        .aggregate(Sum("n_customers", alias_name="n_customers"))
    )


SQL_CUSTOMERS_PER_REGION = """
SELECT r.r_name, count(*)::BIGINT AS n_customers
FROM customer c
JOIN nation n ON c.c_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
GROUP BY r.r_name
"""


# ---------------------------------------------------------------------------
# pipeline operators (reference-semantics kernels; rows-only driver checks —
# their correctness gate is the oracle-parity pytest suite)


def _source_docs(sf_dir):
    from .sources.source_docs import read_source_docs

    return read_source_docs(sf_dir)


def _shared_triples(sf_dir):
    """Default-config flagship extraction, memoized at gate scale.

    ~15 registry queries consume the identical extraction of the whole
    corpus; below the size gate (memo.dataset_memo) it materializes once
    per process and is reused, above it the call is a pass-through and
    the pipeline streams exactly as before."""
    from .pipelines.flagship import extract_triples

    return dataset_memo(
        ("flagship_triples", sf_dir),
        lambda: extract_triples(_source_docs(sf_dir)),
        gate_path=f"{sf_dir}/documents.parquet",
    )


def _shared_triples_entities(sf_dir):
    """extract_triples_with_entities twin of :func:`_shared_triples`."""
    from .pipelines.flagship import extract_triples_with_entities

    return dataset_memo(
        ("flagship_triples_entities", sf_dir),
        lambda: extract_triples_with_entities(_source_docs(sf_dir)),
        gate_path=f"{sf_dir}/documents.parquet",
    )


def _shared_graph_edges(sf_dir):
    """Deduped flagship edge set, memoized at gate scale (8 graph
    queries recompute the identical triples->edges->dedup chain)."""
    from .pipelines.flagship import build_graph

    return dataset_memo(
        ("flagship_graph_edges", sf_dir),
        lambda: build_graph(_shared_triples(sf_dir))[1],
        gate_path=f"{sf_dir}/documents.parquet",
    )


def _shared_components(sf_dir):
    """CC labeling of the flagship edge table, memoized at gate scale
    (q_components and q_component_sizes run the identical iterative
    join-CC; the labeling is node-table-sized, far below the memo gate)."""
    from .stages.graph_algos import connected_components_join

    return dataset_memo(
        ("flagship_components", sf_dir),
        lambda: connected_components_join(
            _shared_graph_edges(sf_dir), max_iters=100
        ),
        gate_path=f"{sf_dir}/documents.parquet",
    )


def _shared_minhash_pairs(sf_dir):
    """Verified MinHash pairs at threshold 0.5, memoized at gate scale —
    q_minhash_pairs, q_near_dedup_corpus and q_leakage_safe_splits all
    consume this identical pair table (the latter two via their
    ``pairs_ds`` override, the same seam the cross-shard dedup job
    uses)."""
    from .stages.dataops import minhash_candidate_pairs

    return dataset_memo(
        ("minhash_pairs_t500", sf_dir),
        lambda: minhash_candidate_pairs(
            _docs(sf_dir, num_blocks=_read_blocks()), threshold=0.5
        ),
        gate_path=f"{sf_dir}/documents.parquet",
    )


def _shared_dup_components(sf_dir):
    """CC labeling of the shared threshold-0.5 MinHash pair graph,
    memoized at gate scale — near_dedup_corpus and leakage_safe_splits
    both label the identical pair graph; each consumes this via its
    ``comp_ds`` seam. Returns None — and the consumers run their own
    streaming path untouched — when the size gate is off (so the
    emptiness probe below never executes a corpus-scale pipeline) or
    when there are no pairs (the consumers' empty-pairs fast path)."""
    from .memo import _path_bytes, memo_max_bytes
    from .stages.dataops import dup_pair_components

    # same gate semantics as dataset_memo (directory-aware _path_bytes:
    # a dir-shaped documents.parquet must NOT pass on its inode size)
    size = _path_bytes(f"{sf_dir}/documents.parquet")
    if memo_max_bytes() <= 0 or size is None or size >= memo_max_bytes():
        return None
    pairs = _shared_minhash_pairs(sf_dir)  # memoized (materialized) here
    if pairs.count() == 0:
        return None
    return dataset_memo(
        ("dup_components_t500", sf_dir),
        lambda: dup_pair_components(pairs),
        gate_path=f"{sf_dir}/documents.parquet",
    )


def _conf_to_centi(ds):
    """confidence (already 2-decimal, model.py:477) → integer centi so the
    driver's value hash can't diverge on float formatting."""

    def fin(batch: pa.Table) -> pa.Table:
        cols = {}
        for name in batch.column_names:
            if name == "confidence":
                cols["conf_centi"] = pa.array(
                    [
                        int(round(v * 100))
                        for v in batch.column("confidence").to_pylist()
                    ],
                    pa.int64(),
                )
            else:
                cols[name] = batch.column(name)
        return pa.table(cols)

    return ds.map_batches(fin, batch_format="pyarrow")


def q_triples(sf_dir):
    return _conf_to_centi(
        _shared_triples(sf_dir).drop_columns(
            ["orig_sentence", "content_sha256"]
        )
    )


def q_triples_entities(sf_dir):
    """Entity-typed triples, projected for the hash gate: list columns go
    out as comma-joined strings (the driver compare stringifies columns —
    numpy arrays from the two sides print differently)."""

    tr = _shared_triples_entities(sf_dir).drop_columns(
        ["orig_sentence", "content_sha256"]
    )

    def join_lists(batch: pa.Table) -> pa.Table:
        cols = {}
        for name in batch.column_names:
            if name in (
                "subj_ents", "subj_types", "obj_ents", "obj_types",
                "rel_ents",
            ):
                cols[name + "_s"] = pa.array(
                    [",".join(v) for v in batch.column(name).to_pylist()],
                    pa.string(),
                )
            else:
                cols[name] = batch.column(name)
        return pa.table(cols)

    return _conf_to_centi(tr.map_batches(join_lists, batch_format="pyarrow"))


def q_conj_splits(sf_dir):
    from .stages.extract import ConjSplitter, map_kernel
    from .stages.sentences import docs_to_sentences

    return map_kernel(
        docs_to_sentences(_source_docs(sf_dir)), ConjSplitter
    ).drop_columns(["conj_words", "split_indices", "content_sha256"])


def q_triples_coord(sf_dir):
    """The FULL splitpredict flagship over documents ∪ the coordination
    fixture: conj-split → per-split OIE → cross-split first-wins dedup →
    top-5 by confidence — every stage of the fused extractor under the
    hard value-hash gate (oracles.sql_triples_coord)."""
    from .pipelines.flagship import extract_triples

    return _conf_to_centi(
        extract_triples(
            _source_docs(sf_dir).union(_coord_fixture_ds())
        ).drop_columns(["orig_sentence", "content_sha256"])
    )


def q_conj_splits_coord(sf_dir):
    """ConjSplitter over documents ∪ the coordination fixture — the REAL
    conj label → decode → split path (multi-conjunct splits, 'nor' drop,
    unbreakable veto) under the hard value-hash gate, not just the
    differential pytest suite."""
    from .stages.extract import ConjSplitter, map_kernel
    from .stages.sentences import docs_to_sentences

    return map_kernel(
        docs_to_sentences(_source_docs(sf_dir).union(_coord_fixture_ds())),
        ConjSplitter,
    ).drop_columns(["conj_words", "split_indices", "content_sha256"])


def q_graph_nodes(sf_dir):
    from .stages.canonical import canonicalize_surfaces

    return canonicalize_surfaces(_shared_triples(sf_dir))


def q_graph_edges(sf_dir):
    edges = _shared_graph_edges(sf_dir)
    return _conf_to_centi(edges)


def q_components(sf_dir):
    """Connected components over the flagship's deduped edge table via
    the 100-TB path (connected_components_join: labels stay a Dataset,
    per-round hash join + anti-join convergence) — hard value-hash gate
    against a DuckDB recursive-CTE reachability oracle."""
    return _shared_components(sf_dir)


def q_component_sizes(sf_dir):
    """Component-size table over the KG (the how-fragmented-is-the-graph
    diagnostic): per-batch pre-count of the CC labeling →
    ``exchange`` on the component → in-part merge. Composes the
    100-TB CC path (labels stay a Dataset) with one extra shuffle of
    pre-counted rows."""
    comp = q_components(sf_dir)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby("component", as_index=False).agg(
            n_nodes=("component", "size")
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("component", as_index=False).agg(
            n_nodes=("n_nodes", "sum")
        )

    return exchange(
        comp.map_batches(partial, batch_format="pandas"), "component", merge
    )


def _sql_component_sizes() -> str:
    return (
        "SELECT component, COUNT(*)::BIGINT AS n_nodes FROM ("
        + oracles.sql_components()
        + ") GROUP BY component"
    )


def _khop_edges_and_seeds(sf_dir):
    """2-hop undirected neighborhood of the lexicographically smallest
    source node in the KG (the subgraph-retrieval primitive:
    stages/graph_algos.py:khop_neighbors — one broadcast-filtered edge
    pass per hop, only new neighbor ids return to the driver). Edges
    are materialized once since the expansion scans them per hop."""
    edges = _shared_graph_edges(sf_dir)
    edges = edges.select_columns(["src", "dst"]).materialize()

    # seeds = the 3 sources with the largest distinct-dst fan-out (so
    # the expansion actually reaches hop 2): per-batch distinct pairs →
    # ``exchange`` on src (every (src,*) row lands together, so
    # nunique is exact) → tiny global sort+limit
    def pair_partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.drop_duplicates(["src", "dst"])

    def fanout(g: pd.DataFrame) -> pd.DataFrame:
        sk = pd.Series(
            [s.encode("utf-8") for s in g["src"]], index=g.index
        )
        agg = g.groupby(sk).agg(
            node=("src", "first"), c=("dst", "nunique")
        )
        return agg.sort_values(
            ["c", "node"], ascending=[False, True]
        ).head(3).reset_index(drop=True)

    seeds = list(
        exchange(edges.map_batches(pair_partial, batch_format="pandas"),
                 "src", fanout)
        .to_pandas()
        .sort_values(["c", "node"], ascending=[False, True])
        .head(3)["node"]
    )
    return edges, seeds


def q_khop_neighbors(sf_dir):
    """Driver-side variant: one broadcast-filtered edge pass per hop,
    only new neighbor ids return to the driver (retrieval-sized
    neighborhoods by contract)."""
    from .stages.graph_algos import khop_neighbors

    edges, seeds = _khop_edges_and_seeds(sf_dir)
    return khop_neighbors(edges, seeds, k=2)


def q_khop_neighbors_ds(sf_dir):
    """Large-frontier variant against the SAME oracle: frontier and
    visited stay Datasets (semi-join + exact Bloom anti-join per hop,
    stages/graph_algos.py:khop_neighbors_dataset) — nothing node-scaled
    on the driver."""
    from .stages.graph_algos import khop_neighbors_dataset

    edges, seeds = _khop_edges_and_seeds(sf_dir)
    return khop_neighbors_dataset(edges, seeds, k=2)


def _sql_khop_neighbors() -> str:
    return f"""
WITH edges AS (
{oracles.sql_graph_edges()}
), adj AS (
  SELECT src AS a, dst AS b FROM edges
  UNION
  SELECT dst, src FROM edges
), seeds AS (
  SELECT src AS node
  FROM (SELECT src, COUNT(DISTINCT dst) AS c FROM edges GROUP BY src)
  ORDER BY c DESC, node LIMIT 3
), h1 AS (
  SELECT DISTINCT adj.b AS node
  FROM adj JOIN seeds ON adj.a = seeds.node
  WHERE adj.b NOT IN (SELECT node FROM seeds)
), h2 AS (
  SELECT DISTINCT adj.b AS node
  FROM adj JOIN h1 ON adj.a = h1.node
  WHERE adj.b NOT IN (SELECT node FROM seeds)
    AND adj.b NOT IN (SELECT node FROM h1)
)
SELECT node AS node_id, 0::BIGINT AS hop FROM seeds
UNION ALL
SELECT node, 1::BIGINT FROM h1
UNION ALL
SELECT node, 2::BIGINT FROM h2
"""


def q_pagerank(sf_dir):
    """Integer-exact PageRank (3 rounds, damping 85/100, scale 1e12)
    over the flagship edge graph via the labels-stay-a-Dataset path
    (stages/graph_algos.py:pagerank_join) — hash-gated against the
    unrolled-CTE DuckDB oracle (oracles.sql_pagerank)."""
    from .stages.graph_algos import pagerank_join

    edges = _shared_graph_edges(sf_dir)
    return pagerank_join(edges)


def q_predicate_freq(sf_dir):
    from .stages.canonical import predicate_frequencies

    return predicate_frequencies(_shared_triples(sf_dir))


def q_violations(sf_dir):
    """A6 constraint-violation counters: per-batch partial sums → one Ray
    ``Sum`` aggregate (no driver-side partials table — the aggregate tree
    reduces on workers and returns five scalars)."""
    from ray.data.aggregate import Sum

    tr = _shared_triples_entities(sf_dir)

    def flags(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c1": pa.array(
                    [int(sum(batch.column("viol_c1").to_pylist()))], pa.int64()
                ),
                "c2": pa.array(
                    [int(sum(batch.column("viol_c2").to_pylist()))], pa.int64()
                ),
                "c3": pa.array(
                    [int(sum(batch.column("viol_c3").to_pylist()))], pa.int64()
                ),
                "c4": pa.array(
                    [int(sum(batch.column("viol_c4").to_pylist()))], pa.int64()
                ),
                "total": pa.array([batch.num_rows], pa.int64()),
            }
        )

    totals = tr.map_batches(flags, batch_format="pyarrow").aggregate(
        Sum("c1", alias_name="c1"),
        Sum("c2", alias_name="c2"),
        Sum("c3", alias_name="c3"),
        Sum("c4", alias_name="c4"),
        Sum("total", alias_name="total"),
    )
    return pd.DataFrame([totals]).astype("int64")


def _fixture_source_ds(docs):
    """source_docs-shaped fixture rows → Dataset (shared by the entity
    and coordination fixture loaders)."""
    import ray.data

    return ray.data.from_arrow(
        pa.table(
            {
                k: pa.array([d[k] for d in docs], pa.string())
                for k in ("repo", "path", "commit", "lang", "content")
            }
        )
    )


def _entity_fixture_ds():
    from .oracles import entity_fixture_docs

    return _fixture_source_ds(entity_fixture_docs())


def _coord_fixture_ds():
    from .oracles import coordination_fixture_docs

    return _fixture_source_ds(coordination_fixture_docs())


def q_per_org_pairs(sf_dir):
    """A8 (pubmed_analysis.py:60-84): triples whose subject is exactly one
    PER entity and object exactly one ORG entity.

    The sf documents corpus contains no alias-dictionary entities, so the
    input is the union of the sf docs and the deterministic entity-bearing
    fixture corpus (oracles.entity_fixture_docs — coordinator-free, so the
    whole path sits inside the SQL-oracle domain and this query is
    value-hash gated; the union operator is itself part of the surface
    under test, J5 shape)."""
    from .pipelines.flagship import extract_triples_with_entities

    docs = _source_docs(sf_dir).union(_entity_fixture_ds())
    tr = extract_triples_with_entities(docs)

    def keep(batch: pa.Table) -> pa.Table:
        st = batch.column("subj_types").to_pylist()
        ot = batch.column("obj_types").to_pylist()
        mask = [
            len(s) == 1 and s[0] == "PER" and len(o) == 1 and o[0] == "ORG"
            for s, o in zip(st, ot)
        ]
        return batch.filter(pa.array(mask)).select(
            ["path", "sent_id", "arg1", "rel", "arg2"]
        )

    return tr.map_batches(keep, batch_format="pyarrow")


def q_carb_selfcheck(sf_dir):
    """North-rule conformance made visible: the distributed engine's
    triples evaluated against the single-process reference-semantics
    oracle with the CaRB matcher (distributed J3 co-group + A4 partials).
    Expected: precision_permille == recall_permille == 1000."""
    import pyarrow.parquet as pq

    import ray.data

    from .eval.distributed import carb_precision_recall
    from .pipelines.oracle import oracle_predictions

    pred = _shared_triples(sf_dir).map_batches(
        lambda b: pa.table(
            {
                "sentence": b.column("orig_sentence"),
                "rel": b.column("rel"),
                "arg1": b.column("arg1"),
                "arg2": b.column("arg2"),
            }
        ),
        batch_format="pyarrow",
    )

    docs_tbl = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    docs = [
        {"content": t, "lang": lg}
        for t, lg in zip(
            docs_tbl.column("text").to_pylist(),
            docs_tbl.column("lang").to_pylist(),
        )
    ]
    gold_rows = {
        "sentence": [], "rel": [], "arg1": [], "arg2": [],
    }
    for sent, triples in oracle_predictions(docs, seed=777).items():
        for t in triples:
            gold_rows["sentence"].append(sent)
            gold_rows["rel"].append(t.rel)
            gold_rows["arg1"].append(t.arg1)
            gold_rows["arg2"].append(t.arg2)
    gold = ray.data.from_arrow(pa.table(gold_rows))

    p, r = carb_precision_recall(gold, pred)
    return pd.DataFrame(
        [
            {
                "precision_permille": int(p * 1000 + 0.5),
                "recall_permille": int(r * 1000 + 0.5),
                "gate_095_pass": bool(p >= 0.95 and r >= 0.95),
            }
        ]
    )


def q_entity_filtered_triples(sf_dir):
    """J4 baseline filter (scripts/baselines.py:50-88): triples whose
    subject is exactly an entity and whose object ends with its single
    contained entity, rewritten to entity-bounded form. Runs on the
    union with the entity-bearing fixture corpus (the sf docs carry no
    dictionary entities); confidence goes out as integer centi for the
    value-hash gate."""
    from .pipelines.flagship import extract_triples
    from .stages.entity import EntityBaselineFilter
    from .stages.extract import map_kernel

    docs = _source_docs(sf_dir).union(_entity_fixture_ds())
    return _conf_to_centi(
        map_kernel(extract_triples(docs), EntityBaselineFilter)
    )


def q_text_stats(sf_dir):
    from .stages.dataops import add_text_stats

    return add_text_stats(_docs(sf_dir)).drop_columns(["text"])


# Every stat is deterministic integer/string math; the rolling fingerprint
# is md5-number-based (functions/textstats.py) precisely so DuckDB's
# md5_number_lower reproduces it bit-for-bit. The CJK-codepoint branch of
# detect_language is not expressed (the documents corpus is ASCII — a CJK
# doc would make the check fail loudly, not silently pass).
SQL_TEXT_STATS = """
WITH base AS (
  SELECT doc_id, lang, text,
         regexp_split_to_array(trim(text), ' +') AS words
  FROM documents
), hits AS (
  SELECT *,
         len(words)::BIGINT AS n_words,
         list_distinct(list_transform(words[1:200], w -> lower(w))) AS w200
  FROM base
), scored AS (
  SELECT *,
         len(list_filter(w200, w -> w IN
           ('der','die','das','und','ist','nicht','ein','mit','zu','den')))
           AS h_de,
         len(list_filter(w200, w -> w IN
           ('the','and','of','to','is','in','a','that','it','for'))) AS h_en,
         len(list_filter(w200, w -> w IN
           ('el','la','los','y','es','un','una','de','que','por'))) AS h_es,
         len(list_filter(w200, w -> w IN
           ('le','la','les','et','est','un','une','des','que','pour')))
           AS h_fr
  FROM hits
)
SELECT doc_id, lang,
       n_words,
       CASE WHEN n_words = 0 THEN 0 ELSE
         (1000 * len(list_filter(words, x -> lower(x) IN
            ('the','a','an','and','of','to','in','is','on','for'))))
           // n_words END::BIGINT AS stopword_permille,
       CASE WHEN n_words = 0 THEN 0 ELSE
         (100 * len(regexp_replace(text, '\\s', '', 'g'))) // n_words
       END::BIGINT AS mean_word_len_centi,
       CASE WHEN n_words = 0 OR len(text) = 0 THEN 0 ELSE
         (1000 * len(regexp_replace(text, '[a-zA-Z0-9\\s]', '', 'g')))
           // len(text) END::BIGINT AS punct_permille,
       len(regexp_extract_all(text, '[A-Za-z0-9_]+|[^A-Za-z0-9_\\s]'))::BIGINT
         AS n_tokens_bpe,
       CASE WHEN greatest(h_de, h_en, h_es, h_fr) < 2 THEN 'und'
            WHEN h_de = greatest(h_de, h_en, h_es, h_fr) THEN 'de'
            WHEN h_en = greatest(h_de, h_en, h_es, h_fr) THEN 'en'
            WHEN h_es = greatest(h_de, h_en, h_es, h_fr) THEN 'es'
            ELSE 'fr' END AS lang_detected,
       md5(text) AS fingerprint_md5,
       CASE WHEN n_words <= 8 THEN
         ((md5_number_lower(array_to_string(words, ' '))
           & 9223372036854775807::UBIGINT))::BIGINT
       ELSE
         list_min(list_transform(range(1, n_words - 6), i ->
           ((md5_number_lower(array_to_string(words[i:i+7], ' '))
             & 9223372036854775807::UBIGINT))::BIGINT))
       END AS fingerprint_rolling
FROM scored
"""


def q_doc_sample(sf_dir):
    """Deterministic 10% corpus sample (content-addressed md5 rule — no
    RNG state, identical across cluster sizes/retries/resume)."""

    from .stages.dataops import deterministic_sample

    docs = cached_read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    return deterministic_sample(docs, rate_permille=100)


SQL_DOC_SAMPLE = """
SELECT doc_id, lang FROM documents
WHERE md5_number_lower('sample|' || CAST(doc_id AS VARCHAR)) % 1000 < 100
"""


def q_doc_sample_stratified(sf_dir):
    """Mixture-weighted sampling: 50% of 'en', 25% of 'de', 5% of
    everything else (the training-data mixture rebalance shape)."""

    from .stages.dataops import stratified_sample

    docs = cached_read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    return stratified_sample(
        docs, {"en": 500, "de": 250}, default_permille=50
    )


SQL_DOC_SAMPLE_STRATIFIED = """
SELECT doc_id, lang FROM documents
WHERE md5_number_lower('strat|' || CAST(doc_id AS VARCHAR)) % 1000
      < CASE lang WHEN 'en' THEN 500 WHEN 'de' THEN 250 ELSE 50 END
"""


def q_clean_corpus(sf_dir):
    """C4-style quality filter over the documents table (length band,
    stopword floor, punctuation ceiling)."""
    from .stages.dataops import quality_filter

    return quality_filter(_docs(sf_dir, num_blocks=_read_blocks()))


def _sql_clean_corpus() -> str:
    return f"""
SELECT doc_id, lang_detected, n_words, n_tokens_bpe
FROM ({SQL_TEXT_STATS})
WHERE n_words BETWEEN 20 AND 1000
  AND stopword_permille >= 50
  AND punct_permille <= 200
"""


def q_corpus_budget(sf_dir):
    """Per-language token-budget accounting (docs / words / BPE-ish
    tokens): the how-much-training-data-per-language question."""

    from .stages.dataops import corpus_budget

    docs = cached_read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "text"]
    )
    return corpus_budget(docs)


def q_mixture_weights(sf_dir):
    """Temperature-scaled language-mixture sampling weights (the data
    mixing rule behind multilingual LM corpora: sample language L with
    probability ∝ (token share)^(1/τ), here τ=2): per-lang word counts
    fold via the corpus_budget combiner, then one tiny driver-side pass
    turns counts into integer basis points via EXACT integer square
    roots — `weight_bp = isqrt(n)*10000 // Σ isqrt(n)` — so the hash
    gate cannot drift on float pow."""
    import math

    from .stages.dataops import corpus_budget

    docs = cached_read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "text"]
    )
    # lang-cardinality rows — a true small result
    rows = corpus_budget(docs).take_all()
    langs = sorted(r["lang"] for r in rows)
    roots = {
        r["lang"]: math.isqrt(int(r["total_words"])) for r in rows
    }
    denom = sum(roots.values())
    return pa.table(
        {
            "lang": pa.array(langs, pa.string()),
            "sqrt_words": pa.array(
                [roots[lg] for lg in langs], pa.int64()
            ),
            "weight_bp": pa.array(
                [roots[lg] * 10000 // denom if denom else 0
                 for lg in langs],
                pa.int64(),
            ),
        }
    )


# FLOOR(SQRT(n)) alone can misround near perfect squares (sqrt is a
# float); the two correction terms make it the EXACT integer sqrt,
# matching Python math.isqrt bit-for-bit
_SQL_ISQRT = (
    "(CAST(FLOOR(SQRT({n})) AS BIGINT)"
    " - CASE WHEN CAST(FLOOR(SQRT({n})) AS BIGINT)"
    "            * CAST(FLOOR(SQRT({n})) AS BIGINT) > {n}"
    "       THEN 1 ELSE 0 END"
    " + CASE WHEN (CAST(FLOOR(SQRT({n})) AS BIGINT) + 1)"
    "            * (CAST(FLOOR(SQRT({n})) AS BIGINT) + 1) <= {n}"
    "       THEN 1 ELSE 0 END)"
)

def _sql_mixture_weights() -> str:
    return f"""
WITH counts AS (
  SELECT lang, SUM(len({_SQL_WORDS}))::BIGINT AS n
  FROM documents GROUP BY lang
),
roots AS (
  SELECT lang, {_SQL_ISQRT.format(n='n')} AS sqrt_words FROM counts
)
SELECT lang, sqrt_words,
       ((sqrt_words * 10000)
        // (SELECT SUM(sqrt_words) FROM roots))::BIGINT AS weight_bp
FROM roots
"""


def _sql_corpus_budget() -> str:
    # _SQL_WORDS (not a bare regexp_split) so blank and tab/newline-
    # separated docs count words exactly like the engine's str.split()
    return f"""
SELECT lang,
       count(*)::BIGINT AS n_docs,
       SUM(len({_SQL_WORDS}))::BIGINT AS total_words,
       SUM(len(regexp_extract_all(text,
               '[A-Za-z0-9_]+|[^A-Za-z0-9_\\s]')))::BIGINT
         AS total_tokens_bpe
FROM documents GROUP BY lang
"""


def q_minhash_pairs(sf_dir):
    return _shared_minhash_pairs(sf_dir)


def q_near_dedup_corpus(sf_dir):
    """The corpus→corpus dedup loop closed: MinHash pairs → connected
    components (join path) → keep the min-id doc per duplicate cluster →
    anti-join; returns surviving doc ids. Oracle = the minhash pair SQL
    + a recursive-CTE component keeper rule."""
    from .stages.dataops import near_dedup_corpus

    return near_dedup_corpus(
        _docs(sf_dir, num_blocks=_read_blocks()), threshold=0.5,
        pairs_ds=_shared_minhash_pairs(sf_dir),
        comp_ds=_shared_dup_components(sf_dir),
    )


def q_leakage_safe_splits(sf_dir):
    """Split-leakage repair: the md5 train/val/test assignment with
    every MinHash near-duplicate cluster forced into its keeper
    (min-id) doc's split — so a train doc can never be a near-copy of
    a test doc. Pairs → connected components (labels as a Dataset) →
    in-place keeper-split recompute + Bloom anti-join for untouched
    docs (stages/dataops.py:leakage_safe_splits)."""
    from .stages.dataops import leakage_safe_splits

    return leakage_safe_splits(
        _docs(sf_dir, num_blocks=_read_blocks()), threshold=0.5,
        pairs_ds=_shared_minhash_pairs(sf_dir),
        comp_ds=_shared_dup_components(sf_dir),
    )


def _sql_leakage_safe_splits(num_perm: int = 128,
                             threshold: float = 0.5) -> str:
    """The near-dedup recursive-CTE components + the md5 split rule:
    clustered docs take their keeper's split, the rest their own."""
    split_of = (
        "CASE WHEN md5_number_lower('split|' || CAST({x} AS VARCHAR)) "
        "% 1000 < 50 THEN 'val' "
        "WHEN md5_number_lower('split|' || CAST({x} AS VARCHAR)) "
        "% 1000 < 100 THEN 'test' ELSE 'train' END"
    )
    return f"""
WITH RECURSIVE pairs AS (
{_sql_minhash_pairs(num_perm=num_perm, threshold=threshold)}
), padj AS (
  SELECT id_a AS node, id_b AS nbr FROM pairs
  UNION
  SELECT id_b AS node, id_a AS nbr FROM pairs
), preach AS (
  SELECT node, node AS label FROM (SELECT DISTINCT node FROM padj) n
  UNION
  SELECT a.node, r.label FROM padj a JOIN preach r ON a.nbr = r.node
), pcomp AS (
  SELECT node, MIN(label) AS keeper FROM preach GROUP BY node
)
SELECT c.node AS doc_id, {split_of.format(x='c.keeper')} AS split
FROM pcomp c
UNION ALL
SELECT d.doc_id, {split_of.format(x='d.doc_id')} AS split
FROM documents d
WHERE d.doc_id NOT IN (SELECT node FROM pcomp)
"""


def q_simhash_pairs(sf_dir):
    from .stages.dataops import simhash_pairs

    return simhash_pairs(
        _docs(sf_dir, num_blocks=_read_blocks()), max_hamming=3
    )


def _minhash_cands_cte(num_perm: int = 128, num_bands: int = 16,
                       seed: int = 7) -> str:
    """Shared MinHash-LSH candidate CTEs (docs → shingles → signatures →
    bands → candidate pairs); finals append a verify step."""
    from .functions.dedup import _perm_params

    a, b = _perm_params(num_perm, seed)
    vals = ",".join(f"({j},{int(a[j])},{int(b[j])})" for j in range(num_perm))
    rows = num_perm // num_bands
    return f"""
WITH docs AS (
  SELECT doc_id, regexp_split_to_array(trim(text), ' +') AS words
  FROM documents
), sh AS (
  SELECT doc_id, unnest(list_distinct(list_transform(
    CASE WHEN len(words) < 3 THEN [array_to_string(words, ' ')]
         ELSE list_transform(range(1, len(words) - 1),
                             i -> array_to_string(words[i:i+2], ' ')) END,
    s -> ((md5_number_lower(s) & 4294967295::UBIGINT))::BIGINT))) AS x
  FROM docs
), perms(j, a, b) AS (VALUES {vals}),
sig AS (
  SELECT sh.doc_id, p.j,
         MIN(((p.a::HUGEINT * sh.x + p.b) % 2305843009213693951)::BIGINT)
           AS sv
  FROM sh CROSS JOIN perms p
  GROUP BY sh.doc_id, p.j
), bands AS (
  SELECT doc_id, j // {rows} AS band,
         string_agg(sv::VARCHAR, '-' ORDER BY j) AS band_key
  FROM sig GROUP BY doc_id, j // {rows}
), cand AS (
  SELECT DISTINCT a.doc_id AS id_a, b.doc_id AS id_b
  FROM bands a JOIN bands b
    ON a.band = b.band AND a.band_key = b.band_key AND a.doc_id < b.doc_id
)"""


def _sql_jaccard_pairs(threshold: float = 0.5) -> str:
    """LSH candidates verified by EXACT n-gram Jaccard over the md5
    shingle sets — integer permille output. A pair of WORDLESS docs is
    excluded (the engine's shingle sets are empty → union==0 → skipped,
    while the SQL shingle of '' would spuriously match)."""
    return (
        _minhash_cands_cte()
        + f"""
, shl AS (SELECT doc_id, list(x) AS sset FROM sh GROUP BY doc_id)
, dlen AS (SELECT doc_id, len(array_to_string(words, '')) AS nch FROM docs)
SELECT c.id_a, c.id_b,
       ((1000 * len(list_intersect(a.sset, b.sset))) //
        (len(a.sset) + len(b.sset)
         - len(list_intersect(a.sset, b.sset))))::BIGINT
         AS jaccard_permille
FROM cand c
JOIN shl a ON a.doc_id = c.id_a
JOIN shl b ON b.doc_id = c.id_b
JOIN dlen la ON la.doc_id = c.id_a
JOIN dlen lb ON lb.doc_id = c.id_b
WHERE NOT (la.nch = 0 AND lb.nch = 0)
  AND (len(list_intersect(a.sset, b.sset))::DOUBLE
       / (len(a.sset) + len(b.sset)
          - len(list_intersect(a.sset, b.sset)))) >= {threshold}
"""
    )


def _sql_minhash_pairs(num_perm: int = 128, threshold: float = 0.5) -> str:
    """MinHash-LSH in SQL: the shingle hash is md5-derived (DuckDB
    ``md5_number_lower & 0xFFFFFFFF``), the (a,b) universal-hash params are
    embedded as literals (seeded numpy isn't SQL-expressible, 128 constants
    are), band keys are the dash-joined signature values, and the verify is
    per-perm signature agreement — the exact distributed algorithm.
    Builds on the shared candidate CTEs (:func:`_minhash_cands_cte`)."""
    return (
        _minhash_cands_cte(num_perm=num_perm)
        + f"""
, eq AS (
  SELECT c.id_a, c.id_b,
         SUM(CASE WHEN sa.sv = sb.sv THEN 1 ELSE 0 END) AS n_eq
  FROM cand c
  JOIN sig sa ON sa.doc_id = c.id_a
  JOIN sig sb ON sb.doc_id = c.id_b AND sb.j = sa.j
  GROUP BY c.id_a, c.id_b
)
SELECT id_a, id_b,
       ((1000 * n_eq) // {num_perm})::BIGINT AS est_permille
FROM eq WHERE (n_eq / {num_perm}.0) >= {threshold}
"""
    )


def _sql_near_dedup_corpus(num_perm: int = 128,
                           threshold: float = 0.5) -> str:
    """Surviving doc ids after near-dedup: the minhash pair SQL wrapped
    in a recursive-CTE connected-components keeper rule (keeper = MIN id
    reachable in the pair graph; numeric MIN here == the engine's
    zero-padded lexicographic min for non-negative ids)."""
    return f"""
WITH RECURSIVE pairs AS (
{_sql_minhash_pairs(num_perm=num_perm, threshold=threshold)}
), padj AS (
  SELECT id_a AS node, id_b AS nbr FROM pairs
  UNION
  SELECT id_b AS node, id_a AS nbr FROM pairs
), preach AS (
  SELECT node, node AS label FROM (SELECT DISTINCT node FROM padj) n
  UNION
  SELECT a.node, r.label FROM padj a JOIN preach r ON a.nbr = r.node
), pcomp AS (
  SELECT node, MIN(label) AS keeper FROM preach GROUP BY node
)
SELECT d.doc_id
FROM documents d
LEFT JOIN pcomp c ON d.doc_id = c.node
WHERE c.node IS NULL OR c.keeper = d.doc_id
"""


# The SimHash kernel hashes each distinct word with md5 (first 8 digest
# bytes, little-endian == DuckDB md5_number_upper), so the whole
# signature → 4x16-bit bands → in-bucket Hamming<=3 verify is exactly
# reproducible in SQL.
SQL_SIMHASH_PAIRS = """
WITH docs AS (
  SELECT doc_id, regexp_split_to_array(trim(text), ' +') AS words
  FROM documents
), wordsets AS (
  SELECT doc_id, unnest(list_distinct(words)) AS w FROM docs
), bits AS (
  SELECT doc_id, bb.b AS bitpos,
         SUM(CASE WHEN ((md5_number_upper(w) >> bb.b) & 1::UBIGINT)
                       = 1::UBIGINT
                  THEN 1 ELSE -1 END) AS acc
  FROM wordsets, (SELECT unnest(range(0, 64)) AS b) bb
  GROUP BY doc_id, bb.b
), sigs AS (
  SELECT doc_id,
         COALESCE(bit_or(CASE WHEN acc > 0
                  THEN (1::UBIGINT << CAST(bitpos AS INT)) END),
                  0::UBIGINT) AS sig
  FROM bits GROUP BY doc_id
), banded AS (
  SELECT doc_id, sig, bb.b AS band,
         ((sig >> CAST(16 * bb.b AS INT)) & 65535::UBIGINT) AS band_key
  FROM sigs, (SELECT unnest([0, 1, 2, 3]) AS b) bb
)
SELECT DISTINCT a.doc_id AS id_a, b.doc_id AS id_b,
       bit_count(xor(a.sig, b.sig))::BIGINT AS hamming
FROM banded a JOIN banded b
  ON a.band = b.band AND a.band_key = b.band_key AND a.doc_id < b.doc_id
WHERE bit_count(xor(a.sig, b.sig)) <= 3
"""


def q_embedding_dups(sf_dir):
    """EXACT cosine near-dup baseline (broadcast matrix, distributed
    O(N^2) tiles) — the reproducible set the LSH scale path
    (``embedding_dups_lsh``) is measured against."""
    import pyarrow.parquet as pq

    from .stages.dataops import embedding_dup_pairs_exact

    ref = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    ref_ids = np.array(ref.column("vec_id").to_pylist())
    ref_mat = np.array(ref.column("embedding").to_pylist(), dtype=np.float64)
    emb = cached_read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return embedding_dup_pairs_exact(emb, ref_ids, ref_mat, threshold=0.3)


SQL_EMBEDDING_DUPS = """
SELECT a.vec_id AS id_a, b.vec_id AS id_b,
       CAST(floor(list_cosine_similarity(a.embedding::DOUBLE[],
                                         b.embedding::DOUBLE[]) * 100
                  + 0.5)
            AS BIGINT) AS cosine_centi
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE floor(list_cosine_similarity(a.embedding::DOUBLE[],
                                   b.embedding::DOUBLE[]) * 100 + 0.5)
      >= 30
"""


def q_embedding_alignment(sf_dir):
    """Mutual nearest-neighbor alignment between two embedding snapshots
    (even vs odd vec_id): keep (a, b) iff each is the other's best match
    on centi-rounded cosine with id tie-breaks.
    stages/dataops.py:mutual_nn_pairs."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from .stages.dataops import mutual_nn_pairs

    ref = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    odd = pc.equal(pc.bit_wise_and(ref.column("vec_id"), 1), 1)
    b = ref.filter(odd)
    b_ids = np.array(b.column("vec_id").to_pylist())
    b_mat = np.array(b.column("embedding").to_pylist(), dtype=np.float64)

    a_ds = cached_read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).map_batches(
        lambda t: t.filter(
            pc.equal(pc.bit_wise_and(t.column("vec_id"), 1), 0)
        ),
        batch_format="pyarrow",
    )
    return mutual_nn_pairs(a_ds, b_ids, b_mat)


def q_label_centroids(sf_dir):
    """Per-label embedding centroid as EXACT integers: each element
    quantized to micro units (floor(x*1e6+0.5)) and summed per (label,
    dim) — the feature-engineering class-centroid op with no float
    parity risk. Per-batch numpy column sums per label (64 ints per
    label per batch) → tiny (label, dim) merge."""
    from ray.data.aggregate import Sum

    emb = cached_read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        import numpy as np

        labels = batch.column("label").to_pylist()
        mat = np.array(
            batch.column("embedding").to_pylist(), dtype=np.float64
        )
        q = np.floor(mat * 1_000_000 + 0.5).astype(np.int64)
        out_l, out_d, out_s, out_n = [], [], [], []
        for lab in sorted(set(labels)):
            idx = [i for i, x in enumerate(labels) if x == lab]
            sums = q[idx].sum(axis=0)
            n = len(idx)
            for d in range(q.shape[1]):
                out_l.append(lab)
                out_d.append(d)
                out_s.append(int(sums[d]))
                out_n.append(n)
        return pa.table(
            {
                "label": pa.array(out_l, pa.int64()),
                "dim": pa.array(out_d, pa.int64()),
                "sum_micro": pa.array(out_s, pa.int64()),
                "n_vecs": pa.array(out_n, pa.int64()),
            }
        )

    return (
        emb.map_batches(partial, batch_format="pyarrow")
        .groupby(["label", "dim"])
        .aggregate(
            Sum("sum_micro", alias_name="sum_micro"),
            Sum("n_vecs", alias_name="n_vecs"),
        )
    )


SQL_LABEL_CENTROIDS = """
SELECT label::BIGINT AS label, (i - 1)::BIGINT AS dim,
       SUM(CAST(FLOOR(CAST(embedding[i] AS DOUBLE) * 1000000 + 0.5)
                AS BIGINT))::BIGINT AS sum_micro,
       COUNT(*)::BIGINT AS n_vecs
FROM (
  SELECT label, embedding,
         unnest(range(1, len(embedding) + 1)) AS i
  FROM embeddings
)
GROUP BY label, dim
"""


def q_user_event_pivot(sf_dir):
    """Pivot: one row per user with a count column per event_type (the
    feature-vector export shape). Per-batch (user, type) pre-counts →
    ``exchange`` on the user → in-kernel pandas pivot to the fixed
    type columns; one shuffle of pre-counted rows."""
    ev = cached_read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    types = ["click", "error", "purchase", "signup", "view"]

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.groupby(
            ["user_id", "event_type"], as_index=False
        ).agg(n=("event_type", "size"))

    def pivot(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(["user_id", "event_type"], as_index=False).agg(
            n=("n", "sum")
        )
        wide = agg.pivot_table(
            index="user_id", columns="event_type", values="n",
            fill_value=0, aggfunc="sum",
        ).reset_index()
        for t in types:
            if t not in wide.columns:
                wide[t] = 0
        out = wide[["user_id"] + types].rename(
            columns={t: f"n_{t}" for t in types}
        )
        return out.astype({f"n_{t}": "int64" for t in types}).astype(
            {"user_id": "int64"}
        )

    return exchange(
        ev.map_batches(partial, batch_format="pandas", batch_size=65536),
        "user_id", pivot,
    )


def q_user_event_unpivot(sf_dir):
    """UNPIVOT (wide→long reshape, stages/dataops.py:unpivot — a
    stateless vectorized melt per batch, zero shuffle) applied to the
    pivot query's output: the round-trip exposes both reshapes under
    one gate, zeros kept as DuckDB UNPIVOT keeps them (only NULLs are
    dropped)."""
    from .stages.dataops import unpivot

    wide = q_user_event_pivot(sf_dir)
    return unpivot(
        wide, id_cols=["user_id"],
        value_cols=["n_click", "n_error", "n_purchase", "n_signup",
                    "n_view"],
        name_col="event_type", value_col="n",
    )


SQL_USER_EVENT_PIVOT = """
SELECT user_id,
       SUM(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END)::BIGINT
         AS n_click,
       SUM(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END)::BIGINT
         AS n_error,
       SUM(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END)::BIGINT
         AS n_purchase,
       SUM(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END)::BIGINT
         AS n_signup,
       SUM(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END)::BIGINT
         AS n_view
FROM events
GROUP BY user_id
"""


SQL_USER_EVENT_UNPIVOT = """
UNPIVOT ({pivot}) ON n_click, n_error, n_purchase, n_signup, n_view
INTO NAME event_type VALUE n
"""


SQL_EMBEDDING_ALIGNMENT = """
WITH cc AS (
  SELECT a.vec_id AS id_a, b.vec_id AS id_b,
         CAST(floor(list_cosine_similarity(a.embedding::DOUBLE[],
                                           b.embedding::DOUBLE[]) * 100
                    + 0.5) AS BIGINT) AS cos_cents
  FROM embeddings a, embeddings b
  WHERE a.vec_id % 2 = 0 AND b.vec_id % 2 = 1
),
ab AS (
  SELECT *, row_number() OVER (
    PARTITION BY id_a ORDER BY cos_cents DESC, id_b
  ) AS r FROM cc
),
ba AS (
  SELECT *, row_number() OVER (
    PARTITION BY id_b ORDER BY cos_cents DESC, id_a
  ) AS r FROM cc
)
SELECT x.id_a, x.id_b, x.cos_cents
FROM ab x JOIN ba y ON x.id_a = y.id_a AND x.id_b = y.id_b
WHERE x.r = 1 AND y.r = 1
"""


def q_embedding_dups_lsh(sf_dir):
    """Approximate (LSH-bucketed) variant — the 100 TB scale path; its
    recall against the exact baseline is gated by pytest, its plumbing by
    the driver's rows-only check."""

    from .stages.dataops import embedding_near_dup_pairs

    emb = cached_read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    # fixed geometry (8 planes x 12 tables): reproducible output the SQL
    # oracle embeds as literal plane constants; production callers omit
    # num_planes and get the corpus-scaled auto sizing
    ds = embedding_near_dup_pairs(emb, threshold=0.3, num_planes=8)

    def to_cents(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "id_a": batch.column("id_a"),
                "id_b": batch.column("id_b"),
                "cosine_centi": pa.array(
                    [
                        int(math.floor(v * 100 + 0.5))
                        for v in batch.column("cosine").to_pylist()
                    ],
                    pa.int64(),
                ),
            }
        )

    return ds.map_batches(to_cents, batch_format="pyarrow")


def _sql_embedding_dups_lsh() -> str:
    """Full SQL reproduction of the hyperplane-LSH near-dup pipeline: the
    12x8x64 plane constants (np.random.RandomState(11), exactly
    LSHBucketer's draw order) are embedded as literal DOUBLE[] values —
    the `_sql_minhash_pairs` precedent at larger scale. Signature =
    sum of 2^i over planes with positive dot product; candidates share a
    (table, bucket); the verify decides on the rounded cosine_centi, the
    engine-reproducible value (numpy vs DuckDB raw doubles diverge at
    ~2e-16).

    Known residual: the bucket BITS are sign tests on raw dot products
    computed by two engines, and no rounding scheme shrinks the bad set
    (any decision boundary has the same ~1e-16 measure). A fixture
    vector whose plane dot lands within float error of the boundary
    would flip a bit on one side only; probability ~1e-9 for this
    corpus, and the gate fails loudly (hash mismatch), never silently."""
    rng = np.random.RandomState(11)
    rows = []
    for t in range(12):
        plane = rng.randn(8, 64)  # one draw per table, LSHBucketer order
        for i in range(8):
            lst = ", ".join(repr(float(x)) for x in plane[i])
            rows.append(f"({t}, {1 << i}, [{lst}]::DOUBLE[])")
    planes = ",\n  ".join(rows)
    return f"""
WITH planes(t, w, v) AS (VALUES
  {planes}
),
sig AS (
  SELECT e.vec_id, p.t,
         SUM(CASE WHEN list_dot_product(e.embedding::DOUBLE[], p.v) > 0
                  THEN p.w ELSE 0 END) AS bucket
  FROM embeddings e CROSS JOIN planes p
  GROUP BY 1, 2
),
cand AS (
  SELECT DISTINCT a.vec_id AS id_a, b.vec_id AS id_b
  FROM sig a JOIN sig b
    ON a.t = b.t AND a.bucket = b.bucket AND a.vec_id < b.vec_id
)
SELECT c.id_a, c.id_b,
       CAST(floor(list_cosine_similarity(ea.embedding::DOUBLE[],
                                         eb.embedding::DOUBLE[]) * 100
                  + 0.5) AS BIGINT) AS cosine_centi
FROM cand c
JOIN embeddings ea ON ea.vec_id = c.id_a
JOIN embeddings eb ON eb.vec_id = c.id_b
WHERE floor(list_cosine_similarity(ea.embedding::DOUBLE[],
                                   eb.embedding::DOUBLE[]) * 100 + 0.5)
      >= 30
"""


def q_jaccard_pairs(sf_dir):
    """LSH candidate generation + exact n-gram Jaccard verify (the
    candidate→verify dedup shape). Drives the PRODUCTION verify path —
    candidates hash-joined back to the documents table by id, no
    driver-built text dict."""
    from .stages.dataops import jaccard_verified_pairs

    return jaccard_verified_pairs(
        _docs(sf_dir, num_blocks=_read_blocks()), threshold=0.5
    )


def q_top_terms(sf_dir):
    from .stages.dataops import top_terms

    return top_terms(_docs(sf_dir, num_blocks=_read_blocks()), k=20)


# split on \s+ with an explicit empty-doc branch so the SQL matches the
# engine's str.split() on blank docs and tab/newline whitespace
_SQL_WORDS = """CASE WHEN trim(text) = '' THEN []::VARCHAR[]
              ELSE regexp_split_to_array(trim(text), '\\s+') END"""

SQL_TOP_TERMS = f"""
SELECT word, count(*)::BIGINT AS df
FROM (SELECT doc_id, unnest(list_distinct({_SQL_WORDS})) AS word
      FROM documents)
GROUP BY word ORDER BY df DESC, word LIMIT 20
"""


def q_length_quantiles(sf_dir):
    from .stages.dataops import length_quantiles

    return length_quantiles(_docs(sf_dir, num_blocks=_read_blocks()))


SQL_LENGTH_QUANTILES = f"""
WITH l AS (
  SELECT len({_SQL_WORDS})::BIGINT AS n
  FROM documents
)
SELECT 50::BIGINT AS q_percent,
       (percentile_disc(0.5) WITHIN GROUP (ORDER BY n))::BIGINT AS n_words
FROM l
UNION ALL
SELECT 90, (percentile_disc(0.9) WITHIN GROUP (ORDER BY n))::BIGINT FROM l
UNION ALL
SELECT 99, (percentile_disc(0.99) WITHIN GROUP (ORDER BY n))::BIGINT FROM l
"""

def q_corpus_freq_scores(sf_dir):
    """Corpus-statistics document scorer (the CCNet-LM-filter shape with
    the corpus as the LM): mean global corpus frequency of each doc's
    token instances, permille-floored. Join-free — token-partitioned
    groupby-transform computes each token's global count where its
    instances live, then a doc-partitioned fold (stages/dataops.py:
    corpus_freq_scores)."""
    from .stages.dataops import corpus_freq_scores

    return corpus_freq_scores(_docs(sf_dir, num_blocks=_read_blocks()))


# same proven str.split() <-> regexp_split_to_array('\s+') pair as
# SQL_TOP_TERMS; score = (sum(n * corpus_count) * 1000) // sum(n), all
# int64 on both engines (// truncates == floor on positives)
SQL_CORPUS_FREQ_SCORES = f"""
WITH per AS (
  SELECT doc_id, tok, count(*)::BIGINT AS n
  FROM (SELECT doc_id, unnest({_SQL_WORDS}) AS tok FROM documents)
  GROUP BY doc_id, tok
),
cnt AS (SELECT tok, sum(n)::BIGINT AS c FROM per GROUP BY tok)
SELECT per.doc_id,
       ((sum(per.n * cnt.c) * 1000) // sum(per.n))::BIGINT AS freq_score
FROM per JOIN cnt USING (tok)
GROUP BY per.doc_id
"""


def q_importance_weights(sf_dir):
    """DSIR-shaped importance weighting: each doc scored by how
    target-domain-like (lang='en' slice vs whole corpus) its unigram
    instances are, in integer parts-per-million. Same join-free
    token-partitioned groupby-transform shape as corpus_freq_scores
    (stages/dataops.py:importance_weights)."""
    from .stages.dataops import importance_weights

    return importance_weights(_docs(sf_dir, num_blocks=_read_blocks()))


# per-(doc,token) contribution n * ((t_cnt*1e6) // c_cnt), doc weight
# = sum // n_tokens — all int64 floor divisions on both engines;
# tokens absent from the 'en' slice contribute 0 via COALESCE
SQL_IMPORTANCE_WEIGHTS = f"""
WITH per AS (
  SELECT doc_id, lang, tok, count(*)::BIGINT AS n
  FROM (SELECT doc_id, lang, unnest({_SQL_WORDS}) AS tok
        FROM documents)
  GROUP BY doc_id, lang, tok
),
cnt AS (
  SELECT tok, sum(n)::BIGINT AS c,
         sum(CASE WHEN lang = 'en' THEN n ELSE 0 END)::BIGINT AS t
  FROM per GROUP BY tok
)
SELECT per.doc_id,
       (sum(per.n * ((cnt.t * 1000000) // cnt.c))
        // sum(per.n))::BIGINT AS weight_ppm
FROM per JOIN cnt USING (tok)
GROUP BY per.doc_id
"""


# ---------------------------------------------------------------------------
# temporal joins (custom operators Ray Data lacks: stages/joins.py)


def q_events_last_order(sf_dir):
    """As-of join: every event + the most recent order (o_orderdate <=
    ts) of the same customer; ties on date broken toward the greatest
    o_orderkey so the surviving witness is deterministic under any
    partitioning. Exercises stages/joins.py:asof_join (one co-partition
    shuffle + compiled merge_asof per partition)."""
    import pyarrow.compute as pc

    from .stages.joins import asof_join

    events = cached_read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )
    orders = cached_read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    )
    joined = asof_join(
        events, orders, on="ts", by="user_id",
        right_on="o_orderdate", right_by="o_custkey",
        right_cols=["o_orderkey", "o_totalprice"], tiebreak="o_orderkey",
    )

    def finish(batch: pa.Table) -> pa.Table:
        centi = pc.floor(
            pc.add(pc.multiply(batch.column("o_totalprice"), 100.0), 0.5)
        )
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "user_id": batch.column("user_id"),
                "o_orderkey": batch.column("o_orderkey"),
                "price_centi": pc.cast(centi, pa.int64()),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


SQL_EVENTS_LAST_ORDER = """
WITH cand AS (
  SELECT e.event_id, o.o_orderkey, o.o_totalprice,
         row_number() OVER (PARTITION BY e.event_id
             ORDER BY o.o_orderdate DESC, o.o_orderkey DESC) AS rn
  FROM events e JOIN orders o
    ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
)
SELECT e.event_id, e.user_id, c.o_orderkey,
       CAST(FLOOR(c.o_totalprice*100 + 0.5) AS BIGINT) AS price_centi
FROM events e LEFT JOIN cand c ON c.event_id = e.event_id AND c.rn = 1
"""


def q_purchase_followups(sf_dir):
    """Range join: for every 'purchase' event (the anchor), every event
    of the same user with ts in [anchor_ts, anchor_ts + 30 min], both
    bounds inclusive (the anchor matches itself). Exercises
    stages/joins.py:range_join (co-partition shuffle + two searchsorted
    calls per key group — no cartesian beyond actual matches)."""
    import pyarrow.compute as pc

    from .stages.joins import range_join

    events = cached_read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )
    raw_anchors = cached_read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    )

    def to_anchor(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.equal(batch.column("event_type"), "purchase")
        )
        lo = batch.column("ts")
        hi = pc.add(lo, pa.scalar(30 * 60 * 1_000_000, pa.duration("us")))
        return pa.table(
            {
                "anchor_id": batch.column("event_id"),
                "a_user": batch.column("user_id"),
                "lo": lo,
                "hi": hi,
            }
        )

    anchors = raw_anchors.map_batches(to_anchor, batch_format="pyarrow")
    return range_join(
        events, anchors,
        left_key="user_id", right_key="a_user", left_time="ts",
        right_lo="lo", right_hi="hi",
        left_cols=["event_id"], right_cols=["anchor_id"],
    )


SQL_PURCHASE_FOLLOWUPS = """
SELECT a.event_id AS anchor_id, e.event_id AS event_id
FROM events a JOIN events e ON a.user_id = e.user_id
WHERE a.event_type = 'purchase'
  AND e.ts >= a.ts AND e.ts <= a.ts + INTERVAL 30 MINUTE
"""


# ---------------------------------------------------------------------------
# grouped top-k / hopping windows / tf-df term scoring


def q_top_docs_per_lang(sf_dir):
    """Top-3 documents per language by (n_chars DESC, doc_id) — drives
    the generic ``grouped_topk`` operator (per-batch combiner + NUL-safe
    coarse partition; shuffle moves at most k rows per group per
    batch)."""

    from .stages.dataops import grouped_topk

    docs = cached_read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "n_chars"],
    )
    return grouped_topk(
        docs, group_cols=["lang"], sort_cols=["n_chars", "doc_id"],
        descending=[True, False], k=3,
    )


SQL_TOP_DOCS_PER_LANG = """
SELECT doc_id, lang, n_chars FROM documents
QUALIFY row_number() OVER (PARTITION BY lang
        ORDER BY n_chars DESC, doc_id) <= 3
"""


def q_hopping_windows(sf_dir):
    """Hopping-window aggregate (size 1 h, hop 30 min): every event
    lands in exactly two windows — w = floor(ts/30min) and w-1, where
    window w covers [w*30min, w*30min + 1h). Same combiner →
    coarse-partition shape as the tumbling ``events_windows``; the
    explode is a two-copy concat inside the batch kernel."""
    ev = cached_read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        ts_ns = batch["ts"].astype("datetime64[ns]").astype("int64")
        w = ts_ns // (1800 * 10**9)
        two = pd.concat(
            [
                batch.assign(window_id=w),
                batch.assign(window_id=w - 1),
            ],
            ignore_index=True,
        )
        return two.groupby(["event_type", "window_id"], as_index=False).agg(
            n_events=("value", "size"), sum_value=("value", "sum")
        )

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby(
            ["event_type", "window_id"], as_index=False
        ).agg(n_events=("n_events", "sum"), sum_value=("sum_value", "sum"))
        out["sum_value_cents"] = [_cents(v) for v in out.pop("sum_value")]
        return out

    return exchange(
        ev.map_batches(partial, batch_format="pandas", batch_size=65536),
        ["event_type", "window_id"], merge,
    )


SQL_HOPPING_WINDOWS = """
WITH exploded AS (
  SELECT event_type, value,
         CAST(FLOOR(epoch(ts)/1800) AS BIGINT) AS window_id FROM events
  UNION ALL
  SELECT event_type, value,
         CAST(FLOOR(epoch(ts)/1800) AS BIGINT) - 1 AS window_id FROM events
)
SELECT event_type, window_id, COUNT(*)::BIGINT AS n_events,
       CAST(FLOOR(SUM(value)*100 + 0.5) AS BIGINT) AS sum_value_cents
FROM exploded GROUP BY 1, 2
"""


def q_doc_top_terms(sf_dir):
    """Most distinctive term per document by an integer-exact tf/df
    score (score_ppm = tf * 1e6 // df — rational arithmetic, no float
    rounding to diverge between engines). Fully distributed shape:
    per-batch tf (each doc's tokens live in its own row), coarse-
    partitioned df counts, a hash JOIN back on term (never a
    driver-side vocabulary), grouped_topk for the per-doc argmax.
    Pandas groupbys key on utf-8 BYTES (NUL-safe discipline)."""

    from .stages.dataops import grouped_topk

    docs = cached_read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def tf_batch(batch: pd.DataFrame) -> pd.DataFrame:
        ex = (
            batch[["doc_id"]]
            .assign(term=batch["text"].str.split(" "))
            .explode("term")
        )
        ex = ex[ex["term"].astype(bool)]  # drop '' from double spaces
        ex["term"] = ex["term"].str.encode("utf-8")
        tf = (
            ex.groupby(["doc_id", "term"], as_index=False)
            .size()
            .rename(columns={"size": "tf"})
        )
        tf["term"] = tf["term"].str.decode("utf-8")
        return tf

    tokens_tf = docs.map_batches(
        tf_batch, batch_format="pandas", batch_size=4096
    )

    def df_partial(batch: pd.DataFrame) -> pd.DataFrame:
        # batch rows are (doc_id, term, tf): distinct per doc already
        b = batch.assign(term_b=batch["term"].str.encode("utf-8"))
        return b.groupby("term_b", as_index=False).size().rename(
            columns={"size": "df"}
        )

    def df_merge(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby("term_b", as_index=False).agg(df=("df", "sum"))
        out["term"] = out.pop("term_b").str.decode("utf-8")
        return out[["term", "df"]]

    df_counts = exchange(
        tokens_tf.map_batches(
            df_partial, batch_format="pandas", batch_size=65536
        ),
        "term_b", df_merge,
    )

    from .stages.dataops import cluster_cpus

    joined = tokens_tf.join(
        df_counts,
        join_type="inner",
        num_partitions=max(2, cluster_cpus() // 4),
        on=("term",),
    )

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        batch["score_ppm"] = (
            batch["tf"].astype("int64") * 1_000_000
            // batch["df"].astype("int64")
        )
        return batch[["doc_id", "term", "score_ppm"]]

    scored = joined.map_batches(
        score, batch_format="pandas", batch_size=65536
    )
    return grouped_topk(
        scored, group_cols=["doc_id"], sort_cols=["score_ppm", "term"],
        descending=[True, False], k=1,
    )


SQL_DOC_TOP_TERMS = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS term FROM documents
), toks_ne AS (
  SELECT doc_id, term FROM toks WHERE term <> ''
), tf AS (
  SELECT doc_id, term, COUNT(*)::BIGINT AS tf FROM toks_ne GROUP BY 1, 2
), df AS (
  SELECT term, COUNT(DISTINCT doc_id)::BIGINT AS df FROM toks_ne GROUP BY 1
)
SELECT tf.doc_id, tf.term, tf.tf * 1000000 // df.df AS score_ppm
FROM tf JOIN df USING (term)
QUALIFY row_number() OVER (PARTITION BY tf.doc_id
        ORDER BY score_ppm DESC, tf.term) <= 1
"""


def q_distinct_token_estimate(sf_dir):
    """Corpus-wide distinct-token count via the KMV sketch (k=256):
    per-batch partials are sketch-sized (<= k rows) no matter the corpus
    size, and the deterministic md5 hash makes the ESTIMATE itself
    bit-reproducible — the DuckDB oracle computes the identical number
    from the identical kth-smallest hash."""

    from .stages.dataops import kmv_distinct_sketch

    docs = cached_read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text"]
    )

    def tokens(batch: pd.DataFrame) -> pd.DataFrame:
        ex = batch.assign(term=batch["text"].str.split(" ")).explode(
            "term"
        )[["term"]]
        return ex[ex["term"].astype(bool)].drop_duplicates()

    toks = docs.map_batches(tokens, batch_format="pandas", batch_size=4096)
    return kmv_distinct_sketch(toks, "term", k=256)


SQL_DISTINCT_TOKEN_ESTIMATE = """
WITH toks AS (
  SELECT DISTINCT unnest(string_split(text, ' ')) AS term FROM documents
), h AS (
  SELECT DISTINCT md5_number_lower(term) AS hv FROM toks WHERE term <> ''
), ranked AS (
  SELECT hv, row_number() OVER (ORDER BY hv) AS rn FROM h
)
SELECT CASE
  WHEN (SELECT count(*) FROM h) < 256 THEN (SELECT count(*) FROM h)
  ELSE CAST(LEAST(
    255 * CAST('18446744073709551616' AS HUGEINT)
        // CAST((SELECT hv FROM ranked WHERE rn = 256) AS HUGEINT),
    CAST('9223372036854775807' AS HUGEINT)) AS BIGINT)
END AS n_distinct_est
"""


def q_repetition_stats(sf_dir):
    """Gopher-style repetition/boilerplate signals per document
    (duplicate- and top-n-gram permille, n in {2,3}) — the standard
    pretraining-corpus repetition filters, integer-exact so the DuckDB
    oracle reproduces every value."""
    from .stages.dataops import add_repetition_stats

    return add_repetition_stats(
        _docs(sf_dir, num_blocks=_read_blocks())
    ).select_columns([
        "doc_id", "dup_2gram_permille", "top_2gram_permille",
        "dup_3gram_permille", "top_3gram_permille",
    ])


# n-grams via list_transform over range() (range(a,b) is [] when b<=a,
# so short docs fall out naturally); counts via one unnest+groupby pass
# (linear, not the quadratic per-doc lambda), LEFT JOIN back so gramless
# docs keep their zero rows.
SQL_REPETITION_STATS = f"""
WITH base AS (
  SELECT doc_id, {_SQL_WORDS} AS w FROM documents
), g AS (
  SELECT doc_id,
    list_transform(range(1, len(w)), i -> w[i] || ' ' || w[i+1]) AS g2,
    list_transform(range(1, len(w) - 1),
                   i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2]) AS g3
  FROM base
), c2 AS (
  SELECT doc_id, sum(cnt)::BIGINT AS total, count(*)::BIGINT AS nd,
         max(cnt)::BIGINT AS top
  FROM (SELECT doc_id, gram, count(*) AS cnt
        FROM (SELECT doc_id, unnest(g2) AS gram FROM g) GROUP BY 1, 2)
  GROUP BY 1
), c3 AS (
  SELECT doc_id, sum(cnt)::BIGINT AS total, count(*)::BIGINT AS nd,
         max(cnt)::BIGINT AS top
  FROM (SELECT doc_id, gram, count(*) AS cnt
        FROM (SELECT doc_id, unnest(g3) AS gram FROM g) GROUP BY 1, 2)
  GROUP BY 1
)
SELECT b.doc_id,
  COALESCE(1000 * (c2.total - c2.nd) // c2.total, 0)::BIGINT
    AS dup_2gram_permille,
  COALESCE(1000 * c2.top // c2.total, 0)::BIGINT AS top_2gram_permille,
  COALESCE(1000 * (c3.total - c3.nd) // c3.total, 0)::BIGINT
    AS dup_3gram_permille,
  COALESCE(1000 * c3.top // c3.total, 0)::BIGINT AS top_3gram_permille
FROM base b LEFT JOIN c2 USING (doc_id) LEFT JOIN c3 USING (doc_id)
"""


def q_scrubbed_docs(sf_dir):
    """PII scrub (URLs → <URL> first, then emails → <EMAIL>) over the
    corpus. The fixture corpus contains no PII, so this hash-gates the
    scrub as a faithful pass-through (no corruption); the redaction
    behavior itself is unit-tested on synthetic PII
    (tests/test_dataops.py)."""
    from .stages.dataops import scrub_documents

    return scrub_documents(
        _docs(sf_dir, num_blocks=_read_blocks())
    ).select_columns(["doc_id", "text", "n_redactions"])


# same two patterns as functions/textstats.py (_URL_RE/_EMAIL_RE):
# lookaround-free so Python re and DuckDB RE2 agree on match spans
SQL_SCRUBBED_DOCS = """
WITH s1 AS (
  SELECT doc_id,
         regexp_replace(text, 'https?://[^\\s]+', '<URL>', 'g') AS t1,
         len(regexp_extract_all(text, 'https?://[^\\s]+'))::BIGINT
           AS n_url
  FROM documents
)
SELECT doc_id,
  regexp_replace(t1,
    '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z][A-Za-z]+',
    '<EMAIL>', 'g') AS text,
  (n_url + len(regexp_extract_all(t1,
    '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z][A-Za-z]+')))::BIGINT
    AS n_redactions
FROM s1
"""


def q_term_postings(sf_dir):
    """Sharded inverted index (term → sorted posting list per
    1000-doc-id bucket). Bucket sharding is the 100-TB shape: no row
    ever holds more than bucket_size ids, so a stopword's postings are
    many bounded rows, never one giant one."""
    from .stages.dataops import term_postings

    return term_postings(_docs(sf_dir, num_blocks=_read_blocks()))


SQL_TERM_POSTINGS = f"""
WITH base AS (
  SELECT doc_id, {_SQL_WORDS} AS words FROM documents
), pairs AS (
  SELECT doc_id, unnest(list_distinct(words)) AS term FROM base
)
SELECT term, (doc_id // 1000)::BIGINT AS bucket,
       count(*)::BIGINT AS df_bucket,
       string_agg(doc_id::VARCHAR, ',' ORDER BY doc_id) AS postings
FROM pairs WHERE term <> ''
GROUP BY 1, 2
"""


def q_winnow_fingerprints(sf_dir):
    """Winnowing (MOSS) fingerprints per document, k=4-gram hashes
    winnowed over w=5 windows — any shared 8-word run between two docs
    shares a fingerprint. md5-number hashing keeps the DuckDB oracle
    bit-exact."""
    from .stages.dataops import winnow_docs

    return winnow_docs(_docs(sf_dir, num_blocks=_read_blocks()))


# list slices are 1-based inclusive (w[i:i+3] = 4 words); range(a, b) is
# [] when b <= a, so the three degenerate arms mirror the kernel's
_SQL_FP = (
    "((md5_number_lower({expr}) & 9223372036854775807::UBIGINT))::BIGINT"
)

SQL_WINNOW_FINGERPRINTS = f"""
WITH base AS (
  SELECT doc_id, {_SQL_WORDS} AS w FROM documents
), h AS (
  SELECT doc_id, w, len(w) AS nw,
    list_transform(range(1, len(w) - 2),
      i -> {_SQL_FP.format(expr="array_to_string(w[i:i+3], ' ')")}) AS hs
  FROM base
), fps AS (
  SELECT doc_id,
    CASE
      WHEN nw < 4 THEN
        [{_SQL_FP.format(
            expr="COALESCE(array_to_string(w, ' '), '')"
        )}]
      WHEN len(hs) <= 5 THEN [list_min(hs)]
      ELSE list_distinct(list_transform(range(1, len(hs) - 3),
                                        i -> list_min(hs[i:i+4])))
    END AS fp_list
  FROM h
)
SELECT doc_id, unnest(fp_list) AS fingerprint FROM fps
"""


def q_duplicate_spans(sf_dir):
    """Cross-document duplicated spans: winnowing fingerprints shared by
    >=2 docs (a shared fingerprint witnesses a shared >=8-word run, the
    Lee et al. 2022 substring-dedup signal). Combiner → coarse partition;
    see stages/dataops.py:duplicate_spans for the 100-TB shape."""
    from .stages.dataops import duplicate_spans

    return duplicate_spans(_docs(sf_dir, num_blocks=_read_blocks()))


def q_order_priority_counts(sf_dir):
    """TPC-H Q4 shape: orders in a date window that have at least one
    discounted lineitem, counted by priority. The EXISTS is a native
    ``left_semi`` hash join (each order at most once however many
    lineitems match); both sides are column-pruned and pre-filtered
    BEFORE the shuffle, and the count is a per-batch combiner into a
    5-group aggregate."""
    from datetime import datetime

    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from .stages.dataops import cluster_cpus

    orders = cached_read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    )
    lo = datetime(1996, 1, 1)
    hi = datetime(1998, 1, 1)

    def in_window(batch: pa.Table) -> pa.Table:
        d = batch.column("o_orderdate")
        mask = pc.and_(
            pc.greater_equal(d, pa.scalar(lo, type=d.type)),
            pc.less(d, pa.scalar(hi, type=d.type)),
        )
        return batch.filter(mask).select(["o_orderkey", "o_orderpriority"])

    li = cached_read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_discount"]
    )

    def discounted(batch: pa.Table) -> pa.Table:
        mask = pc.greater(batch.column("l_discount"), pa.scalar(0.05))
        return batch.filter(mask).select(["l_orderkey"])

    semi = orders.map_batches(in_window, batch_format="pyarrow").join(
        li.map_batches(discounted, batch_format="pyarrow"),
        join_type="left_semi",
        num_partitions=max(2, cluster_cpus() // 4),
        on=("o_orderkey",),
        right_on=("l_orderkey",),
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.groupby("o_orderpriority", as_index=False).agg(
            order_count=("o_orderkey", "size")
        )

    return (
        semi.map_batches(partial, batch_format="pandas")
        .groupby("o_orderpriority")
        .aggregate(Sum("order_count", alias_name="order_count"))
    )


SQL_ORDER_PRIORITY_COUNTS = """
SELECT o_orderpriority, count(*)::BIGINT AS order_count
FROM orders o
WHERE o.o_orderdate >= TIMESTAMP '1996-01-01'
  AND o.o_orderdate <  TIMESTAMP '1998-01-01'
  AND EXISTS (SELECT 1 FROM lineitem l
              WHERE l.l_orderkey = o.o_orderkey AND l.l_discount > 0.05)
GROUP BY o_orderpriority
"""


def q_returnflag_priority(sf_dir):
    """TPC-H Q12 shape: lineitems shipped in a window joined to their
    orders (large-large native hash join, both sides column-pruned and
    the lineitem side date-filtered pre-shuffle), then a conditional
    aggregate — high- vs low-priority line counts per return flag —
    as a per-batch combiner into a 3-group Sum."""
    from datetime import datetime

    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from .stages.dataops import cluster_cpus

    li = cached_read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_shipdate"],
    )
    lo = datetime(1997, 1, 1)
    hi = datetime(1998, 1, 1)

    def shipped(batch: pa.Table) -> pa.Table:
        d = batch.column("l_shipdate")
        mask = pc.and_(
            pc.greater_equal(d, pa.scalar(lo, type=d.type)),
            pc.less(d, pa.scalar(hi, type=d.type)),
        )
        return batch.filter(mask).select(["l_orderkey", "l_returnflag"])

    orders = cached_read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    )
    joined = li.map_batches(shipped, batch_format="pyarrow").join(
        orders,
        join_type="inner",
        num_partitions=max(2, cluster_cpus() // 4),
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        high = batch["o_orderpriority"].isin(["1-URGENT", "2-HIGH"])
        batch["high_line_count"] = high.astype("int64")
        batch["low_line_count"] = (~high).astype("int64")
        return batch.groupby("l_returnflag", as_index=False).agg(
            high_line_count=("high_line_count", "sum"),
            low_line_count=("low_line_count", "sum"),
        )

    return (
        joined.map_batches(partial, batch_format="pandas")
        .groupby("l_returnflag")
        .aggregate(
            Sum("high_line_count", alias_name="high_line_count"),
            Sum("low_line_count", alias_name="low_line_count"),
        )
    )


SQL_RETURNFLAG_PRIORITY = """
SELECT l_returnflag,
       SUM(CASE WHEN o.o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 1 ELSE 0 END)::BIGINT AS high_line_count,
       SUM(CASE WHEN o.o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 0 ELSE 1 END)::BIGINT AS low_line_count
FROM lineitem l
JOIN orders o ON l.l_orderkey = o.o_orderkey
WHERE l.l_shipdate >= TIMESTAMP '1997-01-01'
  AND l.l_shipdate <  TIMESTAMP '1998-01-01'
GROUP BY l_returnflag
"""


def q_customers_without_events(sf_dir):
    """EXACT anti-join via Bloom prefilter (stages/joins.py:
    bloom_anti_join): customers with no event activity. The events side
    folds into a fixed-size bit array (one pass, driver ORs per-batch
    partials), Bloom misses stream straight to the output, and only the
    candidate slice pays the ``left_anti`` hash shuffle."""

    from .stages.joins import bloom_anti_join

    def customers():
        return cached_read_parquet(
            f"{sf_dir}/customer.parquet",
            columns=["c_custkey", "c_mktsegment"],
        )

    events = cached_read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id"]
    )
    return bloom_anti_join(customers, events, on="c_custkey",
                           right_on="user_id")


SQL_CUSTOMERS_WITHOUT_EVENTS = """
SELECT c.c_custkey, c.c_mktsegment
FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM events e WHERE e.user_id = c.c_custkey)
"""


SQL_DUPLICATE_SPANS = f"""
SELECT fingerprint, count(*)::BIGINT AS ndocs,
       min(doc_id)::BIGINT AS first_doc, max(doc_id)::BIGINT AS last_doc
FROM ({SQL_WINNOW_FINGERPRINTS}) fp
GROUP BY fingerprint HAVING count(*) >= 2
"""


def q_running_revenue(sf_dir):
    """SQL window function: per-customer running revenue —
    ``SUM(cents) OVER (PARTITION BY o_custkey ORDER BY o_orderdate,
    o_orderkey)``. ONE coarse hash shuffle on the customer key, one
    vectorized sort+cumsum per part (stages/windows.py:running_sum);
    integer cents per row summed in int64 so every prefix is exact."""

    from .stages.windows import running_sum

    orders = cached_read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"],
    )

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        batch["date_us"] = (
            batch["o_orderdate"].astype("datetime64[us]").astype("int64")
        )
        batch["cents"] = (
            np.floor(batch["o_totalprice"].to_numpy() * 100 + 0.5)
            .astype("int64")
        )
        return batch[["o_custkey", "o_orderkey", "date_us", "cents"]]

    return running_sum(
        orders.map_batches(prep, batch_format="pandas"),
        part_col="o_custkey",
        order_cols=["date_us", "o_orderkey"],
        value_col="cents",
        out_col="running_cents",
        keep_cols=["o_custkey", "o_orderkey"],
    )


SQL_RUNNING_REVENUE = """
SELECT o_custkey, o_orderkey,
       SUM(CAST(FLOOR(o_totalprice*100 + 0.5) AS BIGINT)) OVER (
         PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey
         ROWS UNBOUNDED PRECEDING)::BIGINT AS running_cents
FROM orders
"""


def q_event_gaps(sf_dir):
    """SQL LAG window: microseconds between consecutive events per user
    (``ts - LAG(ts) OVER (PARTITION BY user_id ORDER BY ts,
    event_id)``), first event per user dropped so the gap column stays
    exact int64. Same one-shuffle window shape
    (stages/windows.py:lag_delta)."""

    from .stages.windows import lag_delta

    ev = cached_read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"]
    )

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        batch["ts_us"] = batch["ts"].astype("datetime64[us]").astype("int64")
        return batch[["user_id", "event_id", "ts_us"]]

    return lag_delta(
        ev.map_batches(prep, batch_format="pandas"),
        part_col="user_id",
        order_cols=["ts_us", "event_id"],
        value_col="ts_us",
        out_col="gap_us",
        keep_cols=["user_id", "event_id"],
    )


SQL_EVENT_GAPS = """
WITH g AS (
  SELECT user_id, event_id,
         epoch_us(ts) - lag(epoch_us(ts)) OVER (
           PARTITION BY user_id ORDER BY ts, event_id) AS gap_us
  FROM events)
SELECT user_id, event_id, gap_us::BIGINT AS gap_us
FROM g WHERE gap_us IS NOT NULL
"""


def q_rolling_event_stats(sf_dir):
    """Bounded RANGE-interval window: per event, how many events (and
    how much integer-cent value) the same user generated in the
    trailing 10 minutes, frame inclusive on both bounds and shared by
    ts-peers — SQL ``RANGE BETWEEN INTERVAL 10 MINUTES PRECEDING AND
    CURRENT ROW``. One coarse shuffle + per-key binary searches
    (stages/windows.py:range_rolling); value goes to cents per row
    BEFORE the window sum so both engines add exact int64."""

    from .stages.windows import range_rolling

    ev = cached_read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "value"],
    )

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        batch["ts_us"] = batch["ts"].astype("datetime64[us]").astype("int64")
        batch["cents"] = (
            np.floor(batch["value"].to_numpy() * 100 + 0.5).astype("int64")
        )
        return batch[["user_id", "event_id", "ts_us", "cents"]]

    return range_rolling(
        ev.map_batches(prep, batch_format="pandas"),
        part_col="user_id",
        ts_col="ts_us",
        preceding=600_000_000,  # 10 minutes in microseconds
        value_col="cents",
        out_count="n_10m",
        out_sum="cents_10m",
        keep_cols=["user_id", "event_id"],
    )


SQL_ROLLING_EVENT_STATS = """
SELECT user_id, event_id,
       (COUNT(*) OVER w)::BIGINT AS n_10m,
       (SUM(CAST(FLOOR(value*100 + 0.5) AS BIGINT)) OVER w)::BIGINT
         AS cents_10m
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts
             RANGE BETWEEN INTERVAL 10 MINUTES PRECEDING
                       AND CURRENT ROW)
"""


def q_order_count_distribution(sf_dir):
    """TPC-H Q13 shape: distribution of customers by order count,
    INCLUDING zero-order customers. No row-level join at all: a
    per-batch combiner over orders collapses to (custkey, c_count)
    inside cluster-scaled parts, the SAME part kernel immediately folds
    to (c_count, custdist) partials, and a tiny groupby finishes. The
    c_count=0 row is total customers (parquet metadata count) minus the
    customers seen in orders — computed from the final few-dozen-row
    aggregate, so the driver never touches row-scale data."""
    from ray.data.aggregate import Sum

    orders = cached_read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"]
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.groupby("o_custkey", as_index=False).agg(
            c_count=("o_custkey", "size")
        )

    def per_part(group: pd.DataFrame) -> pd.DataFrame:
        per_cust = group.groupby("o_custkey", as_index=False).agg(
            c_count=("c_count", "sum")
        )
        out = per_cust.groupby("c_count", as_index=False).agg(
            custdist=("c_count", "size")
        )
        return out[["c_count", "custdist"]]

    dist = (
        exchange(
            orders.map_batches(partial, batch_format="pandas",
                               batch_size=65536),
            "o_custkey", per_part,
        )
        .groupby("c_count")
        .aggregate(Sum("custdist", alias_name="custdist"))
        .to_pandas()  # few dozen rows: one per distinct order count
    )
    total_customers = cached_read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"]
    ).count()
    zero = total_customers - int(dist["custdist"].sum())
    if zero > 0:
        dist = pd.concat(
            [dist, pd.DataFrame({"c_count": [0], "custdist": [zero]})],
            ignore_index=True,
        )
    dist["c_count"] = dist["c_count"].astype("int64")
    dist["custdist"] = dist["custdist"].astype("int64")
    return dist.sort_values("c_count").reset_index(drop=True)


SQL_ORDER_COUNT_DISTRIBUTION = """
WITH per_cust AS (
  SELECT c.c_custkey, count(o.o_orderkey) AS c_count
  FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey
  GROUP BY c.c_custkey)
SELECT c_count::BIGINT AS c_count, count(*)::BIGINT AS custdist
FROM per_cust GROUP BY c_count
"""


def _per_nation_revenue(sf_dir):
    """The shared finest-level aggregate under the ROLLUP/CUBE queries:
    (region, nation, revenue_cents). Scale shape: a per-batch combiner
    pre-aggregates integer cents per custkey BEFORE any exchange; the
    SF-scaled customer dimension (~150k rows/SF — not a broadcastable
    driver dict at the 100× target) joins through the distributed
    tagged co-group; only the 25-row nation→(region, name) map is
    broadcast. Per-row integer cents so every derived level is exact."""
    import ray
    import ray.data
    import pyarrow.parquet as pq
    from ray.data.aggregate import Sum

    from .stages.joins import equi_join

    orders = cached_read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    def combine(batch: pd.DataFrame) -> pd.DataFrame:
        batch["cents"] = (
            np.floor(batch["o_totalprice"].to_numpy() * 100 + 0.5)
            .astype("int64")
        )
        return batch.groupby("o_custkey", as_index=False).agg(
            revenue_cents=("cents", "sum")
        )

    per_cust = orders.map_batches(
        combine, batch_format="pandas", batch_size=65536
    )
    customer = cached_read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    with_nation = equi_join(
        per_cust, customer, on="o_custkey", right_on="c_custkey"
    )

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet",
        columns=["n_nationkey", "n_name", "n_regionkey"],
    )
    region = pq.read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    )
    region_names = dict(
        zip(region.column("r_regionkey").to_pylist(),
            region.column("r_name").to_pylist())
    )
    nation_map = {
        nk: (region_names[rk], nm)
        for nk, nm, rk in zip(
            nation.column("n_nationkey").to_pylist(),
            nation.column("n_name").to_pylist(),
            nation.column("n_regionkey").to_pylist(),
        )
    }
    nref = ray.put(nation_map)

    def to_region(batch: pd.DataFrame) -> pd.DataFrame:
        nmap = ray.get(nref)
        rn = [nmap[int(n)] for n in batch["c_nationkey"]]
        batch["region"] = [x[0] for x in rn]
        batch["nation"] = [x[1] for x in rn]
        batch["revenue_cents"] = batch["revenue_cents"].astype("int64")
        return batch.groupby(["region", "nation"], as_index=False).agg(
            revenue_cents=("revenue_cents", "sum")
        )

    return (
        with_nation.map_batches(
            to_region, batch_format="pandas", batch_size=65536
        )
        .groupby(["region", "nation"])
        .aggregate(Sum("revenue_cents", alias_name="revenue_cents"))
    )


def q_revenue_rollup(sf_dir):
    """GROUP BY ROLLUP(region, nation): revenue subtotals at nation,
    region and grand-total level ('ALL' sentinels), derived from the
    25-row finest aggregate (:func:`_per_nation_revenue` — the fact
    table is scanned once, never re-scanned per level)."""
    per_nation = _per_nation_revenue(sf_dir)

    def rollup(batch: pd.DataFrame) -> pd.DataFrame:
        fine = batch[["region", "nation", "revenue_cents"]]
        by_region = fine.groupby("region", as_index=False).agg(
            revenue_cents=("revenue_cents", "sum")
        )
        by_region["nation"] = "ALL"
        total = pd.DataFrame(
            {
                "region": ["ALL"],
                "nation": ["ALL"],
                "revenue_cents": [fine["revenue_cents"].sum()],
            }
        )
        return pd.concat(
            [fine, by_region[["region", "nation", "revenue_cents"]], total],
            ignore_index=True,
        )

    # 25 nation rows: the rollup needs all of them together
    return per_nation.repartition(1).map_batches(
        rollup, batch_format="pandas"
    )


SQL_REVENUE_ROLLUP = """
SELECT COALESCE(r_name, 'ALL') AS region,
       COALESCE(n_name, 'ALL') AS nation,
       SUM(cents)::BIGINT AS revenue_cents
FROM (SELECT r_name, n_name,
             CAST(FLOOR(o_totalprice*100 + 0.5) AS BIGINT) AS cents
      FROM orders o
      JOIN customer c ON o.o_custkey = c.c_custkey
      JOIN nation n ON c.c_nationkey = n.n_nationkey
      JOIN region r ON n.n_regionkey = r.r_regionkey)
GROUP BY ROLLUP(r_name, n_name)
"""


def q_revenue_cube(sf_dir):
    """GROUP BY CUBE(region, nation): the ROLLUP levels plus the
    ('ALL', nation) cross-slice, all derived from the same 25-row
    finest aggregate (:func:`_per_nation_revenue`) — one fact-table
    scan feeds all four grouping sets."""
    per_nation = _per_nation_revenue(sf_dir)

    def cube(batch: pd.DataFrame) -> pd.DataFrame:
        fine = batch[["region", "nation", "revenue_cents"]]
        by_region = fine.groupby("region", as_index=False).agg(
            revenue_cents=("revenue_cents", "sum")
        )
        by_region["nation"] = "ALL"
        by_nation = fine.groupby("nation", as_index=False).agg(
            revenue_cents=("revenue_cents", "sum")
        )
        by_nation["region"] = "ALL"
        total = pd.DataFrame(
            {
                "region": ["ALL"],
                "nation": ["ALL"],
                "revenue_cents": [fine["revenue_cents"].sum()],
            }
        )
        cols = ["region", "nation", "revenue_cents"]
        return pd.concat(
            [fine, by_region[cols], by_nation[cols], total],
            ignore_index=True,
        )

    # 25 nation rows: the cube needs all of them together
    return per_nation.repartition(1).map_batches(
        cube, batch_format="pandas"
    )


SQL_REVENUE_CUBE = """
SELECT COALESCE(r_name, 'ALL') AS region,
       COALESCE(n_name, 'ALL') AS nation,
       SUM(cents)::BIGINT AS revenue_cents
FROM (SELECT r_name, n_name,
             CAST(FLOOR(o_totalprice*100 + 0.5) AS BIGINT) AS cents
      FROM orders o
      JOIN customer c ON o.o_custkey = c.c_custkey
      JOIN nation n ON c.c_nationkey = n.n_nationkey
      JOIN region r ON n.n_regionkey = r.r_regionkey)
GROUP BY CUBE(r_name, n_name)
"""


def q_doc_length_histogram(sf_dir):
    """Fixed-width histogram over document length (200-char bins) with
    per-bin min/max: per-batch combiner → tiny groupby over the bin
    count (bounded by max doc length / 200, not corpus size)."""
    from ray.data.aggregate import Max, Min, Sum

    docs = cached_read_parquet(
        f"{sf_dir}/documents.parquet", columns=["n_chars"]
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        batch["bin"] = batch["n_chars"].astype("int64") // 200
        return batch.groupby("bin", as_index=False).agg(
            n_docs=("n_chars", "size"),
            min_chars=("n_chars", "min"),
            max_chars=("n_chars", "max"),
        )

    return (
        docs.map_batches(partial, batch_format="pandas", batch_size=65536)
        .groupby("bin")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Min("min_chars", alias_name="min_chars"),
            Max("max_chars", alias_name="max_chars"),
        )
    )


SQL_DOC_LENGTH_HISTOGRAM = """
SELECT (n_chars // 200)::BIGINT AS bin, count(*)::BIGINT AS n_docs,
       min(n_chars)::BIGINT AS min_chars, max(n_chars)::BIGINT AS max_chars
FROM documents GROUP BY 1
"""


def q_lineitem_profile(sf_dir):
    """Column profiler (data-validation op): one streaming pass emits
    per-column stats — non-null count, integer-cents sum/min/max — for
    every numeric lineitem measure. Per-batch partial produces 4 rows
    per batch; the final aggregate has 4 groups."""
    from ray.data.aggregate import Max, Min, Sum

    cols = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
    li = cached_read_parquet(f"{sf_dir}/lineitem.parquet", columns=cols)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for c in cols:
            v = batch[c].dropna()
            cents = np.floor(v.to_numpy() * 100 + 0.5).astype("int64")
            rows.append(
                {
                    "col_name": c,
                    "n": int(len(v)),
                    "sum_cents": int(cents.sum()) if len(v) else 0,
                    "min_cents": int(cents.min()) if len(v) else 2**62,
                    "max_cents": int(cents.max()) if len(v) else -(2**62),
                }
            )
        return pd.DataFrame(rows)

    return (
        li.map_batches(partial, batch_format="pandas", batch_size=65536)
        .groupby("col_name")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sum_cents", alias_name="sum_cents"),
            Min("min_cents", alias_name="min_cents"),
            Max("max_cents", alias_name="max_cents"),
        )
    )


SQL_LINEITEM_PROFILE = """
SELECT 'l_quantity' AS col_name, count(l_quantity)::BIGINT AS n,
       SUM(CAST(FLOOR(l_quantity*100+0.5) AS BIGINT))::BIGINT AS sum_cents,
       MIN(CAST(FLOOR(l_quantity*100+0.5) AS BIGINT))::BIGINT AS min_cents,
       MAX(CAST(FLOOR(l_quantity*100+0.5) AS BIGINT))::BIGINT AS max_cents
FROM lineitem
UNION ALL
SELECT 'l_extendedprice', count(l_extendedprice)::BIGINT,
       SUM(CAST(FLOOR(l_extendedprice*100+0.5) AS BIGINT))::BIGINT,
       MIN(CAST(FLOOR(l_extendedprice*100+0.5) AS BIGINT))::BIGINT,
       MAX(CAST(FLOOR(l_extendedprice*100+0.5) AS BIGINT))::BIGINT
FROM lineitem
UNION ALL
SELECT 'l_discount', count(l_discount)::BIGINT,
       SUM(CAST(FLOOR(l_discount*100+0.5) AS BIGINT))::BIGINT,
       MIN(CAST(FLOOR(l_discount*100+0.5) AS BIGINT))::BIGINT,
       MAX(CAST(FLOOR(l_discount*100+0.5) AS BIGINT))::BIGINT
FROM lineitem
UNION ALL
SELECT 'l_tax', count(l_tax)::BIGINT,
       SUM(CAST(FLOOR(l_tax*100+0.5) AS BIGINT))::BIGINT,
       MIN(CAST(FLOOR(l_tax*100+0.5) AS BIGINT))::BIGINT,
       MAX(CAST(FLOOR(l_tax*100+0.5) AS BIGINT))::BIGINT
FROM lineitem
"""


def q_new_docs_vs_snapshot(sf_dir):
    """Incremental-ingestion dedup: documents in the incoming batch
    (odd doc_ids) whose content md5 does NOT appear in the previous
    snapshot (even doc_ids) — the Bloom-prefiltered exact anti-join
    (stages/joins.py:bloom_anti_join) keyed on the fingerprint, so the
    snapshot folds to a fixed-size bit array however many TB it spans
    and only Bloom hits pay the hash shuffle."""
    import hashlib

    from .stages.joins import bloom_anti_join

    def with_md5(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "fingerprint_md5": pa.array(
                    [
                        hashlib.md5(t.encode()).hexdigest()
                        for t in batch.column("text").to_pylist()
                    ],
                    pa.string(),
                ),
            }
        )

    def side(parity: int):
        import pyarrow.compute as pc

        def read():
            ds = cached_read_parquet(
                f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
            )
            return ds.map_batches(
                lambda b: b.filter(
                    pc.equal(pc.bit_wise_and(b.column("doc_id"), 1), parity)
                ),
                batch_format="pyarrow",
            ).map_batches(with_md5, batch_format="pyarrow")

        return read

    survivors = bloom_anti_join(
        side(1),
        side(0)(),
        on="fingerprint_md5",
        right_on="fingerprint_md5",
    )
    return survivors.select_columns(["doc_id"])


SQL_NEW_DOCS_VS_SNAPSHOT = """
SELECT d.doc_id
FROM documents d
WHERE d.doc_id % 2 = 1
  AND NOT EXISTS (SELECT 1 FROM documents s
                  WHERE s.doc_id % 2 = 0 AND md5(s.text) = md5(d.text))
"""


def q_heavy_hitters(sf_dir):
    """Count-min-sketch heavy hitters over the corpus token stream:
    terms whose CMS estimate of total occurrences >= 500. The sketch is
    a fixed depth*width=4096-cell aggregate however large the corpus;
    see stages/dataops.py:cms_heavy_hitters for the scale shape and the
    md5-bucket rule the DuckDB oracle reproduces bit-for-bit."""
    from .stages.dataops import cms_heavy_hitters

    return cms_heavy_hitters(
        _docs(sf_dir, num_blocks=_read_blocks()), threshold=500
    )


SQL_HEAVY_HITTERS = f"""
WITH toks AS (
  SELECT unnest({_SQL_WORDS}) AS term FROM documents
), tc AS (
  SELECT term, count(*)::BIGINT AS c FROM toks GROUP BY term
), cells AS (
  SELECT j,
         (md5_number_lower('cms' || CAST(j AS VARCHAR) || '|' || term)
          % 1024)::BIGINT AS bucket,
         SUM(c)::BIGINT AS cnt
  FROM tc, range(4) r(j) GROUP BY 1, 2
), est AS (
  SELECT t.term, MIN(cells.cnt)::BIGINT AS cms_estimate
  FROM tc t
  JOIN cells ON cells.bucket =
       (md5_number_lower('cms' || CAST(cells.j AS VARCHAR) || '|' || t.term)
        % 1024)::BIGINT
  GROUP BY t.term
)
SELECT term, cms_estimate FROM est WHERE cms_estimate >= 500
"""


def q_orders_checksum(sf_dir):
    """Order-invariant table checksum (migration / resumable-write
    validation): one row (n_rows, checksum) over the orders table's
    exact-typed columns. Commutative addition of per-row md5 values →
    the result is identical under any partitioning, task order or
    retry; see stages/dataops.py:table_checksum."""

    from .stages.dataops import table_checksum

    orders = cached_read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderstatus",
                 "o_orderpriority"],
    )
    return table_checksum(
        orders, ["o_orderkey", "o_custkey", "o_orderstatus",
                 "o_orderpriority"]
    )


SQL_ORDERS_CHECKSUM = """
WITH h AS (
  SELECT (md5_number_lower(
            CAST(o_orderkey AS VARCHAR) || '|' ||
            CAST(o_custkey AS VARCHAR) || '|' ||
            o_orderstatus || '|' || o_orderpriority)
          & 9223372036854775807::UBIGINT)::BIGINT AS v
  FROM orders)
SELECT count(*)::BIGINT AS n_rows,
       (SUM(v::HUGEINT) % 999999999989)::BIGINT AS checksum
FROM h
"""


def q_conversion_funnel(sf_dir):
    """Strict-order 3-step funnel (view → click → purchase): users with
    a view, users whose earliest click is after their earliest view,
    users whose earliest purchase is after that click. ONE ``exchange``
    on user_id; inside each part the three steps are vectorized
    pandas min-merges (never a Python loop per user). Output
    (step, n_users)."""
    from ray.data.aggregate import Sum

    ev = cached_read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
    )

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch[batch["event_type"].isin(["view", "click", "purchase"])]
        batch = batch.copy()
        batch["ts_us"] = batch["ts"].astype("datetime64[us]").astype("int64")
        return batch[["user_id", "ts_us", "event_type"]]

    def funnel(group: pd.DataFrame) -> pd.DataFrame:
        def first_after(etype: str, prev: pd.DataFrame) -> pd.DataFrame:
            e = group[group["event_type"] == etype][["user_id", "ts_us"]]
            m = e.merge(prev, on="user_id", how="inner")
            m = m[m["ts_us"] > m["prev_us"]]
            out = m.groupby("user_id", as_index=False).agg(
                prev_us=("ts_us", "min")
            )
            return out

        views = (
            group[group["event_type"] == "view"]
            .groupby("user_id", as_index=False)
            .agg(prev_us=("ts_us", "min"))
        )
        clicks = first_after("click", views)
        purchases = first_after("purchase", clicks)
        return pd.DataFrame(
            {
                "step": pd.Series([1, 2, 3], dtype="int64"),
                "n_users": pd.Series(
                    [len(views), len(clicks), len(purchases)], dtype="int64"
                ),
            }
        )

    return (
        exchange(
            ev.map_batches(prep, batch_format="pandas", batch_size=65536),
            "user_id", funnel,
        )
        .groupby("step")
        .aggregate(Sum("n_users", alias_name="n_users"))
    )


SQL_CONVERSION_FUNNEL = """
WITH v AS (
  SELECT user_id, min(ts) AS t1 FROM events
  WHERE event_type = 'view' GROUP BY 1),
c AS (
  SELECT e.user_id, min(e.ts) AS t2 FROM events e
  JOIN v ON e.user_id = v.user_id AND e.ts > v.t1
  WHERE e.event_type = 'click' GROUP BY 1),
p AS (
  SELECT e.user_id, min(e.ts) AS t3 FROM events e
  JOIN c ON e.user_id = c.user_id AND e.ts > c.t2
  WHERE e.event_type = 'purchase' GROUP BY 1)
SELECT 1::BIGINT AS step, count(*)::BIGINT AS n_users FROM v
UNION ALL SELECT 2, count(*) FROM c
UNION ALL SELECT 3, count(*) FROM p
"""


def q_length_quantiles_by_lang(sf_dir):
    """Exact per-language word-length quantiles (p50/p90,
    percentile_disc semantics) via the bounded-domain histogram — the
    only aggregate is O(langs × distinct lengths) cells, never a
    per-group value shuffle. stages/dataops.py:grouped_length_quantiles."""
    from .stages.dataops import grouped_length_quantiles

    return grouped_length_quantiles(
        _docs(sf_dir, num_blocks=_read_blocks())
    )


SQL_LENGTH_QUANTILES_BY_LANG = f"""
WITH l AS (
  SELECT lang, len({_SQL_WORDS})::BIGINT AS n FROM documents
)
SELECT lang, 50::BIGINT AS q_percent,
       (percentile_disc(0.5) WITHIN GROUP (ORDER BY n))::BIGINT AS n_words
FROM l GROUP BY lang
UNION ALL
SELECT lang, 90,
       (percentile_disc(0.9) WITHIN GROUP (ORDER BY n))::BIGINT
FROM l GROUP BY lang
"""


def q_doc_percentile_rank(sf_dir):
    """Global window function Ray Data lacks natively:
    ``percent_rank() OVER (ORDER BY n_chars)`` as exact integer
    permille, computed with a broadcast cumulative histogram instead of
    a global sort (stages/dataops.py:percent_rank_by_value)."""

    from .stages.dataops import percent_rank_by_value

    docs = cached_read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    return percent_rank_by_value(
        docs, value_col="n_chars", keep_cols=["doc_id"]
    )


SQL_DOC_PERCENTILE_RANK = """
SELECT doc_id,
       ((1000 * (rank() OVER (ORDER BY n_chars) - 1))
        // GREATEST(count(*) OVER () - 1, 1))::BIGINT AS pct_permille
FROM documents
"""


def q_triangle_count(sf_dir):
    """Exact triangle count of the flagship's deduped edge graph via
    degree-ordered wedge generation (each node's out-degree bounded by
    ~sqrt(2m) after orientation, so wedges are O(m^1.5) under any hub
    skew) — stages/graph_algos.py:triangle_count; counted against a
    three-way self-join DuckDB oracle."""
    from .stages.graph_algos import triangle_count

    edges = _shared_graph_edges(sf_dir)
    return triangle_count(edges)


def _sql_triangle_count() -> str:
    from . import oracles

    return f"""
WITH edges AS (
{oracles.sql_graph_edges()}
), e AS (
  SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b
  FROM edges WHERE src <> dst
)
SELECT count(*)::BIGINT AS n_triangles
FROM e e1
JOIN e e2 ON e2.a = e1.a AND e2.b > e1.b
JOIN e e3 ON e3.a = e1.b AND e3.b = e2.b
"""


def q_link_prediction(sf_dir):
    """Common-neighbor link prediction over the flagship KG: top-20
    non-adjacent node pairs by shared-neighbor count — wedge pairs per
    center (coarse-partitioned, vectorized triu expansion), pair-keyed
    co-group vs the edge set for the anti-join, per-part top-k → tiny
    merge. stages/graph_algos.py:common_neighbors_topk."""
    from .stages.graph_algos import common_neighbors_topk

    edges = _shared_graph_edges(sf_dir)
    return common_neighbors_topk(edges, k=20)


def _sql_link_prediction() -> str:
    from . import oracles

    return f"""
WITH edges AS (
{oracles.sql_graph_edges()}
), e AS (
  SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b
  FROM edges WHERE src <> dst
), adj AS (
  SELECT a AS c, b AS n FROM e UNION ALL SELECT b, a FROM e
), pairs AS (
  SELECT x.n AS node_a, y.n AS node_b, COUNT(*)::BIGINT AS n_common
  FROM adj x JOIN adj y ON x.c = y.c AND x.n < y.n
  GROUP BY 1, 2
)
SELECT node_a, node_b, n_common
FROM pairs p
WHERE NOT EXISTS (
  SELECT 1 FROM e WHERE e.a = p.node_a AND e.b = p.node_b
)
ORDER BY n_common DESC, node_a, node_b
LIMIT 20
"""


def q_shipping_priority(sf_dir):
    """TPC-H Q3 shape: top-10 open orders by in-window revenue for one
    market segment. The segment filter is a distributed semi-join
    (inner equi_join of date-filtered orders against the BUILDING
    subset of the SF-scaled customer dimension — never a driver set),
    both fact tables are date-filtered and column-pruned BEFORE the
    hash join, the per-order revenue sum is a per-batch combiner →
    ``exchange`` on the orderkey with a per-part top-10 prune, and only
    parts×10 rows reach the final sort."""
    import pyarrow.compute as pc

    from .stages.dataops import cluster_cpus
    from .stages.joins import equi_join

    cutoff = pd.Timestamp("1997-06-01")

    def building_cust(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.equal(batch.column("c_mktsegment"), "BUILDING")
        ).select(["c_custkey"])

    customer = cached_read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_mktsegment"],
    ).map_batches(building_cust, batch_format="pyarrow")

    orders = cached_read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )

    def open_orders(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch[batch["o_orderdate"] < cutoff]
        return batch[["o_orderkey", "o_custkey"]]

    seg_orders = equi_join(
        orders.map_batches(open_orders, batch_format="pandas"),
        customer, on="o_custkey", right_on="c_custkey",
    )

    def order_keys(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": pc.cast(batch.column("o_orderkey"), pa.int64()),
        })

    li = cached_read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_shipdate", "l_extendedprice",
                 "l_discount"],
    )

    def shipped_late(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch[batch["l_shipdate"] > cutoff]
        batch = batch.copy()
        batch["cents"] = np.floor(
            batch["l_extendedprice"].to_numpy()
            * (1 - batch["l_discount"].to_numpy()) * 100 + 0.5
        ).astype("int64")
        return batch[["l_orderkey", "cents"]]

    joined = li.map_batches(shipped_late, batch_format="pandas").join(
        seg_orders.map_batches(order_keys, batch_format="pyarrow"),
        join_type="inner",
        num_partitions=max(2, cluster_cpus() // 4),
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.groupby("l_orderkey", as_index=False).agg(
            revenue_cents=("cents", "sum")
        )

    def per_part_top(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby("l_orderkey", as_index=False).agg(
            revenue_cents=("revenue_cents", "sum")
        )
        return g.sort_values(
            ["revenue_cents", "l_orderkey"], ascending=[False, True]
        ).head(10)

    return (
        exchange(joined.map_batches(partial, batch_format="pandas"),
                 "l_orderkey", per_part_top)
        .sort(["revenue_cents", "l_orderkey"], descending=[True, False])
        .limit(10)
    )


SQL_SHIPPING_PRIORITY = """
SELECT l.l_orderkey,
       SUM(CAST(FLOOR(l.l_extendedprice*(1-l.l_discount)*100 + 0.5)
                AS BIGINT))::BIGINT AS revenue_cents
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE c.c_mktsegment = 'BUILDING'
  AND o.o_orderdate < TIMESTAMP '1997-06-01'
  AND l.l_shipdate > TIMESTAMP '1997-06-01'
GROUP BY l.l_orderkey
ORDER BY revenue_cents DESC, l.l_orderkey LIMIT 10
"""


def q_distinct_users_by_type(sf_dir):
    """Per-group KMV distinct-count sketch: estimated distinct users per
    event type (exact below k=256 per group, as on the fixture) —
    deterministic md5 hashing, bit-reproducible and SQL-mirrored.
    stages/dataops.py:kmv_distinct_by_group."""

    from .stages.dataops import kmv_distinct_by_group

    ev = cached_read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )
    return kmv_distinct_by_group(
        ev, group_col="event_type", col="user_id"
    )


SQL_DISTINCT_USERS_BY_TYPE = """
WITH h AS (
  SELECT DISTINCT event_type,
         md5_number_lower(CAST(user_id AS VARCHAR)) AS hv
  FROM events
), ranked AS (
  SELECT event_type, hv,
         row_number() OVER (PARTITION BY event_type ORDER BY hv) AS rn,
         count(*) OVER (PARTITION BY event_type) AS c
  FROM h
)
SELECT event_type,
  CASE WHEN max(c) < 256 THEN max(c)::BIGINT
  ELSE CAST(LEAST(
    255 * CAST('18446744073709551616' AS HUGEINT)
        // CAST(max(CASE WHEN rn = 256 THEN hv END) AS HUGEINT),
    CAST('9223372036854775807' AS HUGEINT)) AS BIGINT)
  END AS n_distinct_est
FROM ranked GROUP BY event_type
"""


def q_event_type_cooccurrence(sf_dir):
    """Co-occurrence matrix over user behavior: for every unordered pair
    of event types, how many users did both. ONE ``exchange`` on
    user_id; per part a vectorized distinct + in-memory pair expansion
    (pair domain is types², bounded); final aggregate over ≤ C(T,2)
    groups."""
    from ray.data.aggregate import Sum

    ev = cached_read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )

    def distinct(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.drop_duplicates(["user_id", "event_type"])

    def pair_counts(group: pd.DataFrame) -> pd.DataFrame:
        from collections import Counter
        from itertools import combinations

        g = group.drop_duplicates(["user_id", "event_type"]).sort_values(
            ["user_id", "event_type"]
        )
        counts: Counter = Counter()
        for _, grp in g.groupby("user_id", sort=False):
            for a, b in combinations(grp["event_type"], 2):
                counts[(a, b)] += 1
        ks = sorted(counts)
        return pd.DataFrame(
            {
                "type_a": [k[0] for k in ks],
                "type_b": [k[1] for k in ks],
                "n_users": [counts[k] for k in ks],
            }
        )

    return (
        exchange(
            ev.map_batches(distinct, batch_format="pandas", batch_size=65536),
            "user_id", pair_counts,
        )
        .groupby(["type_a", "type_b"])
        .aggregate(Sum("n_users", alias_name="n_users"))
    )


SQL_EVENT_TYPE_COOCCURRENCE = """
WITH ut AS (SELECT DISTINCT user_id, event_type FROM events)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       count(*)::BIGINT AS n_users
FROM ut a JOIN ut b
  ON a.user_id = b.user_id AND a.event_type < b.event_type
GROUP BY 1, 2
"""


def q_normalized_dedup_docs(sf_dir):
    """Fuzzy-exact dedup: dedup groups keyed on the NORMALIZED text
    (lowercase, whitespace collapsed to single spaces, trimmed) — the
    standard curation step between byte-exact and near-dup removal.
    Same coarse-partition shape as exact dedup; ASCII-equivalent
    normalization on both sides (Python ``' '.join(lower().split())``
    == the oracle's ``regexp_replace(lower(trim(..)), '\\s+', ' ')``
    for this corpus's ASCII whitespace)."""
    from .stages.dataops import exact_dedup_groups

    def normalize(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "norm_text": pa.array(
                    [
                        " ".join(t.lower().split())
                        for t in batch.column("text").to_pylist()
                    ],
                    pa.string(),
                ),
            }
        )

    norm = _docs(sf_dir, num_blocks=_read_blocks()).map_batches(
        normalize, batch_format="pyarrow"
    )
    return exact_dedup_groups(norm, text_col="norm_text")


SQL_NORMALIZED_DEDUP_DOCS = """
SELECT sha256(regexp_replace(lower(trim(text)), '\\s+', ' ', 'g'))
         AS content_sha256,
       min(doc_id)::BIGINT AS keeper_id,
       count(*)::BIGINT AS n_docs
FROM documents GROUP BY 1
"""


def q_quality_buckets(sf_dir):
    """CCNet-style per-language quality tiers (head/middle/tail by
    stopword-ratio quartiles within each language) — bounded-domain
    histogram thresholds + a stateless tagging pass, never a per-group
    value shuffle. stages/dataops.py:quality_buckets."""
    from .stages.dataops import quality_buckets

    return quality_buckets(_docs(sf_dir, num_blocks=_read_blocks()))


SQL_QUALITY_BUCKETS = """
WITH s AS (
  SELECT doc_id, lang,
         ((1000 * len(list_filter(regexp_split_to_array(trim(text), ' +'),
             x -> lower(x) IN ('the','a','an','and','of','to','in','is','on','for'))))
           // len(regexp_split_to_array(trim(text), ' +')))::BIGINT
           AS stopword_permille
  FROM documents
), t AS (
  SELECT lang,
         (percentile_disc(0.25) WITHIN GROUP
            (ORDER BY stopword_permille))::BIGINT AS t_low,
         (percentile_disc(0.75) WITHIN GROUP
            (ORDER BY stopword_permille))::BIGINT AS t_high
  FROM s GROUP BY lang
)
SELECT s.doc_id, s.lang, s.stopword_permille,
       CASE WHEN s.stopword_permille >= t.t_high THEN 'head'
            WHEN s.stopword_permille >= t.t_low THEN 'middle'
            ELSE 'tail' END AS bucket
FROM s JOIN t USING (lang)
"""


def q_kmeans_clusters(sf_dir):
    """Lloyd's k-means over the embeddings table in exact integer
    arithmetic — bit-identical under any batching or cluster size.
    That exactness is what makes the ITERATIVE algorithm fully
    SQL-oracleable: the oracle unrolls the Lloyd rounds as chained
    CTEs (_sql_kmeans_ctes) and value-hash-matches; a differential
    test vs the single-array numpy mirror also runs
    (tests/test_dataops.py). stages/dataops.py:kmeans_embeddings."""

    from .stages.dataops import kmeans_embeddings

    emb = cached_read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).materialize()  # multi-round loop: pin blocks once (kmeans docstring)
    return kmeans_embeddings(emb, k=8, iters=5)


def q_hard_negatives(sf_dir):
    """Contrastive hard-negative mining: the 10 vectors most similar to
    the probe query that sit OUTSIDE the k-means cluster of the probe's
    nearest neighbor — near-but-semantically-different examples, the
    standard negatives for embedding-model training. Composes the
    exact-integer k-means labeling with the brute-force cosine ranker;
    the cluster labels attach to the embeddings via the empty-safe
    equi_join co-group (labels are corpus-sized — never broadcast)."""

    from .stages.dataops import ann_topk, kmeans_embeddings
    from .stages.joins import equi_join

    emb = cached_read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).materialize()  # three passes (k-means rounds, top-1, rank)
    q = ann_query_vector()

    labels = kmeans_embeddings(emb, k=8, iters=5).map_batches(
        lambda b: pa.table(
            {"lbl_id": b.column("vec_id"), "cluster": b.column("cluster")}
        ),
        batch_format="pyarrow",
    )
    top1 = ann_topk(emb, q, k=1).take_all()[0]["vec_id"]
    c_star = labels.filter(expr=f"lbl_id == {int(top1)}").take_all()[0][
        "cluster"
    ]

    tagged = equi_join(emb, labels, on="vec_id", right_on="lbl_id")
    negatives = tagged.filter(
        expr=f"cluster != {int(c_star)}"
    )
    top = ann_topk(negatives, q, k=_ANN_K)

    def add_rank(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "rank": pa.array(
                    np.arange(1, batch.num_rows + 1), pa.int64()
                ),
                "vec_id": batch.column("vec_id"),
            }
        )

    return top.repartition(1).map_batches(add_rank, batch_format="pyarrow")


def _sql_hard_negatives() -> str:
    vec = ", ".join(f"{x:.4f}" for x in ann_query_vector())
    return (
        "WITH " + _sql_kmeans_ctes(8, 5)
        + f""",
sims AS (
  SELECT vec_id,
         list_cosine_similarity(embedding::DOUBLE[], [{vec}]) AS cosine
  FROM embeddings
),
top1 AS (
  SELECT a.cluster
  FROM sims s JOIN af a ON a.vec_id = s.vec_id
  ORDER BY s.cosine DESC, s.vec_id LIMIT 1
)
SELECT ROW_NUMBER() OVER (ORDER BY s.cosine DESC, s.vec_id) AS rank,
       s.vec_id
FROM sims s JOIN af a ON a.vec_id = s.vec_id
WHERE a.cluster != (SELECT cluster FROM top1)
ORDER BY s.cosine DESC, s.vec_id LIMIT {_ANN_K}
"""
    )


def q_doc_chunks(sf_dir):
    """Fixed-length training-sequence chunking (32-token windows,
    remainder kept, whitespace tokens) — a stateless flat map with no
    cross-doc state. stages/dataops.py:chunk_documents."""
    from .stages.dataops import chunk_documents

    return chunk_documents(
        _docs(sf_dir, num_blocks=_read_blocks()), seq_len=32
    )


SQL_DOC_CHUNKS = """
WITH w AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN []::VARCHAR[]
              ELSE regexp_split_to_array(trim(text), '\\s+') END AS words
  FROM documents
), c AS (
  SELECT doc_id, words,
         unnest(range(0, CAST(ceil(len(words) / 32.0) AS BIGINT)))
           AS chunk_id
  FROM w
)
SELECT doc_id, chunk_id::BIGINT AS chunk_id,
       least(32, len(words) - chunk_id * 32)::BIGINT AS n_tokens,
       array_to_string(
         words[(chunk_id * 32 + 1):least(len(words), (chunk_id + 1) * 32)],
         ' ') AS chunk_text
FROM c
"""


def q_semantic_dedup(sf_dir):
    """SemDeDup: k-means-partitioned embedding near-dup removal —
    quadratic cosine work confined to within-cluster blocks, one
    groupby exchange. Fully SQL-oracled: unrolled integer k-means CTEs
    + DuckDB list_cosine_similarity at the centi threshold reproduce
    the survivors bit-for-bit; the numpy-mirror differential test also
    runs (tests/test_dataops.py). stages/dataops.py:semantic_dedup.

    threshold=0.3 (not the paper's ~0.9+): the fixture embeddings are
    random vectors whose cosines concentrate near 0, so a production
    threshold would drop nothing and the gate would never exercise the
    drop path — 0.3 yields 276 survivors of 500 and value-hashes the
    actual dedup behavior."""

    from .stages.dataops import semantic_dedup

    emb = cached_read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).materialize()  # per kmeans docstring: multi-round loop over the
    # same (column-pruned) input — pin blocks in the object store once
    # instead of re-scanning storage every Lloyd round
    return semantic_dedup(emb, k=8, iters=3, threshold=0.3)


def q_bpe_merges(sf_dir):
    """Distributed BPE tokenizer training over the documents table —
    pair statistics on the frequency-weighted distinct-word vocab,
    coarse-partitioned pair argmax per round. Iterative ⇒ rows-only
    driver check plus a differential test vs the single-process
    mirror. stages/dataops.py:bpe_train."""
    from .stages.dataops import bpe_train

    return bpe_train(
        _docs(sf_dir, num_blocks=_read_blocks()), num_merges=12
    )


def q_bpe_token_counts(sf_dir):
    """Train 12 BPE merges on the corpus, then tokenize the same corpus
    with them and count tokens per doc — the full tokenizer
    train→apply loop. stages/dataops.py:bpe_token_counts."""
    from .stages.dataops import bpe_token_counts, bpe_train

    docs = _docs(sf_dir, num_blocks=_read_blocks())
    merges = bpe_train(docs, num_merges=12)
    return bpe_token_counts(docs, merges)


def q_jaccard_join_exact(sf_dir):
    """EXACT set-similarity self-join (PPJoin prefix filtering): ALL
    document pairs with distinct-word Jaccard ≥ 0.5, no LSH recall
    loss — gated against the exhaustive SQL join.
    stages/dataops.py:jaccard_join_exact."""
    from .stages.dataops import jaccard_join_exact

    return jaccard_join_exact(
        _docs(sf_dir, num_blocks=_read_blocks()), threshold=0.5
    )


SQL_JACCARD_JOIN_EXACT = f"""
WITH tok AS (
  SELECT doc_id, unnest(list_distinct({_SQL_WORDS})) AS word
  FROM documents
), sz AS (
  SELECT doc_id, count(*) AS s FROM tok GROUP BY 1
), inter AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS i
  FROM tok a JOIN tok b ON a.word = b.word AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT id_a, id_b,
       (1000 * i // (sa.s + sb.s - i))::BIGINT AS jaccard_permille
FROM inter
JOIN sz sa ON sa.doc_id = id_a
JOIN sz sb ON sb.doc_id = id_b
WHERE 1000 * i // (sa.s + sb.s - i) >= 500
"""


def q_communities(sf_dir):
    """Deterministic synchronous label propagation (3 rounds) over the
    flagship edge graph — most-frequent-neighbor-label update with a
    total-order tie-break so the unrolled-CTE DuckDB oracle mirrors it
    bit-for-bit. stages/graph_algos.py:label_propagation_join."""
    from .stages.graph_algos import label_propagation_join

    edges = _shared_graph_edges(sf_dir)
    return label_propagation_join(edges, iterations=3)


def _sql_communities() -> str:
    from . import oracles

    return oracles.sql_label_propagation(iterations=3)


def q_edge_provenance(sf_dir):
    """Per-edge lineage: witness count + first-3 sorted
    repo:path:sent_id refs per (src, rel, dst) over the UNDEDUPED edge
    table — bounded output per edge however hot the edge.
    stages/graph.py:edge_provenance."""
    from .pipelines.flagship import build_graph
    from .stages.graph import edge_provenance

    _, edges = build_graph(
        _shared_triples(sf_dir), deduped=False
    )
    return edge_provenance(edges, k=3)


def _sql_edge_provenance() -> str:
    from . import oracles

    return oracles.sql_edge_provenance(k=3)


def q_kg_snapshot_diff(sf_dir):
    """Incremental KG maintenance: diff the deduped edge snapshot built
    from HALF the corpus (even last commit hex digit) against the full
    corpus's — which edges the other half adds or rescores. One
    co-partitioned exchange. stages/graph.py:kg_snapshot_diff."""
    from .pipelines.flagship import build_graph
    from .stages.graph import kg_snapshot_diff

    def even_edges():
        def keep_even(batch: pa.Table) -> pa.Table:
            mask = [
                c[-1] in "02468ace"
                for c in batch.column("commit").to_pylist()
            ]
            return batch.filter(pa.array(mask, pa.bool_()))

        triples = _shared_triples(sf_dir).map_batches(
            keep_even, batch_format="pyarrow"
        )
        _, edges = build_graph(triples)
        return _conf_to_centi(edges).select_columns(
            ["src", "rel", "dst", "conf_centi"]
        )

    def full_edges():
        edges = _shared_graph_edges(sf_dir)
        return _conf_to_centi(edges).select_columns(
            ["src", "rel", "dst", "conf_centi"]
        )

    return kg_snapshot_diff(even_edges(), full_edges())


def _sql_kg_snapshot_diff() -> str:
    from . import oracles

    return oracles.sql_kg_snapshot_diff()


def q_kcore(sf_dir):
    """Fixed-round 2-core peel (5 rounds) of the order–supplier
    bipartite graph — the flagship KG is tree-like (its 2-core peels
    to empty by round 2 at sf0.01; literal-graph tests cover that
    family), while this graph keeps a 10k+-node core. Two coarse
    co-group exchanges per round, no native joins.
    stages/graph_algos.py:kcore_join."""

    from .stages.graph_algos import kcore_join

    li = cached_read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey"],
    )

    def to_edges(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": pa.array(
                    [f"o{x}" for x in
                     batch.column("l_orderkey").to_pylist()],
                    pa.string(),
                ),
                "dst": pa.array(
                    [f"s{x}" for x in
                     batch.column("l_suppkey").to_pylist()],
                    pa.string(),
                ),
            }
        )

    return kcore_join(
        li.map_batches(to_edges, batch_format="pyarrow"), k=2, rounds=5
    )


def _sql_kcore() -> str:
    from . import oracles

    return oracles.sql_kcore(
        k=2, rounds=5,
        edges_sql=(
            "SELECT 'o' || l_orderkey AS src, 's' || l_suppkey AS dst "
            "FROM lineitem"
        ),
    )


def q_supplier_name_pairs(sf_dir):
    """Entity-resolution blocking: all supplier-name pairs within edit
    distance 1 via FastSS deletion neighborhoods — O(N·len) blocking
    keys, never the O(N²) cross product the oracle runs.
    stages/dataops.py:edit_distance_join."""

    from .stages.dataops import edit_distance_join

    sup = cached_read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_name"]
    )
    return edit_distance_join(sup, col="s_name")


SQL_SUPPLIER_NAME_PAIRS = """
WITH s AS (SELECT DISTINCT s_name FROM supplier)
SELECT a.s_name AS id_a, b.s_name AS id_b,
       levenshtein(a.s_name, b.s_name)::BIGINT AS dist
FROM s a JOIN s b ON a.s_name < b.s_name
WHERE levenshtein(a.s_name, b.s_name) <= 1
"""


def q_canonical_suppliers(sf_dir):
    """Entity resolution end-to-end: supplier names → edit-distance≤1
    pairs (FastSS blocking) → connected components (labels-as-a-Dataset
    min-label fixpoint) → canonical name per cluster, singletons mapping
    to themselves. The union-with-self-labels min makes the composition
    empty-safe (no-pairs inputs never hit a zero-row join)."""
    from .stages.dataops import edit_distance_join
    from .stages.graph_algos import connected_components_join

    sup = cached_read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_name"]
    )
    pairs = edit_distance_join(sup, col="s_name").map_batches(
        lambda t: pa.table(
            {
                "src": t.column("id_a").cast(pa.string()),
                "dst": t.column("id_b").cast(pa.string()),
            }
        ),
        batch_format="pyarrow",
    )
    cc = connected_components_join(pairs)

    def self_labels(batch: pa.Table) -> pa.Table:
        names = sorted(set(batch.column("s_name").to_pylist()))
        return pa.table(
            {
                "node_id": pa.array(names, pa.string()),
                "component": pa.array(names, pa.string()),
            }
        )

    def min_label(g: pa.Table) -> pa.Table:
        # Arrow hash aggregate: NUL-safe, and its string min (utf-8 byte
        # order = code-point order) runs without a Python call per name
        out = g.group_by("node_id", use_threads=False).aggregate(
            [("component", "min")]
        )
        return out.select(["node_id", "component_min"]).rename_columns(
            ["s_name", "canonical"]
        )

    return exchange(
        [sup.map_batches(self_labels, batch_format="pyarrow"), cc],
        "node_id", min_label, batch_format="pyarrow",
    )


SQL_CANONICAL_SUPPLIERS = """
WITH RECURSIVE s AS (SELECT DISTINCT s_name FROM supplier),
pairs AS (
  SELECT a.s_name AS ia, b.s_name AS ib
  FROM s a JOIN s b
    ON a.s_name < b.s_name AND levenshtein(a.s_name, b.s_name) <= 1
),
adj AS (
  SELECT ia AS node_id, ib AS nbr FROM pairs
  UNION
  SELECT ib, ia FROM pairs
),
reach AS (
  SELECT s_name AS node_id, s_name AS label FROM s
  UNION
  SELECT a.node_id, r.label FROM adj a JOIN reach r ON a.nbr = r.node_id
)
SELECT node_id AS s_name, MIN(label) AS canonical
FROM reach
GROUP BY node_id
"""


def q_dataset_splits(sf_dir):
    """Deterministic train/val/test assignment (5%/5%/90%) by the
    content-addressed md5 rule — cluster-size/retry/resume-invariant.
    stages/dataops.py:dataset_splits."""

    from .stages.dataops import dataset_splits

    docs = cached_read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    return dataset_splits(docs, val_permille=50, test_permille=50)


SQL_DATASET_SPLITS = """
SELECT doc_id, lang,
       CASE WHEN md5_number_lower('split|' || CAST(doc_id AS VARCHAR))
                 % 1000 < 50 THEN 'val'
            WHEN md5_number_lower('split|' || CAST(doc_id AS VARCHAR))
                 % 1000 < 100 THEN 'test'
            ELSE 'train' END AS split
FROM documents
"""


def q_decontaminated_docs(sf_dir):
    """Benchmark decontamination: training docs (the md5-rule 'train'
    split) sharing any word 5-gram with the held-out 'test' split —
    benchmark grams broadcast once, training side one stateless pass.
    stages/dataops.py:decontaminate."""

    from .stages.dataops import dataset_splits, decontaminate

    import pyarrow.compute as pc

    def side(name):
        docs = cached_read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        )
        split = dataset_splits(docs, val_permille=50, test_permille=50)
        return split.map_batches(
            lambda b, _n=name: b.filter(
                pc.equal(b.column("split"), _n)
            ).select(["doc_id", "text"]),
            batch_format="pyarrow",
        )

    return decontaminate(side("train"), side("test"), n=5)


def q_retention_cohorts(sf_dir):
    """Cohort retention: users grouped by first-seen day, counted at
    each day offset they return — the standard growth-analytics rollup.

    Shape: per-batch DISTINCT (user, day) partial → ``exchange`` on the
    user (a user's whole history lands in ONE part, so first-day
    and offsets are computable in-kernel with vectorized pandas — never
    one Ray group per user) → tiny (cohort_day, offset) sum."""
    ev = cached_read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id"]
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        ts_ns = batch["ts"].astype("datetime64[ns]").astype("int64")
        return pd.DataFrame(
            {
                "user_id": batch["user_id"],
                "day": ts_ns // (86400 * 10**9),
            }
        ).drop_duplicates()

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "day"])
        g = g.assign(
            cohort_day=g.groupby("user_id")["day"].transform("min")
        )
        g["offset_days"] = g["day"] - g["cohort_day"]
        out = g.groupby(
            ["cohort_day", "offset_days"], as_index=False
        ).agg(n_users=("user_id", "size"))
        return out.astype(
            {
                "cohort_day": "int64",
                "offset_days": "int64",
                "n_users": "int64",
            }
        )

    from ray.data.aggregate import Sum

    return (
        exchange(
            ev.map_batches(partial, batch_format="pandas", batch_size=65536),
            "user_id", per_part,
        )
        .groupby(["cohort_day", "offset_days"])
        .aggregate(Sum("n_users", alias_name="n_users"))
    )


def q_source_overlap(sf_dir):
    """Cross-source contamination audit: for every pair of sources, how
    many DISTINCT winnowing fingerprints (shared ≥8-word runs, the MOSS
    signal already used by duplicate_spans) appear in both — the
    standard fuzzy pre-mixing check before combining crawls/dumps.

    Shape: per-batch distinct (fingerprint, source) partial →
    ``exchange`` on the fingerprint (every holder of one fingerprint
    lands in one part) → per-part source-pair expansion with pre-summed
    counts →
    tiny (source_a, source_b) sum. Source cardinality is small by
    nature; fingerprints never leave the workers."""
    from ray.data.aggregate import Sum

    from .functions.textstats import winnow_fingerprints

    docs = cached_read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text", "source"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        pairs = set()
        for s, t in zip(
            batch.column("source").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            for f in winnow_fingerprints(t, 4, 5):
                pairs.add((f, s))
        ps = sorted(pairs)
        return pa.table(
            {
                "fp": pa.array([p[0] for p in ps], pa.int64()),
                "source": pa.array([p[1] for p in ps], pa.string()),
            }
        )

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        import itertools

        g = g.drop_duplicates(["fp", "source"])
        rows: list = []
        for _, grp in g.groupby("fp", sort=False):
            ss = sorted(grp["source"])
            rows.extend(itertools.combinations(ss, 2))
        if not rows:
            return pd.DataFrame(
                {
                    "source_a": pd.Series([], dtype="object"),
                    "source_b": pd.Series([], dtype="object"),
                    "n_shared": pd.Series([], dtype="int64"),
                }
            )
        out = pd.DataFrame(rows, columns=["source_a", "source_b"])
        return out.groupby(
            ["source_a", "source_b"], as_index=False
        ).agg(n_shared=("source_a", "size")).astype({"n_shared": "int64"})

    return (
        exchange(docs, "fp", per_part, combine=partial)
        .groupby(["source_a", "source_b"])
        .aggregate(Sum("n_shared", alias_name="n_shared"))
    )


def _sql_source_overlap() -> str:
    # the winnow CTE keyed by source instead of doc_id (one fp_list row
    # per document either way; the outer DISTINCT collapses per source)
    fp_by_source = SQL_WINNOW_FINGERPRINTS.replace("doc_id", "source")
    return f"""
WITH sf AS (
  SELECT DISTINCT source, fingerprint FROM (
{fp_by_source}
  )
)
SELECT a.source AS source_a, b.source AS source_b,
       COUNT(*)::BIGINT AS n_shared
FROM sf a JOIN sf b
  ON a.fingerprint = b.fingerprint AND a.source < b.source
GROUP BY 1, 2
"""


def q_event_type_runs(sf_dir):
    """SCD2-style interval construction: collapse each user's event
    stream into maximal runs of consecutive equal event_type, with the
    run's [start, end] timestamps and event count — the
    change-data-capture compaction shape.

    Shape: ``exchange`` on the user (a user's whole ordered history
    in ONE part) → per-part vectorized sort + shift change-point
    detection + run groupby. Output rows ≤ input rows; no second
    shuffle."""
    ev = cached_read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["ts", "user_id", "event_type", "event_id"],
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": batch["user_id"],
                "event_type": batch["event_type"],
                "t": batch["ts"].astype("datetime64[ns]").astype("int64")
                // 1000,
                "event_id": batch["event_id"],
            }
        )

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["user_id", "t", "event_id"], kind="mergesort"
        ).reset_index(drop=True)
        new_run = (g["user_id"] != g["user_id"].shift()) | (
            g["event_type"] != g["event_type"].shift()
        )
        g["run_id"] = new_run.cumsum()
        out = g.groupby("run_id", as_index=False).agg(
            user_id=("user_id", "first"),
            event_type=("event_type", "first"),
            run_start_us=("t", "min"),
            run_end_us=("t", "max"),
            n_events=("t", "size"),
        )
        return out.drop(columns=["run_id"]).astype(
            {
                "user_id": "int64",
                "run_start_us": "int64",
                "run_end_us": "int64",
                "n_events": "int64",
            }
        )

    return exchange(
        ev.map_batches(partial, batch_format="pandas", batch_size=65536),
        "user_id", per_part,
    )


def q_props_stats(sf_dir):
    """Semi-structured flattening: parse the events.props JSON column,
    extract the integer field ``k``, aggregate per event_type — the
    ETL shape for log/telemetry payloads. Per-batch vectorized
    ``json.loads`` partial (exact int64 sums/mins/maxes) → tiny
    per-type merge; raw JSON never shuffles."""
    import json as _json

    from ray.data.aggregate import Max, Min, Sum

    ev = cached_read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "props"]
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        ks = [int(_json.loads(p)["k"]) for p in batch["props"]]
        g = pd.DataFrame(
            {"event_type": batch["event_type"], "k": ks}
        ).groupby("event_type", as_index=False).agg(
            n_events=("k", "size"),
            sum_k=("k", "sum"),
            min_k=("k", "min"),
            max_k=("k", "max"),
        )
        return g.astype(
            {
                "n_events": "int64",
                "sum_k": "int64",
                "min_k": "int64",
                "max_k": "int64",
            }
        )

    return (
        ev.map_batches(partial, batch_format="pandas", batch_size=65536)
        .groupby("event_type")
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("sum_k", alias_name="sum_k"),
            Min("min_k", alias_name="min_k"),
            Max("max_k", alias_name="max_k"),
        )
    )


SQL_PROPS_STATS = """
SELECT event_type,
       COUNT(*)::BIGINT AS n_events,
       SUM(json_extract(props, '$.k')::BIGINT)::BIGINT AS sum_k,
       MIN(json_extract(props, '$.k')::BIGINT)::BIGINT AS min_k,
       MAX(json_extract(props, '$.k')::BIGINT)::BIGINT AS max_k
FROM events
GROUP BY event_type
"""


SQL_EVENT_TYPE_RUNS = """
WITH e AS (
  SELECT user_id, event_type, epoch_us(ts) AS t, event_id FROM events
),
m AS (
  SELECT *,
         CASE WHEN lag(event_type) OVER w IS DISTINCT FROM event_type
              THEN 1 ELSE 0 END AS new_run
  FROM e
  WINDOW w AS (PARTITION BY user_id ORDER BY t, event_id)
),
r AS (
  SELECT *,
         SUM(new_run) OVER (
           PARTITION BY user_id ORDER BY t, event_id
           ROWS UNBOUNDED PRECEDING
         ) AS run_id
  FROM m
)
SELECT user_id, event_type,
       MIN(t)::BIGINT AS run_start_us,
       MAX(t)::BIGINT AS run_end_us,
       COUNT(*)::BIGINT AS n_events
FROM r
GROUP BY user_id, event_type, run_id
"""


def q_term_pairs(sf_dir):
    """Word-association mining: top-50 co-occurring pairs among the 40
    highest-df terms — raw integer counts (n_both, n_a, n_b) so any
    association measure (PMI, lift) derives exactly.
    stages/dataops.py:term_cooccurrence_topk."""

    from .stages.dataops import term_cooccurrence_topk

    docs = cached_read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return term_cooccurrence_topk(docs, vocab_size=40, k=50)


def q_doc_sample_weighted(sf_dir):
    """Length-weighted deterministic sampling: keep each doc with
    probability n_chars/2000 (long docs upweighted), content-addressed
    so the sample is cluster-size/retry/resume-invariant.
    stages/dataops.py:weighted_sample."""

    from .stages.dataops import weighted_sample

    docs = cached_read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "n_chars"],
    )
    return weighted_sample(docs, weight_col="n_chars", max_weight=2000)


def q_doc_sample_exact_k(sf_dir):
    """Exactly-k-per-language deterministic sample (fixed-size eval
    subsets): the k smallest md5(salt|id) per stratum — guaranteed size,
    content-addressed invariance. stages/dataops.py:exact_k_sample."""

    from .stages.dataops import exact_k_sample

    docs = cached_read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    return exact_k_sample(docs, k=20, strat_col="lang")


SQL_DOC_SAMPLE_EXACT_K = """
SELECT doc_id, lang FROM (
  SELECT doc_id, lang,
         row_number() OVER (
           PARTITION BY lang
           ORDER BY md5_number_lower('ksamp|' || CAST(doc_id AS VARCHAR)),
                    doc_id
         ) AS r
  FROM documents
) WHERE r <= 20
"""


SQL_DOC_SAMPLE_WEIGHTED = """
SELECT doc_id, lang, n_chars
FROM documents
WHERE md5_number_lower('wsamp|' || CAST(doc_id AS VARCHAR)) % 2000
      < n_chars
"""


def q_packed_sequences(sf_dir):
    """Training-sequence packing: docs laid end-to-end in doc_id order,
    cut into 128-token bins — a distributed exclusive prefix sum
    (bucket partials → driver bucket offsets → per-bucket cumsum).
    stages/dataops.py:pack_sequences."""

    from .stages.dataops import pack_sequences

    docs = cached_read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return pack_sequences(docs, seq_len=128, bucket_size=64)


SQL_PACKED_SEQUENCES = """
WITH tc AS (
  SELECT doc_id,
         len(regexp_split_to_array(trim(text), ' +'))::BIGINT AS n_tokens
  FROM documents
),
pre AS (
  SELECT doc_id, n_tokens,
         COALESCE(SUM(n_tokens) OVER (
           ORDER BY doc_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
         ), 0) AS start
  FROM tc
)
SELECT doc_id, n_tokens,
       (start // 128)::BIGINT AS bin_id,
       (start % 128)::BIGINT AS bin_offset
FROM pre
"""


SQL_TERM_PAIRS = """
WITH toks AS (
  SELECT DISTINCT doc_id, tok FROM (
    SELECT doc_id,
           unnest(list_filter(string_split_regex(lower(text), '\\s+'),
                              x -> x <> '')) AS tok
    FROM documents
  )
),
df AS (SELECT tok, COUNT(*)::BIGINT AS df FROM toks GROUP BY tok),
topv AS (SELECT tok, df FROM df ORDER BY df DESC, tok LIMIT 40),
dt AS (SELECT t.doc_id, t.tok FROM toks t JOIN topv USING (tok)),
pairs AS (
  SELECT x.tok AS term_a, y.tok AS term_b, COUNT(*)::BIGINT AS n_both
  FROM dt x JOIN dt y ON x.doc_id = y.doc_id AND x.tok < y.tok
  GROUP BY 1, 2
)
SELECT term_a, term_b, n_both, da.df AS n_a, db.df AS n_b
FROM pairs
JOIN topv da ON da.tok = term_a
JOIN topv db ON db.tok = term_b
ORDER BY n_both DESC, term_a, term_b
LIMIT 50
"""


SQL_RETENTION_COHORTS = """
WITH ud AS (
  SELECT DISTINCT user_id, epoch_ms(ts) // 86400000 AS day FROM events
),
fs AS (
  SELECT user_id, MIN(day) AS cohort_day FROM ud GROUP BY user_id
)
SELECT f.cohort_day::BIGINT AS cohort_day,
       (u.day - f.cohort_day)::BIGINT AS offset_days,
       COUNT(*)::BIGINT AS n_users
FROM ud u JOIN fs f USING (user_id)
GROUP BY 1, 2
"""


def q_bm25_topk(sf_dir):
    """BM25 top-10 for a fixed 3-term query: combiner-shaped stats pass
    (one row per batch) → broadcast constants → per-batch partial top-k
    → tiny merge. stages/dataops.py:bm25_topk."""

    from .stages.dataops import bm25_topk

    docs = cached_read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return bm25_topk(docs, ["spark", "join", "window"], k=10)


SQL_BM25_TOPK = """
WITH toks AS (
  SELECT doc_id,
         unnest(list_filter(string_split_regex(lower(text), '\\s+'),
                            x -> x <> '')) AS tok
  FROM documents
),
dl AS (SELECT doc_id, COUNT(*) AS dl FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT COUNT(*) FROM documents) AS n,
         SUM(dl)::DOUBLE / (SELECT COUNT(*) FROM documents) AS avgdl
  FROM dl
),
q(term) AS (SELECT * FROM (VALUES ('spark'), ('join'), ('window'))),
tf AS (
  SELECT doc_id, tok AS term, COUNT(*) AS tf
  FROM toks JOIN q ON tok = q.term GROUP BY 1, 2
),
df AS (SELECT term, COUNT(DISTINCT doc_id) AS df FROM tf GROUP BY term),
scores AS (
  SELECT tf.doc_id,
         SUM(ln((s.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
             * tf.tf * (1.2 + 1.0)
             / (tf.tf + 1.2 * (1.0 - 0.75 + 0.75 * dl.dl / s.avgdl))
         ) AS score
  FROM tf
  JOIN df USING (term)
  JOIN dl USING (doc_id)
  CROSS JOIN stats s
  GROUP BY tf.doc_id
)
SELECT doc_id, FLOOR(score * 100 + 0.5)::BIGINT AS score_cents
FROM scores
ORDER BY score DESC, doc_id
LIMIT 10
"""


SQL_DECONTAMINATED_DOCS = """
WITH sp AS (
  SELECT doc_id, text,
         md5_number_lower('split|' || CAST(doc_id AS VARCHAR)) % 1000 AS b
  FROM documents
),
toks AS (
  SELECT doc_id, b,
         list_filter(string_split_regex(lower(text), '\\s+'),
                     x -> x <> '') AS w
  FROM sp WHERE b >= 50
),
grams AS (
  SELECT doc_id, b, array_to_string(w[i : i + 4], ' ') AS gram
  FROM (SELECT doc_id, b, w,
               unnest(range(1, len(w) - 5 + 2)) AS i
        FROM toks)
),
bench AS (SELECT DISTINCT gram FROM grams WHERE b < 100),
train AS (SELECT doc_id, gram FROM grams WHERE b >= 100)
SELECT t.doc_id, COUNT(DISTINCT t.gram)::BIGINT AS n_matched
FROM train t JOIN bench USING (gram)
GROUP BY t.doc_id
"""


def q_training_order(sf_dir):
    """Seeded global shuffle rank (training-data epoch ordering):
    shuffle_pos = ROW_NUMBER over (md5(salt|doc_id), doc_id), computed
    WITHOUT a global sort — the hash's top bits bucket the order and a
    distributed exclusive prefix sum ranks within buckets.
    stages/dataops.py:training_order."""

    from .stages.dataops import training_order

    docs = cached_read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )
    return training_order(docs, salt="shuffle", bucket_bits=10)


SQL_TRAINING_ORDER = """
SELECT doc_id,
       (ROW_NUMBER() OVER (
          ORDER BY md5_number_lower('shuffle|' || CAST(doc_id AS VARCHAR)),
                   doc_id
        ) - 1)::BIGINT AS shuffle_pos
FROM documents
"""


def q_ngram_counts(sf_dir):
    """Corpus word-trigram count table, count >= 3 (count-based LM /
    contamination-screen raw material). Combiner → ``exchange`` on the
    n-gram → in-part threshold: sub-threshold singletons die inside
    their partition. stages/dataops.py:ngram_counts."""

    from .stages.dataops import ngram_counts

    docs = cached_read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text"]
    )
    return ngram_counts(docs, n=3, min_count=3)


SQL_NGRAM_COUNTS = """
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[\\t\\n\\f\\r ]+'),
                     x -> x <> '') AS w
  FROM documents
),
grams AS (
  SELECT array_to_string(w[i : i + 2], ' ') AS ngram
  FROM (SELECT w, unnest(range(1, len(w) - 3 + 2)) AS i FROM toks)
)
SELECT ngram, COUNT(*)::BIGINT AS n_occurrences
FROM grams
GROUP BY ngram
HAVING COUNT(*) >= 3
"""


def q_novelty_scores(sf_dir):
    """Per-doc 3-gram novelty in basis points: the fraction of a doc's
    distinct grams globally first seen (min doc_id) in that doc —
    boilerplate/near-dup docs score low. Join-free gram-partitioned
    groupby-transform (stages/dataops.py:novelty_scores)."""
    from .stages.dataops import novelty_scores

    return novelty_scores(_docs(sf_dir, num_blocks=_read_blocks()))


SQL_NOVELTY_SCORES = """
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[\\t\\n\\f\\r ]+'),
                     x -> x <> '') AS w
  FROM documents
),
grams AS (
  SELECT DISTINCT doc_id, array_to_string(w[i : i + 2], ' ') AS gram
  FROM (SELECT doc_id, w, unnest(range(1, len(w) - 3 + 2)) AS i
        FROM toks)
),
firsts AS (SELECT gram, MIN(doc_id) AS first_doc FROM grams GROUP BY gram)
SELECT g.doc_id,
       ((10000 * SUM(CASE WHEN f.first_doc = g.doc_id THEN 1 ELSE 0 END))
        // COUNT(*))::BIGINT AS novelty_bp
FROM grams g JOIN firsts f USING (gram)
GROUP BY g.doc_id
"""


def q_event_outliers(sf_dir):
    """Per-user z-score outliers, INTEGER-EXACT and in ONE shuffle: flag
    events with |v - mean| > 2*stddev via the cross-multiplied form
    (n*v - s1)^2 > 4*(n*s2 - s1^2) over cents — no sqrt, no float
    drift, Python bigints in-kernel / HUGEINT in SQL. All of a user's
    events land in one part of the ``exchange`` on user, so the stats pass
    and the flag pass fuse into a single per-partition pandas kernel
    (never a per-user Ray group, never a second shuffle to join stats
    back)."""
    import pyarrow.compute as pc

    ev = cached_read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "value"],
    )

    def assign(batch: pa.Table) -> pa.Table:
        centi = pc.cast(
            pc.floor(pc.add(pc.multiply(batch.column("value"), 100.0), 0.5)),
            pa.int64(),
        )
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "user_id": batch.column("user_id"),
                "value_centi": centi,
            }
        )

    def flag(g: pd.DataFrame) -> pd.DataFrame:
        keep = []
        for _, u in g.groupby("user_id", sort=False):
            vs = [int(x) for x in u["value_centi"]]  # Python bigints
            n, s1 = len(vs), sum(vs)
            s2 = sum(v * v for v in vs)
            var4 = 4 * (n * s2 - s1 * s1)
            mask = [(n * v - s1) ** 2 > var4 for v in vs]
            keep.append(u[mask])
        out = pd.concat(keep) if keep else g.iloc[0:0]
        return out[["event_id", "user_id", "value_centi"]]

    return exchange(ev, "user_id", flag, combine=assign)


SQL_EVENT_OUTLIERS = """
WITH ec AS (
  SELECT event_id, user_id,
         CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS value_centi
  FROM events
),
s AS (
  SELECT user_id, COUNT(*)::HUGEINT AS n,
         SUM(value_centi)::HUGEINT AS s1,
         SUM(value_centi::HUGEINT * value_centi)::HUGEINT AS s2
  FROM ec GROUP BY user_id
)
SELECT event_id, ec.user_id, value_centi
FROM ec JOIN s USING (user_id)
WHERE (n * value_centi - s1) * (n * value_centi - s1)
      > 4 * (n * s2 - s1 * s1)
"""


def q_large_orders(sf_dir):
    """TPC-H Q18 shape: orders whose total lineitem quantity exceeds a
    threshold, with the order's price. Per-batch (orderkey, qty)
    pre-sum → ``exchange`` on the orderkey → in-part HAVING filter (the
    sub-threshold mass — almost everything — dies in-partition); the
    tiny survivor set broadcasts into the orders scan (no second
    shuffle, no big-big join)."""
    import pyarrow.compute as pc
    import ray

    threshold = 150

    li = cached_read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_quantity"],
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        # per-ROW cents before the sum — scale-then-sum is the oracle's
        # FLOOR(q*100+0.5) rule and stays exact if quantities ever
        # become fractional
        batch = batch.assign(
            qty=np.floor(batch["l_quantity"] * 100 + 0.5).astype("int64")
        )
        return batch.groupby("l_orderkey", as_index=False).agg(
            qty=("qty", "sum")
        )

    def having(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("l_orderkey", as_index=False).agg(qty=("qty", "sum"))
        return agg[agg["qty"] > threshold * 100]

    winners = exchange(
        li.map_batches(partial, batch_format="pandas"), "l_orderkey", having
    ).to_pandas()  # HAVING survivors only — small by construction
    qty_ref = ray.put(
        dict(zip((int(k) for k in winners["l_orderkey"]),
                 (int(q) for q in winners["qty"])))
    )

    orders = cached_read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )

    def attach(batch: pa.Table) -> pa.Table:
        from .stages.dataops import filter_by_broadcast_map

        kept = filter_by_broadcast_map(
            batch, key_col="o_orderkey", mapping=ray.get(qty_ref),
            value_name="total_qty_centi",
            keep_cols=["o_orderkey", "o_custkey", "o_totalprice"],
        )
        price_centi = pc.cast(
            pc.floor(
                pc.add(pc.multiply(kept.column("o_totalprice"), 100.0), 0.5)
            ),
            pa.int64(),
        )
        return pa.table(
            {
                "o_orderkey": kept.column("o_orderkey"),
                "o_custkey": kept.column("o_custkey"),
                "price_centi": price_centi,
                "total_qty_centi": kept.column("total_qty_centi"),
            }
        )

    return orders.map_batches(attach, batch_format="pyarrow")


SQL_LARGE_ORDERS = """
WITH w AS (
  SELECT l_orderkey,
         SUM(CAST(FLOOR(l_quantity * 100 + 0.5) AS BIGINT))::BIGINT
           AS total_qty_centi
  FROM lineitem GROUP BY l_orderkey
  HAVING SUM(CAST(FLOOR(l_quantity * 100 + 0.5) AS BIGINT)) > 150 * 100
)
SELECT o_orderkey, o_custkey,
       CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS price_centi,
       total_qty_centi
FROM orders JOIN w ON o_orderkey = l_orderkey
"""


def q_key_skew(sf_dir):
    """Key-skew report for shuffle planning (the is-this-key-saltable
    probe run before any groupby/join at scale): the 20 heaviest
    user_ids with exact counts and integer basis-point share of all
    events. Per-batch pre-count → ``exchange`` on the user → in-part
    merge → tiny global sort+limit; the total arrives as a one-row
    broadcast, share = count*10000 // total in pure integers."""
    ev = cached_read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id"]
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.groupby("user_id", as_index=False).agg(
            n_events=("user_id", "size")
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("user_id", as_index=False).agg(
            n_events=("n_events", "sum")
        )

    counts = exchange(
        ev.map_batches(partial, batch_format="pandas"), "user_id", merge
    )
    # total = input row count, straight from parquet metadata — never a
    # second execution of the counts pipeline
    total = ev.count()

    def add_share(batch: pa.Table) -> pa.Table:
        ns = [int(x) for x in batch.column("n_events").to_pylist()]
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "n_events": batch.column("n_events"),
                "share_bp": pa.array(
                    [n * 10000 // total for n in ns], pa.int64()
                ),
            }
        )

    return (
        counts.map_batches(add_share, batch_format="pyarrow")
        .sort(["n_events", "user_id"], descending=[True, False])
        .limit(20)
    )


SQL_KEY_SKEW = """
WITH c AS (
  SELECT user_id, COUNT(*)::BIGINT AS n_events FROM events GROUP BY user_id
)
SELECT user_id, n_events,
       (n_events * 10000 // (SELECT SUM(n_events) FROM c))::BIGINT
         AS share_bp
FROM c
ORDER BY n_events DESC, user_id
LIMIT 20
"""


def q_range_bounds(sf_dir):
    """Equi-depth range-partition boundaries over documents.n_chars
    from the standard md5 deterministic sample — the planning step
    before a balanced global sort. stages/dataops.py:range_bounds."""

    from .stages.dataops import range_bounds

    docs = cached_read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    return range_bounds(
        docs, value_col="n_chars", id_col="doc_id",
        num_ranges=8, rate_permille=200,
    )


def _sql_range_bounds(num_ranges: int = 8) -> str:
    arms = "\nUNION ALL\n".join(
        f"SELECT {i}::BIGINT AS range_idx, "
        f"(percentile_disc({i}/{num_ranges}.0) WITHIN GROUP "
        f"(ORDER BY n_chars))::BIGINT AS upper_bound FROM s"
        for i in range(1, num_ranges)
    )
    return f"""
WITH s AS (
  SELECT n_chars FROM documents
  WHERE md5_number_lower('rb|' || CAST(doc_id AS VARCHAR)) % 1000 < 200
)
{arms}
"""


def q_epoch_slice(sf_dir):
    """The data-loader seek surface training_order promises: fetch the
    rows ranked [100, 200) of the seeded epoch order, with their
    payload. The rank pipeline emits only (id, pos); the slice's ids
    (bounded by the window size, tiny by construction) broadcast into a
    second column-pruned scan for payload — the corpus is never sorted,
    never re-shipped."""
    import ray
    import ray.data

    from .stages.dataops import training_order

    lo, hi = 100, 200
    docs_ids = cached_read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )
    ranks = training_order(docs_ids, salt="shuffle", bucket_bits=10)

    def in_window(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        pos = batch.column("shuffle_pos")
        return batch.filter(
            pc.and_(pc.greater_equal(pos, lo), pc.less(pos, hi))
        )

    window = ranks.map_batches(
        in_window, batch_format="pyarrow"
    ).to_pandas()  # ≤ (hi - lo) rows — bounded by the slice, not the corpus
    pos_ref = ray.put(
        dict(zip((int(i) for i in window["doc_id"]),
                 (int(p) for p in window["shuffle_pos"])))
    )

    docs = cached_read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )

    def attach(batch: pa.Table) -> pa.Table:
        from .stages.dataops import filter_by_broadcast_map

        kept = filter_by_broadcast_map(
            batch, key_col="doc_id", mapping=ray.get(pos_ref),
            value_name="shuffle_pos",
            keep_cols=["doc_id", "n_chars"],
        )
        return kept.select(["doc_id", "shuffle_pos", "n_chars"])

    return docs.map_batches(attach, batch_format="pyarrow")


SQL_EPOCH_SLICE = """
WITH r AS (
  SELECT doc_id, n_chars,
         (ROW_NUMBER() OVER (
            ORDER BY md5_number_lower('shuffle|' || CAST(doc_id AS VARCHAR)),
                     doc_id
          ) - 1)::BIGINT AS shuffle_pos
  FROM documents
)
SELECT doc_id, shuffle_pos, n_chars
FROM r WHERE shuffle_pos >= 100 AND shuffle_pos < 200
"""


def _sql_kmeans_ctes(k: int, iters: int, scale: int = 1_000_000) -> str:
    """Unrolled Lloyd iterations as chained CTEs — possible ONLY because
    kmeans_embeddings is exact-integer (round_even quantization, integer
    d², floor-div centroid update, argmin ties to lowest cid): every
    step is bit-reproducible in SQL, so the iterative algorithm gets a
    full value-hash oracle instead of a rows-only check. Ends with
    ``af(vec_id, cluster)``. Floor division is spelled
    ``(s - ((s % n + n) % n)) // n`` because DuckDB's ``//`` truncates
    while numpy's floors."""
    parts = [f"""q AS (
  SELECT vec_id, i - 1 AS dim,
         CAST(round_even(CAST(embedding[i] AS DOUBLE) * {scale}, 0)
              AS BIGINT) AS x
  FROM (SELECT vec_id, embedding, unnest(range(1, len(embedding) + 1)) AS i
        FROM embeddings))""", f"""c0 AS (
  SELECT r - 1 AS cid, dim, x AS c
  FROM (SELECT vec_id, ROW_NUMBER() OVER (ORDER BY vec_id) AS r
        FROM (SELECT DISTINCT vec_id FROM embeddings)) ids
  JOIN q USING (vec_id)
  WHERE r <= {k})"""]
    for t in range(1, iters + 1):
        parts += [f"""d{t} AS (
  SELECT q.vec_id, c.cid, SUM((q.x - c.c) * (q.x - c.c)) AS d2
  FROM q JOIN c{t - 1} c USING (dim)
  GROUP BY q.vec_id, c.cid)""", f"""a{t} AS (
  SELECT vec_id, cid FROM (
    SELECT vec_id, cid,
           ROW_NUMBER() OVER (PARTITION BY vec_id ORDER BY d2, cid) AS rn
    FROM d{t}) WHERE rn = 1)""", f"""s{t} AS (
  SELECT a.cid, q.dim, SUM(q.x) AS s, COUNT(*) AS n
  FROM q JOIN a{t} a USING (vec_id)
  GROUP BY a.cid, q.dim)""", f"""c{t} AS (
  SELECT p.cid, p.dim,
         CASE WHEN s.n IS NULL THEN p.c
              ELSE (s.s - (((s.s % s.n) + s.n) % s.n)) // s.n
         END AS c
  FROM c{t - 1} p LEFT JOIN s{t} s ON s.cid = p.cid AND s.dim = p.dim)"""]
    parts += [f"""df AS (
  SELECT q.vec_id, c.cid, SUM((q.x - c.c) * (q.x - c.c)) AS d2
  FROM q JOIN c{iters} c USING (dim)
  GROUP BY q.vec_id, c.cid)""", """af AS (
  SELECT vec_id, cid AS cluster FROM (
    SELECT vec_id, cid,
           ROW_NUMBER() OVER (PARTITION BY vec_id ORDER BY d2, cid) AS rn
    FROM df) WHERE rn = 1)"""]
    return ",\n".join(parts)


def _sql_kmeans_clusters() -> str:
    return (
        "WITH " + _sql_kmeans_ctes(8, 5)
        + "\nSELECT vec_id, cluster::BIGINT AS cluster FROM af"
    )


def _sql_semantic_dedup() -> str:
    return (
        "WITH " + _sql_kmeans_ctes(8, 3)
        + """,
dup AS (
  SELECT DISTINCT b.vec_id AS vec_id
  FROM af a JOIN af b ON a.cluster = b.cluster AND a.vec_id < b.vec_id
  JOIN embeddings ea ON ea.vec_id = a.vec_id
  JOIN embeddings eb ON eb.vec_id = b.vec_id
  WHERE floor(list_cosine_similarity(ea.embedding::DOUBLE[],
                                     eb.embedding::DOUBLE[]) * 100 + 0.5)
        >= 30
)
SELECT vec_id, cluster::BIGINT AS cluster FROM af
WHERE vec_id NOT IN (SELECT vec_id FROM dup)
"""
    )


# ---------------------------------------------------------------------------
# multi-join analytics shapes (TPC-H Q7/Q8 analogues)


def q_nation_trade(sf_dir):
    """TPC-H Q7 shape: shipped-goods trade volume between NATION_1 and
    NATION_2 per ship-year (both directions). Scale shape: BOTH big
    sides are pre-filtered to ~2/25 of their rows via broadcast
    dimension maps BEFORE the one big-big hash join (supplier-nation
    filter on lineitem, customer-nation filter on orders); the ship
    year is projected to int64 pre-join so no timestamp column rides
    the shuffle; revenue pre-aggregates per (supp, cust, year) inside
    the combiner batch so the global groupby sees O(groups) rows. The
    SF-scaled supplier/customer dimensions attach via distributed
    tagged co-group joins against their target-nation subsets (an
    inner equi_join against a filtered unique-key dimension IS the
    filter+attach in one exchange) — no full-dimension driver dict;
    only the 25-row nation map is broadcast."""
    from datetime import datetime

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    import ray
    import ray.data
    from ray.data.aggregate import Sum

    from .stages.joins import equi_join

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    nmap = dict(zip(nation.column("n_nationkey").to_pylist(),
                    nation.column("n_name").to_pylist()))
    target = {k for k, v in nmap.items() if v in ("NATION_1", "NATION_2")}
    nref = ray.put((nmap, target))

    lo = datetime(1995, 1, 1)
    hi = datetime(1997, 1, 1)

    def li_prefilter(batch: pa.Table) -> pa.Table:
        d = batch.column("l_shipdate")
        mask = pc.and_(
            pc.greater_equal(d, pa.scalar(lo, type=d.type)),
            pc.less(d, pa.scalar(hi, type=d.type)),
        )
        batch = batch.filter(mask)
        batch = batch.append_column(
            "l_year", pc.cast(pc.year(batch.column("l_shipdate")),
                              pa.int64())
        )
        return batch.select(
            ["l_orderkey", "l_suppkey", "l_year", "l_extendedprice",
             "l_discount"]
        )

    def _nation_subset(batch: pa.Table) -> pa.Table:
        _, tgt = ray.get(nref)
        key = batch.column_names[1]  # (id, nationkey) projection
        keep = pa.array(
            [n in tgt for n in batch.column(key).to_pylist()],
            pa.bool_(),
        )
        return batch.filter(keep)

    supplier = cached_read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).map_batches(_nation_subset, batch_format="pyarrow")
    customer = cached_read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).map_batches(_nation_subset, batch_format="pyarrow")

    li = equi_join(
        cached_read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                     "l_discount", "l_shipdate"],
        ).map_batches(li_prefilter, batch_format="pyarrow"),
        supplier, on="l_suppkey", right_on="s_suppkey",
    )
    orders = equi_join(
        cached_read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
        ),
        customer, on="o_custkey", right_on="c_custkey",
    )

    def li_project(batch: pa.Table) -> pa.Table:
        # typed arrow projection: a 0-row pandas UDF output erases the
        # block schema (round-4 hazard family), which the downstream
        # equi_join contract-checks
        return pa.table({
            "l_orderkey": batch.column("l_orderkey"),
            "_sn": pc.cast(batch.column("s_nationkey"), pa.int64()),
            "l_year": batch.column("l_year"),
            "l_extendedprice": batch.column("l_extendedprice"),
            "l_discount": batch.column("l_discount"),
        })

    def o_project(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": batch.column("o_orderkey"),
            "_cn": pc.cast(batch.column("c_nationkey"), pa.int64()),
        })

    li = li.map_batches(li_project, batch_format="pyarrow")
    orders = orders.map_batches(o_project, batch_format="pyarrow")

    # equi_join (tagged co-group), not Dataset.join: the nation
    # prefilters can empty out a whole side at small sf, which the
    # native join cannot survive (empty-partition hazard). Explicit
    # schemas: either projected side can be legitimately EMPTY (no
    # suppliers/customers in the target nations at tiny sf), and Ray
    # reports schema()=None for an executed-empty dataset.
    joined = equi_join(
        li, orders, on="l_orderkey", right_on="o_orderkey",
        left_schema=pa.schema([
            ("l_orderkey", pa.int64()), ("_sn", pa.int64()),
            ("l_year", pa.int64()), ("l_extendedprice", pa.float64()),
            ("l_discount", pa.float64()),
        ]),
        right_schema=pa.schema([
            ("o_orderkey", pa.int64()), ("_cn", pa.int64()),
        ]),
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        nmap, _ = ray.get(nref)
        batch = batch[batch["_sn"] != batch["_cn"]]
        if len(batch) == 0:
            return pd.DataFrame(
                {
                    "supp_nation": pd.Series([], dtype="object"),
                    "cust_nation": pd.Series([], dtype="object"),
                    "l_year": pd.Series([], dtype="int64"),
                    "revenue": pd.Series([], dtype="float64"),
                }
            )
        batch = batch.assign(
            supp_nation=[nmap[n] for n in batch["_sn"]],
            cust_nation=[nmap[n] for n in batch["_cn"]],
            revenue=batch["l_extendedprice"] * (1 - batch["l_discount"]),
        )
        return batch.groupby(
            ["supp_nation", "cust_nation", "l_year"], as_index=False
        ).agg(revenue=("revenue", "sum"))

    df = (
        joined.map_batches(partial, batch_format="pandas",
                           batch_size=65536)
        .groupby(["supp_nation", "cust_nation", "l_year"])
        .aggregate(Sum("revenue", alias_name="revenue"))
        .to_pandas()  # nation-pair × year cardinality — a small result
    )
    out = pd.DataFrame({
        "supp_nation": pd.Series(
            df["supp_nation"] if len(df) else [], dtype="object"
        ),
        "cust_nation": pd.Series(
            df["cust_nation"] if len(df) else [], dtype="object"
        ),
        "l_year": pd.Series(
            df["l_year"] if len(df) else [], dtype="int64"
        ),
        "revenue_cents": pd.Series(
            [_cents(v) for v in df["revenue"]] if len(df) else [],
            dtype="int64",
        ),
    })
    return _from_pandas_exact(out)


SQL_NATION_TRADE = """
SELECT sn.n_name AS supp_nation,
       cn.n_name AS cust_nation,
       CAST(EXTRACT(YEAR FROM l.l_shipdate) AS BIGINT) AS l_year,
       CAST(FLOOR(SUM(l.l_extendedprice*(1-l.l_discount))*100 + 0.5)
            AS BIGINT) AS revenue_cents
FROM lineitem l
JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN supplier s ON l.l_suppkey = s.s_suppkey
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation sn ON s.s_nationkey = sn.n_nationkey
JOIN nation cn ON c.c_nationkey = cn.n_nationkey
WHERE l.l_shipdate >= DATE '1995-01-01'
  AND l.l_shipdate < DATE '1997-01-01'
  AND ((sn.n_name = 'NATION_1' AND cn.n_name = 'NATION_2')
    OR (sn.n_name = 'NATION_2' AND cn.n_name = 'NATION_1'))
GROUP BY 1, 2, 3
"""


def q_market_share(sf_dir):
    """TPC-H Q8 shape: NATION_3 suppliers' share of the PROMO-part
    market sold to EUROPE customers, per order-year. Share is
    computed from the already-rounded integer cents on both sides
    (``target_cents*10000 // market_cents`` basis points) so the
    ratio is bit-reproducible. Scale shape: the SF-scaled part,
    supplier and customer dimensions all attach via distributed
    tagged co-group joins (the promo subset and the EUROPE-customer
    subset are inner equi_joins against filtered unique-key
    dimensions — the semi-join and the filter in one exchange); only
    the 25-row nation/region maps are broadcast."""
    from datetime import datetime

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    import ray
    import ray.data
    from ray.data.aggregate import Sum

    from .stages.joins import equi_join

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet",
        columns=["n_nationkey", "n_name", "n_regionkey"],
    )
    region = pq.read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    )
    rmap = dict(zip(region.column("r_regionkey").to_pylist(),
                    region.column("r_name").to_pylist()))
    nat_region = {
        k: rmap[r]
        for k, r in zip(nation.column("n_nationkey").to_pylist(),
                        nation.column("n_regionkey").to_pylist())
    }
    target_nkey = {
        k for k, v in zip(nation.column("n_nationkey").to_pylist(),
                          nation.column("n_name").to_pylist())
        if v == "NATION_3"
    }
    nref = ray.put((nat_region, target_nkey))

    lo = datetime(1995, 1, 1)
    hi = datetime(1997, 1, 1)

    def promo_parts(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.equal(batch.column("p_type"), "PROMO")
        ).select(["p_partkey"])

    def o_window(batch: pa.Table) -> pa.Table:
        d = batch.column("o_orderdate")
        mask = pc.and_(
            pc.greater_equal(d, pa.scalar(lo, type=d.type)),
            pc.less(d, pa.scalar(hi, type=d.type)),
        )
        batch = batch.filter(mask)
        batch = batch.append_column(
            "o_year", pc.cast(pc.year(batch.column("o_orderdate")),
                              pa.int64())
        )
        return batch.select(["o_orderkey", "o_custkey", "o_year"])

    def europe_cust(batch: pa.Table) -> pa.Table:
        nat_region, _ = ray.get(nref)
        keep = pa.array(
            [nat_region[int(n)] == "EUROPE"
             for n in batch.column("c_nationkey").to_pylist()],
            pa.bool_(),
        )
        return batch.filter(keep).select(["c_custkey"])

    part_ds = cached_read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
    ).map_batches(promo_parts, batch_format="pyarrow")
    supplier = cached_read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    customer = cached_read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).map_batches(europe_cust, batch_format="pyarrow")

    li_raw = cached_read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey", "l_suppkey",
                 "l_extendedprice", "l_discount"],
    )
    li_promo = equi_join(li_raw, part_ds, on="l_partkey",
                         right_on="p_partkey")
    li_supp = equi_join(li_promo, supplier, on="l_suppkey",
                        right_on="s_suppkey")

    def li_project(batch: pa.Table) -> pa.Table:
        _, target = ray.get(nref)
        is_target = pc.is_in(
            batch.column("s_nationkey"),
            value_set=pa.array(sorted(target), pa.int64()),
        )
        return pa.table({
            "l_orderkey": batch.column("l_orderkey"),
            "_is_target": pc.cast(is_target, pa.bool_()),
            "l_extendedprice": batch.column("l_extendedprice"),
            "l_discount": batch.column("l_discount"),
        })

    li = li_supp.map_batches(li_project, batch_format="pyarrow")

    o_win = cached_read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(o_window, batch_format="pyarrow")
    o_eur = equi_join(o_win, customer, on="o_custkey",
                      right_on="c_custkey")

    def o_project(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": pc.cast(batch.column("o_orderkey"), pa.int64()),
            "o_year": pc.cast(batch.column("o_year"), pa.int64()),
        })

    orders = o_eur.map_batches(o_project, batch_format="pyarrow")

    # equi_join (tagged co-group) for the same empty-side safety as
    # nation_trade: the region/part prefilters can zero out a side.
    joined = equi_join(li, orders, on="l_orderkey", right_on="o_orderkey")

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return pd.DataFrame(
                {
                    "o_year": pd.Series([], dtype="int64"),
                    "target_rev": pd.Series([], dtype="float64"),
                    "market_rev": pd.Series([], dtype="float64"),
                }
            )
        vol = batch["l_extendedprice"] * (1 - batch["l_discount"])
        batch = batch.assign(
            market_rev=vol,
            target_rev=vol.where(batch["_is_target"], 0.0),
        )
        return batch.groupby("o_year", as_index=False).agg(
            target_rev=("target_rev", "sum"),
            market_rev=("market_rev", "sum"),
        )

    agg = (
        joined.map_batches(partial, batch_format="pandas",
                           batch_size=65536)
        .groupby("o_year")
        .aggregate(
            Sum("target_rev", alias_name="target_rev"),
            Sum("market_rev", alias_name="market_rev"),
        )
    )

    def finalize(batch: pa.Table) -> pa.Table:
        tc = [_cents(v) for v in batch.column("target_rev").to_pylist()]
        mc = [_cents(v) for v in batch.column("market_rev").to_pylist()]
        return pa.table(
            {
                "o_year": batch.column("o_year"),
                "target_cents": pa.array(tc, pa.int64()),
                "market_cents": pa.array(mc, pa.int64()),
                "share_bp": pa.array(
                    [t * 10000 // m if m else 0
                     for t, m in zip(tc, mc)],
                    pa.int64(),
                ),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


SQL_MARKET_SHARE = """
WITH market AS (
  SELECT CAST(EXTRACT(YEAR FROM o.o_orderdate) AS BIGINT) AS o_year,
         l.l_extendedprice*(1-l.l_discount) AS vol,
         CASE WHEN s.s_nationkey =
                   (SELECT n_nationkey FROM nation
                    WHERE n_name = 'NATION_3')
              THEN l.l_extendedprice*(1-l.l_discount) ELSE 0 END
           AS target_vol
  FROM lineitem l
  JOIN orders o ON l.l_orderkey = o.o_orderkey
  JOIN part p ON l.l_partkey = p.p_partkey
  JOIN customer c ON o.o_custkey = c.c_custkey
  JOIN nation cn ON c.c_nationkey = cn.n_nationkey
  JOIN region r ON cn.n_regionkey = r.r_regionkey
  JOIN supplier s ON l.l_suppkey = s.s_suppkey
  WHERE r.r_name = 'EUROPE' AND p.p_type = 'PROMO'
    AND o.o_orderdate >= DATE '1995-01-01'
    AND o.o_orderdate < DATE '1997-01-01'
),
cents AS (
  SELECT o_year,
         CAST(FLOOR(SUM(target_vol)*100 + 0.5) AS BIGINT)
           AS target_cents,
         CAST(FLOOR(SUM(vol)*100 + 0.5) AS BIGINT) AS market_cents
  FROM market GROUP BY o_year
)
SELECT o_year, target_cents, market_cents,
       CASE WHEN market_cents = 0 THEN 0
            ELSE (target_cents * 10000) // market_cents END AS share_bp
FROM cents
"""


def q_returned_item_customers(sf_dir):
    """TPC-H Q10 shape: the 20 customers losing the most revenue to
    returned items in a half-year order window. Scale shape: lineitem
    pre-filtered to returnflag='R' and column-pruned, orders
    date-windowed, BEFORE the one big-big equi_join; customer/nation
    names attach from broadcast maps only to the 20 surviving rows.
    Deterministic under ties via (revenue DESC, custkey ASC)."""
    from datetime import datetime

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    import ray
    import ray.data
    from ray.data.aggregate import Sum

    from .stages.joins import equi_join

    lo = datetime(1995, 1, 1)
    hi = datetime(1995, 7, 1)

    def li_prefilter(batch: pa.Table) -> pa.Table:
        mask = pc.equal(batch.column("l_returnflag"), pa.scalar("R"))
        return batch.filter(mask).select(
            ["l_orderkey", "l_extendedprice", "l_discount"]
        )

    def o_prefilter(batch: pa.Table) -> pa.Table:
        d = batch.column("o_orderdate")
        mask = pc.and_(
            pc.greater_equal(d, pa.scalar(lo, type=d.type)),
            pc.less(d, pa.scalar(hi, type=d.type)),
        )
        return batch.filter(mask).select(["o_orderkey", "o_custkey"])

    li = cached_read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_extendedprice",
                 "l_discount"],
    ).map_batches(li_prefilter, batch_format="pyarrow")
    orders = cached_read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(o_prefilter, batch_format="pyarrow")

    joined = equi_join(li, orders, on="l_orderkey", right_on="o_orderkey")

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.assign(
            revenue=batch["l_extendedprice"] * (1 - batch["l_discount"])
        )
        return batch.groupby("o_custkey", as_index=False).agg(
            revenue=("revenue", "sum")
        )

    top = (
        joined.map_batches(partial, batch_format="pandas",
                           batch_size=65536)
        .groupby("o_custkey")
        .aggregate(Sum("revenue", alias_name="revenue"))
    )

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_nationkey"],
    )
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    cmap = {
        k: (nm, nk)
        for k, nm, nk in zip(cust.column("c_custkey").to_pylist(),
                             cust.column("c_name").to_pylist(),
                             cust.column("c_nationkey").to_pylist())
    }
    nmap = dict(zip(nation.column("n_nationkey").to_pylist(),
                    nation.column("n_name").to_pylist()))
    maps_ref = ray.put((cmap, nmap))

    def cents(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_custkey": batch.column("o_custkey"),
                "revenue_cents": pa.array(
                    [_cents(v)
                     for v in batch.column("revenue").to_pylist()],
                    pa.int64(),
                ),
            }
        )

    def attach(batch: pa.Table) -> pa.Table:
        cmap, nmap = ray.get(maps_ref)
        ks = batch.column("c_custkey").to_pylist()
        return pa.table(
            {
                "c_custkey": batch.column("c_custkey"),
                "c_name": pa.array(
                    [cmap[k][0] for k in ks], pa.string()
                ),
                "n_name": pa.array(
                    [nmap[cmap[k][1]] for k in ks], pa.string()
                ),
                "revenue_cents": batch.column("revenue_cents"),
            }
        )

    return (
        top.map_batches(cents, batch_format="pyarrow")
        .sort(["revenue_cents", "c_custkey"], descending=[True, False])
        .limit(20)
        .map_batches(attach, batch_format="pyarrow")
    )


SQL_RETURNED_ITEM_CUSTOMERS = """
SELECT c.c_custkey, c.c_name, n.n_name,
       CAST(FLOOR(SUM(l.l_extendedprice*(1-l.l_discount))*100 + 0.5)
            AS BIGINT) AS revenue_cents
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
WHERE o.o_orderdate >= DATE '1995-01-01'
  AND o.o_orderdate < DATE '1995-07-01'
  AND l.l_returnflag = 'R'
GROUP BY c.c_custkey, c.c_name, n.n_name
ORDER BY revenue_cents DESC, c.c_custkey
LIMIT 20
"""


def q_small_quantity_revenue(sf_dir):
    """TPC-H Q17 shape: revenue from lineitems whose quantity is below
    20% of their part's average quantity. The fractional-average
    predicate is cross-multiplied into pure integers —
    ``5*qty*cnt < sum_qty`` instead of ``qty < 0.2*avg`` — so the row
    set is bit-identical on both engines (quantities are
    integer-valued doubles, cast exactly to int64).

    Scale shape: pass 1 folds lineitem to one (partkey, sum_qty, cnt)
    row per part via per-batch combiner → ``exchange`` on partkey (never
    one Ray group per part); pass 2 joins the stats back on partkey
    with the empty-safe equi_join co-group and sums the qualifying
    revenue as per-batch partials — the driver sees two numbers."""

    from .stages.joins import equi_join

    li_stats_in = cached_read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity"],
    )

    def stats_partial(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.assign(qty=batch["l_quantity"].astype("int64"))
        return batch.groupby("l_partkey", as_index=False).agg(
            sum_qty=("qty", "sum"), cnt=("qty", "size")
        )

    def stats_merge(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("l_partkey", as_index=False).agg(
            sum_qty=("sum_qty", "sum"), cnt=("cnt", "sum")
        )
        return out.rename(columns={"l_partkey": "pk"})[
            ["pk", "sum_qty", "cnt"]
        ]

    stats = exchange(
        li_stats_in.map_batches(stats_partial, batch_format="pandas"),
        "l_partkey", stats_merge,
    )

    li = cached_read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice"],
    )
    joined = equi_join(li, stats, on="l_partkey", right_on="pk")

    def qualify(batch: pd.DataFrame) -> pd.DataFrame:
        qty = batch["l_quantity"].astype("int64")
        keep = 5 * qty * batch["cnt"] < batch["sum_qty"]
        kept = batch[keep]
        return pd.DataFrame(
            {
                "rev": [float(kept["l_extendedprice"].sum())],
                "n": [int(len(kept))],
            }
        )

    partials = joined.map_batches(qualify, batch_format="pandas")
    totals = partials.sum(["rev", "n"])
    rev = (totals or {}).get("sum(rev)") or 0.0
    n = int((totals or {}).get("sum(n)") or 0)
    return pa.table(
        {
            "revenue_cents": pa.array([_cents(rev)], pa.int64()),
            "n_rows": pa.array([n], pa.int64()),
        }
    )


SQL_SMALL_QUANTITY_REVENUE = """
WITH stats AS (
  SELECT l_partkey,
         SUM(CAST(l_quantity AS BIGINT)) AS sum_qty,
         COUNT(*)::BIGINT AS cnt
  FROM lineitem GROUP BY l_partkey
)
SELECT CAST(FLOOR(COALESCE(SUM(l.l_extendedprice), 0)*100 + 0.5)
            AS BIGINT) AS revenue_cents,
       COUNT(*)::BIGINT AS n_rows
FROM lineitem l
JOIN stats s ON l.l_partkey = s.l_partkey
WHERE 5 * CAST(l.l_quantity AS BIGINT) * s.cnt < s.sum_qty
"""


# ---------------------------------------------------------------------------
# TPC-H long-tail shapes (Q6/Q14/Q15/Q19/Q21/Q22) + embedding Gram matrix


def q_forecast_revenue(sf_dir):
    """TPC-H Q6 shape: revenue delta from dropping small discounts —
    a pure filtered aggregate. Columns pruned at the read; the
    date/discount/quantity predicate and the per-row cents
    (``FLOOR(p*d*100+0.5)`` — exact int64, no float-order drift)
    run as one vectorized Arrow pass; the driver only ever sees one
    tiny partial row per block."""
    from datetime import datetime

    import pyarrow.compute as pc

    li = cached_read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_shipdate", "l_quantity", "l_extendedprice",
                 "l_discount"],
    )
    lo = datetime(1997, 1, 1)
    hi = datetime(1998, 1, 1)

    def partial(batch: pa.Table) -> pa.Table:
        d = batch.column("l_shipdate")
        centi_disc = pc.cast(
            pc.floor(pc.add(pc.multiply(batch.column("l_discount"),
                                        pa.scalar(100.0)),
                            pa.scalar(0.5))),
            pa.int64(),
        )
        mask = pc.and_(
            pc.and_(
                pc.greater_equal(d, pa.scalar(lo, type=d.type)),
                pc.less(d, pa.scalar(hi, type=d.type)),
            ),
            pc.and_(
                pc.and_(
                    pc.greater_equal(centi_disc, pa.scalar(5, pa.int64())),
                    pc.less_equal(centi_disc, pa.scalar(7, pa.int64())),
                ),
                pc.less(batch.column("l_quantity"), pa.scalar(24.0)),
            ),
        )
        kept = batch.filter(mask)
        cents = pc.cast(
            pc.floor(pc.add(
                pc.multiply(
                    pc.multiply(kept.column("l_extendedprice"),
                                kept.column("l_discount")),
                    pa.scalar(100.0)),
                pa.scalar(0.5))),
            pa.int64(),
        )
        total = pc.sum(cents).as_py()
        return pa.table({
            "revenue_cents": pa.array([int(total or 0)], pa.int64()),
            "n_rows": pa.array([kept.num_rows], pa.int64()),
        })

    parts = li.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = pd.DataFrame({
        "revenue_cents": [int(parts["revenue_cents"].sum())],
        "n_rows": [int(parts["n_rows"].sum())],
    })
    return _from_pandas_exact(out)


SQL_FORECAST_REVENUE = """
SELECT CAST(COALESCE(SUM(CAST(FLOOR(l_extendedprice*l_discount*100 + 0.5)
                              AS BIGINT)), 0) AS BIGINT) AS revenue_cents,
       COUNT(*)::BIGINT AS n_rows
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1997-01-01'
  AND l_shipdate <  TIMESTAMP '1998-01-01'
  AND CAST(FLOOR(l_discount*100 + 0.5) AS BIGINT) BETWEEN 5 AND 7
  AND l_quantity < 24
"""


def q_promo_revenue(sf_dir):
    """TPC-H Q14 shape: per-month share of revenue from PROMO-type
    parts, in basis points. part is the broadcast dimension (only the
    promo partkey SET ships — one ``ray.put``, read per batch); revenue
    is per-ROW cents (exact int64) pre-summed per month inside
    ``map_batches``, so the Ray groupby sees months × blocks rows. The
    bps ratio is integer floor-division on the final cents — bit-equal
    to the oracle's ``// `` on both engines."""
    import pyarrow.parquet as pq
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
    )
    promo = frozenset(
        k for k, t in zip(part.column("p_partkey").to_pylist(),
                          part.column("p_type").to_pylist())
        if t == "PROMO"
    )
    promo_ref = ray.put(promo)

    li = cached_read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_shipdate", "l_extendedprice",
                 "l_discount"],
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        pr = ray.get(promo_ref)
        cents = np.floor(
            batch["l_extendedprice"] * (1 - batch["l_discount"]) * 100
            + 0.5
        ).astype("int64")
        g = pd.DataFrame({
            "month": batch["l_shipdate"].dt.strftime("%Y-%m"),
            "promo_cents": np.where(
                batch["l_partkey"].isin(pr), cents, 0
            ).astype("int64"),
            "total_cents": cents,
        })
        return g.groupby("month", as_index=False).agg(
            promo_cents=("promo_cents", "sum"),
            total_cents=("total_cents", "sum"),
        )

    agg = (
        li.map_batches(partial, batch_format="pandas", batch_size=65536)
        .groupby("month")
        .aggregate(Sum("promo_cents", alias_name="promo_cents"),
                   Sum("total_cents", alias_name="total_cents"))
    )

    def finalize(batch: pa.Table) -> pa.Table:
        p = [int(x) for x in batch.column("promo_cents").to_pylist()]
        t = [int(x) for x in batch.column("total_cents").to_pylist()]
        return pa.table({
            "month": batch.column("month"),
            "promo_cents": pa.array(p, pa.int64()),
            "total_cents": pa.array(t, pa.int64()),
            "promo_share_bps": pa.array(
                [a * 10000 // b for a, b in zip(p, t)], pa.int64()
            ),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


SQL_PROMO_REVENUE = """
WITH cents AS (
  SELECT strftime(l.l_shipdate, '%Y-%m') AS month,
         CASE WHEN p.p_type = 'PROMO'
              THEN CAST(FLOOR(l.l_extendedprice*(1-l.l_discount)*100 + 0.5)
                        AS BIGINT) ELSE 0 END AS promo,
         CAST(FLOOR(l.l_extendedprice*(1-l.l_discount)*100 + 0.5)
              AS BIGINT) AS total
  FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
)
SELECT month,
       SUM(promo)::BIGINT AS promo_cents,
       SUM(total)::BIGINT AS total_cents,
       (SUM(promo) * 10000 // SUM(total))::BIGINT AS promo_share_bps
FROM cents
GROUP BY month
"""


def q_top_supplier(sf_dir):
    """TPC-H Q15 shape: the supplier(s) with the maximum revenue in a
    six-month ship window (ties all kept, as the spec requires).
    Per-row cents pre-summed per supplier inside ``map_batches`` → a
    supplier-cardinality Ray Sum; the winner scan + name attach happen
    on the driver over the supplier-dimension-sized result."""
    from datetime import datetime

    import pyarrow.parquet as pq
    from ray.data.aggregate import Sum

    li = cached_read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_shipdate", "l_extendedprice",
                 "l_discount"],
    )
    lo = datetime(1997, 1, 1)
    hi = datetime(1997, 7, 1)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch[(batch["l_shipdate"] >= lo)
                      & (batch["l_shipdate"] < hi)]
        if not len(batch):
            return pd.DataFrame({
                "l_suppkey": pd.Series([], dtype="int64"),
                "revenue_cents": pd.Series([], dtype="int64"),
            })
        g = pd.DataFrame({
            "l_suppkey": batch["l_suppkey"],
            "revenue_cents": np.floor(
                batch["l_extendedprice"] * (1 - batch["l_discount"]) * 100
                + 0.5
            ).astype("int64"),
        })
        return g.groupby("l_suppkey", as_index=False).agg(
            revenue_cents=("revenue_cents", "sum")
        )

    df = (
        li.map_batches(partial, batch_format="pandas", batch_size=65536)
        .groupby("l_suppkey")
        .aggregate(Sum("revenue_cents", alias_name="revenue_cents"))
        .to_pandas()  # supplier-dimension cardinality — a small result
    )
    if not len(df):
        out = pd.DataFrame({
            "s_suppkey": pd.Series([], dtype="int64"),
            "s_name": pd.Series([], dtype="object"),
            "revenue_cents": pd.Series([], dtype="int64"),
        })
    else:
        best = int(df["revenue_cents"].max())
        win = df[df["revenue_cents"] == best]
        # row-group-pruned read of only the winners' rows (the winner
        # set is tiny; never load the full SF-scaled dimension)
        sup = pq.read_table(
            f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"],
            filters=[("s_suppkey", "in",
                      [int(k) for k in win["l_suppkey"]])],
        )
        names = dict(zip(sup.column("s_suppkey").to_pylist(),
                         sup.column("s_name").to_pylist()))
        out = pd.DataFrame({
            "s_suppkey": win["l_suppkey"].astype("int64").to_numpy(),
            "s_name": [names[int(k)] for k in win["l_suppkey"]],
            "revenue_cents": win["revenue_cents"].astype("int64")
            .to_numpy(),
        })
    return _from_pandas_exact(out.reset_index(drop=True))


SQL_TOP_SUPPLIER = """
WITH revenue AS (
  SELECT l_suppkey,
         SUM(CAST(FLOOR(l_extendedprice*(1-l_discount)*100 + 0.5)
                  AS BIGINT))::BIGINT AS revenue_cents
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1997-01-01'
    AND l_shipdate <  TIMESTAMP '1997-07-01'
  GROUP BY l_suppkey
)
SELECT s.s_suppkey, s.s_name, r.revenue_cents
FROM revenue r JOIN supplier s ON s.s_suppkey = r.l_suppkey
WHERE r.revenue_cents = (SELECT MAX(revenue_cents) FROM revenue)
"""


def q_brand_bulk_revenue(sf_dir):
    """TPC-H Q19 shape: revenue under a DISJUNCTION of
    (brand, size-range, quantity-range) legs. Each leg's qualifying
    partkeys come from one driver-side scan of the part dimension
    (at production scale: a pruned read of (p_partkey, p_brand,
    p_size) — still dimension-sized); the fact side evaluates all
    legs as vectorized isin+between masks OR-ed together in a single
    pass, so the disjunction never becomes three scans or a join."""
    import pyarrow.parquet as pq
    import ray
    import ray.data

    legs = [
        ("Brand#1", 1, 5, 1.0, 11.0),
        ("Brand#2", 1, 10, 10.0, 20.0),
        ("Brand#3", 1, 15, 20.0, 30.0),
    ]
    part = pq.read_table(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_brand", "p_size"],
    )
    pk = part.column("p_partkey").to_pylist()
    pb = part.column("p_brand").to_pylist()
    ps = part.column("p_size").to_pylist()
    leg_keys = [
        frozenset(k for k, b, s in zip(pk, pb, ps)
                  if b == brand and size_lo <= s <= size_hi)
        for brand, size_lo, size_hi, _, _ in legs
    ]
    legs_ref = ray.put(
        [(keys, q_lo, q_hi)
         for (_, _, _, q_lo, q_hi), keys in zip(legs, leg_keys)]
    )

    li = cached_read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice",
                 "l_discount"],
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        mask = np.zeros(len(batch), dtype=bool)
        for keys, q_lo, q_hi in ray.get(legs_ref):
            mask |= (
                batch["l_partkey"].isin(keys).to_numpy()
                & (batch["l_quantity"].to_numpy() >= q_lo)
                & (batch["l_quantity"].to_numpy() <= q_hi)
            )
        kept = batch[mask]
        cents = np.floor(
            kept["l_extendedprice"] * (1 - kept["l_discount"]) * 100 + 0.5
        ).astype("int64")
        return pd.DataFrame({
            "revenue_cents": [int(cents.sum())],
            "n_rows": [int(len(kept))],
        })

    parts = li.map_batches(
        partial, batch_format="pandas", batch_size=65536
    ).to_pandas()
    return _from_pandas_exact(pd.DataFrame({
        "revenue_cents": [int(parts["revenue_cents"].sum())],
        "n_rows": [int(parts["n_rows"].sum())],
    }))


SQL_BRAND_BULK_REVENUE = """
SELECT CAST(COALESCE(SUM(CAST(FLOOR(l.l_extendedprice*(1-l.l_discount)*100
                                    + 0.5) AS BIGINT)), 0) AS BIGINT)
         AS revenue_cents,
       COUNT(*)::BIGINT AS n_rows
FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
WHERE (p.p_brand = 'Brand#1' AND p.p_size BETWEEN 1 AND 5
       AND l.l_quantity BETWEEN 1 AND 11)
   OR (p.p_brand = 'Brand#2' AND p.p_size BETWEEN 1 AND 10
       AND l.l_quantity BETWEEN 10 AND 20)
   OR (p.p_brand = 'Brand#3' AND p.p_size BETWEEN 1 AND 15
       AND l.l_quantity BETWEEN 20 AND 30)
"""


def q_sole_return_suppliers(sf_dir):
    """TPC-H Q21 shape (adapted to this schema: returnflag plays the
    late-delivery role): suppliers who were the ONLY supplier with a
    returned line in a multi-supplier order, with how often. Pre-shuffle
    combiner collapses lineitem to (order, supplier, any-returned); ONE
    ``exchange`` on the orderkey co-locates each order; the
    exists/not-exists pair is a vectorized per-order group stat; the
    final per-supplier count is supplier-cardinality."""
    import pyarrow.parquet as pq
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    li = cached_read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_returnflag"],
    )

    def combine(batch: pd.DataFrame) -> pd.DataFrame:
        return (
            batch.assign(
                returned=(batch["l_returnflag"] == "R").astype("int64")
            )
            .groupby(["l_orderkey", "l_suppkey"], as_index=False)
            .agg(returned=("returned", "max"))
        )

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        pairs = g.groupby(["l_orderkey", "l_suppkey"], as_index=False).agg(
            returned=("returned", "max")
        )
        stats = pairs.groupby("l_orderkey").agg(
            nsupp=("l_suppkey", "nunique"), nret=("returned", "sum")
        )
        sole_orders = stats[(stats["nsupp"] > 1)
                            & (stats["nret"] == 1)].index
        sole = pairs[pairs["l_orderkey"].isin(sole_orders)
                     & (pairs["returned"] == 1)]
        out = (
            sole.groupby("l_suppkey", as_index=False)
            .size()
            .rename(columns={"size": "numwait"})
        )
        return out.astype({"l_suppkey": "int64", "numwait": "int64"})

    agg = (
        exchange(
            li.map_batches(combine, batch_format="pandas", batch_size=65536),
            "l_orderkey", per_part,
        )
        .groupby("l_suppkey")
        .aggregate(Sum("numwait", alias_name="numwait"))
    )

    sup = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    )
    names_ref = ray.put(
        dict(zip(sup.column("s_suppkey").to_pylist(),
                 sup.column("s_name").to_pylist()))
    )

    def finalize(batch: pa.Table) -> pa.Table:
        names = ray.get(names_ref)
        keys = [int(k) for k in batch.column("l_suppkey").to_pylist()]
        return pa.table({
            "s_suppkey": pa.array(keys, pa.int64()),
            "s_name": pa.array([names[k] for k in keys], pa.string()),
            "numwait": pa.array(
                [int(v) for v in batch.column("numwait").to_pylist()],
                pa.int64(),
            ),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


SQL_SOLE_RETURN_SUPPLIERS = """
WITH osr AS (
  SELECT l_orderkey, l_suppkey,
         MAX(CASE WHEN l_returnflag = 'R' THEN 1 ELSE 0 END) AS returned
  FROM lineitem GROUP BY l_orderkey, l_suppkey
),
wins AS (
  SELECT o1.l_orderkey, o1.l_suppkey FROM osr o1
  WHERE o1.returned = 1
    AND EXISTS (SELECT 1 FROM osr o2
                WHERE o2.l_orderkey = o1.l_orderkey
                  AND o2.l_suppkey <> o1.l_suppkey)
    AND NOT EXISTS (SELECT 1 FROM osr o3
                    WHERE o3.l_orderkey = o1.l_orderkey
                      AND o3.l_suppkey <> o1.l_suppkey
                      AND o3.returned = 1)
)
SELECT s.s_suppkey, s.s_name, COUNT(*)::BIGINT AS numwait
FROM wins w JOIN supplier s ON s.s_suppkey = w.l_suppkey
GROUP BY s.s_suppkey, s.s_name
"""


def q_sales_opportunity(sf_dir):
    """TPC-H Q22 shape: count + total balance, per nation, of customers
    with an above-average positive balance and no RECENT orders (the
    date-windowed NOT EXISTS keeps the result non-degenerate on the
    fixture). The global average is carried as an exact RATIONAL
    (sum_cents, count) from one combiner pass — the filter compares
    ``cents*cnt > sum`` in int64 so both engines agree bit-for-bit (no
    float average). The no-orders predicate is the Bloom-prefiltered
    exact anti-join (stages/joins.py:bloom_anti_join); the recent-orders
    side folds into a fixed-size bit array and only Bloom-hit candidates
    pay the hash shuffle."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    from .stages.joins import bloom_anti_join

    cust_cols = ["c_custkey", "c_nationkey", "c_acctbal"]

    def pos_partial(batch: pd.DataFrame) -> pd.DataFrame:
        cents = np.floor(batch["c_acctbal"] * 100 + 0.5).astype("int64")
        pos = cents[cents > 0]
        return pd.DataFrame({"s": [int(pos.sum())], "n": [int(len(pos))]})

    stats = (
        cached_read_parquet(f"{sf_dir}/customer.parquet",
                              columns=["c_acctbal"])
        .map_batches(pos_partial, batch_format="pandas")
        .to_pandas()
    )
    tot = int(stats["s"].sum())
    cnt = int(stats["n"].sum())

    def rich_customers():
        def above_avg(batch: pa.Table) -> pa.Table:
            cents = pc.cast(
                pc.floor(pc.add(
                    pc.multiply(batch.column("c_acctbal"),
                                pa.scalar(100.0)),
                    pa.scalar(0.5))),
                pa.int64(),
            )
            batch = batch.append_column("acctbal_cents", cents)
            # cents * cnt > tot  <=>  cents > tot/cnt, exactly, in int64
            mask = pc.greater(
                pc.multiply(cents, pa.scalar(cnt, pa.int64())),
                pa.scalar(tot, pa.int64()),
            )
            return batch.filter(mask)

        return cached_read_parquet(
            f"{sf_dir}/customer.parquet", columns=cust_cols
        ).map_batches(above_avg, batch_format="pyarrow")

    from datetime import datetime

    cutoff = datetime(1998, 1, 1)

    def recent(batch: pa.Table) -> pa.Table:
        d = batch.column("o_orderdate")
        return batch.filter(
            pc.greater_equal(d, pa.scalar(cutoff, type=d.type))
        ).select(["o_custkey"])

    orders = cached_read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate"]
    ).map_batches(recent, batch_format="pyarrow")
    lonely = bloom_anti_join(
        rich_customers, orders, on="c_custkey", right_on="o_custkey"
    )

    df = (
        lonely.groupby("c_nationkey")
        .aggregate(Count(alias_name="numcust"),
                   Sum("acctbal_cents", alias_name="totacctbal_cents"))
        .to_pandas()  # nation-cardinality (<=25 rows) — a true small result
    )
    out = pd.DataFrame({
        "c_nationkey": pd.Series(
            df["c_nationkey"] if len(df) else [], dtype="int64"
        ),
        "numcust": pd.Series(
            df["numcust"] if len(df) else [], dtype="int64"
        ),
        "totacctbal_cents": pd.Series(
            df["totacctbal_cents"] if len(df) else [], dtype="int64"
        ),
    })
    return _from_pandas_exact(out)


SQL_SALES_OPPORTUNITY = """
WITH cents AS (
  SELECT c_custkey, c_nationkey,
         CAST(FLOOR(c_acctbal*100 + 0.5) AS BIGINT) AS acctbal_cents
  FROM customer
),
thr AS (
  SELECT SUM(acctbal_cents) AS tot, COUNT(*) AS cnt
  FROM cents WHERE acctbal_cents > 0
)
SELECT c.c_nationkey::BIGINT AS c_nationkey,
       COUNT(*)::BIGINT AS numcust,
       SUM(c.acctbal_cents)::BIGINT AS totacctbal_cents
FROM cents c, thr
WHERE c.acctbal_cents * thr.cnt > thr.tot
  AND NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey
                    AND o.o_orderdate >= TIMESTAMP '1998-01-01')
GROUP BY c.c_nationkey
"""


def q_embedding_gram(sf_dir):
    """Distributed Gram matrix X^T X over the embedding column — the
    one-pass sufficient statistic for PCA / whitening / top-PC removal
    at corpus scale: each batch contributes a d×d partial (numpy matmul
    over EXACT int64 milli-quantized components), the shuffle carries
    only d(d+1)/2 upper-triangle cells per block, and the Ray Sum runs
    over dim² (not corpus-sized) groups. int64 stays exact up to ~3e11
    rows at |x|<=5; shard the corpus and stack Gram partials beyond
    that."""
    from ray.data.aggregate import Sum

    emb = cached_read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["embedding"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        mat = np.array(batch.column("embedding").to_pylist(),
                       dtype=np.float64)
        q = np.floor(mat * 1000 + 0.5).astype(np.int64)
        gram = q.T @ q
        iu = np.triu_indices(gram.shape[0])
        return pa.table({
            "i": pa.array(iu[0].astype(np.int64)),
            "j": pa.array(iu[1].astype(np.int64)),
            "dot_milli2": pa.array(gram[iu]),
        })

    agg = (
        emb.map_batches(partial, batch_format="pyarrow")
        .groupby(["i", "j"])
        .aggregate(Sum("dot_milli2", alias_name="dot_milli2"))
    )

    def finalize(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "i": pc.cast(batch.column("i"), pa.int64()),
            "j": pc.cast(batch.column("j"), pa.int64()),
            "dot_milli2": pc.cast(batch.column("dot_milli2"), pa.int64()),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


def boilerplate_fixture_docs():
    """Deterministic docs carrying real cross-doc boilerplate (the sf
    documents are all unique single sentences, so without these the
    removal path would never fire under the driver's gate): a footer
    in 6 docs and a banner in 4 (both >= the min_docs=3 bar →
    stripped), plus a sentence shared by only 2 docs (kept). Negative
    ids below -1000 cannot collide with the corpus or the msfix
    range."""
    docs = []
    footer = "subscribe to the newsletter today ."
    banner = "all rights reserved by the corpus owner ."
    rare = "this pair sentence appears twice only ."
    for i in range(8):
        sents = [f"unique body sentence number {i} for fixture doc ."]
        if i < 6:
            sents.append(footer)
        if i < 4:
            sents.insert(0, banner)
        if i in (6, 7):
            sents.append(rare)
        docs.append({
            "doc_id": -(1001 + i),
            "text": " ".join(sents),
            "lang": "en",
        })
    return docs


def q_boilerplate_clean(sf_dir):
    """Cross-document boilerplate sentence removal (RefinedWeb/CCNet
    line-dedup shape): sentences appearing in >= 3 distinct documents
    are stripped and each doc is reassembled from its survivors in
    original order (stages/dataops.py:remove_boilerplate_sentences —
    two streaming passes, one boilerplate-sized broadcast between
    them). The corpus is unioned with the deterministic boilerplate
    fixture so the gate exercises actual removals."""
    import ray.data

    from .stages.dataops import remove_boilerplate_sentences

    fix = boilerplate_fixture_docs()
    tbl = pa.table({
        "doc_id": pa.array([d["doc_id"] for d in fix], pa.int64()),
        "text": pa.array([d["text"] for d in fix], pa.string()),
        "lang": pa.array([d["lang"] for d in fix], pa.string()),
    })
    docs = _docs(sf_dir).union(ray.data.from_arrow(tbl))
    return remove_boilerplate_sentences(docs, min_docs=3)


def _sql_boilerplate_clean() -> str:
    rows = ",\n    ".join(
        "({id}, '{t}')".format(
            id=d["doc_id"], t=d["text"].replace("'", "''")
        )
        for d in boilerplate_fixture_docs()
    )
    return f"""
WITH sents AS (
  SELECT * FROM ({_sql_sentence_rows(f'''
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT * FROM (VALUES {rows}) bfix(doc_id, text)''')}) s
), freq AS (
  SELECT sentence, COUNT(DISTINCT doc_id) AS ndocs
  FROM sents GROUP BY sentence
), tagged AS (
  SELECT s.doc_id, s.sent_id, s.sentence,
         (f.ndocs >= 3) AS boiler
  FROM sents s JOIN freq f USING (sentence)
)
SELECT doc_id,
       SUM(CASE WHEN boiler THEN 0 ELSE 1 END)::BIGINT AS n_kept,
       SUM(CASE WHEN boiler THEN 1 ELSE 0 END)::BIGINT AS n_removed,
       COALESCE(string_agg(CASE WHEN NOT boiler THEN sentence END,
                           ' ' ORDER BY sent_id), '') AS clean_text
FROM tagged
GROUP BY doc_id
"""


def dupspan_fixture_docs():
    """Deterministic docs carrying real cross-doc duplicated SPANS for
    the dup_span_scrub gate: a 9-word passage embedded mid-doc in 3
    docs (coalesces to one maximal span each), one doc that repeats a
    5-gram within itself (within-doc occurrences count toward
    min_count, as in Lee et al.), one doc that IS the passage (fully
    scrubbed), and one clean doc. Ids below -2000 cannot collide with
    the corpus, the msfix range, or the boilerplate fixture."""
    passage = ("every large corpus repeats this exact nine word run"
               )  # 9 words
    return [
        {"doc_id": -2001, "text": f"intro words {passage} outro one"},
        {"doc_id": -2002, "text": f"second lead {passage} closing two"},
        {"doc_id": -2003, "text": f"third opener {passage} finale three"},
        {"doc_id": -2004,
         "text": "aa bb fixed five gram repeated inside cc fixed five "
                 "gram repeated inside dd"},
        {"doc_id": -2005, "text": passage},
        {"doc_id": -2006,
         "text": "wholly original fixture sentence with no repeats"},
    ]


def q_dup_span_scrub(sf_dir):
    """Exact duplicated-span scrubbing (Lee et al. 2022 shape): every
    word covered by a 5-gram occurring >= 2 times corpus-wide is
    removed, with overlapping/touching hits coalesced into maximal
    spans (stages/dataops.py:dup_span_scrub — join-free gram-partition
    duplicate detection, then one doc-keyed co-group that ships the
    text exactly once). The corpus is unioned with the deterministic
    span fixture so the gate exercises real multi-doc, within-doc and
    full-coverage scrubs."""
    import ray.data

    from .stages.dataops import dup_span_scrub

    fix = dupspan_fixture_docs()
    tbl = pa.table({
        "doc_id": pa.array([d["doc_id"] for d in fix], pa.int64()),
        "text": pa.array([d["text"] for d in fix], pa.string()),
    })
    docs = (
        _docs(sf_dir)
        .select_columns(["doc_id", "text"])
        .union(ray.data.from_arrow(tbl))
    )
    return dup_span_scrub(docs, n=5, min_count=2)


def _sql_dup_span_scrub() -> str:
    rows = ",\n    ".join(
        "({id}, '{t}')".format(
            id=d["doc_id"], t=d["text"].replace("'", "''")
        )
        for d in dupspan_fixture_docs()
    )
    return f"""
WITH alldocs AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT * FROM (VALUES {rows}) dfix(doc_id, text)
), toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[\\t\\n\\f\\r ]+'),
                     x -> x <> '') AS w
  FROM alldocs
), words AS (
  SELECT doc_id, (i - 1)::BIGINT AS pos, w[i] AS word
  FROM (SELECT doc_id, w, unnest(range(1, len(w) + 1)) AS i FROM toks)
), grams AS (
  SELECT doc_id, (i - 1)::BIGINT AS pos,
         array_to_string(w[i : i + 4], ' ') AS gram
  FROM (SELECT doc_id, w, unnest(range(1, len(w) - 5 + 2)) AS i
        FROM toks)
), dupg AS (
  SELECT doc_id, pos, pos + 4 AS endpos
  FROM (SELECT doc_id, pos,
               COUNT(*) OVER (PARTITION BY gram) AS cnt
        FROM grams)
  WHERE cnt >= 2
), isl AS (
  SELECT doc_id, pos, endpos,
         SUM(newisl) OVER (PARTITION BY doc_id ORDER BY pos
                           ROWS UNBOUNDED PRECEDING) AS island
  FROM (
    SELECT doc_id, pos, endpos,
           CASE WHEN pos > COALESCE(
                    MAX(endpos) OVER (PARTITION BY doc_id ORDER BY pos
                                      ROWS BETWEEN UNBOUNDED PRECEDING
                                      AND 1 PRECEDING), -2) + 1
                THEN 1 ELSE 0 END AS newisl
    FROM dupg)
), spans AS (
  SELECT doc_id, island, MIN(pos) AS s, MAX(endpos) AS e
  FROM isl GROUP BY doc_id, island
), nsp AS (
  SELECT doc_id, COUNT(*) AS n_spans FROM spans GROUP BY doc_id
), wcov AS (
  SELECT w.doc_id, w.pos, w.word,
         EXISTS(SELECT 1 FROM spans sp
                WHERE sp.doc_id = w.doc_id
                  AND w.pos BETWEEN sp.s AND sp.e) AS covered
  FROM words w
)
SELECT w.doc_id,
       COUNT(*)::BIGINT AS total_words,
       SUM(CASE WHEN covered THEN 1 ELSE 0 END)::BIGINT AS dup_words,
       COALESCE(MAX(nsp.n_spans), 0)::BIGINT AS n_spans,
       COALESCE(string_agg(CASE WHEN NOT covered THEN word END,
                           ' ' ORDER BY pos), '') AS clean_text
FROM wcov w LEFT JOIN nsp USING (doc_id)
GROUP BY w.doc_id
"""


# row-local statement shared verbatim by the engine (per Arrow batch,
# FROM batch) and the oracle (whole table, FROM orders): row-locality is
# what makes the distributed result equal the single-node one
_SQL_ROWLOCAL_ORDERS = """
SELECT o_orderkey,
       upper(o_orderpriority) AS priority,
       CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS total_cents,
       (o_orderdate >= TIMESTAMP '1995-01-01') AS recent
FROM {src}
WHERE o_orderstatus <> 'F' AND o_totalprice > 50000
"""


def q_sql_projection(sf_dir):
    """The DuckDB-per-batch extension surface
    (stages/dataops.py:DuckDBBatchSQL): an arbitrary row-local SQL
    projection+filter pushed into the distributed map — connection per
    worker process, zero-copy Arrow both ways. The oracle runs the IDENTICAL
    statement over the whole table, which is exactly the equivalence
    row-locality guarantees."""

    from .stages.dataops import sql_map_batches

    orders = cached_read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderstatus", "o_totalprice",
                 "o_orderdate", "o_orderpriority"],
    )
    return sql_map_batches(orders, _SQL_ROWLOCAL_ORDERS.format(src="batch"))


def q_user_customer_coverage(sf_dir):
    """FULL OUTER join exposure (stages/joins.py:full_outer_join — the
    tagged co-group scaffold, empty-side-safe, SQL null-key semantics):
    per-user event counts (users < 10) against a customer slice
    (custkey 5..14), so the gate sees left-only, matched, and
    right-only rows with real nulls on both sides."""
    from ray.data.aggregate import Count

    from .stages.joins import full_outer_join

    ev = (
        cached_read_parquet(
            f"{sf_dir}/events.parquet", columns=["user_id"]
        )
        .filter(expr="user_id < 10")
        .groupby("user_id")
        .aggregate(Count(alias_name="n_events"))
    )
    cust = cached_read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_mktsegment"],
    ).filter(expr="c_custkey >= 5 and c_custkey <= 14").map_batches(
        lambda b: pa.table({
            "cust_id": b.column("c_custkey"),
            "mktsegment": b.column("c_mktsegment"),
        }),
        batch_format="pyarrow",
    )
    return full_outer_join(ev, cust, on="user_id", right_on="cust_id")


SQL_USER_CUSTOMER_COVERAGE = """
WITH l AS (
  SELECT user_id, COUNT(*)::BIGINT AS n_events
  FROM events WHERE user_id < 10 GROUP BY user_id
), r AS (
  SELECT c_custkey AS cust_id, c_mktsegment AS mktsegment
  FROM customer WHERE c_custkey BETWEEN 5 AND 14
)
SELECT l.user_id, l.n_events, r.cust_id, r.mktsegment
FROM l FULL OUTER JOIN r ON l.user_id = r.cust_id
"""


def _setop_sides(sf_dir):
    li = lambda: cached_read_parquet(  # noqa: E731
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_partkey", "l_quantity"],
    )

    def even_part(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(
            pc.equal(pc.bit_wise_and(batch.column("l_partkey"), 1), 0)
        )

    left = li().map_batches(even_part, batch_format="pyarrow")
    right = li().filter(expr="l_quantity > 25")
    return left, right


def q_supplier_part_intersect(sf_dir):
    """SQL INTERSECT (distinct semantics) as a first-class operator
    (stages/dataops.py:set_op_distinct — per-batch distinct projection,
    one co-group ``exchange`` on the row, per-part membership):
    (supplier, part) pairs appearing both on even-part lineitems and on
    quantity>25 lineitems."""
    from .stages.dataops import set_op_distinct

    left, right = _setop_sides(sf_dir)
    return set_op_distinct(
        left, right, "intersect", cols=["l_suppkey", "l_partkey"]
    )


def q_supplier_part_except(sf_dir):
    """SQL EXCEPT (distinct) — the sibling of
    `supplier_part_intersect`: pairs on even-part lineitems never seen
    with quantity>25."""
    from .stages.dataops import set_op_distinct

    left, right = _setop_sides(sf_dir)
    return set_op_distinct(
        left, right, "except", cols=["l_suppkey", "l_partkey"]
    )


_SQL_SETOP = """
SELECT DISTINCT l_suppkey, l_partkey FROM lineitem WHERE l_partkey % 2 = 0
{op}
SELECT DISTINCT l_suppkey, l_partkey FROM lineitem WHERE l_quantity > 25
"""


def q_event_type_mode(sf_dir):
    """Deterministic per-user mode (most frequent event_type, ties to
    the lexicographically smaller type — stages/dataops.py:
    mode_per_group: combiner → ``exchange`` on the group →
    vectorized per-part argmax)."""

    from .stages.dataops import mode_per_group

    ev = cached_read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    return mode_per_group(ev, group_col="user_id", value_col="event_type")


SQL_EVENT_TYPE_MODE = """
SELECT user_id, event_type, n FROM (
  SELECT user_id, event_type, COUNT(*)::BIGINT AS n,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY COUNT(*) DESC, event_type) AS rk
  FROM events GROUP BY user_id, event_type
) WHERE rk = 1
"""


SQL_EMBEDDING_GRAM = """
WITH flat AS (
  SELECT vec_id, (i - 1)::BIGINT AS dim,
         CAST(FLOOR(CAST(embedding[i] AS DOUBLE) * 1000 + 0.5)
              AS BIGINT) AS q
  FROM (
    SELECT vec_id, embedding,
           unnest(range(1, len(embedding) + 1)) AS i
    FROM embeddings
  )
)
SELECT a.dim AS i, b.dim AS j, SUM(a.q * b.q)::BIGINT AS dot_milli2
FROM flat a JOIN flat b ON a.vec_id = b.vec_id AND a.dim <= b.dim
GROUP BY a.dim, b.dim
"""


# ---------------------------------------------------------------------------
# exact distributed percentiles + percentile-cutoff curation


def q_doc_length_percentiles(sf_dir):
    """Exact type-1 discrete percentiles of document length, computed by
    exchanging the VALUE DISTRIBUTION (dataops.value_distribution) —
    shuffle volume is the length domain, not the corpus. Rank rule
    ceil(q/1000*n) matches the SQL mirror's row_number() selection."""
    from .stages.dataops import exact_percentiles

    def with_len(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.append_column(
            "n_chars",
            pc.cast(pc.utf8_length(batch.column("text")), pa.int64()),
        )

    docs = _docs(sf_dir).map_batches(with_len, batch_format="pyarrow")
    return exact_percentiles(
        docs, "n_chars", (100, 250, 500, 750, 900, 990)
    )


def _sql_percentile_cuts(qs, src="documents", val="length(text)",
                         part=""):
    over = f"PARTITION BY {part} " if part else ""
    sel = ", ".join(
        f"max(CASE WHEN rn = GREATEST(1, CAST(CEIL({q}/1000.0 * n) AS BIGINT)) "
        f"THEN v END) AS p{q}" for q in qs
    )
    cols = (part + ", ") if part else ""
    grp = f"GROUP BY {part}" if part else ""
    return f"""
ranked AS (
  SELECT {cols}{val}::BIGINT AS v,
         row_number() OVER ({over}ORDER BY {val}) AS rn,
         count(*) OVER ({over.strip() or ''}) AS n
  FROM {src}
), cuts AS (
  SELECT {cols}{sel} FROM ranked {grp}
)"""


def _sql_doc_length_percentiles():
    qs = (100, 250, 500, 750, 900, 990)
    arms = "\nUNION ALL\n".join(
        f"SELECT {q}::BIGINT AS q_permille, p{q}::BIGINT AS value FROM cuts"
        for q in qs
    )
    return f"WITH {_sql_percentile_cuts(qs)}\n{arms}\nORDER BY q_permille"


def q_doc_length_percentiles_by_lang(sf_dir):
    """Per-language percentile profile (grouped variant — the by-key
    rides the same distribution exchange)."""
    from .stages.dataops import exact_percentiles

    def with_len(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.append_column(
            "n_chars",
            pc.cast(pc.utf8_length(batch.column("text")), pa.int64()),
        )

    docs = _docs(sf_dir).map_batches(with_len, batch_format="pyarrow")
    return exact_percentiles(docs, "n_chars", (250, 500, 750), by="lang")


def _sql_doc_length_percentiles_by_lang():
    qs = (250, 500, 750)
    arms = "\nUNION ALL\n".join(
        f"SELECT lang, {q}::BIGINT AS q_permille, p{q}::BIGINT AS value FROM cuts"
        for q in qs
    )
    return (
        f"WITH {_sql_percentile_cuts(qs, part='lang')}\n{arms}\n"
        "ORDER BY lang, q_permille"
    )


def q_length_clipped_docs(sf_dir):
    """Percentile-cutoff curation: keep docs whose length lies within the
    exact [p5, p95] band — pass 1 computes the two cutoffs from the
    value distribution, pass 2 re-streams the corpus filtering on two
    closure ints (dataops.percentile_clip; no broadcast table, no
    shuffle in pass 2)."""
    from .stages.dataops import percentile_clip

    def with_len(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.append_column(
            "n_chars",
            pc.cast(pc.utf8_length(batch.column("text")), pa.int64()),
        )

    docs = _docs(sf_dir).map_batches(with_len, batch_format="pyarrow")
    return percentile_clip(
        docs, "n_chars", lo_permille=50, hi_permille=950
    ).select_columns(["doc_id", "n_chars"])


def _sql_length_clipped_docs():
    return f"""
WITH {_sql_percentile_cuts((50, 950))}
SELECT d.doc_id, length(d.text)::BIGINT AS n_chars
FROM documents d, cuts
WHERE length(d.text) BETWEEN cuts.p50 AND cuts.p950
"""


def q_table_profile(sf_dir):
    """Column-profiling audit of the documents table (dataops.
    profile_table): per column n_rows / n_nulls / n_distinct / min /
    max in ONE streaming pass — one partial row per column per batch,
    merge group count = #columns. n_distinct is the repo-standard
    KMV rule: exact STRICTLY below k=65536 distinct values (every sf
    fixture is orders of magnitude under that, so it equals the
    oracle's COUNT(DISTINCT) here), the closed-form estimator at k and
    beyond (the 100-TB path — where this query stops being
    SQL-hash-gateable, like the other sketch entries)."""
    from .stages.dataops import profile_table

    docs = cached_read_parquet(f"{sf_dir}/documents.parquet")
    return profile_table(
        docs, ["doc_id", "text", "lang", "source", "n_chars"]
    )


def _sql_table_profile():
    arms = []
    for col in ("doc_id", "text", "lang", "source", "n_chars"):
        arms.append(f"""
SELECT '{col}' AS col, COUNT(*)::BIGINT AS n_rows,
       (COUNT(*) - COUNT({col}))::BIGINT AS n_nulls,
       COUNT(DISTINCT {col})::BIGINT AS n_distinct,
       CAST(MIN({col}) AS VARCHAR) AS min_v,
       CAST(MAX({col}) AS VARCHAR) AS max_v
FROM documents""")
    return "\nUNION ALL\n".join(arms)


# ---------------------------------------------------------------------------
# registry


def build_queries():
    return {
        # SQL-oracled operators
        "doc_sentences": q_doc_sentences,
        "doc_sentences_wordpieces": q_doc_sentences_wordpieces,
        "token_counts": q_token_counts,
        "lang_counts": q_lang_counts,
        "doc_hashes": q_doc_hashes,
        "exact_dedup_docs": q_exact_dedup_docs,
        "quality_scores": q_quality_scores,
        "ann_topk": q_ann_topk,
        "lineitem_agg": q_lineitem_agg,
        "revenue_by_nation": q_revenue_by_nation,
        "top_customers": q_top_customers,
        "events_windows": q_events_windows,
        "sessionize": q_sessionize,
        "mktsegment_stats": q_mktsegment_stats,
        "customers_per_region": q_customers_per_region,
        # pipeline operators (rows-only)
        "triples": q_triples,
        "triples_entities": q_triples_entities,
        "conj_splits": q_conj_splits,
        "conj_splits_coord": q_conj_splits_coord,
        "triples_coord": q_triples_coord,
        "graph_nodes": q_graph_nodes,
        "graph_edges": q_graph_edges,
        "components": q_components,
        "predicate_freq": q_predicate_freq,
        "violations": q_violations,
        "per_org_pairs": q_per_org_pairs,
        "carb_selfcheck": q_carb_selfcheck,
        "entity_filtered_triples": q_entity_filtered_triples,
        "text_stats": q_text_stats,
        "doc_length_percentiles": q_doc_length_percentiles,
        "doc_length_percentiles_by_lang": q_doc_length_percentiles_by_lang,
        "table_profile": q_table_profile,
        "length_clipped_docs": q_length_clipped_docs,
        "minhash_pairs": q_minhash_pairs,
        "near_dedup_corpus": q_near_dedup_corpus,
        "leakage_safe_splits": q_leakage_safe_splits,
        "simhash_pairs": q_simhash_pairs,
        "embedding_dups": q_embedding_dups,
        "embedding_dups_lsh": q_embedding_dups_lsh,
        "jaccard_pairs": q_jaccard_pairs,
        "top_terms": q_top_terms,
        "corpus_freq_scores": q_corpus_freq_scores,
        "importance_weights": q_importance_weights,
        "length_quantiles": q_length_quantiles,
        "doc_sample": q_doc_sample,
        "doc_sample_stratified": q_doc_sample_stratified,
        "clean_corpus": q_clean_corpus,
        "corpus_budget": q_corpus_budget,
        "mixture_weights": q_mixture_weights,
        "revenue_by_nation_salted": q_revenue_by_nation_salted,
        "events_last_order": q_events_last_order,
        "purchase_followups": q_purchase_followups,
        "top_docs_per_lang": q_top_docs_per_lang,
        "hopping_windows": q_hopping_windows,
        "doc_top_terms": q_doc_top_terms,
        "distinct_token_estimate": q_distinct_token_estimate,
        "repetition_stats": q_repetition_stats,
        "scrubbed_docs": q_scrubbed_docs,
        "term_postings": q_term_postings,
        "pagerank": q_pagerank,
        "winnow_fingerprints": q_winnow_fingerprints,
        "duplicate_spans": q_duplicate_spans,
        "customers_without_events": q_customers_without_events,
        "order_priority_counts": q_order_priority_counts,
        "returnflag_priority": q_returnflag_priority,
        "running_revenue": q_running_revenue,
        "event_gaps": q_event_gaps,
        "order_count_distribution": q_order_count_distribution,
        "revenue_rollup": q_revenue_rollup,
        "doc_length_histogram": q_doc_length_histogram,
        "lineitem_profile": q_lineitem_profile,
        "new_docs_vs_snapshot": q_new_docs_vs_snapshot,
        "heavy_hitters": q_heavy_hitters,
        "orders_checksum": q_orders_checksum,
        "conversion_funnel": q_conversion_funnel,
        "length_quantiles_by_lang": q_length_quantiles_by_lang,
        "doc_percentile_rank": q_doc_percentile_rank,
        "triangle_count": q_triangle_count,
        "shipping_priority": q_shipping_priority,
        "distinct_users_by_type": q_distinct_users_by_type,
        "event_type_cooccurrence": q_event_type_cooccurrence,
        "normalized_dedup_docs": q_normalized_dedup_docs,
        "quality_buckets": q_quality_buckets,
        "kmeans_clusters": q_kmeans_clusters,
        "hard_negatives": q_hard_negatives,
        "doc_chunks": q_doc_chunks,
        "semantic_dedup": q_semantic_dedup,
        "bpe_merges": q_bpe_merges,
        "bpe_token_counts": q_bpe_token_counts,
        "jaccard_join_exact": q_jaccard_join_exact,
        "communities": q_communities,
        "edge_provenance": q_edge_provenance,
        "kg_snapshot_diff": q_kg_snapshot_diff,
        "kcore": q_kcore,
        "supplier_name_pairs": q_supplier_name_pairs,
        "dataset_splits": q_dataset_splits,
        "decontaminated_docs": q_decontaminated_docs,
        "retention_cohorts": q_retention_cohorts,
        "bm25_topk": q_bm25_topk,
        "link_prediction": q_link_prediction,
        "source_overlap": q_source_overlap,
        "event_type_runs": q_event_type_runs,
        "term_pairs": q_term_pairs,
        "doc_sample_weighted": q_doc_sample_weighted,
        "packed_sequences": q_packed_sequences,
        "canonical_suppliers": q_canonical_suppliers,
        "embedding_alignment": q_embedding_alignment,
        "props_stats": q_props_stats,
        "doc_sample_exact_k": q_doc_sample_exact_k,
        "local_supplier_revenue": q_local_supplier_revenue,
        "nation_trade": q_nation_trade,
        "market_share": q_market_share,
        "small_quantity_revenue": q_small_quantity_revenue,
        "returned_item_customers": q_returned_item_customers,
        "label_centroids": q_label_centroids,
        "user_event_pivot": q_user_event_pivot,
        "user_event_unpivot": q_user_event_unpivot,
        "revenue_share": q_revenue_share,
        "training_order": q_training_order,
        "ngram_counts": q_ngram_counts,
        "novelty_scores": q_novelty_scores,
        "event_outliers": q_event_outliers,
        "large_orders": q_large_orders,
        "key_skew": q_key_skew,
        "range_bounds": q_range_bounds,
        "epoch_slice": q_epoch_slice,
        "component_sizes": q_component_sizes,
        "rolling_event_stats": q_rolling_event_stats,
        "forecast_revenue": q_forecast_revenue,
        "promo_revenue": q_promo_revenue,
        "top_supplier": q_top_supplier,
        "brand_bulk_revenue": q_brand_bulk_revenue,
        "sole_return_suppliers": q_sole_return_suppliers,
        "sales_opportunity": q_sales_opportunity,
        "embedding_gram": q_embedding_gram,
        "boilerplate_clean": q_boilerplate_clean,
        "dup_span_scrub": q_dup_span_scrub,
        "sql_projection": q_sql_projection,
        "khop_neighbors": q_khop_neighbors,
        "khop_neighbors_ds": q_khop_neighbors_ds,
        "user_customer_coverage": q_user_customer_coverage,
        "revenue_cube": q_revenue_cube,
        "supplier_part_intersect": q_supplier_part_intersect,
        "supplier_part_except": q_supplier_part_except,
        "event_type_mode": q_event_type_mode,
    }


def build_oracle_sql():
    return {
        "doc_sentences": _sql_doc_sentences(),
        "doc_sentences_wordpieces": _sql_doc_sentences_wordpieces(),
        "token_counts": SQL_TOKEN_COUNTS,
        "lang_counts": SQL_LANG_COUNTS,
        "doc_hashes": SQL_DOC_HASHES,
        "exact_dedup_docs": SQL_EXACT_DEDUP_DOCS,
        "quality_scores": SQL_QUALITY_SCORES,
        "ann_topk": _sql_ann_topk(),
        "lineitem_agg": SQL_LINEITEM_AGG,
        "revenue_by_nation": SQL_REVENUE_BY_NATION,
        "top_customers": SQL_TOP_CUSTOMERS,
        "events_windows": SQL_EVENTS_WINDOWS,
        "sessionize": SQL_SESSIONIZE,
        "mktsegment_stats": SQL_MKTSEGMENT_STATS,
        "customers_per_region": SQL_CUSTOMERS_PER_REGION,
        "text_stats": SQL_TEXT_STATS,
        "doc_length_percentiles": _sql_doc_length_percentiles(),
        "doc_length_percentiles_by_lang": _sql_doc_length_percentiles_by_lang(),
        "length_clipped_docs": _sql_length_clipped_docs(),
        "table_profile": _sql_table_profile(),
        "simhash_pairs": SQL_SIMHASH_PAIRS,
        "minhash_pairs": _sql_minhash_pairs(),
        "near_dedup_corpus": _sql_near_dedup_corpus(),
        "leakage_safe_splits": _sql_leakage_safe_splits(),
        "embedding_dups": SQL_EMBEDDING_DUPS,
        "embedding_dups_lsh": _sql_embedding_dups_lsh(),
        # labeler-pipeline oracles: the deterministic labeler + decode is
        # a pure word-list/md5 function of the sentence → expressible in
        # SQL end-to-end (openie_with_entities_ray/oracles.py)
        "triples": oracles.sql_triples(),
        "conj_splits": oracles.sql_conj_splits(),
        "conj_splits_coord": oracles.sql_conj_splits_coord(),
        "triples_coord": oracles.sql_triples_coord(),
        "predicate_freq": oracles.sql_predicate_freq(),
        "graph_nodes": oracles.sql_graph_nodes(),
        "graph_edges": oracles.sql_graph_edges(),
        "components": oracles.sql_components(),
        "triples_entities": oracles.sql_triples_entities(),
        "violations": oracles.sql_violations(),
        "carb_selfcheck": oracles.sql_carb_selfcheck(),
        "per_org_pairs": oracles.sql_per_org_pairs(),
        "entity_filtered_triples": oracles.sql_entity_filtered_triples(),
        "jaccard_pairs": _sql_jaccard_pairs(),
        "top_terms": SQL_TOP_TERMS,
        "corpus_freq_scores": SQL_CORPUS_FREQ_SCORES,
        "importance_weights": SQL_IMPORTANCE_WEIGHTS,
        "length_quantiles": SQL_LENGTH_QUANTILES,
        "doc_sample": SQL_DOC_SAMPLE,
        "doc_sample_stratified": SQL_DOC_SAMPLE_STRATIFIED,
        "clean_corpus": _sql_clean_corpus(),
        "corpus_budget": _sql_corpus_budget(),
        "mixture_weights": _sql_mixture_weights(),
        "revenue_by_nation_salted": SQL_REVENUE_BY_NATION,
        "events_last_order": SQL_EVENTS_LAST_ORDER,
        "purchase_followups": SQL_PURCHASE_FOLLOWUPS,
        "top_docs_per_lang": SQL_TOP_DOCS_PER_LANG,
        "hopping_windows": SQL_HOPPING_WINDOWS,
        "doc_top_terms": SQL_DOC_TOP_TERMS,
        "distinct_token_estimate": SQL_DISTINCT_TOKEN_ESTIMATE,
        "repetition_stats": SQL_REPETITION_STATS,
        "scrubbed_docs": SQL_SCRUBBED_DOCS,
        "term_postings": SQL_TERM_POSTINGS,
        "pagerank": oracles.sql_pagerank(),
        "winnow_fingerprints": SQL_WINNOW_FINGERPRINTS,
        "duplicate_spans": SQL_DUPLICATE_SPANS,
        "customers_without_events": SQL_CUSTOMERS_WITHOUT_EVENTS,
        "order_priority_counts": SQL_ORDER_PRIORITY_COUNTS,
        "returnflag_priority": SQL_RETURNFLAG_PRIORITY,
        "running_revenue": SQL_RUNNING_REVENUE,
        "event_gaps": SQL_EVENT_GAPS,
        "order_count_distribution": SQL_ORDER_COUNT_DISTRIBUTION,
        "revenue_rollup": SQL_REVENUE_ROLLUP,
        "doc_length_histogram": SQL_DOC_LENGTH_HISTOGRAM,
        "lineitem_profile": SQL_LINEITEM_PROFILE,
        "new_docs_vs_snapshot": SQL_NEW_DOCS_VS_SNAPSHOT,
        "heavy_hitters": SQL_HEAVY_HITTERS,
        "orders_checksum": SQL_ORDERS_CHECKSUM,
        "conversion_funnel": SQL_CONVERSION_FUNNEL,
        "length_quantiles_by_lang": SQL_LENGTH_QUANTILES_BY_LANG,
        "doc_percentile_rank": SQL_DOC_PERCENTILE_RANK,
        "triangle_count": _sql_triangle_count(),
        "shipping_priority": SQL_SHIPPING_PRIORITY,
        "distinct_users_by_type": SQL_DISTINCT_USERS_BY_TYPE,
        "event_type_cooccurrence": SQL_EVENT_TYPE_COOCCURRENCE,
        "normalized_dedup_docs": SQL_NORMALIZED_DEDUP_DOCS,
        "quality_buckets": SQL_QUALITY_BUCKETS,
        "doc_chunks": SQL_DOC_CHUNKS,
        "jaccard_join_exact": SQL_JACCARD_JOIN_EXACT,
        "communities": _sql_communities(),
        "edge_provenance": _sql_edge_provenance(),
        "kg_snapshot_diff": _sql_kg_snapshot_diff(),
        "kcore": _sql_kcore(),
        "supplier_name_pairs": SQL_SUPPLIER_NAME_PAIRS,
        "dataset_splits": SQL_DATASET_SPLITS,
        "decontaminated_docs": SQL_DECONTAMINATED_DOCS,
        "retention_cohorts": SQL_RETENTION_COHORTS,
        "bm25_topk": SQL_BM25_TOPK,
        "link_prediction": _sql_link_prediction(),
        "source_overlap": _sql_source_overlap(),
        "event_type_runs": SQL_EVENT_TYPE_RUNS,
        "term_pairs": SQL_TERM_PAIRS,
        "doc_sample_weighted": SQL_DOC_SAMPLE_WEIGHTED,
        "packed_sequences": SQL_PACKED_SEQUENCES,
        "canonical_suppliers": SQL_CANONICAL_SUPPLIERS,
        "embedding_alignment": SQL_EMBEDDING_ALIGNMENT,
        "props_stats": SQL_PROPS_STATS,
        "doc_sample_exact_k": SQL_DOC_SAMPLE_EXACT_K,
        "local_supplier_revenue": SQL_LOCAL_SUPPLIER_REVENUE,
        "nation_trade": SQL_NATION_TRADE,
        "market_share": SQL_MARKET_SHARE,
        "small_quantity_revenue": SQL_SMALL_QUANTITY_REVENUE,
        "returned_item_customers": SQL_RETURNED_ITEM_CUSTOMERS,
        "label_centroids": SQL_LABEL_CENTROIDS,
        "user_event_pivot": SQL_USER_EVENT_PIVOT,
        "user_event_unpivot": SQL_USER_EVENT_UNPIVOT.format(pivot=SQL_USER_EVENT_PIVOT),
        "revenue_share": SQL_REVENUE_SHARE,
        "training_order": SQL_TRAINING_ORDER,
        "ngram_counts": SQL_NGRAM_COUNTS,
        "novelty_scores": SQL_NOVELTY_SCORES,
        "event_outliers": SQL_EVENT_OUTLIERS,
        "large_orders": SQL_LARGE_ORDERS,
        "key_skew": SQL_KEY_SKEW,
        "range_bounds": _sql_range_bounds(),
        "epoch_slice": SQL_EPOCH_SLICE,
        "component_sizes": _sql_component_sizes(),
        "rolling_event_stats": SQL_ROLLING_EVENT_STATS,
        "kmeans_clusters": _sql_kmeans_clusters(),
        "hard_negatives": _sql_hard_negatives(),
        "semantic_dedup": _sql_semantic_dedup(),
        "forecast_revenue": SQL_FORECAST_REVENUE,
        "promo_revenue": SQL_PROMO_REVENUE,
        "top_supplier": SQL_TOP_SUPPLIER,
        "brand_bulk_revenue": SQL_BRAND_BULK_REVENUE,
        "sole_return_suppliers": SQL_SOLE_RETURN_SUPPLIERS,
        "sales_opportunity": SQL_SALES_OPPORTUNITY,
        "embedding_gram": SQL_EMBEDDING_GRAM,
        "boilerplate_clean": _sql_boilerplate_clean(),
        "dup_span_scrub": _sql_dup_span_scrub(),
        "sql_projection": _SQL_ROWLOCAL_ORDERS.format(src="orders"),
        "khop_neighbors": _sql_khop_neighbors(),
        "khop_neighbors_ds": _sql_khop_neighbors(),
        "user_customer_coverage": SQL_USER_CUSTOMER_COVERAGE,
        "revenue_cube": SQL_REVENUE_CUBE,
        "supplier_part_intersect": _SQL_SETOP.format(op="INTERSECT"),
        "supplier_part_except": _SQL_SETOP.format(op="EXCEPT"),
        "event_type_mode": SQL_EVENT_TYPE_MODE,
    }
