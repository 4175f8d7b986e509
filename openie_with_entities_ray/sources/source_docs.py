"""source_docs table: readers + deterministic synthetic generator.

The engine's input is the north-rule table ``(repo, path, commit, lang,
content)`` (BASELINE.json input_hint). Two ways to get one:

- :func:`read_source_docs` maps the driver's ``documents.parquet``
  (``doc_id, text, lang, source, n_chars``) onto the source_docs shape
  (``text → content``, FIXTURES.md F1) with column pruning at the read;
- :func:`synthetic_source_docs` generates the FIXTURES.md F1/F2 corpus —
  source files whose comments embed a controlled grammar of sentences
  (SVO, coordinations, is-of copulas, appositives, entity mentions,
  unbreakable-word vetoes) — as a pure function of (seed, row index), so
  any two runs at any parallelism produce identical tables.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa

from ..schemas import SOURCE_DOCS


def read_source_docs(sf_dir: str, columns=None, num_blocks: int | None = None,
                     replicate: int = 1):
    """documents.parquet → source_docs-shaped Dataset (prunes at the read).

    ``num_blocks``: the sf documents table is a single small parquet file —
    ONE read block — so without a repartition every downstream stage runs
    as a single task regardless of cluster size (at production scale the
    file count provides natural block parallelism instead).

    ``replicate``: deterministic R-fold corpus replication with distinct
    commit provenance — used by the benchmark to give the pipeline enough
    work to measure throughput rather than fixed startup overhead.
    """
    from ..memo import cached_read_parquet

    ds = cached_read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "lang", "source"],
    )
    if replicate > 1:
        def rep(batch: pa.Table) -> pa.Table:
            return pa.concat_tables(
                [
                    batch.set_column(
                        0, "doc_id",
                        pa.array(
                            [i * replicate + r for i in batch.column("doc_id").to_pylist()],
                            pa.int64(),
                        ),
                    )
                    for r in range(replicate)
                ]
            )

        ds = ds.map_batches(rep, batch_format="pyarrow")
    if num_blocks:
        ds = ds.repartition(num_blocks)

    def to_source_docs(batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        sources = batch.column("source").to_pylist()
        return pa.table(
            {
                "repo": pa.array([f"corpus/{s}" for s in sources], pa.string()),
                "path": pa.array(
                    [f"docs/doc_{i}.txt" for i in doc_ids], pa.string()
                ),
                "commit": pa.array(
                    [format(i, "012x") for i in doc_ids], pa.string()
                ),
                "lang": batch.column("lang"),
                "content": batch.column("text"),
            }
        )

    return ds.map_batches(to_source_docs, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# synthetic corpus (FIXTURES.md F1/F2 grammar)

_PEOPLE = ["Alice", "Bob", "Carol", "Dave", "Erin", "Frank", "Grace"]
_ORGS = ["Acme Corp", "Globex", "Initech", "Umbrella Systems", "Hooli", "Vandelay"]
_LOCS = ["New York", "London", "Tokyo", "Berlin", "Austin", "Paris"]
_VERBS = ["founded", "acquired", "joined", "launched", "acquired", "leads"]
_ROLES = ["CEO", "founder", "director", "architect", "engineer"]
_LANGS = ["py", "java", "js", "go"]


def _pick(seq, h, salt):
    return seq[(h >> salt) % len(seq)]


def synthetic_sentence(i: int, seed: int = 42) -> str:
    """One deterministic sentence; grammar cycles through the constructs the
    kernels must exercise (FIXTURES.md F2)."""
    h = int.from_bytes(
        hashlib.md5(f"{seed}:{i}".encode()).digest()[:8], "little"
    )
    kind = i % 6
    p1, p2, p3 = _pick(_PEOPLE, h, 0), _pick(_PEOPLE, h, 3), _pick(_PEOPLE, h, 6)
    org = _pick(_ORGS, h, 9)
    loc = _pick(_LOCS, h, 12)
    verb = _pick(_VERBS, h, 15)
    role = _pick(_ROLES, h, 18)
    if kind == 0:  # simple SVO
        return f"{p1} {verb} {org} ."
    if kind == 1:  # coordination → conj split
        return f"{p1} , {p2} and {p3} {verb} {org} in {loc} ."
    if kind == 2:  # appositive → rel_case copula
        return f"{p1} , the {role} of {org} , {verb} {_pick(_ORGS, h, 21)} ."
    if kind == 3:  # loc/time argument
        return f"{org} was founded in {loc} ."
    if kind == 4:  # unbreakable veto: coordination must NOT split
        return f"the sum of {p1} and {p2} increased ."
    # kind == 5: two-clause
    return f"{p1} joined {org} and {p2} joined {_pick(_ORGS, h, 24)} ."


def synthetic_doc(i: int, seed: int = 42):
    """One deterministic source_docs row: 1-8 sentences embedded as comments
    between filler code lines (FIXTURES.md F1)."""
    h = int.from_bytes(hashlib.md5(f"doc:{seed}:{i}".encode()).digest()[:8], "little")
    n_sent = 1 + h % 8
    lang = _LANGS[i % len(_LANGS)]
    marker = "#" if lang == "py" else "//"
    lines = []
    for k in range(n_sent):
        lines.append(f"{marker} {synthetic_sentence(i * 31 + k, seed)}")
        lines.append(f"x_{k} = {k}" if lang == "py" else f"int x_{k} = {k};")
    content = "\n".join(lines) + "\n"
    return {
        "repo": f"org{i % 7}/repo{i % 23}",
        "path": f"src/mod{i % 11}/file{i}.{lang}",
        "commit": hashlib.sha1(f"c{i}".encode()).hexdigest()[:12],
        "lang": lang,
        "content": content,
    }


def _docs_table(ids, seed: int) -> pa.Table:
    """``schemas.SOURCE_DOCS`` rows of the synthetic docs ``ids``."""
    rows = [synthetic_doc(i, seed) for i in ids]
    return pa.table({k: [r[k] for r in rows] for k in SOURCE_DOCS.names},
                    schema=SOURCE_DOCS)


def synthetic_source_docs_table(n: int, seed: int = 42) -> pa.Table:
    return _docs_table(range(n), seed)


def synthetic_source_docs(n: int, seed: int = 42, parallelism: int = 8):
    """Distributed generator: ray.data.range → map_batches over row ids, so
    the corpus is generated on workers (no driver materialization) and is a
    pure function of (seed, id) at any scale."""
    import ray.data

    def gen(batch: pa.Table) -> pa.Table:
        return _docs_table(batch.column("id").to_pylist(), seed)

    return ray.data.range(n, override_num_blocks=parallelism).map_batches(
        gen, batch_format="pyarrow"
    )


def _normalize_docs(ds, *, default_lang: str = "en",
                    default_source: str = "ingest"):
    """Coerce an arbitrary ingest Dataset to the documents contract
    ``(doc_id int64, text string, lang string, source string)``:
    ``doc_id``/``text`` are required (KeyError otherwise — fail loud at
    the first batch, not deep in a pipeline), ``lang``/``source`` are
    filled with defaults when the ingest format lacks them, extra
    columns are dropped, column order is fixed."""

    def conform(batch: pa.Table) -> pa.Table:
        names = set(batch.column_names)
        for req in ("doc_id", "text"):
            if req not in names:
                raise KeyError(
                    f"ingest batch lacks required column {req!r}; "
                    f"has {sorted(names)}"
                )
        n = batch.num_rows
        return pa.table({
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "text": batch.column("text").cast(pa.string()),
            "lang": (batch.column("lang").cast(pa.string())
                     if "lang" in names
                     else pa.array([default_lang] * n, pa.string())),
            "source": (batch.column("source").cast(pa.string())
                       if "source" in names
                       else pa.array([default_source] * n, pa.string())),
        })

    return ds.map_batches(conform, batch_format="pyarrow")


def read_docs_jsonl(paths, **normalize_kwargs):
    """Documents from JSON-Lines file(s) (one object per line — the
    interchange format most crawled-corpus dumps arrive in), normalized
    to the documents contract by :func:`_normalize_docs`. Reading
    streams per file via ``ray.data.read_json``; at scale the file
    count provides block parallelism, same as the parquet path."""
    import ray.data

    return _normalize_docs(ray.data.read_json(paths), **normalize_kwargs)


def read_docs_csv(paths, **normalize_kwargs):
    """Documents from CSV file(s) (header row required), normalized to
    the documents contract by :func:`_normalize_docs`."""
    import ray.data

    return _normalize_docs(ray.data.read_csv(paths), **normalize_kwargs)
