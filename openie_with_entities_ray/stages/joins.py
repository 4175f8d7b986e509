"""Skew-aware joins (north rule: "explicit hash partitioning and salted
keys for skewed popular entities").

``Dataset.join`` hash-partitions both sides by the join key, so a hot
key (a Zipf-head entity, a celebrity user id) funnels ALL of its rows
into one aggregator partition — the straggler that caps a 100 TB join.
:func:`salted_join` breaks the hot partition by salting: the BIG side
gets a round-robin salt in [0, num_salts) (any per-row value works —
the salt never reaches the output), the SMALL-ISH side is replicated
once per salt, and the join key becomes (key, salt), spreading each hot
key over ``num_salts`` partitions. Inner-join semantics are preserved
exactly: every (left row, right row) key match meets in exactly one
salted partition.

Cost model: the replicated side pays num_salts x its size in shuffle
traffic — use it when one side is small enough to replicate but too
large (or too frequently re-joined) to broadcast, and the other side is
skewed. A truly tiny side should stay a ``ray.put`` broadcast lookup
(see revenue_by_nation); a balanced large-large join should stay a
plain ``Dataset.join``.
"""

from __future__ import annotations

import pyarrow as pa

from .dataops import cluster_cpus
from .exchange import exchange

_SALT = "__salt"


def salted_join(
    big_ds,
    rep_ds,
    *,
    on: str,
    right_on: str | None = None,
    num_salts: int | None = None,
    num_partitions: int | None = None,
):
    """Inner join with the BIG (possibly key-skewed) side salted and the
    other side replicated ``num_salts`` times. Returns the joined
    Dataset without the salt column; output rows are exactly those of
    the plain inner join (pytest-gated).

    The replicated side is small by contract; it is materialized so an
    EMPTY side short-circuits to a typed 0-row result instead of
    feeding Ray's native hash join an all-empty build (which crashes in
    the shuffle finalizer — the CLAUDE.md empty-side rule), and the
    partition count is capped by its row count so no build partition
    is empty."""
    import numpy as np

    import ray.data

    if right_on is None:
        right_on = on
    if num_salts is None:
        num_salts = max(2, cluster_cpus() // 4)
    if num_partitions is None:
        num_partitions = max(2, cluster_cpus() // 4)

    rep_ds = rep_ds.materialize()
    n_rep = rep_ds.count()
    if n_rep == 0:
        lsch, rsch = big_ds.schema(), rep_ds.schema()
        cols = {
            n: pa.array([], _as_arrow_type(t))
            for n, t in zip(lsch.names, lsch.types)
        }
        for n, t in zip(rsch.names, rsch.types):
            if n != right_on:
                cols[n] = pa.array([], _as_arrow_type(t))
        return ray.data.from_arrow(pa.table(cols))
    num_partitions = max(1, min(num_partitions, n_rep))

    def add_salt(batch: pa.Table) -> pa.Table:
        # round-robin within the batch: uniform by construction, no RNG,
        # and irrelevant to the output (the salt only routes the row)
        return batch.append_column(
            _SALT,
            pa.array(np.arange(batch.num_rows) % num_salts, pa.int64()),
        )

    def replicate(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        idx = pa.array(
            [i for i in range(n) for _ in range(num_salts)], pa.int64()
        )
        out = batch.take(idx)
        return out.append_column(
            _SALT,
            pa.array(list(range(num_salts)) * n, pa.int64()),
        )

    joined = big_ds.map_batches(add_salt, batch_format="pyarrow").join(
        rep_ds.map_batches(replicate, batch_format="pyarrow"),
        join_type="inner",
        num_partitions=num_partitions,
        on=(on, _SALT),
        right_on=(right_on, _SALT),
    )
    return joined.drop_columns([_SALT])


# ---------------------------------------------------------------------------
# custom temporal joins Ray Data lacks (SURVEY §2 extension surface):
# as-of join and range join, both expressed as ONE co-partitioning
# ``exchange`` on the equi-key + a vectorized per-partition kernel.
# Partitioning assumption (documented per the task contract): all rows
# of one equi-key fit in a partition — the same assumption every
# hash-partitioned groupby makes; a time-skewed corpus would
# range-partition on time with boundary replication instead.
#
# Null semantics mirror SQL comparisons: a null equi-key (or null
# time) matches nothing — as-of still EMITS such left rows with null
# payload (LEFT semantics); range drops them (inner semantics). Int
# columns travel as nullable Int64 end-to-end (never widened through
# float64, so >2^53 ids survive bit-exact).

_SIDE = "__side"
_KEY = "__key"


def _key_type(lt, rt):
    """The one Arrow type both sides' equi-keys are cast to in the shared
    ``__key`` column the exchange hashes: equal keys must hash equally,
    so an int32 side meets an int64 side as int64, an int side meets a
    float side as float64, and any other mix meets as strings."""
    if lt == rt or pa.types.is_null(rt):
        return lt
    if pa.types.is_null(lt):
        return rt
    if pa.types.is_integer(lt) and pa.types.is_integer(rt):
        return pa.int64()
    if all(pa.types.is_integer(t) or pa.types.is_floating(t)
           for t in (lt, rt)):
        return pa.float64()
    return pa.string()


def _conform_union(left_ds, right_ds, *, left_key: str, right_key: str,
                   left_schema=None, right_schema=None):
    """Tag each side, null-pad to the shared superset schema (fixed
    column order + explicit types, so Ray's shuffle sees ONE schema) and
    copy each side's equi-key into the shared ``__key`` column; the
    caller ``exchange``s the two arms on ``__key``. Returns ([left_arm,
    right_arm], fields) where fields maps every payload column to its
    pyarrow type.

    ``left_schema``/``right_schema`` (pyarrow.Schema) override the
    schema probe: Ray reports ``schema() is None`` for any
    executed-EMPTY dataset even when its blocks are typed, so a
    chained join whose input can be legitimately empty (e.g. a
    dimension subset that matched nothing at small scale) must declare
    its columns explicitly."""
    lschema = left_schema if left_schema is not None else left_ds.schema()
    rschema = right_schema if right_schema is not None else right_ds.schema()
    if lschema is None or rschema is None:
        # Ray loses the schema of an EMPTY dataset once a transform
        # (e.g. repartition) touches it — from_arrow on a 0-row table
        # keeps it, repartition() of the same returns None. The join
        # needs both sides' column types to build the null-padded
        # superset; fail with the remedy rather than AttributeError.
        side = "left" if lschema is None else "right"
        raise ValueError(
            f"{side} side has no observable schema (an empty dataset "
            "whose transforms erased it); pass the un-transformed "
            "typed dataset, or skip the empty-side op on the caller "
            "side"
        )
    overlap = set(lschema.names) & set(rschema.names)
    if overlap:
        raise ValueError(
            f"left/right column names must be disjoint (rename first): "
            f"{sorted(overlap)}"
        )

    fields = [(n, _as_arrow_type(t))
              for n, t in zip(lschema.names, lschema.types)]
    fields += [(n, _as_arrow_type(t))
               for n, t in zip(rschema.names, rschema.types)]
    types = dict(fields)
    key_type = _key_type(types[left_key], types[right_key])

    def conform(side: int, key_col: str):
        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            cols = {}
            for name, typ in fields:
                if name in batch.column_names:
                    cols[name] = batch.column(name)
                else:
                    cols[name] = pa.nulls(n, typ)
            cols[_SIDE] = pa.array([side] * n, pa.int64())
            cols[_KEY] = batch.column(key_col).cast(key_type)
            return pa.table(cols)

        return fn

    arms = [
        left_ds.map_batches(conform(0, left_key), batch_format="pyarrow"),
        right_ds.map_batches(conform(1, right_key), batch_format="pyarrow"),
    ]
    return arms, types


def _as_arrow_type(t):
    """Schema type → Arrow type: a PANDAS-block dataset reports numpy
    dtypes / python types in ``schema().types``; typed constructors
    (pa.nulls, pa.array) need real Arrow types. Shared by the co-group
    join conform stage and graph_algos' khop frontier typing."""
    if isinstance(t, pa.DataType):
        return t
    if t in (str, object) or str(t) == "object":
        return pa.string()
    import numpy as np

    return pa.from_numpy_dtype(np.dtype(t))


def _to_pandas_exact(table: pa.Table):
    """Arrow → pandas keeping every integer column as nullable Int64:
    the default conversion widens null-bearing int columns to float64,
    which silently rounds ids above 2^53."""
    import pandas as pd

    return table.to_pandas(
        types_mapper=lambda t: pd.Int64Dtype() if pa.types.is_integer(
            t
        ) else None
    )


def _as_numpy_keys(df, fields, cols):
    """Cast null-free key/time columns to numpy dtypes (merge_asof and
    searchsorted need them); payload columns stay nullable Int64."""
    for c in cols:
        if pa.types.is_integer(fields[c]):
            df[c] = df[c].astype("int64")
    return df


def asof_join(
    left_ds,
    right_ds,
    *,
    on: str,
    by: str,
    right_on: str,
    right_by: str,
    right_cols: list | None = None,
    tiebreak: str | None = None,
    direction: str = "backward",
    num_parts: int | None = None,
):
    """As-of join: every left row + the payload of the single right row
    with the greatest ``right_on <= on`` (direction='backward'; exact
    matches allowed) and the same ``by == right_by`` key — null payload
    when no such row exists (LEFT-join semantics; a null left key or
    null ``on`` also yields null payload, as in SQL).

    Ties on ``right_on`` are broken toward the greatest ``tiebreak``
    value (pass a unique right column to make the result deterministic
    under ANY partitioning — required for the oracle hash gate).

    Shape: one co-partitioning shuffle on the equi-key, then pandas
    ``merge_asof`` (compiled, sorted-merge) inside each partition —
    per-left-row output, partition-invariant."""
    import pandas as pd

    if right_cols is None:
        right_cols = []

    arms, fields = _conform_union(
        left_ds, right_ds, left_key=by, right_key=right_by,
    )
    lnames = list(left_ds.schema().names)
    rnames = list(right_ds.schema().names)
    rneed = sorted(
        set(right_cols) | {right_on, right_by}
        | ({tiebreak} if tiebreak else set()),
        key=rnames.index,
    )
    out_fields = [(n, fields[n]) for n in lnames] + [
        (n, fields[n]) for n in right_cols
    ]

    def empty_out() -> pa.Table:
        return pa.table({n: pa.array([], t) for n, t in out_fields})

    def to_arrays(frame, null_payload: bool):
        return [
            pa.nulls(len(frame), t)
            if (null_payload and n in right_cols)
            else pa.Array.from_pandas(frame[n], type=t)
            for n, t in out_fields
        ]

    def kernel(batch: pa.Table) -> pa.Table:
        df = _to_pandas_exact(batch)
        l = df[df[_SIDE] == 0][lnames]
        r = df[df[_SIDE] == 1][rneed]
        if len(l) == 0:
            return empty_out()
        l_mask = l[by].isna() | l[on].isna()
        l_null, l = l[l_mask], l[~l_mask]
        r = r[~(r[right_by].isna() | r[right_on].isna())]
        chunks = []
        if len(l):
            l = _as_numpy_keys(l.copy(), fields, [by, on])
            if len(r):
                r = _as_numpy_keys(r.copy(), fields, [right_by, right_on])
                if tiebreak is not None:
                    # stable pre-sort so merge_asof's pick among equal
                    # right_on values is the GREATEST tiebreak: backward
                    # takes the LAST such row (ascending), forward takes
                    # the FIRST (descending)
                    r = r.sort_values(
                        tiebreak, kind="mergesort",
                        ascending=(direction != "forward"),
                    )
                r = r.sort_values(right_on, kind="mergesort")
                l = l.sort_values(on, kind="mergesort")
                out = pd.merge_asof(
                    l, r, left_on=on, right_on=right_on,
                    left_by=by, right_by=right_by,
                    direction=direction, allow_exact_matches=True,
                )
                chunks.append(to_arrays(out, False))
            else:
                chunks.append(to_arrays(l, True))
        if len(l_null):
            chunks.append(to_arrays(l_null, True))
        if not chunks:
            return empty_out()
        arrays = [
            cols[0] if len(cols) == 1 else pa.concat_arrays(list(cols))
            for cols in zip(*chunks)
        ]
        return pa.table(dict(zip([n for n, _ in out_fields], arrays)))

    return exchange(arms, _KEY, kernel, batch_format="pyarrow",
                    num_parts=num_parts)


def range_join(
    left_ds,
    right_ds,
    *,
    left_key: str,
    right_key: str,
    left_time: str,
    right_lo: str,
    right_hi: str,
    left_cols: list,
    right_cols: list,
    num_parts: int | None = None,
):
    """Inner range join: every (right interval, left row) pair with
    ``left_key == right_key`` and ``right_lo <= left_time <= right_hi``
    (both bounds inclusive; null keys/times match nothing). Emits
    ``right_cols + left_cols``.

    Shape: one co-partitioning shuffle on the equi-key; inside each
    partition the left side is sorted by (key, time) once and each
    right interval resolves to a contiguous slice via two vectorized
    ``searchsorted`` calls per key group — no per-pair Python, no
    cartesian materialization beyond the actual matches."""
    import numpy as np

    arms, fields = _conform_union(
        left_ds, right_ds, left_key=left_key, right_key=right_key,
    )
    lnames = list(left_ds.schema().names)
    rnames = list(right_ds.schema().names)
    out_fields = [(n, fields[n]) for n in right_cols] + [
        (n, fields[n]) for n in left_cols
    ]

    def kernel(batch: pa.Table) -> pa.Table:
        df = _to_pandas_exact(batch)
        l = df[df[_SIDE] == 0][lnames]
        r = df[df[_SIDE] == 1][rnames]
        l = l[~(l[left_key].isna() | l[left_time].isna())]
        r = r[
            ~(
                r[right_key].isna()
                | r[right_lo].isna()
                | r[right_hi].isna()
            )
        ]
        if len(l) == 0 or len(r) == 0:
            return pa.table({n: pa.array([], t) for n, t in out_fields})
        l = _as_numpy_keys(l.copy(), fields, [left_key, left_time])
        r = _as_numpy_keys(
            r.copy(), fields, [right_key, right_lo, right_hi]
        )
        l = l.sort_values([left_key, left_time], kind="mergesort")
        lkeys = l[left_key].to_numpy()
        ltimes = l[left_time].to_numpy()
        uk, seg_starts = np.unique(lkeys, return_index=True)
        seg_ends = np.append(seg_starts[1:], len(lkeys))

        out_l_idx: list = []
        out_r_idx: list = []
        r = r.sort_values(right_key, kind="mergesort")
        rkeys = r[right_key].to_numpy()
        rlo = r[right_lo].to_numpy()
        rhi = r[right_hi].to_numpy()
        ruk, r_starts = np.unique(rkeys, return_index=True)
        r_ends = np.append(r_starts[1:], len(rkeys))
        seg_of = {k: i for i, k in enumerate(uk)}
        for k, rs, re_ in zip(ruk, r_starts, r_ends):
            si = seg_of.get(k)
            if si is None:
                continue
            ls, le = seg_starts[si], seg_ends[si]
            times = ltimes[ls:le]
            lo_pos = np.searchsorted(times, rlo[rs:re_], side="left")
            hi_pos = np.searchsorted(times, rhi[rs:re_], side="right")
            lengths = hi_pos - lo_pos
            total = int(lengths.sum())
            if total == 0:
                continue
            starts_rep = np.repeat(lo_pos, lengths)
            offs = np.arange(total) - np.repeat(
                np.cumsum(lengths) - lengths, lengths
            )
            out_l_idx.append(ls + starts_rep + offs)
            out_r_idx.append(np.repeat(np.arange(rs, re_), lengths))
        if not out_l_idx:
            return pa.table({n: pa.array([], t) for n, t in out_fields})
        li = np.concatenate(out_l_idx)
        ri = np.concatenate(out_r_idx)
        cols = {}
        for n, t in out_fields:
            src = r.iloc[ri][n] if n in right_cols else l.iloc[li][n]
            cols[n] = pa.Array.from_pandas(
                src.reset_index(drop=True), type=t
            )
        return pa.table(cols)

    return exchange(arms, _KEY, kernel, batch_format="pyarrow",
                    num_parts=num_parts)


def equi_join(
    left_ds,
    right_ds,
    *,
    on: str,
    right_on: str,
    num_parts: int | None = None,
    left_schema=None,
    right_schema=None,
):
    """Inner hash equi-join on the tagged co-group scaffold. Unlike
    Ray's native ``Dataset.join`` this is safe when either side (or any
    hash partition) is EMPTY — an empty side simply produces zero rows
    instead of a schema-less block that crashes the Arrow join
    finalizer (github.com/ray-project/ray/issues/53727 family; see
    CLAUDE.md "Ray hash join empty-partition hazard").

    Null keys match nothing (SQL inner semantics). Column names must be
    disjoint across the sides; both key columns are kept in the output.

    Shape: ONE co-partitioning shuffle on the key, then a compiled
    pandas merge per partition — same exchange count as the native
    join, partition-invariant output."""
    arms, fields = _conform_union(
        left_ds, right_ds, left_key=on, right_key=right_on,
        left_schema=left_schema, right_schema=right_schema,
    )
    lnames = list((left_schema if left_schema is not None
                   else left_ds.schema()).names)
    rnames = list((right_schema if right_schema is not None
                   else right_ds.schema()).names)
    out_fields = [(n, fields[n]) for n in lnames + rnames]

    def empty_out() -> pa.Table:
        return pa.table({n: pa.array([], t) for n, t in out_fields})

    def kernel(batch: pa.Table) -> pa.Table:
        df = _to_pandas_exact(batch)
        l = df[df[_SIDE] == 0][lnames]
        r = df[df[_SIDE] == 1][rnames]
        l = l[~l[on].isna()]
        r = r[~r[right_on].isna()]
        if len(l) == 0 or len(r) == 0:
            return empty_out()
        out = l.merge(r, left_on=on, right_on=right_on, how="inner")
        cols = {
            n: pa.Array.from_pandas(out[n].reset_index(drop=True),
                                    type=t)
            for n, t in out_fields
        }
        return pa.table(cols)

    return exchange(arms, _KEY, kernel, batch_format="pyarrow",
                    num_parts=num_parts)


# ---------------------------------------------------------------------------
# Bloom-prefiltered anti-join


_BLOOM_SEED_A = 0x9E3779B97F4A7C15
_BLOOM_SEED_B = 0xBF58476D1CE4E5B9


def _splitmix64(x):
    """Vectorized splitmix64 finalizer over a uint64 numpy array."""
    import numpy as np

    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x += np.uint64(_BLOOM_SEED_A)
        z = x
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_BLOOM_SEED_B)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return z


def _bloom_positions(keys, num_bits: int, num_hashes: int, *, is_int: bool):
    """Kirsch–Mitzenmacher double hashing: k bit positions per key from
    two splitmix64-derived hashes. ``keys`` is a null-free Python list.

    ``is_int`` selects the hash path and MUST be derived from the key
    column's ARROW TYPE by every caller (the ``exchange.key_parts``
    rule): deciding per batch from the values would let one null/odd
    value flip a whole batch to the md5 path while the other side
    hashed the same keys on the int path — Bloom false NEGATIVES that
    silently drop matching rows from the exact verify stage. Both sides'
    key columns must share the type family (int with int, string with
    string)."""
    import hashlib as _hl

    import numpy as np

    if is_int:
        raw = np.array(keys, dtype=np.int64).view(np.uint64)
    else:
        raw = np.array(
            [
                int.from_bytes(
                    _hl.md5(str(k).encode("utf-8")).digest()[:8], "little"
                )
                for k in keys
            ],
            dtype=np.uint64,
        )
    h1 = _splitmix64(raw)
    h2 = _splitmix64(raw ^ np.uint64(_BLOOM_SEED_B)) | np.uint64(1)
    m = np.uint64(num_bits)
    with np.errstate(over="ignore"):
        return [
            ((h1 + np.uint64(i) * h2) % m).astype(np.int64)
            for i in range(num_hashes)
        ]


def build_bloom_bits(ds, key: str, *, num_bits: int = 1 << 20,
                     num_hashes: int = 4):
    """Fold a dataset's key column into a Bloom bit array: one stateless
    pass emits a packed ``num_bits/8``-byte partial filter per batch and
    the driver ORs the partials (rows = number of batches, each a fixed
    few hundred KB — bounded regardless of corpus size). Returns a
    ``numpy.uint8`` array of length ``num_bits``."""
    import numpy as np

    def partial(batch: pa.Table) -> pa.Table:
        bits = np.zeros(num_bits, dtype=bool)
        col = batch.column(key)
        # null build keys match nothing (SQL NOT EXISTS) — never set bits
        keys = [k for k in col.to_pylist() if k is not None]
        if keys:
            for pos in _bloom_positions(
                keys, num_bits, num_hashes,
                is_int=pa.types.is_integer(col.type),
            ):
                bits[pos] = True
        return pa.table({"bits": pa.array([np.packbits(bits).tobytes()])})

    packed = ds.map_batches(
        partial, batch_format="pyarrow", batch_size=65536
    ).take_all()
    acc = np.zeros(num_bits // 8, dtype=np.uint8)
    for row in packed:
        acc |= np.frombuffer(row["bits"], dtype=np.uint8)
    return np.unpackbits(acc).astype(np.uint8)


def bloom_anti_join(
    big_ds_fn,
    build_ds,
    *,
    on: str,
    right_on: str | None = None,
    num_bits: int = 1 << 20,
    num_hashes: int = 4,
    num_partitions: int | None = None,
):
    """EXACT anti-join (rows of the big side whose key has no match in
    the build side; NULL keys never match, so NULL-keyed probe rows
    survive — SQL NOT EXISTS semantics), with a Bloom prefilter pruning
    the probe side before the shuffle — the canonical 100-TB anti-join
    shape: the filter is fixed-size (num_bits/8 bytes) however large
    the build side, Bloom misses are DEFINITE non-matches (no false
    negatives) and stream straight to the output without touching the
    shuffle, and only the Bloom-hit candidate slice pays the
    co-partitioning exchange, where a per-part vectorized ``isin``
    removes the false positives exactly. The exchange is the module's
    tagged co-group, not Ray's native hash join: the candidate slice is
    routinely tiny (pure fp-rate when the sides are disjoint) and the
    native join builds schemaless partitions when a side's partition is
    empty (see graph_algos.py's partition-cap note); the co-group kernel
    handles empty sides explicitly.

    ``big_ds_fn`` is a zero-arg callable returning the probe Dataset —
    called twice (once per branch) so each branch re-reads the source
    lazily instead of pinning the whole probe side in the object store;
    at production scale two pruned column reads are cheaper than a
    corpus-sized ``materialize()``.
    """
    import ray

    import numpy as np

    if right_on is None:
        right_on = on

    bits = build_bloom_bits(
        build_ds, right_on, num_bits=num_bits, num_hashes=num_hashes
    )
    if not bits.any():  # empty build side: every probe row survives
        return big_ds_fn()
    bits_ref = ray.put(bits)

    def flag(keep_maybe: bool):
        def fn(batch: pa.Table) -> pa.Table:
            b = ray.get(bits_ref)
            col = batch.column(on)
            vals = col.to_pylist()
            if not vals:
                return batch
            # null probe keys never match: definite non-match stream
            maybe = np.zeros(len(vals), dtype=bool)
            idx = [i for i, v in enumerate(vals) if v is not None]
            if idx:
                sub = np.ones(len(idx), dtype=bool)
                for pos in _bloom_positions(
                    [vals[i] for i in idx], num_bits, num_hashes,
                    is_int=pa.types.is_integer(col.type),
                ):
                    sub &= b[pos].astype(bool)
                maybe[idx] = sub
            return batch.filter(pa.array(maybe if keep_maybe else ~maybe))

        return fn

    definite = big_ds_fn().map_batches(flag(False), batch_format="pyarrow")

    # build side projected to ONE renamed key column — nothing else
    # ships, and the name can't collide with a probe column
    build_keys = build_ds.map_batches(
        lambda b: pa.table({"__bloom_key": b.column(right_on)}),
        batch_format="pyarrow",
    )
    cands = big_ds_fn().map_batches(flag(True), batch_format="pyarrow")
    arms, fields = _conform_union(
        cands, build_keys, left_key=on, right_key="__bloom_key",
    )
    out_fields = [
        (n, t) for n, t in fields.items() if n != "__bloom_key"
    ]

    def kernel(batch: pa.Table) -> pa.Table:
        df = _to_pandas_exact(batch)
        left = df[df[_SIDE] == 0]
        rkeys = set(df.loc[df[_SIDE] == 1, "__bloom_key"].dropna())
        keep = left[on].isna() | ~left[on].isin(rkeys)
        out = left[keep]
        return pa.table(
            {
                n: pa.Array.from_pandas(
                    out[n].reset_index(drop=True), type=t
                )
                for n, t in out_fields
            }
        )

    survivors = exchange(arms, _KEY, kernel, batch_format="pyarrow",
                         num_parts=num_partitions)
    return definite.union(survivors)


def outer_join(
    left_ds,
    right_ds,
    *,
    on: str,
    right_on: str,
    how: str = "full",
    num_parts: int | None = None,
    left_schema=None,
    right_schema=None,
):
    """LEFT / RIGHT / FULL OUTER hash equi-join on the tagged co-group
    scaffold — matched rows plus the preserved side(s)' unmatched rows
    padded with nulls. SQL null-key semantics: a null-key row matches
    nothing but (on a preserved side) still APPEARS in the output —
    pandas' outer merge would wrongly match NaN keys to each other, so
    null-key rows are split out before the merge and the preserved
    sides' appended afterwards.

    Same scaffold, exchange count and empty-side safety as
    :func:`equi_join`; column names must be disjoint; both key columns
    are kept (the unmatched side's key is null, exactly as SQL returns
    it)."""
    import pandas as pd

    if how not in ("left", "right", "full"):
        raise ValueError(f"how must be left/right/full, got {how!r}")
    merge_how = {"full": "outer", "left": "left", "right": "right"}[how]
    arms, fields = _conform_union(
        left_ds, right_ds, left_key=on, right_key=right_on,
        left_schema=left_schema, right_schema=right_schema,
    )
    lnames = list((left_schema if left_schema is not None
                   else left_ds.schema()).names)
    rnames = list((right_schema if right_schema is not None
                   else right_ds.schema()).names)
    out_fields = [(n, fields[n]) for n in lnames + rnames]

    def empty_out() -> pa.Table:
        return pa.table({n: pa.array([], t) for n, t in out_fields})

    def kernel(batch: pa.Table) -> pa.Table:
        df = _to_pandas_exact(batch)
        l = df[df[_SIDE] == 0][lnames]
        r = df[df[_SIDE] == 1][rnames]
        ln, lx = l[~l[on].isna()], l[l[on].isna()]
        rn, rx = r[~r[right_on].isna()], r[r[right_on].isna()]
        parts = []
        if len(ln) or len(rn):
            parts.append(
                ln.merge(rn, left_on=on, right_on=right_on,
                         how=merge_how)
            )
        if len(lx) and how in ("left", "full"):
            parts.append(lx)
        if len(rx) and how in ("right", "full"):
            parts.append(rx)
        if not parts:
            return empty_out()
        out = pd.concat(parts, ignore_index=True)
        out = out.reindex(columns=[n for n, _ in out_fields])
        cols = {
            n: pa.Array.from_pandas(out[n], type=t)
            for n, t in out_fields
        }
        return pa.table(cols)

    return exchange(arms, _KEY, kernel, batch_format="pyarrow",
                    num_parts=num_parts)


def full_outer_join(left_ds, right_ds, *, on: str, right_on: str,
                    num_parts: int | None = None):
    """FULL OUTER equi-join — :func:`outer_join` with ``how="full"``."""
    return outer_join(
        left_ds, right_ds, on=on, right_on=right_on, how="full",
        num_parts=num_parts,
    )
