"""The coarse-partition exchange (stages/exchange.py): properties of the
partition function, the exchange itself, and a guard that every module
of the package and the jobs routes its coarse shuffles through it."""

import glob
import json
import os
import random
import re
import subprocess
import sys

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from openie_with_entities_ray.stages.exchange import key_parts

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_INT64 = st.integers(-(2**63), 2**63 - 1)
_NUL_TEXT = st.text(alphabet=st.sampled_from(list("ab\x00é ")), max_size=6)
_TYPES = [pa.int64(), pa.int32(), pa.float64(), pa.string(),
          pa.large_string(), pa.binary(), pa.bool_(), pa.null()]


@given(st.sampled_from(_TYPES), st.integers(1, 70))
@settings(max_examples=40, deadline=None)
def test_zero_rows_and_all_null_keys(typ, num_parts):
    """A 0-row batch yields no part ids; an all-null key column, of any
    type, sends every row to the one null part (0)."""
    empty = pa.table({"k": pa.array([], typ)})
    assert key_parts(empty, "k", num_parts).tolist() == []
    nulls = pa.table({"k": pa.nulls(5, typ), "j": pa.nulls(5, typ)})
    assert key_parts(nulls, "k", num_parts).tolist() == [0] * 5
    assert key_parts(nulls, ["k", "j"], num_parts).tolist() == [0] * 5


@given(st.lists(st.tuples(_INT64, st.booleans()), min_size=1, max_size=40),
       st.integers(1, 70))
@settings(max_examples=100, deadline=None)
def test_int_key_parts_ignore_nulls_and_width(rows, num_parts):
    """An int64 key's part is the same with and without nulls in its
    batch, as int32 when it fits, and as the float64 a pandas batch
    widens it to when that float is exact."""
    vals = [v for v, _ in rows]
    with_nulls = [None if null else v for v, null in rows]
    clean = key_parts(pa.table({"k": pa.array(vals, pa.int64())}), "k",
                      num_parts).tolist()
    mixed = key_parts(pa.table({"k": pa.array(with_nulls, pa.int64())}),
                      "k", num_parts).tolist()
    for (v, null), p_clean, p_mixed in zip(rows, clean, mixed):
        assert 0 <= p_clean < num_parts
        assert p_mixed == (0 if null else p_clean)
    small = [(v, p) for v, p in zip(vals, clean) if -(2**31) <= v < 2**31]
    if small:
        t32 = pa.table({"k": pa.array([v for v, _ in small], pa.int32())})
        assert key_parts(t32, "k", num_parts).tolist() == [
            p for _, p in small
        ]
    exact = [(v, p) for v, p in zip(vals, clean) if abs(v) <= 2**53]
    if exact:
        tf = pa.table({"k": pa.array([float(v) for v, _ in exact] + [None])})
        assert key_parts(tf, "k", num_parts).tolist() == [
            p for _, p in exact
        ] + [0]


@given(st.lists(_NUL_TEXT, min_size=1, max_size=30), st.integers(1, 70))
@settings(max_examples=100, deadline=None)
def test_string_key_parts_hash_utf8_bytes(keys, num_parts):
    """Keys with embedded NULs hash as their whole utf-8 bytes, the same
    in any batch and as string, large_string or binary."""
    parts = key_parts(pa.table({"k": keys}), "k", num_parts).tolist()
    alone = [key_parts(pa.table({"k": [k]}), "k", num_parts)[0]
             for k in keys]
    assert parts == alone
    for typ, vals in ((pa.large_string(), keys),
                      (pa.binary(), [k.encode("utf-8") for k in keys])):
        t = pa.table({"k": pa.array(vals, typ)})
        assert key_parts(t, "k", num_parts).tolist() == parts


def _sample_table():
    rng = random.Random(7)
    alphabet = "ab\x00é漢 "
    n = 500
    return pa.table(
        {
            "s": [
                None if rng.random() < 0.1 else "".join(
                    rng.choice(alphabet) for _ in range(rng.randint(0, 8))
                )
                for _ in range(n)
            ],
            "i": pa.array(
                [None if rng.random() < 0.1
                 else rng.randint(-(2**63), 2**63 - 1) for _ in range(n)],
                pa.int64(),
            ),
        }
    )


def test_parts_equal_in_a_fresh_process():
    """The partition function is process-stable (no per-process hash
    seed): a fresh interpreter with a different PYTHONHASHSEED computes
    the same part ids for strings, ints and composite keys."""
    t = _sample_table()
    mine = {
        "s": key_parts(t, "s", 64).tolist(),
        "i": key_parts(t, "i", 64).tolist(),
        "si": key_parts(t, ["s", "i"], 7).tolist(),
    }
    code = (
        "import json, sys\n"
        "sys.path.insert(0, 'tests')\n"
        "from test_exchange import _sample_table\n"
        "from openie_with_entities_ray.stages.exchange import key_parts\n"
        "t = _sample_table()\n"
        "print(json.dumps({'s': key_parts(t, 's', 64).tolist(),"
        " 'i': key_parts(t, 'i', 64).tolist(),"
        " 'si': key_parts(t, ['s', 'i'], 7).tolist()}))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=ROOT)
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout) == mine


@given(
    st.lists(st.tuples(st.one_of(st.none(), _NUL_TEXT),
                       st.integers(-5, 5)), max_size=40)
)
@settings(max_examples=8, deadline=None)
def test_per_part_kernel_output_invariant_over_num_parts(ray_session, rows):
    """A per-part kernel (NUL-safe per-key sum) and the per-key variant
    return the same rows for num_parts 1, 3 and 64 — and the same as a
    plain Python group-by, so no key is split across parts or merged."""
    import pandas as pd
    import ray.data

    from openie_with_entities_ray.stages.dataops import composite_key_bytes
    from openie_with_entities_ray.stages.exchange import (
        exchange,
        exchange_per_key,
    )

    expected: dict = {}
    for k, v in rows:
        expected[k] = expected.get(k, 0) + v
    table = pa.table(
        {
            "k": pa.array([k for k, _ in rows], pa.string()),
            "v": pa.array([v for _, v in rows], pa.int64()),
        }
    )

    def part_sums(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(_b=composite_key_bytes(g["k"]))
        out = g.groupby("_b", as_index=False, dropna=False).agg(
            k=("k", "first"), v=("v", "sum")
        )
        return out[["k", "v"]]

    def key_sum(sub: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k": [sub["k"].iloc[0]], "v": [sub["v"].sum()]})

    def collect(ds) -> dict:
        df = ds.to_pandas()
        got = {}
        for k, v in zip(df["k"], df["v"]) if len(df) else ():
            k = None if not isinstance(k, str) else k
            assert k not in got, "a key was split across parts"
            got[k] = int(v)
        return got

    for num_parts in (1, 3, 64):
        ds = ray.data.from_arrow(table).repartition(3)
        assert collect(exchange(ds, "k", part_sums,
                                num_parts=num_parts)) == expected
        assert collect(exchange_per_key(ds, "k", key_sum,
                                        num_parts=num_parts)) == expected


def test_ported_modules_compute_no_partition_themselves():
    """Every coarse shuffle of the package and the jobs goes through
    stages/exchange.py: outside it, no module may call ``.map_groups(``
    or ``_cluster_parts()`` (the hand-written groupby→map_groups and
    its part-count prologue), and outside functions/codecs.py (whose
    zlib is the PNG codec) none may compute a zlib/crc32 partition."""
    shuffle = re.compile(r"_cluster_parts\(\)|\.map_groups\(")
    crc = re.compile(r"zlib|crc32")
    files = sorted(
        glob.glob(os.path.join(ROOT, "openie_with_entities_ray", "**",
                               "*.py"), recursive=True)
        + glob.glob(os.path.join(ROOT, "jobs", "*.py"))
    )
    assert len(files) > 30
    hits = []
    for path in files:
        rel = os.path.relpath(path, ROOT)
        with open(path, encoding="utf-8") as f:
            for i, line in enumerate(f, 1):
                if ((rel != "openie_with_entities_ray/stages/exchange.py"
                     and shuffle.search(line))
                        or (rel != "openie_with_entities_ray/functions/"
                            "codecs.py" and crc.search(line))):
                    hits.append(f"{rel}:{i}: {line.strip()}")
    assert not hits, "\n".join(hits)
