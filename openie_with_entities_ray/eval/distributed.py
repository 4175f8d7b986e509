"""Distributed CaRB-style P/R: the J3 gold⨝predicted co-group as a Ray
groupby + per-sentence kernel + global sum (SURVEY.md A4/J3).

The reference joins per-sentence gold and predicted extraction lists in
driver memory (/root/reference/carb/carb.py:102-119). Here both sides are
Datasets; rows are tagged with their side, unioned, grouped per
normalized sentence key (carb.py:393-396 semantics) with
``stages/exchange.py:exchange_per_key`` (one Ray group per part, never
per sentence), and each group emits one partial-counter row
(zero-threshold point of the PR sweep: greedy one-to-one precision
matching + per-gold max recall). A tiny driver sum finishes. Scales
to arbitrarily many sentences — no corpus-wide dicts.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from ..stages.exchange import exchange_per_key
from .benchmark import normalize_key
from .matcher import MatchTuple, binary_linient_tuple_match


def _tag(ds, side: str):
    def add(batch: pa.Table) -> pa.Table:
        keys = [
            normalize_key(s) for s in batch.column("sentence").to_pylist()
        ]
        cols = {
            "sent_key": pa.array(keys, pa.string()),
            "side": pa.array([side] * batch.num_rows, pa.string()),
            "rel": batch.column("rel"),
            "arg1": batch.column("arg1"),
            "arg2": batch.column("arg2"),
        }
        return pa.table(cols)

    return ds.map_batches(add, batch_format="pyarrow")


def _group_counts(group: pd.DataFrame) -> pd.DataFrame:
    # the reference's output data model keys by sentence TEXT corpus-wide
    # with exact dedup (model.py:609-634): duplicate sentences merge, so
    # identical tuples from different docs must collapse before matching
    group = group.drop_duplicates(subset=["side", "rel", "arg1", "arg2"])
    gold = group[group["side"] == "g"]
    pred = group[group["side"] == "p"]
    if len(gold) == 0:
        # the reference iterates GOLD sentences only (carb/carb.py:62-
        # 314): predictions on sentences absent from gold never enter
        # either denominator — same guard as carb_sweep's group_arrays
        return pd.DataFrame(
            {"p_num": [], "p_den": [], "r_num": [], "r_den": []},
            dtype="float64",
        )
    gold_tuples = [
        MatchTuple(r, [a1, a2])
        for r, a1, a2 in zip(gold["rel"], gold["arg1"], gold["arg2"])
    ]
    pred_tuples = [
        MatchTuple(r, [a1, a2])
        for r, a1, a2 in zip(pred["rel"], pred["arg1"], pred["arg2"])
    ]
    scores = [
        [binary_linient_tuple_match(g, e) for e in pred_tuples]
        for g in gold_tuples
    ]
    r_num = sum(max((s[1] for s in row), default=0.0) for row in scores)
    p_num = 0.0
    sel_rows: list = []
    sel_cols: list = []
    for _ in range(min(len(gold_tuples), len(pred_tuples))):
        best = (-1.0, -1, -1)
        for i in range(len(scores)):
            if i in sel_rows:
                continue
            for j in range(len(pred_tuples)):
                if j in sel_cols:
                    continue
                if scores[i][j][0] > best[0]:
                    best = (scores[i][j][0], i, j)
        sel_rows.append(best[1])
        sel_cols.append(best[2])
        p_num += best[0]
    return pd.DataFrame(
        {
            "p_num": [p_num],
            "p_den": [float(len(pred_tuples))],
            "r_num": [r_num],
            "r_den": [float(len(gold_tuples))],
        }
    )


def carb_sweep(gold_ds, pred_ds):
    """Distributed FULL PR sweep (A4): two passes.

    1. distinct predicted confidences — tiny (2-decimal rounding caps the
       cardinality at ~100), collected to the driver and captured in the
       kernel closure;
    2. per-sentence co-group → additive (p, pl, r, rl) arrays over the
       global threshold list (benchmark.sentence_contribution) → one
       driver-side array sum → AUC / optimal F1.

    ``pred_ds`` rows need (sentence, rel, arg1, arg2, confidence);
    ``gold_ds`` rows (sentence, rel, arg1, arg2)."""
    import numpy as np

    from .benchmark import finish_curve, sentence_contribution
    from .matcher import binary_linient_tuple_match

    conf_rows = pred_ds.select_columns(["confidence"]).unique("confidence")
    thresholds = sorted(conf_rows)

    def tag_pred(batch: pa.Table) -> pa.Table:
        keys = [normalize_key(s) for s in batch.column("sentence").to_pylist()]
        return pa.table(
            {
                "sent_key": pa.array(keys, pa.string()),
                "side": pa.array(["p"] * batch.num_rows, pa.string()),
                "rel": batch.column("rel"),
                "arg1": batch.column("arg1"),
                "arg2": batch.column("arg2"),
                "confidence": batch.column("confidence"),
            }
        )

    def tag_gold(batch: pa.Table) -> pa.Table:
        keys = [normalize_key(s) for s in batch.column("sentence").to_pylist()]
        return pa.table(
            {
                "sent_key": pa.array(keys, pa.string()),
                "side": pa.array(["g"] * batch.num_rows, pa.string()),
                "rel": batch.column("rel"),
                "arg1": batch.column("arg1"),
                "arg2": batch.column("arg2"),
                "confidence": pa.array([1.0] * batch.num_rows, pa.float64()),
            }
        )

    sides = [
        gold_ds.map_batches(tag_gold, batch_format="pyarrow"),
        pred_ds.map_batches(tag_pred, batch_format="pyarrow"),
    ]

    def group_arrays(group: pd.DataFrame) -> pd.DataFrame:
        group = group.drop_duplicates(
            subset=["side", "rel", "arg1", "arg2", "confidence"]
        )
        gold = group[group["side"] == "g"]
        if len(gold) == 0:
            # predictions for a sentence absent from gold do not enter the
            # sweep (carb.py iterates gold sentences only)
            return pd.DataFrame(
                {k: pd.Series(dtype=object) for k in ("p", "pl", "r", "rl")}
            )
        pred = group[group["side"] == "p"]
        gold_exs = [
            (r, [a1, a2], 1.0)
            for r, a1, a2 in zip(gold["rel"], gold["arg1"], gold["arg2"])
        ]
        pred_exs = [
            (r, [a1, a2], c)
            for r, a1, a2, c in zip(
                pred["rel"], pred["arg1"], pred["arg2"], pred["confidence"]
            )
        ]
        p, pl, r, rl = sentence_contribution(
            gold_exs, pred_exs, thresholds, binary_linient_tuple_match
        )
        return pd.DataFrame(
            {"p": [p.tobytes()], "pl": [pl.tobytes()],
             "r": [r.tobytes()], "rl": [rl.tobytes()]}
        )

    partials = exchange_per_key(sides, "sent_key", group_arrays)
    num_conf = len(thresholds)

    # Finish ON WORKERS: per-batch combiner sums the per-sentence byte
    # arrays into one (idx, p, pl, r, rl) row per threshold, then a Ray
    # Sum over num_conf (~100, 2-decimal-capped) groups. The driver only
    # ever sees num_conf rows — no materialization scaling with sentence
    # count (the q_violations shape, queries.py).
    def batch_sums(batch: pd.DataFrame) -> pd.DataFrame:
        import numpy as np

        p = np.zeros(num_conf)
        pl = np.zeros(num_conf)
        r = np.zeros(num_conf)
        rl = np.zeros(num_conf)
        for pb, plb, rb, rlb in zip(
            batch["p"], batch["pl"], batch["r"], batch["rl"]
        ):
            p += np.frombuffer(pb, dtype=np.float64)
            pl += np.frombuffer(plb, dtype=np.float64)
            r += np.frombuffer(rb, dtype=np.float64)
            rl += np.frombuffer(rlb, dtype=np.float64)
        return pd.DataFrame(
            {
                "idx": np.arange(num_conf, dtype=np.int64),
                "p": p,
                "pl": pl,
                "r": r,
                "rl": rl,
            }
        )

    from ray.data.aggregate import Sum

    sums = (
        partials.map_batches(
            batch_sums, batch_format="pandas", batch_size=65536
        )
        .groupby("idx")
        .aggregate(
            Sum("p", alias_name="p"),
            Sum("pl", alias_name="pl"),
            Sum("r", alias_name="r"),
            Sum("rl", alias_name="rl"),
        )
        .take_all()  # num_conf rows — a true small result
    )
    p = np.zeros(num_conf)
    pl = np.zeros(num_conf)
    r = np.zeros(num_conf)
    rl = np.zeros(num_conf)
    for row in sums:
        i = int(row["idx"])
        p[i] = row["p"]
        pl[i] = row["pl"]
        r[i] = row["r"]
        rl[i] = row["rl"]
    return finish_curve(p, pl, r, rl, thresholds)


def carb_precision_recall(gold_ds, pred_ds):
    """Both datasets: rows with (sentence, rel, arg1, arg2). Returns
    (precision, recall) at the zero-confidence threshold."""
    from ray.data.aggregate import Sum

    sides = [_tag(gold_ds, "g"), _tag(pred_ds, "p")]
    partials = exchange_per_key(sides, "sent_key", _group_counts)
    # tree-aggregate the four additive counters on workers — the driver
    # receives one row, never the per-sentence partials
    tot = partials.aggregate(
        Sum("p_num", alias_name="p_num"),
        Sum("p_den", alias_name="p_den"),
        Sum("r_num", alias_name="r_num"),
        Sum("r_den", alias_name="r_den"),
    )
    if tot is None:  # every sentence was pred-only: no gold anywhere
        tot = {}
    p_num = tot.get("p_num") or 0.0
    p_den = tot.get("p_den") or 0.0
    r_num = tot.get("r_num") or 0.0
    r_den = tot.get("r_den") or 0.0
    precision = p_num / p_den if p_den else 1.0
    recall = r_num / r_den if r_den else 0.0
    return float(precision), float(recall)
