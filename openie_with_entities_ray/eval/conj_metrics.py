"""Conjunction P/R/F1 counters (A5) — semantics of the reference's
Counter/Record/Conjunction (/root/reference/metric.py:18-58,137-195,298-364):

- per coordinator index present in the GOLD coords: tp if both sides have
  a coordination there (tp_t if correct under the criteria, tp_f
  otherwise), fn if only gold, tn if both None; fp only when gold maps the
  index to None but pred has a coordination — predicted-only indices are
  NOT counted (the reference iterates gold keys only);
- criteria: WHOLE (span endpoints), OUTER (first+last conjunct), INNER
  (the conjunct pair around the cc), EXACT (all conjuncts);
- precision = tp_t / (tp + fp), recall = tp_t / (tp + fn) [Shimbo 2007].

Counters are plain mergeable dicts, so the distributed shape is per-batch
partials summed in a tiny reduce.
"""

from __future__ import annotations

from typing import Dict

CRITERIA = ("whole", "outer", "inner", "exact")


def _pair_around(coord, index):
    """metric.py:97-108 get_pair: the two conjuncts straddling ``index``."""
    conjuncts = coord.conjuncts
    for i in range(1, len(conjuncts)):
        if conjuncts[i][0] > index:
            return (conjuncts[i - 1], conjuncts[i])
    raise LookupError(f"no conjunct pair around index={index}")


def _is_correct(criteria: str, pred, true, cc) -> bool:
    p, t = pred.conjuncts, true.conjuncts
    if criteria == "whole":
        return p[0][0] == t[0][0] and p[-1][1] == t[-1][1]
    if criteria == "outer":
        return p[0] == t[0] and p[-1] == t[-1]
    if criteria == "inner":
        return _pair_around(pred, cc) == _pair_around(true, cc)
    if criteria == "exact":
        return p == t
    raise ValueError(criteria)


def empty_counters() -> Dict[str, Dict[str, int]]:
    return {
        c: {"tp": 0, "tp_t": 0, "tp_f": 0, "fp": 0, "fn": 0, "tn": 0}
        for c in CRITERIA
    }


def count_sentence(counters, pred_coords: dict, true_coords: dict) -> None:
    """Accumulate one sentence's coords pair into ``counters`` in place."""
    for cc in sorted(true_coords.keys()):
        pred = pred_coords.get(cc, None)
        true = true_coords[cc]
        for criteria in CRITERIA:
            rec = counters[criteria]
            if pred is not None and true is not None:
                rec["tp"] += 1
                if _is_correct(criteria, pred, true, cc):
                    rec["tp_t"] += 1
                else:
                    rec["tp_f"] += 1
            elif pred is not None and true is None:
                rec["fp"] += 1
            elif pred is None and true is not None:
                rec["fn"] += 1
            else:
                rec["tn"] += 1


def scores(counters) -> Dict[str, float]:
    """P_exact/R_exact + F1 per criteria, reference naming
    (metric.py:355-363)."""

    def prf(rec):
        p = rec["tp_t"] / (rec["tp"] + rec["fp"]) if rec["tp"] + rec["fp"] else float("nan")
        r = rec["tp_t"] / (rec["tp"] + rec["fn"]) if rec["tp"] + rec["fn"] else float("nan")
        f = (2 * p * r / (p + r)) if (p == p and r == r and (p + r) > 0) else 0.0
        return p, r, f

    out = {}
    p_e, r_e, f_e = prf(counters["exact"])
    out["P_exact"], out["R_exact"], out["F1_exact"] = p_e, r_e, f_e
    out["F1_whole"] = prf(counters["whole"])[2]
    out["F1_outer"] = prf(counters["outer"])[2]
    out["F1_inner"] = prf(counters["inner"])[2]
    return out


def conj_metric_dataset(pred_labels_ds, seed: int = 777):
    """Distributed A5: a Dataset of (sentence, pred label rows, gold label
    rows) → per-batch partial counters → driver merge. Returns the scores
    dict. ``pred_labels_ds`` rows: {sentence, pred_labels, gold_labels}."""
    import pyarrow as pa

    from ..functions.conjunctions import decode_coordinations

    def partial(batch: pa.Table) -> pa.Table:
        counters = empty_counters()
        preds = batch.column("pred_labels").to_pylist()
        golds = batch.column("gold_labels").to_pylist()
        for p_rows, g_rows in zip(preds, golds):
            count_sentence(
                counters,
                decode_coordinations(p_rows),
                decode_coordinations(g_rows),
            )
        flat = {
            f"{c}_{k}": [counters[c][k]]
            for c in CRITERIA
            for k in counters[c]
        }
        return pa.table({k: pa.array(v, pa.int64()) for k, v in flat.items()})

    partials = pred_labels_ds.map_batches(partial, batch_format="pyarrow")
    pdf = partials.to_pandas().sum()
    counters = empty_counters()
    for c in CRITERIA:
        for k in counters[c]:
            counters[c][k] = int(pdf[f"{c}_{k}"])
    return scores(counters)
