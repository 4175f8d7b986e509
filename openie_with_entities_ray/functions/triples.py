"""Triple decode / dedup / top-k kernels.

Pure per-sentence functions, semantics-identical to the reference:

- triple decode:        /root/reference/model.py:554-593 (``process_extraction``)
  and its duplicate    /root/reference/metric.py:465-505
- validity filter:      /root/reference/model.py:626 (arg1 and pred non-empty)
- exact dedup:          /root/reference/model.py:595-601 (``contains_extraction``)
- near-dup removal:     /root/reference/metric.py:259-295 (``dedup_extractions``)
  — invoked nowhere in the reference predict path (commented out at
  metric.py:426-430); exposed here but off by default for parity
- top-k by confidence:  /root/reference/metric.py:435-438 (stable sort desc)
- renderers:            /root/reference/data.py:571-584 (``ext_to_string`` /
  ``ext_to_sentence``), /root/reference/model.py:648-654 (allennlp line)

OIE label ids (/root/reference/data.py:407-409):
``{'NONE': 0, 'ARG1': 1, 'REL': 2, 'ARG2': 3, 'LOC': 4, 'TIME': 4,
'TYPE': 5, 'ARGS': 3}``
"""

from __future__ import annotations

import difflib
import re
from dataclasses import dataclass

NONE, ARG1, REL, ARG2, LOC_TIME, TYPE = 0, 1, 2, 3, 4, 5

# Marker tokens appended to every sentence before labeling
# (/root/reference/data.py:436-437; decode use model.py:612-613).
MARKERS = ("[unused1]", "[unused2]", "[unused3]")

# digits-only, unlike the reference's `\[unused(.*)\]` + int() which
# crashes on adversarial content tokens like '[unusedfoo]' — an engine
# must not die on data; non-numeric pseudo-markers are treated as plain
# skipped tokens (rel_case unchanged)
_MARKER_NUM = re.compile(r"\[unused(\d+)\]")


def triple_dedup_key(arg1: str, rel: str, arg2: str) -> str:
    """The reference's extraction identity string:
    ``' '.join(extr.args) + ' ' + extr.pred`` (model.py:596). The ONE
    definition — Triple.dedup_key (the extractors' and the CLI writer's
    first-wins dedup) calls it, so the quirk (args first, pred last) can
    never diverge."""
    return arg1 + " " + arg2 + " " + rel


@dataclass
class Triple:
    """One (arg1, rel, arg2) extraction with confidence.

    Equivalent of carb.oie_readers.extraction.Extraction as used by the
    predict path (pred + args[0]=subject, args[1]=object)."""

    arg1: str
    rel: str
    arg2: str
    confidence: float

    @property
    def dedup_key(self) -> str:
        return triple_dedup_key(self.arg1, self.rel, self.arg2)


def decode_triple(labels, words, no_lt: bool = False) -> Triple:
    """Decode one depth's label row over ``words`` (incl. 3 markers).

    model.py:554-593 semantics:
    - ARG1/REL/ARG2/LOC_TIME tokens are collected in word order; marker
      tokens are skipped, but a REL label on marker k sets ``rel_case=k``;
    - rel_case 1/2/3 prefixes 'is ' (and suffixes ' of' / ' from') — note
      rel_case 1 with no REL words yields the literal pred ``'is '`` with a
      trailing space, preserved deliberately;
    - unless ``no_lt``, loc_time words are folded onto arg2.

    The confidence is attached by the caller.
    """
    arg1, rel, arg2, loc_time = [], [], [], []
    rel_case = 0
    for i, token in enumerate(words):
        if "[unused" in token:
            if labels[i] == REL:
                m = _MARKER_NUM.search(token)
                if m:
                    rel_case = int(m.group(1))
            continue
        label = labels[i]
        if label == ARG1:
            arg1.append(token)
        elif label == REL:
            rel.append(token)
        elif label == ARG2:
            arg2.append(token)
        elif label == LOC_TIME:
            loc_time.append(token)

    rel_str = " ".join(rel).strip()
    if rel_case == 1:
        rel_str = "is " + rel_str
    elif rel_case == 2:
        rel_str = "is " + rel_str + " of"
    elif rel_case == 3:
        rel_str = "is " + rel_str + " from"

    arg1_str = " ".join(arg1).strip()
    arg2_str = " ".join(arg2).strip()
    loc_time_str = " ".join(loc_time).strip()
    if not no_lt:
        # arg2 = (arg2 + ' ' + loc_time + ' ' + args).strip() with args == ''
        arg2_str = (arg2_str + " " + loc_time_str).strip()

    return Triple(arg1=arg1_str, rel=rel_str, arg2=arg2_str, confidence=0.0)


def decode_sentence_triples(
    label_rows, confidences, split_sentence: str, no_lt: bool = False
):
    """Decode all depths of one split sentence into valid triples.

    Replicates the depth loop of model.py:620-634: stop at the first all-zero
    label row; keep a triple only if arg1 != '' and pred != ''. Dedup against
    earlier triples of the same *original* sentence is the caller's job
    (it needs cross-split state).
    """
    words = split_sentence.split() + list(MARKERS)
    n = len(words)
    out = []
    for depth, row in enumerate(label_rows):
        row = list(row[:n])
        if sum(row) == 0:  # extractions completed (model.py:623)
            break
        triple = decode_triple(row, words, no_lt=no_lt)
        if triple.arg1 != "" and triple.rel != "":
            triple.confidence = confidences[depth]
            out.append((depth, triple))
    return out


def dedup_exact(triples):
    """First-wins exact dedup on the (args + pred) string (model.py:595-601).

    ``triples`` is an iterable of Triple in (split_id, depth) order — the
    order the reference encounters them; returns the survivors in order.
    """
    seen = set()
    out = []
    for t in triples:
        key = t.dedup_key
        if key not in seen:
            seen.add(key)
            out.append(t)
    return out


def dedup_near(triples, conj_words):
    """O(n^2) near-dup removal (metric.py:259-295). OFF by default for
    parity — the reference's invocation is commented out (metric.py:426-430).

    Deletes exact string dups (earlier one!) and, for pairs with
    SequenceMatcher ratio > 0.9 where neither contains a conjunct word,
    the one with fewer distinct words.
    """
    strs = [t.dedup_key for t in triples]
    word_sets = [set(s.split()) for s in strs]
    conj_set = set(conj_words)
    doomed = set()
    for i in range(len(strs)):
        for j in range(i + 1, len(strs)):
            if strs[i] == strs[j]:
                doomed.add(i)
                continue
            if any(cw in strs[i] or cw in strs[j] for cw in conj_set):
                continue
            if difflib.SequenceMatcher(None, strs[i], strs[j]).ratio() > 0.9:
                doomed.add(j if len(word_sets[i]) > len(word_sets[j]) else i)
    return [t for k, t in enumerate(triples) if k not in doomed]


def top_k(triples, k):
    """Stable sort by confidence desc, truncate (metric.py:435-438)."""
    if k is None:
        return list(triples)
    return sorted(triples, key=lambda t: t.confidence, reverse=True)[:k]


# ---------------------------------------------------------------------------
# renderers (K1/K2 formats)


def ext_to_string(t: Triple) -> str:
    """'conf: (arg1; rel; arg2)' line of the .oie format (data.py:571-576)."""
    return f"{t.confidence:.02f}: ({t.arg1}; {t.rel}; {t.arg2})"


def ext_to_sentence(t: Triple) -> str:
    """'arg1 rel arg2' rendering (data.py:579-584)."""
    return f"{t.arg1} {t.rel} {t.arg2}"


def ext_to_allennlp(sentence: str, t: Triple) -> str:
    """allennlp line (model.py:651-654)."""
    return (
        f"{sentence}\t<arg1> {t.arg1} </arg1> <rel> {t.rel} </rel> "
        f"<arg2> {t.arg2} </arg2>\t{t.confidence}"
    )


# ---------------------------------------------------------------------------
# label projection (O11 / K3)

OUTPUT_LABEL_NAMES = {0: "NONE", 1: "ARG1", 2: "REL", 3: "ARG2", 4: "ARG2", 5: "NONE"}


def project_labels_to_original(label_rows, split_word_indices, n_orig_words):
    """Re-project split-sentence label rows onto original word positions.

    run.py:246-291 (``get_labels``) semantics: position ``split_word_indices
    [k]`` of the original sentence receives the label of split word ``k``;
    rows whose predictions contain neither ARG1 nor REL are dropped; output
    uses the collapsed name dict {4: ARG2, 5: NONE}.
    """
    lines = []
    order = sorted(split_word_indices)
    for row in label_rows:
        row = list(row)
        if sum(row) == 0:
            break
        labels = [0] * n_orig_words
        for k, orig_pos in enumerate(order):
            if k < len(row):
                labels[orig_pos] = row[k]
        if ARG1 not in row and REL not in row:
            continue
        lines.append(" ".join(OUTPUT_LABEL_NAMES[x] for x in labels))
    return lines
