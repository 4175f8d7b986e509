"""Sequence labelers with the reference grid-labeler output contract.

The reference hosts two BERT grid labelers (conj task: 3 depths over the
conj label dict; oie task: 5 depths over the OIE label dict) whose weights
are external downloads (/root/reference/README.md:20-35) and unavailable
here. Per SURVEY.md §7.0 the engine defines a labeler contract (the two
methods below) and ships :class:`DeterministicLabeler` — a seeded pure-function surrogate
with the *same output shape*:

- ``label_conj(sentence)``  -> up to 3 label rows over ``sentence.split()``
  using ``{CP_START:2, CP:1, CC:3, SEP:4, OTHERS:5, NONE:0}``
  (/root/reference/data.py:410-412; decode contract model.py:666-678);
- ``label_oie(sentence)``   -> (up to 5 label rows over ``split() + 3
  markers``, confidences) using ``{NONE:0, ARG1:1, REL:2, ARG2:3, LOC:4,
  TYPE:5}`` (/root/reference/data.py:407-409; decode model.py:607-634).

Because the surrogate is a pure function of the sentence string, the
distributed pipeline and the single-process row-by-row oracle
(pipelines/oracle.py) see identical labels — so the P/R>=0.95 conformance
gate measures the *engine's* plumbing (ordering, grouping, dedup under
shuffles), not model quality. :class:`GridLabeler` runs the numpy
replica of model.py:132-209 (state/gridmodel.py) behind the same
contract when weights exist (a reference ``.ckpt`` converted once by
:func:`ckpt_to_npz`).

Confidences are rounded to 2 decimals as the reference does at test time
(model.py:477) — top-k ordering depends on this.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

# --- lexicons (deterministic; include the synthetic-corpus vocabulary) ----

VERBS = frozenset(
    """
    is are was were be been being has have had am
    acquired founded announced released developed created bought sold
    joined launched built wrote said told makes make made runs run uses
    use used provides provide supports support returns return reads read
    writes write calls call implements implement extends extend owns own
    leads lead heads became become becomes won leads employs employ
    sort merge join filter group scan query hash stream split map reduce
    """.split()
)

AUXILIARIES = frozenset("not to been being".split())

# tokens ending in -ed/-ing that are NOT treated as verbs
_ED_NOUNS = frozenset("speed seed feed deed need breed".split())

LOC_PREPOSITIONS = frozenset("in at on during since near".split())

COORDINATORS = ("and", "or", "nor", "&")

_PUNCT = frozenset(".,;:!?()")

_APPOSITION_DETS = frozenset(("a", "an", "the"))

# conjunct spans stop at function words — keeps conjuncts tight nominals
# so the unbreakable-word veto sees pre-conjunct context as the reference
# conj model does (data.py:786-807 checks the span BEFORE the first
# conjunct)
_FUNCTION_WORDS = frozenset(
    "the a an of in at on for with to by from".split()
)

MAX_OIE_DEPTH = 5  # model.py:93 (_max_depth, oie task)
MAX_CONJ_DEPTH = 3  # model.py:93 (conj task)


def is_verb(word: str) -> bool:
    w = word.lower()
    if w in VERBS:
        return True
    if w in _ED_NOUNS:
        return False
    if w.endswith("ed") and len(w) > 4 and word[0].islower():
        return True
    if w.endswith("ing") and len(w) > 5 and word[0].islower():
        return True
    return False


def _stable_byte(key: str, seed: int) -> int:
    return hashlib.md5(f"{seed}|{key}".encode("utf-8")).digest()[0]


class DeterministicLabeler:
    """Seeded heuristic grid labeler (see module docstring)."""

    def __init__(self, seed: int = 777):
        self.seed = seed

    # -- oie task ----------------------------------------------------------

    def label_oie(
        self, sentence: str
    ) -> Tuple[List[List[int]], List[float]]:
        """Label rows over ``sentence.split() + 3 markers``, plus confidences."""
        words = sentence.split()
        n = len(words)
        total = n + 3  # markers at n, n+1, n+2
        boundaries = [i for i, w in enumerate(words) if w in _PUNCT]

        def clause(v: int) -> Tuple[int, int]:
            lo = 0
            hi = n - 1
            for b in boundaries:
                if b < v:
                    lo = b + 1
                elif b > v:
                    hi = b - 1
                    break
            return lo, hi

        rows: List[List[int]] = []

        # verb-anchored depths, left to right, skipping verbs swallowed by a
        # previous verb run
        i = 0
        while i < n and len(rows) < MAX_OIE_DEPTH:
            if not is_verb(words[i]):
                i += 1
                continue
            v_start = i
            v_end = i
            while v_end + 1 < n and (
                is_verb(words[v_end + 1]) or words[v_end + 1].lower() in AUXILIARIES
            ):
                v_end += 1
            lo, hi = clause(v_start)
            row = [0] * total
            if lo >= v_start and boundaries and boundaries[0] < v_start:
                # clause-left empty (e.g. appositive cut by commas): fall
                # back to the sentence-initial clause as the subject
                for k in range(0, boundaries[0]):
                    row[k] = 1  # ARG1
            for k in range(lo, v_start):
                row[k] = 1  # ARG1
            for k in range(v_start, v_end + 1):
                row[k] = 2  # REL
            in_loc = False
            for k in range(v_end + 1, hi + 1):
                w = words[k].lower()
                if not in_loc and w in LOC_PREPOSITIONS and k + 1 <= hi:
                    nxt = words[k + 1]
                    if nxt[:1].isupper() or nxt[:1].isdigit():
                        in_loc = True
                row[k] = 4 if in_loc else 3  # LOC_TIME / ARG2
            rows.append(row)
            i = v_end + 1

        # apposition depth: "X , a Y" → ARG1 on X, REL on [unused1]
        # (rel_case 1 → pred 'is '), ARG2 on the apposition span
        if len(rows) < MAX_OIE_DEPTH:
            for c, w in enumerate(words):
                if (
                    w == ","
                    and 0 < c < n - 1
                    and words[c + 1].lower() in _APPOSITION_DETS
                ):
                    row = [0] * total
                    for k in range(0, c):
                        row[k] = 1
                    row[n] = 2  # REL on [unused1] → rel_case 1
                    hi = n - 1
                    for b in boundaries:
                        if b > c:
                            hi = b - 1
                            break
                    for k in range(c + 1, hi + 1):
                        row[k] = 3
                    if any(x == 1 for x in row):
                        rows.append(row)
                    break

        confidences = [
            round(
                0.95
                - 0.08 * depth
                + 0.04 * (_stable_byte(f"{sentence}|{depth}", self.seed) / 255.0),
                2,
            )
            for depth in range(len(rows))
        ]
        return rows, confidences

    # -- conj task ---------------------------------------------------------

    def label_conj(self, sentence: str) -> List[List[int]]:
        """Up to 3 conj label rows over ``sentence.split()`` (marker-free)."""
        words = sentence.split()
        n = len(words)
        rows: List[List[int]] = []
        depth = 0
        for cc in range(1, n - 2):
            if depth >= MAX_CONJ_DEPTH:
                break
            if words[cc].lower() not in COORDINATORS:
                continue
            # right conjunct: nominal run after cc, ends before the last word
            j = cc + 1
            while (
                j <= n - 2
                and words[j] not in _PUNCT
                and words[j].lower() not in COORDINATORS
                and words[j].lower() not in _FUNCTION_WORDS
                and not is_verb(words[j])
                and j - cc <= 4
            ):
                j += 1
            if j == cc + 1:
                continue
            right = (cc + 1, j - 1)

            # left conjuncts: nominal runs separated by commas, walking back
            left_spans = []
            k = cc - 1
            end = k
            while k >= 0:
                w = words[k]
                if w == ",":
                    if end >= k + 1:
                        left_spans.append((k + 1, end))
                    end = k - 1
                    k -= 1
                    continue
                if (
                    w in _PUNCT
                    or w.lower() in COORDINATORS
                    or w.lower() in _FUNCTION_WORDS
                    or is_verb(w)
                ):
                    break
                if end - k >= 4:
                    break
                k -= 1
            if end >= k + 1 and k + 1 <= end:
                left_spans.append((k + 1, end))
            if not left_spans:
                continue
            left_spans.reverse()

            conjuncts = left_spans + [right]
            if len(conjuncts) < 2 or not (conjuncts[0][1] < cc < conjuncts[-1][0]):
                continue

            row = [0] * n
            first_s, _ = conjuncts[0]
            for s, e in conjuncts:
                for t in range(s, e + 1):
                    row[t] = 1  # CP
            row[first_s] = 2  # CP_START
            row[cc] = 3  # CC
            span_lo, span_hi = conjuncts[0][0], conjuncts[-1][1]
            for t in range(span_lo, span_hi + 1):
                if row[t] == 0:
                    row[t] = 4 if words[t] == "," else 5  # SEP / OTHERS
            rows.append(row)
            depth += 1
        return rows


def state_dict_to_grid_weights(arrays, *, iterative_layers: int = 2,
                               num_heads: int = 12):
    """Map the reference Lightning module's state_dict (tensors already
    converted to numpy) to :class:`~.gridmodel.GridModelWeights`.

    Key layout per model.py:58-91: the base encoder keeps layers
    ``0..N-1-iterative`` under ``_base_model.encoder.layer.{i}`` and the
    split-off tail lives under ``_iterative_transformer.{j}``
    (model.py:71-74 reassigns the ModuleList slice, which registers it
    as its own submodule); heads are ``_label_embeddings.weight``,
    ``_merge_layer`` and ``_labelling_layer``. Pure dict→dataclass
    plumbing, no torch — unit-tested with synthetic arrays."""
    from .gridmodel import (
        EmbeddingWeights,
        GridModelWeights,
        LayerWeights,
    )

    def layer_from(prefix: str) -> LayerWeights:
        return LayerWeights(
            q_w=arrays[f"{prefix}.attention.self.query.weight"],
            q_b=arrays[f"{prefix}.attention.self.query.bias"],
            k_w=arrays[f"{prefix}.attention.self.key.weight"],
            k_b=arrays[f"{prefix}.attention.self.key.bias"],
            v_w=arrays[f"{prefix}.attention.self.value.weight"],
            v_b=arrays[f"{prefix}.attention.self.value.bias"],
            attn_out_w=arrays[f"{prefix}.attention.output.dense.weight"],
            attn_out_b=arrays[f"{prefix}.attention.output.dense.bias"],
            attn_ln_g=arrays[f"{prefix}.attention.output.LayerNorm.weight"],
            attn_ln_b=arrays[f"{prefix}.attention.output.LayerNorm.bias"],
            inter_w=arrays[f"{prefix}.intermediate.dense.weight"],
            inter_b=arrays[f"{prefix}.intermediate.dense.bias"],
            out_w=arrays[f"{prefix}.output.dense.weight"],
            out_b=arrays[f"{prefix}.output.dense.bias"],
            out_ln_g=arrays[f"{prefix}.output.LayerNorm.weight"],
            out_ln_b=arrays[f"{prefix}.output.LayerNorm.bias"],
        )

    emb = "_base_model.embeddings"
    base_prefix = "_base_model.encoder.layer"
    n_base = 0
    while f"{base_prefix}.{n_base}.attention.self.query.weight" in arrays:
        n_base += 1
    return GridModelWeights(
        embeddings=EmbeddingWeights(
            word=arrays[f"{emb}.word_embeddings.weight"],
            position=arrays[f"{emb}.position_embeddings.weight"],
            token_type=arrays[f"{emb}.token_type_embeddings.weight"],
            ln_g=arrays[f"{emb}.LayerNorm.weight"],
            ln_b=arrays[f"{emb}.LayerNorm.bias"],
        ),
        base_layers=[
            layer_from(f"{base_prefix}.{i}") for i in range(n_base)
        ],
        iterative_layers=[
            layer_from(f"_iterative_transformer.{j}")
            for j in range(iterative_layers)
        ],
        label_emb=arrays["_label_embeddings.weight"],
        merge_w=arrays["_merge_layer.weight"],
        merge_b=arrays["_merge_layer.bias"],
        label_w=arrays["_labelling_layer.weight"],
        label_b=arrays["_labelling_layer.bias"],
        num_heads=num_heads,
    )


def grid_weights_to_state_arrays(weights) -> dict:
    """Inverse of :func:`state_dict_to_grid_weights`: flatten a
    ``GridModelWeights`` back to the reference Lightning state_dict key
    layout (model.py:58-91), so ``.npz`` files and torch ``.ckpt``
    files are interconvertible and one mapping is tested round-trip."""
    arrays = {}

    def put_layer(prefix: str, lw) -> None:
        arrays[f"{prefix}.attention.self.query.weight"] = lw.q_w
        arrays[f"{prefix}.attention.self.query.bias"] = lw.q_b
        arrays[f"{prefix}.attention.self.key.weight"] = lw.k_w
        arrays[f"{prefix}.attention.self.key.bias"] = lw.k_b
        arrays[f"{prefix}.attention.self.value.weight"] = lw.v_w
        arrays[f"{prefix}.attention.self.value.bias"] = lw.v_b
        arrays[f"{prefix}.attention.output.dense.weight"] = lw.attn_out_w
        arrays[f"{prefix}.attention.output.dense.bias"] = lw.attn_out_b
        arrays[f"{prefix}.attention.output.LayerNorm.weight"] = lw.attn_ln_g
        arrays[f"{prefix}.attention.output.LayerNorm.bias"] = lw.attn_ln_b
        arrays[f"{prefix}.intermediate.dense.weight"] = lw.inter_w
        arrays[f"{prefix}.intermediate.dense.bias"] = lw.inter_b
        arrays[f"{prefix}.output.dense.weight"] = lw.out_w
        arrays[f"{prefix}.output.dense.bias"] = lw.out_b
        arrays[f"{prefix}.output.LayerNorm.weight"] = lw.out_ln_g
        arrays[f"{prefix}.output.LayerNorm.bias"] = lw.out_ln_b

    emb = "_base_model.embeddings"
    arrays[f"{emb}.word_embeddings.weight"] = weights.embeddings.word
    arrays[f"{emb}.position_embeddings.weight"] = weights.embeddings.position
    arrays[f"{emb}.token_type_embeddings.weight"] = weights.embeddings.token_type
    arrays[f"{emb}.LayerNorm.weight"] = weights.embeddings.ln_g
    arrays[f"{emb}.LayerNorm.bias"] = weights.embeddings.ln_b
    for i, lw in enumerate(weights.base_layers):
        put_layer(f"_base_model.encoder.layer.{i}", lw)
    for j, lw in enumerate(weights.iterative_layers):
        put_layer(f"_iterative_transformer.{j}", lw)
    arrays["_label_embeddings.weight"] = weights.label_emb
    arrays["_merge_layer.weight"] = weights.merge_w
    arrays["_merge_layer.bias"] = weights.merge_b
    arrays["_labelling_layer.weight"] = weights.label_w
    arrays["_labelling_layer.bias"] = weights.label_b
    return arrays


_NPZ_META_NUM_HEADS = "__meta__.num_heads"


def save_grid_weights_npz(path: str, weights) -> None:
    """Persist grid-model weights as a torch-free ``.npz`` — the
    deployment format this environment CAN execute end-to-end (a real
    user converts a reference ``.ckpt`` once with :func:`ckpt_to_npz`,
    then every worker loads weights with numpy alone)."""
    import numpy as np

    arrays = grid_weights_to_state_arrays(weights)
    arrays[_NPZ_META_NUM_HEADS] = np.asarray(weights.num_heads,
                                             dtype=np.int64)
    np.savez_compressed(path, **arrays)


def load_grid_weights_npz(path: str):
    """Load :func:`save_grid_weights_npz` output. The iterative-layer
    count is recovered from the ``_iterative_transformer.{j}`` keys and
    ``num_heads`` from the meta entry — the file is self-describing."""
    import numpy as np

    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    num_heads = int(arrays.pop(_NPZ_META_NUM_HEADS))
    n_iter = 0
    while (f"_iterative_transformer.{n_iter}.attention.self.query.weight"
           in arrays):
        n_iter += 1
    return state_dict_to_grid_weights(
        arrays, iterative_layers=n_iter, num_heads=num_heads,
    )


def ckpt_to_npz(checkpoint_path: str, npz_path: str, *,
                iterative_layers: int = 2, num_heads: int = 12) -> None:
    """One-time converter: reference Lightning ``.ckpt`` → torch-free
    ``.npz``. The ONLY function in the deployment path that needs torch
    (deserialization only, run.py:46-51 analogue); everything after it
    is numpy. Raises ImportError here (torch absent)."""
    try:
        import torch
    except ImportError as e:
        raise ImportError(
            "ckpt_to_npz needs torch to deserialize the checkpoint; "
            "run it once where torch exists, then deploy the .npz "
            "torch-free"
        ) from e
    ckpt = torch.load(checkpoint_path, map_location="cpu")
    state = ckpt.get("state_dict", ckpt)
    weights = state_dict_to_grid_weights(
        {k: v.numpy() for k, v in state.items()},
        iterative_layers=iterative_layers, num_heads=num_heads,
    )
    save_grid_weights_npz(npz_path, weights)


class GridLabeler:
    """Torch-free real-model deployment slot: ``.npz`` weights → numpy
    BERT forward (state/gridmodel.py) behind the labeler contract
    (``label_oie`` / ``label_conj``). Mirrors the reference's two-model serving shape
    (run.py:229-236 loads a conj checkpoint and an oie checkpoint):
    pass ``oie_weights`` / ``conj_weights`` (either may be shared).

    Instantiated inside a kernel's ``__init__`` — one weight load per
    worker process, the same deployment shape as DeterministicLabeler."""

    def __init__(self, *, vocab_path: str | None = None,
                 vocab: dict | None = None,
                 oie_weights: str | None = None,
                 conj_weights: str | None = None,
                 max_oie_depth: int = MAX_OIE_DEPTH,
                 max_conj_depth: int = MAX_CONJ_DEPTH):
        from ..functions.wordpiece import demo_vocab, load_vocab
        from .gridmodel import GridModel, NumpyGridLabeler

        if vocab is None:
            vocab = load_vocab(vocab_path) if vocab_path else demo_vocab()
        oie_model = (GridModel(load_grid_weights_npz(oie_weights))
                     if oie_weights else None)
        if conj_weights == oie_weights and oie_model is not None:
            conj_model = oie_model
        else:
            conj_model = (GridModel(load_grid_weights_npz(conj_weights))
                          if conj_weights else None)
        self._inner = NumpyGridLabeler(
            vocab, oie_model=oie_model, conj_model=conj_model,
            max_oie_depth=max_oie_depth, max_conj_depth=max_conj_depth,
        )

    def label_oie(self, sentence: str):
        return self._inner.label_oie(sentence)

    def label_conj(self, sentence: str):
        return self._inner.label_conj(sentence)


def make_labeler(spec=None, seed: int = 777):
    """Labeler factory for kernel constructors: ``spec`` is a plain
    picklable dict passed as a ``map_kernel`` constructor keyword
    (stages/extract.py), resolved once per worker process in the
    kernel's ``__init__``.

    - no spec → ``DeterministicLabeler(seed=seed)`` (the surrogate);
    - ``{"kind": "deterministic", "seed": 777}`` →
      :class:`DeterministicLabeler` with the spec's own arguments;
    - ``{"kind": "grid", "oie_weights": "w.npz", "conj_weights":
      "w.npz", "vocab_path": "vocab.txt"}`` → :class:`GridLabeler`
      (torch-free numpy forward; :func:`ckpt_to_npz` converts a
      reference ``.ckpt`` once).
    """
    if not spec:
        return DeterministicLabeler(seed=seed)
    kind = spec.get("kind", "deterministic")
    kwargs = {k: v for k, v in spec.items() if k != "kind"}
    if kind == "deterministic":
        return DeterministicLabeler(**kwargs)
    if kind == "grid":
        return GridLabeler(**kwargs)
    raise ValueError(f"unknown labeler kind {kind!r}")
