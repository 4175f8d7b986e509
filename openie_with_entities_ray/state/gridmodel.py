"""Numpy forward pass for the reference's iterative BERT grid labeler.

Replicates /root/reference/model.py:58-267 (class ``Model``, predict
path) as pure numpy so the forward semantics are testable in this
environment (torch is absent; the reference's checkpoints are external
downloads, README.md:20-35). The ONLY thing torch is needed for is
deserializing a ``.ckpt`` file — ``state/labeler.py::ckpt_to_npz`` does
that once behind an import gate and writes the weight arrays as ``.npz``,
which ``state/labeler.py::GridLabeler`` loads into this engine.

Replicated semantics, with the reference's quirks kept on purpose:

- **encoder split** (model.py:71-78): the last ``iterative_layers=2``
  encoder layers are detached from the base model; the base runs once,
  the iterative layers run once more per depth over the SAME hidden
  state variable — so depth ``d`` has seen them ``d+1`` times
  (cumulative, model.py:153-158).
- **no attention mask** (model.py:145): the base model is called
  without an attention mask, so padded positions attend and are
  attended to. We do the same (full attention).
- **per-depth loop** (model.py:160-175): dropout (identity at eval) →
  gather hidden vectors at ``word_starts`` (padded starts gather
  position 0 = BOS) → for ``d != 0`` add the label embedding of the
  PREVIOUS depth's argmax (model.py:166-170) → merge layer → label
  head → 6-way word scores.
- **early stop** (model.py:180-188): at inference, after appending a
  depth's scores, stop unless label 1 (ARG1/CP) appears ANYWHERE in
  the batch AND label 2 (REL/CP_START) appears ANYWHERE in the batch
  — the reference's ``if 1 in predictions and 2 in predictions`` runs
  on the whole tensor, not per sentence (the enclosing ``for p in
  predictions`` never uses ``p``). :func:`batch_has_valid_ext`.
- **confidence** (model.py:201-209): ``exp(sum_w(max_log_prob_w *
  [pred_w != 0] / (count_w + 1)))`` where ``count_w`` is the
  ``sum(dim=0)`` quirk — the number of sentences IN THE BATCH with a
  non-NONE prediction at word column ``w``, so a sentence's confidence
  depends on what else shares its batch. At batch size 1 the
  denominator is ``indicator + 1`` i.e. each labeled word contributes
  half its log-prob. :func:`depth_confidences`.
- **padding mask** (model.py:204): from ``labels[:, 0, :] != -100``;
  in predict mode the loader fabricates ``labels=[[0]]`` per sentence
  (data.py:279-281) and pads to width 1, so the mask broadcasts to
  all-ones — we expose ``pad_mask=None`` for that case.
- scores for every computed depth are returned, including a final
  depth that failed the valid-ext check (the reference appends before
  checking, model.py:175-188); downstream decode drops all-zero rows.

BERT encoder math follows the published architecture (post-LayerNorm,
GELU intermediate); weight layout matches ``nn.Linear`` (``(out, in)``,
applied as ``x @ W.T + b``) so a torch ``state_dict`` maps 1:1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

NUM_LABELS = 6  # model.py:80
LABEL_VOCAB = 100  # model.py:83 (nn.Embedding(100, hidden))


# --------------------------------------------------------------------------
# weights


@dataclass
class LayerWeights:
    """One BERT encoder layer (attention + FFN), nn.Linear layout."""

    q_w: np.ndarray
    q_b: np.ndarray
    k_w: np.ndarray
    k_b: np.ndarray
    v_w: np.ndarray
    v_b: np.ndarray
    attn_out_w: np.ndarray
    attn_out_b: np.ndarray
    attn_ln_g: np.ndarray
    attn_ln_b: np.ndarray
    inter_w: np.ndarray
    inter_b: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray
    out_ln_g: np.ndarray
    out_ln_b: np.ndarray


@dataclass
class EmbeddingWeights:
    """BERT input embeddings: word + position + token-type, LayerNorm."""

    word: np.ndarray  # (vocab, hidden)
    position: np.ndarray  # (max_pos, hidden)
    token_type: np.ndarray  # (2, hidden)
    ln_g: np.ndarray
    ln_b: np.ndarray


@dataclass
class GridModelWeights:
    """Everything model.py:58-91 owns, minus the loss."""

    embeddings: EmbeddingWeights
    base_layers: List[LayerWeights] = field(default_factory=list)
    iterative_layers: List[LayerWeights] = field(default_factory=list)
    label_emb: np.ndarray = None  # (100, hidden), model.py:83
    merge_w: np.ndarray = None  # (labelling_dim, hidden), model.py:88
    merge_b: np.ndarray = None
    label_w: np.ndarray = None  # (6, labelling_dim), model.py:87
    label_b: np.ndarray = None
    num_heads: int = 12


# --------------------------------------------------------------------------
# kernels


def layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray,
               eps: float = 1e-12) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def gelu(x: np.ndarray) -> np.ndarray:
    """exact (erf) GELU, as HF BERT's default."""
    return x * 0.5 * (1.0 + _erf(x / math.sqrt(2.0)))


def _erf(x: np.ndarray) -> np.ndarray:
    # vectorized erf without scipy: Abramowitz–Stegun 7.1.26 is too
    # coarse for logits; use the math.erf ufunc via frompyfunc once.
    return _ERF_UFUNC(x).astype(x.dtype)


_ERF_UFUNC = np.frompyfunc(math.erf, 1, 1)


def _linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return x @ w.T + b


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    m = x - x.max(axis=axis, keepdims=True)
    e = np.exp(m)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    m = x - x.max(axis=axis, keepdims=True)
    return m - np.log(np.exp(m).sum(axis=axis, keepdims=True))


def bert_layer(x: np.ndarray, lw: LayerWeights, num_heads: int) -> np.ndarray:
    """(batch, seq, hidden) -> same; post-LN transformer layer, full
    attention (the reference passes no mask, model.py:145)."""
    b, s, h = x.shape
    dh = h // num_heads

    def heads(t: np.ndarray) -> np.ndarray:
        return t.reshape(b, s, num_heads, dh).transpose(0, 2, 1, 3)

    q = heads(_linear(x, lw.q_w, lw.q_b))
    k = heads(_linear(x, lw.k_w, lw.k_b))
    v = heads(_linear(x, lw.v_w, lw.v_b))
    scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(dh)
    ctx = softmax(scores) @ v  # (b, heads, s, dh)
    ctx = ctx.transpose(0, 2, 1, 3).reshape(b, s, h)
    x = layer_norm(_linear(ctx, lw.attn_out_w, lw.attn_out_b) + x,
                   lw.attn_ln_g, lw.attn_ln_b)
    inter = gelu(_linear(x, lw.inter_w, lw.inter_b))
    return layer_norm(_linear(inter, lw.out_w, lw.out_b) + x,
                      lw.out_ln_g, lw.out_ln_b)


def embed(input_ids: np.ndarray, ew: EmbeddingWeights) -> np.ndarray:
    """(batch, seq) int ids -> (batch, seq, hidden); token_type 0."""
    b, s = input_ids.shape
    x = ew.word[input_ids] + ew.position[np.arange(s)] + ew.token_type[0]
    return layer_norm(x, ew.ln_g, ew.ln_b)


# --------------------------------------------------------------------------
# the reference quirks as standalone, directly-testable functions


def batch_has_valid_ext(predictions: np.ndarray) -> bool:
    """model.py:181-188: continue to the next depth iff label 1 appears
    anywhere in the BATCH and label 2 appears anywhere in the BATCH
    (``1 in tensor`` is whole-tensor membership; the loop variable is
    never used). Empty batch -> False (the loop body never runs)."""
    if predictions.size == 0:
        return False
    return bool((predictions == 1).any() and (predictions == 2).any())


def depth_confidences(word_scores: np.ndarray,
                      pad_mask: Optional[np.ndarray] = None
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """model.py:201-209 for one depth: (confidences(b,), predictions
    (b, w)). ``pad_mask`` is ``labels[:,0,:] != -100`` — pass None for
    the predict path where it broadcasts to all-ones (data.py:279-281
    fabricates ``[[0]]`` labels). The ``sum(dim=0)`` divisor counts,
    per word COLUMN, how many batch members predicted non-NONE there —
    the reference's batch-coupling quirk, kept bit-for-bit."""
    word_log_probs = log_softmax(word_scores, axis=2)
    predictions = word_log_probs.argmax(axis=2)
    max_log_probs = word_log_probs.max(axis=2)
    sro = (predictions != 0).astype(np.float64)
    if pad_mask is not None:
        sro = sro * pad_mask.astype(np.float64)
    denom = sro.sum(axis=0) + 1.0  # <- sum over the BATCH dim (quirk)
    norm = (max_log_probs * sro) / denom
    return np.exp(norm.sum(axis=1)), predictions


# --------------------------------------------------------------------------
# the model


class GridModel:
    """The predict-mode forward of reference model.py:132-209."""

    def __init__(self, weights: GridModelWeights):
        self.w = weights

    def encode_base(self, input_ids: np.ndarray) -> np.ndarray:
        x = embed(input_ids, self.w.embeddings)
        for lw in self.w.base_layers:
            x = bert_layer(x, lw, self.w.num_heads)
        return x

    def decode_batch(
        self,
        input_ids: Sequence[Sequence[int]],
        word_starts: Sequence[Sequence[int]],
        *,
        max_depth: int,
        pad_id: int = 0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Predict-mode forward over a batch of sentences.

        Returns ``(predictions (b, depths, w), confidences (b, depths))``
        where ``w`` is the padded word count and ``depths <= max_depth``
        (early stop per :func:`batch_has_valid_ext`). Rows for a
        sentence are over its ``word_starts`` positions; padded word
        slots gather BOS (start 0, torchtext pads starts with 0,
        data.py:375) exactly as the reference does.
        """
        b = len(input_ids)
        seq = max(len(t) for t in input_ids)
        nw = max(len(s) for s in word_starts)
        ids = np.full((b, seq), pad_id, dtype=np.int64)
        starts = np.zeros((b, nw), dtype=np.int64)
        for i, (t, s) in enumerate(zip(input_ids, word_starts)):
            ids[i, : len(t)] = t
            starts[i, : len(s)] = s

        hidden = self.encode_base(ids)
        all_preds: List[np.ndarray] = []
        all_confs: List[np.ndarray] = []
        word_scores = None
        d = 0
        while True:
            # iterative layers mutate the running hidden state — depth d
            # has seen them d+1 times (model.py:153-158)
            for lw in self.w.iterative_layers:
                hidden = bert_layer(hidden, lw, self.w.num_heads)
            # dropout is identity at eval (model.py:160)
            word_hidden = np.take_along_axis(
                hidden, starts[:, :, None], axis=1
            )  # gather at word_starts (model.py:162-163)
            if d != 0:
                greedy = word_scores.argmax(axis=-1)  # previous depth
                word_hidden = word_hidden + self.w.label_emb[greedy]
            merged = _linear(word_hidden, self.w.merge_w, self.w.merge_b)
            word_scores = _linear(merged, self.w.label_w, self.w.label_b)
            confs, preds = depth_confidences(word_scores)
            all_preds.append(preds)
            all_confs.append(confs)
            d += 1
            if d >= max_depth:
                break
            if not batch_has_valid_ext(preds):
                break
        return np.stack(all_preds, axis=1), np.stack(all_confs, axis=1)


# --------------------------------------------------------------------------
# labeler adapter: plugs GridModel into the label_oie / label_conj contract


class NumpyGridLabeler:
    """``label_oie`` / ``label_conj`` over :class:`GridModel` forwards.

    ``label_oie`` appends the three ``[unusedK]`` marker words before
    tokenization (run.py predict prepends them to every sentence; their
    wordpiece ids are 1/2/3 in the cased vocab) and trims each depth row
    to ``len(words)`` as the writer does (model.py:621); confidences are
    rounded to 2 decimals at test time (model.py:477). ``label_conj``
    runs the conj-task model (max depth 3, model.py:93) marker-free.

    One instance per kernel (weights loaded once in ``__init__`` of the
    kernel class, once per worker process via stages/extract.py:map_kernel)
    — identical deployment shape to DeterministicLabeler.
    """

    MARKERS = ("[unused1]", "[unused2]", "[unused3]")

    def __init__(
        self,
        vocab,
        oie_model: Optional[GridModel] = None,
        conj_model: Optional[GridModel] = None,
        max_oie_depth: int = 5,
        max_conj_depth: int = 3,
    ):
        self.vocab = dict(vocab)
        for i, m in enumerate(self.MARKERS, start=1):
            self.vocab.setdefault(m, i)
        self.oie_model = oie_model
        self.conj_model = conj_model
        self.max_oie_depth = max_oie_depth
        self.max_conj_depth = max_conj_depth

    def _encode(self, words: List[str]) -> Tuple[List[int], List[int]]:
        from ..functions.wordpiece import encode_words

        return encode_words(words, self.vocab)

    def label_oie(self, sentence: str):
        words = sentence.split() + list(self.MARKERS)
        ids, starts = self._encode(words)
        preds, confs = self.oie_model.decode_batch(
            [ids], [starts], max_depth=self.max_oie_depth
        )
        rows = [list(map(int, preds[0, d, : len(words)]))
                for d in range(preds.shape[1])]
        confidences = [round(float(c), 2) for c in confs[0]]
        return rows, confidences

    def label_conj(self, sentence: str):
        words = sentence.split()
        ids, starts = self._encode(words)
        preds, _ = self.conj_model.decode_batch(
            [ids], [starts], max_depth=self.max_conj_depth
        )
        return [list(map(int, preds[0, d, : len(words)]))
                for d in range(preds.shape[1])]


# --------------------------------------------------------------------------
# test/demo factory


def random_grid_weights(
    seed: int = 0,
    hidden: int = 16,
    num_heads: int = 2,
    intermediate: int = 32,
    labelling_dim: int = 12,
    vocab_size: int = 2048,
    max_pos: int = 128,
    num_base_layers: int = 1,
    num_iterative_layers: int = 2,
    scale: float = 0.1,
) -> GridModelWeights:
    """Small random weights with the real architecture — for shape /
    semantics tests and demos (a real deployment maps a checkpoint's
    state_dict through ``state/labeler.py::ckpt_to_npz``)."""
    rng = np.random.default_rng(seed)

    def m(*shape):
        return rng.normal(0.0, scale, size=shape)

    def layer() -> LayerWeights:
        return LayerWeights(
            q_w=m(hidden, hidden), q_b=m(hidden),
            k_w=m(hidden, hidden), k_b=m(hidden),
            v_w=m(hidden, hidden), v_b=m(hidden),
            attn_out_w=m(hidden, hidden), attn_out_b=m(hidden),
            attn_ln_g=np.ones(hidden), attn_ln_b=np.zeros(hidden),
            inter_w=m(intermediate, hidden), inter_b=m(intermediate),
            out_w=m(hidden, intermediate), out_b=m(hidden),
            out_ln_g=np.ones(hidden), out_ln_b=np.zeros(hidden),
        )

    return GridModelWeights(
        embeddings=EmbeddingWeights(
            word=m(vocab_size, hidden),
            position=m(max_pos, hidden),
            token_type=m(2, hidden),
            ln_g=np.ones(hidden),
            ln_b=np.zeros(hidden),
        ),
        base_layers=[layer() for _ in range(num_base_layers)],
        iterative_layers=[layer() for _ in range(num_iterative_layers)],
        label_emb=m(LABEL_VOCAB, hidden),
        merge_w=m(labelling_dim, hidden),
        merge_b=m(labelling_dim),
        label_w=m(NUM_LABELS, labelling_dim),
        label_b=m(NUM_LABELS),
        num_heads=num_heads,
    )
