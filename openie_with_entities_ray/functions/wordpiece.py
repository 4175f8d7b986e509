"""Wordpiece tokenization + word_starts kernel (O3).

Pure re-implementation of the published BERT tokenization algorithm
(basic tokenize → greedy longest-prefix wordpiece with '##'
continuations) plus the reference's sentence-encoding contract
(/root/reference/data.py:294-303):

- each whitespace word is encoded independently (``batch_encode_plus``
  over ``sentence.split()`` with no special tokens);
- a word whose encoding comes back EMPTY (control characters like
  '\\x9c' that basic-tokenization cleans away) contributes ``[100]``
  (the UNK id) — the reference's explicit fallback (data.py:297-298);
- ``word_starts[i]`` = position of word i's first wordpiece in the
  assembled ``input_ids = [bos] + pieces... + [eos]`` (bos at index 0,
  so the first word always starts at 1);
- the model stage drops sentences over 100 words or >=512 wordpieces
  (data.py:284-285) — :func:`fits_model_limits`.

No torch/HF dependency: the vocab is a plain token→id dict (load a real
``vocab.txt`` with :func:`load_vocab` when one exists). With this kernel
in place the ``GridLabeler`` slot (state/labeler.py) is reduced to the
BERT forward pass alone.
"""

from __future__ import annotations

import unicodedata
from typing import Dict, List, Tuple

BOS_ID = 101  # [CLS]
EOS_ID = 102  # [SEP]
UNK_ID = 100  # [UNK]

_MAX_CHARS_PER_WORD = 100


def load_vocab(path: str) -> Dict[str, int]:
    """vocab.txt: one token per line, id = line number."""
    vocab: Dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as f:
        for i, line in enumerate(f):
            tok = line.rstrip("\n")
            if tok:
                vocab[tok] = i
    return vocab


def _is_control(ch: str) -> bool:
    if ch in ("\t", "\n", "\r"):
        return False
    return unicodedata.category(ch).startswith("C")


def _is_punct(ch: str) -> bool:
    cp = ord(ch)
    if (33 <= cp <= 47) or (58 <= cp <= 64) or (91 <= cp <= 96) or (
        123 <= cp <= 126
    ):
        return True
    return unicodedata.category(ch).startswith("P")


def basic_tokenize(text: str, do_lower_case: bool = False) -> List[str]:
    """BERT BasicTokenizer: strip control chars, whitespace-split, split
    punctuation into its own tokens. (CJK spacing omitted — the cased
    English vocab path.)"""
    cleaned = []
    for ch in text:
        if ch == "\x00" or ch == "�" or _is_control(ch):
            continue
        cleaned.append(" " if ch.isspace() else ch)
    tokens = "".join(cleaned).split()
    out: List[str] = []
    for tok in tokens:
        if do_lower_case:
            tok = tok.lower()
        buf = ""
        for ch in tok:
            if _is_punct(ch):
                if buf:
                    out.append(buf)
                    buf = ""
                out.append(ch)
            else:
                buf += ch
        if buf:
            out.append(buf)
    return out


def wordpiece_tokenize(token: str, vocab: Dict[str, int]) -> List[str]:
    """Greedy longest-prefix wordpiece with '##' continuations; whole
    token → ['[UNK]'] when any chunk fails to match (the published
    algorithm's is_bad rule) or the token is absurdly long."""
    if len(token) > _MAX_CHARS_PER_WORD:
        return ["[UNK]"]
    pieces: List[str] = []
    start = 0
    while start < len(token):
        end = len(token)
        cur = None
        while start < end:
            sub = token[start:end]
            if start > 0:
                sub = "##" + sub
            if sub in vocab:
                cur = sub
                break
            end -= 1
        if cur is None:
            return ["[UNK]"]
        pieces.append(cur)
        start = end
    return pieces


def encode_word(word: str, vocab: Dict[str, int]) -> List[int]:
    """One whitespace word → wordpiece ids (no special tokens). May be
    EMPTY when basic tokenization cleans the word away entirely —
    callers apply the UNK-for-empty rule."""
    ids: List[int] = []
    for tok in basic_tokenize(word):
        for piece in wordpiece_tokenize(tok, vocab):
            ids.append(vocab.get(piece, UNK_ID))
    return ids


def encode_words(
    words: List[str], vocab: Dict[str, int]
) -> Tuple[List[int], List[int]]:
    """data.py:294-303: per-word encode, UNK-for-empty, word_starts over
    the [bos] + pieces + [eos] assembly. len(word_starts) == len(words)
    always (the reference asserts this)."""
    input_ids = [BOS_ID]
    word_starts: List[int] = []
    for word in words:
        tokens = encode_word(word, vocab)
        if len(tokens) == 0:  # special tokens like \x9c (data.py:297)
            tokens = [UNK_ID]
        word_starts.append(len(input_ids))
        input_ids.extend(tokens)
    input_ids.append(EOS_ID)
    return input_ids, word_starts


def fits_model_limits(words: List[str], input_ids: List[int]) -> bool:
    """data.py:284-285: <=100 words and <512 wordpieces."""
    return len(words) <= 100 and len(input_ids) < 512


def demo_vocab() -> Dict[str, int]:
    """Tiny deterministic vocab for tests/demos: special tokens at their
    BERT ids plus common pieces. A real deployment loads vocab.txt."""
    vocab = {"[PAD]": 0, "[UNK]": UNK_ID, "[CLS]": BOS_ID, "[SEP]": EOS_ID}
    pieces = (
        "a the and of in is was to un ##able ##ing ##ed ##s ##er ##est "
        "found ##ed acqui ##red corp alice bob . , ( ) ? ! Alice Bob "
        "Acme Corp founded acquired New York work"
    ).split()
    nxt = 1000
    for p in pieces:
        if p not in vocab:
            vocab[p] = nxt
            nxt += 1
    return vocab
