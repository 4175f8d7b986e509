"""Text normalization + sentence extraction kernels (O1/O2/O4 + S1).

- quote normalization + whitespace re-join: /root/reference/data.py:428-434
- marker append/strip:                      /root/reference/data.py:436-437,
                                            /root/reference/model.py:612-613
- length filter (<=100 words):              /root/reference/data.py:284-285
- punctuation spacing precondition:         /root/reference/README.md:53-57
  (the reference requires the *user* to pre-space punctuation; this engine
  implements it as an explicit operator)
- sentence splitting (nltk.sent_tokenize analogue for prose,
  comment/docstring extraction for source code):
  /root/reference/utils/split_sentences.py:4-5

All pure functions; vectorized callers live in stages/.
"""

from __future__ import annotations

import hashlib
import re

MAX_WORDS = 100  # data.py:284

_WS = re.compile(r"\s+")
# space out sentence punctuation that is glued to a word (README.md:53-57
# precondition, applied as an operator). Decimal numbers are left intact.
_PUNCT_SPACE = re.compile(r"(?<=\w)([.,;:!?])(?=\s|$)")
_SENT_SPLIT = re.compile(r"(?<=[.!?])\s+")

# comment markers per language for source-code sentence mining
_LINE_COMMENT = {
    "py": "#", "python": "#", "sh": "#", "rb": "#", "go": "//", "js": "//",
    "ts": "//", "java": "//", "c": "//", "cpp": "//", "rs": "//",
}
_BLOCK_COMMENT = re.compile(r"/\*(.*?)\*/", re.S)
_PY_DOCSTRING = re.compile(r'("""|\'\'\')(.*?)\1', re.S)


def normalize_quotes(text: str) -> str:
    """data.py:429-432: curly quotes to ASCII."""
    return text.replace("’", "'").replace("”", "''").replace("“", "''")


def normalize_sentence(line: str) -> str:
    """Quote-normalize, space out glued punctuation, collapse whitespace.

    The reference normalizes quotes then re-joins on single spaces
    (data.py:429-434); punctuation spacing is its documented input
    precondition (README.md:53-57) which we enforce here.
    """
    line = normalize_quotes(line)
    line = _PUNCT_SPACE.sub(r" \1", line)
    return " ".join(line.split())


def within_length_limit(sentence: str) -> bool:
    """data.py:284 word-count guard (the <512-wordpiece guard is enforced by
    the model stage where a tokenizer exists)."""
    return len(sentence.split()) <= MAX_WORDS


def split_prose_sentences(text: str):
    """Prose → sentences on [.!?] boundaries (utils/split_sentences.py
    analogue; nltk is not available in this environment)."""
    return [s for s in (_SENT_SPLIT.split(text.strip())) if s]


# --- Arrow-compute normalizer (vectorized O1) ------------------------------
# RE2 (Arrow's regex engine) has no lookaround and ASCII-only \w/\s, so the
# kernel's Python classes are spelled out:
#  - Python re \w over str  ≈ [\p{L}\p{N}_]  (str.isalnum() + underscore)
#  - Python re \s over str  ≈ ASCII \t-\r + space, \x1c-\x1f, \x85, \p{Z}
# and the lookaround pattern (?<=\w)([.,;:!?])(?=\s|$) is rewritten to a
# consuming group form — safe because the whitespace it consumes is
# re-collapsed by the following \s+ -> ' ' pass. Bit-equality with
# normalize_sentence is enforced by a differential fuzz test
# (tests/test_properties.py::test_normalize_arrow_matches_python).
_RE2_W = r"[\p{L}\p{N}_]"
_RE2_S = r"[\t-\r \x{1C}-\x{1F}\x{85}\p{Z}]"


def normalize_sentences_arrow(arr):
    """Vectorized :func:`normalize_sentence` over an Arrow string array
    (pc.replace_substring chain; zero Python per-row work). Used by the
    sentence-explode stage; the scalar kernel remains the oracle."""
    import pyarrow.compute as pc

    x = pc.replace_substring(arr, pattern="’", replacement="'")
    x = pc.replace_substring(x, pattern="”", replacement="''")
    x = pc.replace_substring(x, pattern="“", replacement="''")
    x = pc.replace_substring_regex(
        x,
        pattern=f"({_RE2_W})([.,;:!?])({_RE2_S}|$)",
        replacement=r"\1 \2\3",
    )
    x = pc.replace_substring_regex(x, pattern=f"{_RE2_S}+", replacement=" ")
    return pc.utf8_trim(x, " ")


def extract_comment_text(content: str, lang: str):
    """Source code → candidate natural-language lines.

    Pulls line comments (per-language marker), block comments and Python
    docstrings. Unknown languages fall back to treating the whole content as
    prose. Returns a list of text chunks.
    """
    lang = (lang or "").lower()
    marker = _LINE_COMMENT.get(lang)
    chunks = []
    if marker is None and lang not in ("java", "c", "cpp", "js", "ts", "go", "rs"):
        if not any(m in content for m in ("#", "//", "/*")):
            return [content]
    if marker:
        for line in content.splitlines():
            stripped = line.strip()
            if stripped.startswith(marker):
                chunks.append(stripped[len(marker):].strip())
    if lang in ("py", "python"):
        for m in _PY_DOCSTRING.finditer(content):
            chunks.append(m.group(2).strip())
    else:
        for m in _BLOCK_COMMENT.finditer(content):
            chunks.append(m.group(1).strip())
    if not chunks:
        chunks = [content]
    return [c for c in chunks if c]


def extract_sentences(content: str, lang: str):
    """content → list of normalized, length-capped sentences (stage S1+O1).

    Deterministic pure function of (content, lang); sentences longer than
    MAX_WORDS are dropped as in data.py:284 (the engine flags them upstream
    if lineage requires it).
    """
    out = []
    for chunk in extract_comment_text(content, lang):
        for raw in split_prose_sentences(chunk):
            sent = normalize_sentence(raw)
            if sent and within_length_limit(sent):
                out.append(sent)
    return out


def sha256_hex(text: str) -> str:
    """Lineage column kernel (north-rule per-row invariant)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
