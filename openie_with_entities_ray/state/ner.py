"""Dictionary NER tagger + entity linker (per-worker kernel state).

The reference's mention detector is a Flair/spaCy tagger held as module
state (/root/reference/data.py:28,34-74,138-169). Its *contract* — spans
over whitespace tokens flattened to per-word ``ent`` (binary) and
``ent_pos`` (1-based entity ordinal), with overlapping spans skipped (the
"Texas-Louisiana problem", data.py:52-66) — is what downstream consumes.
Those neural weights are not available here, so the default backend is a
deterministic longest-match dictionary tagger over a fixed alias
dictionary (FIXTURES.md F7); the backend is pluggable exactly like the
reference's ``--ent_extractor flair|spacy`` (/root/reference/params.py:38-39,
dispatch data.py:327-330).

Entity linking follows the north star: candidate generation via the alias
dictionary, disambiguation by context-embedding cosine score. Embeddings
are deterministic hash-derived unit vectors (no external models), so two
runs at any parallelism agree bit-for-bit.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

import numpy as np

# ~50-entry alias dictionary: surface -> list of (canonical_id, type).
# Ambiguous surfaces (>1 candidate) exercise the disambiguation scorer.
ALIAS_DICT: Dict[str, List[Tuple[str, str]]] = {}


def _add(canonical_id: str, typ: str, *surfaces: str) -> None:
    for s in surfaces:
        ALIAS_DICT.setdefault(s, []).append((canonical_id, typ))


_add("Q_acme", "ORG", "Acme", "Acme Corp", "Acme Corporation")
_add("Q_globex", "ORG", "Globex", "Globex Inc")
_add("Q_initech", "ORG", "Initech")
_add("Q_umbrella", "ORG", "Umbrella", "Umbrella Systems")
_add("Q_stark", "ORG", "Stark Industries", "Stark")
_add("Q_wayne", "ORG", "Wayne Enterprises", "Wayne")
_add("Q_hooli", "ORG", "Hooli")
_add("Q_vandelay", "ORG", "Vandelay", "Vandelay Industries")
_add("Q_alice", "PER", "Alice", "Alice Chen")
_add("Q_bob", "PER", "Bob", "Bob Martinez")
_add("Q_carol", "PER", "Carol", "Carol Okafor")
_add("Q_dave", "PER", "Dave", "Dave Kim")
_add("Q_erin", "PER", "Erin", "Erin Walsh")
_add("Q_frank", "PER", "Frank", "Frank Ito")
_add("Q_grace", "PER", "Grace", "Grace Park")
_add("Q_turing", "PER", "Turing", "Alan Turing")
_add("Q_hopper", "PER", "Hopper", "Grace Hopper")
_add("Q_newyork", "LOC", "New York", "NYC")
_add("Q_london", "LOC", "London")
_add("Q_tokyo", "LOC", "Tokyo")
_add("Q_berlin", "LOC", "Berlin")
_add("Q_austin", "LOC", "Austin")
_add("Q_paris_fr", "LOC", "Paris")
_add("Q_paris_tx", "LOC", "Paris")  # ambiguous with Q_paris_fr
_add("Q_mercury_planet", "LOC", "Mercury")
_add("Q_mercury_element", "MISC", "Mercury")  # ambiguous
_add("Q_python", "MISC", "Python")
_add("Q_rust", "MISC", "Rust")
_add("Q_kafka_sys", "MISC", "Kafka")
_add("Q_kafka_per", "PER", "Kafka")  # ambiguous
_add("Q_arrow", "MISC", "Arrow", "Apache Arrow")
_add("Q_ray", "MISC", "Ray")
_add("Q_spark", "MISC", "Spark", "Apache Spark")
_add("Q_texas", "LOC", "Texas")
_add("Q_louisiana", "LOC", "Louisiana")

_MAX_SURFACE_WORDS = max(len(s.split()) for s in ALIAS_DICT)

_EMB_DIM = 32


def _hash_vector(key: str, dim: int = _EMB_DIM) -> np.ndarray:
    """Deterministic unit vector from a string (no external embeddings)."""
    raw = hashlib.sha256(key.encode("utf-8")).digest()
    # expand to dim bytes deterministically
    buf = bytearray()
    counter = 0
    while len(buf) < dim:
        buf.extend(hashlib.sha256(raw + bytes([counter])).digest())
        counter += 1
    v = np.frombuffer(bytes(buf[:dim]), dtype=np.uint8).astype(np.float64)
    v = v - v.mean()
    norm = np.linalg.norm(v)
    return v / norm if norm > 0 else v


class Mention:
    __slots__ = ("start", "end", "surface", "type", "canonical_id")

    def __init__(self, start, end, surface, typ, canonical_id=None):
        self.start = start
        self.end = end
        self.surface = surface
        self.type = typ
        self.canonical_id = canonical_id


class CapitalizedRunNER:
    """Second pluggable backend (the reference's ``--ent_extractor
    flair|spacy`` switch, params.py:38-39): tags maximal runs of
    capitalized tokens (skipping sentence-initial lone function words) as
    MISC mentions. Same contract as DictionaryNER; no dictionary, so
    canonical ids are content-addressed from the surface."""

    def __init__(self):
        import hashlib

        self._hashlib = hashlib

    def find_mentions(self, words):
        mentions = []
        i = 0
        n = len(words)
        while i < n:
            if words[i][:1].isupper() and (i > 0 or len(words[i]) > 1):
                j = i
                while j + 1 < n and words[j + 1][:1].isupper():
                    j += 1
                surface = " ".join(words[i : j + 1])
                mentions.append(Mention(i, j, surface, "MISC", None))
                i = j + 1
            else:
                i += 1
        return mentions

    def word_features(self, words):
        ent = [0] * len(words)
        ent_pos = [0] * len(words)
        for ordinal, m in enumerate(self.find_mentions(words), start=1):
            for k in range(m.start, m.end + 1):
                ent[k] = 1
                ent_pos[k] = ordinal
        return ent, ent_pos

    def link(self, mention, context_words):
        cid = "S" + self._hashlib.sha1(
            mention.surface.lower().encode("utf-8")
        ).hexdigest()[:16]
        return cid, mention.type

    def tag_and_link(self, words):
        mentions = self.find_mentions(words)
        for m in mentions:
            m.canonical_id, m.type = self.link(m, words)
        return mentions


def make_ner(backend: str = "dictionary", alias_dict=None):
    """Backend dispatch (data.py:327-330 analogue). ``flair``/``spacy``
    select the real model backends (import-gated: both need external
    downloads absent in this environment)."""
    if backend == "dictionary":
        return DictionaryNER(alias_dict)
    if backend == "capitalized":
        return CapitalizedRunNER()
    if backend == "flair":
        return FlairNER()
    if backend == "spacy":
        return SpacyNER()
    raise ValueError(f"unknown ent_extractor backend: {backend}")


class DictionaryNER:
    """Longest-match dictionary tagger with the reference NER contract."""

    def __init__(self, alias_dict: Optional[Dict[str, List[Tuple[str, str]]]] = None):
        self.alias_dict = alias_dict if alias_dict is not None else ALIAS_DICT
        self.max_words = (
            max(len(s.split()) for s in self.alias_dict) if self.alias_dict else 1
        )
        # a candidate is a " ".join of words, so a match starting at a
        # space-free word needs that word as its key's first " "-token:
        # find_mentions skips every other space-free word before any join
        self._first_words = {k.split(" ")[0] for k in self.alias_dict}
        # canonical-id embeddings computed once per worker process
        self._id_vecs = {
            cid: _hash_vector(cid)
            for cands in self.alias_dict.values()
            for cid, _ in cands
        }

    def find_mentions(self, words: List[str]) -> List[Mention]:
        """Greedy left-to-right longest match; overlapping matches skipped
        (data.py:52-66 overlap-skip semantics)."""
        mentions = []
        first_words = self._first_words
        i = 0
        n = len(words)
        while i < n:
            w = words[i]
            if w not in first_words and " " not in w:
                i += 1
                continue
            matched = None
            for span in range(min(self.max_words, n - i), 0, -1):
                surface = " ".join(words[i : i + span])
                if surface in self.alias_dict:
                    matched = (span, surface)
                    break
            if matched:
                span, surface = matched
                cands = self.alias_dict[surface]
                mentions.append(
                    Mention(i, i + span - 1, surface, cands[0][1], None)
                )
                i += span
            else:
                i += 1
        return mentions

    def word_features(self, words: List[str]):
        """Per-word (ent, ent_pos) vectors — data.py:34-74 contract:
        ``ent[i]=1`` iff word i is inside an entity; ``ent_pos[i]`` = 1-based
        ordinal of the covering entity (0 outside)."""
        ent = [0] * len(words)
        ent_pos = [0] * len(words)
        for ordinal, m in enumerate(self.find_mentions(words), start=1):
            for k in range(m.start, m.end + 1):
                ent[k] = 1
                ent_pos[k] = ordinal
        return ent, ent_pos

    def link(self, mention: Mention, context_words: List[str]) -> Tuple[str, str]:
        """Disambiguate: alias-dictionary candidates scored by cosine between
        a context embedding and the candidate-id embedding (north-star
        'mention detect + entity link' stage). Deterministic tie-break by
        canonical id."""
        cands = self.alias_dict[mention.surface]
        if len(cands) == 1:
            return cands[0]
        ctx = _hash_vector(" ".join(w.lower() for w in context_words))
        best = max(
            cands,
            key=lambda c: (float(np.dot(ctx, self._id_vecs[c[0]])), c[0]),
        )
        return best

    def tag_and_link(self, words: List[str]) -> List[Mention]:
        mentions = self.find_mentions(words)
        for m in mentions:
            cid, typ = self.link(m, words)
            m.canonical_id = cid
            m.type = typ
        return mentions


# ---------------------------------------------------------------------------
# model-backed span taggers (the reference's real flair/spacy backends)


def char_index_to_word_index(tokens: List[str], offset: int) -> int:
    """Span start-char offset → whitespace-word index, bit-faithful to
    /root/reference/data.py:173-190 (quirks kept: the scan breaks at the
    first token whose cumulative start offset reaches ``offset``, so an
    offset INSIDE a token maps to the NEXT token; an offset past the
    sentence end returns 0 because the loop finishes without breaking)."""
    char_index = 0
    index = 0
    for i in range(len(tokens)):
        if offset > char_index:
            char_index = char_index + len(tokens[i]) + 1
        else:
            index = i
            break
    return index


class SpanModelNER:
    """Shared span→word mapping for model-backed taggers.

    Subclasses provide a *pipe*: ``pipe(sentence_text) -> [(text,
    start_char, label), ...]`` in model emission order. This base maps
    the spans through :func:`char_index_to_word_index` with the
    reference's overlap skip (the "Texas-Louisiana problem",
    data.py:52-66/149-156) and serves the same contract as the
    deterministic backends (find_mentions / word_features /
    tag_and_link); canonical ids are content-addressed from the surface
    (the reference does not link). ``reference_features`` exposes the
    exact 5-tuple shape of reference ``ent_tags`` (data.py:138-169,
    incl. the three marker-slot pads) for differential tests."""

    def __init__(self, pipe):
        self._pipe = pipe

    def _spans(self, words: List[str]):
        return self._pipe(" ".join(words))

    def find_mentions(self, words: List[str]) -> List[Mention]:
        n = len(words)
        ent_pos = [0] * n
        mentions: List[Mention] = []
        pos = 0
        for text, start_char, label in self._spans(words):
            pos += 1
            i1 = char_index_to_word_index(words, start_char)
            i2 = min(i1 + len(text.split()), n)
            if i1 < n and ent_pos[i1] > 0:
                pos -= 1  # overlap skip (data.py:52-56)
                continue
            for k in range(i1, i2):
                ent_pos[k] = pos
            if i2 > i1:
                mentions.append(
                    Mention(i1, i2 - 1, " ".join(words[i1:i2]),
                            label or "MISC", None)
                )
        return mentions

    def word_features(self, words: List[str]):
        ent = [0] * len(words)
        ent_pos = [0] * len(words)
        for ordinal, m in enumerate(self.find_mentions(words), start=1):
            for k in range(m.start, m.end + 1):
                ent[k] = 1
                ent_pos[k] = ordinal
        return ent, ent_pos

    def reference_features(self, words: List[str]):
        """data.py:138-169 ``ent_tags`` 5-tuple: (ent, reverse_ent,
        ent_indices, ent_words, ent_pos) with the +3 marker pads
        (ent/ent_pos 0, reverse_ent 1)."""
        n = len(words)
        ent = [0] * n
        reverse_ent = [0] * n
        ent_indices: List[int] = []
        ent_words: List[str] = []
        ent_pos = [0] * n
        pos = 0
        for text, start_char, _label in self._spans(words):
            pos += 1
            i1 = char_index_to_word_index(words, start_char)
            i2 = min(i1 + len(text.split(" ")), n)
            if i1 < n and ent_pos[i1] > 0:
                pos -= 1
                continue
            for k in range(i1, i2):
                ent[k] = 1
                ent_pos[k] = pos
                ent_indices.append(k)
                ent_words.append(words[k].lower())
        for i in range(n):
            reverse_ent[i] = 1 if ent[i] == 0 else 0
        ent.extend([0, 0, 0])
        reverse_ent.extend([1, 1, 1])
        return ent, reverse_ent, ent_indices, ent_words, ent_pos

    def link(self, mention: Mention, context_words: List[str]):
        cid = "S" + hashlib.sha1(
            mention.surface.lower().encode("utf-8")
        ).hexdigest()[:16]
        return cid, mention.type

    def tag_and_link(self, words: List[str]) -> List[Mention]:
        mentions = self.find_mentions(words)
        for m in mentions:
            m.canonical_id, _ = self.link(m, words)
        return mentions


class FlairNER(SpanModelNER):
    """Real Flair backend (reference data.py:28-30,34-74: module-level
    ``SequenceTagger.load('ner-fast')``, ``Sentence(s,
    use_tokenizer=False)``, ``get_spans('ner')``). Import-gates cleanly
    — flair and its weights are external downloads absent here; pass a
    fake ``pipeline`` (``pipe(text) -> [(text, start_char, label)]``)
    to exercise the mapping without the model."""

    def __init__(self, model: str = "ner-fast", pipeline=None):
        if pipeline is not None:
            super().__init__(pipeline)
            return
        try:
            from flair.data import Sentence
            from flair.models import SequenceTagger
        except ImportError as e:
            raise ImportError(
                "FlairNER needs flair (and its ner-fast weights, an "
                "external download) — this environment ships neither; "
                "use --ent_extractor dictionary|capitalized, or pass a "
                "fake pipeline for tests"
            ) from e
        tagger = SequenceTagger.load(model)  # once per worker process

        def pipe(text: str):
            s = Sentence(text, use_tokenizer=False)
            tagger.predict(s)
            return [
                (sp.text, sp.start_position, sp.get_label("ner").value)
                for sp in s.get_spans("ner")
            ]

        super().__init__(pipe)


class SpacyNER(SpanModelNER):
    """Real spaCy backend (reference data.py:327-330 dispatch +
    ent_tags, data.py:138-169: ``doc.ents`` with char offsets).
    Import-gates cleanly; pass a fake ``pipeline`` for tests."""

    def __init__(self, model: str = "en_core_web_sm", pipeline=None):
        if pipeline is not None:
            super().__init__(pipeline)
            return
        try:
            import spacy
        except ImportError as e:
            raise ImportError(
                "SpacyNER needs spacy (and en_core_web_sm, an external "
                "download) — this environment ships neither; use "
                "--ent_extractor dictionary|capitalized, or pass a fake "
                "pipeline for tests"
            ) from e
        nlp = spacy.load(model)  # once per worker process

        def pipe(text: str):
            doc = nlp(text)
            return [(e.text, e.start_char, e.label_) for e in doc.ents]

        super().__init__(pipe)
