"""Model-backed NER seams (state/ner.py:SpanModelNER + FlairNER/SpacyNER):
the span→word mapping is differential-tested against the reference's own
AST-extracted ``ent_tags``/``char_index_to_word_index`` (data.py:138-190)
with fake pipelines, so the mapping logic is fully covered without the
flair/spacy models (external downloads absent here). Pure-python module:
no Ray session needed."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openie_with_entities_ray.state.ner import (
    CapitalizedRunNER,
    DictionaryNER,
    FlairNER,
    SpacyNER,
    SpanModelNER,
    char_index_to_word_index,
    make_ner,
)

from reference_oracle import load_ent_tags_oracle, reference_available


def _span_at(words, i1, n_words, label="LOC"):
    """A valid model span: text = the words, start_char = exact offset."""
    start = sum(len(w) + 1 for w in words[:i1])
    return (" ".join(words[i1:i1 + n_words]), start, label)


def test_char_index_to_word_index_matches_reference():
    if not reference_available():
        pytest.skip("no reference checkout")
    ref = load_ent_tags_oracle()
    rng = random.Random(7)
    for _ in range(300):
        words = ["w" * rng.randint(1, 8) for _ in range(rng.randint(1, 12))]
        total = sum(len(w) + 1 for w in words)
        offset = rng.randint(0, total + 3)  # incl. mid-token + past-end
        assert char_index_to_word_index(words, offset) == \
            ref.char_index_to_word_index(words, offset, "spacy"), \
            (words, offset)


def test_span_mapping_matches_reference_ent_tags_fuzz():
    """reference_features == reference ent_tags bit-for-bit over random
    valid span lists, including overlapping spans (the Texas-Louisiana
    skip) and adjacent spans."""
    if not reference_available():
        pytest.skip("no reference checkout")
    ref = load_ent_tags_oracle()
    rng = random.Random(13)
    for _ in range(300):
        nw = rng.randint(2, 10)
        words = [
            rng.choice(["Texas", "Louisiana", "the", "border", "of",
                        "New", "York", "x", "acquired"])
            for _ in range(nw)
        ]
        spans = []
        for _ in range(rng.randint(0, 4)):
            i1 = rng.randrange(nw)
            span_len = rng.randint(1, min(3, nw - i1))
            spans.append(_span_at(words, i1, span_len))
        tagger = SpanModelNER(lambda text, _s=spans: list(_s))
        got = tagger.reference_features(words)
        sentence = " ".join(words)
        ent_list = [(t, c) for t, c, _ in spans]
        want = ref.ent_tags(sentence, ent_list)
        assert got == tuple(want), (words, spans)


def test_overlap_skip_hand_checked():
    """data.py:149-156: the second span covering an already-tagged first
    word is dropped and the ordinal counter rolls back."""
    words = "the Texas Louisiana border".split()
    spans = [
        _span_at(words, 1, 2),        # "Texas Louisiana"
        _span_at(words, 2, 1),        # "Louisiana" — overlaps, skipped
        _span_at(words, 3, 1, "GPE"),  # "border" — ordinal must be 2, not 3
    ]
    tagger = SpanModelNER(lambda text: list(spans))
    ent, reverse_ent, ent_indices, ent_words, ent_pos = (
        tagger.reference_features(words)
    )
    assert ent == [0, 1, 1, 1, 0, 0, 0]
    assert reverse_ent == [1, 0, 0, 0, 1, 1, 1]
    assert ent_pos == [0, 1, 1, 2]
    assert ent_indices == [1, 2, 3]
    assert ent_words == ["texas", "louisiana", "border"]

    mentions = tagger.find_mentions(words)
    assert [(m.start, m.end, m.surface, m.type) for m in mentions] == [
        (1, 2, "Texas Louisiana", "LOC"),
        (3, 3, "border", "GPE"),
    ]
    # tag_and_link content-addresses canonical ids deterministically
    linked = tagger.tag_and_link(words)
    assert all(m.canonical_id.startswith("S") for m in linked)
    assert (SpanModelNER(lambda t: list(spans)).tag_and_link(words)[0]
            .canonical_id == linked[0].canonical_id)


def test_word_features_contract_matches_other_backends():
    """The engine contract (ent, ent_pos) with no marker pads — same
    shape the dictionary/capitalized backends emit."""
    words = "Alice visited New York".split()
    spans = [_span_at(words, 0, 1, "PER"), _span_at(words, 2, 2, "LOC")]
    tagger = SpanModelNER(lambda text: list(spans))
    ent, ent_pos = tagger.word_features(words)
    assert ent == [1, 0, 1, 1]
    assert ent_pos == [1, 0, 2, 2]
    d_ent, d_pos = DictionaryNER().word_features(words)
    assert len(d_ent) == len(ent) and len(d_pos) == len(ent_pos)


def _unfiltered_find_mentions(ner, words):
    """DictionaryNER.find_mentions without the first-word prefilter:
    every span length is joined and probed at every word."""
    out, i, n = [], 0, len(words)
    while i < n:
        for span in range(min(ner.max_words, n - i), 0, -1):
            surface = " ".join(words[i:i + span])
            if surface in ner.alias_dict:
                out.append((i, i + span - 1, surface,
                            ner.alias_dict[surface][0][1]))
                i += span
                break
        else:
            i += 1
    return out


_PREFIX_ALIASES = {
    k: [(f"Q{j}", typ)]
    for j, (k, typ) in enumerate([
        ("Grace", "PER"), ("Grace Park", "PER"), ("Grace Hopper", "PER"),
        ("Grace  Park", "LOC"), ("Park", "LOC"), (" Hopper", "MISC"),
        ("Texas", "LOC"), ("Louisiana", "LOC"),
        ("Texas Louisiana", "LOC"), ("Louisiana Purchase", "MISC"),
    ])
}
_TOKENS = sorted({t for k in _PREFIX_ALIASES for t in k.split(" ")}) + [
    "the", "of", "grace", "Grace Park", "Hopper ", "border", "Purchase",
]


@pytest.mark.parametrize("alias_dict", [_PREFIX_ALIASES, None],
                         ids=["prefix_aliases", "default"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_find_mentions_prefilter_matches_unfiltered_loop(alias_dict, data):
    """The first-word prefilter drops no match: spans, surfaces and
    types equal the unfiltered greedy-longest loop on word lists mixing
    alias tokens (keys sharing a first word, a double-space key, the
    Texas/Louisiana overlap), words holding spaces, '' and noise."""
    ner = DictionaryNER(alias_dict)
    tokens = _TOKENS + sorted({t for k in ner.alias_dict
                               for t in k.split(" ")})
    words = data.draw(st.lists(
        st.one_of(st.sampled_from(tokens), st.text(max_size=3)),
        max_size=24,
    ))
    got = [(m.start, m.end, m.surface, m.type)
           for m in ner.find_mentions(words)]
    assert got == _unfiltered_find_mentions(ner, words)


def test_flair_spacy_import_gates_and_fake_pipelines():
    with pytest.raises(ImportError, match="dictionary"):
        FlairNER()
    with pytest.raises(ImportError, match="dictionary"):
        SpacyNER()
    with pytest.raises(ImportError, match="dictionary"):
        make_ner("flair")
    with pytest.raises(ImportError, match="dictionary"):
        make_ner("spacy")
    # fake pipelines exercise the full contract without the models
    words = "Alice works in Tokyo".split()
    fl = FlairNER(pipeline=lambda t: [_span_at(words, 3, 1, "LOC")])
    sp = SpacyNER(pipeline=lambda t: [_span_at(words, 3, 1, "GPE")])
    assert fl.word_features(words) == ([0, 0, 0, 1], [0, 0, 0, 1])
    assert [m.type for m in sp.find_mentions(words)] == ["GPE"]
    assert isinstance(make_ner("capitalized"), CapitalizedRunNER)
