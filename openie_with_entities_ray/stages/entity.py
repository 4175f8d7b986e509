"""Entity stage: mention detect + link on triples; constraint violations.

The reference runs NER per sentence to build per-word entity features
(/root/reference/data.py:34-74,138-169) and audits entity constraints over
emitted triples (/root/reference/scripts/violations.py:48-110):

- c1: no entity appears in subject or object;
- c2: more than one entity inside subject or object;
- c3: an entity appears inside the predicate;
- c4: an entity is segmented across triple parts.

Here: a :class:`DictionaryNER` per worker process tags + links mentions
in each triple's arg1/rel/arg2 and emits entity-typed argument columns
plus the four violation flags as quality columns. Linking = alias-dict
candidate generation + cosine disambiguation against a deterministic
context embedding (state/ner.py).
"""

from __future__ import annotations

import pyarrow as pa

from .. import schemas
from ..state.ner import DictionaryNER


class EntityTagger:
    """triples → triples + ``schemas.ENTITY_FIELDS`` (subj_ents,
    subj_types, obj_ents, obj_types, rel_ents, c1..c4 violation flags)."""

    _CACHE_LIMIT = 200_000

    def __init__(self, alias_dict=None, backend: str = "dictionary"):
        from ..state.ner import make_ner

        self.ner = make_ner(backend, alias_dict)
        # entity surfaces are Zipf-distributed: the same argument strings
        # and sentences recur constantly, and every triple of a sentence
        # re-scans that sentence for the c4 check — memoize (bounded)
        self._mention_cache: dict = {}
        self._link_cache: dict = {}

    def _find(self, text: str):
        if not text:
            return []
        hit = self._mention_cache.get(text)
        if hit is None:
            if len(self._mention_cache) > self._CACHE_LIMIT:
                self._mention_cache.clear()
            hit = self.ner.find_mentions(text.split())
            self._mention_cache[text] = hit
        return hit

    def _link(self, mention, sentence: str, ctx):
        # cache key must track the actual disambiguation context: when the
        # batch has no orig_sentence the context is per-triple, not ""
        key = (mention.surface, sentence if sentence else " ".join(ctx))
        hit = self._link_cache.get(key)
        if hit is None:
            if len(self._link_cache) > self._CACHE_LIMIT:
                self._link_cache.clear()
            hit = self.ner.link(mention, ctx)
            self._link_cache[key] = hit
        return hit

    def __call__(self, batch: pa.Table) -> pa.Table:
        a1 = batch.column("arg1").to_pylist()
        rel = batch.column("rel").to_pylist()
        a2 = batch.column("arg2").to_pylist()
        sents = (
            batch.column("orig_sentence").to_pylist()
            if "orig_sentence" in batch.column_names
            else [""] * len(a1)
        )

        subj_ids, subj_types, obj_ids, obj_types, rel_ids = [], [], [], [], []
        c1, c2, c3, c4 = [], [], [], []
        for arg1, pred, arg2, sent in zip(a1, rel, a2, sents):
            ctx = sent.split() if sent else (arg1 + " " + pred + " " + arg2).split()
            m1 = self._find(arg1)
            mr = self._find(pred)
            m2 = self._find(arg2)
            linked = {
                id(m): self._link(m, sent, ctx) for m in m1 + mr + m2
            }
            subj_ids.append([linked[id(m)][0] for m in m1])
            subj_types.append([linked[id(m)][1] for m in m1])
            obj_ids.append([linked[id(m)][0] for m in m2])
            obj_types.append([linked[id(m)][1] for m in m2])
            rel_ids.append([linked[id(m)][0] for m in mr])
            # violation flags (violations.py:48-110 semantics over the
            # dictionary tagger's mentions)
            c1.append(len(m1) == 0 and len(m2) == 0)
            c2.append(len(m1) > 1 or len(m2) > 1)
            c3.append(len(mr) > 0)
            # c4: an entity's surface is split across parts — detect a
            # multiword surface whose words appear in different parts
            sent_mentions = self._find(sent)
            seg = False
            for m in sent_mentions:
                if m.end > m.start:  # multi-word entity
                    words = m.surface.split()
                    parts = [arg1.split(), pred.split(), arg2.split()]
                    hit = [any(w in p for w in words) for p in parts]
                    whole = any(m.surface in s for s in (arg1, pred, arg2))
                    if sum(hit) > 1 and not whole:
                        seg = True
                        break
            c4.append(seg)

        schema = pa.schema(list(batch.schema) + schemas.ENTITY_FIELDS)
        return schemas.rows(schema, batch, None, {
            "subj_ents": subj_ids, "subj_types": subj_types,
            "obj_ents": obj_ids, "obj_types": obj_types, "rel_ents": rel_ids,
            "viol_c1": c1, "viol_c2": c2, "viol_c3": c3, "viol_c4": c4,
        })


class EntityBaselineFilter:
    """J4 baseline (scripts/baselines.py:50-88, filter_openie_original):
    keep a triple iff the subject exactly equals a sentence entity
    (case-insensitive), exactly one entity occurs inside the object, and
    the object ENDS WITH that entity (optionally + '.'); rewrite the
    triple to (subj, rel + leftover-object-words, entity)."""

    def __init__(self, alias_dict=None, backend: str = "dictionary"):
        from ..state.ner import make_ner

        self.ner = make_ner(backend, alias_dict)

    def __call__(self, batch: pa.Table) -> pa.Table:
        sents = batch.column("orig_sentence").to_pylist()
        a1 = batch.column("arg1").to_pylist()
        rel = batch.column("rel").to_pylist()
        a2 = batch.column("arg2").to_pylist()
        conf = batch.column("confidence").to_pylist()
        o_s, o_a1, o_rel, o_a2, o_conf = [], [], [], [], []
        for sent, arg1, pred, arg2, c in zip(sents, a1, rel, a2, conf):
            ents = [m.surface for m in self.ner.find_mentions(sent.split())]
            ent_exact = any(e.lower() == arg1.lower() for e in ents)
            obj_ents = {e for e in ents if e.lower() in arg2.lower()}
            if not (ent_exact and len(obj_ents) == 1):
                continue
            ent = next(iter(obj_ents))
            if arg2.lower().endswith(ent.lower()):
                new_obj = ent
            elif arg2.lower().endswith(ent.lower() + "."):
                new_obj = ent + "."
            else:
                continue
            new_rel = (pred + " " + arg2.replace(new_obj, "")).strip()
            o_s.append(sent)
            o_a1.append(arg1)
            o_rel.append(new_rel)
            o_a2.append(new_obj)
            o_conf.append(c)
        return pa.table(
            {
                "sentence": pa.array(o_s, pa.string()),
                "arg1": pa.array(o_a1, pa.string()),
                "rel": pa.array(o_rel, pa.string()),
                "arg2": pa.array(o_a2, pa.string()),
                "confidence": pa.array(o_conf, pa.float64()),
            }
        )


class FusedExtractorWithEntities:
    """Extraction + entity tagging in ONE kernel: composing the two stages
    in-process removes an object-store boundary (~350 MB of triples per
    million docs would otherwise round-trip through plasma between two
    operators) and holds one labeler and one NER per worker process.
    Emits ``schemas.ENTITY_TRIPLES``."""

    def __init__(self, seed: int = 777, num_extractions: int = 5,
                 no_lt: bool = False, backend: str = "dictionary",
                 labeler_spec: dict | None = None):
        from .extract import FusedExtractor

        self.extract = FusedExtractor(
            seed=seed, num_extractions=num_extractions, no_lt=no_lt,
            labeler_spec=labeler_spec,
        )
        self.tag = EntityTagger(backend=backend)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.tag(self.extract(batch))

