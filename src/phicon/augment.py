"""PHI augmentation, context augmentation (SR/RI), and the corpus merge.

PHI augmentation swaps every labeled entity span for a same-type candidate
drawn from a lexicon registry. Context augmentation edits only Outside
tokens: synonym replacement (SR) of unambiguous nouns/verbs/adjectives/
adverbs, and random insertion (RI) of an adverb before a verb or adjective
and an adjective before a noun. The merged training set is
original corpus + alpha transformed copies of its PHI-bearing sentences.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .corpus import (
    BEGIN, INSIDE, O, Corpus, Document, Label, Sentence, Token, atomic_open,
    extract_entities, validate_bio,
)
from .errors import BioViolationError, LexiconError
from .lexicon import LexiconRegistry, registry_resolve, sample_entity
from .rng import RandomStream, derive_seed
from .synonyms import PosTag, SynonymProvider, lookup_pos, lookup_synonyms

_SR_POS = (PosTag.NOUN, PosTag.VERB, PosTag.ADJECTIVE, PosTag.ADVERB)
_RI_INSERT_POS = {PosTag.VERB: PosTag.ADVERB,
                  PosTag.ADJECTIVE: PosTag.ADVERB,
                  PosTag.NOUN: PosTag.ADJECTIVE}


@dataclass(frozen=True)
class AugmentConfig:
    alpha: int = 2
    sr_rate: float = 0.1
    ri_rate: float = 0.05
    enable_phi: bool = True
    enable_sr: bool = True
    enable_ri: bool = True
    master_seed: int = 0
    drop_unchanged: bool = True
    keep_context_sentences: bool = False

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        for name in ("sr_rate", "ri_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")


@dataclass(frozen=True)
class Replacement:
    start: int
    end: int
    phi_type: str
    old_surface: str
    new_surface: str


@dataclass(frozen=True)
class AugmentRecord:
    doc_id: str
    sentence_index: int
    run_index: int
    applied: tuple[str, ...]  # subset of ("PHI", "SR", "RI")
    replacements: tuple[Replacement, ...]

    def to_json_line(self) -> str:
        return json.dumps({
            "doc_id": self.doc_id,
            "sentence_index": self.sentence_index,
            "run_index": self.run_index,
            "applied": list(self.applied),
            "replacements": [
                [r.start, r.end, r.phi_type, r.old_surface, r.new_surface]
                for r in self.replacements
            ],
        }, sort_keys=True)


def _require_valid(sentence: Sentence) -> None:
    if validate_bio(sentence):
        raise BioViolationError("sentence is not BIO-valid")


def phi_augment(sentence: Sentence, registry: LexiconRegistry,
                rng: RandomStream) -> tuple[Sentence, list[Replacement]]:
    """Replace every PHI span with a sampled same-type entity.

    Outside tokens are untouched; replacement strings are split on single
    spaces and relabeled Begin + Inside of the original type. Resolution
    failures raise before any tokens are modified.
    """
    spans = extract_entities(sentence)  # raises BioViolationError
    if not spans:
        return sentence, []
    lexicons = {}
    for span in spans:
        if span.phi_type not in lexicons:
            lexicons[span.phi_type] = registry_resolve(registry, span.phi_type)

    new_tokens: list[Token] = []
    replacements: list[Replacement] = []
    cursor = 0
    for span in spans:
        new_tokens.extend(sentence.tokens[cursor:span.start])
        entity = sample_entity(lexicons[span.phi_type], rng, avoid=span.surface)
        words = entity.split(" ")
        start = len(new_tokens)
        new_tokens.append(Token(words[0], Label(BEGIN, span.phi_type)))
        new_tokens.extend(
            Token(w, Label(INSIDE, span.phi_type)) for w in words[1:])
        replacements.append(Replacement(
            start, len(new_tokens), span.phi_type, span.surface, entity))
        cursor = span.end
    new_tokens.extend(sentence.tokens[cursor:])
    return Sentence(tuple(new_tokens)), replacements


def _unambiguous_pos(provider: SynonymProvider, word: str) -> PosTag | None:
    tags = lookup_pos(provider, word)
    if len(tags) == 1:
        return next(iter(tags))
    return None


def _match_case(original: str, replacement: str) -> str:
    if original[:1].isupper():
        return replacement[:1].upper() + replacement[1:]
    return replacement


def synonym_replace(sentence: Sentence, provider: SynonymProvider,
                    sr_rate: float, rng: RandomStream) -> Sentence:
    """Swap a fraction of eligible Outside words for sampled synonyms.

    Eligible: non-stopword, unambiguous POS among noun/verb/adjective/adverb,
    and at least one synonym. PHI tokens are never touched. Multiword
    synonyms expand into several Outside tokens; leading-case is preserved.
    """
    _require_valid(sentence)
    eligible: list[tuple[int, list[str]]] = []
    for i, tok in enumerate(sentence.tokens):
        if tok.label.is_phi:
            continue
        pos = _unambiguous_pos(provider, tok.text)
        if pos is None or pos not in _SR_POS:
            continue
        syns = lookup_synonyms(provider, tok.text, pos)
        if syns:
            eligible.append((i, syns))
    if not eligible:
        return sentence
    n = min(len(eligible), max(1, round(sr_rate * len(eligible))))
    chosen = rng.sample(range(len(eligible)), n)
    picks: dict[int, str] = {}
    for j in sorted(chosen):
        idx, syns = eligible[j]
        picks[idx] = rng.choice(syns)
    out: list[Token] = []
    for i, tok in enumerate(sentence.tokens):
        if i not in picks:
            out.append(tok)
            continue
        words = _match_case(tok.text, picks[i]).split(" ")
        out.extend(Token(w, O) for w in words)
    return Sentence(tuple(out))


def random_insert(sentence: Sentence, provider: SynonymProvider,
                  ri_rate: float, rng: RandomStream) -> Sentence:
    """Insert an adverb before chosen verbs/adjectives and an adjective
    before chosen nouns; insertions are Outside tokens and never land
    inside a PHI span."""
    _require_valid(sentence)
    anchors: list[tuple[int, PosTag]] = []
    for i, tok in enumerate(sentence.tokens):
        if tok.label.is_phi:
            continue
        pos = _unambiguous_pos(provider, tok.text)
        if pos in _RI_INSERT_POS:
            anchors.append((i, pos))
    if not anchors:
        return sentence
    n = min(len(anchors), max(1, round(ri_rate * len(sentence))))
    chosen = sorted(rng.sample(range(len(anchors)), n))
    pools: dict[PosTag, tuple[str, ...]] = {}
    insertions: dict[int, str] = {}
    for j in chosen:
        idx, anchor_pos = anchors[j]
        insert_pos = _RI_INSERT_POS[anchor_pos]
        pool = pools.get(insert_pos)
        if pool is None:
            pool = provider.pos_pool(insert_pos)
            if not pool:
                raise LexiconError(
                    f"provider has no {insert_pos.value} lemmas to insert")
            pools[insert_pos] = pool
        insertions[idx] = rng.choice(pool)
    out: list[Token] = []
    for i, tok in enumerate(sentence.tokens):
        if i in insertions:
            out.extend(Token(w, O) for w in insertions[i].split(" "))
        out.append(tok)
    return Sentence(tuple(out))


def augment_sentence(sentence: Sentence, registry: LexiconRegistry,
                     provider: SynonymProvider, config: AugmentConfig,
                     rng: RandomStream):
    """Apply PHI -> SR -> RI per the enable flags.

    Returns (sentence, applied, replacements), or None when drop_unchanged
    is set and nothing changed.
    """
    out = sentence
    applied: list[str] = []
    replacements: list[Replacement] = []
    if config.enable_phi:
        out, replacements = phi_augment(out, registry, rng)
        if replacements:
            applied.append("PHI")
    if config.enable_sr:
        before = out
        out = synonym_replace(out, provider, config.sr_rate, rng)
        if out != before:
            applied.append("SR")
    if config.enable_ri:
        before = out
        out = random_insert(out, provider, config.ri_rate, rng)
        if out != before:
            applied.append("RI")
    if config.drop_unchanged and out == sentence:
        return None
    return out, tuple(applied), tuple(replacements)


def _augment_document(doc: Document, doc_index: int, run: int,
                      registry: LexiconRegistry, provider: SynonymProvider,
                      config: AugmentConfig):
    """One augmented copy of one document; returns (Document|None, records)."""
    sentences: list[Sentence] = []
    records: list[AugmentRecord] = []
    for si, sent in enumerate(doc.sentences):
        has_phi = any(t.label.is_phi for t in sent.tokens)
        if not has_phi:
            if config.keep_context_sentences:
                sentences.append(sent)
            continue
        rng = RandomStream(
            derive_seed(config.master_seed, run, doc_index, si))
        result = augment_sentence(sent, registry, provider, config, rng)
        if result is None:
            continue
        new_sent, applied, replacements = result
        sentences.append(new_sent)
        records.append(AugmentRecord(
            doc.id, si, run, applied, replacements))
    if not sentences:
        return None, records
    return Document(f"{doc.id}#aug{run}", tuple(sentences)), records


def augment_corpus(corpus: Corpus, registry: LexiconRegistry,
                   provider: SynonymProvider, config: AugmentConfig
                   ) -> tuple[Corpus, list[AugmentRecord]]:
    """D_new = D + alpha augmented copies of D's PHI-bearing sentences.

    Original documents come first, unchanged; augmented copies follow in
    run-major order with ids `<orig>#aug<run>`. Per-sentence seeds are
    derived from (master_seed, run, doc index, sentence index), so output
    is byte-identical across reruns.
    """
    documents = list(corpus.documents)
    records: list[AugmentRecord] = []
    for run in range(1, config.alpha + 1):
        for di, doc in enumerate(corpus.documents):
            new_doc, recs = _augment_document(
                doc, di, run, registry, provider, config)
            if new_doc is not None:
                documents.append(new_doc)
            records.extend(recs)
    return Corpus(tuple(documents), corpus.taxonomy), records


def write_records(records, path) -> None:
    """Line-delimited JSON audit log, one AugmentRecord per line."""
    with atomic_open(path) as f:
        for rec in records:
            f.write(rec.to_json_line() + "\n")
