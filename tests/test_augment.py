import json
import os

import pytest
from hypothesis import given, settings, strategies as st

import phicon
import phicon.augment as augment_module
from phicon.augment import (
    _RI_INSERT_POS, AugmentConfig, _match_case, _require_valid,
    augment_corpus, augment_sentence, phi_augment, random_insert,
    synonym_replace, write_records,
)
from phicon.corpus import O, Corpus, Document, Sentence, Token, validate_bio
from phicon.errors import BioViolationError, LexiconError
from phicon.rng import RandomStream
from phicon.synonyms import PosTag, lookup_pos, lookup_synonyms
from tests.conftest import DATA_DIR, FIG_SENTENCE, sent


@pytest.fixture
def singleton_registry():
    """One candidate per type, so outputs are fully determined."""
    return phicon.LexiconRegistry({
        "Patient": phicon.Lexicon("Patient", ("William",)),
        "Hospital": phicon.Lexicon("Hospital", ("Alaska Health Center",)),
    })


class TestPhiAugment:
    def test_running_example(self, fig_sentence, singleton_registry):
        out, reps = phi_augment(
            fig_sentence, singleton_registry, RandomStream(1))
        assert [t.text for t in out.tokens] == [
            "She", "met", "William", "in", "the",
            "Alaska", "Health", "Center"]
        assert [str(t.label) for t in out.tokens] == [
            "O", "O", "B-Patient", "O", "O",
            "B-Hospital", "I-Hospital", "I-Hospital"]
        assert len(reps) == 2
        assert reps[0].old_surface == "Washington"
        assert reps[0].new_surface == "William"
        assert reps[1].old_surface == "Ohio Hospital"
        assert reps[1].new_surface == "Alaska Health Center"

    def test_no_phi_is_identity(self, singleton_registry):
        s = sent(("Vitals", "O"), ("stable", "O"))
        out, reps = phi_augment(s, singleton_registry, RandomStream(1))
        assert out == s and reps == []

    def test_outside_tokens_untouched(self, fig_sentence, fixture_registry):
        out, _ = phi_augment(fig_sentence, fixture_registry, RandomStream(7))
        outside = [t.text for t in out.tokens if not t.label.is_phi]
        assert outside == ["She", "met", "in", "the"]

    def test_determinism(self, fig_sentence, fixture_registry):
        a, _ = phi_augment(fig_sentence, fixture_registry, RandomStream(42))
        b, _ = phi_augment(fig_sentence, fixture_registry, RandomStream(42))
        assert a == b

    def test_unresolvable_type_raises_before_mutation(self, fig_sentence):
        registry = phicon.LexiconRegistry(
            {"Patient": phicon.Lexicon("Patient", ("William",))})
        with pytest.raises(LexiconError):
            phi_augment(fig_sentence, registry, RandomStream(1))

    def test_invalid_bio_rejected(self, singleton_registry):
        s = sent(("x", "I-Patient"),)
        with pytest.raises(BioViolationError):
            phi_augment(s, singleton_registry, RandomStream(1))


class TestSynonymReplace:
    def test_phi_tokens_immune(self, fig_sentence, tsv_provider):
        out = synonym_replace(fig_sentence, tsv_provider, 1.0, RandomStream(3))
        phi = [(t.text, str(t.label)) for t in out.tokens if t.label.is_phi]
        assert phi == [("Washington", "B-Patient"),
                       ("Ohio", "B-Hospital"), ("Hospital", "I-Hospital")]

    def test_only_eligible_word_replaced(self, fig_sentence, tsv_provider):
        # "met" is the only non-stopword Outside token with an unambiguous
        # POS and synonyms in the fixture table.
        out = synonym_replace(fig_sentence, tsv_provider, 0.1, RandomStream(3))
        assert out.tokens[1].text in {"encountered", "saw"}
        assert [t.text for t in out.tokens[2:]] == \
            [t.text for t in fig_sentence.tokens[2:]]

    def test_ambiguous_pos_skipped(self, tsv_provider):
        s = sent(("run", "O"),)
        assert synonym_replace(s, tsv_provider, 1.0, RandomStream(3)) == s

    def test_stopword_skipped(self, tsv_provider):
        s = sent(("the", "O"), ("met", "O"))
        out = synonym_replace(s, tsv_provider, 1.0, RandomStream(3))
        assert out.tokens[0].text == "the"

    def test_case_preserved(self, tsv_provider):
        s = sent(("Met", "O"),)
        out = synonym_replace(s, tsv_provider, 1.0, RandomStream(3))
        assert out.tokens[0].text[0].isupper()

    def test_multiword_synonym_expands(self, tsv_provider):
        s = sent(("clinic", "O"),)
        out = synonym_replace(s, tsv_provider, 1.0, RandomStream(3))
        assert [t.text for t in out.tokens] == ["health", "center"]
        assert all(t.label.kind == "O" for t in out.tokens)

    def test_rate_rounds_up_to_one(self, tsv_provider):
        # Even a tiny rate edits at least one eligible word.
        s = sent(("met", "O"), ("quick", "O"))
        out = synonym_replace(s, tsv_provider, 0.01, RandomStream(3))
        changed = sum(a != b for a, b in zip(out.tokens, s.tokens))
        assert changed == 1


class TestRandomInsert:
    def test_adverb_before_verb(self, tsv_provider):
        s = sent(("met", "O"),)
        out = random_insert(s, tsv_provider, 1.0, RandomStream(3))
        assert len(out) == 2 and out.tokens[1].text == "met"
        assert out.tokens[0].text in {"promptly"}
        assert out.tokens[0].label.kind == "O"

    def test_adjective_before_noun(self, tsv_provider):
        s = sent(("visit", "O"),)
        out = random_insert(s, tsv_provider, 1.0, RandomStream(3))
        assert out.tokens[0].text in {"quick", "steady"}
        assert out.tokens[1].text == "visit"

    def test_never_inside_phi_span(self, fig_sentence, tsv_provider):
        out = random_insert(fig_sentence, tsv_provider, 1.0, RandomStream(3))
        assert not validate_bio(out)
        spans = phicon.extract_entities(out)
        assert {s.surface for s in spans} == {"Washington", "Ohio Hospital"}

    def test_no_anchor_is_identity(self, tsv_provider):
        s = sent(("zzz", "O"),)
        assert random_insert(s, tsv_provider, 1.0, RandomStream(3)) == s

    def test_empty_pool_raises(self, tmp_path):
        path = tmp_path / "noadv.tsv"
        path.write_text("met\tverb\tsaw\n")
        provider = phicon.load_tsv(path)
        with pytest.raises(LexiconError):
            random_insert(sent(("met", "O"),), provider, 1.0, RandomStream(3))


class TestAugmentSentence:
    def test_applied_ops_recorded(self, fig_sentence, fixture_registry,
                                  tsv_provider):
        cfg = AugmentConfig(sr_rate=1.0, ri_rate=1.0)
        out, applied, reps = augment_sentence(
            fig_sentence, fixture_registry, tsv_provider, cfg, RandomStream(5))
        assert applied[0] == "PHI" and len(reps) == 2
        assert not validate_bio(out)

    def test_disable_flags(self, fig_sentence, fixture_registry, tsv_provider):
        cfg = AugmentConfig(enable_sr=False, enable_ri=False)
        out, applied, _ = augment_sentence(
            fig_sentence, fixture_registry, tsv_provider, cfg, RandomStream(5))
        assert applied == ("PHI",)
        outside = [t.text for t in out.tokens if not t.label.is_phi]
        assert outside == ["She", "met", "in", "the"]

    def test_zero_rates_still_edit(self, fixture_registry, tsv_provider):
        # SR and RI each make at least one edit (the EDA rule), so rate 0
        # does not switch them off; enable_sr and enable_ri do.
        s = sent(("She", "O"), ("met", "O"), ("Washington", "B-Patient"),
                 ("for", "O"), ("a", "O"), ("visit", "O"))
        cfg = AugmentConfig(sr_rate=0.0, ri_rate=0.0, enable_phi=False)
        out, applied, _ = augment_sentence(
            s, fixture_registry, tsv_provider, cfg, RandomStream(5))
        assert applied == ("SR", "RI") and len(out) == len(s) + 1

    def test_drop_unchanged(self, fixture_registry, tsv_provider):
        s = sent(("zzz", "O"),)
        cfg = AugmentConfig()
        assert augment_sentence(
            s, fixture_registry, tsv_provider, cfg, RandomStream(5)) is None


def _mini_corpus():
    phi = sent(*FIG_SENTENCE)
    context = sent(("Vitals", "O"), ("stable", "O"))
    return Corpus((
        Document("d0", (phi, context)),
        Document("d1", (phi,)),
    ))


class TestAugmentCorpus:
    def test_merge_arithmetic(self, fixture_registry, tsv_provider):
        corpus = _mini_corpus()
        cfg = AugmentConfig(alpha=2, master_seed=7)
        merged, records = augment_corpus(
            corpus, fixture_registry, tsv_provider, cfg)
        # originals + alpha copies of each document's PHI sentences
        assert len(merged.documents) == 2 + 2 * 2
        assert merged.documents[0] is corpus.documents[0]
        ids = [d.id for d in merged.documents]
        assert ids == ["d0", "d1", "d0#aug1", "d1#aug1", "d0#aug2", "d1#aug2"]
        # context-only sentences are dropped from augmented copies
        assert all(len(d.sentences) == 1 for d in merged.documents[2:])
        assert len(records) == 4

    def test_keep_context_sentences(self, fixture_registry, tsv_provider):
        corpus = _mini_corpus()
        cfg = AugmentConfig(alpha=1, keep_context_sentences=True)
        merged, _ = augment_corpus(corpus, fixture_registry, tsv_provider, cfg)
        assert len(merged.documents[2].sentences) == 2

    def test_alpha_zero_is_identity(self, fixture_registry, tsv_provider):
        corpus = _mini_corpus()
        merged, records = augment_corpus(
            corpus, fixture_registry, tsv_provider, AugmentConfig(alpha=0))
        assert merged.documents == corpus.documents and records == []

    def test_reruns_identical(self, fixture_registry, tsv_provider):
        # augment_corpus is serial; reruns give equal corpora and records.
        corpus = _mini_corpus()
        cfg = AugmentConfig(alpha=3, master_seed=13)
        a, b, c = (augment_corpus(corpus, fixture_registry, tsv_provider, cfg)
                   for _ in range(3))
        assert a == b == c

    def test_runs_differ(self, fixture_registry, tsv_provider):
        corpus = _mini_corpus()
        cfg = AugmentConfig(alpha=2, master_seed=13)
        merged, _ = augment_corpus(corpus, fixture_registry, tsv_provider, cfg)
        assert merged.documents[2].sentences != merged.documents[4].sentences

    def test_records_round_trip_json(self, fixture_registry, tsv_provider,
                                     tmp_path):
        corpus = _mini_corpus()
        _, records = augment_corpus(
            corpus, fixture_registry, tsv_provider, AugmentConfig(master_seed=7))
        path = tmp_path / "records.jsonl"
        write_records(records, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(records)
        for line, rec in zip(lines, records):
            data = json.loads(line)
            assert data["doc_id"] == rec.doc_id
            assert data["run_index"] == rec.run_index

    def test_failed_records_write_keeps_old_file(
            self, fixture_registry, tsv_provider, tmp_path):
        _, records = augment_corpus(
            _mini_corpus(), fixture_registry, tsv_provider,
            AugmentConfig(master_seed=7))
        path = tmp_path / "records.jsonl"
        path.write_text("old\n")

        def failing():
            yield records[0]
            raise OSError("disk full")
        with pytest.raises(OSError, match="disk full"):
            write_records(failing(), path)
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["records.jsonl"]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**63 - 1))
def test_property_output_always_bio_valid(seed, fixture_registry, tsv_provider):
    cfg = AugmentConfig(sr_rate=0.5, ri_rate=0.5)
    out = augment_sentence(sent(*FIG_SENTENCE), fixture_registry,
                           tsv_provider, cfg, RandomStream(seed))
    assert out is not None
    assert not validate_bio(out[0])
    spans = phicon.extract_entities(out[0])
    assert [s.phi_type for s in spans] == ["Patient", "Hospital"]


# ---------------------------------------------------------------------------
# Reference equivalence: SR and RI as they were when every call re-derived
# eligibility through lookup_pos / lookup_synonyms and re-sorted the POS
# pools, before the provider built both tables once.

_REF_SR_POS = (PosTag.NOUN, PosTag.VERB, PosTag.ADJECTIVE, PosTag.ADVERB)


def _ref_unambiguous_pos(provider, word):
    tags = lookup_pos(provider, word)
    if len(tags) == 1:
        return next(iter(tags))
    return None


def _ref_pos_pool(provider, pos):
    return tuple(sorted(
        lemma for lemma, tags in provider.pos_index.items()
        if pos in tags and lemma not in provider.stopwords))


def _ref_synonym_replace(sentence, provider, sr_rate, rng):
    _require_valid(sentence)
    eligible = []
    for i, tok in enumerate(sentence.tokens):
        if tok.label.is_phi:
            continue
        pos = _ref_unambiguous_pos(provider, tok.text)
        if pos is None or pos not in _REF_SR_POS:
            continue
        syns = lookup_synonyms(provider, tok.text, pos)
        if syns:
            eligible.append((i, syns))
    if not eligible:
        return sentence
    n = min(len(eligible), max(1, round(sr_rate * len(eligible))))
    chosen = rng.sample(range(len(eligible)), n)
    picks = {}
    for j in sorted(chosen):
        idx, syns = eligible[j]
        picks[idx] = rng.choice(syns)
    out = []
    for i, tok in enumerate(sentence.tokens):
        if i not in picks:
            out.append(tok)
            continue
        words = _match_case(tok.text, picks[i]).split(" ")
        out.extend(Token(w, O) for w in words)
    return Sentence(tuple(out))


def _ref_random_insert(sentence, provider, ri_rate, rng):
    _require_valid(sentence)
    anchors = []
    for i, tok in enumerate(sentence.tokens):
        if tok.label.is_phi:
            continue
        pos = _ref_unambiguous_pos(provider, tok.text)
        if pos in _RI_INSERT_POS:
            anchors.append((i, pos))
    if not anchors:
        return sentence
    n = min(len(anchors), max(1, round(ri_rate * len(sentence))))
    chosen = sorted(rng.sample(range(len(anchors)), n))
    pools = {}
    insertions = {}
    for j in chosen:
        idx, anchor_pos = anchors[j]
        insert_pos = _RI_INSERT_POS[anchor_pos]
        pool = pools.get(insert_pos)
        if pool is None:
            pool = _ref_pos_pool(provider, insert_pos)
            if not pool:
                raise LexiconError(
                    f"provider has no {insert_pos.value} lemmas to insert")
            pools[insert_pos] = pool
        insertions[idx] = rng.choice(pool)
    out = []
    for i, tok in enumerate(sentence.tokens):
        if i in insertions:
            out.extend(Token(w, O) for w in insertions[i].split(" "))
        out.append(tok)
    return Sentence(tuple(out))


@pytest.fixture(scope="module", params=["builtin", "tsv-stopwords", "wndb"])
def ref_provider(request, tmp_path_factory):
    if request.param == "builtin":
        return phicon.builtin_provider()
    if request.param == "wndb":
        return phicon.load_wndb(os.path.join(DATA_DIR, "wndb"))
    # The bundled table plus ambiguous, synonym-less and default-stopword
    # lemmas, under a stopword set that masks some bundled lemmas instead.
    bundled = os.path.join(os.path.dirname(phicon.__file__), "data",
                           "synonyms.tsv")
    with open(bundled, encoding="utf-8") as f:
        text = f.read()
    path = tmp_path_factory.mktemp("ref") / "syn.tsv"
    path.write_text(text + "run\tnoun\tsprint\nrun\tverb\tjog\n"
                    "clinic\tnoun\thealth center\npromptly\tadverb\t\n"
                    "the\tadjective\tsaid\nvery\tadverb\tquite\n")
    return phicon.load_tsv(path, stopwords=frozenset(
        {"met", "noted", "reviewed", "quick", "stable"}))


def _lemma_corpus(provider):
    """Six synthetic SiteA documents, plus one whose sentences hold every
    word of every lemma the provider knows (every other one title-cased),
    a stopword and a PHI token."""
    synth = phicon.generate_corpus(
        phicon.builtin_profiles()[0], 6, (8, 15), seed=11)
    words = [w for lemma in sorted(provider.pos_index)
             for w in lemma.split(" ")]
    words = [w.title() if i % 2 else w for i, w in enumerate(words)]
    sentences = tuple(
        sent(("The", "O"), *[(w, "O") for w in words[k:k + 5]],
             ("Smith", "B-Doctor"))
        for k in range(0, len(words), 5))
    return Corpus(synth.documents + (Document("lemmas", sentences),),
                  synth.taxonomy)


class TestReferenceEquivalence:
    def test_table_matches_lookups(self, ref_provider):
        expected = {}
        for lemma in ref_provider.pos_index:
            pos = _ref_unambiguous_pos(ref_provider, lemma)
            if pos is not None:
                expected[lemma] = (pos, tuple(
                    lookup_synonyms(ref_provider, lemma, pos)))
        assert ref_provider._unambiguous == expected

    def test_pos_pool_built_once(self, ref_provider):
        for pos in PosTag:
            pool = ref_provider.pos_pool(pos)
            assert pool == _ref_pos_pool(ref_provider, pos)
            assert ref_provider.pos_pool(pos) is pool

    def test_augment_corpus_identical(self, ref_provider, fixture_registry,
                                      monkeypatch):
        corpus = _lemma_corpus(ref_provider)
        configs = [AugmentConfig(alpha=3, sr_rate=0.5, ri_rate=0.3,
                                 master_seed=seed) for seed in range(4)]
        configs.append(AugmentConfig(master_seed=9))
        new = [augment_corpus(corpus, fixture_registry, ref_provider, cfg)
               for cfg in configs]
        monkeypatch.setattr(augment_module, "synonym_replace",
                            _ref_synonym_replace)
        monkeypatch.setattr(augment_module, "random_insert",
                            _ref_random_insert)
        ref = [augment_corpus(corpus, fixture_registry, ref_provider, cfg)
               for cfg in configs]
        assert new == ref
        applied = {op for _, records in new for r in records
                   for op in r.applied}
        assert applied == {"PHI", "SR", "RI"}
