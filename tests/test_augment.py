import json
import os

import pytest
from hypothesis import given, settings, strategies as st

import phicon
from phicon.augment import (
    AugmentConfig, augment_corpus, augment_sentence, phi_augment,
    random_insert, synonym_replace, write_records,
)
from phicon.corpus import Corpus, Document, validate_bio
from phicon.errors import BioViolationError, LexiconError
from phicon.rng import RandomStream
from tests.conftest import FIG_SENTENCE, sent


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

    def test_jobs_do_not_change_output(self, fixture_registry, tsv_provider):
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
