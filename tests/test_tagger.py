import pytest
from hypothesis import given, settings, strategies as st

import phicon
from phicon.corpus import Corpus, Document, Label, validate_bio
from phicon.errors import ModelFormatError, PhiconError
from phicon.tagger import (
    FEATURE_TEMPLATE_VERSION, corpus_fingerprint, featurize,
    load_model, predict, predict_corpus, save_model, train,
)
from tests.conftest import FIG_SENTENCE, sent


class TestFeaturize:
    def test_titlecase_word(self, fig_sentence):
        feats = featurize(fig_sentence, 2)  # Washington
        assert "w=washington" in feats
        assert "shape=Xxxxx" in feats
        assert "prev=met" in feats
        assert "next=in" in feats
        assert "pw=met|washington" in feats
        assert "suf3=ton" in feats
        assert "istitle=1" in feats
        assert "isdigit=1" not in feats

    def test_sentence_start(self, fig_sentence):
        feats = featurize(fig_sentence, 0)
        assert "prev=<S>" in feats and "atstart=1" in feats

    def test_sentence_end(self, fig_sentence):
        feats = featurize(fig_sentence, len(fig_sentence) - 1)
        assert "next=</S>" in feats

    def test_digit_word(self):
        s = sent(("12345", "B-Zip"),)
        feats = featurize(s, 0)
        assert "shape=ddddd" in feats
        assert "isdigit=1" in feats and "hasdigit=1" in feats

    def test_hyphenated_id(self):
        s = sent(("123-45-67", "B-MedicalRecord"),)
        feats = featurize(s, 0)
        assert "hashyphen=1" in feats and "hasdigit=1" in feats
        assert "shape=ddd-d" in feats  # shape is truncated to 5 chars

    def test_out_of_range(self, fig_sentence):
        with pytest.raises(IndexError):
            featurize(fig_sentence, len(fig_sentence))


def _train_corpus():
    sents = [
        sent(*FIG_SENTENCE),
        sent(("Dr", "O"), ("Smith", "B-Doctor"), ("called", "O")),
        sent(("MRN", "O"), ("1234567", "B-MedicalRecord")),
        sent(("Seen", "O"), ("on", "O"), ("01/02/2010", "B-Date")),
        sent(("Vitals", "O"), ("stable", "O"), ("today", "O")),
    ]
    return Corpus((Document("train", tuple(sents)),))


class TestTraining:
    def test_memorizes_training_data(self):
        corpus = _train_corpus()
        model = train(corpus, epochs=10, seed=1)
        total = correct = 0
        for s in corpus.sentences():
            preds = predict(model, s)
            for tok, pred in zip(s.tokens, preds):
                total += 1
                correct += tok.label == pred
        assert correct / total >= 0.95

    def test_deterministic(self):
        corpus = _train_corpus()
        a = train(corpus, epochs=5, seed=7)
        b = train(corpus, epochs=5, seed=7)
        assert a.weights == b.weights and a.label_set == b.label_set

    def test_seed_changes_model(self):
        corpus = _train_corpus()
        a = train(corpus, epochs=2, seed=1)
        b = train(corpus, epochs=2, seed=2)
        assert a.weights != b.weights

    def test_label_set_starts_with_outside(self):
        model = train(_train_corpus(), epochs=1, seed=0)
        assert model.label_set[0] == "O"
        assert set(model.label_set) == {
            "O", "B-Patient", "B-Hospital", "I-Hospital", "B-Doctor",
            "B-MedicalRecord", "B-Date"}

    def test_meta_recorded(self):
        corpus = _train_corpus()
        model = train(corpus, epochs=3, seed=9)
        assert model.training_meta["epochs"] == 3
        assert model.training_meta["seed"] == 9
        assert model.training_meta["corpus_fingerprint"] == \
            corpus_fingerprint(corpus)
        assert model.feature_template_version == FEATURE_TEMPLATE_VERSION

    def test_empty_corpus_rejected(self):
        with pytest.raises(PhiconError):
            train(Corpus((Document("d", ()),)), epochs=1)

    def test_bad_epochs(self):
        with pytest.raises(PhiconError):
            train(_train_corpus(), epochs=0)


class TestPrediction:
    def test_unseen_tokens_get_some_label(self):
        model = train(_train_corpus(), epochs=3, seed=0)
        preds = predict(model, sent(("Totally", "O"), ("unseen", "O")))
        assert len(preds) == 2
        assert all(isinstance(p, Label) for p in preds)

    def test_predict_corpus_shape(self):
        corpus = _train_corpus()
        model = train(corpus, epochs=2, seed=0)
        preds = predict_corpus(model, corpus)
        assert [len(p) for p in preds] == \
            [len(s) for s in corpus.sentences()]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.text(
        alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd")),
        min_size=1, max_size=8), min_size=1, max_size=12))
    def test_property_predictions_bio_valid(self, words):
        # Predictions are BIO-valid by construction on arbitrary input.
        model = train(_train_corpus(), epochs=2, seed=3)
        s = sent(*((w, "O") for w in words))
        preds = predict(model, s)
        relabeled = sent(*((w, str(p)) for w, p in zip(words, preds)))
        assert not validate_bio(relabeled)


class TestModelFile:
    def test_round_trip(self, tmp_path):
        model = train(_train_corpus(), epochs=4, seed=5)
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.weights == model.weights
        assert loaded.label_set == model.label_set
        assert loaded.feature_template_version == \
            model.feature_template_version
        assert loaded.training_meta == model.training_meta

    def test_round_trip_predictions_identical(self, tmp_path):
        corpus = _train_corpus()
        model = train(corpus, epochs=4, seed=5)
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert predict_corpus(loaded, corpus) == predict_corpus(model, corpus)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("something-else 1 ft1\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_wrong_version(self, tmp_path):
        model = train(_train_corpus(), epochs=1, seed=0)
        path = tmp_path / "model.txt"
        save_model(model, path)
        text = path.read_text().replace("phicon-tagger 1", "phicon-tagger 99", 1)
        path.write_text(text)
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_leading_zero_fingerprint_round_trip(self, tmp_path):
        model = train(_train_corpus(), epochs=1, seed=0)
        model.training_meta["corpus_fingerprint"] = "0123456789012345"
        path = tmp_path / "model.txt"
        save_model(model, path)
        assert load_model(path).training_meta == model.training_meta

    def test_unknown_feature_template(self, tmp_path):
        model = train(_train_corpus(), epochs=1, seed=0)
        path = tmp_path / "model.txt"
        save_model(model, path)
        text = path.read_text().replace(
            f"phicon-tagger 1 {FEATURE_TEMPLATE_VERSION}",
            "phicon-tagger 1 ft2", 1)
        path.write_text(text)
        with pytest.raises(ModelFormatError, match="feature template ft2"):
            load_model(path)

    def test_truncated_file(self, tmp_path):
        model = train(_train_corpus(), epochs=1, seed=0)
        path = tmp_path / "model.txt"
        save_model(model, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:len(lines) // 2]))
        with pytest.raises(ModelFormatError):
            load_model(path)
