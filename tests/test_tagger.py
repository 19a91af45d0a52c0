import os

import pytest
from hypothesis import given, settings, strategies as st

import phicon
from phicon.cli import run
from phicon.corpus import Corpus, Document, Label, validate_bio
from phicon.errors import ModelFormatError, PhiconError
from phicon.rng import RandomStream, derive_seed
from phicon.tagger import (
    FEATURE_TEMPLATE_VERSION, TaggerModel, corpus_fingerprint, featurize,
    featurize_sentences, load_model, predict, predict_corpus, predict_features,
    save_model, train,
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

    def test_bad_label_rejected(self, tmp_path):
        model = train(_train_corpus(), epochs=1, seed=0)
        path = tmp_path / "model.txt"
        save_model(model, path)
        path.write_text(path.read_text().replace("\tB-Date", "\tX-Date", 1))
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize("case", [
        "unknown-label", "nan-weight", "inf-weight", "duplicate-row",
        "content-after-end", "duplicate-label", "no-outside-label",
        "negative-count", "repeated-meta-key", "unknown-meta-key",
        "empty-meta", "extra-header-field", "non-repr-float", "swapped-rows",
        "blank-line-after-end", "leading-zero-epochs", "non-utf8"])
    def test_defect_rejected(self, tmp_path, capsys, case):
        # Each of these used to load (or raise a bare PhiconError or
        # UnicodeDecodeError), and save_model would not write it back.
        corpus = _train_corpus()
        path = tmp_path / "model.txt"
        save_model(train(corpus, epochs=1, seed=0), path)
        path.write_bytes(_corrupt(path.read_text().split("\n"), case))
        with pytest.raises(ModelFormatError):
            load_model(path)
        gold = tmp_path / "gold.conll"
        phicon.write_conll(corpus, gold)
        capsys.readouterr()
        assert run(["eval", "--model", str(path), "--test", str(gold)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")


def _corrupt(lines, case):
    """A saved model's lines joined back as UTF-8 bytes, with one defect
    named by case (a lone surrogate stands for a stray non-UTF-8 byte)."""
    feat, lbl, w = lines[4].split("\t")
    labels = lines[1][len("labels "):].split("\t")
    n = int(lines[3][len("nweights "):])
    edits = {
        "unknown-label": {4: f"{feat}\tB-Bogus\t{w}"},
        "nan-weight": {4: f"{feat}\t{lbl}\tnan"},
        "inf-weight": {4: f"{feat}\t{lbl}\t-inf"},
        "duplicate-row": {3: f"nweights {n + 1}",
                          4: lines[4] + "\n" + lines[4]},
        "content-after-end": {4 + n: "end\nstray"},
        "duplicate-label": {1: lines[1] + "\tO"},
        "no-outside-label": {1: "labels " + "\t".join(
            x for x in labels if x != "O")},
        # lines[4 + n] is then the final "end", and every row is skipped
        "negative-count": {3: "nweights -6"},
        "repeated-meta-key": {2: lines[2] + " epochs=7"},
        "unknown-meta-key": {2: lines[2] + " bogus=1"},
        "empty-meta": {2: "meta "},
        "extra-header-field": {0: lines[0] + " extra"},
        "non-repr-float": {4: f"{feat}\t{lbl}\t{float(w):.17e}"},
        "swapped-rows": {4: lines[5], 5: lines[4]},
        "blank-line-after-end": {4 + n: "end\n"},
        "leading-zero-epochs": {2: lines[2].replace("epochs=", "epochs=0")},
        "non-utf8": {4: f"{feat}\udce9\t{lbl}\t{w}"},
    }[case]
    return "\n".join(edits.get(i, line) for i, line in enumerate(lines)
                     ).encode("utf-8", "surrogateescape")


class _FailingMeta(dict):
    """training_meta whose epochs cannot be formatted: save_model fails
    after it has written the header."""

    def get(self, key, default=None):
        if key == "epochs":
            raise OSError("disk full")
        return super().get(key, default)


class TestAtomicSave:
    def test_failed_write_keeps_old_model(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(train(_train_corpus(), epochs=1, seed=0), path)
        before = path.read_bytes()
        model = train(_train_corpus(), epochs=2, seed=1)
        model.training_meta = _FailingMeta(model.training_meta)
        with pytest.raises(OSError, match="disk full"):
            save_model(model, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.txt"]

    @pytest.mark.parametrize("case", [
        "space-in-fingerprint", "cr-in-feature", "tab-in-feature",
        "nan-weight", "label-not-in-table", "template-ft2", "extra-meta-key"])
    def test_unreloadable_model_refused(self, tmp_path, case):
        # Each used to save a file that load_model then rejected, or (the
        # extra meta key) reloaded as a different model.
        meta = {"epochs": 1, "seed": 0, "corpus_fingerprint": "abc"}
        weights, labels, template = {"w=a": {"O": 1.5}}, ["O"], "ft1"
        if case == "space-in-fingerprint":
            meta["corpus_fingerprint"] = "a b"
        elif case == "cr-in-feature":
            weights = {"w=a\rb": {"O": 1.5}}
        elif case == "tab-in-feature":
            weights = {"w=a\tb": {"O": 1.5}}
        elif case == "nan-weight":
            weights = {"w=a": {"O": float("nan")}}
        elif case == "label-not-in-table":
            weights = {"w=a": {"B-Date": 1.5}}
        elif case == "template-ft2":
            template = "ft2"
        else:
            meta["extra"] = "x"
        path = tmp_path / "model.txt"
        save_model(train(_train_corpus(), epochs=1, seed=0), path)
        before = path.read_bytes()
        with pytest.raises(ModelFormatError):
            save_model(TaggerModel(weights, labels, template, meta), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.txt"]

    def test_overwrite_leaves_one_file(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(train(_train_corpus(), epochs=1, seed=0), path)
        model = train(_train_corpus(), epochs=2, seed=1)
        save_model(model, path)
        assert os.listdir(tmp_path) == ["model.txt"]
        assert load_model(path).weights == model.weights


# ---------------------------------------------------------------------------
# The dict-based tagger core that dense label rows replaced, kept as the
# reference the fast path must reproduce exactly.

def _ref_label_kinds(label_set):
    return [("O", None) if lbl == "O" else (lbl[0], lbl[2:])
            for lbl in label_set]


def _ref_score_and_pick(weights, label_set, label_types, feats, prev_type):
    best = None
    best_score = None
    scores = {}
    for f in feats:
        d = weights.get(f)
        if d:
            for lbl, w in d.items():
                scores[lbl] = scores.get(lbl, 0.0) + w
    for i, lbl in enumerate(label_set):
        if label_types[i][0] == "I" and label_types[i][1] != prev_type:
            continue
        s = scores.get(lbl, 0.0)
        if best_score is None or s > best_score:
            best = lbl
            best_score = s
    return best


def _ref_train(corpus, epochs, seed):
    sentences = [s for s in corpus.sentences() if len(s) > 0]
    label_set = ["O"]
    for s in sentences:
        for tok in s.tokens:
            if str(tok.label) not in label_set:
                label_set.append(str(tok.label))
    label_types = _ref_label_kinds(label_set)
    data = [([featurize(s, i) for i in range(len(s))],
             [str(t.label) for t in s.tokens]) for s in sentences]
    weights, totals, stamps = {}, {}, {}
    step = 0

    def bump(feat, lbl, delta):
        key = (feat, lbl)
        d = weights.setdefault(feat, {})
        w = d.get(lbl, 0.0)
        totals[key] = totals.get(key, 0.0) + (step - stamps.get(key, 0)) * w
        stamps[key] = step
        d[lbl] = w + delta

    order = list(range(len(data)))
    for epoch in range(epochs):
        RandomStream(derive_seed(seed, epoch)).shuffle(order)
        for si in order:
            feats, golds = data[si]
            prev_type = None
            for fs, gold in zip(feats, golds):
                step += 1
                pred = _ref_score_and_pick(weights, label_set, label_types,
                                           fs, prev_type)
                if pred != gold:
                    for f in fs:
                        bump(f, gold, 1.0)
                        bump(f, pred, -1.0)
                prev_type = pred[2:] if pred != "O" else None
    averaged = {}
    for feat, d in weights.items():
        avg = {}
        for lbl, w in d.items():
            key = (feat, lbl)
            total = totals.get(key, 0.0) + (step - stamps.get(key, 0)) * w
            if total / step:
                avg[lbl] = total / step
        if avg:
            averaged[feat] = avg
    return TaggerModel(averaged, label_set, FEATURE_TEMPLATE_VERSION, {
        "epochs": epochs, "seed": seed,
        "corpus_fingerprint": corpus_fingerprint(corpus)})


def _ref_predict(model, sentence):
    label_types = _ref_label_kinds(model.label_set)
    out = []
    prev_type = None
    for i in range(len(sentence)):
        pred = _ref_score_and_pick(model.weights, model.label_set,
                                   label_types, featurize(sentence, i),
                                   prev_type)
        out.append(Label.parse(pred))
        prev_type = pred[2:] if pred != "O" else None
    return out


@pytest.fixture(scope="module")
def fixture_corpora():
    """(train, test) pairs: small fine-labelled SiteA/SiteB corpora and
    their coarse mappings."""
    profile_a, profile_b = phicon.builtin_profiles()
    fine_a = phicon.generate_corpus(profile_a, 12, (8, 15), seed=11)
    fine_b = phicon.generate_corpus(profile_b, 12, (8, 15), seed=22)
    return {"fine": (fine_a, fine_b),
            "coarse": (phicon.map_to_coarse(fine_a),
                       phicon.map_to_coarse(fine_b))}


class TestReferenceEquivalence:
    @pytest.mark.parametrize("labels", ["fine", "coarse"])
    def test_train_save_predict_identical(self, fixture_corpora, labels,
                                          tmp_path):
        train_c, test_c = fixture_corpora[labels]
        ref = _ref_train(train_c, epochs=3, seed=4)
        model = train(train_c, epochs=3, seed=4)
        assert model.weights == ref.weights
        assert model.label_set == ref.label_set
        assert model.training_meta == ref.training_meta
        save_model(ref, tmp_path / "ref.txt")
        save_model(model, tmp_path / "model.txt")
        assert (tmp_path / "model.txt").read_bytes() == \
            (tmp_path / "ref.txt").read_bytes()
        expected = [_ref_predict(ref, s) for s in test_c.sentences()]
        assert predict_corpus(model, test_c) == expected
        feats = featurize_sentences(test_c.sentences())
        assert predict_features(model, feats) == expected

    def test_tutorial_corpus_identical(self):
        corpus = _train_corpus()
        ref = _ref_train(corpus, epochs=6, seed=2)
        model = train(corpus, epochs=6, seed=2)
        assert model.weights == ref.weights
        s = sent(("Totally", "O"), ("unseen", "O"), ("Smith", "O"))
        assert predict(model, s) == _ref_predict(ref, s)

    def test_no_weighted_feature_picks_outside(self):
        # Every score is 0, so the earliest allowed label, Outside, wins;
        # Inside labels are masked at the sentence start.
        model = TaggerModel({"w=smith": {"B-Doctor": 1.5, "I-Doctor": 2.0}},
                            ["I-Doctor", "O", "B-Doctor"],
                            FEATURE_TEMPLATE_VERSION, {})
        s = sent(("Totally", "O"), ("unseen", "O"))
        assert predict(model, s) == _ref_predict(model, s) == [
            Label.parse("O"), Label.parse("O")]


class TestSharedFeatures:
    def test_featurize_sentences_matches_featurize(self, fixture_corpora):
        corpus = fixture_corpora["fine"][1]
        feats = featurize_sentences(corpus.sentences())
        assert feats == [[featurize(s, i) for i in range(len(s))]
                         for s in corpus.sentences()]

    def test_equal_features_are_one_object(self, fixture_corpora):
        feats = featurize_sentences(fixture_corpora["fine"][1].sentences())
        bias = {id(fs[0]) for sent_feats in feats for fs in sent_feats}
        assert len(bias) == 1
