import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import phicon
from phicon.augment import AugmentConfig, augment_corpus
from phicon.corpus import DEFAULT_TAXONOMY, Corpus, Document, Label, Sentence
from phicon.errors import PhiconError
from phicon import evaluate, tagger
from phicon.evaluate import (
    ABLATION_ARMS, binary_token_f1, cross_dataset_eval, experiment_arms,
    experiment_records, format_eval_report, format_experiment_table,
    sweep_arms, _subsample,
)
from phicon.rng import RandomStream, derive_seed
from tests.conftest import sent

COARSE_LABELS = ["O", "B-NAME", "I-NAME", "B-LOCATION", "I-LOCATION",
                 "B-DATE", "B-ID", "B-CONTACT"]


def _corpus_from_label_rows(rows):
    """rows: list of list of label strings; token text is positional."""
    sents = tuple(
        sent(*((f"w{i}", lbl) for i, lbl in enumerate(row))) for row in rows)
    return Corpus((Document("d", sents),))


def _labels(rows):
    return [[Label.parse(l) for l in row] for row in rows]


def _brute_force_binary(gold_rows, pred_rows):
    """Independent recount of the binarized confusion matrix."""
    tp = fp = fn = 0
    for grow, prow in zip(gold_rows, pred_rows):
        for g, p in zip(grow, prow):
            g_phi, p_phi = g != "O", p != "O"
            tp += g_phi and p_phi
            fn += g_phi and not p_phi
            fp += p_phi and not g_phi
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


def _ref_binary_token_f1(gold, pred):
    """The hand-counted scorer that one category-pair count replaced; kept
    unchanged as a reference."""
    tax = DEFAULT_TAXONOMY
    sents = list(gold.sentences())
    if len(sents) != len(pred):
        raise PhiconError(
            f"prediction count {len(pred)} != sentence count {len(sents)}")
    tp = fp = fn = tn = 0
    cat: dict[str, dict[str, int]] = {}

    def coarse(label: Label) -> str | None:
        if not label.is_phi:
            return None
        return tax.coarse_of.get(label.phi_type, label.phi_type)

    for si, (sent, labels) in enumerate(zip(sents, pred)):
        if len(sent) != len(labels):
            raise PhiconError(
                f"sentence {si}: prediction length {len(labels)} != "
                f"token count {len(sent)}")
        for tok, plab in zip(sent.tokens, labels):
            g = tok.label.is_phi
            p = plab.is_phi
            if g and p:
                tp += 1
            elif g:
                fn += 1
            elif p:
                fp += 1
            else:
                tn += 1
            gc = coarse(tok.label)
            pc = coarse(plab)
            for c in (gc, pc):
                if c is not None and c not in cat:
                    cat[c] = {"tp": 0, "fp": 0, "fn": 0, "support": 0}
            if gc is not None:
                cat[gc]["support"] += 1
                if pc == gc:
                    cat[gc]["tp"] += 1
                else:
                    cat[gc]["fn"] += 1
            if pc is not None and pc != gc:
                cat[pc]["fp"] += 1

    precision, recall, micro = evaluate._prf(tp, fp, fn)
    per_category = {}
    for c in sorted(cat):
        cp, cr, cf = evaluate._prf(cat[c]["tp"], cat[c]["fp"], cat[c]["fn"])
        per_category[c] = evaluate.CategoryScore(cp, cr, cf, cat[c]["support"])
    return evaluate.EvalReport(micro, precision, recall, per_category,
                               {"tp": tp, "fp": fp, "fn": fn, "tn": tn})


def _noised(corpus, seed):
    """The gold labels with about half of them replaced: by Outside, or by
    a Begin/Inside label of a random fine, coarse or off-taxonomy type."""
    tax = DEFAULT_TAXONOMY
    types = [*tax.fine_types,
             *dict.fromkeys(map(tax.coarse_of.get, tax.fine_types)), "Bogus"]
    rng = RandomStream(seed)
    rows = []
    for s in corpus.sentences():
        row = []
        for label in s.labels():
            draw = rng.randrange(4)
            if draw == 0:
                label = Label("O")
            elif draw == 1:
                label = Label(rng.choice("BI"), rng.choice(types))
            row.append(label)
        rows.append(row)
    return rows


class TestBinaryTokenF1:
    @pytest.mark.parametrize("coarse", [False, True], ids=["fine", "coarse"])
    def test_matches_reference(self, coarse):
        profile_a, _ = phicon.builtin_profiles()
        corpus = phicon.generate_corpus(profile_a, 30, seed=4)
        if coarse:
            corpus = phicon.map_to_coarse(corpus)
        for pred in ([s.labels() for s in corpus.sentences()],
                     _noised(corpus, 1), _noised(corpus, 2)):
            report = binary_token_f1(corpus, pred)
            reference = _ref_binary_token_f1(corpus, pred)
            assert report == reference
            assert format_eval_report(report) == format_eval_report(reference)

    def test_perfect_prediction(self):
        rows = [["O", "B-NAME", "I-NAME"], ["B-DATE", "O"]]
        gold = _corpus_from_label_rows(rows)
        report = binary_token_f1(gold, _labels(rows))
        assert report.micro_f1 == 1.0
        assert report.token_counts == {"tp": 3, "fp": 0, "fn": 0, "tn": 2}

    def test_cross_category_confusion_is_binary_tp(self):
        gold = _corpus_from_label_rows([["B-NAME"]])
        report = binary_token_f1(gold, _labels([["B-LOCATION"]]))
        assert report.micro_f1 == 1.0
        # ...but the per-category rows expose the miss.
        assert report.per_category["NAME"].f1 == 0.0
        assert report.per_category["NAME"].support == 1
        assert report.per_category["LOCATION"].precision == 0.0
        assert report.per_category["LOCATION"].support == 0

    def test_all_outside_prediction_scores_zero(self):
        gold = _corpus_from_label_rows([["B-NAME", "O"]])
        report = binary_token_f1(gold, _labels([["O", "O"]]))
        assert report.micro_f1 == 0.0
        assert report.recall == 0.0 and report.precision == 0.0

    def test_fine_labels_mapped_to_coarse_rows(self):
        gold = _corpus_from_label_rows([["B-Patient", "B-Zip"]])
        report = binary_token_f1(gold, _labels([["B-Doctor", "B-Zip"]]))
        # Patient and Doctor share the NAME category at token level.
        assert report.per_category["NAME"].f1 == 1.0
        assert report.per_category["LOCATION"].f1 == 1.0

    def test_support_sums_to_gold_phi_tokens(self):
        rows = [["B-NAME", "I-NAME", "O"], ["B-DATE", "B-ID", "B-CONTACT"]]
        gold = _corpus_from_label_rows(rows)
        report = binary_token_f1(gold, _labels([["O"] * 3, ["O"] * 3]))
        assert sum(s.support for s in report.per_category.values()) == 5

    def test_length_mismatch_rejected(self):
        gold = _corpus_from_label_rows([["O", "O"]])
        with pytest.raises(PhiconError):
            binary_token_f1(gold, _labels([["O"]]))
        with pytest.raises(PhiconError):
            binary_token_f1(gold, [])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_property_matches_brute_force(self, data):
        shape = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
        strat = st.sampled_from(COARSE_LABELS)
        gold_rows, pred_rows = [], []
        for n in shape:
            gold_rows.append(
                data.draw(st.lists(strat, min_size=n, max_size=n)))
            pred = data.draw(st.lists(strat, min_size=n, max_size=n))
            # predictions must be BIO-consistent gold-side only; the metric
            # does not require BIO validity of predictions, so raw draws are
            # fine for gold too because tokens are scored independently.
            pred_rows.append(pred)
        gold = _corpus_from_label_rows(gold_rows)
        report = binary_token_f1(gold, _labels(pred_rows))
        expected = _brute_force_binary(gold_rows, pred_rows)
        assert report.micro_f1 == pytest.approx(expected, abs=1e-12)


class TestSubsample:
    def test_size_and_membership(self, site_splits):
        train = site_splits["train_a"]
        sub = _subsample(train, 0.2, seed=4)
        assert len(sub.documents) == int(0.2 * len(train.documents))
        ids = {d.id for d in train.documents}
        assert all(d.id in ids for d in sub.documents)

    def test_deterministic(self, site_splits):
        train = site_splits["train_a"]
        a = _subsample(train, 0.5, seed=4)
        b = _subsample(train, 0.5, seed=4)
        assert a == b

    def test_empty_rejected(self, site_splits):
        with pytest.raises(PhiconError):
            _subsample(site_splits["train_a"], 0.001, seed=4)


class TestCrossDatasetEval:
    def test_paired_seeds_make_baseline_repeatable(self, site_splits):
        train, test = site_splits["train_a"], site_splits["dev_b"]
        a = cross_dataset_eval(train, test, [("baseline", None)],
                               train_fraction=0.2, n_seeds=2, epochs=2)
        b = cross_dataset_eval(train, test, [("baseline", None)],
                               train_fraction=0.2, n_seeds=2, epochs=2)
        assert a == b

    def test_arm_lists_have_n_seeds_entries(self, site_splits):
        result = cross_dataset_eval(
            site_splits["train_a"], site_splits["dev_b"],
            [("baseline", None)], train_fraction=0.2, n_seeds=3, epochs=2)
        assert len(result.arms["baseline"]) == 3
        assert result.means["baseline"] == pytest.approx(
            sum(result.arms["baseline"]) / 3)

    def test_duplicate_baseline_arms_identical(self, site_splits):
        # Two arms with the same (null) config get identical per-seed scores,
        # proving that subsample and tagger seeds are paired across arms.
        result = cross_dataset_eval(
            site_splits["train_a"], site_splits["dev_b"],
            [("a", None), ("b", None)], train_fraction=0.2,
            n_seeds=2, epochs=2)
        assert result.arms["a"] == result.arms["b"]

    def test_rerun_gives_equal_scores(self, site_splits, builtin_registry_s,
                                      builtin_provider_s):
        args = dict(train_fraction=0.2, n_seeds=2, epochs=2,
                    registry=builtin_registry_s, provider=builtin_provider_s)
        # The experiment runs serially; a rerun gives equal scores.
        arms = [("baseline", None), ("phicon", AugmentConfig(alpha=1))]
        a, b = (cross_dataset_eval(site_splits["train_a"], site_splits["dev_b"],
                                   arms, **args) for _ in range(2))
        assert a == b

    @pytest.fixture(scope="class")
    def fine_sites(self):
        profile_a, profile_b = phicon.builtin_profiles()
        return (phicon.generate_corpus(profile_a, 40, (8, 15), seed=11),
                phicon.generate_corpus(profile_b, 20, (8, 15), seed=22))

    def test_shared_test_features_match_per_run_prediction(
            self, site_splits, fine_sites, builtin_registry_s,
            builtin_provider_s):
        # The test corpus is featurized once and read by every (seed, arm)
        # run, which also scores each distinct test feature list once per
        # model. Scores must equal those of a fresh augment_corpus, train and
        # predict_corpus per run, and a rerun must not see features changed
        # by the first run. Every training document holds an empty sentence,
        # which training skips.
        phicon_cfg = AugmentConfig(alpha=1)
        arms = [("baseline", None), ("phicon", phicon_cfg), ("other", None)]
        for train, test in [(site_splits["train_a"], site_splits["dev_b"]),
                            fine_sites]:
            train = Corpus(tuple(
                Document(d.id, d.sentences[:1] + (Sentence(()),)
                         + d.sentences[1:]) for d in train.documents))
            args = dict(train_fraction=0.2, n_seeds=2, epochs=2,
                        registry=builtin_registry_s,
                        provider=builtin_provider_s)
            serial = cross_dataset_eval(train, test, arms, **args)
            assert cross_dataset_eval(train, test, arms, **args) == serial
            for s in (1, 2):
                sub = _subsample(train, 0.2,
                                 derive_seed(evaluate._SUBSAMPLE_SALT, s))
                augmented, _ = augment_corpus(
                    sub, builtin_registry_s, builtin_provider_s,
                    replace(phicon_cfg, master_seed=derive_seed(
                        phicon_cfg.master_seed, s)))
                for name, corpus in (("baseline", sub), ("other", sub),
                                     ("phicon", augmented)):
                    model = tagger.train(
                        corpus, epochs=2,
                        seed=derive_seed(evaluate._TAGGER_SALT, s))
                    expected = binary_token_f1(
                        test, tagger.predict_corpus(model, test)).micro_f1
                    assert serial.arms[name][s - 1] == expected, name

    def test_duplicate_arm_names_rejected_before_training(
            self, site_splits, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before rejecting the arms")
        monkeypatch.setattr(tagger, "train", no_training)
        with pytest.raises(PhiconError, match="unique"):
            cross_dataset_eval(site_splits["train_a"], site_splits["dev_b"],
                               [("baseline", None), ("baseline", None)],
                               n_seeds=2)

    def test_augment_arm_requires_lexicons(self, site_splits):
        with pytest.raises(PhiconError):
            cross_dataset_eval(
                site_splits["train_a"], site_splits["dev_b"],
                [("phicon", AugmentConfig())], n_seeds=1)

    def test_bad_fraction(self, site_splits):
        with pytest.raises(PhiconError):
            cross_dataset_eval(site_splits["train_a"], site_splits["dev_b"],
                               [("baseline", None)], train_fraction=0.0)

    def test_no_seeds_rejected(self, site_splits):
        with pytest.raises(PhiconError) as err:
            cross_dataset_eval(site_splits["train_a"], site_splits["dev_b"],
                               [("baseline", None)], n_seeds=0)
        assert str(err.value) == "n_seeds must be >= 1"


class TestAlphaSweep:
    """The sweep is one experiment over the sweep_arms of its alphas."""

    def test_duplicate_alpha_rejected(self):
        with pytest.raises(PhiconError, match="distinct"):
            sweep_arms([0, 0], AugmentConfig())

    def test_alpha_zero_equals_baseline(self, site_splits, builtin_registry_s,
                                        builtin_provider_s):
        sweep = cross_dataset_eval(
            site_splits["train_a"], site_splits["dev_a"],
            sweep_arms([0], AugmentConfig()), n_seeds=2, epochs=2,
            registry=builtin_registry_s, provider=builtin_provider_s)
        baseline = cross_dataset_eval(
            site_splits["train_a"], site_splits["dev_a"],
            [("alpha=0", None)], n_seeds=2, epochs=2)
        assert sweep.means["alpha=0"] == baseline.means["alpha=0"]

    def test_matches_one_experiment_per_alpha(
            self, site_splits, builtin_registry_s, builtin_provider_s):
        args = dict(n_seeds=1, epochs=1, registry=builtin_registry_s,
                    provider=builtin_provider_s)
        base = AugmentConfig(master_seed=4)
        sweep = cross_dataset_eval(site_splits["train_a"],
                                   site_splits["dev_b"],
                                   sweep_arms([1, 0], base), **args)
        for a in (1, 0):
            arm = (f"alpha={a}", replace(base, alpha=a) if a else None)
            result = cross_dataset_eval(
                site_splits["train_a"], site_splits["dev_b"], [arm], **args)
            assert sweep.means[f"alpha={a}"] == result.means[f"alpha={a}"]

    def test_empty_alphas_rejected(self):
        with pytest.raises(PhiconError):
            sweep_arms([], AugmentConfig())


class TestExperimentArms:
    def test_arm_switches_off_only_unused_components(self):
        base = AugmentConfig(alpha=3, sr_rate=0.2, enable_sr=False,
                             master_seed=5)
        arms = dict(experiment_arms(ABLATION_ARMS, base))
        assert arms["baseline"] is None
        assert arms["phi_only"] == replace(base, enable_ri=False)
        assert arms["context_only"] == replace(base, enable_phi=False)
        assert arms["phicon"] == base

    def test_alpha_zero_means_no_augmentation(self):
        arms = experiment_arms(["phicon", "phi_only"], AugmentConfig(alpha=0))
        assert arms == [("phicon", None), ("phi_only", None)]

    def test_unknown_arm_rejected(self):
        with pytest.raises(PhiconError, match="unknown arm"):
            experiment_arms(["baseline", "nonsense"], AugmentConfig())


class TestAblation:
    def test_four_arms(self, site_splits, builtin_registry_s,
                       builtin_provider_s):
        result = cross_dataset_eval(
            site_splits["train_a"], site_splits["dev_b"],
            experiment_arms(ABLATION_ARMS, AugmentConfig(alpha=1)),
            n_seeds=1, epochs=2, registry=builtin_registry_s,
            provider=builtin_provider_s, train_fraction=0.2)
        assert tuple(result.arms) == ABLATION_ARMS

    def test_alpha_zero_collapses_arms(self, site_splits):
        result = cross_dataset_eval(
            site_splits["train_a"], site_splits["dev_b"],
            experiment_arms(ABLATION_ARMS, AugmentConfig(alpha=0)),
            n_seeds=1, epochs=1, train_fraction=0.2)
        scores = {tuple(v) for v in result.arms.values()}
        assert len(scores) == 1


class TestRendering:
    def _result(self, site_splits):
        return cross_dataset_eval(
            site_splits["train_a"], site_splits["dev_b"],
            [("baseline", None)], train_fraction=0.2, n_seeds=2, epochs=1)

    def test_table_contains_arms_and_means(self, site_splits):
        result = self._result(site_splits)
        text = format_experiment_table(result)
        assert "baseline" in text and "mean" in text
        assert f"{result.means['baseline']:7.4f}" in text

    def test_records_are_json_lines(self, site_splits):
        result = self._result(site_splits)
        lines = experiment_records(result)
        assert len(lines) == 3  # 2 seeds + 1 mean
        parsed = [json.loads(l) for l in lines]
        assert parsed[-1]["seed"] == "mean"

    @pytest.mark.parametrize("arms,alpha,header", [
        ([("alpha=1", AugmentConfig(alpha=1)),
          ("alpha=3", AugmentConfig(alpha=3))], None, ""),
        ([("baseline", None), ("phicon", AugmentConfig(alpha=2))], 2,
         "  alpha=2"),
        ([("baseline", None)], 0, "  alpha=0"),
    ], ids=["alphas-differ", "headline", "no-augmentation"])
    def test_alpha_is_shared_by_augmenting_arms(
            self, site_splits, builtin_registry_s, builtin_provider_s, arms,
            alpha, header):
        # The alpha used to be the first augmenting arm's, so a sweep's
        # alpha=3 record read "alpha": 1.
        result = cross_dataset_eval(
            site_splits["train_a"], site_splits["dev_b"], arms,
            train_fraction=0.2, n_seeds=1, epochs=1,
            registry=builtin_registry_s, provider=builtin_provider_s,
            setting="a->b")
        assert result.alpha == alpha
        assert [json.loads(r)["alpha"] for r in experiment_records(result)] \
            == [alpha] * 2 * len(arms)
        assert format_experiment_table(result).splitlines()[0] == \
            "setting=a->b  fraction=0.2" + header

    def test_eval_report_rendering(self):
        gold = _corpus_from_label_rows([["B-NAME", "O"]])
        report = binary_token_f1(gold, _labels([["B-NAME", "O"]]))
        text = format_eval_report(report)
        assert "micro-F1: 1.0000" in text and "NAME" in text
