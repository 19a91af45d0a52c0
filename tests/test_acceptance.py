"""End-to-end acceptance checks for the augmentation toolkit.

Each test asserts one property of the shipped system at its stated
tolerance, using the synthetic two-site fixtures plus exact oracles.
Criteria 1-4 and 9 are statistical properties of the SiteA->SiteB
protocol; 5-8 are exact oracles over randomized inputs.
"""

import random
import re
import time

import pytest

import phicon
from phicon.augment import AugmentConfig, augment_corpus, augment_sentence
from phicon.corpus import (
    Corpus, Document, Label, Sentence, Token, parse_conll, serialize_conll,
    validate_bio,
)
from phicon.evaluate import (
    ABLATION_ARMS, binary_token_f1, cross_dataset_eval, experiment_arms,
    format_experiment_table, sweep_arms,
)
from phicon.lexicon import registry_resolve
from phicon.rng import RandomStream
from phicon.synthgen import builtin_profiles, generate_corpus
from phicon.tagger import TaggerModel, load_model, save_model, train

ARMS = [("baseline", None), ("phicon", AugmentConfig(alpha=2))]


@pytest.fixture(scope="module")
def headline_runs(site_splits, builtin_registry_s, builtin_provider_s):
    """SiteA->SiteB at fractions 0.2 and 1.0; alpha=2, 5 paired seeds."""
    start = time.monotonic()
    results = {}
    for fraction in (0.2, 1.0):
        results[fraction] = cross_dataset_eval(
            site_splits["train_a"], site_splits["all_b"], ARMS,
            train_fraction=fraction, n_seeds=5, epochs=5,
            registry=builtin_registry_s, provider=builtin_provider_s,
            setting="SiteA->SiteB")
    results["elapsed"] = time.monotonic() - start
    return results


class TestCriterion1GeneralizationImprovement:
    def test_phicon_beats_baseline_at_both_fractions(self, headline_runs):
        for fraction in (0.2, 1.0):
            means = headline_runs[fraction].means
            assert means["phicon"] > means["baseline"], (
                f"fraction {fraction}: phicon {means['phicon']:.4f} "
                f"<= baseline {means['baseline']:.4f}")

    def test_improvement_positive_in_4_of_5_seeds_low_resource(
            self, headline_runs):
        arms = headline_runs[0.2].arms
        wins = sum(p > b for p, b in zip(arms["phicon"], arms["baseline"]))
        assert wins >= 4, f"phicon beat baseline in only {wins}/5 seeds"

    def test_reverse_direction_means(self, site_splits, site_corpora,
                                     builtin_registry_s, builtin_provider_s):
        # SiteB->SiteA. A single seed can lose (the first, at fraction 1.0,
        # by 0.147), so only the means are compared.
        for fraction in (0.2, 1.0):
            means = cross_dataset_eval(
                site_splits["train_b"], site_corpora[0], ARMS,
                train_fraction=fraction, n_seeds=5, epochs=5,
                registry=builtin_registry_s, provider=builtin_provider_s,
                setting="SiteB->SiteA").means
            assert means["phicon"] > means["baseline"], (
                f"fraction {fraction}: phicon {means['phicon']:.4f} "
                f"<= baseline {means['baseline']:.4f}")

    def test_wall_time_under_3_minutes(self, headline_runs):
        assert headline_runs["elapsed"] < 180, (
            f"headline runs took {headline_runs['elapsed']:.0f}s")


class TestCriterion2LowResourceAmplification:
    def test_improvement_larger_when_data_is_scarce(self, headline_runs):
        gain = {f: headline_runs[f].means["phicon"] -
                headline_runs[f].means["baseline"] for f in (0.2, 1.0)}
        # 1 F1 point of slack on the comparison
        assert gain[0.2] >= gain[1.0] - 0.01, (
            f"gain at 0.2 ({gain[0.2]:.4f}) < gain at 1.0 ({gain[1.0]:.4f})")


@pytest.fixture(scope="module")
def ablation(site_splits, builtin_registry_s, builtin_provider_s):
    return cross_dataset_eval(
        site_splits["train_a"], site_splits["all_b"],
        experiment_arms(ABLATION_ARMS, AugmentConfig(alpha=2)),
        n_seeds=3, epochs=5, registry=builtin_registry_s,
        provider=builtin_provider_s, train_fraction=0.2,
        setting="SiteA->SiteB")


class TestCriterion3AblationStructure:
    def test_component_arms_do_not_hurt(self, ablation):
        means = ablation.means
        assert means["phi_only"] >= means["baseline"]
        assert means["phicon"] >= means["baseline"]

    def test_four_arm_table_layout(self, ablation):
        table = format_experiment_table(ablation)
        lines = table.splitlines()
        arms = [l.split()[0] for l in lines[2:]]
        assert arms == ["baseline", "phi_only", "context_only", "phicon"]
        assert "mean" in lines[1]


class TestCriterion4AlphaSweep:
    def test_four_point_curve_and_no_alpha_hurts(
            self, site_splits, builtin_registry_s, builtin_provider_s):
        train = Corpus(site_splits["train_a"].documents[:40])
        dev = site_splits["dev_a"]
        timings = {}
        curve = {}
        for a in (0, 1, 2, 3, 4):
            t0 = time.monotonic()
            curve[a] = cross_dataset_eval(
                train, dev, sweep_arms([a], AugmentConfig()), n_seeds=2,
                epochs=5, registry=builtin_registry_s,
                provider=builtin_provider_s).means[f"alpha={a}"]
            timings[a] = time.monotonic() - t0
        assert sorted(curve) == [0, 1, 2, 3, 4]
        baseline = curve[0]
        for a in (1, 2, 3, 4):
            assert curve[a] >= baseline - 0.01, (
                f"alpha={a} scored {curve[a]:.4f} vs baseline {baseline:.4f}")
        # informational: runtime should grow roughly linearly in alpha
        print(f"\nalpha sweep timings (s): "
              f"{ {a: round(t, 2) for a, t in timings.items()} }")

    def test_cross_site_every_alpha_beats_no_augmentation(
            self, site_splits, builtin_registry_s, builtin_provider_s):
        # On the in-domain dev split above the curve sits near 1.0, so the
        # choice of alpha shows only against the other site.
        means = cross_dataset_eval(
            Corpus(site_splits["train_a"].documents[:40]),
            site_splits["dev_b"], sweep_arms([0, 1, 2, 3, 4], AugmentConfig()),
            n_seeds=2, epochs=5, registry=builtin_registry_s,
            provider=builtin_provider_s).means
        for a in (1, 2, 3, 4):
            assert means[f"alpha={a}"] > means["alpha=0"], (
                f"alpha={a} scored {means[f'alpha={a}']:.4f} vs "
                f"alpha=0 {means['alpha=0']:.4f}")


class TestCriterion5MetricOracle:
    LABELS = ["O", "B-NAME", "I-NAME", "B-LOCATION", "I-LOCATION",
              "B-DATE", "B-ID", "B-CONTACT"]

    def test_1000_randomized_cases_exact(self):
        rng = random.Random(0xACCE)
        for _ in range(1000):
            n_sents = rng.randint(1, 5)
            gold_rows, pred_rows = [], []
            for _ in range(n_sents):
                n = rng.randint(1, 10)
                gold_rows.append([rng.choice(self.LABELS) for _ in range(n)])
                pred_rows.append([rng.choice(self.LABELS) for _ in range(n)])
            gold = Corpus((Document("d", tuple(
                Sentence(tuple(Token(f"w{i}", Label.parse(l))
                               for i, l in enumerate(row)))
                for row in gold_rows)),))
            pred = [[Label.parse(l) for l in row] for row in pred_rows]
            report = binary_token_f1(gold, pred)
            tp = fp = fn = tn = 0
            for grow, prow in zip(gold_rows, pred_rows):
                for g, p in zip(grow, prow):
                    if g != "O" and p != "O":
                        tp += 1
                    elif g != "O":
                        fn += 1
                    elif p != "O":
                        fp += 1
                    else:
                        tn += 1
            assert report.token_counts == \
                {"tp": tp, "fp": fp, "fn": fn, "tn": tn}
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
            assert report.micro_f1 == f1


class TestCriterion6Determinism:
    def test_augment_corpus_byte_identical(self, site_corpora,
                                           builtin_registry_s,
                                           builtin_provider_s):
        corpus = Corpus(site_corpora[0].documents[:30])
        cfg = AugmentConfig(alpha=2, master_seed=17)
        outs = [serialize_conll(augment_corpus(
            corpus, builtin_registry_s, builtin_provider_s, cfg)[0])
            for _ in range(3)]
        assert outs[0] == outs[1] == outs[2]

    def test_generate_corpus_byte_identical(self):
        profile = builtin_profiles()[0]
        a = serialize_conll(generate_corpus(profile, 25, (5, 10), seed=3))
        b = serialize_conll(generate_corpus(profile, 25, (5, 10), seed=3))
        assert a == b

    def test_train_byte_identical(self, site_corpora, tmp_path):
        corpus = Corpus(site_corpora[0].documents[:30])
        paths = [tmp_path / "m1.txt", tmp_path / "m2.txt"]
        for path in paths:
            save_model(train(corpus, epochs=3, seed=6), path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_xeval_identical_across_runs(
            self, site_splits, builtin_registry_s, builtin_provider_s):
        args = dict(train_fraction=0.2, n_seeds=2, epochs=2,
                    registry=builtin_registry_s, provider=builtin_provider_s)
        runs = [cross_dataset_eval(
            site_splits["train_a"], site_splits["dev_b"],
            [("baseline", None), ("phicon", AugmentConfig(alpha=1))],
            **args) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]


class TestCriterion7StructuralInvariants:
    def test_10000_sentence_fuzz(self, builtin_registry_s, builtin_provider_s):
        profiles = builtin_profiles()
        resolved = {}
        cfg = AugmentConfig(sr_rate=0.3, ri_rate=0.2, drop_unchanged=False)
        checked = 0
        doc_count = 0
        while checked < 10_000:
            profile = profiles[doc_count % 2]
            corpus = generate_corpus(profile, 40, (8, 15),
                                     seed=1000 + doc_count)
            doc_count += 1
            for si, sent in enumerate(corpus.sentences()):
                if checked >= 10_000:
                    break
                rng = RandomStream(phicon.derive_seed(0xF022, doc_count, si))
                out, applied, reps = augment_sentence(
                    sent, builtin_registry_s, builtin_provider_s, cfg, rng)
                checked += 1
                # (a) every augmented sentence is BIO-valid
                assert not validate_bio(out), serialize_conll(
                    Corpus((Document("d", (out,)),)))
                # (b) zero context edits inside PHI spans: output spans are
                # exactly the recorded replacements, types and surfaces intact
                spans = phicon.extract_entities(out)
                assert [(s.phi_type, s.surface) for s in spans] == \
                    [(r.phi_type, r.new_surface) for r in reps]
                # (c) lexicon-provenance closure for every replaced PHI
                for r in reps:
                    if r.phi_type not in resolved:
                        resolved[r.phi_type] = set(registry_resolve(
                            builtin_registry_s, r.phi_type).entries)
                    assert r.new_surface in resolved[r.phi_type]
        assert checked == 10_000


def _random_bio_sentence(rng):
    fine = sorted(phicon.DEFAULT_TAXONOMY.fine_types)
    tokens = []
    prev_type = None
    for _ in range(rng.randint(1, 12)):
        text = "".join(rng.choice("abcXYZ019-./") for _ in range(
            rng.randint(1, 8)))
        roll = rng.random()
        if roll < 0.5:
            label, prev_type = Label.parse("O"), None
        elif roll < 0.8 or prev_type is None:
            prev_type = rng.choice(fine)
            label = Label.parse(f"B-{prev_type}")
        else:
            label = Label.parse(f"I-{prev_type}")
        tokens.append(Token(text, label))
    return Sentence(tuple(tokens))


class TestCriterion8RoundTrips:
    def test_conll_round_trip_500_cases(self):
        rng = random.Random(8_8)
        for case in range(500):
            docs = tuple(
                Document(f"doc-{case}-{d}", tuple(
                    _random_bio_sentence(rng)
                    for _ in range(rng.randint(1, 4))))
                for d in range(rng.randint(1, 3)))
            corpus = Corpus(docs)
            assert parse_conll(serialize_conll(corpus)) == corpus

    def test_model_round_trip_500_cases(self, tmp_path):
        rng = random.Random(8_9)
        labels = ["O", "B-NAME", "I-NAME", "B-DATE"]
        path = tmp_path / "model.txt"
        for _ in range(500):
            weights = {}
            for _ in range(rng.randint(1, 30)):
                feat = "w=" + "".join(
                    rng.choice("abcdef0") for _ in range(rng.randint(1, 6)))
                weights[feat] = {
                    rng.choice(labels): rng.uniform(-5, 5)
                    for _ in range(rng.randint(1, 3))}
            model = TaggerModel(
                weights, list(labels),
                {"epochs": rng.randint(1, 9), "seed": rng.randint(0, 999),
                 "corpus_fingerprint": f"{rng.getrandbits(64):016x}"})
            save_model(model, path)
            loaded = load_model(path)
            assert loaded.weights == model.weights
            assert loaded.label_set == model.label_set
            assert loaded.training_meta == model.training_meta


class TestCriterion9FixtureCalibration:
    def test_in_domain_strength_and_cross_site_drop(self, site_splits):
        from phicon import tagger
        model = tagger.train(site_splits["train_a"], epochs=5, seed=0)
        in_domain = binary_token_f1(
            site_splits["test_a"],
            tagger.predict_corpus(model, site_splits["test_a"])).micro_f1
        cross = binary_token_f1(
            site_splits["all_b"],
            tagger.predict_corpus(model, site_splits["all_b"])).micro_f1
        assert in_domain >= 0.85 - 0.05, f"in-domain micro-F1 {in_domain:.4f}"
        drop = (in_domain - cross) * 100
        assert drop >= 10 - 3, (
            f"cross-site drop only {drop:.1f} points "
            f"(in-domain {in_domain:.4f}, cross {cross:.4f})")
