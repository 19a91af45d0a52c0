"""Measurement protocol: binary token-level micro-F1, per-category F1,
cross-dataset runs averaged over seeds, the alpha sweep, and ablation arms.

Binary token scoring collapses every label to PHI vs non-PHI before
counting, so a NAME token predicted as LOCATION still counts as a binary
true positive; per-category rows expose that kind of confusion instead.
F1 with a zero denominator is defined as 0.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, replace

from .augment import AugmentConfig, augment_corpus
from .corpus import Corpus, Label
from .errors import PhiconError
from .rng import RandomStream, derive_seed
from . import tagger


@dataclass(frozen=True)
class CategoryScore:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class EvalReport:
    micro_f1: float
    precision: float
    recall: float
    per_category: dict[str, CategoryScore]
    token_counts: dict[str, int]  # tp, fp, fn, tn


@dataclass(frozen=True)
class ExperimentResult:
    setting: str
    train_fraction: float
    alpha: int
    arms: dict[str, list[float]]  # arm name -> per-seed micro F1
    means: dict[str, float]


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def binary_token_f1(gold: Corpus, pred: list[list[Label]]) -> EvalReport:
    """Micro P/R/F1 over all tokens binarized to PHI vs non-PHI, plus
    token-level per-coarse-category scores."""
    tax = gold.taxonomy
    sents = list(gold.sentences())
    if len(sents) != len(pred):
        raise PhiconError(
            f"prediction count {len(pred)} != sentence count {len(sents)}")

    def coarse(label: Label) -> str | None:  # Outside has phi_type None
        return tax.coarse_of.get(label.phi_type, label.phi_type)

    # (gold, predicted) coarse category -> tokens; None is Outside
    pairs: Counter = Counter()
    for si, (sent, labels) in enumerate(zip(sents, pred)):
        if len(sent) != len(labels):
            raise PhiconError(
                f"sentence {si}: prediction length {len(labels)} != "
                f"token count {len(sent)}")
        pairs.update(zip(map(coarse, sent.labels()), map(coarse, labels)))
    binary, gold_n, pred_n = Counter(), Counter(), Counter()
    for (g, p), n in pairs.items():
        binary[g is not None, p is not None] += n
        gold_n[g] += n
        pred_n[p] += n
    tp, fp, fn = binary[True, True], binary[False, True], binary[True, False]
    precision, recall, micro = _prf(tp, fp, fn)
    per_category = {}
    for c in sorted((gold_n.keys() | pred_n.keys()) - {None}):
        hit = pairs[c, c]
        per_category[c] = CategoryScore(
            *_prf(hit, pred_n[c] - hit, gold_n[c] - hit), gold_n[c])
    return EvalReport(micro, precision, recall, per_category, {
        "tp": tp, "fp": fp, "fn": fn, "tn": binary[False, False]})


# Salts keeping subsample and tagger seed streams apart per seed index.
_SUBSAMPLE_SALT = 0x5AB5
_TAGGER_SALT = 0x7A66


def _subsample(corpus: Corpus, fraction: float, seed: int) -> Corpus:
    n = len(corpus.documents)
    k = int(fraction * n)
    if k < 1:
        raise PhiconError(
            f"subsample of {n} documents at fraction {fraction} is empty")
    docs = list(corpus.documents)
    RandomStream(seed).shuffle(docs)
    return Corpus(tuple(docs[:k]), corpus.taxonomy)


def cross_dataset_eval(train: Corpus, test: Corpus, arms,
                       train_fraction: float = 1.0, n_seeds: int = 5,
                       epochs: int = 5, registry=None, provider=None,
                       setting: str = "train->test") -> ExperimentResult:
    """Train-on-one-corpus, test-on-the-other protocol.

    arms: list of (name, AugmentConfig | None); None means no augmentation.
    Every arm shares, per seed index, the same training subsample and the
    same tagger seed, so arm differences isolate the augmentation.
    """
    if not 0 < train_fraction <= 1:
        raise PhiconError("train_fraction must be in (0, 1]")
    if n_seeds < 1:
        raise PhiconError("n_seeds must be >= 1")
    needs_aug = any(cfg is not None for _, cfg in arms)
    if needs_aug and (registry is None or provider is None):
        raise PhiconError("augmentation arms need a registry and a provider")
    per_arm: dict[str, list[float]] = {name: [] for name, _ in arms}
    if len(per_arm) != len(arms):
        raise PhiconError("arm names must be unique")
    alpha = next((cfg.alpha for _, cfg in arms if cfg is not None), 0)
    # The test set is featurized once, then only read by the runs.
    test_feats = tagger.featurize_sentences(test.sentences())

    def run_one(seed_index: int, cfg) -> float:
        # A function, so each run's corpus and model are freed on return.
        corpus = _subsample(train, train_fraction,
                            derive_seed(_SUBSAMPLE_SALT, seed_index))
        if cfg is not None:
            aug_cfg = replace(cfg, master_seed=derive_seed(
                cfg.master_seed, seed_index))
            corpus, _ = augment_corpus(corpus, registry, provider, aug_cfg)
        model = tagger.train(corpus, epochs=epochs,
                             seed=derive_seed(_TAGGER_SALT, seed_index))
        return binary_token_f1(test, tagger.predict_features(
            model, test_feats, memoize=True)).micro_f1

    for s in range(1, n_seeds + 1):
        for name, cfg in arms:
            per_arm[name].append(run_one(s, cfg))

    means = {name: sum(v) / len(v) for name, v in per_arm.items()}
    return ExperimentResult(setting, train_fraction, alpha, per_arm, means)


# Arm name -> its config from the base config. An arm switches off the
# components it does not use and keeps every other base setting; None is
# no augmentation.
ARMS = {
    "baseline": lambda base: None,
    "phi_only": lambda base: replace(base, enable_sr=False, enable_ri=False),
    "context_only": lambda base: replace(base, enable_phi=False),
    "phicon": lambda base: base,
}
ABLATION_ARMS = tuple(ARMS)


def experiment_arms(names, base_config: AugmentConfig) -> list:
    """The (name, AugmentConfig | None) arm list for names from ARMS.

    A base config with alpha 0 augments nothing, so every arm is None.
    """
    arms = []
    for name in names:
        if name not in ARMS:
            raise PhiconError(f"unknown arm {name!r}")
        arms.append((name, ARMS[name](base_config) if base_config.alpha
                     else None))
    return arms


def alpha_sweep(train: Corpus, dev: Corpus, alphas, base_config: AugmentConfig,
                n_seeds: int = 5, epochs: int = 5, registry=None,
                provider=None, setting: str = "train->dev") -> dict[int, float]:
    """Mean dev-set micro-F1 for each augmentation factor."""
    if not alphas:
        raise PhiconError("alphas must be non-empty")
    if any(a < 0 for a in alphas):
        raise PhiconError("alphas must be >= 0")
    uniq = []
    for a in alphas:
        if a in uniq:
            warnings.warn(f"duplicate alpha {a} dropped", stacklevel=2)
        else:
            uniq.append(a)
    # One experiment, a phicon arm per alpha: shared subsamples and features.
    arms = [(f"alpha={a}", cfg) for a in uniq for _, cfg in
            experiment_arms(["phicon"], replace(base_config, alpha=a))]
    result = cross_dataset_eval(
        train, dev, arms, train_fraction=1.0, n_seeds=n_seeds, epochs=epochs,
        registry=registry, provider=provider, setting=setting)
    return {a: result.means[f"alpha={a}"] for a in uniq}


def ablation_run(train: Corpus, test: Corpus, base_config: AugmentConfig,
                 n_seeds: int = 5, epochs: int = 5, registry=None,
                 provider=None, train_fraction: float = 1.0,
                 setting: str = "train->test") -> ExperimentResult:
    """Four paired arms: baseline, PHI only, context only, full method."""
    return cross_dataset_eval(
        train, test, experiment_arms(ABLATION_ARMS, base_config),
        train_fraction=train_fraction, n_seeds=n_seeds, epochs=epochs,
        registry=registry, provider=provider, setting=setting)


# ---------------------------------------------------------------------------
# Report rendering

def format_experiment_table(result: ExperimentResult) -> str:
    """Human-readable arm x seed table with means, like the paper's tables."""
    names = list(result.arms)
    n_seeds = max(len(v) for v in result.arms.values())
    width = max(12, max(len(n) for n in names) + 2)
    head = (f"setting={result.setting}  fraction={result.train_fraction:g}  "
            f"alpha={result.alpha}\n")
    cols = "".join(f"  seed{i+1:<3}" for i in range(n_seeds))
    lines = [head, f"{'arm':<{width}}{cols}  {'mean':>7}\n"]
    for name in names:
        scores = "".join(f"  {v:7.4f}" for v in result.arms[name])
        lines.append(f"{name:<{width}}{scores}  {result.means[name]:7.4f}\n")
    return "".join(lines)


def experiment_records(result: ExperimentResult) -> list[str]:
    """Line-delimited JSON records for machine consumption."""
    import json
    rows = [(name, i, score) for name, scores in result.arms.items()
            for i, score in enumerate(scores, start=1)]
    rows += [(name, "mean", mean) for name, mean in result.means.items()]
    return [json.dumps({
        "setting": result.setting, "fraction": result.train_fraction,
        "alpha": result.alpha, "arm": name, "seed": seed, "micro_f1": score,
    }, sort_keys=True) for name, seed, score in rows]


def format_eval_report(report: EvalReport) -> str:
    lines = [
        f"binary token micro-F1: {report.micro_f1:.4f}  "
        f"(P={report.precision:.4f} R={report.recall:.4f})\n",
        f"token counts: {report.token_counts}\n",
    ]
    if report.per_category:
        lines.append(f"{'category':<10}{'P':>8}{'R':>8}{'F1':>8}{'support':>9}\n")
        for c, s in report.per_category.items():
            lines.append(f"{c:<10}{s.precision:8.4f}{s.recall:8.4f}"
                         f"{s.f1:8.4f}{s.support:9d}\n")
    return "".join(lines)
