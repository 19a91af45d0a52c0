"""Command-line interface: the pipeline as subcommands.

Exit codes: 0 success, 1 domain error, 2 usage error. Logs go to stderr,
data to files or stdout. All randomness is controlled by --seed / config.

An INI config file (see load_config) can preset flag values; explicit
command-line flags always win.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys

from . import __version__
from .augment import AugmentConfig, augment_corpus, write_records
from .builtin import builtin_provider, builtin_registry
from .corpus import (
    atomic_open, corpus_stats, map_to_coarse, read_conll, split_corpus,
    write_conll,
)
from .errors import PhiconError
from .evaluate import (
    ABLATION_ARMS, alpha_sweep, binary_token_f1, cross_dataset_eval,
    experiment_arms, experiment_records, format_eval_report,
    format_experiment_table,
)
from .lexicon import (
    DEFAULT_GENERATED_COUNTS, DEFAULT_GENERATOR_SPECS, GeneratorSpec,
    LexiconRegistry, generate_identifiers, load_lexicon,
)
from .synonyms import load_tsv, load_wndb
from .synthgen import builtin_profiles, generate_corpus
from . import tagger

_CONFIG_SECTIONS = {
    "paths": {"lexicon_dir", "synonyms", "output_dir"},
    "augment": {"alpha", "sr_rate", "ri_rate", "enable_phi", "enable_sr",
                "enable_ri", "seed", "drop_unchanged",
                "keep_context_sentences"},
    "experiment": {"fractions", "alphas", "n_seeds", "epochs"},
}


def load_config(path) -> dict:
    """Parse the INI config; unknown sections or keys are rejected.

    Sections: [paths], [augment], [experiment], and one [generator.<Type>]
    per generator-backed PHI type with keys patterns, weights, count.
    Pattern lists are newline-separated inside a key.
    """
    cp = configparser.ConfigParser()
    if not cp.read(path, encoding="utf-8"):
        raise PhiconError(f"config file not found: {path}")
    out: dict = {"generators": {}}
    for section in cp.sections():
        if section.startswith("generator."):
            phi_type = section[len("generator."):]
            keys = set(cp[section]) - {"patterns", "weights", "count", "seed"}
            if keys:
                raise PhiconError(f"unknown keys {sorted(keys)} in [{section}]")
            patterns = tuple(
                p for p in cp[section].get("patterns", "").splitlines() if p)
            weights = tuple(
                float(w) for w in cp[section].get("weights", "").split() if w)
            out["generators"][phi_type] = {
                "patterns": patterns,
                "weights": weights,
                "count": cp[section].getint("count", fallback=None),
                "seed": cp[section].getint("seed", fallback=0),
            }
            continue
        allowed = _CONFIG_SECTIONS.get(section)
        if allowed is None:
            raise PhiconError(f"unknown config section [{section}]")
        unknown = set(cp[section]) - allowed
        if unknown:
            raise PhiconError(f"unknown keys {sorted(unknown)} in [{section}]")
        out[section] = dict(cp[section])
    return out


def _arg_type(cast, check, expected: str):
    """An argparse type: cast the raw value and require check(value)."""
    def parse(raw: str):
        try:
            value = cast(raw)
            if check(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {raw!r}")
    return parse


_ALPHA = _arg_type(int, lambda v: v >= 0, "an integer >= 0")
_RATE = _arg_type(float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")
_ALPHAS = _arg_type(lambda raw: [int(a) for a in raw.split(",")],
                    lambda v: min(v) >= 0, "comma-separated integers >= 0")
_RATIOS = _arg_type(lambda raw: tuple(float(x) for x in raw.split(",")),
                    lambda v: True, "comma-separated numbers")


def _bool(raw: str) -> bool:
    return raw.lower() in ("1", "true", "yes")


def _setting(flag, config, section: str, key: str, cast, default):
    """The flag if given, else the cast config value, else the default."""
    if flag is not None:
        return flag
    raw = config.get(section, {}).get(key)
    if raw is None:
        return default
    try:
        return cast(raw)
    except (ValueError, argparse.ArgumentTypeError) as e:
        raise PhiconError(f"[{section}] {key}: {e}") from None


def _augment_config(args, config) -> AugmentConfig:
    def pick(key, cast, default):
        return _setting(getattr(args, key, None), config, "augment", key,
                        cast, default)

    return AugmentConfig(
        alpha=pick("alpha", _ALPHA, 2),
        sr_rate=pick("sr_rate", _RATE, 0.1),
        ri_rate=pick("ri_rate", _RATE, 0.05),
        enable_phi=pick("enable_phi", _bool, True),
        enable_sr=pick("enable_sr", _bool, True),
        enable_ri=pick("enable_ri", _bool, True),
        master_seed=pick("seed", int, 0),
        drop_unchanged=pick("drop_unchanged", _bool, True),
        keep_context_sentences=pick("keep_context_sentences", _bool, False),
    )


def _build_registry(args, config) -> LexiconRegistry:
    """The builtin registry with the configured pools swapped in. Per PHI
    type the first of these wins: a [generator.<Type>] patterns section, a
    <Type>.txt in the lexicon dir, a count-only section, the builtin pool."""
    seed = args.seed or 0
    lexicon_dir = args.lexicon_dir or config.get("paths", {}).get("lexicon_dir")
    lexicons = {}
    if lexicon_dir is not None:
        for name in sorted(os.listdir(lexicon_dir)):
            if name.endswith(".txt"):
                lexicons[name[:-4]] = load_lexicon(
                    os.path.join(lexicon_dir, name), name[:-4])
    for phi_type, g in config.get("generators", {}).items():
        if g["patterns"]:
            spec = GeneratorSpec(phi_type, g["patterns"],
                                 g["weights"] or (1.0,) * len(g["patterns"]))
            lexicons[phi_type] = generate_identifiers(
                spec, g["count"] or 2000, g["seed"])
        elif (g["count"] and phi_type in DEFAULT_GENERATOR_SPECS
              and phi_type not in lexicons):
            lexicons[phi_type] = generate_identifiers(
                DEFAULT_GENERATOR_SPECS[phi_type], g["count"], seed)
    return builtin_registry(seed=seed, lexicons=lexicons)


def _build_provider(args, config):
    paths = config.get("paths", {})
    source = args.synonyms or paths.get("synonyms", "builtin")
    if source == "builtin":
        return builtin_provider()
    if source.startswith("wndb:"):
        return load_wndb(source[len("wndb:"):])
    return load_tsv(source)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_augment(args, config):
    corpus = read_conll(args.infile)
    cfg = _augment_config(args, config)
    registry = _build_registry(args, config)
    provider = _build_provider(args, config)
    if args.dry_run:
        eligible = sum(
            1 for s in corpus.sentences() if any(t.label.is_phi for t in s.tokens))
        _log(f"documents: {len(corpus.documents)}")
        _log(f"sentences eligible for augmentation: {eligible}")
        _log(f"expected augmented sentences: <= {cfg.alpha * eligible}")
        return 0
    out, records = augment_corpus(corpus, registry, provider, cfg)
    write_conll(out, args.outfile)
    if args.records:
        write_records(records, args.records)
    _log(f"wrote {len(out.documents)} documents "
         f"({len(records)} augmented sentences) to {args.outfile}")
    return 0


def _cmd_gen_lexicon(args, config):
    gens = config.get("generators", {})
    spec = DEFAULT_GENERATOR_SPECS.get(args.type)
    if args.type in gens and gens[args.type]["patterns"]:
        g = gens[args.type]
        spec = GeneratorSpec(args.type, g["patterns"],
                             g["weights"] or (1.0,) * len(g["patterns"]))
    if spec is None:
        raise PhiconError(f"no generator spec for type {args.type!r}")
    count = args.count or DEFAULT_GENERATED_COUNTS[args.type]
    lexicon = generate_identifiers(spec, count, args.seed)
    with atomic_open(args.outfile) as f:
        for entry in lexicon.entries:
            f.write(entry + "\n")
    _log(f"wrote {len(lexicon)} {args.type} entries to {args.outfile}")
    return 0


def _cmd_synth(args, config):
    site_a, site_b = builtin_profiles()
    profile = {"A": site_a, "B": site_b}[args.site]
    corpus = generate_corpus(profile, args.docs,
                             (args.min_sentences, args.max_sentences),
                             seed=args.seed)
    if args.coarse:
        corpus = map_to_coarse(corpus)
    write_conll(corpus, args.outfile)
    _log(f"wrote {args.docs} Site{args.site} documents to {args.outfile}")
    return 0


def _cmd_split(args, config):
    corpus = read_conll(args.infile)
    if len(args.ratios) != 3:
        raise PhiconError("ratios must be three comma-separated numbers")
    train, dev, test = split_corpus(corpus, args.ratios, args.seed)
    for part, name in ((train, "train"), (dev, "dev"), (test, "test")):
        path = f"{args.out_prefix}.{name}.conll"
        write_conll(part, path)
        _log(f"{name}: {len(part.documents)} documents -> {path}")
    return 0


def _cmd_stats(args, config):
    stats = corpus_stats(read_conll(args.infile))
    print(f"notes: {stats.note_count}")
    print(f"avg tokens/note: {stats.avg_tokens_per_note:.1f}")
    print(f"avg PHI/note: {stats.avg_phi_per_note:.1f}")
    for category in sorted(stats.phi_counts):
        print(f"  {category}: {stats.phi_counts[category]}")
    return 0


def _cmd_train(args, config):
    corpus = read_conll(args.infile)
    model = tagger.train(corpus, epochs=args.epochs, seed=args.seed)
    tagger.save_model(model, args.model)
    _log(f"trained on {len(corpus.documents)} documents; "
         f"model saved to {args.model}")
    return 0


def _cmd_eval(args, config):
    model = tagger.load_model(args.model)
    gold = read_conll(args.test)
    report = binary_token_f1(gold, tagger.predict_corpus(model, gold))
    print(format_eval_report(report), end="")
    return 0


def _experiment_args(args, config):
    n_seeds = _setting(args.seeds, config, "experiment", "n_seeds", int, 5)
    epochs = _setting(args.epochs, config, "experiment", "epochs", int, 5)
    return n_seeds, epochs


def _cmd_xeval(args, config):
    """xeval, and ablate (xeval with the four ABLATION_ARMS)."""
    train_c = read_conll(args.train)
    test_c = read_conll(args.test)
    cfg = _augment_config(args, config)
    n_seeds, epochs = _experiment_args(args, config)
    arms = experiment_arms(args.arms.split(","), cfg)
    needs_aug = any(c is not None for _, c in arms)
    registry = _build_registry(args, config) if needs_aug else None
    provider = _build_provider(args, config) if needs_aug else None
    result = cross_dataset_eval(
        train_c, test_c, arms, train_fraction=args.fraction,
        n_seeds=n_seeds, epochs=epochs, registry=registry,
        provider=provider, setting=f"{args.train}->{args.test}")
    print(format_experiment_table(result), end="")
    if args.records:
        with atomic_open(args.records) as f:
            f.write("\n".join(experiment_records(result)) + "\n")
    return 0


def _cmd_sweep(args, config):
    train_c = read_conll(args.train)
    dev_c = read_conll(args.dev)
    cfg = _augment_config(args, config)
    n_seeds, epochs = _experiment_args(args, config)
    alphas = _setting(args.alphas, config, "experiment", "alphas", _ALPHAS,
                      [1, 2, 3, 4])
    registry = _build_registry(args, config)
    provider = _build_provider(args, config)
    curve = alpha_sweep(train_c, dev_c, alphas, cfg, n_seeds=n_seeds,
                        epochs=epochs, registry=registry, provider=provider,
                        setting=f"{args.train}->{args.dev}")
    print("alpha  mean_micro_f1")
    for a, score in curve.items():
        print(f"{a:<6} {score:.4f}")
    return 0


# ---------------------------------------------------------------------------

def _add_augment_flags(p):
    p.add_argument("--alpha", type=_ALPHA, default=None)
    p.add_argument("--sr-rate", dest="sr_rate", type=_RATE, default=None)
    p.add_argument("--ri-rate", dest="ri_rate", type=_RATE, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--lexicon-dir", dest="lexicon_dir", default=None)
    p.add_argument("--synonyms", default=None,
                   help="'builtin', a TSV path, or 'wndb:<directory>'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phicon",
        description="PHI + context data augmentation for BIO-labeled "
                    "de-identification corpora.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", default=None, help="INI config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("augment", help="write D_new = D + alpha copies")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--records", default=None, help="JSONL audit log path")
    p.add_argument("--dry-run", action="store_true")
    _add_augment_flags(p)
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("gen-lexicon", help="generate an identifier lexicon")
    p.add_argument("--type", required=True,
                   choices=sorted(DEFAULT_GENERATOR_SPECS))
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=_cmd_gen_lexicon)

    p = sub.add_parser("synth", help="generate a synthetic site corpus")
    p.add_argument("--site", required=True, choices=["A", "B"])
    p.add_argument("--docs", type=int, default=200)
    p.add_argument("--min-sentences", type=int, default=8)
    p.add_argument("--max-sentences", type=int, default=15)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coarse", action="store_true",
                   help="map fine PHI types to coarse categories")
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("split", help="note-level train/dev/test split")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out-prefix", dest="out_prefix", required=True)
    p.add_argument("--ratios", type=_RATIOS, default=(0.7, 0.1, 0.2))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("stats", help="corpus statistics")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("train", help="train the baseline tagger")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model on a gold corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.set_defaults(func=_cmd_eval)

    for name, helptext in (("xeval", "cross-dataset experiment"),
                           ("ablate", "4-arm ablation experiment")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--train", required=True)
        p.add_argument("--test", required=True)
        if name == "xeval":
            p.add_argument("--arms", default="baseline,phicon")
            p.add_argument("--records", default=None)
        else:
            p.set_defaults(arms=",".join(ABLATION_ARMS), records=None)
        p.add_argument("--fraction", type=float, default=1.0)
        p.add_argument("--seeds", type=int, default=None)
        p.add_argument("--epochs", type=int, default=None)
        _add_augment_flags(p)
        p.set_defaults(func=_cmd_xeval)

    p = sub.add_parser("sweep", help="augmentation-factor sweep on a dev set")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--alphas", type=_ALPHAS, default=None, help="e.g. 1,2,3,4")
    p.add_argument("--seeds", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    _add_augment_flags(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        config = load_config(args.config) if args.config else {}
        return args.func(args, config)
    # ValueError: a value the library rejects, e.g. from a config file
    except (PhiconError, OSError, ValueError, configparser.Error) as e:
        _log("error: " + " ".join(str(e).split()))  # always one line
        return 1


def main() -> None:
    sys.exit(run())
