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
                    lambda v: min(v) >= 0 and len(set(v)) == len(v),
                    "distinct comma-separated integers >= 0")
_RATIOS = _arg_type(lambda raw: tuple(float(x) for x in raw.split(",")),
                    lambda v: True, "comma-separated numbers")
_COUNT = _arg_type(int, lambda v: v >= 1, "an integer >= 1")
_FRACTION = _arg_type(float, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")
_BOOL = _arg_type(
    lambda raw: configparser.ConfigParser.BOOLEAN_STATES.get(raw.lower()),
    lambda v: v is not None, "one of 1/yes/true/on or 0/no/false/off")

# Every config key some command reads, with the type that parses its value.
# A flag of the same name (dest) wins over the key. Each generator-backed
# <Type> has a [generator.<Type>] section with the "generator" keys.
_SETTINGS = {
    "paths": {"lexicon_dir": str, "synonyms": str},
    "augment": {"alpha": _ALPHA, "sr_rate": _RATE, "ri_rate": _RATE,
                "enable_phi": _BOOL, "enable_sr": _BOOL, "enable_ri": _BOOL,
                "seed": int, "drop_unchanged": _BOOL,
                "keep_context_sentences": _BOOL},
    "experiment": {"alphas": _ALPHAS, "n_seeds": _COUNT, "epochs": _COUNT},
    "generator": {
        "patterns": lambda raw: tuple(filter(None, raw.splitlines())),
        "weights": lambda raw: tuple(map(float, raw.split())),
        "count": _COUNT, "seed": int},
}


def load_config(path) -> dict:
    """The INI config as {section: {key: raw string}}; unknown sections or
    keys are rejected. Values are typed where a command reads them."""
    cp = configparser.ConfigParser()
    if not cp.read(path, encoding="utf-8"):
        raise PhiconError(f"config file not found: {path}")
    out = {}
    for section in cp.sections():
        kind, _, phi_type = section.partition(".")
        if kind == "generator" and phi_type not in DEFAULT_GENERATOR_SPECS:
            raise PhiconError(
                f"[{section}]: {phi_type!r} is not a generator-backed type")
        allowed = _SETTINGS.get(kind if kind == "generator" else section)
        if allowed is None:
            raise PhiconError(f"unknown config section [{section}]")
        unknown = set(cp[section]) - allowed.keys()
        if unknown:
            raise PhiconError(f"unknown keys {sorted(unknown)} in [{section}]")
        out[section] = dict(cp[section])
    return out


def _setting(args, config, section: str, key: str):
    """The flag (args may be None), else the typed config value, else None."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    raw = config.get(section, {}).get(key)
    if raw is None:
        return None
    try:
        return _SETTINGS[section.partition(".")[0]][key](raw)
    except (ValueError, argparse.ArgumentTypeError) as e:
        raise PhiconError(f"[{section}] {key}: {e}") from None


def _given(args, config, section: str, keys) -> dict:
    """The settings among keys that were given; the library defaults the
    rest."""
    values = {key: _setting(args, config, section, key) for key in keys}
    return {key: v for key, v in values.items() if v is not None}


def _augment_config(args, config) -> AugmentConfig:
    given = _given(args, config, "augment", _SETTINGS["augment"])
    if "seed" in given:
        given["master_seed"] = given.pop("seed")
    return AugmentConfig(**given)


def _generator(args, config, phi_type: str):
    """(spec, settings given) of the [generator.<Type>] section; without
    patterns the spec is the type's default one."""
    section = f"generator.{phi_type}"
    given = _given(args, config, section, _SETTINGS["generator"])
    try:
        if "patterns" in given:
            return GeneratorSpec(phi_type, given["patterns"],
                                 given.get("weights", ())), given
        if "weights" in given:
            raise ValueError("weights given without patterns")
    except ValueError as e:
        raise PhiconError(f"[{section}]: {e}") from None
    return DEFAULT_GENERATOR_SPECS[phi_type], given


def _build_registry(args, config) -> LexiconRegistry:
    """The builtin registry with the configured pools swapped in. Per PHI
    type the first of these wins: a [generator.<Type>] patterns section, a
    <Type>.txt in the lexicon dir, a section with a count but no patterns,
    the builtin pool. A section's own seed wins over the registry seed (the
    augmentation seed); sections take no flag."""
    seed = _augment_config(args, config).master_seed
    lexicon_dir = _setting(args, config, "paths", "lexicon_dir")
    lexicons = {}
    if lexicon_dir is not None:
        for name in sorted(os.listdir(lexicon_dir)):
            if name.endswith(".txt"):
                lexicons[name[:-4]] = load_lexicon(
                    os.path.join(lexicon_dir, name), name[:-4])
    for section in config:
        kind, _, phi_type = section.partition(".")
        if kind != "generator":
            continue
        spec, given = _generator(None, config, phi_type)
        if "patterns" in given:
            lexicons[phi_type] = generate_identifiers(
                spec, given.get("count", 2000), given.get("seed", 0))
        elif "count" in given and phi_type not in lexicons:
            lexicons[phi_type] = generate_identifiers(
                spec, given["count"], given.get("seed", seed))
        elif "seed" in given and "count" not in given:
            raise PhiconError(
                f"[{section}]: seed given without patterns or count")
    return builtin_registry(seed=seed, lexicons=lexicons)


def _build_provider(args, config):
    source = _setting(args, config, "paths", "synonyms")
    if source in (None, "builtin"):
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
    spec, given = _generator(args, config, args.type)
    lexicon = generate_identifiers(
        spec, given.get("count", DEFAULT_GENERATED_COUNTS[args.type]),
        given.get("seed", 0))
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


def _cmd_xeval(args, config):
    """xeval, and ablate (xeval with the four ABLATION_ARMS)."""
    train_c = read_conll(args.train)
    test_c = read_conll(args.test)
    cfg = _augment_config(args, config)
    given = _given(args, config, "experiment", ("n_seeds", "epochs"))
    if args.fraction is not None:
        given["train_fraction"] = args.fraction
    arms = experiment_arms(args.arms.split(","), cfg)
    needs_aug = any(c is not None for _, c in arms)
    registry = _build_registry(args, config) if needs_aug else None
    provider = _build_provider(args, config) if needs_aug else None
    result = cross_dataset_eval(
        train_c, test_c, arms, registry=registry, provider=provider,
        setting=f"{args.train}->{args.test}", **given)
    print(format_experiment_table(result), end="")
    if args.records:
        with atomic_open(args.records) as f:
            f.write("\n".join(experiment_records(result)) + "\n")
    return 0


def _cmd_sweep(args, config):
    train_c = read_conll(args.train)
    dev_c = read_conll(args.dev)
    cfg = _augment_config(args, config)
    given = _given(args, config, "experiment", ("n_seeds", "epochs"))
    alphas = _setting(args, config, "experiment", "alphas") or [1, 2, 3, 4]
    registry = _build_registry(args, config)
    provider = _build_provider(args, config)
    curve = alpha_sweep(train_c, dev_c, alphas, cfg, registry=registry,
                        provider=provider, setting=f"{args.train}->{args.dev}",
                        **given)
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
    p.add_argument("--count", type=_COUNT, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=_cmd_gen_lexicon)

    p = sub.add_parser("synth", help="generate a synthetic site corpus")
    p.add_argument("--site", required=True, choices=["A", "B"])
    p.add_argument("--docs", type=_COUNT, default=200)
    p.add_argument("--min-sentences", type=_COUNT, default=8)
    p.add_argument("--max-sentences", type=_COUNT, default=15)
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
    p.add_argument("--epochs", type=_COUNT, default=5)
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
        p.add_argument("--fraction", type=_FRACTION, default=None)
        p.add_argument("--seeds", dest="n_seeds", type=_COUNT, default=None)
        p.add_argument("--epochs", type=_COUNT, default=None)
        _add_augment_flags(p)
        p.set_defaults(func=_cmd_xeval)

    p = sub.add_parser("sweep", help="augmentation-factor sweep on a dev set")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--alphas", type=_ALPHAS, default=None, help="e.g. 1,2,3,4")
    p.add_argument("--seeds", dest="n_seeds", type=_COUNT, default=None)
    p.add_argument("--epochs", type=_COUNT, default=None)
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
