"""The layers the traced run measures, and the per-layer metrics.

A layer is one module of ``src/phicon``. Each ``Target`` is a public
function the tracer wraps; each ``Metric`` is computed from the per-name
totals and counters of a traced run, and carries the prediction written
down before any optimisation: which end-to-end metric it should move, on
which workload. ``BENCHMARK.json`` lists the same metrics.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    module: str
    attr: str
    span: str
    hot: bool = False  # called per sentence or token: keep totals only
    observe: Callable | None = None


def _arg(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _resolve_observe(tracer, fn, args, kwargs, result):
    # Called per PHI span: take positional arguments without binding.
    registry, label_type = (args if len(args) == 2 else
                            (_arg(fn, args, kwargs, "registry"),
                             _arg(fn, args, kwargs, "label_type")))
    if label_type not in registry.taxonomy.fine_types:
        tracer.count("lexicon.registry_resolve.entries_built", len(result))


def _parse_observe(tracer, fn, args, kwargs, result):
    tracer.count("corpus.parse_conll.tokens", result.token_count())


def _augment_sentence_observe(tracer, fn, args, kwargs, result):
    if result is not None:
        tracer.count("augment.kept")


def _train_observe(tracer, fn, args, kwargs, result):
    epochs = _arg(fn, args, kwargs, "epochs")
    tracer.count("tagger.train.epochs", epochs)
    tracer.count("tagger.train.tokens",
                 epochs * _arg(fn, args, kwargs, "corpus").token_count())


def _featurize_observe(tracer, fn, args, kwargs, result):
    # Distinct tokens are the tokens of distinct sentence values; featurize
    # walks a sentence index by index, so hash each sentence object once.
    sentence = args[0] if args else kwargs["sentence"]
    memo = tracer.memo
    if memo.get("last") is sentence:
        return
    memo["last"] = sentence
    seen = memo.setdefault("sentences", set())
    key = hash(sentence)
    if key not in seen:
        seen.add(key)
        tracer.count("tagger.featurize.distinct_tokens", len(sentence))


def _predict_observe(tracer, fn, args, kwargs, result):
    tracer.count("tagger.predict_corpus.tokens", sum(len(p) for p in result))


def _save_observe(tracer, fn, args, kwargs, result):
    model = _arg(fn, args, kwargs, "model")
    tracer.count("tagger.model.n_weights",
                 sum(len(row) for row in model.weights.values()))


TARGETS = (
    Target("phicon.synthgen", "generate_corpus", "synthgen.generate_corpus"),
    Target("phicon.builtin", "builtin_registry", "builtin.builtin_registry"),
    Target("phicon.builtin", "builtin_provider", "builtin.builtin_provider"),
    Target("phicon.lexicon", "generate_identifiers",
           "lexicon.generate_identifiers"),
    Target("phicon.lexicon", "registry_resolve", "lexicon.registry_resolve",
           hot=True, observe=_resolve_observe),
    Target("phicon.lexicon", "sample_entity", "lexicon.sample_entity",
           hot=True),
    Target("phicon.corpus", "parse_conll", "corpus.parse_conll",
           observe=_parse_observe),
    Target("phicon.corpus", "serialize_conll", "corpus.serialize_conll"),
    Target("phicon.corpus", "validate_bio", "corpus.validate_bio", hot=True),
    Target("phicon.corpus", "extract_entities", "corpus.extract_entities",
           hot=True),
    Target("phicon.synonyms", "lookup_pos", "synonyms.lookup_pos", hot=True),
    Target("phicon.synonyms", "lookup_synonyms", "synonyms.lookup_synonyms",
           hot=True),
    Target("phicon.synonyms", "SynonymProvider.pos_pool", "synonyms.pos_pool",
           hot=True),
    Target("phicon.augment", "augment_corpus", "augment.augment_corpus"),
    Target("phicon.augment", "augment_sentence", "augment.augment_sentence",
           hot=True, observe=_augment_sentence_observe),
    Target("phicon.augment", "phi_augment", "augment.phi_augment", hot=True),
    Target("phicon.augment", "synonym_replace", "augment.synonym_replace",
           hot=True),
    Target("phicon.augment", "random_insert", "augment.random_insert",
           hot=True),
    Target("phicon.augment", "write_records", "augment.write_records"),
    Target("phicon.tagger", "train", "tagger.train", observe=_train_observe),
    Target("phicon.tagger", "featurize", "tagger.featurize", hot=True,
           observe=_featurize_observe),
    Target("phicon.tagger", "predict_corpus", "tagger.predict_corpus",
           observe=_predict_observe),
    Target("phicon.tagger", "corpus_fingerprint", "tagger.corpus_fingerprint"),
    Target("phicon.tagger", "load_model", "tagger.load_model"),
    Target("phicon.tagger", "save_model", "tagger.save_model",
           observe=_save_observe),
    Target("phicon.evaluate", "cross_dataset_eval",
           "evaluate.cross_dataset_eval"),
    Target("phicon.evaluate", "binary_token_f1", "evaluate.binary_token_f1"),
    Target("phicon.cli", "run", "cli.run"),
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    spans: tuple[str, ...]  # absent when any of these spans is absent
    value: Callable[[Callable[[str], float]], float]
    moves: str  # the end-to-end metric and workloads it should move


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _time(span, moves):
    return Metric(f"{span}.s", "s", "lower", (span,),
                  lambda q: q(f"{span}.s"), moves)


def _self(span, moves):
    return Metric(f"{span}.self_s", "s", "lower", (span,),
                  lambda q: q(f"{span}.self_s"), moves)


def _calls(span, moves):
    return Metric(f"{span}.calls", "count", "lower", (span,),
                  lambda q: q(f"{span}.calls"), moves)


_AUG = "wall_s on augment_fine and headline"

METRICS = (
    _time("synthgen.generate_corpus", "setup_s on all workloads"),
    _time("builtin.builtin_registry",
          "setup_s on headline; wall_s on augment_fine"),
    _time("builtin.builtin_provider",
          "setup_s on headline; wall_s on augment_fine"),
    _time("lexicon.generate_identifiers", "setup_s on headline; wall_s on "
          "augment_fine"),
    _calls("lexicon.registry_resolve",
           "wall_s on headline; no change on augment_fine"),
    _self("lexicon.registry_resolve",
          "wall_s on headline; no change on augment_fine"),
    Metric("lexicon.registry_resolve.entries_built", "count", "lower",
           ("lexicon.registry_resolve",),
           lambda q: q("lexicon.registry_resolve.entries_built"),
           "wall_s on headline; no change on augment_fine"),
    _calls("lexicon.sample_entity", "none: a work count that should not move"),
    _time("corpus.parse_conll", "wall_s on augment_fine and tag_fine"),
    Metric("corpus.parse_conll.tok_per_s", "tok/s", "higher",
           ("corpus.parse_conll",),
           lambda q: _ratio(q("corpus.parse_conll.tokens"),
                            q("corpus.parse_conll.s")),
           "wall_s on augment_fine and tag_fine"),
    _time("corpus.serialize_conll",
          "wall_s on augment_fine; wall_s on headline via corpus_fingerprint"),
    _calls("corpus.validate_bio", "wall_s on augment_fine and headline"),
    Metric("corpus.validate_bio.calls_per_sentence", "ratio", "lower",
           ("corpus.validate_bio", "augment.augment_sentence"),
           lambda q: _ratio(q("corpus.validate_bio.calls"),
                            q("augment.augment_sentence.calls")),
           "wall_s on augment_fine and headline"),
    _calls("corpus.extract_entities", _AUG),
    _calls("synonyms.lookup_pos", "wall_s on augment_fine, then headline"),
    _calls("synonyms.lookup_synonyms", "wall_s on augment_fine, then headline"),
    _calls("synonyms.pos_pool", "wall_s on augment_fine, then headline"),
    _self("synonyms.pos_pool", "wall_s on augment_fine, then headline"),
    _time("augment.augment_corpus", _AUG),
    _calls("augment.augment_sentence", _AUG),
    _self("augment.phi_augment", _AUG),
    _calls("augment.phi_augment", _AUG),
    _self("augment.synonym_replace", _AUG),
    _calls("augment.synonym_replace", _AUG),
    _self("augment.random_insert", _AUG),
    _calls("augment.random_insert", _AUG),
    Metric("augment.kept_ratio", "ratio", "higher",
           ("augment.augment_sentence",),
           lambda q: _ratio(q("augment.kept"),
                            q("augment.augment_sentence.calls")), _AUG),
    _time("augment.write_records", _AUG),
    _time("tagger.train", "wall_s on headline"),
    Metric("tagger.train.s_per_epoch", "s", "lower", ("tagger.train",),
           lambda q: _ratio(q("tagger.train.s"), q("tagger.train.epochs")),
           "wall_s on headline"),
    Metric("tagger.train.tok_per_s", "tok/s", "higher", ("tagger.train",),
           lambda q: _ratio(q("tagger.train.tokens"), q("tagger.train.s")),
           "wall_s on headline"),
    _calls("tagger.featurize", "wall_s on headline; no change on tag_fine"),
    _self("tagger.featurize", "wall_s on headline; no change on tag_fine"),
    Metric("tagger.featurize.distinct_tokens", "count", "lower",
           ("tagger.featurize",),
           lambda q: q("tagger.featurize.distinct_tokens"),
           "none: the base of calls_per_distinct_token"),
    Metric("tagger.featurize.calls_per_distinct_token", "ratio", "lower",
           ("tagger.featurize",),
           lambda q: _ratio(q("tagger.featurize.calls"),
                            q("tagger.featurize.distinct_tokens")),
           "wall_s on headline; no change on tag_fine"),
    _time("tagger.predict_corpus", "wall_s on tag_fine and headline"),
    Metric("tagger.predict_corpus.tok_per_s", "tok/s", "higher",
           ("tagger.predict_corpus",),
           lambda q: _ratio(q("tagger.predict_corpus.tokens"),
                            q("tagger.predict_corpus.s")),
           "wall_s on tag_fine and headline"),
    _time("tagger.corpus_fingerprint", "wall_s on headline"),
    _time("tagger.load_model", "wall_s on tag_fine"),
    _time("tagger.save_model", "setup_s on tag_fine"),
    Metric("tagger.model.n_weights", "count", "lower", ("tagger.save_model",),
           lambda q: q("tagger.model.n_weights"), "setup_s on tag_fine"),
    _time("evaluate.cross_dataset_eval", "wall_s on headline"),
    _time("evaluate.binary_token_f1", "wall_s on headline and tag_fine"),
    _time("cli.run", "wall_s on augment_fine and tag_fine"),
    _self("cli.run", "wall_s on augment_fine and tag_fine: argparse, config, "
          "logging and formatting"),
)

# Computed by the runner from the op outputs and the two op timings rather
# than from spans; listed here so that BENCHMARK.json and the self-test see
# one table.
RUN_METRICS = (
    ("evaluate.f1_baseline", "ratio", "higher",
     "mean micro-F1 of the baseline arm on headline; a speed-up must keep it"),
    ("evaluate.f1_phicon", "ratio", "higher",
     "mean micro-F1 of the phicon arm on headline; a speed-up must keep it"),
    ("evaluate.f1", "ratio", "higher",
     "micro-F1 of the eval op on tag_fine; a speed-up must keep it"),
    ("trace.overhead_pct", "%", "lower",
     "traced wall_s over untraced wall_s, minus one, per workload"),
)


def quantities(setup, ops) -> Callable[[str], float]:
    """Additive quantities of one set-up plus one op.

    setup: the Tracer of the traced set-up. ops: the Tracers of the traced
    ops, whose totals are averaged. Returns a lookup with 0 for anything
    never recorded.
    """
    def totals(tracers) -> dict[str, float]:
        table: dict[str, float] = {}
        for tracer in tracers:
            for name, stat in tracer.stats.items():
                for key, value in zip((".calls", ".s", ".self_s"), stat):
                    table[name + key] = table.get(name + key, 0) + value
            for name, value in tracer.counters.items():
                table[name] = table.get(name, 0) + value
        return table

    # Sum before dividing, so that a count repeated by every op comes out
    # exact.
    once, per_op = totals([setup]), totals(ops)
    table = {k: once.get(k, 0) + per_op.get(k, 0) / len(ops)
             for k in once.keys() | per_op.keys()}
    return lambda key: float(table.get(key, 0.0))


def counts(tracer) -> dict:
    """Every deterministic number of a trace: calls per name and counters."""
    out = {f"{name}.calls": s[0] for name, s in tracer.stats.items()}
    out.update(tracer.counters)
    return out


def per_layer(setup, ops, absent) -> tuple[dict, list[str]]:
    """(metric name -> value, names of absent metrics) over METRICS."""
    q = quantities(setup, ops)
    values, missing = {}, []
    for m in METRICS:
        if any(span in absent for span in m.spans):
            missing.append(m.name)
            values[m.name] = 0.0
        else:
            values[m.name] = m.value(q)
    return values, missing
