"""A deterministic averaged-perceptron BIO sequence tagger.

Feature-based and dependency-free: fast enough that cross-dataset
experiments over many seeds run in seconds, and deterministic in
(corpus, epochs, seed) so every experiment is exactly reproducible.
Decoding is greedy left-to-right with a BIO mask (Inside is only reachable
from a same-type Begin/Inside), so predictions are structurally valid by
construction.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from itertools import zip_longest

from .corpus import (
    Corpus, Label, Sentence, atomic_open, serialize_conll, validate_bio,
)
from .errors import ModelFormatError, PhiconError
from .rng import RandomStream, derive_seed

FEATURE_TEMPLATE_VERSION = "ft1"
_MODEL_MAGIC = "phicon-tagger"
_MODEL_VERSION = 1

_START = "<S>"
_END = "</S>"


def _shape(word: str) -> str:
    out = []
    for c in word[:5]:  # truncated; enough to separate the classes we need
        if c.isdigit():
            out.append("d")
        elif c.isupper():
            out.append("X")
        elif c.islower():
            out.append("x")
        else:
            out.append(c)
    return "".join(out)


def featurize(sentence: Sentence, index: int) -> list[str]:
    """Deterministic feature strings for one token position."""
    tokens = sentence.tokens
    if not 0 <= index < len(tokens):
        raise IndexError(f"token index {index} out of range")
    word = tokens[index].text
    low = word.lower()
    prev = tokens[index - 1].text.lower() if index > 0 else _START
    nxt = tokens[index + 1].text.lower() if index + 1 < len(tokens) else _END
    feats = [
        "bias",
        "w=" + low,
        "shape=" + _shape(word),
        "prev=" + prev,
        "next=" + nxt,
        "pw=" + prev + "|" + low,
    ]
    for k in (1, 2, 3):
        feats.append(f"pre{k}=" + low[:k])
        feats.append(f"suf{k}=" + low[-k:])
    if word.isdigit():
        feats.append("isdigit=1")
    if any(c.isdigit() for c in word):
        feats.append("hasdigit=1")
    if "-" in word:
        feats.append("hashyphen=1")
    if word.istitle():
        feats.append("istitle=1")
    if index == 0:
        feats.append("atstart=1")
    return feats


@dataclass
class TaggerModel:
    weights: dict  # feature -> {label string -> weight}
    label_set: list  # label strings, Outside included, training order
    feature_template_version: str
    training_meta: dict  # epochs, seed, corpus_fingerprint

    def __post_init__(self):
        if "O" not in self.label_set:
            raise PhiconError("label set must contain Outside")


def _features(sentence: Sentence, memo: dict | None = None) -> list:
    """featurize at every position; a memo makes equal strings one object."""
    feats = [featurize(sentence, i) for i in range(len(sentence))]
    return feats if memo is None else [[memo.setdefault(f, f) for f in fs]
                                       for fs in feats]


def featurize_sentences(sentences) -> list:
    """Token features of each sentence, for scoring them with several
    models (predict_features) without featurizing them again."""
    memo: dict[str, str] = {}
    return [_features(s, memo) for s in sentences]


def _bio_masks(label_set):
    """(types, masks): each label's PHI type (None for Outside), and per
    previous type the label indices allowed next, in label order."""
    types = [None if lbl == "O" else lbl[2:] for lbl in label_set]
    return types, {prev: [i for i, lbl in enumerate(label_set)
                          if lbl[:1] != "I" or types[i] == prev]
                   for prev in types}


def _decode(rows, types, masks, feats):
    """Greedy masked decode of one sentence, yielding label indices: a token
    scores the sum of its features' rows (weights by label index) in feature
    order, and ties go to the earlier label. Lazy, so that training can
    update rows between tokens."""
    allowed = masks[None]
    for fs in feats:
        hit = [r for r in map(rows.get, fs) if r]
        best = (max(allowed, key=[*map(sum, zip(*hit))].__getitem__)
                if hit else allowed[0])
        yield best
        allowed = masks[types[best]]


def corpus_fingerprint(corpus: Corpus) -> str:
    return hashlib.sha256(serialize_conll(corpus).encode("utf-8")).hexdigest()[:16]


def train(corpus: Corpus, epochs: int = 5, seed: int = 0) -> TaggerModel:
    """Averaged-perceptron training with seeded per-epoch shuffling."""
    if epochs < 1:
        raise PhiconError("epochs must be >= 1")
    sentences = [s for s in corpus.sentences() if len(s) > 0]
    if not sentences:
        raise PhiconError("cannot train on an empty corpus")

    seen = dict.fromkeys(str(t.label) for sent in sentences for t in sent.tokens)
    label_set = ["O"] + [lbl for lbl in seen if lbl != "O"]
    index = {lbl: i for i, lbl in enumerate(label_set)}
    types, masks = _bio_masks(label_set)
    n = len(label_set)

    # Featurize once; features do not depend on decoding state.
    data = [(fs, [index[str(t.label)] for t in sent.tokens])
            for sent, fs in zip(sentences, featurize_sentences(sentences))]

    # Two rows per feature, indexed by label, created at its first update:
    # the weights, and each update summed weighted by its step. The Collins
    # (2002) average over all steps is then (step * w - u) / step; every
    # value is an integer-valued float far below 2**53, so it is exact.
    weights, updates = {}, {}
    step = 0
    order = list(range(len(data)))
    for epoch in range(epochs):
        RandomStream(derive_seed(seed, epoch)).shuffle(order)
        for si in order:
            feats, golds = data[si]
            # Decode greedily from the model's own predictions so training
            # sees the same conditions as inference.
            for fs, gold, pred in zip(feats, golds,
                                      _decode(weights, types, masks, feats)):
                step += 1
                if pred == gold:
                    continue
                for f in fs:
                    w = weights.get(f)
                    if w is None:
                        w = weights[f] = [0.0] * n
                        updates[f] = [0.0] * n
                    u = updates[f]
                    for li, delta in ((gold, 1.0), (pred, -1.0)):
                        w[li] += delta
                        u[li] += step * delta

    averaged: dict[str, dict[str, float]] = {}
    for feat, w in weights.items():
        u = updates[feat]
        avg = {label_set[i]: v for i in range(n)
               if (v := (step * w[i] - u[i]) / step)}
        if avg:
            averaged[feat] = avg

    return TaggerModel(
        weights=averaged,
        label_set=label_set,
        feature_template_version=FEATURE_TEMPLATE_VERSION,
        training_meta={
            "epochs": epochs,
            "seed": seed,
            "corpus_fingerprint": corpus_fingerprint(corpus),
        },
    )


def predict_features(model: TaggerModel, corpus_feats) -> list[list[Label]]:
    """One label list per featurized sentence (see featurize_sentences); the
    scoring path of predict and predict_corpus too."""
    rows = {f: [d.get(lbl, 0.0) for lbl in model.label_set]
            for f, d in model.weights.items()}
    types, masks = _bio_masks(model.label_set)
    labels = [Label.parse(lbl) for lbl in model.label_set]
    return [[labels[i] for i in _decode(rows, types, masks, feats)]
            for feats in corpus_feats]


def predict(model: TaggerModel, sentence: Sentence) -> list[Label]:
    """One label per token; output always passes validate_bio."""
    return predict_features(model, [_features(sentence)])[0]


def predict_corpus(model: TaggerModel, corpus: Corpus) -> list[list[Label]]:
    # One sentence's features at a time, to keep peak memory flat.
    return predict_features(model, map(_features, corpus.sentences()))


# ---------------------------------------------------------------------------
# Model file format: versioned, line-oriented text. _file_lines is its one
# statement: save_model writes its lines, and load_model accepts a file only
# if the model it reads back renders to the same text.

def _file_lines(model: TaggerModel):
    meta = model.training_meta
    yield (f"{_MODEL_MAGIC} {_MODEL_VERSION} "
           f"{model.feature_template_version}\n")
    yield "labels " + "\t".join(model.label_set) + "\n"
    yield (f"meta epochs={meta.get('epochs', 0)} seed={meta.get('seed', 0)} "
           f"corpus_fingerprint={meta.get('corpus_fingerprint', '')}\n")
    rows = [f"{feat}\t{lbl}\t{w!r}\n" for feat, d in sorted(model.weights.items())
            for lbl, w in sorted(d.items())]
    yield f"nweights {len(rows)}\n"
    yield from rows
    yield "end\n"


def save_model(model: TaggerModel, path) -> None:
    """Write model to path unless load_model would not read it back equal."""
    with atomic_open(path) as f:
        f.writelines(_file_lines(model))
        f.flush()
        try:
            if load_model(f.name) != model:
                raise ModelFormatError("it would reload as a different model")
        except ModelFormatError as e:
            raise ModelFormatError(f"cannot save {path}: {e}") from None


def load_model(path) -> TaggerModel:
    """The model that save_model wrote to path. Besides the format, the
    labels must parse, the label table must hold O and no label twice, and
    every weight row's label must be in it and its weight finite."""
    try:
        with open(path, encoding="utf-8") as f:
            raw = f.readlines()  # ValueError if not UTF-8
        lines = [line.rstrip("\n") for line in raw]
        header = lines[0].split(" ")
        if header[0] != _MODEL_MAGIC:
            raise ModelFormatError(f"not a tagger model file: {path}")
        if header[1] != str(_MODEL_VERSION):
            raise ModelFormatError(f"unsupported model version {header[1]} "
                                   f"(want {_MODEL_VERSION})")
        if header[2] != FEATURE_TEMPLATE_VERSION:
            raise ModelFormatError(
                f"unsupported feature template {header[2]} "
                f"(want {FEATURE_TEMPLATE_VERSION})")
        label_set = lines[1][len("labels "):].split("\t")
        for lbl in label_set:
            Label.parse(lbl)  # ValueError on a malformed label
        labels = set(label_set)
        if len(labels) != len(label_set) or "O" not in labels:
            raise ModelFormatError(
                f"{path}: the label table must hold O and no label twice")
        meta = {}
        for kv in lines[2][len("meta "):].split(" "):
            k, _, v = kv.partition("=")
            meta[k] = int(v) if k in ("epochs", "seed") else v
        weights: dict[str, dict[str, float]] = {}
        for lineno, line in enumerate(lines[4:], 5):
            row = line.split("\t")
            if len(row) != 3:
                continue  # not a weight row: the comparison below names it
            feat, lbl, w = row
            if lbl not in labels:
                raise ModelFormatError(f"{path} line {lineno}: label {lbl} "
                                       "is not in the label table")
            if not math.isfinite(value := float(w)):
                raise ModelFormatError(
                    f"{path} line {lineno}: weight {w} is not finite")
            weights.setdefault(feat, {})[lbl] = value
    except (IndexError, ValueError) as e:
        raise ModelFormatError(f"corrupt model file {path}: {e}") from None
    model = TaggerModel(weights, label_set, header[2], meta)
    for lineno, (got, exp) in enumerate(
            zip_longest(raw, _file_lines(model)), 1):
        if got != exp:
            got, exp = ("end of file" if s is None else repr(s)
                        for s in (got, exp))
            raise ModelFormatError(f"{path} line {lineno}: found {got}, "
                                   f"where save_model writes {exp}")
    return model
