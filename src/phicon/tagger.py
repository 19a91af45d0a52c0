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
import struct
from dataclasses import dataclass
from functools import partial
from itertools import repeat, zip_longest

from .corpus import (
    DEFAULT_TAXONOMY, Corpus, Label, Sentence, _document_text, atomic_open)
from .errors import ModelFormatError, PhiconError
from .rng import LEFT_TO_RIGHT, RandomStream, derive_seed

FEATURE_TEMPLATE_VERSION = "ft1"
_MODEL_MAGIC = "phicon-tagger"
_MODEL_VERSION = 1

_START = "<S>"
_END = "</S>"
_BIAS = 1 << 40  # added to every 64-bit weight field of a training row


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
    training_meta: dict  # epochs, seed, corpus_fingerprint

    def __post_init__(self):
        if "O" not in self.label_set:
            raise PhiconError("label set must contain Outside")


def featurize_sentences(sentences) -> list:
    """Token features of each sentence, for train and predict_features. The
    context (previous word lower-cased or <S>, word, next word lower-cased or
    </S>) fixes a token's features, so per call each context gets one tuple,
    whose picks _pick caches, and equal strings are one object."""
    memo: dict = {}  # context tuple -> features, and string -> itself
    out = []
    for s in sentences:
        low = [_START, *(t.text.lower() for t in s.tokens), _END]
        out.append(feats := [])
        for i, t in enumerate(s.tokens):
            if (key := (low[i], t.text, low[i + 2])) not in memo:
                fl = featurize(s, i)
                memo[key] = (*map(memo.setdefault, fl, fl),)
            feats.append(memo[key])
    return out


def _bio_masks(label_set):
    """(start, after): the (allowed label indices, pick cache) pair at a
    sentence start, and per label index the pair after it, shared by type."""
    types = [None if lbl == "O" else lbl[2:] for lbl in label_set]
    pairs = {prev: ([i for i, lbl in enumerate(label_set)
                     if lbl[:1] != "I" or types[i] == prev], {})
             for prev in types}
    return pairs[None], [pairs[t] for t in types]


def _pick(score, cache, key, allowed, *args):
    """The allowed label index scoring highest in score(*args), ties to the
    earlier, cached in cache[key]: callers give each allowed mask its own
    cache and a key that fixes the scores, and clear every cache on updates."""
    if (pred := cache.get(key)) is None:
        pred = cache[key] = max(allowed, key=score(*args).__getitem__)
    return pred


def corpus_fingerprint(corpus: Corpus) -> str:
    h = hashlib.sha256()  # of serialize_conll(corpus), one document at a time
    for doc in corpus.documents:
        h.update(_document_text(doc).encode("utf-8"))
    return h.hexdigest()[:16]


def train(corpus: Corpus, epochs: int = 5, seed: int = 0) -> TaggerModel:
    """Averaged-perceptron training with seeded per-epoch shuffling. A pick
    is reused until the next update, and training stops after the first epoch
    without a mistake, adding the skipped epochs' tokens to the step count:
    unmoved weights make every later epoch mistake-free. The model equals a
    full run's bit for bit, and epochs past convergence cost nothing."""
    if epochs < 1:
        raise PhiconError("epochs must be >= 1")
    sentences = [s for s in corpus.sentences() if len(s) > 0]
    if not sentences:
        raise PhiconError("cannot train on an empty corpus")
    if epochs * (tokens := sum(map(len, sentences))) >= _BIAS:
        raise PhiconError("too many epochs x tokens for the weight fields")

    # Featurize once; features do not depend on decoding state. Labels are
    # numbered Outside first, then in order of first sight.
    index = {"O": 0}
    data = [(feats, tuple([index.setdefault(str(t.label), len(index))
                           for t in sent.tokens]))
            for sent, feats in zip(sentences, featurize_sentences(sentences))]
    label_set = list(index)
    start, after = _bio_masks(label_set)
    n = len(label_set)

    # Weights stay whole while training, so a feature's row is one int of n
    # 64-bit fields, bits 64i on holding label i's weight + _BIAS. A sum of k
    # rows is exact, every field off by the same k * _BIAS, so picks and ties
    # hold. u sums each update times its step; the Collins (2002) average
    # (step * w - u) / step is exact, all values being far below 2**53.
    fields = struct.Struct(f"<{n}Q").unpack
    fresh = sum(_BIAS << 64 * i for i in range(n))
    weights, updates = {}, {}

    def score(fs):
        row = sum(filter(None, map(weights.get, fs)))
        return fields(row.to_bytes(8 * n, "little"))

    step = 0
    order = list(range(len(data)))
    for epoch in range(epochs):
        RandomStream(derive_seed(seed, epoch)).shuffle(order)
        learned = False
        for si in order:
            feats, golds = data[si]
            # Decode greedily from the model's own predictions so training
            # sees the same conditions as inference.
            allowed, cache = start
            for fs, gold in zip(feats, golds):
                step += 1
                pred = _pick(score, cache, id(fs), allowed, fs)
                allowed, cache = after[pred]
                if pred == gold:
                    continue
                learned = True
                for _, stale in after:  # an update moves every mask's picks
                    stale.clear()
                delta = (1 << 64 * gold) - (1 << 64 * pred)
                for f in fs:
                    if f not in weights:
                        weights[f], updates[f] = fresh, [0.0] * n
                    weights[f] += delta
                    u = updates[f]
                    u[gold] += step
                    u[pred] -= step
        if not learned:
            step += (epochs - 1 - epoch) * tokens
            break

    averaged: dict[str, dict[str, float]] = {}
    for feat, row in weights.items():
        w, u = fields(row.to_bytes(8 * n, "little")), updates[feat]
        avg = {label_set[i]: v for i in range(n)
               if (v := (step * (w[i] - _BIAS) - u[i]) / step)}
        if avg:
            averaged[feat] = avg

    return TaggerModel(averaged, label_set, {
        "epochs": epochs, "seed": seed,
        "corpus_fingerprint": corpus_fingerprint(corpus)})


def _labeler(model: TaggerModel):
    """label(keys, feats) yields one sentence's labels, picked left to right
    by _pick under the BIO mask: token t's pick is cached under keys[t] in its
    mask's cache, and feats(t), its features, is called only on a miss."""
    rows = {f: [d.get(lbl, 0.0) for lbl in model.label_set]
            for f, d in model.weights.items()}
    zeros = [0.0] * len(model.label_set)
    start, after = _bio_masks(model.label_set)
    labels = [Label.parse(lbl) for lbl in model.label_set]

    def score(feats, t):  # float sums in feature order; no weights: zeros
        return [*map(sum, zip(*[r for r in map(rows.get, feats(t)) if r]),
                     repeat(LEFT_TO_RIGHT))] or zeros

    def label(keys, feats):
        allowed, cache = start
        for t, key in enumerate(keys):
            yield labels[pred := _pick(score, cache, key, allowed, feats, t)]
            allowed, cache = after[pred]
    return label


def predict_features(model: TaggerModel, corpus_feats) -> list[list[Label]]:
    """One label list per featurized sentence (see featurize_sentences). Its
    pick caches, one per allowed mask, key by the features' id, so every
    token's features are held until it returns."""
    label = _labeler(model)
    return [[*label(map(id, feats), feats.__getitem__)]
            for feats in list(corpus_feats)]


def _contexts(sentence: Sentence):  # (prev text or None, text, next or None)
    texts = [None, *(t.text for t in sentence.tokens), None]
    return zip(texts, texts[1:], texts[2:])


def predict_corpus(model: TaggerModel, corpus: Corpus) -> list[list[Label]]:
    """One label list per sentence. A token is featurized and scored only at
    the first sight of its context under its allowed mask, whose pick cache
    maps a context to an int and holds no features, so memory stays flat."""
    label = _labeler(model)
    return [[*label(_contexts(s), partial(featurize, s))]
            for s in corpus.sentences()]


# ---------------------------------------------------------------------------
# Model file format: versioned, line-oriented text. _file_lines is its one
# statement: save_model writes its lines, and load_model accepts a file only
# if the model it reads back renders to the same text.

def _file_lines(model: TaggerModel):
    meta = model.training_meta
    yield f"{_MODEL_MAGIC} {_MODEL_VERSION} {FEATURE_TEMPLATE_VERSION}\n"
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
            if _read_model(f.name, path) != model:
                raise ModelFormatError("it would reload as a different model")
        except ModelFormatError as e:
            raise ModelFormatError(f"cannot save {path}: {e}") from None


def load_model(path) -> TaggerModel:
    """The model that save_model wrote to path. Besides the format, labels
    must parse with known PHI types, the table hold O and no label twice,
    and every weight row's label be in it and its weight finite."""
    return _read_model(path, path)


def _read_model(file, path) -> TaggerModel:  # load_model, calling file path
    try:
        with open(file, encoding="utf-8") as f:
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
        for label in map(Label.parse, label_set):  # ValueError if malformed
            if label.is_phi and not DEFAULT_TAXONOMY.is_known(label.phi_type):
                raise ModelFormatError(f"{path}: unknown PHI type in {label}")
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
    model = TaggerModel(weights, label_set, meta)
    for lineno, (got, exp) in enumerate(
            zip_longest(raw, _file_lines(model)), 1):
        if got != exp:
            got, exp = ("end of file" if s is None else repr(s)
                        for s in (got, exp))
            raise ModelFormatError(
                f"{path} line {lineno}: found {got}, expected {exp}")
    return model
