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
from dataclasses import dataclass

from .corpus import Corpus, Label, Sentence, serialize_conll, validate_bio
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


def _score_and_pick(weights, label_set, label_types, feats, prev_type):
    """Greedy argmax over labels with the BIO mask applied.

    prev_type is the PHI type of the previous predicted label, or None.
    Ties go to the earlier label in label_set.
    """
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


def _label_kinds(label_set):
    """Precomputed (kind, phi_type) per label for the BIO mask."""
    out = []
    for lbl in label_set:
        if lbl == "O":
            out.append(("O", None))
        else:
            out.append((lbl[0], lbl[2:]))
    return out


def corpus_fingerprint(corpus: Corpus) -> str:
    return hashlib.sha256(serialize_conll(corpus).encode("utf-8")).hexdigest()[:16]


def train(corpus: Corpus, epochs: int = 5, seed: int = 0) -> TaggerModel:
    """Averaged-perceptron training with seeded per-epoch shuffling."""
    if epochs < 1:
        raise PhiconError("epochs must be >= 1")
    sentences = [s for s in corpus.sentences() if len(s) > 0]
    if not sentences:
        raise PhiconError("cannot train on an empty corpus")

    label_set: list[str] = ["O"]
    seen = {"O"}
    for sent in sentences:
        for tok in sent.tokens:
            lbl = str(tok.label)
            if lbl not in seen:
                seen.add(lbl)
                label_set.append(lbl)
    label_types = _label_kinds(label_set)

    # Featurize once; features do not depend on decoding state.
    data = []
    for sent in sentences:
        feats = [featurize(sent, i) for i in range(len(sent))]
        golds = [str(t.label) for t in sent.tokens]
        data.append((feats, golds))

    weights: dict[str, dict[str, float]] = {}
    totals: dict[tuple, float] = {}
    stamps: dict[tuple, int] = {}
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
                pred = _score_and_pick(weights, label_set, label_types,
                                       fs, prev_type)
                if pred != gold:
                    for f in fs:
                        bump(f, gold, 1.0)
                        bump(f, pred, -1.0)
                # Decode greedily from the model's own predictions so
                # training sees the same conditions as inference.
                prev_type = (pred[2:] if pred != "O" else None)

    averaged: dict[str, dict[str, float]] = {}
    for feat, d in weights.items():
        avg = {}
        for lbl, w in d.items():
            key = (feat, lbl)
            total = totals.get(key, 0.0) + (step - stamps.get(key, 0)) * w
            value = total / step
            if value:
                avg[lbl] = value
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


def predict(model: TaggerModel, sentence: Sentence) -> list[Label]:
    """One label per token; output always passes validate_bio."""
    label_types = _label_kinds(model.label_set)
    out: list[Label] = []
    prev_type = None
    for i in range(len(sentence)):
        feats = featurize(sentence, i)
        pred = _score_and_pick(model.weights, model.label_set, label_types,
                               feats, prev_type)
        out.append(Label.parse(pred))
        prev_type = pred[2:] if pred != "O" else None
    return out


def predict_corpus(model: TaggerModel, corpus: Corpus) -> list[list[Label]]:
    return [predict(model, s) for s in corpus.sentences()]


# ---------------------------------------------------------------------------
# Model file format: versioned, line-oriented text.
#
#   phicon-tagger <version> <feature template version>
#   labels <tab-separated label strings>
#   meta <key>=<value> ...
#   nweights <count>
#   <feature>\t<label>\t<weight repr>      (count lines)
#   end

def save_model(model: TaggerModel, path) -> None:
    rows = []
    for feat in sorted(model.weights):
        for lbl in sorted(model.weights[feat]):
            rows.append(f"{feat}\t{lbl}\t{model.weights[feat][lbl]!r}\n")
    meta = model.training_meta
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{_MODEL_MAGIC} {_MODEL_VERSION} "
                f"{model.feature_template_version}\n")
        f.write("labels " + "\t".join(model.label_set) + "\n")
        f.write(f"meta epochs={meta.get('epochs', 0)} "
                f"seed={meta.get('seed', 0)} "
                f"corpus_fingerprint={meta.get('corpus_fingerprint', '')}\n")
        f.write(f"nweights {len(rows)}\n")
        f.writelines(rows)
        f.write("end\n")


def load_model(path) -> TaggerModel:
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    try:
        magic = lines[0].split(" ")
        if magic[0] != _MODEL_MAGIC:
            raise ModelFormatError(f"not a tagger model file: {path}")
        if int(magic[1]) != _MODEL_VERSION:
            raise ModelFormatError(
                f"unsupported model version {magic[1]} (want {_MODEL_VERSION})")
        template = magic[2]
        if template != FEATURE_TEMPLATE_VERSION:
            raise ModelFormatError(
                f"unsupported feature template {template} "
                f"(want {FEATURE_TEMPLATE_VERSION})")
        if not lines[1].startswith("labels "):
            raise ModelFormatError("missing label table")
        label_set = lines[1][len("labels "):].split("\t")
        if not lines[2].startswith("meta "):
            raise ModelFormatError("missing meta line")
        meta = {}
        for kv in lines[2][len("meta "):].split(" "):
            k, _, v = kv.partition("=")
            meta[k] = int(v) if k in ("epochs", "seed") else v
        if not lines[3].startswith("nweights "):
            raise ModelFormatError("missing weight count")
        n = int(lines[3][len("nweights "):])
        weights: dict[str, dict[str, float]] = {}
        for i in range(n):
            feat, lbl, w = lines[4 + i].split("\t")
            weights.setdefault(feat, {})[lbl] = float(w)
        if lines[4 + n] != "end":
            raise ModelFormatError(f"truncated model file: {path}")
    except (IndexError, ValueError) as e:
        raise ModelFormatError(f"corrupt model file {path}: {e}") from None
    return TaggerModel(weights, label_set, template, meta)
