"""BIO-labeled corpus data model, CoNLL-style I/O, and dataset preparation.

The file format is two columns per token line (`<text>\\t<label>`, a single
space also accepted on input), blank line between sentences, and a
`#doc id=<id>` line opening each document. Labels are `O`, `B-<Type>`,
`I-<Type>` with case-sensitive type names.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field

from .errors import BioViolationError, ParseError, PhiconError
from .rng import RandomStream

OUTSIDE = "O"
BEGIN = "B"
INSIDE = "I"

_WS = ("\t", "\n", "\r", " ")


@dataclass(frozen=True, slots=True)
class Label:
    kind: str  # one of OUTSIDE, BEGIN, INSIDE
    phi_type: str | None = None

    def __post_init__(self):
        if self.kind not in (OUTSIDE, BEGIN, INSIDE):
            raise ValueError(f"bad label kind {self.kind!r}")
        if (self.kind == OUTSIDE) != (self.phi_type is None):
            raise ValueError("Outside labels carry no PHI type; B/I must carry one")

    @property
    def is_phi(self) -> bool:
        return self.kind != OUTSIDE

    def __str__(self) -> str:
        return OUTSIDE if self.kind == OUTSIDE else f"{self.kind}-{self.phi_type}"

    @classmethod
    def parse(cls, text: str) -> "Label":
        if text == OUTSIDE:
            return O
        if len(text) > 2 and text[1] == "-" and text[0] in (BEGIN, INSIDE):
            return cls(text[0], text[2:])
        raise ValueError(f"bad label {text!r}")


O = Label(OUTSIDE)


@dataclass(frozen=True, slots=True)
class Token:
    text: str
    label: Label

    def __post_init__(self):
        if not self.text or any(c in self.text for c in _WS):
            raise ValueError(f"bad token text {self.text!r}")


@dataclass(frozen=True, slots=True)
class PhiTaxonomy:
    """The 11 fine PHI types, their 5 coarse categories, and which fine
    types are backed by identifier generators rather than curated lists."""

    fine_types: tuple[str, ...]
    coarse_of: dict[str, str]
    generator_backed: frozenset[str]

    def __post_init__(self):
        missing = [t for t in self.fine_types if t not in self.coarse_of]
        if missing:
            raise ValueError(f"coarse_of not total: missing {missing}")

    @property
    def coarse_types(self) -> tuple[str, ...]:
        seen = []
        for t in self.fine_types:
            c = self.coarse_of[t]
            if c not in seen:
                seen.append(c)
        return tuple(seen)

    def fines_of(self, coarse: str) -> tuple[str, ...]:
        return tuple(t for t in self.fine_types if self.coarse_of[t] == coarse)

    def is_known(self, name: str) -> bool:
        return name in self.fine_types or name in self.coarse_of.values()


DEFAULT_TAXONOMY = PhiTaxonomy(
    fine_types=(
        "Organization", "Hospital", "Location", "Patient", "Doctor",
        "ID", "Username", "Zip", "Date", "Phone", "MedicalRecord",
    ),
    coarse_of={
        "Doctor": "NAME", "Patient": "NAME", "Username": "NAME",
        "Hospital": "LOCATION", "Location": "LOCATION",
        "Zip": "LOCATION", "Organization": "LOCATION",
        "Date": "DATE",
        "ID": "ID", "MedicalRecord": "ID",
        "Phone": "CONTACT",
    },
    generator_backed=frozenset(
        {"ID", "Username", "Zip", "Date", "Phone", "MedicalRecord"}
    ),
)


@dataclass(frozen=True, slots=True)
class Sentence:
    tokens: tuple[Token, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    def texts(self) -> list[str]:
        return [t.text for t in self.tokens]

    def labels(self) -> list[Label]:
        return [t.label for t in self.tokens]


@dataclass(frozen=True, slots=True)
class Document:
    id: str
    sentences: tuple[Sentence, ...]

    def __post_init__(self):
        if not self.id:
            raise ValueError("document id must be non-empty")


@dataclass(frozen=True)
class Corpus:
    documents: tuple[Document, ...]
    taxonomy: PhiTaxonomy = DEFAULT_TAXONOMY

    def sentences(self):
        for doc in self.documents:
            yield from doc.sentences

    def token_count(self) -> int:
        return sum(len(s) for s in self.sentences())


@dataclass(frozen=True, slots=True)
class EntitySpan:
    sentence_index: int
    start: int  # inclusive token index
    end: int    # exclusive
    phi_type: str
    surface: str


@dataclass(frozen=True, slots=True)
class Violation:
    position: int
    description: str


@dataclass(frozen=True, slots=True)
class CorpusStats:
    note_count: int
    avg_tokens_per_note: float
    avg_phi_per_note: float
    phi_counts: dict[str, int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Parsing / serialization


def parse_conll(text: str, taxonomy: PhiTaxonomy = DEFAULT_TAXONOMY,
                repair: bool = False, source: str = "<string>") -> Corpus:
    """Parse two-column CoNLL-style text into a Corpus.

    Strict mode rejects invalid BIO transitions; with repair=True a dangling
    Inside is relabeled Begin. Tokens before any `#doc` marker go into an
    implicit document with id "doc0".
    """
    documents: list[Document] = []
    doc_id: str | None = None
    sentences: list[Sentence] = []
    tokens: list[Token] = []
    seen_ids: set[str] = set()

    def close_sentence():
        nonlocal tokens
        if tokens:
            sentences.append(Sentence(tuple(tokens)))
            tokens = []

    def close_document():
        nonlocal sentences, doc_id
        close_sentence()
        if doc_id is not None or sentences:
            did = doc_id if doc_id is not None else "doc0"
            if did in seen_ids:
                raise ParseError(f"duplicate document id {did!r}", source)
            seen_ids.add(did)
            documents.append(Document(did, tuple(sentences)))
        sentences = []
        doc_id = None

    for lineno, line in enumerate(text.split("\n"), start=1):
        if line.startswith("#doc id="):
            close_document()
            doc_id = line[len("#doc id="):]
            if not doc_id:
                raise ParseError("empty document id", source, lineno)
            continue
        if line == "":
            close_sentence()
            continue
        parts = line.split("\t") if "\t" in line else line.split(" ")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ParseError(f"expected two columns, got {line!r}", source, lineno)
        word, raw_label = parts
        try:
            label = Label.parse(raw_label)
        except ValueError as e:
            raise ParseError(str(e), source, lineno) from None
        if label.is_phi and not taxonomy.is_known(label.phi_type):
            raise ParseError(f"unknown PHI type {label.phi_type!r}", source, lineno)
        if label.kind == INSIDE:
            prev = tokens[-1].label if tokens else None
            ok = prev is not None and prev.is_phi and prev.phi_type == label.phi_type
            if not ok:
                if repair:
                    label = Label(BEGIN, label.phi_type)
                else:
                    raise ParseError(
                        f"invalid BIO transition to {label}", source, lineno)
        try:
            tokens.append(Token(word, label))
        except ValueError as e:
            raise ParseError(str(e), source, lineno) from None

    close_document()
    return Corpus(tuple(documents), taxonomy)


def serialize_conll(corpus: Corpus) -> str:
    """Render a Corpus in the two-column file format (tab separated).

    parse_conll(serialize_conll(c)) == c for every valid corpus; output is
    empty for an empty corpus and otherwise ends with a single newline.
    """
    out: list[str] = []
    for doc in corpus.documents:
        out.append(f"#doc id={doc.id}\n")
        for sent in doc.sentences:
            for tok in sent.tokens:
                out.append(f"{tok.text}\t{tok.label}\n")
            out.append("\n")
    return "".join(out)


def read_conll(path, taxonomy: PhiTaxonomy = DEFAULT_TAXONOMY,
               repair: bool = False) -> Corpus:
    with open(path, encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"not UTF-8 text: {e}", str(path)) from None
    return parse_conll(text, taxonomy, repair=repair, source=str(path))


@contextmanager
def atomic_open(path):
    """Open a UTF-8 text file for writing that replaces `path` only once the
    block completes; on any failure the old file stays and no temp is left."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_conll(corpus: Corpus, path) -> None:
    with atomic_open(path) as f:
        f.write(serialize_conll(corpus))


# ---------------------------------------------------------------------------
# Validation and span extraction


def validate_bio(sentence: Sentence) -> list[Violation]:
    """All BIO violations in a sentence; empty list means valid."""
    violations = []
    prev: Label = O
    for i, tok in enumerate(sentence.tokens):
        lab = tok.label
        if lab.kind == INSIDE:
            if not (prev.is_phi and prev.phi_type == lab.phi_type):
                violations.append(Violation(
                    i, f"Inside label {lab} not preceded by {lab.phi_type} span"))
        prev = lab
    return violations


def extract_entities(sentence: Sentence, sentence_index: int = 0) -> list[EntitySpan]:
    """Typed spans covering exactly the Begin/Inside tokens of a sentence."""
    if validate_bio(sentence):
        raise BioViolationError("sentence is not BIO-valid; validate or repair first")
    spans = []
    start = None
    for i, tok in enumerate(sentence.tokens):
        lab = tok.label
        if lab.kind == BEGIN:
            if start is not None:
                spans.append(_make_span(sentence, sentence_index, start, i))
            start = i
        elif lab.kind == OUTSIDE:
            if start is not None:
                spans.append(_make_span(sentence, sentence_index, start, i))
                start = None
    if start is not None:
        spans.append(_make_span(sentence, sentence_index, start, len(sentence)))
    return spans


def _make_span(sentence, sentence_index, start, end):
    return EntitySpan(
        sentence_index=sentence_index, start=start, end=end,
        phi_type=sentence.tokens[start].label.phi_type,
        surface=" ".join(t.text for t in sentence.tokens[start:end]))


# ---------------------------------------------------------------------------
# Dataset preparation


def _relabel(corpus: Corpus, label_of) -> Corpus:
    """The corpus with each token's label replaced by label_of(label)."""
    return Corpus(tuple(
        Document(doc.id, tuple(
            Sentence(tuple(Token(t.text, label_of(t.label))
                           for t in sent.tokens))
            for sent in doc.sentences))
        for doc in corpus.documents), corpus.taxonomy)


def map_to_coarse(corpus: Corpus) -> Corpus:
    """Replace every fine PHI type with its coarse category.

    Rejects input that already carries coarse labels so a double mapping
    cannot pass silently. (The fine type "ID" coincides with the coarse
    category "ID" and is mapped to itself; it cannot be told apart.)
    """
    tax = corpus.taxonomy
    coarse_only = set(tax.coarse_of.values()) - set(tax.fine_types)

    def label_of(lab: Label) -> Label:
        if not lab.is_phi:
            return lab
        if lab.phi_type in coarse_only:
            raise PhiconError(
                f"label {lab} is already coarse; corpus mapped twice?")
        if lab.phi_type not in tax.fine_types:
            raise PhiconError(f"unknown fine type {lab.phi_type!r}")
        return Label(lab.kind, tax.coarse_of[lab.phi_type])
    return _relabel(corpus, label_of)


def filter_rare_types(corpus: Corpus, threshold: int) -> Corpus:
    """Relabel to Outside every span whose type occurs < threshold times.

    Frequency is counted as entity spans over the whole corpus; corpus shape
    (documents, sentences, token texts) is preserved.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    counts: dict[str, int] = {}
    for sent in corpus.sentences():
        for span in extract_entities(sent):
            counts[span.phi_type] = counts.get(span.phi_type, 0) + 1
    rare = {t for t, n in counts.items() if n < threshold}
    if not rare:
        return corpus
    return _relabel(corpus, lambda lab: O if lab.phi_type in rare else lab)


def split_corpus(corpus: Corpus, ratios: tuple[float, float, float],
                 seed: int) -> tuple[Corpus, Corpus, Corpus]:
    """Shuffle documents by seed, then partition into train/dev/test.

    Sizes are floor(n * ratio); leftover documents go to the parts with the
    largest fractional remainders (ties resolved train, dev, test).
    """
    if any(r <= 0 for r in ratios):
        raise ValueError("ratios must be positive")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("ratios must sum to 1")
    n = len(corpus.documents)
    if n < 3:
        raise PhiconError(f"need at least 3 documents to split, got {n}")
    sizes = [int(n * r) for r in ratios]
    fracs = [n * r - s for r, s in zip(ratios, sizes)]
    for _ in range(n - sum(sizes)):
        i = max(range(3), key=lambda k: (fracs[k], -k))
        sizes[i] += 1
        fracs[i] = -1.0
    docs = list(corpus.documents)
    RandomStream(seed).shuffle(docs)
    parts = []
    at = 0
    for size in sizes:
        parts.append(Corpus(tuple(docs[at:at + size]), corpus.taxonomy))
        at += size
    return tuple(parts)


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Note-level statistics: counts, token/PHI averages, per-category spans."""
    n = len(corpus.documents)
    if n == 0:
        return CorpusStats(0, 0.0, 0.0, {})
    tax = corpus.taxonomy
    tokens = 0
    phi_spans = 0
    by_coarse: dict[str, int] = {}
    for doc in corpus.documents:
        for sent in doc.sentences:
            tokens += len(sent)
            for span in extract_entities(sent):
                phi_spans += 1
                coarse = tax.coarse_of.get(span.phi_type, span.phi_type)
                by_coarse[coarse] = by_coarse.get(coarse, 0) + 1
    return CorpusStats(n, tokens / n, phi_spans / n, by_coarse)


def relabel_from_spans(texts: list[str], spans: list[EntitySpan]) -> Sentence:
    """Rebuild a sentence from token texts plus its entity spans."""
    labels = [O] * len(texts)
    for span in spans:
        labels[span.start] = Label(BEGIN, span.phi_type)
        for i in range(span.start + 1, span.end):
            labels[i] = Label(INSIDE, span.phi_type)
    return Sentence(tuple(Token(t, l) for t, l in zip(texts, labels)))
