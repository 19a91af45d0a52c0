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

_WS = frozenset("\t\n\r ")


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
        if not self.text or not _WS.isdisjoint(self.text):
            raise ValueError(f"bad token text {self.text!r}")


@dataclass(frozen=True, slots=True)
class PhiTaxonomy:
    """The 11 fine PHI types, their 5 coarse categories, and which fine
    types are backed by identifier generators rather than curated lists."""

    fine_types: tuple[str, ...]
    coarse_of: dict[str, str]
    generator_backed: frozenset[str]

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

    def sentences(self):
        for doc in self.documents:
            yield from doc.sentences

    def token_count(self) -> int:
        return sum(len(s) for s in self.sentences())


@dataclass(frozen=True, slots=True)
class EntitySpan:
    start: int  # inclusive token index
    end: int    # exclusive
    phi_type: str
    surface: str


@dataclass(frozen=True, slots=True)
class CorpusStats:
    note_count: int
    avg_tokens_per_note: float
    avg_phi_per_note: float
    phi_counts: dict[str, int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Parsing / serialization


def parse_conll(text: str, repair: bool = False,
                source: str = "<string>") -> Corpus:
    """Parse two-column CoNLL-style text into a Corpus.

    Strict mode rejects invalid BIO transitions; with repair=True a dangling
    Inside is relabeled Begin. Tokens before any `#doc` marker go into an
    implicit document with id "doc0". Each distinct token line is parsed
    once per call: its repeats share one Token (a repaired one is fresh),
    and the BIO check still runs at every occurrence.
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

    # One str.find walk, no list of lines; equal lines and labels are shared.
    labels: dict[str, Label] = {}
    lines: dict[str, Token] = {}
    start = lineno = 0
    while start <= len(text):
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        line, start, lineno = text[start:end], end + 1, lineno + 1
        if line.startswith("#doc id="):
            close_document()
            doc_id = line[len("#doc id="):]
            if not doc_id:
                raise ParseError("empty document id", source, lineno)
            continue
        if line == "":
            close_sentence()
            continue
        tok = lines.get(line)
        if tok is not None:
            label = tok.label
        else:
            parts = line.split("\t") if "\t" in line else line.split(" ")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise ParseError(f"expected two columns, got {line!r}", source, lineno)
            word, raw_label = parts
            label = labels.get(raw_label)
            if label is None:
                try:
                    label = Label.parse(raw_label)
                except ValueError as e:
                    raise ParseError(str(e), source, lineno) from None
                if label.is_phi and not DEFAULT_TAXONOMY.is_known(label.phi_type):
                    raise ParseError(
                        f"unknown PHI type {label.phi_type!r}", source, lineno)
                labels[raw_label] = label
        dangling = label.kind == INSIDE and not (
            tokens and tokens[-1].label.phi_type == label.phi_type)
        if dangling and not repair:
            raise ParseError(f"invalid BIO transition to {label}", source, lineno)
        if tok is None:
            try:
                tok = lines[line] = Token(word, label)
            except ValueError as e:
                raise ParseError(str(e), source, lineno) from None
        if dangling:  # repaired Tokens are never stored in `lines`
            tok = Token(tok.text, Label(BEGIN, label.phi_type))
        tokens.append(tok)

    close_document()
    return Corpus(tuple(documents))


def serialize_conll(corpus: Corpus) -> str:
    """Render a Corpus in the two-column file format (tab separated).

    parse_conll(serialize_conll(c)) == c for every valid corpus; output is
    empty for an empty corpus and otherwise ends with a single newline.
    """
    return "".join(map(_document_text, corpus.documents))


def _document_text(doc: Document) -> str:
    out = [f"#doc id={doc.id}\n"]
    for sent in doc.sentences:
        for tok in sent.tokens:
            out.append(f"{tok.text}\t{tok.label}\n")
        out.append("\n")
    return "".join(out)


def read_conll(path) -> Corpus:
    with open(path, encoding="utf-8-sig") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"not UTF-8 text: {e}", str(path)) from None
    return parse_conll(text, source=str(path))


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
    with atomic_open(path) as f:  # per document, never the whole file
        f.writelines(map(_document_text, corpus.documents))


# ---------------------------------------------------------------------------
# Validation and span extraction


def validate_bio(sentence: Sentence) -> list[int]:
    """Positions of the Inside labels that do not continue a span of their
    type; empty list means valid."""
    bad = []
    prev: Label = O
    for i, tok in enumerate(sentence.tokens):
        lab = tok.label
        if lab.kind == INSIDE and prev.phi_type != lab.phi_type:
            bad.append(i)
        prev = lab
    return bad


def extract_entities(sentence: Sentence) -> list[EntitySpan]:
    """Typed spans covering exactly the Begin/Inside tokens of a sentence."""
    if validate_bio(sentence):
        raise BioViolationError("sentence is not BIO-valid; validate or repair first")
    spans = []
    start = None
    for i, tok in enumerate(sentence.tokens):
        lab = tok.label
        if lab.kind == BEGIN:
            if start is not None:
                spans.append(_make_span(sentence, start, i))
            start = i
        elif lab.kind == OUTSIDE:
            if start is not None:
                spans.append(_make_span(sentence, start, i))
                start = None
    if start is not None:
        spans.append(_make_span(sentence, start, len(sentence)))
    return spans


def _make_span(sentence, start, end):
    return EntitySpan(
        start=start, end=end,
        phi_type=sentence.tokens[start].label.phi_type,
        surface=" ".join(t.text for t in sentence.tokens[start:end]))


# ---------------------------------------------------------------------------
# Dataset preparation


def map_to_coarse(corpus: Corpus) -> Corpus:
    """Replace every fine PHI type with its coarse category.

    Rejects input that already carries coarse labels so a double mapping
    cannot pass silently. (The fine type "ID" coincides with the coarse
    category "ID" and is mapped to itself; it cannot be told apart.) Per
    call, equal output tokens are one Token and equal labels one Label.
    """
    coarse_of = {None: None, **DEFAULT_TAXONOMY.coarse_of}  # fine -> coarse
    table: dict = {}

    def token_of(t: Token) -> Token:
        if (phi_type := t.label.phi_type) not in coarse_of:
            raise PhiconError(
                f"label {t.label} is already coarse; corpus mapped twice?"
                if phi_type in coarse_of.values()
                else f"unknown fine type {phi_type!r}")
        return _shared_token(table, (t.text, t.label.kind, coarse_of[phi_type]))
    return Corpus(tuple(
        Document(doc.id, tuple(
            Sentence(tuple(map(token_of, sent.tokens)))
            for sent in doc.sentences))
        for doc in corpus.documents))


def split_corpus(corpus: Corpus, ratios: tuple[float, float, float],
                 seed: int) -> tuple[Corpus, Corpus, Corpus]:
    """Shuffle documents by seed, then partition into train/dev/test.

    Sizes are floor(n * ratio); leftover documents go to the parts with the
    largest fractional remainders (ties resolved train, dev, test).
    """
    if not all(r > 0 for r in ratios):
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
        parts.append(Corpus(tuple(docs[at:at + size])))
        at += size
    return tuple(parts)


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Note-level statistics: counts, token/PHI averages, per-category spans."""
    n = len(corpus.documents)
    if n == 0:
        return CorpusStats(0, 0.0, 0.0, {})
    tokens = 0
    phi_spans = 0
    by_coarse: dict[str, int] = {}
    for doc in corpus.documents:
        for sent in doc.sentences:
            tokens += len(sent)
            for span in extract_entities(sent):
                phi_spans += 1
                coarse = DEFAULT_TAXONOMY.coarse_of.get(span.phi_type, span.phi_type)
                by_coarse[coarse] = by_coarse.get(coarse, 0) + 1
    return CorpusStats(n, tokens / n, phi_spans / n, by_coarse)


def _relabel(texts, spans, table: dict) -> Sentence:
    keys = [(t, OUTSIDE, None) for t in texts]
    for span in spans:
        for i in range(span.start, span.end):
            keys[i] = (texts[i], INSIDE if i > span.start else BEGIN, span.phi_type)
    return Sentence(tuple([_shared_token(table, k) for k in keys]))


def _shared_token(table: dict, key: tuple) -> Token:
    """table's Token for (text, kind, phi_type), sharing its Label under key[1:]."""
    if (tok := table.get(key)) is None:
        label = table.setdefault(key[1:], Label(*key[1:]))
        tok = table[key] = Token(key[0], label)
    return tok
