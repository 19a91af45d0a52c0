import os

import pytest
from hypothesis import given, settings, strategies as st

import phicon
from phicon.corpus import (
    Corpus, Document, Label, O, Sentence, Token, atomic_open,
    relabel_from_spans,
)
from phicon.errors import BioViolationError, ParseError, PhiconError

from tests.conftest import sent

FIG_TEXT = (
    "#doc id=note1\n"
    "She\tO\nmet\tO\nWashington\tB-Patient\nin\tO\nthe\tO\n"
    "Ohio\tB-Hospital\nHospital\tI-Hospital\n\n"
)


class TestParse:
    def test_paper_example_sentence(self):
        corpus = phicon.parse_conll("She O\nmet O\nWashington B-Patient\n")
        assert len(corpus.documents) == 1
        doc = corpus.documents[0]
        assert len(doc.sentences) == 1
        assert len(doc.sentences[0]) == 3
        spans = phicon.extract_entities(doc.sentences[0])
        assert [(s.phi_type, s.surface) for s in spans] == [("Patient", "Washington")]

    def test_empty_input(self):
        assert phicon.parse_conll("").documents == ()

    def test_dangling_inside_strict_vs_repair(self):
        text = "Washington I-Patient\n"
        with pytest.raises(ParseError) as err:
            phicon.parse_conll(text)
        assert "1" in str(err.value)
        repaired = phicon.parse_conll(text, repair=True)
        assert str(repaired.documents[0].sentences[0].tokens[0].label) == "B-Patient"

    def test_wrong_column_count(self):
        with pytest.raises(ParseError) as err:
            phicon.parse_conll("She\tO\nmet O O\n")
        assert ":2:" in str(err.value)

    def test_unknown_phi_type(self):
        with pytest.raises(ParseError) as err:
            phicon.parse_conll("x\tB-Spaceship\n")
        assert "Spaceship" in str(err.value)

    def test_doc_markers(self):
        corpus = phicon.parse_conll(
            "#doc id=a\nx\tO\n\n#doc id=b\ny\tB-Date\n\n")
        assert [d.id for d in corpus.documents] == ["a", "b"]

    def test_duplicate_doc_id_rejected(self):
        with pytest.raises(ParseError):
            phicon.parse_conll("#doc id=a\nx\tO\n\n#doc id=a\ny\tO\n\n")


class TestSerialize:
    def test_empty_corpus(self):
        assert phicon.serialize_conll(Corpus(())) == ""

    def test_round_trip_identity_on_text(self):
        assert phicon.serialize_conll(phicon.parse_conll(FIG_TEXT)) == FIG_TEXT

    def test_two_documents_two_markers(self):
        corpus = phicon.parse_conll("#doc id=a\nx\tO\n\n#doc id=b\ny\tO\n\n")
        out = phicon.serialize_conll(corpus)
        assert out.count("#doc id=") == 2
        assert out.endswith("\n") and not out.endswith("\n\n\n")


class TestFileIO:
    def test_non_utf8_input_is_parse_error(self, tmp_path):
        path = tmp_path / "latin1.conll"
        path.write_bytes("#doc id=a\nJos\xe9\tB-Patient\n\n".encode("latin-1"))
        with pytest.raises(ParseError, match="not UTF-8"):
            phicon.read_conll(path)

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "out.conll"
        phicon.write_conll(phicon.parse_conll(FIG_TEXT), path)
        with pytest.raises(OSError, match="disk full"):
            with atomic_open(path) as f:
                f.write("partial\n")
                raise OSError("disk full")
        assert path.read_text() == FIG_TEXT
        assert os.listdir(tmp_path) == ["out.conll"]

    def test_rewrite_replaces_whole_file(self, tmp_path):
        path = tmp_path / "out.conll"
        path.write_text("a much longer previous file\n" * 50)
        phicon.write_conll(phicon.parse_conll(FIG_TEXT), path)
        assert path.read_text() == FIG_TEXT
        assert os.listdir(tmp_path) == ["out.conll"]


# Random corpus generation for round-trip property tests.
_types = st.sampled_from(phicon.DEFAULT_TAXONOMY.fine_types)
_word = st.text(
    alphabet=st.characters(blacklist_characters=" \t\n\r",
                           blacklist_categories=("Cs", "Zs", "Zl", "Zp")),
    min_size=1, max_size=8)


@st.composite
def sentences(draw):
    n = draw(st.integers(1, 8))
    tokens = []
    prev_type = None
    for _ in range(n):
        word = draw(_word)
        kind = draw(st.sampled_from(["O", "B", "I"]))
        if kind == "O":
            tokens.append(Token(word, O))
            prev_type = None
        elif kind == "B" or prev_type is None:
            t = draw(_types)
            tokens.append(Token(word, Label("B", t)))
            prev_type = t
        else:
            tokens.append(Token(word, Label("I", prev_type)))
    return Sentence(tuple(tokens))


@st.composite
def corpora(draw, max_docs=4):
    n = draw(st.integers(0, max_docs))
    docs = []
    for i in range(n):
        sents = draw(st.lists(sentences(), min_size=1, max_size=4))
        docs.append(Document(f"d{i}", tuple(sents)))
    return Corpus(tuple(docs))


@settings(max_examples=120)
@given(corpora())
def test_parse_serialize_round_trip(corpus):
    assert phicon.parse_conll(phicon.serialize_conll(corpus)) == corpus


@settings(max_examples=80)
@given(sentences())
def test_extract_relabel_identity(sentence):
    spans = phicon.extract_entities(sentence)
    assert relabel_from_spans(sentence.texts(), spans) == sentence


class TestValidateBio:
    def test_all_outside(self):
        assert phicon.validate_bio(sent(("a", "O"), ("b", "O"))) == []

    def test_valid_span(self):
        s = sent(("a", "B-Date"), ("b", "I-Date"), ("c", "I-Date"))
        assert phicon.validate_bio(s) == []

    def test_outside_then_inside(self):
        violations = phicon.validate_bio(sent(("a", "O"), ("b", "I-Phone")))
        assert len(violations) == 1 and violations[0].position == 1

    def test_type_mismatch_inside(self):
        violations = phicon.validate_bio(sent(("a", "B-Date"), ("b", "I-Phone")))
        assert len(violations) == 1


class TestExtractEntities:
    def test_fig_sentence(self, fig_sentence):
        spans = phicon.extract_entities(fig_sentence)
        assert [(s.start, s.end, s.phi_type, s.surface) for s in spans] == [
            (2, 3, "Patient", "Washington"),
            (5, 7, "Hospital", "Ohio Hospital"),
        ]

    def test_all_outside(self):
        assert phicon.extract_entities(sent(("a", "O"))) == []

    def test_adjacent_begins(self):
        spans = phicon.extract_entities(sent(("a", "B-ID"), ("b", "B-ID")))
        assert [(s.start, s.end) for s in spans] == [(0, 1), (1, 2)]

    def test_rejects_invalid(self):
        with pytest.raises(BioViolationError):
            phicon.extract_entities(sent(("a", "O"), ("b", "I-Date")))


def _one_doc(*sents):
    return Corpus((Document("d", tuple(sents)),))


class TestMapToCoarse:
    def test_doctor_and_zip(self):
        corpus = _one_doc(sent(("x", "B-Doctor"), ("y", "B-Zip")))
        mapped = phicon.map_to_coarse(corpus)
        labels = [str(t.label) for t in mapped.documents[0].sentences[0].tokens]
        assert labels == ["B-NAME", "B-LOCATION"]

    def test_all_outside_unchanged(self):
        corpus = _one_doc(sent(("x", "O")))
        assert phicon.map_to_coarse(corpus) == corpus

    def test_all_eleven_types_to_five(self):
        toks = [(f"w{i}", f"B-{t}") for i, t in
                enumerate(phicon.DEFAULT_TAXONOMY.fine_types)]
        mapped = phicon.map_to_coarse(_one_doc(sent(*toks)))
        got = {t.label.phi_type for t in mapped.documents[0].sentences[0].tokens}
        assert got == {"NAME", "LOCATION", "DATE", "ID", "CONTACT"}

    def test_already_coarse_rejected(self):
        corpus = _one_doc(sent(("x", "B-NAME")))
        with pytest.raises(PhiconError, match="already coarse"):
            phicon.map_to_coarse(corpus)

    def test_boundaries_preserved(self, fig_sentence):
        mapped = phicon.map_to_coarse(_one_doc(fig_sentence))
        spans = phicon.extract_entities(mapped.documents[0].sentences[0])
        assert [(s.start, s.end) for s in spans] == [(2, 3), (5, 7)]
        assert phicon.validate_bio(mapped.documents[0].sentences[0]) == []


class TestFilterRareTypes:
    def _corpus(self, count):
        sents = [sent((f"w{i}", "B-Phone"), ("x", "O")) for i in range(count)]
        sents.append(sent(("y", "B-Date")))
        return _one_doc(*sents)

    def test_threshold_zero_is_identity(self):
        corpus = self._corpus(3)
        assert phicon.filter_rare_types(corpus, 0) == corpus

    def test_below_threshold_relabeled(self):
        filtered = phicon.filter_rare_types(self._corpus(19), 20)
        assert all(not t.label.is_phi or t.label.phi_type != "Phone"
                   for s in filtered.sentences() for t in s.tokens)

    def test_exactly_at_threshold_retained(self):
        filtered = phicon.filter_rare_types(self._corpus(20), 20)
        kept = sum(1 for s in filtered.sentences()
                   for t in s.tokens if t.label.is_phi and t.label.phi_type == "Phone")
        assert kept == 20

    def test_monotone_in_threshold(self):
        corpus = self._corpus(5)

        def outside_count(c):
            return sum(1 for s in c.sentences() for t in s.tokens
                       if not t.label.is_phi)

        counts = [outside_count(phicon.filter_rare_types(corpus, t))
                  for t in (0, 2, 6, 10)]
        assert counts == sorted(counts)


class TestSplitCorpus:
    def _docs(self, n):
        return Corpus(tuple(
            Document(f"d{i}", (sent(("x", "O")),)) for i in range(n)))

    def test_ten_docs_7_1_2(self):
        parts = phicon.split_corpus(self._docs(10), (0.7, 0.1, 0.2), seed=1)
        assert [len(p.documents) for p in parts] == [7, 1, 2]

    def test_three_docs(self):
        parts = phicon.split_corpus(self._docs(3), (0.7, 0.1, 0.2), seed=1)
        assert [len(p.documents) for p in parts] == [2, 0, 1]

    def test_deterministic(self):
        a = phicon.split_corpus(self._docs(12), (0.7, 0.1, 0.2), seed=9)
        b = phicon.split_corpus(self._docs(12), (0.7, 0.1, 0.2), seed=9)
        assert a == b

    def test_disjoint_and_exhaustive(self):
        corpus = self._docs(17)
        parts = phicon.split_corpus(corpus, (0.5, 0.25, 0.25), seed=3)
        ids = [d.id for p in parts for d in p.documents]
        assert sorted(ids) == sorted(d.id for d in corpus.documents)
        assert len(set(ids)) == len(ids)

    def test_too_few_documents(self):
        with pytest.raises(PhiconError):
            phicon.split_corpus(self._docs(2), (0.7, 0.1, 0.2), seed=1)


class TestCorpusStats:
    def test_empty(self):
        stats = phicon.corpus_stats(Corpus(()))
        assert (stats.note_count, stats.avg_tokens_per_note,
                stats.avg_phi_per_note, stats.phi_counts) == (0, 0.0, 0.0, {})

    def test_two_docs(self):
        corpus = Corpus((
            Document("a", (sent(("w", "O"), ("x", "O"), ("y", "B-Date"), ("z", "O")),)),
            Document("b", (sent(*[(f"t{i}", "O") for i in range(5)] +
                                [("p", "B-Phone")]),)),
        ))
        stats = phicon.corpus_stats(corpus)
        assert stats.note_count == 2
        assert stats.avg_tokens_per_note == 5.0
        assert stats.avg_phi_per_note == 1.0
        assert stats.phi_counts == {"DATE": 1, "CONTACT": 1}
