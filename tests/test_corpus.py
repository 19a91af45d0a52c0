import gc
import os
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import phicon
from phicon.corpus import (
    Corpus, Document, Label, O, Sentence, Token, _relabel, atomic_open,
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


class TestOnePassParse:
    """parse_conll walks its text once, shares the Tokens of equal lines and
    equal labels, and reports errors as a split on "\\n" would."""

    def test_equal_texts_and_labels_shared(self):
        text = ("#doc id=a\nSmith\tB-Patient\nthe\tO\n\n"
                "#doc id=b\nthe\tO\nSmith\tB-Patient\nsaw\tO\nthe\tO\n\n")
        tokens = [t for s in phicon.parse_conll(text).sentences()
                  for t in s.tokens]
        smith, the = tokens[0], tokens[1]
        assert all(t.text is smith.text and t.label is smith.label
                   for t in tokens if t.text == "Smith")
        assert all(t.text is the.text and t.label is the.label
                   for t in tokens if t.text == "the")
        assert len({id(t.text) for t in tokens}) == \
            len({t.text for t in tokens}) == 3

    def test_transient_memory_below_text_length(self, site_corpora):
        text = phicon.serialize_conll(site_corpora[1])
        gc.collect()
        tracemalloc.start()
        try:
            corpus = phicon.parse_conll(text)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert corpus == site_corpora[1]
        assert peak - kept < len(text)

    @pytest.mark.parametrize("text, message", [
        ("#doc id=a\nx\tO\n\ny\tB-Date\nz\tQ\n", "<string>:5: bad label 'Q'"),
        ("x\tO\ny\tQ\nz\tQ\n", "<string>:2: bad label 'Q'"),
        ("x\tO\ny\tO\nz\tB-Doctorz\n",
         "<string>:3: unknown PHI type 'Doctorz'"),
        ("x\tO\r\ny\tO\r\n", "<string>:1: bad label 'O\\r'"),
        ("x\tB-Doctor\ny\tI-Doctor\nz\tO\nw\tI-Doctor\n",
         "<string>:4: invalid BIO transition to I-Doctor"),
        ("#doc id=a\nx\tO\n\n#doc id=\ny\tO\n",
         "<string>:4: empty document id"),
    ])
    def test_error_line_and_message(self, text, message):
        with pytest.raises(ParseError) as err:
            phicon.parse_conll(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("text, shape", [
        ("x\tO\ny\tO", [[2]]),
        ("x\tO\n\n\n#doc id=b\ny\tO\n\nz\tO", [[1], [1, 1]]),
    ])
    def test_lines_split_on_newline(self, text, shape):
        corpus = phicon.parse_conll(text)
        assert [[len(s) for s in d.sentences] for d in corpus.documents] \
            == shape

    def test_repair_keeps_valid_inside(self):
        text = ("x\tB-Doctor\ny\tI-Doctor\nz\tO\n"
                "w\tI-Doctor\nv\tI-Doctor\n")
        labels = [str(t.label) for t in phicon.parse_conll(
            text, repair=True).documents[0].sentences[0].tokens]
        assert labels == ["B-Doctor", "I-Doctor", "O", "B-Doctor", "I-Doctor"]


class TestLineMemo:
    """Each distinct token line is parsed once per call; its repeats share
    one Token, and the BIO check still runs at every occurrence."""

    def test_equal_lines_share_one_token(self):
        text = ("#doc id=a\nSmith\tB-Patient\nthe\tO\n\nthe\tO\n\n"
                "#doc id=b\nthe\tO\nSmith\tB-Patient\n\n")
        corpus = phicon.parse_conll(text)
        tokens = [t for s in corpus.sentences() for t in s.tokens]
        assert [t.text for t in tokens] == ["Smith", "the", "the", "the", "Smith"]
        assert tokens[0] is tokens[4]
        assert tokens[1] is tokens[2] is tokens[3]

    def test_one_token_per_distinct_line(self, site_corpora):
        text = phicon.serialize_conll(site_corpora[1])
        corpus = phicon.parse_conll(text)
        tokens = [t for s in corpus.sentences() for t in s.tokens]
        distinct = {line for line in text.split("\n")
                    if line and not line.startswith("#doc id=")}
        assert len(tokens) > len(distinct)
        assert len({id(t) for t in tokens}) == len(distinct)

    REPEATED_INSIDE = ("x\tB-Doctor\ny\tI-Doctor\nz\tO\n"
                       "y\tI-Doctor\nw\tB-Doctor\ny\tI-Doctor\n")

    def test_repeated_line_dangling_later_raises_there(self):
        with pytest.raises(ParseError) as err:
            phicon.parse_conll(self.REPEATED_INSIDE)
        assert str(err.value) == \
            "<string>:4: invalid BIO transition to I-Doctor"

    def test_repair_only_at_dangling_occurrence(self):
        tokens = phicon.parse_conll(
            self.REPEATED_INSIDE, repair=True).documents[0].sentences[0].tokens
        assert [str(t.label) for t in tokens] == [
            "B-Doctor", "I-Doctor", "O", "B-Doctor", "B-Doctor", "I-Doctor"]
        assert tokens[1] is tokens[5]
        assert tokens[3] is not tokens[1]

    @pytest.mark.parametrize("repair, message", [
        (False, "<string>:2: invalid BIO transition to I-Doctor"),
        (True, "<string>:2: bad token text 'a\\rb'"),
    ])
    def test_bad_text_and_dangling_inside(self, repair, message):
        with pytest.raises(ParseError) as err:
            phicon.parse_conll("x\tO\na\rb\tI-Doctor\n", repair=repair)
        assert str(err.value) == message


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
    @pytest.mark.parametrize("text", [
        "#doc id=a\nx\tO\n\n", "x\tO\n"])
    def test_leading_bom_ignored(self, tmp_path, text):
        path = tmp_path / "bom.conll"
        path.write_bytes(("\ufeff" + text).encode("utf-8"))
        assert phicon.read_conll(path) == phicon.parse_conll(text)

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

    def test_write_equals_serialize(self, tmp_path, site_corpora):
        path = tmp_path / "out.conll"
        for corpus in (site_corpora[1], Corpus(())):
            phicon.write_conll(corpus, path)
            assert path.read_bytes() == \
                phicon.serialize_conll(corpus).encode("utf-8")
        assert path.read_bytes() == b""

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
    texts = [t.text for t in sentence.tokens]
    # the rebuild generate_corpus makes, here with a fresh token table
    assert _relabel(texts, spans, {}) == sentence


class TestToken:
    @pytest.mark.parametrize("text", ["", "a b", "a\tb", "a\nb", "a\rb"])
    def test_whitespace_or_empty_text_rejected(self, text):
        with pytest.raises(ValueError, match="bad token text"):
            Token(text, O)

    def test_non_breaking_space_accepted(self):
        assert Token("a\u00a0b", O).text == "a\u00a0b"


class TestValidateBio:
    def test_all_outside(self):
        assert phicon.validate_bio(sent(("a", "O"), ("b", "O"))) == []

    def test_valid_span(self):
        s = sent(("a", "B-Date"), ("b", "I-Date"), ("c", "I-Date"))
        assert phicon.validate_bio(s) == []

    def test_outside_then_inside(self):
        assert phicon.validate_bio(sent(("a", "O"), ("b", "I-Phone"))) == [1]

    def test_type_mismatch_inside(self):
        assert phicon.validate_bio(
            sent(("a", "B-Date"), ("b", "I-Phone"))) == [1]

    def test_two_bad_insides(self):
        s = sent(("a", "I-Date"), ("b", "B-Phone"), ("c", "I-Phone"),
                 ("d", "I-Date"))
        assert phicon.validate_bio(s) == [0, 3]


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


class TestTaxonomy:
    def test_coarse_of_is_total(self):
        tax = phicon.DEFAULT_TAXONOMY
        assert sorted(tax.coarse_of) == sorted(tax.fine_types)
        assert len(tax.fine_types) == 11
        assert len(set(tax.coarse_of.values())) == 5
        assert tax.generator_backed <= set(tax.fine_types)


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

    def test_repeated_coarse_token_rejected(self):
        # "x B-Doctor" maps to "x B-NAME"; the input's own "x B-NAME", one
        # shared Token at both places, is still rejected.
        corpus = phicon.parse_conll("x\tB-Doctor\n\nx\tB-NAME\nx\tB-NAME\n")
        with pytest.raises(PhiconError, match="already coarse"):
            phicon.map_to_coarse(corpus)

    def test_parsed_corpus_keeps_one_token_per_distinct_line(self):
        text = ("#doc id=a\nSmith\tB-Patient\nthe\tO\n\n"
                "#doc id=b\nthe\tO\nSmith\tB-Doctor\nSmith\tB-Patient\n\n")
        tokens = [t for s in phicon.map_to_coarse(
            phicon.parse_conll(text)).sentences() for t in s.tokens]
        assert [f"{t.text} {t.label}" for t in tokens] == [
            "Smith B-NAME", "the O", "the O", "Smith B-NAME", "Smith B-NAME"]
        assert len({id(t) for t in tokens}) == 2
        assert len({id(t.label) for t in tokens}) == 2

    def test_matches_per_token_reference(self, fig_sentence):
        fine = phicon.generate_corpus(
            phicon.builtin_profiles()[0], 20, (5, 10), seed=3)
        for corpus in (fine, _one_doc(fig_sentence)):
            assert phicon.map_to_coarse(corpus) == _coarse_reference(corpus)

    def test_generated_corpus_keeps_one_token_per_distinct_token(self):
        mapped = phicon.map_to_coarse(phicon.generate_corpus(
            phicon.builtin_profiles()[0], 20, (5, 10), seed=3))
        tokens = [t for s in mapped.sentences() for t in s.tokens]
        assert len({id(t) for t in tokens}) == \
            len({(t.text, str(t.label)) for t in tokens}) < len(tokens)
        assert len({id(t.label) for t in tokens}) == \
            len({str(t.label) for t in tokens})


def _coarse_reference(corpus: Corpus) -> Corpus:
    """map_to_coarse built token by token: a fresh Token and Label each."""
    coarse_of = phicon.DEFAULT_TAXONOMY.coarse_of
    return Corpus(tuple(
        Document(doc.id, tuple(
            Sentence(tuple(
                Token(t.text, Label(t.label.kind, coarse_of[t.label.phi_type])
                      if t.label.is_phi else Label(t.label.kind))
                for t in s.tokens))
            for s in doc.sentences))
        for doc in corpus.documents))


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

    @pytest.mark.parametrize("ratios,message", [
        ((0.5, 0.5, 0.0), "ratios must be positive"),
        ((0.5, 0.5, 0.5), "ratios must sum to 1"),
    ])
    def test_bad_ratios_rejected(self, ratios, message):
        with pytest.raises(ValueError) as err:
            phicon.split_corpus(self._docs(10), ratios, seed=1)
        assert str(err.value) == message


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
