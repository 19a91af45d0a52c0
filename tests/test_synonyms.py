import pytest

import phicon
from phicon.errors import ParseError
from phicon.synonyms import PosTag


class TestWndbLoader:
    def test_doctor_physician(self, wndb_dir):
        provider = phicon.load_wndb(wndb_dir)
        assert "physician" in phicon.lookup_synonyms(provider, "doctor", PosTag.NOUN)

    def test_lonely_lemma_has_no_synonyms(self, wndb_dir):
        provider = phicon.load_wndb(wndb_dir)
        assert phicon.lookup_synonyms(provider, "hospital", PosTag.NOUN) == []

    def test_multiword_lemma_space_joined(self, wndb_dir):
        provider = phicon.load_wndb(wndb_dir)
        assert phicon.lookup_synonyms(provider, "clinic", PosTag.NOUN) == \
            ["health center"]
        assert phicon.lookup_synonyms(
            provider, "health center", PosTag.NOUN) == ["clinic"]

    def test_adjective_marker_stripped(self, wndb_dir):
        provider = phicon.load_wndb(wndb_dir)
        assert phicon.lookup_synonyms(provider, "quick", PosTag.ADJECTIVE) == \
            ["fast", "speedy"]

    def test_symmetry_at_synset_granularity(self, wndb_dir):
        provider = phicon.load_wndb(wndb_dir)
        for (lemma, pos), syns in provider.index.items():
            for other in syns:
                assert lemma in provider.index[(other, pos)]

    def test_empty_directory(self, tmp_path):
        with pytest.raises(OSError):
            phicon.load_wndb(tmp_path)

    def test_malformed_data_line(self, tmp_path, wndb_dir):
        import shutil
        for name in ("index.noun", "data.noun", "index.verb", "data.verb",
                     "index.adj", "data.adj", "index.adv", "data.adv"):
            shutil.copy(f"{wndb_dir}/{name}", tmp_path / name)
        (tmp_path / "data.noun").write_text("00001 18 n ZZ broken\n")
        with pytest.raises(ParseError):
            phicon.load_wndb(tmp_path)

    def test_deterministic_construction(self, wndb_dir):
        a = phicon.load_wndb(wndb_dir)
        b = phicon.load_wndb(wndb_dir)
        assert a.index == b.index and a.pos_index == b.pos_index


class TestTsvLoader:
    def test_basic_line(self, tsv_provider):
        assert phicon.lookup_synonyms(tsv_provider, "met", PosTag.VERB) == \
            ["encountered", "saw"]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        provider = phicon.load_tsv(path)
        assert provider.index == {}

    def test_duplicate_lines_merge(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("met\tverb\tencountered\nmet\tverb\tsaw\n")
        provider = phicon.load_tsv(path)
        assert phicon.lookup_synonyms(provider, "met", PosTag.VERB) == \
            ["encountered", "saw"]

    def test_bad_pos(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("met\tgerund\tx\n")
        with pytest.raises(ParseError):
            phicon.load_tsv(path)


class TestLookups:
    def test_unknown_word(self, tsv_provider):
        assert phicon.lookup_synonyms(tsv_provider, "xylophone", PosTag.NOUN) == []
        assert phicon.lookup_pos(tsv_provider, "xylophone") == frozenset()

    def test_case_folding(self, tsv_provider):
        assert phicon.lookup_synonyms(tsv_provider, "Quick", PosTag.ADJECTIVE) == \
            phicon.lookup_synonyms(tsv_provider, "quick", PosTag.ADJECTIVE)

    def test_ambiguous_pos(self, tsv_provider):
        assert phicon.lookup_pos(tsv_provider, "run") == \
            frozenset({PosTag.NOUN, PosTag.VERB})

    def test_stopword_masked_in_pos(self, wndb_dir):
        provider = phicon.load_wndb(wndb_dir)
        assert "the" in {lemma for lemma, _ in provider.index}
        assert phicon.lookup_pos(provider, "the") == frozenset()

    def test_never_own_synonym(self, wndb_dir, tsv_provider):
        for provider in (phicon.load_wndb(wndb_dir), tsv_provider):
            for (lemma, pos) in provider.index:
                assert lemma not in phicon.lookup_synonyms(provider, lemma, pos)


class TestStopwords:
    @pytest.mark.parametrize("word,expected", [
        ("the", True), ("hospital", False), ("The", True), ("NOT", True),
    ])
    def test_membership(self, tsv_provider, word, expected):
        assert phicon.is_stopword(tsv_provider, word) is expected

    def test_override_by_file(self, tmp_path):
        # A custom stopword set passed to load_tsv replaces the bundled
        # list: its words lose their POS and leave the RI pools.
        path = tmp_path / "syn.tsv"
        path.write_text("quick\tadjective\tfast\n"
                        "steady\tadjective\tstable\n"
                        "the\tadjective\t\n")
        provider = phicon.load_tsv(path, stopwords=frozenset({"quick"}))
        assert phicon.lookup_pos(provider, "Quick") == frozenset()
        assert phicon.is_stopword(provider, "quick")
        assert phicon.lookup_pos(provider, "the") == {PosTag.ADJECTIVE}
        assert provider.pos_pool(PosTag.ADJECTIVE) == ("steady", "the")


def test_pos_pool_sorted_and_nonstop(tsv_provider):
    pool = tsv_provider.pos_pool(PosTag.ADJECTIVE)
    assert pool == tuple(sorted(pool))
    assert "quick" in pool and "steady" in pool
