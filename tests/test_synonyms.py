import shutil

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

    @pytest.mark.parametrize("kind,text", [
        ("index", "_ r 1 0 1 0 00030000\n"),
        ("data", "00030000 02 r 02 quickly 0 __ 0 000 | fast\n"),
    ], ids=["index", "data"])
    def test_empty_lemma_rejected(self, tmp_path, wndb_dir, kind, text):
        # A lemma of underscores normalizes to "", which RI would insert
        # (or SR substitute) as an empty token.
        import shutil
        shutil.copytree(wndb_dir, tmp_path, dirs_exist_ok=True)
        with open(tmp_path / f"{kind}.adv", "a", encoding="utf-8") as f:
            f.write(text)
        with pytest.raises(ParseError, match=f"malformed WNDB {kind} line"):
            phicon.load_wndb(tmp_path)

    def test_index_names_missing_synset(self, tmp_path, wndb_dir):
        shutil.copytree(wndb_dir, tmp_path, dirs_exist_ok=True)
        with open(tmp_path / "index.adv", "a", encoding="utf-8") as f:
            f.write("slowly r 1 0 1 0 99999999\n")
        with pytest.raises(ParseError) as err:
            phicon.load_wndb(tmp_path)
        assert str(err.value) == (f"{tmp_path / 'index.adv'}: index "
                                  "references missing synset 99999999")

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

    def test_four_columns_rejected(self, tmp_path):
        path = tmp_path / "four.tsv"
        path.write_text("met\tverb\tsaw\nrun\tverb\tjog\textra\n")
        with pytest.raises(ParseError) as err:
            phicon.load_tsv(path)
        assert str(err.value) == f"{path}:2: expected 3 tab-separated columns"

    def test_whitespace_runs_collapse(self, tmp_path):
        path = tmp_path / "ws.tsv"
        path.write_text(" Health   Center \tnoun\t health__care ,_clinic_\n")
        provider = phicon.load_tsv(path)
        assert list(provider.index) == [("health center", PosTag.NOUN)]
        assert phicon.lookup_synonyms(
            provider, "health center", PosTag.NOUN) == ["clinic", "health care"]

    @pytest.mark.parametrize("line", ["\tadv\tquickly", "_\tadv\tquickly",
                                      " _ \tnoun\t"])
    def test_empty_lemma_rejected(self, tmp_path, line):
        # An empty lemma would reach pos_pool, and RI would insert it as an
        # empty token.
        path = tmp_path / "empty.tsv"
        path.write_text(f"met\tverb\tsaw\n{line}\n")
        with pytest.raises(ParseError, match=":2: empty lemma"):
            phicon.load_tsv(path)

    def test_empty_synonym_dropped(self, tmp_path):
        path = tmp_path / "syn.tsv"
        path.write_text("met\tverb\t_, ,saw\n")
        provider = phicon.load_tsv(path)
        assert phicon.lookup_synonyms(provider, "met", PosTag.VERB) == ["saw"]

    def test_leading_bom_ignored(self, tmp_path):
        path = tmp_path / "bom.tsv"
        path.write_bytes("\ufeffbig\tadj\tlarge\n".encode("utf-8"))
        provider = phicon.load_tsv(path)
        assert phicon.lookup_synonyms(provider, "big", PosTag.ADJECTIVE) == \
            ["large"]


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
    @pytest.fixture(scope="class")
    def provider(self, tmp_path_factory):
        # Every word has a POS here, so only the bundled stopword list can
        # mask it from SR and RI.
        path = tmp_path_factory.mktemp("stop") / "syn.tsv"
        path.write_text("the\tadjective\t\n"
                        "hospital\tnoun\tclinic\n"
                        "not\tadverb\t\n")
        return phicon.load_tsv(path)

    @pytest.mark.parametrize("word,expected", [
        ("the", True), ("hospital", False), ("The", True), ("NOT", True),
    ])
    def test_membership(self, provider, word, expected):
        assert (phicon.lookup_pos(provider, word) == frozenset()) is expected

    def test_override_by_file(self, tmp_path):
        # A custom stopword set passed to load_tsv replaces the bundled
        # list: its words lose their POS and leave the RI pools.
        path = tmp_path / "syn.tsv"
        path.write_text("quick\tadjective\tfast\n"
                        "steady\tadjective\tstable\n"
                        "the\tadjective\t\n")
        provider = phicon.load_tsv(path, stopwords=frozenset({"quick"}))
        assert phicon.lookup_pos(provider, "Quick") == frozenset()
        assert provider.stopwords == frozenset({"quick"})
        assert phicon.lookup_pos(provider, "the") == {PosTag.ADJECTIVE}
        assert provider.pos_pool(PosTag.ADJECTIVE) == ("steady", "the")


def test_pos_pool_sorted_and_nonstop(tsv_provider):
    pool = tsv_provider.pos_pool(PosTag.ADJECTIVE)
    assert pool == tuple(sorted(pool))
    assert "quick" in pool and "steady" in pool
