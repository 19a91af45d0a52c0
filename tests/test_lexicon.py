import collections

import pytest

import phicon
from phicon.errors import ExhaustionError, LexiconError
from phicon.lexicon import pattern_verifier
from phicon.rng import RandomStream


class TestLoadLexicon:
    def test_dedup_preserving_order(self, tmp_path):
        path = tmp_path / "patients.txt"
        path.write_text("William\nAlaska Health Center\nWilliam\n")
        lex = phicon.load_lexicon(path, "Patient")
        assert lex.entries == ("William", "Alaska Health Center")

    def test_blank_lines_and_whitespace(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("  Mercy  General \n\n\n Mercy General\n")
        lex = phicon.load_lexicon(path, "Hospital")
        assert lex.entries == ("Mercy General",)

    def test_only_blank_lines(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("\n\n  \n")
        with pytest.raises(LexiconError, match="empty lexicon"):
            phicon.load_lexicon(path, "Hospital")

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            phicon.load_lexicon(tmp_path / "nope.txt", "Hospital")

    def test_scale(self, tmp_path):
        # shaped like the real Hospital list: 5,400 entries in, 5,400 out
        path = tmp_path / "hospitals.txt"
        path.write_text("\n".join(f"Hospital {i}" for i in range(5400)) + "\n")
        assert len(phicon.load_lexicon(path, "Hospital")) == 5400


ZIP = phicon.DEFAULT_GENERATOR_SPECS["Zip"]


class TestGenerateIdentifiers:
    def test_zip_4000_distinct(self):
        lex = phicon.generate_identifiers(ZIP, 4000, seed=1)
        assert len(set(lex.entries)) == 4000
        verifier = pattern_verifier(r"\d{5}")
        assert all(verifier.match(e) for e in lex.entries)

    def test_count_one(self):
        for name, spec in phicon.DEFAULT_GENERATOR_SPECS.items():
            lex = phicon.generate_identifiers(spec, 1, seed=2)
            assert len(lex) == 1
            assert any(pattern_verifier(p).match(lex.entries[0])
                       for p in spec.patterns), name

    def test_zip_exhaustion(self):
        with pytest.raises(ExhaustionError):
            phicon.generate_identifiers(ZIP, 100_001, seed=1)

    def test_deterministic(self):
        a = phicon.generate_identifiers(ZIP, 100, seed=7)
        b = phicon.generate_identifiers(ZIP, 100, seed=7)
        assert a == b
        c = phicon.generate_identifiers(ZIP, 100, seed=8)
        assert a != c

    def test_every_entry_matches_declared_patterns(self):
        for name, spec in phicon.DEFAULT_GENERATOR_SPECS.items():
            lex = phicon.generate_identifiers(spec, 200, seed=3)
            verifiers = [pattern_verifier(p) for p in spec.patterns]
            for entry in lex.entries:
                assert any(v.match(entry) for v in verifiers), (name, entry)

    def test_date_entries_calendar_valid(self):
        spec = phicon.GeneratorSpec("Date", ("YYYY-MM-DD",))
        lex = phicon.generate_identifiers(spec, 500, seed=4)
        import datetime
        for entry in lex.entries:
            d = datetime.date.fromisoformat(entry)
            assert 1950 <= d.year <= 2020

    @pytest.mark.parametrize("weights", [
        (float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 1.0),
        (1.0, float("inf"))], ids=["nan-first", "nan-last", "inf-first",
                                   "inf-last"])
    def test_bad_weights_rejected(self, weights):
        # Each used to pass; with a NaN weight weighted_choice then always
        # picked the last pattern.
        with pytest.raises(ValueError):
            phicon.GeneratorSpec("Zip", (r"\d{5}", r"9\d{4}"), weights)


class TestSampleEntity:
    def test_singleton(self):
        lex = phicon.Lexicon("Patient", ("William",))
        assert phicon.sample_entity(lex, RandomStream(0)) == "William"

    def test_deterministic(self):
        lex = phicon.Lexicon("Patient", ("A", "B"))
        draws1 = [phicon.sample_entity(lex, RandomStream(5)) for _ in range(3)]
        draws2 = [phicon.sample_entity(lex, RandomStream(5)) for _ in range(3)]
        assert draws1 == draws2

    def test_uniformity(self):
        entries = tuple(f"e{i}" for i in range(10))
        lex = phicon.Lexicon("Patient", entries)
        rng = RandomStream(42)
        counts = collections.Counter(
            phicon.sample_entity(lex, rng) for _ in range(100_000))
        for e in entries:
            assert abs(counts[e] - 10_000) <= 500  # within 5%

    def test_avoid_single_retry(self):
        lex = phicon.Lexicon("Patient", ("A", "B"))
        rng = RandomStream(1)
        draws = [phicon.sample_entity(lex, rng, avoid="A") for _ in range(200)]
        # avoidance is best effort (one retry), but should clearly skew
        assert draws.count("B") > draws.count("A")

    def test_coupon_collector(self):
        entries = tuple(f"e{i}" for i in range(8))
        lex = phicon.Lexicon("X", entries)
        rng = RandomStream(3)
        seen = {phicon.sample_entity(lex, rng) for _ in range(50 * len(entries))}
        assert seen == set(entries)


class TestRegistryResolve:
    def test_fine_identity(self, fixture_registry):
        lex = phicon.registry_resolve(fixture_registry, "Doctor")
        assert lex is fixture_registry.by_fine["Doctor"]

    def test_coarse_union(self):
        registry = phicon.LexiconRegistry({
            "Patient": phicon.Lexicon("Patient", ("P1", "P2")),
            "Doctor": phicon.Lexicon("Doctor", ("D1", "D2", "D3")),
            "Username": phicon.Lexicon("Username", ("u01",)),
        })
        union = phicon.registry_resolve(registry, "NAME")
        assert len(union) == 6

    def test_unregistered_coarse(self):
        registry = phicon.LexiconRegistry({})
        with pytest.raises(LexiconError):
            phicon.registry_resolve(registry, "DATE")

    def test_unknown_type(self, fixture_registry):
        with pytest.raises(LexiconError):
            phicon.registry_resolve(fixture_registry, "Starship")

    def test_location_union_members(self, fixture_registry):
        union = phicon.registry_resolve(fixture_registry, "LOCATION")
        for fine in ("Hospital", "Location", "Zip", "Organization"):
            for e in fixture_registry.by_fine[fine].entries:
                assert e in union.entries

    def test_coarse_unions_match_reference(self):
        registry = phicon.builtin_registry(seed=3)
        tax = registry.taxonomy
        for coarse in ("NAME", "LOCATION", "DATE", "CONTACT"):
            entries, seen = [], set()
            for fine in tax.fines_of(coarse):
                for e in registry.by_fine[fine].entries:
                    if e not in seen:
                        seen.add(e)
                        entries.append(e)
            union = phicon.registry_resolve(registry, coarse)
            assert union.phi_type == coarse
            assert union.entries == tuple(entries)

    def test_same_object_every_call(self):
        registry = phicon.builtin_registry(seed=3)
        for name in ("NAME", "LOCATION", "DATE", "ID", "CONTACT", "Doctor"):
            first = phicon.registry_resolve(registry, name)
            assert phicon.registry_resolve(registry, name) is first

    def test_coarse_id_is_fine_id(self):
        # "ID" is both a fine type and a coarse category; the fine name
        # wins, so MedicalRecord entries are not part of it.
        registry = phicon.builtin_registry(seed=3)
        lex = phicon.registry_resolve(registry, "ID")
        assert lex is registry.by_fine["ID"]
        assert not set(registry.by_fine["MedicalRecord"].entries) <= set(
            lex.entries)

    def test_empty_registry_constructs(self):
        registry = phicon.LexiconRegistry({})
        assert registry == phicon.LexiconRegistry({})
        assert "_resolved" not in repr(registry)
