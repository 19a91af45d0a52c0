import calendar
import collections
import datetime
import hashlib
import re

import pytest

import phicon
from phicon.errors import ExhaustionError, LexiconError
from phicon.lexicon import DEFAULT_GENERATED_COUNTS, render_pattern
from phicon.rng import RandomStream


class TestLexiconEntries:
    # phi_augment splits an entry on single spaces into token texts, so an
    # entry is rejected unless each of its words is a valid token text.
    @pytest.mark.parametrize("entry", [
        "", "Mercy  General", " Mercy", "Mercy ", " ", "Mercy\rGeneral",
        "Mercy\r", "a\tb", "a\nb"])
    def test_entry_augmentation_cannot_place_rejected(self, entry):
        with pytest.raises(ValueError, match=re.escape(
                f"bad Hospital lexicon entry {entry!r}")):
            phicon.Lexicon("Hospital", ("Ohio", entry))

    @pytest.mark.parametrize("entry", ["Mercy", "Mercy General", "a-b c.d",
                                       "Mercy\xa0General"])
    def test_entry_of_valid_words_accepted(self, entry):
        assert phicon.Lexicon("Hospital", (entry,)).entries == (entry,)


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

    def test_leading_bom_ignored(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_bytes("\ufeffJohn Smith\nAnn Lee\n".encode("utf-8"))
        lex = phicon.load_lexicon(path, "Patient")
        assert lex.entries == ("John Smith", "Ann Lee")

    def test_scale(self, tmp_path):
        # shaped like the real Hospital list: 5,400 entries in, 5,400 out
        path = tmp_path / "hospitals.txt"
        path.write_text("\n".join(f"Hospital {i}" for i in range(5400)) + "\n")
        assert len(phicon.load_lexicon(path, "Hospital")) == 5400


ZIP = phicon.DEFAULT_GENERATOR_SPECS["Zip"]


# The first 16 hex digits of the sha256 of each default spec's pool at its
# DEFAULT_GENERATED_COUNTS size and seed 0, newline-joined: the lexicons
# `gen-lexicon --type <Type>` writes by default.
_DEFAULT_POOL_DIGESTS = {
    "Zip": "37759675c04e393f",
    "Phone": "95b5fa1319c3141b",
    "Date": "ab960d918c35e1df",
    "ID": "e457c5de603e5e04",
    "MedicalRecord": "c593a83e5685c3f4",
    "Username": "4fb75a9413e43ca6",
}

# The patterns of the synthetic sites' numeric filler pools.
_FILLER_PATTERNS = (r"\d{2,3}/\d{2}", r"\d{2}", r"\d{2,3}", r"\d{3}")

# Every pattern the library renders: the default specs' and the fillers'.
_PATTERNS = [p for spec in phicon.DEFAULT_GENERATOR_SPECS.values()
             for p in spec.patterns] + list(_FILLER_PATTERNS)

# A template oracle written apart from the renderer: each template the
# tests draw from, spelled out by hand as the regex of what it may emit.
_ORACLE = {
    r"\d{5}": r"[0-9]{5}",
    r"(\d{3}) \d{3}-\d{4}": r"\([0-9]{3}\) [0-9]{3}-[0-9]{4}",
    r"\d{3}-\d{3}-\d{4}": r"[0-9]{3}-[0-9]{3}-[0-9]{4}",
    r"\d{3}.\d{3}.\d{4}": r"[0-9]{3}\.[0-9]{3}\.[0-9]{4}",
    r"[A-Z]{2}\d{6}": r"[A-Z]{2}[0-9]{6}",
    r"\d{5,8}": r"[0-9]{5,8}",
    r"\d{7}": r"[0-9]{7}",
    r"\d{3}-\d{2}-\d{2}": r"[0-9]{3}-[0-9]{2}-[0-9]{2}",
    r"[a-z]{5,8}\d{2}": r"[a-z]{5,8}[0-9]{2}",
    r"\d{2,3}/\d{2}": r"[0-9]{2,3}/[0-9]{2}",
    r"\d{2}": r"[0-9]{2}",
    r"\d{2,3}": r"[0-9]{2,3}",
    r"\d{3}": r"[0-9]{3}",
}

# Date template -> (its shape, the strptime format that reads it back).
_DATE_ORACLE = {
    "MM/DD/YYYY": (r"[0-9]{2}/[0-9]{2}/[0-9]{4}", "%m/%d/%Y"),
    "YYYY-MM-DD": (r"[0-9]{4}-[0-9]{2}-[0-9]{2}", "%Y-%m-%d"),
    "M/D/YY": (r"[1-9][0-9]?/[1-9][0-9]?/[0-9]{2}", "%m/%d/%y"),
    "MonthName D, YYYY": ("(?:" + "|".join(calendar.month_name[1:])
                          + r") [1-9][0-9]?, [0-9]{4}", "%B %d, %Y"),
}


def _matches(pattern: str, value: str) -> bool:
    """Whether the template can emit value; a date must also be a real
    calendar day, in 1950-2020 where the year has four digits."""
    if pattern not in _DATE_ORACLE:
        return re.fullmatch(_ORACLE[pattern], value) is not None
    shape, fmt = _DATE_ORACLE[pattern]
    if re.fullmatch(shape, value) is None:
        return False
    try:
        day = datetime.datetime.strptime(value, fmt)
    except ValueError:
        return False
    return fmt.endswith("%y") or 1950 <= day.year <= 2020


class TestGenerateIdentifiers:
    def test_default_pools_pinned(self):
        for name, spec in phicon.DEFAULT_GENERATOR_SPECS.items():
            lex = phicon.generate_identifiers(
                spec, DEFAULT_GENERATED_COUNTS[name], seed=0)
            digest = hashlib.sha256("\n".join(lex.entries).encode())
            assert digest.hexdigest()[:16] == _DEFAULT_POOL_DIGESTS[name], name

    def test_every_render_matches_verifier(self):
        rng = RandomStream(11)
        for pattern in _PATTERNS:
            for _ in range(300):
                value = render_pattern(pattern, rng)
                assert _matches(pattern, value), (pattern, value)

    def test_oracle_rejects_wrong_length(self):
        rng = RandomStream(12)
        for pattern in _PATTERNS:
            value = render_pattern(pattern, rng)
            assert not _matches(pattern, value + value), (pattern, value)

    def test_zip_4000_distinct(self):
        lex = phicon.generate_identifiers(ZIP, 4000, seed=1)
        assert len(set(lex.entries)) == 4000
        assert all(_matches(r"\d{5}", e) for e in lex.entries)

    def test_count_one(self):
        for name, spec in phicon.DEFAULT_GENERATOR_SPECS.items():
            lex = phicon.generate_identifiers(spec, 1, seed=2)
            assert len(lex) == 1
            assert any(_matches(p, lex.entries[0])
                       for p in spec.patterns), name

    def test_zip_exhaustion(self):
        with pytest.raises(ExhaustionError):
            phicon.generate_identifiers(ZIP, 100_001, seed=1)

    def test_retry_budget_exhaustion(self):
        # The space (11 values) covers the count, but nearly every draw
        # takes "A", so the 100 draws per entry run out first.
        spec = phicon.GeneratorSpec("ID", ("A", r"\d"), (1e9, 1))
        with pytest.raises(ExhaustionError) as err:
            phicon.generate_identifiers(spec, 11, seed=0)
        assert str(err.value) == \
            "ID: could not produce 11 distinct entries within 1100 draws"

    def test_deterministic(self):
        a = phicon.generate_identifiers(ZIP, 100, seed=7)
        b = phicon.generate_identifiers(ZIP, 100, seed=7)
        assert a == b
        c = phicon.generate_identifiers(ZIP, 100, seed=8)
        assert a != c

    def test_every_entry_matches_declared_patterns(self):
        for name, spec in phicon.DEFAULT_GENERATOR_SPECS.items():
            lex = phicon.generate_identifiers(spec, 200, seed=3)
            for entry in lex.entries:
                assert any(_matches(p, entry) for p in spec.patterns), \
                    (name, entry)

    def test_date_entries_calendar_valid(self):
        spec = phicon.GeneratorSpec("Date", ("YYYY-MM-DD",))
        lex = phicon.generate_identifiers(spec, 500, seed=4)
        for entry in lex.entries:
            d = datetime.date.fromisoformat(entry)
            assert 1950 <= d.year <= 2020

    @pytest.mark.parametrize("pattern", [
        r"[A-F]\d{3}", r"\d{2", r"[b-z]{2}\d", r"\d{3,2}", r"\d{,3}",
        r"\w{4}", r"\d{0}x", r"\d{0}", r"\d{0,2}"])
    def test_unsupported_syntax_rejected(self, pattern):
        # Each used to be accepted, emitting the brackets, braces or
        # backslash as literal text (or, for {3,2}, an empty value space,
        # and for {0} or {0,n}, values that draw nothing from the class).
        with pytest.raises(ValueError, match=re.escape(f"'{pattern}'")):
            phicon.GeneratorSpec("ID", (pattern,))
        with pytest.raises(ValueError, match=re.escape(f"'{pattern}'")):
            render_pattern(pattern, RandomStream(0))

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

    @staticmethod
    def _reference_union(registry, coarse):
        # every registered fine type whose coarse_of is the category, in
        # taxonomy order, entries deduplicated keeping the first
        tax = phicon.DEFAULT_TAXONOMY
        entries, seen = [], set()
        for fine in tax.fine_types:
            if tax.coarse_of[fine] == coarse and fine in registry.by_fine:
                for e in registry.by_fine[fine].entries:
                    if e not in seen:
                        seen.add(e)
                        entries.append(e)
        return tuple(entries)

    def test_coarse_unions_match_reference(self):
        registry = phicon.builtin_registry(seed=3)
        for coarse in ("NAME", "LOCATION", "DATE", "CONTACT"):
            union = phicon.registry_resolve(registry, coarse)
            assert union.phi_type == coarse
            assert union.entries == self._reference_union(registry, coarse)

    def test_coarse_unions_of_a_partial_registry(self):
        full = phicon.builtin_registry(seed=3).by_fine
        registry = phicon.LexiconRegistry({
            fine: full[fine] for fine in ("Zip", "Username", "Hospital",
                                          "MedicalRecord")})
        for coarse in ("NAME", "LOCATION"):
            union = phicon.registry_resolve(registry, coarse)
            assert union.entries == self._reference_union(registry, coarse)
        assert phicon.registry_resolve(registry, "NAME").entries == (
            full["Username"].entries)
        # no fine type of DATE or CONTACT is registered, and ID has only
        # its MedicalRecord half, which the coarse name does not reach
        for name in ("DATE", "CONTACT", "ID"):
            with pytest.raises(LexiconError, match="no lexicon registered"):
                phicon.registry_resolve(registry, name)

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

    @pytest.mark.parametrize("by_fine,message", [
        ({"Bogus": phicon.Lexicon("Bogus", ("x",))},
         "'Bogus' is not a fine PHI type"),
        ({"NAME": phicon.Lexicon("NAME", ("Ann",))},
         "'NAME' is not a fine PHI type"),
        ({"Zip": phicon.Lexicon("Phone", ("555-0100",))},
         "lexicon for Phone registered under Zip"),
    ], ids=["unknown", "coarse", "wrong-type"])
    def test_bad_key_rejected(self, by_fine, message):
        with pytest.raises(LexiconError) as err:
            phicon.LexiconRegistry(by_fine)
        assert str(err.value) == message

    def test_empty_registry_constructs(self):
        registry = phicon.LexiconRegistry({})
        assert registry == phicon.LexiconRegistry({})
        assert "_resolved" not in repr(registry)
