import hashlib

import pytest

import phicon
from phicon.corpus import (
    Corpus, Document, Label, O, Sentence, Token, validate_bio,
)
from phicon.errors import PhiconError
from phicon.synthgen import SiteProfile, builtin_profiles, generate_corpus


@pytest.fixture(scope="module")
def profiles():
    return builtin_profiles()


class TestBuiltinProfiles:
    def test_curated_pools_disjoint(self, profiles):
        a, b = profiles
        shared_types = set(a.entity_pools) & set(b.entity_pools)
        assert shared_types  # same schema, different words
        for t in shared_types:
            overlap = set(a.entity_pools[t]) & set(b.entity_pools[t])
            assert not overlap, f"{t} pools overlap: {overlap}"

    def test_edits_do_not_leak_into_later_calls(self):
        # Every call used to share the module's filler and format dicts.
        a, _ = builtin_profiles()
        for pools in (a.entity_pools, a.format_preferences, a.filler_pools):
            pools.clear()
        fresh, _ = builtin_profiles()
        assert fresh.entity_pools and fresh.format_preferences
        assert fresh.filler_pools

    def test_filler_pools_disjoint(self, profiles):
        a, b = profiles
        for slot in set(a.filler_pools) & set(b.filler_pools):
            # numeric vitals may collide; the lexical fillers must not
            if any(c.isalpha() for v in a.filler_pools[slot] for c in v):
                assert not (set(a.filler_pools[slot]) &
                            set(b.filler_pools[slot])), slot

    def test_template_overlap_at_most_20_percent(self, profiles):
        a, b = profiles
        shared = set(a.template_pool) & set(b.template_pool)
        assert len(shared) / len(a.template_pool) <= 0.2
        assert len(shared) / len(b.template_pool) <= 0.2

    def test_format_preferences_differ(self, profiles):
        a, b = profiles
        assert a.format_preferences["Date"] != b.format_preferences["Date"]
        assert a.format_preferences["Phone"] != b.format_preferences["Phone"]


class TestGenerateCorpus:
    def test_shape(self, profiles):
        corpus = generate_corpus(profiles[0], 10, (3, 6), seed=1)
        assert len(corpus.documents) == 10
        assert corpus.documents[0].id == "SiteA-0000"
        for doc in corpus.documents:
            assert 3 <= len(doc.sentences) <= 6

    def test_deterministic(self, profiles):
        a = generate_corpus(profiles[1], 5, (3, 6), seed=7)
        b = generate_corpus(profiles[1], 5, (3, 6), seed=7)
        assert a == b

    def test_seed_changes_output(self, profiles):
        a = generate_corpus(profiles[0], 5, (3, 6), seed=1)
        b = generate_corpus(profiles[0], 5, (3, 6), seed=2)
        assert a != b

    def test_every_sentence_bio_valid(self, profiles):
        for profile in profiles:
            corpus = generate_corpus(profile, 20, (5, 10), seed=3)
            for s in corpus.sentences():
                assert not validate_bio(s)

    def test_all_coarse_categories_covered(self, profiles):
        tax = phicon.DEFAULT_TAXONOMY
        for profile in profiles:
            corpus = generate_corpus(profile, 50, (8, 15), seed=4)
            seen = set()
            for s in corpus.sentences():
                for span in phicon.extract_entities(s):
                    seen.add(tax.coarse_of[span.phi_type])
            assert seen == {"NAME", "LOCATION", "DATE", "ID", "CONTACT"}

    def test_phi_density_within_30_percent(self, profiles):
        for profile in profiles:
            corpus = generate_corpus(profile, 100, (8, 15), seed=5)
            sents = list(corpus.sentences())
            spans = sum(len(phicon.extract_entities(s)) for s in sents)
            rate = spans / len(sents)
            # each "<Type>" slot of a template is one span
            templates = profile.template_pool
            density = sum(t.count("<") for t in templates) / len(templates)
            assert abs(rate - density) <= 0.3 * density

    def test_entities_come_from_site_pools(self, profiles):
        a = profiles[0]
        corpus = generate_corpus(a, 30, (8, 15), seed=6)
        curated = {t: set(pool) for t, pool in a.entity_pools.items()}
        for s in corpus.sentences():
            for span in phicon.extract_entities(s):
                if span.phi_type in curated:
                    assert span.surface in curated[span.phi_type]

    def test_one_token_per_distinct_token(self, profiles):
        for profile in profiles:
            corpus = generate_corpus(profile, 20, (5, 10), seed=3)
            tokens = [t for s in corpus.sentences() for t in s.tokens]
            assert len({id(t) for t in tokens}) == \
                len({(t.text, str(t.label)) for t in tokens}) < len(tokens)
            assert len({id(t.label) for t in tokens}) == \
                len({str(t.label) for t in tokens})

    def test_matches_per_token_reference(self, profiles):
        for profile in profiles:
            corpus = generate_corpus(profile, 20, (5, 10), seed=3)
            assert corpus == _per_token_reference(corpus)

    @pytest.mark.parametrize("site, seed, fine_sha, coarse_sha", [
        (0, 11, "ca9e0d9d954e305f7dcaa91508d53f7f49d79645f600094d899b688cb2392c13",
         "96ce8dfba6053e722d8eb663d8cb487272d8c65d840c429233cb2cae41d5fc6a"),
        (1, 22, "426969c722b5c424fd3971b6aff63acc67e620b820434b9c780d7ef52fcf197f",
         "e22558934452a39cd61b4537ddc0ce19066025dc29afffb827604ff446504b05"),
    ], ids=["SiteA", "SiteB"])
    def test_pinned_bytes(self, profiles, site, seed, fine_sha, coarse_sha):
        # The acceptance-scale sites; the coarse bytes are the README CLI
        # quick start's site_a.conll and site_b.conll.
        fine = generate_corpus(profiles[site], 200, (8, 15), seed=seed)
        for corpus, sha in ((fine, fine_sha),
                            (phicon.map_to_coarse(fine), coarse_sha)):
            text = phicon.serialize_conll(corpus)
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha

    def test_bad_arguments(self, profiles):
        with pytest.raises(PhiconError):
            generate_corpus(profiles[0], 0)
        with pytest.raises(PhiconError):
            generate_corpus(profiles[0], 1, (5, 3))


def _per_token_reference(corpus: Corpus) -> Corpus:
    """corpus rebuilt from each sentence's texts and entity spans with a
    fresh Token and Label per token."""
    docs = []
    for doc in corpus.documents:
        sents = []
        for s in doc.sentences:
            labels = [O] * len(s)
            for span in phicon.extract_entities(s):
                labels[span.start] = Label("B", span.phi_type)
                for i in range(span.start + 1, span.end):
                    labels[i] = Label("I", span.phi_type)
            sents.append(Sentence(tuple(
                Token(t.text, lab) for t, lab in zip(s.tokens, labels))))
        docs.append(Document(doc.id, tuple(sents)))
    return Corpus(tuple(docs))


@pytest.mark.parametrize("template,message", [
    ("a [meds] b", "no filler pool for slot [meds] in template 'a [meds] b'"),
    ("a <Patient> b",
     "no pool or generator for slot <Patient> in template 'a <Patient> b'"),
    ("a <Zip> b",  # generator-backed, but no format preference
     "no pool or generator for slot <Zip> in template 'a <Zip> b'"),
], ids=["filler", "curated", "generated"])
def test_slot_without_pool_rejected(template, message):
    profile = SiteProfile("S", (template,), {}, {})
    with pytest.raises(PhiconError) as err:
        generate_corpus(profile, 1, (1, 1), seed=0)
    assert str(err.value) == message
