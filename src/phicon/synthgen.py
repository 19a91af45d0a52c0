"""Deterministic generator of two distribution-shifted synthetic "sites".

SiteA and SiteB emulate a cross-dataset generalization gap: disjoint
name/location vocabularies, mostly different sentence templates, and
different identifier surface formats. A tagger trained on one site should
do markedly worse on the other, which is exactly the failure mode the
augmentation pipeline is meant to repair.

The corpora are nonsense clinically; only their label structure matters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import Corpus, Document, Sentence, EntitySpan, _relabel
from .errors import PhiconError
from .lexicon import DEFAULT_GENERATOR_SPECS, render_pattern
from .rng import RandomStream, derive_seed


@dataclass(frozen=True)
class SiteProfile:
    name: str
    template_pool: tuple[str, ...]  # "<Type>" tokens are typed PHI slots
    entity_pools: dict[str, tuple[str, ...]]  # fine type -> curated pool
    format_preferences: dict[str, tuple[float, ...]]  # type -> pattern weights
    # "[name]" tokens are non-PHI filler slots (meds, vitals, lab panels);
    # they keep capitalized words and digit strings from being a giveaway.
    filler_pools: dict[str, tuple[str, ...]] = field(default_factory=dict)


def _numeric_pool(pattern: str, count: int, tag: int) -> tuple[str, ...]:
    rng = RandomStream(derive_seed(0xF111E7, tag))
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < count:
        v = render_pattern(pattern, rng)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return tuple(out)


_SITE_A_TEMPLATES = (
    "Pt <Patient> seen by Dr. <Doctor> on <Date> .",
    "Admitted to <Hospital> on <Date> for observation .",
    "Please call <Phone> to confirm the visit .",
    "MRN <MedicalRecord> was verified at intake .",
    "He lives in <Location> near the clinic .",
    "Zip code <Zip> entered on file .",
    "Referred to <Organization> for further care .",
    "Record ID <ID> assigned by Dr. <Doctor> .",
    "User <Username> signed the note on <Date> .",
    "Dr. <Doctor> reviewed labs for <Patient> .",
    "Follow up at <Hospital> scheduled for <Date> .",
    "Patient reports feeling well today .",
    "Vitals stable and labs unremarkable .",
    "<Patient> was discharged home on <Date> .",
    "Contact number <Phone> noted in chart .",
    "BP [bp] and pulse [pulse] noted .",
    "Given [med] [dose] mg for pain .",
    "[panel] and [panel] ordered stat .",
    "Weight [weight] kg at triage .",
    "Takes [med] each morning .",
)

_SITE_B_TEMPLATES = (
    "Patient <Patient> was evaluated by Dr. <Doctor> during the visit on <Date> .",
    "Transfer to <Hospital> arranged on <Date> .",
    "Best contact <Phone> for scheduling .",
    "MRN <MedicalRecord> confirmed by registration .",
    "Resident of <Location> for ten years .",
    "Mailing zip <Zip> updated today .",
    "Care coordinated with <Organization> this week .",
    "Case ID <ID> opened by Dr. <Doctor> .",
    "Account <Username> edited the summary on <Date> .",
    "Dr. <Doctor> discussed results with <Patient> .",
    "Return visit to <Hospital> planned for <Date> .",
    "No acute distress noted on exam .",
    "Vitals stable and labs unremarkable .",
    "<Patient> was discharged home on <Date> .",
    "Phone <Phone> listed as primary .",
    "BP [bp] with pulse [pulse] recorded .",
    "Takes [med] [dose] mg nightly .",
    "[panel] and [panel] reviewed overnight .",
    "Height [height] cm on admission .",
    "Continues [med] without issue .",
)

_SITE_A_POOLS = {
    "Patient": ("Walter", "Gregory", "Pamela", "Howard", "Denise", "Marcus",
                "Yvonne", "Cedric", "Louise", "Franklin", "Gwen", "Harvey",
                "Ingrid", "Jasper", "Kendra", "Leonard", "Mabel", "Norton",
                "Opal", "Percy"),
    "Doctor": ("Whitfield", "Granger", "Pemberton", "Holloway", "Darby",
               "Mercer", "Yates", "Caldwell", "Lockhart", "Fairbanks",
               "Grimshaw", "Hathaway", "Irons", "Jardine", "Kingsley",
               "Lowell", "Marchetti", "Norwood", "Ogilvie", "Prescott"),
    "Hospital": ("Ridgeway Medical Center", "Lakeside General Hospital",
                 "Summit Care Pavilion", "Birchwood Memorial Hospital",
                 "Harborview Clinic", "Stonebrook Medical Center",
                 "Cedar Falls Infirmary", "Westgate General Hospital",
                 "Maple Grove Clinic", "Fairmont Memorial Hospital"),
    "Location": ("Brookfield", "Ashland", "Corvina", "Deerfield", "Eastport",
                 "Fallbrook", "Glenville", "Hartley", "Inverness", "Jackson Heights",
                 "Kirkwood", "Larkspur", "Millbrae", "Northfield"),
    "Organization": ("Ridgeway Health Partners", "Lakeside Rehab Services",
                     "Summit Home Care", "Birchwood Hospice Group",
                     "Harborview Dialysis Network", "Stonebrook Imaging Associates",
                     "Cedar Falls Wellness Trust", "Westgate Cardiology Group"),
}

_SITE_B_POOLS = {
    "Patient": ("Quentin", "Rosalind", "Sterling", "Tabitha", "Ulysses",
                "Vivienne", "Wendell", "Ximena", "Yosef", "Zelda", "Ambrose",
                "Beatrix", "Cornelius", "Dorothea", "Emmett", "Fiona",
                "Gideon", "Henrietta", "Isidore", "Josephine"),
    "Doctor": ("Quimby", "Ravenscroft", "Steinbeck", "Thornbury", "Underhill",
               "Vanderberg", "Winslow", "Xiang", "Youngblood", "Zeller",
               "Abernathy", "Blackwood", "Carmichael", "Dunmore", "Eastwick",
               "Farnsworth", "Galloway", "Huxley", "Ironside", "Jessop"),
    "Hospital": ("Alaska Health Center", "Bayside Regional Hospital",
                 "Crestline Medical Plaza", "Dunmore County Hospital",
                 "Elmhurst Treatment Center", "Foxglove Community Hospital",
                 "Granite Peak Medical Plaza", "Hollis Regional Hospital",
                 "Ivybridge Health Center", "Juniper Valley Hospital"),
    "Location": ("Oakhurst", "Pinecrest", "Quail Ridge", "Riverton", "Seabrook",
                 "Tewksbury", "Umberland", "Vandalia", "Westmont", "Yarrow",
                 "Zephyr Cove", "Alderton", "Bentonville", "Claremore"),
    "Organization": ("Bayside Wellness Collective", "Crestline Therapy Group",
                     "Dunmore Visiting Nurses", "Elmhurst Recovery Network",
                     "Foxglove Home Health", "Granite Peak Orthopedics",
                     "Hollis Infusion Services", "Ivybridge Behavioral Group"),
}

_SITE_A_FILLERS = {
    "med": ("Tylenol", "Metformin", "Lipitor", "Zestril", "Coumadin",
            "Prilosec", "Ambien", "Lasix", "Motrin", "Zocor"),
    "panel": ("CBC", "BMP", "TSH", "A1C", "LFTs", "UA"),
    "bp": _numeric_pool(r"\d{2,3}/\d{2}", 40, 1),
    "pulse": _numeric_pool(r"\d{2}", 30, 2),
    "dose": _numeric_pool(r"\d{2,3}", 40, 3),
    "weight": _numeric_pool(r"\d{2,3}", 40, 4),
}

_SITE_B_FILLERS = {
    "med": ("Advil", "Plavix", "Crestor", "Norvasc", "Xanax", "Keflex",
            "Zoloft", "Protonix", "Flomax", "Celebrex"),
    "panel": ("EKG", "CXR", "CMP", "ESR", "PTT", "BNP"),
    "bp": _numeric_pool(r"\d{2,3}/\d{2}", 40, 5),
    "pulse": _numeric_pool(r"\d{2}", 30, 6),
    "dose": _numeric_pool(r"\d{2,3}", 40, 7),
    "height": _numeric_pool(r"\d{3}", 40, 8),
}

# Pattern weights are aligned with DEFAULT_GENERATOR_SPECS pattern order.
_SITE_A_FORMATS = {
    "Date": (0.9, 0.1, 0.0, 0.0),       # (MM/DD/YYYY, YYYY-MM-DD, M/D/YY, MonthName)
    "Phone": (1.0, 0.0, 0.0),           # ((ddd) ddd-dddd, ddd-ddd-dddd, ddd.ddd.dddd)
    "ID": (0.8, 0.2),                   # (AAdddddd, d{5,8})
    "MedicalRecord": (1.0, 0.0),        # (ddddddd, ddd-dd-dd)
    "Zip": (1.0,),
    "Username": (1.0,),
}

_SITE_B_FORMATS = {
    "Date": (0.0, 0.0, 0.3, 0.7),
    "Phone": (0.0, 0.3, 0.7),
    "ID": (0.2, 0.8),
    "MedicalRecord": (0.0, 1.0),
    "Zip": (1.0,),
    "Username": (1.0,),
}


def builtin_profiles() -> tuple[SiteProfile, SiteProfile]:
    """The shipped SiteA and SiteB profiles.

    Disjoint name/location/medication vocabularies, <= 20% template overlap,
    and different identifier format preferences. Each call returns fresh
    dicts, so editing a profile leaves the next call's profiles as shipped.
    """
    return (
        SiteProfile("SiteA", _SITE_A_TEMPLATES, dict(_SITE_A_POOLS),
                    dict(_SITE_A_FORMATS), dict(_SITE_A_FILLERS)),
        SiteProfile("SiteB", _SITE_B_TEMPLATES, dict(_SITE_B_POOLS),
                    dict(_SITE_B_FORMATS), dict(_SITE_B_FILLERS)),
    )


def _fill_template(template: str, profile: SiteProfile,
                   rng: RandomStream, table: dict) -> Sentence:
    texts: list[str] = []
    spans: list[EntitySpan] = []
    for word in template.split(" "):
        if word.startswith("[") and word.endswith("]"):
            pool = profile.filler_pools.get(word[1:-1])
            if pool is None:
                raise PhiconError(
                    f"no filler pool for slot {word} in template {template!r}")
            texts.extend(rng.choice(pool).split(" "))
            continue
        if not (word.startswith("<") and word.endswith(">")):
            texts.append(word)
            continue
        phi_type = word[1:-1]
        pool = profile.entity_pools.get(phi_type)
        if pool is not None:
            entity = rng.choice(pool)
        else:
            spec = DEFAULT_GENERATOR_SPECS.get(phi_type)
            weights = profile.format_preferences.get(phi_type)
            if spec is None or weights is None:
                raise PhiconError(
                    f"no pool or generator for slot <{phi_type}> "
                    f"in template {template!r}")
            pattern = rng.weighted_choice(spec.patterns, weights)
            entity = render_pattern(pattern, rng)
        words = entity.split(" ")
        spans.append(EntitySpan(len(texts), len(texts) + len(words),
                                phi_type, entity))
        texts.extend(words)
    return _relabel(texts, spans, table)


def generate_corpus(profile: SiteProfile, n_documents: int,
                    sentences_per_doc: tuple[int, int] = (8, 15),
                    seed: int = 0) -> Corpus:
    """A corpus of templated fake notes, deterministic in all arguments.
    Equal tokens in it are one Token, and equal labels one Label."""
    if n_documents < 1:
        raise PhiconError("n_documents must be >= 1")
    lo, hi = sentences_per_doc
    if not 1 <= lo <= hi:
        raise PhiconError("bad sentences_per_doc range")
    documents = []
    table: dict = {}  # shared tokens and labels, see corpus._shared_token
    for di in range(n_documents):
        doc_rng = RandomStream(derive_seed(seed, di))
        n_sents = lo + doc_rng.randrange(hi - lo + 1)
        sentences = []
        for si in range(n_sents):
            rng = RandomStream(derive_seed(seed, di, si))
            template = rng.choice(profile.template_pool)
            sentences.append(_fill_template(template, profile, rng, table))
        documents.append(
            Document(f"{profile.name}-{di:04d}", tuple(sentences)))
    return Corpus(tuple(documents))
