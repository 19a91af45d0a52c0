"""Typed candidate-entity pools for PHI augmentation.

Curated types (names, hospitals, locations, organizations) are loaded from
one-entry-per-line files; identifier-like types (zip, phone, date, id,
username, medical record) are generated from pattern templates.

Pattern templates come in two flavors:
  * a restricted regex subset -- literals plus `\\d`, `[A-Z]`, `[a-z]`,
    `[0-9]` with `{n}` / `{m,n}` quantifiers; `(`, `)`, `.`, `-`, space are
    literal characters;
  * date templates `MM/DD/YYYY`, `YYYY-MM-DD`, `M/D/YY`, `MonthName D, YYYY`
    which produce calendar-valid dates with years in [1950, 2020].
"""

from __future__ import annotations

import calendar
import functools
import re
from dataclasses import dataclass, field

from .errors import ExhaustionError, LexiconError
from .corpus import DEFAULT_TAXONOMY, PhiTaxonomy
from .rng import RandomStream


@dataclass(frozen=True)
class Lexicon:
    phi_type: str
    entries: tuple[str, ...]

    def __post_init__(self):
        seen = set()
        for e in self.entries:
            if not e or "\t" in e or "\n" in e:
                raise ValueError(f"bad lexicon entry {e!r}")
            if e in seen:
                raise ValueError(f"duplicate lexicon entry {e!r}")
            seen.add(e)

    def __len__(self) -> int:
        return len(self.entries)


def load_lexicon(path, phi_type: str) -> Lexicon:
    """Load one entry per line; trims whitespace, skips blanks, dedups
    keeping first occurrence."""
    entries: list[str] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as f:
        for line in f:
            entry = " ".join(line.split())
            if entry and entry not in seen:
                seen.add(entry)
                entries.append(entry)
    if not entries:
        raise LexiconError(f"empty lexicon: no usable entries in {path}")
    return Lexicon(phi_type, tuple(entries))


def sample_entity(lexicon: Lexicon, rng: RandomStream,
                  avoid: str | None = None) -> str:
    """Uniform draw from the lexicon.

    When `avoid` is given and the pool has at least two entries, a single
    resample is attempted if the first draw equals `avoid`; the second draw
    is returned unconditionally so cost stays constant.
    """
    if not lexicon.entries:
        raise LexiconError(f"lexicon for {lexicon.phi_type} is empty")
    pick = rng.choice(lexicon.entries)
    if avoid is not None and pick == avoid and len(lexicon.entries) >= 2:
        pick = rng.choice(lexicon.entries)
    return pick


# ---------------------------------------------------------------------------
# Pattern-based generation

_MONTHS = ("January", "February", "March", "April", "May", "June", "July",
           "August", "September", "October", "November", "December")

_YEARS = (1950, 2020)

# Date template -> (verifier regex, formatter of year, month, day).
_DATES = {
    "MM/DD/YYYY": (r"\d{2}/\d{2}/\d{4}",
                   lambda y, m, d: f"{m:02d}/{d:02d}/{y:04d}"),
    "YYYY-MM-DD": (r"\d{4}-\d{2}-\d{2}",
                   lambda y, m, d: f"{y:04d}-{m:02d}-{d:02d}"),
    "M/D/YY": (r"\d{1,2}/\d{1,2}/\d{2}",
               lambda y, m, d: f"{m}/{d}/{y % 100:02d}"),
    "MonthName D, YYYY": ("(?:" + "|".join(_MONTHS) + r") \d{1,2}, \d{4}",
                          lambda y, m, d: f"{_MONTHS[m - 1]} {d}, {y}"),
}

# Every date template writes each calendar day in _YEARS differently.
_DAYS = sum(366 if calendar.isleap(y) else 365
            for y in range(_YEARS[0], _YEARS[1] + 1))

_CLASSES = {r"\d": "0123456789", "[0-9]": "0123456789",
            "[A-Z]": "ABCDEFGHIJKLMNOPQRSTUVWXYZ",
            "[a-z]": "abcdefghijklmnopqrstuvwxyz"}

_ATOM = re.compile(
    r"(\\d|\[A-Z\]|\[a-z\]|\[0-9\])(?:\{(\d+)(?:,(\d+))?\})?|(.)", re.S)


@functools.cache
def _compile(pattern: str):
    """(render(rng), verifier, space) of a template: a function drawing one
    string, the anchored regex matching exactly the strings it can draw, and
    how many distinct strings that is."""
    if pattern in _DATES:
        regex, fmt = _DATES[pattern]

        def render(rng: RandomStream) -> str:
            year = _YEARS[0] + rng.randrange(_YEARS[1] - _YEARS[0] + 1)
            month = 1 + rng.randrange(12)
            return fmt(year, month,
                       1 + rng.randrange(calendar.monthrange(year, month)[1]))
        return render, re.compile(regex + "$"), _DAYS
    atoms = []  # literal strings and (alphabet, min_rep, max_rep)
    verifier = []
    space = 1
    for m in _ATOM.finditer(pattern):
        cls, lo, hi, lit = m.groups()
        if lit is not None:
            atoms.append(lit)
            verifier.append(re.escape(lit))
            continue
        alphabet = _CLASSES[cls]
        lo = int(lo) if lo else 1
        hi = int(hi) if hi else lo
        atoms.append((alphabet, lo, hi))
        verifier.append(cls + (f"{{{lo},{hi}}}" if hi != lo else f"{{{lo}}}"))
        space *= sum(len(alphabet) ** k for k in range(lo, hi + 1))

    def render(rng: RandomStream) -> str:
        out = []
        for atom in atoms:
            if isinstance(atom, str):
                out.append(atom)
                continue
            alphabet, lo, hi = atom
            n = lo if lo == hi else lo + rng.randrange(hi - lo + 1)
            out.extend(alphabet[rng.randrange(len(alphabet))] for _ in range(n))
        return "".join(out)
    return render, re.compile("".join(verifier) + "$"), space


@dataclass(frozen=True)
class GeneratorSpec:
    phi_type: str
    patterns: tuple[str, ...]
    weights: tuple[float, ...] = ()
    taxonomy: PhiTaxonomy = DEFAULT_TAXONOMY

    def __post_init__(self):
        if not self.patterns:
            raise ValueError("patterns must be non-empty")
        if self.phi_type not in self.taxonomy.generator_backed:
            raise ValueError(f"{self.phi_type} is not generator-backed")
        if not self.weights:
            object.__setattr__(self, "weights", (1.0,) * len(self.patterns))
        if len(self.weights) != len(self.patterns):
            raise ValueError("one weight per pattern required")
        if not all(0 < w < float("inf") for w in self.weights):
            raise ValueError("weights must be positive and finite")


DEFAULT_GENERATOR_SPECS = {
    "Zip": GeneratorSpec("Zip", (r"\d{5}",)),
    "Phone": GeneratorSpec("Phone", (r"(\d{3}) \d{3}-\d{4}",
                                     r"\d{3}-\d{3}-\d{4}",
                                     r"\d{3}.\d{3}.\d{4}")),
    "Date": GeneratorSpec("Date", ("MM/DD/YYYY", "YYYY-MM-DD", "M/D/YY",
                                   "MonthName D, YYYY")),
    "ID": GeneratorSpec("ID", (r"[A-Z]{2}\d{6}", r"\d{5,8}")),
    "MedicalRecord": GeneratorSpec("MedicalRecord", (r"\d{7}", r"\d{3}-\d{2}-\d{2}")),
    "Username": GeneratorSpec("Username", (r"[a-z]{5,8}\d{2}",)),
}

# Candidate-list sizes used when regenerating the full default pools.
DEFAULT_GENERATED_COUNTS = {
    "ID": 20_000, "Date": 32_900, "Username": 3_000,
    "Phone": 21_000, "Zip": 4_000, "MedicalRecord": 4_900,
}

_RETRY_FACTOR = 100


def render_pattern(pattern: str, rng: RandomStream) -> str:
    """One string drawn from a single pattern template."""
    return _compile(pattern)[0](rng)


def pattern_verifier(pattern: str) -> re.Pattern:
    """Anchored regex matching exactly the strings a template can emit."""
    return _compile(pattern)[1]


def generate_identifiers(spec: GeneratorSpec, count: int, seed: int) -> Lexicon:
    """Exactly `count` distinct entries drawn from the spec's patterns.

    Rejection-samples duplicates with a bounded retry budget; raises
    ExhaustionError when the pattern space cannot cover `count`.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    compiled = [_compile(pat) for pat in spec.patterns]
    total_space = sum(space for _, _, space in compiled)
    if total_space < count:
        raise ExhaustionError(
            f"{spec.phi_type}: pattern space {total_space} < requested {count}")
    renders = [render for render, _, _ in compiled]
    rng = RandomStream(seed)
    entries: list[str] = []
    seen: set[str] = set()
    budget = _RETRY_FACTOR * count
    draws = 0
    while len(entries) < count:
        if draws >= budget:
            raise ExhaustionError(
                f"{spec.phi_type}: could not produce {count} distinct entries "
                f"within {budget} draws")
        draws += 1
        value = rng.weighted_choice(renders, spec.weights)(rng)
        if value not in seen:
            seen.add(value)
            entries.append(value)
    return Lexicon(spec.phi_type, tuple(entries))


# ---------------------------------------------------------------------------
# Registry

@dataclass(frozen=True)
class LexiconRegistry:
    by_fine: dict[str, Lexicon] = field(default_factory=dict)
    taxonomy: PhiTaxonomy = DEFAULT_TAXONOMY
    # name -> Lexicon for every resolvable name, built once at construction
    _resolved: dict[str, Lexicon] = field(init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        for name, lex in self.by_fine.items():
            if name not in self.taxonomy.fine_types:
                raise LexiconError(f"{name!r} is not a fine PHI type")
            if lex.phi_type != name:
                raise LexiconError(
                    f"lexicon for {lex.phi_type} registered under {name}")
        resolved = {}
        for coarse in self.taxonomy.coarse_types:
            fines = [self.by_fine[f] for f in self.taxonomy.fines_of(coarse)
                     if f in self.by_fine]
            # "ID" is also a fine type and resolves only to that lexicon
            if fines and coarse not in self.taxonomy.fine_types:
                resolved[coarse] = Lexicon(coarse, tuple(dict.fromkeys(
                    e for lex in fines for e in lex.entries)))
        resolved.update(self.by_fine)
        object.__setattr__(self, "_resolved", resolved)


def registry_resolve(registry: LexiconRegistry, label_type: str) -> Lexicon:
    """Fine name -> its lexicon; coarse name -> deduplicated union of the
    category's registered fine lexicons, in first-seen order. The unions
    are built once, when the registry is constructed, so every call returns
    the same object. Fine names win when a name (like "ID") is both a fine
    type and a coarse category."""
    lex = registry._resolved.get(label_type)
    if lex is not None:
        return lex
    tax = registry.taxonomy
    if label_type in tax.fine_types:
        raise LexiconError(f"no lexicon registered for {label_type}")
    if label_type in tax.coarse_of.values():
        raise LexiconError(
            f"no lexicon registered for any fine type of {label_type}")
    raise LexiconError(f"unknown PHI type {label_type!r}")
