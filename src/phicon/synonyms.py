"""Synonym and part-of-speech lookup backing context augmentation.

Two providers are supported: the WordNet 3.x on-disk database layout
(index.noun/data.noun and friends) and a flat TSV fallback
(`lemma<TAB>pos<TAB>syn1,syn2,...`) so tests and small deployments need no
WordNet distribution. All lemmas are lowercased and multiword lemmas are
space-joined.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field

from .errors import ParseError


class PosTag(enum.Enum):
    NOUN = "noun"
    VERB = "verb"
    ADJECTIVE = "adjective"
    ADVERB = "adverb"


_POS_ALIASES = {
    "noun": PosTag.NOUN, "n": PosTag.NOUN,
    "verb": PosTag.VERB, "v": PosTag.VERB,
    "adjective": PosTag.ADJECTIVE, "adj": PosTag.ADJECTIVE,
    "a": PosTag.ADJECTIVE, "s": PosTag.ADJECTIVE,  # s = adjective satellite
    "adverb": PosTag.ADVERB, "adv": PosTag.ADVERB, "r": PosTag.ADVERB,
}

# The usual English function-word list (NLTK's + a few clinical-note extras).
STOPWORDS = frozenset("""
i me my myself we our ours ourselves you you're you've you'll you'd your
yours yourself yourselves he him his himself she she's her hers herself it
it's its itself they them their theirs themselves what which who whom this
that that'll these those am is are was were be been being have has had
having do does did doing a an the and but if or because as until while of
at by for with about against between into through during before after
above below to from up down in out on off over under again further then
once here there when where why how all any both each few more most other
some such no nor not only own same so than too very s t can will just don
don't should should've now d ll m o re ve y ain aren aren't couldn
couldn't didn didn't doesn doesn't hadn hadn't hasn hasn't haven haven't
isn isn't ma mightn mightn't mustn mustn't needn needn't shan shan't
shouldn shouldn't wasn wasn't weren weren't won won't wouldn wouldn't
""".split())


@dataclass(frozen=True)
class SynonymProvider:
    index: dict  # (lemma, PosTag) -> frozenset of synonym lemmas
    pos_index: dict  # lemma -> frozenset of PosTag
    stopwords: frozenset = STOPWORDS

    def pos_pool(self, pos: PosTag) -> tuple[str, ...]:
        """All non-stopword lemmas carrying the given POS, sorted."""
        return tuple(sorted(
            lemma for lemma, tags in self.pos_index.items()
            if pos in tags and lemma not in self.stopwords))


def _normalize(lemma: str) -> str:
    return lemma.replace("_", " ").lower()


def _build(index: dict, stopwords=STOPWORDS) -> SynonymProvider:
    pos_index: dict[str, set] = {}
    frozen = {}
    for (lemma, pos), syns in index.items():
        frozen[(lemma, pos)] = frozenset(s for s in syns if s != lemma)
        pos_index.setdefault(lemma, set()).add(pos)
    return SynonymProvider(
        frozen, {w: frozenset(p) for w, p in pos_index.items()}, stopwords)


# ---------------------------------------------------------------------------
# WNDB loader

_WNDB_FILES = {
    PosTag.NOUN: ("index.noun", "data.noun"),
    PosTag.VERB: ("index.verb", "data.verb"),
    PosTag.ADJECTIVE: ("index.adj", "data.adj"),
    PosTag.ADVERB: ("index.adv", "data.adv"),
}


def _strip_marker(word: str) -> str:
    # Adjective entries may carry syntactic markers like "quick(a)".
    if word.endswith(")") and "(" in word:
        word = word[:word.index("(")]
    return word


def _parse_data_file(path) -> dict[str, list[str]]:
    """WNDB data file -> synset offset -> member lemmas."""
    synsets: dict[str, list[str]] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if line.startswith(" ") or not line.strip():
                continue  # license header
            fields = line.rstrip("\n").split(" ")
            try:
                offset = fields[0]
                int(offset)
                w_cnt = int(fields[3], 16)
                words = [
                    _normalize(_strip_marker(fields[4 + 2 * i]))
                    for i in range(w_cnt)
                ]
            except (IndexError, ValueError):
                raise ParseError("malformed WNDB data line",
                                 str(path), lineno) from None
            synsets[offset] = words
    return synsets


def _parse_index_file(path) -> dict[str, list[str]]:
    """WNDB index file -> lemma -> synset offsets."""
    lemmas: dict[str, list[str]] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if line.startswith(" ") or not line.strip():
                continue
            fields = line.rstrip("\n").split(" ")
            # lemma pos synset_cnt p_cnt [ptr...] sense_cnt tagsense_cnt offsets...
            try:
                lemma = _normalize(fields[0])
                synset_cnt = int(fields[2])
                p_cnt = int(fields[3])
                tail = [x for x in fields[4 + p_cnt:] if x]
                offsets = tail[2:2 + synset_cnt]
                if len(offsets) != synset_cnt:
                    raise ValueError
                for off in offsets:
                    int(off)
            except (IndexError, ValueError):
                raise ParseError("malformed WNDB index line",
                                 str(path), lineno) from None
            lemmas[lemma] = offsets
    return lemmas


def load_wndb(directory, stopwords=STOPWORDS) -> SynonymProvider:
    """Build a provider from a WordNet 3.x database directory.

    Synonyms of a lemma are the union of co-members of all its synsets,
    minus the lemma itself.
    """
    index: dict[tuple[str, PosTag], set] = {}
    for pos, (index_name, data_name) in _WNDB_FILES.items():
        index_path = os.path.join(directory, index_name)
        data_path = os.path.join(directory, data_name)
        if not os.path.exists(index_path) or not os.path.exists(data_path):
            raise FileNotFoundError(
                f"WNDB files {index_name}/{data_name} not found in {directory}")
        synsets = _parse_data_file(data_path)
        for lemma, offsets in _parse_index_file(index_path).items():
            syns = index.setdefault((lemma, pos), set())
            for off in offsets:
                members = synsets.get(off)
                if members is None:
                    raise ParseError(
                        f"index references missing synset {off}", index_path)
                syns.update(members)
    return _build(index, stopwords)


# ---------------------------------------------------------------------------
# TSV fallback

def load_tsv(path, stopwords=STOPWORDS) -> SynonymProvider:
    """Flat-file provider: `lemma<TAB>pos<TAB>syn1,syn2,...` per line.

    Repeated (lemma, pos) lines merge by set union; blank lines and lines
    starting with '#' are skipped.
    """
    index: dict[tuple[str, PosTag], set] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) == 2:
                parts.append("")  # lemma with POS but no synonyms
            if len(parts) != 3:
                raise ParseError("expected 3 tab-separated columns",
                                 str(path), lineno)
            lemma, rawpos, rawsyns = parts
            pos = _POS_ALIASES.get(rawpos.strip().lower())
            if pos is None:
                raise ParseError(f"bad POS tag {rawpos!r}", str(path), lineno)
            lemma = _normalize(lemma.strip())
            syns = {_normalize(s.strip()) for s in rawsyns.split(",") if s.strip()}
            index.setdefault((lemma, pos), set()).update(syns)
    return _build(index, stopwords)


# ---------------------------------------------------------------------------
# Lookup API

def is_stopword(provider: SynonymProvider, word: str) -> bool:
    return word.lower() in provider.stopwords


def lookup_synonyms(provider: SynonymProvider, word: str,
                    pos: PosTag) -> list[str]:
    """Lowercased synonyms of the case-folded word, lexicographic order."""
    return sorted(provider.index.get((word.lower(), pos), ()))


def lookup_pos(provider: SynonymProvider, word: str) -> frozenset:
    """POS tags the case-folded word carries; stopwords are masked to {}."""
    w = word.lower()
    if w in provider.stopwords:
        return frozenset()
    return provider.pos_index.get(w, frozenset())

