"""Bundled augmentation resources: candidate pools and a synonym table.

These stand in for the web-scraped candidate lists: curated pools ship as
package data files, and the identifier-like types are generated on demand
from the default pattern specs (all surface formats, equal weight).
"""

from __future__ import annotations

from importlib import resources

from .lexicon import (
    DEFAULT_GENERATOR_SPECS, LexiconRegistry, generate_identifiers,
    load_lexicon,
)
from .synonyms import SynonymProvider, load_tsv

_POOL_FILES = {
    "Patient": "patients.txt",
    "Doctor": "doctors.txt",
    "Hospital": "hospitals.txt",
    "Location": "locations.txt",
    "Organization": "organizations.txt",
}

# Generated pool sizes for everyday use; big enough for diversity, small
# enough to build in well under a second.
DEFAULT_BUILTIN_COUNTS = {
    "ID": 2000, "Date": 2000, "Username": 1000,
    "Phone": 2000, "Zip": 2000, "MedicalRecord": 1500,
}


def _data_path(name: str):
    return resources.files("phicon.data").joinpath(name)


def builtin_provider() -> SynonymProvider:
    """The bundled synonym/POS table."""
    with resources.as_file(_data_path("synonyms.tsv")) as path:
        return load_tsv(path)


def builtin_registry(seed: int = 0,
                     lexicons: dict | None = None) -> LexiconRegistry:
    """Registry over the bundled curated pools plus generated identifiers.

    lexicons: {fine type: Lexicon}; each entry replaces the bundled or
    generated pool of its type, which is then neither loaded nor generated.
    """
    by_fine = dict.fromkeys((*_POOL_FILES, *DEFAULT_GENERATOR_SPECS))
    by_fine.update(lexicons or {})
    for phi_type, filename in _POOL_FILES.items():
        if by_fine[phi_type] is None:
            with resources.as_file(_data_path(filename)) as path:
                by_fine[phi_type] = load_lexicon(path, phi_type)
    for phi_type, spec in DEFAULT_GENERATOR_SPECS.items():
        if by_fine[phi_type] is None:
            by_fine[phi_type] = generate_identifiers(
                spec, DEFAULT_BUILTIN_COUNTS[phi_type], seed)
    return LexiconRegistry(by_fine)
