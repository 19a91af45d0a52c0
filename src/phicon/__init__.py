"""PHICON-style data augmentation toolkit for BIO-labeled de-identification
corpora, with a self-contained verification stack: synthetic two-site
corpora, an averaged-perceptron tagger, and a cross-dataset eval harness."""

from .corpus import (
    Corpus, CorpusStats, DEFAULT_TAXONOMY, Document, EntitySpan, Label,
    PhiTaxonomy, Sentence, Token, corpus_stats, extract_entities,
    map_to_coarse, parse_conll, read_conll, serialize_conll, split_corpus,
    validate_bio, write_conll,
)
from .lexicon import (
    DEFAULT_GENERATED_COUNTS, DEFAULT_GENERATOR_SPECS, GeneratorSpec,
    Lexicon, LexiconRegistry, generate_identifiers, load_lexicon,
    registry_resolve, sample_entity,
)
from .synonyms import (
    PosTag, SynonymProvider, load_tsv, load_wndb, lookup_pos,
    lookup_synonyms,
)
from .augment import (
    AugmentConfig, AugmentRecord, augment_corpus, augment_sentence,
    phi_augment, random_insert, synonym_replace,
)
from .tagger import (
    TaggerModel, featurize, load_model, predict_corpus,
    save_model, train,
)
from .evaluate import (
    EvalReport, ExperimentResult, binary_token_f1, cross_dataset_eval,
)
from .synthgen import SiteProfile, builtin_profiles, generate_corpus
from .builtin import builtin_provider, builtin_registry
from .rng import RandomStream, derive_seed
from .errors import (
    BioViolationError, ExhaustionError, LexiconError, ModelFormatError,
    ParseError, PhiconError,
)

__version__ = "0.1.0"
