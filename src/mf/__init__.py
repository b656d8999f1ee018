"""mf: proposition stores over dependency-parsed corpora, conceptual
metaphor generation, and dependency-link retrieval of candidate
linguistic metaphors."""

from .conllu import Sentence, Token, iter_sentences
from .engine import (SourceConcept, WeightedSource, WeightedTuple, build_cms,
                     cluster_sources, filter_sources, generate_sources,
                     rank_sources, salient_properties)
from .extraction import (DEFAULT_RULES, ExtractionRule, RuleArc,
                         extract_propositions, load_rules)
from .generalize import generalize_store
from .gold import GoldMapping, GoldReport, eval_gold, load_gold
from .lm import LMHit, expand_domain, find_lms, load_expansion_table, sample_hits
from .store import Occurrence, PatternKey, Proposition, Store, merge_stores
from .taxonomy import Taxonomy, load_taxonomy, map_noun
from .topics import TopicMatrix, load_topic_matrix

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_RULES", "ExtractionRule", "GoldMapping", "GoldReport", "LMHit",
    "Occurrence", "PatternKey", "Proposition", "RuleArc", "Sentence",
    "SourceConcept", "Store", "Taxonomy", "Token", "TopicMatrix",
    "WeightedSource", "WeightedTuple",
    "build_cms", "cluster_sources", "eval_gold", "expand_domain",
    "extract_propositions", "filter_sources", "find_lms", "generalize_store",
    "generate_sources", "iter_sentences", "load_expansion_table", "load_gold",
    "load_rules", "load_taxonomy", "load_topic_matrix", "map_noun",
    "merge_stores", "rank_sources", "salient_properties", "sample_hits",
]
