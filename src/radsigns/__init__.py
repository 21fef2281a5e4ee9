"""Character-level CRF tagging and dictionary chunk matching for structured
findings in Chinese radiology report sentences."""

__version__ = "0.8.0"

from types import ModuleType as _ModuleType

from .corpus import (
    ENTITY_KINDS,
    NUM_TAGS,
    RELATION_KINDS,
    TAG_LABELS,
    CorpusFormatError,
    Entity,
    FlatCorpus,
    RecordLines,
    Relation,
    SecondaryPartDictionary,
    read_dictionary,
    read_tagged_flat,
    write_tagged_flat,
)
from .crf import (
    TaggerModel,
    batch_log_partition,
    batch_nll_and_gradient,
    decoding_transitions,
    load_model,
    save_model,
    viterbi,
)
from .encoder import FeatureVocabulary, score_ids, text_feature_ids
from .evaluation import (
    ConfusionMatrix,
    ErrorRecord,
    PrfBreakdown,
    PrfScores,
    agreement_f1,
    classify_errors,
    entity_prf,
    relation_prf,
)
from .tag2relation import match_arrays
from .tagscheme import batch_entities, text_runs
from .trainer import TrainConfig, TrainReport, train

# every public name imported above, and nothing else
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
