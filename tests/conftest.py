import numpy as np
import pytest

from radsigns.corpus import Entity, SecondaryPartDictionary
from radsigns.crf import decoding_transitions, viterbi
from radsigns.encoder import score_ids, text_feature_ids

# sentence: patchy dense shadows in the right upper lung, reduced from before
FIG_TEXT = "右上肺见多发斑片状密影较前减少。"
FIG_LABELS = (
    "B-P", "I-P", "I-P", "O", "B-D", "I-D",
    "B-Abn", "I-Abn", "I-Abn", "I-Abn", "I-Abn",
    "O", "O", "O", "O", "O",
)

# sentence: the right upper lung bronchus is partly occluded
OCCLUSION_TEXT = "右上肺支气管部分闭塞。"
OCCLUSION_LABELS = (
    "B-P", "I-P", "I-P", "B-P", "I-P", "I-P",
    "B-D", "I-D", "B-Abn", "I-Abn", "O",
)


def emission_triple(blocks) -> tuple[list[str], list[int], np.ndarray]:
    """The ``(ids, lengths, scores)`` that ``write_emissions`` takes, of a
    ``{sentence id: n x 7 array}`` mapping, its blocks laid end to end in order."""
    return list(blocks), [len(b) for b in blocks.values()], np.concatenate(list(blocks.values()))


def emission_dict(ids, lengths, scores) -> dict:
    """``read_emission_blocks``' ``(ids, lengths, scores)`` as a ``{sentence
    id: n x 7 array}`` dict in file order, each array a view of ``scores``."""
    return dict(zip(ids, np.split(scores, np.cumsum(lengths)[:-1])))


def decode_sentence(model, text: str, constrain_bio=True) -> bytes:
    """One sentence's Viterbi tag index path under ``model``: the flat
    library calls that ``tag`` runs, at batch size 1."""
    lengths = [len(text)]
    P = score_ids(model.weights, text_feature_ids(model.vocab, text, lengths))
    return viterbi(P, decoding_transitions(model.transitions, constrain_bio), lengths).tobytes()


@pytest.fixture
def shadow_entities():
    return [
        Entity("P", 0, 3, "右上肺"),
        Entity("D", 4, 6, "多发"),
        Entity("Abn", 6, 11, "斑片状密影"),
    ]


@pytest.fixture
def occlusion_entities():
    return [
        Entity("P", 0, 3, "右上肺"),
        Entity("P", 3, 6, "支气管"),
        Entity("D", 6, 8, "部分"),
        Entity("Abn", 8, 10, "闭塞"),
    ]


@pytest.fixture
def bronchus_dictionary():
    return SecondaryPartDictionary(frozenset({"支气管"}))
