"""Conversions between entity spans and per-character BIO tag paths.

Entities are decoded from tag index paths, sequences of indices into
``TAG_LABELS``: the lists that Viterbi returns and the ``indices`` bytes
that a ``TagSequence`` stores.

Decoding is total: any tag sequence over the 7-tag vocabulary yields a valid
entity set.  An I-X with no live run of the same kind opens a new entity
(orphan-I repair), and a kind switch inside a run starts a new entity at the
switch position.
"""

from __future__ import annotations

from typing import Sequence

from .corpus import NUM_TAGS, TAG_INDEX, TAG_LABELS, Entity, Sentence, TagSequence

# entity kind of each tag index; None for O
_KIND_OF_INDEX = tuple(label[2:] or None for label in TAG_LABELS)


def tags_from_indices(sentence_id: str, indices: Sequence[int]) -> TagSequence:
    indices = list(indices)   # bytes() of a numpy array would copy its raw buffer
    if indices and not 0 <= min(indices) <= max(indices) < NUM_TAGS:
        bad = next(i for i in indices if not 0 <= i < NUM_TAGS)
        raise ValueError(f"tag index {bad} out of range")
    return TagSequence._from_indices(sentence_id, bytes(indices))


def entities_to_tags(sentence: Sentence, entities: Sequence[Entity]) -> TagSequence:
    """Encode non-overlapping entities: first char B-kind, the rest I-kind."""
    n = len(sentence)
    indices = bytearray(n)
    prev = None
    for entity in sorted(entities, key=lambda e: (e.start, e.end)):
        if entity.end > n:
            raise ValueError(
                f"entity [{entity.start}, {entity.end}) exceeds sentence "
                f"{sentence.id!r} of length {n}"
            )
        if prev is not None and entity.start < prev.end:
            raise ValueError(f"entities overlap: {prev} and {entity}")
        if entity.text != sentence.text[entity.start:entity.end]:
            raise ValueError(
                f"entity text {entity.text!r} does not match sentence "
                f"{sentence.id!r} at [{entity.start}, {entity.end})"
            )
        begin = TAG_INDEX["B-" + entity.kind]   # its I tag is begin + 1
        indices[entity.start:entity.end] = bytes([begin] + [begin + 1] * (entity.end - entity.start - 1))
        prev = entity
    return TagSequence._from_indices(sentence.id, bytes(indices))


def entities_from_indices(sentence: Sentence, indices: Sequence[int]) -> list[Entity]:
    """Decode maximal B-X (I-X)* runs of a tag index path into entities,
    sorted by start offset; repairs malformed paths as the module docstring
    says.  O tags form runs of no kind, so a run ends at every B tag and at
    every change of kind."""
    n = len(sentence)
    if len(indices) != n:
        raise ValueError(
            f"sentence {sentence.id!r} has {n} chars but tag sequence has {len(indices)}"
        )
    entities: list[Entity] = []
    kind, start = None, 0
    for i, index in enumerate(indices):
        if not 0 <= index < NUM_TAGS:
            raise ValueError(f"tag index {index} out of range")
        if index & 1 or _KIND_OF_INDEX[index] != kind:   # B tags have odd indices
            if kind is not None:
                entities.append(Entity(kind, start, i, sentence.text[start:i]))
            kind, start = _KIND_OF_INDEX[index], i
    if kind is not None:
        entities.append(Entity(kind, start, n, sentence.text[start:n]))
    return entities


def tags_to_entities(sentence: Sentence, tags: TagSequence) -> list[Entity]:
    """:func:`entities_from_indices` of a tag sequence's indices."""
    return entities_from_indices(sentence, tags.indices)


def validate_path(tags: TagSequence) -> list[int]:
    """Indices whose I-X tag follows neither B-X nor I-X of the same kind."""
    path = tags.indices   # I tags have even nonzero indices, each one above its B tag
    return [i for i, index in enumerate(path) if index and not index & 1
            and (i == 0 or path[i - 1] not in (index - 1, index))]
