"""Conversions between entity spans and per-character BIO tag paths.

Entities are decoded from tag index paths, the lists of indices into
``TAG_LABELS`` that Viterbi returns; label sequences go through them too.

Decoding is total: any tag sequence over the 7-tag vocabulary yields a valid
entity set.  An I-X with no live run of the same kind opens a new entity
(orphan-I repair), and a kind switch inside a run starts a new entity at the
switch position.
"""

from __future__ import annotations

from typing import Sequence

from .corpus import NUM_TAGS, TAG_LABELS, Entity, Sentence, TagSequence

TAG_INDEX = {label: i for i, label in enumerate(TAG_LABELS)}

# entity kind of each tag index; None for O
_KIND_OF_INDEX = tuple(label[2:] or None for label in TAG_LABELS)


def tag_indices(tags: TagSequence) -> list[int]:
    return [TAG_INDEX[t] for t in tags.tags]


def tags_from_indices(sentence_id: str, indices: Sequence[int]) -> TagSequence:
    labels = []
    for i in indices:
        if not 0 <= i < NUM_TAGS:
            raise ValueError(f"tag index {i} out of range")
        labels.append(TAG_LABELS[i])
    return TagSequence(sentence_id, tuple(labels))


def entities_to_tags(sentence: Sentence, entities: Sequence[Entity]) -> TagSequence:
    """Encode non-overlapping entities: first char B-kind, the rest I-kind."""
    n = len(sentence)
    labels = ["O"] * n
    prev_end = 0
    prev = None
    for entity in sorted(entities, key=lambda e: (e.start, e.end)):
        if entity.end > n:
            raise ValueError(
                f"entity [{entity.start}, {entity.end}) exceeds sentence "
                f"{sentence.id!r} of length {n}"
            )
        if entity.start < prev_end:
            raise ValueError(f"entities overlap: {prev} and {entity}")
        if entity.text != sentence.text[entity.start:entity.end]:
            raise ValueError(
                f"entity text {entity.text!r} does not match sentence "
                f"{sentence.id!r} at [{entity.start}, {entity.end})"
            )
        labels[entity.start] = "B-" + entity.kind
        for i in range(entity.start + 1, entity.end):
            labels[i] = "I-" + entity.kind
        prev_end = entity.end
        prev = entity
    return TagSequence(sentence.id, tuple(labels))


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
    text = sentence.text
    entities: list[Entity] = []
    kind, start = None, 0
    for i, index in enumerate(indices):
        if not 0 <= index < NUM_TAGS:
            raise ValueError(f"tag index {index} out of range")
        if index & 1 or _KIND_OF_INDEX[index] != kind:   # B tags have odd indices
            if kind is not None:
                entities.append(Entity(kind, start, i, text[start:i]))
            kind, start = _KIND_OF_INDEX[index], i
    if kind is not None:
        entities.append(Entity(kind, start, n, text[start:n]))
    return entities


def tags_to_entities(sentence: Sentence, tags: TagSequence) -> list[Entity]:
    """:func:`entities_from_indices` of a label sequence."""
    return entities_from_indices(sentence, tag_indices(tags))


def validate_path(tags: TagSequence) -> list[int]:
    """Indices whose I-X tag follows neither B-X nor I-X of the same kind."""
    violations = []
    for i, label in enumerate(tags.tags):
        if not label.startswith("I-"):
            continue
        begin = "B-" + label[2:]
        if i == 0 or tags.tags[i - 1] not in (begin, label):
            violations.append(i)
    return violations
