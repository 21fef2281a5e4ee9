"""Entity spans decoded from per-character BIO tag paths.

Entities are decoded from tag index paths, sequences of indices into
``TAG_LABELS``: the flat ``uint8`` arrays that Viterbi returns and the
``indices`` bytes that a tagged ``FlatCorpus`` stores.  :func:`text_runs`
decodes a batch of paths, laid end to end with their texts, in one array
pass; :func:`batch_entities`, the library's decoder to ``Entity`` lists, has no command caller.

Decoding is total: any tag sequence over the 7-tag vocabulary yields a valid
entity set.  A run breaks at every sentence start, at every B tag and at
every change of kind, so an I-X with no live run of the same kind opens a
new entity (orphan-I repair), and a kind switch inside a run starts a new
entity at the switch position.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .corpus import ENTITY_KINDS, Entity, _sentence_lengths, _tag_path, _text


def text_runs(text: str, path, lengths: Sequence[int]):
    """The maximal B-X (I-X)* runs of the tag index paths of sentences laid
    end to end, their texts in ``text`` and their paths in ``path`` (a 1-D
    integer array or ``bytes``), with the given ``lengths``, in order,
    repaired as the module docstring says: int arrays ``(row, start, end,
    kind)``, the sentence's position, the span in it and an index into
    ``ENTITY_KINDS``, then the runs' texts."""
    rows, starts, ends, kinds = _run_arrays(path, lengths)
    if len(_text(text)) != len(path):
        raise ValueError(f"a text of {len(text)} chars for {len(path)} tags")
    at = np.concatenate(([0], np.cumsum(lengths, dtype=np.intp)))[rows]
    texts = [text[a:b] for a, b in zip(starts.tolist(), ends.tolist())]
    return rows, starts - at, ends - at, kinds, texts


def _run_arrays(path, lengths: Sequence[int]):
    """:func:`text_runs` without the texts, each span as flat offsets into
    the path: ``(row, start, end, kind)`` int arrays."""
    flat = _tag_path(path, "path")
    lengths = _sentence_lengths(lengths, None)
    if flat.shape != (lengths.sum(),):
        raise ValueError(f"a tag path of {flat.size} indices for {lengths.sum()} chars")
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    kind = (flat + 1) >> 1   # 0 for O, then 1 + the ENTITY_KINDS index; B tags are odd
    breaks = np.ones(flat.size + 1, bool)   # a run ends at the next break
    breaks[1:-1] = (flat[1:] & 1).astype(bool) | (kind[1:] != kind[:-1])
    breaks[offsets] = True
    bounds = np.flatnonzero(breaks)
    live = kind[bounds[:-1]] > 0   # O tags form runs of no kind
    starts, ends = bounds[:-1][live], bounds[1:][live]
    rows = np.searchsorted(offsets, starts, "right") - 1
    return rows, starts, ends, kind[starts] - 1


def batch_entities(ids: Sequence[str], text: str, path,
                   lengths: Sequence[int]) -> dict[str, list[Entity]]:
    """By sentence id, one id per sentence in ``ids``, the entities of each
    sentence's part of the flat tag index path, sorted by start; the other
    arguments are :func:`text_runs`'."""
    rows, *spans, texts = text_runs(text, path, lengths)   # checks the lengths first
    if isinstance(ids, str):
        raise ValueError(f"ids must be one id per sentence, not the str {ids!r:.60}")
    entities: list[list[Entity]] = [[] for _ in lengths]
    for row, start, end, kind, covered in zip(*(a.tolist() for a in (rows, *spans)), texts):
        entities[row].append(Entity(ENTITY_KINDS[kind], start, end, covered))
    return dict(zip(ids, entities, strict=True))
