"""Dictionary-driven chunk matching of attributes to abnormal signs.

A body part whose text is absent from the secondary-part dictionary is a
primary part.  Primary parts split the sentence into chunks: each chunk
begins at its primary's start offset and runs to the next primary's start
(a non-empty prefix before the first primary forms an unheaded chunk).
Inside a chunk:

* the primary part attaches to every sign in the chunk;
* each secondary part and each degree attaches to the single closest sign
  (gap in characters between span ends; ties go to the later sign);
* each secondary part is linked to the chunk's primary as a subdivision,
  whether or not the chunk contains a sign;
* attributes in a chunk without signs attach to nothing.

One quadruple is assembled per sign and per (secondary part, degree)
combination attached to it; empty slots stay null.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .corpus import Entity, Quadruple, Relation, SecondaryPartDictionary, Sentence


@dataclass(frozen=True)
class Chunk:
    """One matching scope: a primary-headed span (or the unheaded prefix)."""

    index: int
    start: int
    end: int
    primary: Entity | None


def find_primary_parts(
    entities: Sequence[Entity], dictionary: SecondaryPartDictionary
) -> list[Entity]:
    """P entities whose text is not a dictionary term, sorted by start."""
    return sorted(
        (e for e in entities if e.kind == "P" and e.text not in dictionary),
        key=lambda e: e.start,
    )


def chunk_sentence(sentence: Sentence, primaries: Sequence[Entity]) -> list[Chunk]:
    """Partition [0, n) at the primaries' start offsets."""
    n = len(sentence)
    if not primaries:
        return [Chunk(0, 0, n, None)]
    chunks: list[Chunk] = []
    if primaries[0].start > 0:
        chunks.append(Chunk(0, 0, primaries[0].start, None))
    for i, primary in enumerate(primaries):
        end = primaries[i + 1].start if i + 1 < len(primaries) else n
        chunks.append(Chunk(len(chunks), primary.start, end, primary))
    return chunks


def span_gap(a: Entity, b: Entity) -> int:
    """Characters between the closest ends of two spans; 0 if they touch."""
    if a.end <= b.start:
        return b.start - a.end
    if b.end <= a.start:
        return a.start - b.end
    return 0


def _closest_sign(attribute: Entity, signs: Sequence[Entity]) -> Entity:
    # ties go to the later sign
    return min(signs, key=lambda s: (span_gap(attribute, s), -s.start))


def match(
    sentence: Sentence,
    entities: Sequence[Entity],
    dictionary: SecondaryPartDictionary,
) -> tuple[list[Relation], list[Quadruple]]:
    """Assemble relations and quadruples from decoded entities.

    Output is deterministic and invariant under permutation of ``entities``.
    """
    ordered = sorted(entities, key=lambda e: (e.start, e.end, e.kind))
    primaries = find_primary_parts(ordered, dictionary)
    chunks = chunk_sentence(sentence, primaries)

    relations: list[Relation] = []
    quadruples: list[Quadruple] = []
    for chunk in chunks:
        primary = chunk.primary
        members = [e for e in ordered if chunk.start <= e.start < chunk.end]
        signs = [e for e in members if e.kind == "Abn"]
        degrees = [e for e in members if e.kind == "D"]
        secondaries = [e for e in members if e.kind == "P" and e != primary]

        attached_sp: dict[Entity, list[Entity]] = {s: [] for s in signs}
        attached_d: dict[Entity, list[Entity]] = {s: [] for s in signs}

        if primary is not None:
            for sign in signs:
                relations.append(Relation("P2Abn", primary, sign))
        for secondary in secondaries:
            if signs:
                sign = _closest_sign(secondary, signs)
                relations.append(Relation("P2Abn", secondary, sign))
                attached_sp[sign].append(secondary)
            if primary is not None:
                relations.append(Relation("P2P", secondary, primary))
        for degree in degrees:
            if signs:
                sign = _closest_sign(degree, signs)
                relations.append(Relation("D2Abn", degree, sign))
                attached_d[sign].append(degree)

        for sign in signs:
            sp_slots = attached_sp[sign] or [None]
            d_slots = attached_d[sign] or [None]
            for sp in sp_slots:
                for d in d_slots:
                    quadruples.append(Quadruple(pp=primary, sp=sp, d=d, abn=sign))

    relations.sort(
        key=lambda r: (r.head.start, r.head.end, r.tail.start, r.tail.end, r.kind)
    )
    quadruples.sort(
        key=lambda q: (
            q.abn.start,
            q.sp.start if q.sp else -1,
            q.d.start if q.d else -1,
        )
    )
    return relations, quadruples
