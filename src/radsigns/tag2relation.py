"""Dictionary-driven chunk matching of attributes to abnormal signs.

A body part whose text is absent from the secondary-part dictionary is a
primary part.  An entity belongs to the chunk of the last primary part that
starts at or before it; entities that start before every primary part form
the unheaded chunk.  Inside a chunk:

* the primary part attaches to every sign in the chunk;
* each other part (a secondary part) and each degree attaches to the single
  closest sign (gap in characters between span ends; ties go to the later
  sign);
* each secondary part is linked to the chunk's primary as a subdivision,
  whether or not the chunk contains a sign;
* attributes in a chunk without signs attach to nothing.

One quadruple is assembled per sign and per (secondary part, degree)
combination attached to it; empty slots stay null.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import groupby
from typing import Sequence

from .corpus import Entity, Quadruple, Relation, SecondaryPartDictionary, Sentence


def find_primary_parts(
    entities: Sequence[Entity], dictionary: SecondaryPartDictionary
) -> list[Entity]:
    """P entities whose text is not a dictionary term, sorted by start."""
    return sorted(
        (e for e in entities if e.kind == "P" and e.text not in dictionary),
        key=lambda e: e.start,
    )


def span_gap(a: Entity, b: Entity) -> int:
    """Characters between the closest ends of two spans; 0 if they touch."""
    if a.end <= b.start:
        return b.start - a.end
    if b.end <= a.start:
        return a.start - b.end
    return 0


def match(
    sentence: Sentence,
    entities: Sequence[Entity],
    dictionary: SecondaryPartDictionary,
) -> tuple[list[Relation], list[Quadruple]]:
    """Assemble relations and quadruples from decoded entities.

    Output is deterministic and invariant under permutation of ``entities``.
    ``sentence`` is not read; the entities carry their own spans and text.
    """
    ordered = sorted(entities, key=lambda e: (e.start, e.end, e.kind))
    primaries = find_primary_parts(ordered, dictionary)
    starts = [p.start for p in primaries]

    relations: list[Relation] = []
    quadruples: list[Quadruple] = []
    # chunk i > 0 is headed by primaries[i - 1]; chunk 0 is the unheaded prefix
    for index, group in groupby(ordered, key=lambda e: bisect_right(starts, e.start)):
        members = list(group)
        primary = primaries[index - 1] if index else None
        signs = [e for e in members if e.kind == "Abn"]
        # the secondary parts and the degrees of each sign, by its position in ``signs``
        attached: dict[str, list[list[Entity]]] = {"P": [[] for _ in signs],
                                                   "D": [[] for _ in signs]}
        if primary is not None:
            relations.extend(Relation("P2Abn", primary, sign) for sign in signs)
        for e in members:
            if e.kind == "Abn" or (e.kind == "P" and e == primary):
                continue
            if signs:   # the closest sign; ties go to the later one
                i = min(range(len(signs)), key=lambda i: (span_gap(e, signs[i]), -signs[i].start))
                relations.append(Relation(f"{e.kind}2Abn", e, signs[i]))
                attached[e.kind][i].append(e)
            if e.kind == "P" and primary is not None:
                relations.append(Relation("P2P", e, primary))

        for sign in signs:
            i = signs.index(sign)   # equal copies of a sign share the first one's attributes
            for sp in attached["P"][i] or [None]:
                for d in attached["D"][i] or [None]:
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
