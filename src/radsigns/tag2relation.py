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

:func:`match_arrays` matches a whole batch of sentences in one array pass.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .corpus import SecondaryPartDictionary

_RELATION_KINDS = np.array(["D2Abn", "P2Abn", "P2P"])   # in name order, which relations sort by
_P, _D, _ABN = range(3)   # indices into ENTITY_KINDS, which is in reverse name order


def match_arrays(rows, starts, ends, kinds, texts: Sequence[str],
                 dictionary: SecondaryPartDictionary):
    """Relations ``(kind, head, tail)`` and quadruples ``(pp, sp, d, abn)``,
    as arrays of relation kind names and of entity indices (-1: an empty
    slot), sorted by sentence, then relations by head start, head end, tail
    start, tail end and kind name, and quadruples by sign start, then
    secondary part start and degree start, an empty slot first.
    Entity ``i`` is in sentence ``rows[i]`` at ``[starts[i], ends[i])``, of
    kind ``ENTITY_KINDS[kinds[i]]`` and text ``texts[i]``.  Entities come
    sorted by sentence, start, end and kind name, and may overlap; those of
    one sentence are equal when kind and span are."""
    width = int(ends.max(initial=0)) + 1
    key = rows * width + starts   # ascending
    span = key * width + ends     # equal for equal spans of one sentence

    # each chunk's primary: the last one at or before each entity in its sentence, else -1
    primary = np.flatnonzero(kinds == _P)
    primary = primary[[texts[i] not in dictionary for i in primary.tolist()]]
    head = np.append(primary, -1)[np.searchsorted(key[primary], key, "right") - 1]
    head[rows[head] != rows] = -1
    chunk = np.cumsum((np.diff(rows, prepend=-1) != 0) | (np.diff(head, prepend=-2) != 0))

    # each attribute's closest sign in its chunk: least (gap, -start), then the first copy
    sign = np.flatnonzero(kinds == _ABN)
    is_head = (kinds == _P) & (head >= 0) & (span == span[head])   # the head or an equal copy
    attribute = np.flatnonzero((kinds != _ABN) & ~is_head)
    pair, cand = _expand(chunk[attribute], chunk[sign], sign)
    attr, cand = attribute[pair[cand >= 0]], cand[cand >= 0]
    gap = np.maximum(0, np.maximum(starts[cand] - ends[attr], starts[attr] - ends[cand]))
    best = np.lexsort((-starts[cand], gap, attr))[np.flatnonzero(np.diff(attr, prepend=-1))]
    linked, closest = attr[best], cand[best]

    headed = sign[head[sign] >= 0]
    subpart = attribute[(kinds[attribute] == _P) & (head[attribute] >= 0)]
    kind, source, target = (np.concatenate(c) for c in zip(   # P2Abn from the head, X2Abn, P2P
        (np.ones_like(headed), head[headed], headed),
        ((kinds[linked] == _P).astype(int), linked, closest),
        (np.full_like(subpart, 2), subpart, head[subpart])))
    by = np.lexsort((kind, ends[target], starts[target], ends[source], starts[source], rows[source]))

    # each sign with each part, then each degree, attached to its first copy
    first_copy = sign[np.searchsorted(span[sign], span[sign])]
    part = kinds[linked] == _P
    quad, sp = _expand(first_copy, closest[part], linked[part])
    quad_d, d = _expand(first_copy[quad], closest[~part], linked[~part])
    abn, sp = sign[quad[quad_d]], sp[quad_d]
    by_q = np.lexsort((np.where(d >= 0, starts[d], -1), np.where(sp >= 0, starts[sp], -1),
                       starts[abn], rows[abn]))
    return ((_RELATION_KINDS[kind[by]], source[by], target[by]),
            (head[abn][by_q], sp[by_q], d[by_q], abn[by_q]))


def _expand(owners, member_owners, members):
    """Each owner's members, in order, or -1 for an owner with none, as
    ``(position in owners, member)`` arrays."""
    by_owner = np.argsort(member_owners, kind="stable")
    lo, hi = (np.searchsorted(member_owners[by_owner], owners, side) for side in ("left", "right"))
    counts = np.maximum(hi - lo, 1)
    owner = np.repeat(np.arange(len(owners)), counts)
    place = lo[owner] + np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]
    return owner, np.where(hi[owner] > lo[owner], np.append(members[by_owner], -1)[place], -1)
