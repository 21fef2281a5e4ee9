"""Shared test helpers: brute-force oracles, synthetic data generators, and
sentence records with per-sentence calls of the flat library functions.

The oracles here stay deliberately independent of the library code paths
they check: path enumeration instead of the forward algorithm, and a
cartesian-product-then-filter matcher instead of the per-attribute loop.
"""

from __future__ import annotations

import bisect
import itertools
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from radsigns.corpus import (
    ENTITY_KINDS,
    TAG_INDEX,
    TAG_LABELS,
    Entity,
    FlatCorpus,
    Relation,
    SecondaryPartDictionary,
)
from radsigns.crf import END, START
from radsigns.tag2relation import match_arrays
from radsigns.tagscheme import batch_entities

# ---------------------------------------------------------------------------
# one sentence, its tags and its quadruples as test records, and per-sentence
# calls of the flat library functions


@dataclass(frozen=True, slots=True)
class Text:
    """A sentence's id and text; ``chars`` is the text as a tuple."""

    id: str
    text: str

    @property
    def chars(self) -> tuple[str, ...]:
        return tuple(self.text)

    def __len__(self) -> int:
        return len(self.text)


@dataclass(frozen=True, slots=True)
class Labels:
    """A sentence's tags as ``TAG_LABELS`` index bytes, one byte per tag
    since the benchmark's set-up holds thousands; ``tags`` gives the labels."""

    indices: bytes

    @property
    def tags(self) -> tuple[str, ...]:
        return tags_of(self.indices)


@dataclass(frozen=True)
class Quadruple:
    """A structured finding: sign plus its (nullable) part and degree attributes."""

    pp: Entity | None
    sp: Entity | None
    d: Entity | None
    abn: Entity

    def __post_init__(self):
        if self.abn.kind != "Abn":
            raise ValueError("quadruple sign slot must hold an Abn entity")
        for slot, kind in (("pp", "P"), ("sp", "P"), ("d", "D")):
            value = getattr(self, slot)
            if value is not None and value.kind != kind:
                raise ValueError(f"quadruple slot {slot} must hold a {kind} entity")


def path_of(tags) -> bytes:
    return bytes(map(TAG_INDEX.__getitem__, tags))


def tags_of(path) -> tuple[str, ...]:
    return tuple(TAG_LABELS[i] for i in path)


def flat_corpus(pairs) -> FlatCorpus:
    """The tagged flat corpus of ``(Text, Labels)`` pairs laid end to end."""
    return FlatCorpus("".join(s.text for s, _ in pairs), [len(s) for s, _ in pairs],
                      b"".join(t.indices for _, t in pairs))


def entities_of(text: str, path) -> list[Entity]:
    """The entities of one sentence's tag index path."""
    return batch_entities([0], text, path, [len(text)])[0]


def encode(n: int, entities) -> bytes:
    """The tag index path of ``n`` characters that marks each of the
    non-overlapping ``entities`` B-kind, then I-kind."""
    path = bytearray(n)
    for e in entities:
        begin = TAG_INDEX["B-" + e.kind]
        path[e.start:e.end] = bytes([begin] + [begin + 1] * (e.end - e.start - 1))
    return bytes(path)


def bio_violations(path) -> list[int]:
    """Positions whose I-X tag follows neither B-X nor I-X of the same kind."""
    return [i for i, t in enumerate(path)
            if t and not t & 1 and (i == 0 or path[i - 1] not in (t - 1, t))]


def match_entities(entities, dictionary: SecondaryPartDictionary):
    """``match_arrays`` of one sentence's entities, given in any order, with
    its index arrays turned back into ``Relation`` and ``Quadruple`` objects."""
    ordered = sorted(entities, key=lambda e: (e.start, e.end, e.kind))
    spans = np.array([(e.start, e.end, ENTITY_KINDS.index(e.kind)) for e in ordered], np.intp)
    relations, quadruples = match_arrays(np.zeros(len(ordered), np.intp), *spans.reshape(-1, 3).T,
                                         [e.text for e in ordered], dictionary)
    at = [*ordered, None].__getitem__   # index -1 is an empty slot
    return ([Relation(k, at(h), at(t)) for k, h, t in zip(*(a.tolist() for a in relations))],
            [Quadruple(*map(at, q)) for q in zip(*(a.tolist() for a in quadruples))])


# ---------------------------------------------------------------------------
# CRF oracle: explicit enumeration of all k^n paths


def enumerate_paths(P: np.ndarray, A: np.ndarray):
    """All tag paths with their scores, summed term by term."""
    n, k = P.shape
    paths = np.array(list(itertools.product(range(k), repeat=n)), dtype=np.intp)
    scores = A[START, paths[:, 0]] + A[paths[:, -1], END]
    scores = scores + P[np.arange(n), paths].sum(axis=1)
    for i in range(n - 1):
        scores = scores + A[paths[:, i], paths[:, i + 1]]
    return paths, scores


def brute_force_log_partition(P: np.ndarray, A: np.ndarray) -> float:
    _, scores = enumerate_paths(P, A)
    m = scores.max()
    return float(m + np.log(np.exp(scores - m).sum()))


def brute_force_argmax(P: np.ndarray, A: np.ndarray) -> list[int]:
    paths, scores = enumerate_paths(P, A)
    return paths[int(np.argmax(scores))].tolist()


# ---------------------------------------------------------------------------
# tag2relation oracle: cartesian products per chunk, then filtering


def _gap(a: Entity, b: Entity) -> int:
    if a.end <= b.start:
        return b.start - a.end
    if b.end <= a.start:
        return a.start - b.end
    return 0


def brute_force_match(sentence, entities, dictionary: SecondaryPartDictionary):
    ordered = sorted(entities, key=lambda e: (e.start, e.end, e.kind))
    primaries = [e for e in ordered if e.kind == "P" and e.text not in dictionary]
    starts = [p.start for p in primaries]

    groups: dict[int, list[Entity]] = defaultdict(list)
    for e in ordered:
        groups[bisect.bisect_right(starts, e.start) - 1].append(e)

    relations: list[Relation] = []
    quadruples: list[Quadruple] = []
    for cid in sorted(groups):
        group = groups[cid]
        primary = primaries[cid] if cid >= 0 else None
        pairs = [(a, b) for a, b in itertools.product(group, group) if a != b]
        chunk_relations: list[Relation] = []

        # the primary keeps every sign candidate
        if primary is not None:
            for sign in group:
                if sign.kind == "Abn":
                    chunk_relations.append(Relation("P2Abn", primary, sign))
        # each other attribute keeps only the closest sign
        for attr in group:
            is_secondary = attr.kind == "P" and attr != primary
            if not (is_secondary or attr.kind == "D"):
                continue
            candidates = [
                (a, b) for a, b in pairs if a == attr and b.kind == "Abn"
            ]
            if candidates:
                a, b = min(candidates, key=lambda ab: (_gap(*ab), -ab[1].start))
                kind = "P2Abn" if attr.kind == "P" else "D2Abn"
                chunk_relations.append(Relation(kind, a, b))
        # secondary-to-primary subdivision pairs survive unconditionally
        if primary is not None:
            for part in group:
                if part.kind == "P" and part != primary:
                    chunk_relations.append(Relation("P2P", part, primary))

        relations.extend(chunk_relations)
        for sign in (e for e in group if e.kind == "Abn"):
            sps = [
                r.head
                for r in chunk_relations
                if r.kind == "P2Abn" and r.tail == sign and r.head != primary
            ]
            ds = [r.head for r in chunk_relations if r.kind == "D2Abn" and r.tail == sign]
            for sp in sps or [None]:
                for d in ds or [None]:
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


# ---------------------------------------------------------------------------
# randomized matcher instances

FILLER_CHARS = "见有伴了之处示及与为在区域性改变化较前增大，。；"
DICT_TERMS = ("支气管", "食管", "贲门")


def random_match_instance(rng: np.random.Generator, max_chars: int = 31, max_entities: int = 6):
    """A sentence of 8 to ``max_chars`` characters with up to ``max_entities``
    entities, plus a dictionary.  The spans are drawn without overlap, but a
    part stretched to a dictionary term may reach into the next span."""
    n = int(rng.integers(8, max_chars + 1))
    chars = [FILLER_CHARS[i] for i in rng.integers(0, len(FILLER_CHARS), size=n)]

    spans = []
    i = 0
    while i < n and len(spans) < max_entities:
        if rng.random() < 0.45:
            length = int(rng.integers(1, min(4, n - i) + 1))
            spans.append((i, i + length))
            i += length
        i += 1
    entities = []
    for start, end in spans:
        kind = ("P", "D", "Abn")[int(rng.integers(0, 3))]
        if kind == "P" and rng.random() < 0.5:
            term = DICT_TERMS[int(rng.integers(0, len(DICT_TERMS)))]
            if start + len(term) <= n:
                end = start + len(term)
                overlaps = any(s < end and start < e for s, e in spans if (s, e) != (start, end))
                if not overlaps:
                    chars[start:end] = list(term)
        entities.append((kind, start, end))

    sentence = Text(f"r{rng.integers(0, 10**9)}", "".join(chars))
    built = [
        Entity(kind, start, end, sentence.text[start:end])
        for kind, start, end in entities
    ]
    return sentence, built, SecondaryPartDictionary(frozenset(DICT_TERMS))


def random_entity_set(rng: np.random.Generator, n: int) -> list[Entity]:
    """Random non-overlapping typed spans over a sentence of length n."""
    entities = []
    i = 0
    while i < n:
        if rng.random() < 0.35:
            length = int(rng.integers(1, min(4, n - i) + 1))
            kind = ("P", "D", "Abn")[int(rng.integers(0, 3))]
            entities.append((kind, i, i + length))
            i += length
        else:
            i += 1
    return entities


# ---------------------------------------------------------------------------
# deterministic character -> tag rule corpus for learnability tests
#
# every character belongs to exactly one role and position, so the current
# character alone determines the tag

P_BEGIN = "左右胸"
P_INSIDE = "上下肺叶"
SP_TERMS = ("支气管", "食管")          # 支/食 begin, 气/管 inside
D_BEGIN = "多轻"
D_INSIDE = "发度"
ABN_BEGIN = "斑阴积密"
ABN_INSIDE = "影液"
O_FILLER = "见有伴之"

RULE_DICTIONARY = SecondaryPartDictionary(frozenset(SP_TERMS))

RULE_CHAR_TAG: dict[str, str] = {}
for _ch in P_BEGIN:
    RULE_CHAR_TAG[_ch] = "B-P"
for _ch in P_INSIDE:
    RULE_CHAR_TAG[_ch] = "I-P"
for _term in SP_TERMS:
    RULE_CHAR_TAG[_term[0]] = "B-P"
    for _ch in _term[1:]:
        RULE_CHAR_TAG[_ch] = "I-P"
for _ch in D_BEGIN:
    RULE_CHAR_TAG[_ch] = "B-D"
for _ch in D_INSIDE:
    RULE_CHAR_TAG[_ch] = "I-D"
for _ch in ABN_BEGIN:
    RULE_CHAR_TAG[_ch] = "B-Abn"
for _ch in ABN_INSIDE:
    RULE_CHAR_TAG[_ch] = "I-Abn"
for _ch in O_FILLER + "，。":
    RULE_CHAR_TAG[_ch] = "O"


def _pick(rng, alphabet: str) -> str:
    return alphabet[int(rng.integers(0, len(alphabet)))]


def _rule_clause(rng):
    chars: list[str] = []
    tags: list[str] = []

    def add_span(begin: str, inside: str, kind: str, inside_count: int):
        chars.append(_pick(rng, begin))
        tags.append(f"B-{kind}")
        for _ in range(inside_count):
            chars.append(_pick(rng, inside))
            tags.append(f"I-{kind}")

    add_span(P_BEGIN, P_INSIDE, "P", int(rng.integers(1, 3)))
    if rng.random() < 0.6:
        term = SP_TERMS[int(rng.integers(0, len(SP_TERMS)))]
        chars.extend(term)
        tags.extend(["B-P"] + ["I-P"] * (len(term) - 1))
    for _ in range(int(rng.integers(0, 3))):
        chars.append(_pick(rng, O_FILLER))
        tags.append("O")
    if rng.random() < 0.7:
        add_span(D_BEGIN, D_INSIDE, "D", 1)
    add_span(ABN_BEGIN, ABN_INSIDE, "Abn", int(rng.integers(1, 3)))
    return chars, tags


def build_rule_corpus(rng: np.random.Generator, count: int, prefix: str = "s"):
    """Sentences whose tags follow a fixed character -> tag function."""
    corpus = []
    for i in range(count):
        chars: list[str] = []
        tags: list[str] = []
        clauses = int(rng.integers(1, 3))
        for c in range(clauses):
            clause_chars, clause_tags = _rule_clause(rng)
            chars.extend(clause_chars)
            tags.extend(clause_tags)
            chars.append("，" if c + 1 < clauses else "。")
            tags.append("O")
        corpus.append((Text(f"{prefix}{i + 1}", "".join(chars)), Labels(path_of(tags))))
    return corpus
