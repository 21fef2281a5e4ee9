"""Span tracer that wraps the program's functions from outside.

Each wrapped function is replaced, at every module-level name that binds it
inside the package, by a wrapper that times the call and charges it to the
caller's span.  The program's source is not changed.  Wrappers are installed
only for a traced invocation and removed after it, so untraced invocations run
the original functions.

Spans are aggregated in memory by (caller span, span): call count, inclusive
time and self time (inclusive minus the time covered by wrapped callees).
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import Counter, defaultdict

MODULES = ("corpus", "encoder", "crf", "trainer", "tagscheme", "tag2relation",
           "evaluation", "cli")

# Per-character and per-entity helpers: a wrapper would cost more than the
# work they do, so their time stays in the caller's self time.
LEAVES = frozenset({"extract_features", "char_class", "span_gap",
                    "entity_to_dict", "entity_from_dict"})

# Private functions that mark a layer boundary no public function marks:
# (module that calls it, name there).  A name that a later version no longer
# binds is skipped and listed in Tracer.unbound.
PRIVATE = (("trainer", "_nll_and_gradient"), ("trainer", "_prepare"),
           ("cli", "_decode_all"))

METHODS = (("encoder", "FeatureVocabulary", "build"),
           ("encoder", "FeatureVocabulary", "feature_ids"),
           ("crf", "TaggerModel", "emissions"),
           ("crf", "TaggerModel", "decode"))


def _count_feature_ids(counts, args, result):
    vocab = args[0]
    counts["encoder.features"] += int(result.size)
    counts["encoder.unk_features"] += int((result == vocab.unk_index).sum())


def _count_fb(counts, args, result):
    counts["crf.fb_chars"] += len(args[0])


def _count_viterbi(counts, args, result):
    counts["crf.viterbi_chars"] += args[0].n


def _count_match(counts, args, result):
    relations, quadruples = result
    counts["tag2relation.relations"] += len(relations)
    counts["tag2relation.quadruples"] += len(quadruples)


def _count_emission_bytes(counts, args, result):
    counts["corpus.emission_bytes"] += os.path.getsize(args[0])


COUNTERS = {
    "encoder.FeatureVocabulary.feature_ids": _count_feature_ids,
    "crf._nll_and_gradient": _count_fb,
    "crf.viterbi_decode": _count_viterbi,
    "tag2relation.match": _count_match,
    "corpus.read_emissions_many": _count_emission_bytes,
}


class Tracer:
    """Collects spans and counts over any number of traced invocations."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"radsigns.{name}")
                        for name in MODULES}
        self.spans: dict[tuple[str | None, str], list] = defaultdict(
            lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()
        self.unbound: list[str] = []
        self._stack: list[list] = []
        self._targets = self._find_targets()

    def _find_targets(self):
        """(owner, attribute, span name, function, rebind) for every binding."""
        targets = []
        functions = []
        for short, module in self.modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and attr not in LEAVES):
                    functions.append((f"{short}.{attr}", obj))
        for caller, attr in PRIVATE:
            obj = getattr(self.modules[caller], attr, None)
            if obj is None:
                self.unbound.append(f"{caller}.{attr}")
            else:
                short = obj.__module__.rsplit(".", 1)[-1]
                functions.append((f"{short}.{attr}", obj))
        for name, fn in functions:
            for module in self.modules.values():
                for attr, obj in vars(module).items():
                    if obj is fn:
                        targets.append((module, attr, name, fn, None))
        for short, cls_name, attr in METHODS:
            cls = getattr(self.modules[short], cls_name, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if raw is None:
                self.unbound.append(f"{short}.{cls_name}.{attr}")
            elif isinstance(raw, classmethod):
                targets.append((cls, attr, f"{short}.{cls_name}.{attr}",
                                raw.__func__, classmethod))
            else:
                targets.append((cls, attr, f"{short}.{cls_name}.{attr}", raw, None))
        return targets

    def _wrap(self, name, fn):
        stack = self._stack
        spans = self.spans
        counts = self.counts
        count = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                caller = stack[-1] if stack else None
                if caller is not None:
                    caller[1] += elapsed
                span = spans[(caller[0] if caller else None, name)]
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - frame[1]
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, fn, rebind in self._targets:
            wrapped = self._wrap(name, fn)
            setattr(owner, attr, rebind(wrapped) if rebind else wrapped)

    def uninstall(self) -> None:
        for owner, attr, _, fn, rebind in self._targets:
            setattr(owner, attr, rebind(fn) if rebind else fn)

    def by_name(self) -> dict[str, list]:
        """name -> [calls, inclusive seconds, self seconds], over all callers."""
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (_, name), (calls, inclusive, self_time) in self.spans.items():
            total = totals[name]
            total[0] += calls
            total[1] += inclusive
            total[2] += self_time
        return totals

    def table(self) -> list[dict]:
        """The call tree as rows, heaviest self time first."""
        rows = [
            {"caller": caller, "span": name, "calls": calls,
             "inclusive_s": inclusive, "self_s": self_time}
            for (caller, name), (calls, inclusive, self_time) in self.spans.items()
        ]
        return sorted(rows, key=lambda row: -row["self_s"])
