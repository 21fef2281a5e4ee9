"""Offline benchmark of the radsigns CLI on seeded synthetic corpora.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root.  The program is driven only through
``radsigns.cli.main``, called in this process, one invocation at a time
(closed loop).  Every invocation's outputs are checked.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced invocations and prints per-layer metrics plus the
tracing overhead.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give every metric by the name the workload uses, the seed, the
machine and the workload sizes.  ``--smoke`` runs every workload once at a
tiny size, untraced and traced, with its checks on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Set-up runs at least SETUP_REPEATS times per run, and up to five times as
# often when that fits in SETUP_SHARE of the run; setup_s is the median.
SETUP_REPEATS = 5
SETUP_SHARE = 0.1

# setup_s is reported in seconds on a core where the reference loop takes
# this long: about its time on an idle core of the 2-vCPU, 2.1 GHz Xeon host
# the benchmark was built on.
REFERENCE_NOMINAL_S = 0.025

VITERBI_SPANS = ("crf.viterbi_decode", "crf.bio_transition_mask")
WRITE_SPANS = ("corpus.write_tagged_corpus", "corpus.write_quadruples",
               "corpus.write_relations")


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def reference_seconds() -> float:
    """Time a fixed mix of interpreter and small-array work.

    The loop does not use the program, so a change to the program cannot
    change it.  On a shared host the speed of a core drifts by up to 2x over
    tens of seconds; an invocation's time divided by the reference time taken
    just before and after it cancels most of that drift.
    """
    import numpy as np

    start = time.perf_counter()
    counts: dict[str, int] = {}
    for i in range(30000):
        key = f"k{i % 500}"
        counts[key] = counts.get(key, 0) + i
    a = np.arange(49.0).reshape(7, 7) / 49.0
    for _ in range(3000):
        np.log(np.exp(a - a.max(axis=0)).sum(axis=0))
    return time.perf_counter() - start


def run_invocation(wl, argv):
    """One checked CLI invocation: (wall seconds, ok, quality, detail)."""
    from workloads import invoke

    wl.clear_outputs()
    code, elapsed, err = invoke(argv)
    if code != 0:
        return elapsed, False, 0.0, f"exit {code}: {err.strip()}"
    try:
        ok, quality, detail = wl.check()
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return elapsed, False, 0.0, f"unreadable output: {exc!r}"
    return elapsed, ok, quality, detail


def timed_setup(wl) -> float:
    if wl.work.exists():
        shutil.rmtree(wl.work)
    wl.work.mkdir(parents=True)
    start = time.perf_counter()
    wl.setup()
    return time.perf_counter() - start


def measure(wl, seconds: float, repeats: int):
    """Closed loop of checked invocations for ``seconds``.

    Set-up runs at least ``repeats`` times, spread over the run so that its
    median samples the same machine states as the invocations.  Each set-up
    and each invocation is bracketed by reference-loop timings.
    ``chars_per_ref`` is the work done per reference-loop time, summed over
    the run; ``setup_s`` is the median set-up time scaled to
    REFERENCE_NOMINAL_S.
    """
    ref = reference_seconds()
    setup, setup_refs = [], []

    def set_up():
        nonlocal ref
        setup.append(timed_setup(wl))
        after = reference_seconds()
        setup_refs.append((ref + after) / 2)
        ref = after

    set_up()
    wl.expect()
    repeats = max(repeats, min(5 * repeats, int(SETUP_SHARE * seconds / setup[0])))
    start = time.perf_counter()
    setup_due = [start + seconds * i / repeats for i in range(1, repeats)]
    walls, refs, qualities, failures = [], [], [], []
    ref = reference_seconds()
    while not walls or time.perf_counter() < start + seconds:
        if setup_due and time.perf_counter() >= setup_due[0]:
            setup_due.pop(0)
            set_up()
        elapsed, ok, quality, detail = run_invocation(wl, wl.argv())
        after = reference_seconds()
        walls.append(elapsed)
        refs.append((ref + after) / 2)
        ref = after
        qualities.append(quality)
        if not ok:
            failures.append(detail)
    chars_per_s = statistics.median(wl.work_chars / w for w in walls)
    chars_per_ref = wl.work_chars * sum(refs) / sum(walls)
    metrics = {
        "chars_per_ref": (chars_per_ref, "chars/ref"),
        "quality_pct": (statistics.median(qualities), "%"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(
            t * REFERENCE_NOMINAL_S / r for t, r in zip(setup, setup_refs)), "s"),
    }
    prefix = wl.name.split("-")[0]
    by_workload_name = {
        f"{prefix}_chars_per_s": (chars_per_s, "chars/s"),
        f"{prefix}_chars_per_ref": metrics["chars_per_ref"],
        wl.quality_name: metrics["quality_pct"],
        "setup_s": metrics["setup_s"],
        "setup_raw_s": (statistics.median(setup), "s"),
        "peak_rss_mb": metrics["peak_rss_mb"],
        "error_rate": (len(failures) / len(walls), "failed/attempted"),
        "invocation_s_median": (statistics.median(walls), "s"),
        "reference_s_median": (statistics.median(refs), "s"),
    }
    extra = {"invocations": len(walls), "setup_runs": setup,
             "failures": failures[:5], "metrics_by_workload_name": by_workload_name}
    return metrics, len(walls), len(failures), extra


def layer_metrics(wl, layers, command, rounds, overhead_pct):
    """Per-layer metrics, per traced invocation.

    ``layers`` traced the invocations that ran every layer in this process;
    ``command`` traced the workload's own command, whose pool workers, if
    any, are invisible to the tracer.
    """
    spans = layers.by_name()
    counts = layers.counts

    def calls(*names):
        return sum(spans[n][0] for n in names if n in spans) / rounds

    def inclusive(*names):
        return sum(spans[n][1] for n in names if n in spans) / rounds

    def self_s(*names):
        return sum(spans[n][2] for n in names if n in spans) / rounds

    def per_inv(counter):
        return counts[counter] / rounds

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    fb_s = self_s("crf._nll_and_gradient")
    viterbi_s = self_s(*VITERBI_SPANS)
    epochs = calls("trainer.evaluate_dev")
    epoch_s = (inclusive("trainer.train") - inclusive("encoder.FeatureVocabulary.build")
               - inclusive("trainer._prepare"))
    features = counts["encoder.features"]

    top = command.by_name()

    def command_s(name):
        return top[name][1] / rounds if name in top else 0.0

    decode_s = command_s("cli._decode_all")
    serial_decode_s = inclusive("cli._decode_all")
    return {
        "input.sentences": (wl.sentences, "count"),
        "input.chars": (wl.chars, "count"),
        "crf.fb_calls": (calls("crf._nll_and_gradient"), "count"),
        "crf.fb_s": (fb_s, "s"),
        "crf.fb_chars_per_s": (rate(per_inv("crf.fb_chars"), fb_s), "chars/s"),
        "crf.viterbi_calls": (calls("crf.viterbi_decode"), "count"),
        "crf.viterbi_s": (viterbi_s, "s"),
        "crf.viterbi_chars_per_s": (rate(per_inv("crf.viterbi_chars"), viterbi_s), "chars/s"),
        "encoder.feature_ids_calls": (calls("encoder.FeatureVocabulary.feature_ids"), "count"),
        "encoder.feature_ids_s": (self_s("encoder.FeatureVocabulary.feature_ids"), "s"),
        "encoder.feature_ids_calls_per_sentence": (
            calls("encoder.FeatureVocabulary.feature_ids") / wl.sentences, "ratio"),
        "encoder.score_s": (self_s("encoder.score_sentence"), "s"),
        "encoder.vocab_build_s": (inclusive("encoder.FeatureVocabulary.build"), "s"),
        "encoder.unk_rate": (counts["encoder.unk_features"] / features if features else 0.0,
                             "ratio"),
        "trainer.epoch_s": (epoch_s / epochs if epochs else 0.0, "s"),
        "trainer.update_s": (self_s("trainer.train"), "s"),
        "trainer.dev_eval_s": (inclusive("trainer.evaluate_dev"), "s"),
        "evaluation.entity_prf_s": (inclusive("evaluation.entity_prf"), "s"),
        "tagscheme.tags_to_entities_s": (inclusive("tagscheme.tags_to_entities"), "s"),
        "tag2relation.match_s": (inclusive("tag2relation.match"), "s"),
        "tag2relation.relations": (per_inv("tag2relation.relations"), "count"),
        "tag2relation.quadruples": (per_inv("tag2relation.quadruples"), "count"),
        "corpus.read_tsv_s": (inclusive("corpus.read_tagged_corpus"), "s"),
        "corpus.read_emissions_s": (inclusive("corpus.read_emissions_many"), "s"),
        "corpus.emission_bytes": (per_inv("corpus.emission_bytes"), "bytes"),
        "corpus.write_s": (inclusive(*WRITE_SPANS), "s"),
        "cli.main_s": (command_s("cli.main"), "s"),
        "cli.load_model_s": (command_s("crf.load_model"), "s"),
        "cli.decode_s": (decode_s, "s"),
        "cli.decode_speedup": (serial_decode_s / decode_s if decode_s > 0 else 0.0, "x"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


def measure_traced(wl, seconds: float):
    """Alternate untraced and traced invocations of the workload's command.

    When the command uses a process pool, each round also traces the same
    work at ``--jobs 1``; the layer metrics come from that invocation and
    ``cli.decode_speedup`` compares the two decode phases.
    """
    from spans import Tracer

    timed_setup(wl)
    wl.expect()
    command, serial = Tracer(), Tracer() if wl.jobs > 1 else None
    layers = serial or command
    untraced, traced, failures = [], [], []

    def run(argv, tracer=None):
        if tracer is not None:
            tracer.install()
        try:
            elapsed, ok, _, detail = run_invocation(wl, argv)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if not ok:
            failures.append(detail)
        return elapsed

    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(run(wl.argv()))
        traced.append(run(wl.argv(), command))
        if serial is not None:
            run(wl.argv(jobs=1), serial)

    base = statistics.median(untraced)
    overhead_pct = 100.0 * (statistics.median(traced) - base) / base
    rounds = len(traced)
    metrics = layer_metrics(wl, layers, command, rounds, overhead_pct)
    attempted = rounds * (3 if serial else 2)
    extra = {"rounds": rounds, "failures": failures[:5],
             "unbound_spans": command.unbound,
             "spans": [{**row, "inclusive_s": row["inclusive_s"] / rounds,
                        "self_s": row["self_s"] / rounds}
                       for row in layers.table()[:25]]}
    return metrics, attempted, len(failures), extra


def environment(seed) -> dict:
    import numpy

    return {"seed": seed, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def run_workload(name, seed, seconds, trace, sizes, repeats, work_root):
    from workloads import WORKLOADS

    work = work_root / f"{name}-{seed}-{os.getpid()}"
    wl = WORKLOADS[name](work, seed, sizes[name])
    try:
        if trace:
            metrics, attempted, failed, extra = measure_traced(wl, seconds)
        else:
            metrics, attempted, failed, extra = measure(wl, seconds, repeats)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for metric, (value, unit) in extra.pop("metrics_by_workload_name", metrics).items():
        print(f"{name} {metric} {value:.6g} {unit}")
    info = {"workload": name, "trace": trace, **environment(seed),
            "sizes": wl.describe(), **extra}
    print("info " + json.dumps(info, default=list))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("train", "extract", "tag-emissions"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at a tiny size")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "radsigns" / "cli.py").is_file() or not (tests / "_synth.py").is_file():
        print(f"error: {ROOT} has no src/radsigns or tests/_synth.py; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(tests)]
    work_root = ROOT / ".perfbench_work"

    if args.smoke:
        from workloads import SMOKE_SIZES

        ok = True
        for name in SMOKE_SIZES:
            for trace in (0, 1):
                result = run_workload(name, args.seed, 0.0, trace, SMOKE_SIZES, 1, work_root)
                print(json.dumps(result))
                ok = ok and result["correct"]
        return 0 if ok else 1

    from workloads import SIZES

    result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          SIZES, SETUP_REPEATS, work_root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
