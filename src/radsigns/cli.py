"""Command-line pipeline: train, tag, extract, eval, errors.

Exit codes: 0 success, 2 bad input or flags, which reach :func:`main` only
as ``CorpusFormatError``, ``OSError`` or an argparse error, 3 numerical
failure during training; any other exception is a bug and exits 1 with a
traceback.  All commands are deterministic given identical inputs, flags
and seed.  ``tag`` and ``extract`` decode, match and write in windows of
``MATCH_WINDOW`` sentences in input order, in one process, each window in
one flat Viterbi pass over its slice of the input's flat corpus; ``--jobs``
is validated but accepted for compatibility only.

The argument parser holds every decision about options: the function that
runs each command, the files it reads and writes (no output may name one of
them, the ``--config`` file included), and the ``--config`` values as defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

import numpy as np

from . import __version__
from .corpus import (
    CorpusFormatError,
    FlatCorpus,
    RecordLines,
    read_dictionary,
    read_emission_blocks,
    read_json_object,
    read_relations,
    read_tagged_flat,
    read_text_flat,
    write_tagged_flat,
)
from .crf import TaggerModel, decoding_transitions, load_model, save_model, viterbi
from .encoder import score_ids, text_feature_ids
from .evaluation import entity_keys, key_prf, path_errors, relation_prf
from .tag2relation import match_arrays
from .tagscheme import text_runs
from .trainer import NonFiniteLossError, TrainConfig, train

DICT_ENV = "RADSIGNS_DICT"

# sentences that tag and extract decode, match and write per array pass;
# bounds the memory of their emissions, entity texts and index lists
MATCH_WINDOW = 256

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """An argument parser that rejects ``--`` as an option's value, which
    some Python versions strip to an empty list and others keep."""

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            raise argparse.ArgumentError(action, "expected one argument, got '--'")
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser.  Each command's defaults hold the function
    that runs it (``run``) and the dests it reads (``inputs``) and writes
    (``outputs``)."""
    parser = _Parser(
        prog="radsigns",
        description="Extract {primary part, secondary part, degree, sign} "
        "quadruples from character-level report sentences.",
    )
    parser.add_argument("--version", action="version", version=f"radsigns {__version__}")
    parser.add_argument("--config", help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a tagger and pick the dev-best epoch")
    p.set_defaults(run=_cmd_train, outputs=("model_out", "report_out"),
                   inputs=("train_path", "dev_path", "config"))
    p.add_argument("train_path", help="tagged training corpus (<char>\\t<tag>)")
    p.add_argument("dev_path", help="tagged development corpus")
    p.add_argument("--model-out", required=True)
    p.add_argument("--report-out", help="write the per-epoch report as JSON")
    p.add_argument("--epochs", type=_number(int, 1), default=200)
    p.add_argument("--batch-size", type=_number(int, 1), default=16)
    p.add_argument("--lr", type=_number(float, 0, above=True), default=0.5,
                   help="first-epoch learning rate")
    p.add_argument("--lr-decayed", type=_number(float, 0, above=True), default=0.1)
    p.add_argument("--decay-epoch", type=_number(int, 1), default=2)
    p.add_argument("--l2", type=_number(float, 0), default=0.0)
    p.add_argument("--seed", type=_number(int, 0), default=0)

    p = sub.add_parser("tag", help="decode tags for input sentences")
    p.set_defaults(run=_cmd_tag, outputs=("out",),
                   inputs=("input", "model", "emissions_file", "config"))
    _add_decode_arguments(p)
    p.add_argument("--out", required=True, help="tagged corpus to write")

    p = sub.add_parser("extract", help="decode tags and emit relations/quadruples")
    p.set_defaults(run=_cmd_extract, outputs=("out", "relations_out"),
                   inputs=("input", "model", "emissions_file", "dict_path", "config"))
    _add_decode_arguments(p)
    p.add_argument("--dict", dest="dict_path", default=os.environ.get(DICT_ENV),
                   help=f"secondary-part dictionary (default: ${DICT_ENV})")
    p.add_argument("--out", required=True, help="quadruples JSONL to write")
    p.add_argument("--relations-out", help="relations JSONL to write")
    p.add_argument("--from-tags", action="store_true",
                   help="with tsv input, trust the file's tags instead of decoding")

    for name in ("eval", "errors"):
        p = sub.add_parser(
            name,
            help="score predictions against gold"
            if name == "eval"
            else "classify entity errors (eval --mode errors)",
        )
        p.set_defaults(run=_cmd_eval, outputs=("report_out", "confusion_csv"),
                       inputs=("pred", "gold", "config"))
        p.add_argument("--pred", required=True)
        p.add_argument("--gold", required=True)
        if name == "eval":
            p.add_argument("--mode", choices=("entity", "relation", "agreement", "errors"),
                           default="entity")
            p.add_argument("--items", choices=("entity", "relation"),
                           help="item type for agreement mode")
        else:
            p.set_defaults(mode="errors", items=None)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--report-out", help="write the report as JSON")
        p.add_argument("--confusion-csv", help="write the confusion matrix as CSV (errors mode)")

    return parser


def _add_decode_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="input sentences")
    p.add_argument("--model", required=True)
    p.add_argument("--input-format", choices=("text", "tsv"), default="text",
                   help="text: one sentence per line; tsv: tagged corpus")
    p.add_argument("--no-constrain", dest="constrain", action="store_false",
                   help="decode without the BIO transition mask")
    p.add_argument("--emissions-file",
                   help="use precomputed emission blocks keyed by sentence id")
    p.add_argument("--jobs", type=_number(int, 1), default=1,
                   help="accepted for compatibility; decoding always runs in one process")


def _number(cast, low, above: bool = False):
    """An option type: a finite ``cast`` number (``int`` or ``float``) of at
    least ``low``, or above it if ``above``."""
    wanted = (f"{'an integer' if cast is int else 'a finite number'} "
              f"{'above' if above else 'of at least'} {low}")

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {cast.__name__} value: {text!r}") from None
        if not (value > low if above else value >= low) or value == float("inf"):   # NaN fails too
            raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")
        return value

    return parse


def _emission_blocks(emissions_file, corpus: FlatCorpus) -> tuple[np.ndarray, np.ndarray]:
    """The emission file's scores and each character's row in them; the first
    sentence, in input order, without a block of its length is an error."""
    (file_ids, lengths, scores), ids = read_emission_blocks(emissions_file), corpus.ids
    block = dict(zip(file_ids, range(len(file_ids))))
    found = np.array([block.get(sid, -1) for sid in ids], dtype=np.intp)
    rows = np.append(lengths, 0)[found]   # 0: no block
    bad = np.flatnonzero(rows != corpus.lengths)
    if bad.size:
        i = bad[0]
        raise CorpusFormatError(
            f"{emissions_file}: no emission block for sentence {ids[i]!r}" if not rows[i] else
            f"{emissions_file}: emission matrix has {rows[i]} rows but sentence {ids[i]!r} "
            f"has {corpus.lengths[i]} characters")
    shift = (np.cumsum(lengths) - lengths)[found] - corpus.offsets[:-1]   # block - sentence start
    return scores, np.repeat(shift, corpus.lengths) + np.arange(len(corpus.text))


def _tag_windows(model: TaggerModel, corpus: FlatCorpus, args, from_tags: bool = False):
    """``(window, flat tag path)`` of each window of ``MATCH_WINDOW``
    sentences of ``corpus`` in input order, the window a
    :meth:`FlatCorpus.window`; the path is the window's ``indices`` if
    ``from_tags``, else one Viterbi pass over the model's scores or over one
    gather of the emission file's rows, every block checked before any output."""
    A = decoding_transitions(model.transitions, args.constrain)
    emissions = _emission_blocks(args.emissions_file, corpus) if args.emissions_file else None

    def decode(lo):
        window = corpus.window(lo, lo + MATCH_WINDOW)
        if from_tags:
            return window, window.indices
        if emissions is None:
            P = score_ids(model.weights,
                          text_feature_ids(model.vocab, window.text, window.lengths))
        else:
            scores, index = emissions
            P = scores[index[corpus.offsets[lo]:corpus.offsets[lo] + len(window.text)]]
        return window, viterbi(P, A, window.lengths)

    return map(decode, range(0, len(corpus.lengths), MATCH_WINDOW))


def _commands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """The subcommand parsers by name."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _distinct_outputs(args, parser: argparse.ArgumentParser) -> None:
    """Reject an output of ``args.outputs`` that names the same file as one of
    ``args.inputs`` or another output: the write would replace the input or
    interleave with the other output.  Inputs may share a file."""
    actions = [*parser._actions, *_commands(parser)[args.command]._actions]
    spelling = {a.dest: (a.option_strings or [a.dest])[0] for a in actions}
    named = {}   # real path -> the first option that names it
    for dest in (*args.inputs, *args.outputs):
        path = getattr(args, dest)
        if not path:
            continue
        first = named.setdefault(os.path.realpath(path), dest)
        if first != dest and dest in args.outputs:
            raise CorpusFormatError(
                f"{spelling[first]} and {spelling[dest]} name the same file: {path}")


def _print_epoch(epoch: int, loss: float, f1: float) -> None:
    print(f"epoch {epoch} train_nll {loss:.4f} dev_f1 {f1:.2f}", flush=True)


def _cmd_train(args) -> int:
    config = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr_initial=args.lr,
        lr_decayed=args.lr_decayed,
        decay_epoch=args.decay_epoch,
        l2=args.l2,
        seed=args.seed,
    )
    model, report = train(read_tagged_flat(args.train_path), read_tagged_flat(args.dev_path),
                          config, on_epoch=_print_epoch)
    print(
        f"selected epoch {report.selected_epoch + 1} "
        f"dev_f1 {report.dev_f1[report.selected_epoch]:.2f}"
    )
    save_model(model, args.model_out)
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    return EXIT_OK


def _cmd_tag(args) -> int:
    model = load_model(args.model)
    corpus = (read_tagged_flat if args.input_format == "tsv" else read_text_flat)(args.input)
    paths = b"".join(path.tobytes() for _, path in _tag_windows(model, corpus, args))
    write_tagged_flat(FlatCorpus(corpus.text, corpus.lengths, paths), args.out)
    return EXIT_OK


def _cmd_extract(args) -> int:
    if args.from_tags and args.input_format != "tsv":
        raise CorpusFormatError("--from-tags requires --input-format tsv")
    if args.from_tags and args.emissions_file:
        raise CorpusFormatError("--from-tags and --emissions-file cannot be combined")
    if not args.dict_path:
        raise CorpusFormatError(
            f"a dictionary is required: pass --dict or set ${DICT_ENV}"
        )
    model = load_model(args.model)
    dictionary = read_dictionary(args.dict_path)
    corpus = (read_tagged_flat if args.input_format == "tsv" else read_text_flat)(args.input)
    windows = _tag_windows(model, corpus, args, args.from_tags)

    with (open(args.out, "wb") as quads_out,
          open(args.relations_out, "wb") if args.relations_out else nullcontext() as relations_out):
        for window, path in windows:
            rows, starts, ends, kinds, texts = text_runs(window.text, path, window.lengths)
            relations, quads = match_arrays(rows, starts, ends, kinds, texts, dictionary)
            lines = RecordLines(zip(kinds.tolist(), starts.tolist(), ends.tolist(), texts),
                                window.ids)
            quads_out.write(b"".join(lines.quadruples(rows[quads[3]], *quads)))
            if relations_out:
                relations_out.write(b"".join(lines.relations(rows[relations[1]], *relations)))
    return EXIT_OK


def _aligned_corpora(pred_path, gold_path) -> tuple[FlatCorpus, FlatCorpus]:
    """Two tagged corpora, checked to hold the same sentences."""
    pred, gold = read_tagged_flat(pred_path), read_tagged_flat(gold_path)
    if pred.text != gold.text or not np.array_equal(pred.lengths, gold.lengths):
        p, g = pred.offsets.tolist(), gold.offsets.tolist()   # the first differing sentence
        differ = [sid for sid, a, b, c, d in zip(pred.ids, p, p[1:], g, g[1:])
                  if pred.text[a:b] != gold.text[c:d]]
        where = (f"sentence {differ[0]!r} differs" if differ
                 else f"{len(pred.lengths)} against {len(gold.lengths)}")
        raise CorpusFormatError(f"pred {pred_path} and gold {gold_path} do not contain the same "
                                f"sentences: {where}")
    return pred, gold


def _breakdown_report(label: str, breakdown) -> tuple[dict, str]:
    """The JSON report and the text lines of a P/R/F1 breakdown."""
    lines = [f"{label} overall {breakdown.overall}"]
    lines += [f"{label} {kind} {scores}" for kind, scores in breakdown.by_kind.items()]
    return {"mode": label, **breakdown.to_dict()}, "\n".join(lines)


def _cmd_eval(args) -> int:
    if args.confusion_csv and args.mode != "errors":
        raise CorpusFormatError("--confusion-csv needs --mode errors")
    if args.items and args.mode != "agreement":
        raise CorpusFormatError("--items needs --mode agreement")
    if args.mode == "errors":
        pred, gold = _aligned_corpora(args.pred, args.gold)
        confusion, summary = path_errors(pred.indices, gold.indices, pred.lengths)
        report = {
            "mode": "errors",
            "summary": summary.to_dict(),
            "confusion": confusion.counts.tolist(),
            "records": summary.total_errors,
        }
        text = summary.format_text() + "\n" + confusion.to_csv()
    else:   # agreement reads entities when --items is not given
        if args.mode == "relation" or args.items == "relation":
            label, scores = "relation", relation_prf(*map(read_relations, (args.pred, args.gold)))
        else:
            label, scores = "entity", key_prf(*(entity_keys(c.indices, c.lengths)
                                                for c in _aligned_corpora(args.pred, args.gold)))
        if args.mode == "agreement":
            scores = scores.overall
            report, text = {"mode": "agreement", "overall": scores.to_dict()}, f"agreement {scores}"
        else:
            report, text = _breakdown_report(label, scores)

    print(json.dumps(report, ensure_ascii=False) if args.format == "json" else text)
    if args.confusion_csv:
        with open(args.confusion_csv, "w", encoding="utf-8") as fh:
            fh.write(confusion.to_csv())
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, ensure_ascii=False) + "\n")
    return EXIT_OK


def _apply_config(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """Make the values of ``argv``'s ``--config`` file the defaults of the
    options they name, on each command that has the option, and return the
    argv to parse.  A string or number is checked against the type and
    choices of each option it stands for, as ``--name=value`` would be, and a
    boolean sets a switch; so a value for another command's option is checked
    too.  An option the file supplies is no longer required, and flags on the
    command line still win."""
    scanner = argparse.ArgumentParser(add_help=False)
    scanner.add_argument("--config")
    path = scanner.parse_known_args(argv)[0].config
    if not path:
        return argv
    for key, value in read_json_object(path, "config").items():
        owners = [(p, a) for p in _commands(parser).values() for a in p._actions
                  if a.dest == key and a.option_strings and a.dest != "help"]
        if not owners:
            raise CorpusFormatError(f"{path}: {key}: no command has this option")
        if isinstance(value, (list, dict)) or value is None:
            raise CorpusFormatError(f"{path}: {key}: expected a string, number or boolean, "
                                    f"got {json.dumps(value)}")
        if isinstance(value, str) and "\0" in value:   # no path, number or choice holds one
            raise CorpusFormatError(f"{path}: {key}: a value cannot hold a NUL character")
        for p, action in owners:
            if action.nargs == 0:   # store_true / store_false
                if not isinstance(value, bool):
                    raise CorpusFormatError(f"{path}: {key}: expected true or false, got {value!r}")
                default = value
            elif action.type is None and not isinstance(value, str):
                raise CorpusFormatError(f"{path}: {key}: expected a string, got {value!r}")
            else:
                text = value if isinstance(value, str) else json.dumps(value)
                try:
                    default = p._get_values(action, [text])
                except argparse.ArgumentError as exc:
                    raise CorpusFormatError(f"{path}: {key}: {exc}") from None
            p.set_defaults(**{key: default})
            action.required = False
    return argv


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(_apply_config(list(argv), parser))
        _distinct_outputs(args, parser)
        return args.run(args)
    except SystemExit as exc:   # argparse: a usage error, --help or --version
        return int(exc.code or 0)
    except NonFiniteLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CorpusFormatError, OSError) as exc:   # any other exception is a bug
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
