import ast
import builtins
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import radsigns
from radsigns import cli, corpus, crf, encoder


def test_every_exported_name_resolves():
    for name in radsigns.__all__:
        assert getattr(radsigns, name) is not None, name


def test_every_public_import_is_exported():
    tree = ast.parse(Path(radsigns.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(radsigns.__all__) == {name for name in imported if not name.startswith("_")}
    assert len(radsigns.__all__) == len(set(radsigns.__all__))


def test_the_package_version_is_the_project_version():
    tomllib = pytest.importorskip("tomllib")   # Python 3.11 and later
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert tomllib.loads(pyproject)["project"]["version"] == radsigns.__version__


def calls_with_owner(node, owner=None):
    """(name of the innermost enclosing function, call) for each call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield owner, child
        is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from calls_with_owner(child, child.name if is_function else owner)


def open_mode(call):
    """The mode an ``open`` call passes, "r" when it passes none, or None
    when it is not a constant."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
    return mode.value if isinstance(mode, ast.Constant) else None


def test_src_reads_files_only_through_the_corpus_opener():
    """One opener, ``corpus._open_text``, reads every input file, so every
    format gets one decoding policy; the byte re-read that locates an
    undecodable line and the emission reader's fast path, which leaves every
    file it cannot read as plain ASCII rows to the line reader, are the only
    other reads."""
    allowed = {("corpus.py", "_open_text"): "r", ("corpus.py", "_undecodable_line"): "rb",
               ("corpus.py", "_read_emission_chunks"): "rb"}
    offenders = []
    for path in sorted(Path(radsigns.__file__).parent.glob("*.py")):
        for owner, call in calls_with_owner(ast.parse(path.read_text(encoding="utf-8"))):
            func, where = call.func, f"{path.name}:{call.lineno}"
            if isinstance(func, ast.Attribute) and (
                    func.attr in ("open", "read_text", "read_bytes")
                    or func.attr == "load" and isinstance(func.value, ast.Name)
                    and func.value.id == "json"):
                offenders.append(where)
            elif isinstance(func, ast.Name) and func.id == "open":
                mode = open_mode(call)
                writes = mode is not None and any(c in mode for c in "wax+")
                if not writes and mode != allowed.get((path.name, owner)):
                    offenders.append(where)
    assert offenders == []


def test_src_writes_json_with_one_dumps_call():
    """``json.dump`` streams through the pure-Python encoder; ``json.dumps``
    runs the C encoder and writes the same text."""
    offenders = [
        f"{path.name}:{call.lineno}"
        for path in sorted(Path(radsigns.__file__).parent.glob("*.py"))
        for _, call in calls_with_owner(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(call.func, ast.Attribute) and call.func.attr == "dump"
        and isinstance(call.func.value, ast.Name) and call.func.value.id == "json"
    ]
    assert offenders == []


CONVERSIONS = {"array", "asarray", "asanyarray", "ascontiguousarray", "asfortranarray", "astype"}


def test_crf_entry_points_convert_their_arguments_once():
    """``viterbi``, ``batch_log_partition`` and ``batch_nll_and_gradient``
    each convert and check their emissions and transitions with one call of
    ``crf._arguments``, and no other ``crf`` function converts ``P``."""
    callers, converters = [], []
    for owner, call in calls_with_owner(ast.parse(Path(crf.__file__).read_text(encoding="utf-8"))):
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "_arguments":
            callers.append(owner)
        operands = [*call.args, getattr(func, "value", None)]
        if owner != "_arguments" and name in CONVERSIONS and any(
                isinstance(x, ast.Name) and x.id == "P" for x in operands):
            converters.append(f"{owner}:{call.lineno}")
    assert sorted(callers) == ["batch_log_partition", "batch_nll_and_gradient", "viterbi"]
    assert converters == []


def guards_a_ragged_list(node):
    """Whether ``node`` is a ``try`` that calls ``asarray`` and catches ``ValueError``."""
    return isinstance(node, ast.Try) and any(
        isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "asarray"
        for statement in node.body for call in ast.walk(statement)) and any(
        "ValueError" in {name for _, name in names(handler.type)}
        for handler in node.handlers if handler.type is not None)


def test_only_corpus_array_guards_a_ragged_list():
    """``corpus._array`` is the one conversion that turns the ``ValueError``
    that ``np.asarray`` raises for a ragged list into an array every check
    rejects: no other src function wraps ``np.asarray`` that way."""
    guards = []
    for path in sorted(Path(radsigns.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {id(node): function.name for function in ast.walk(tree)   # innermost last
                 if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(function)}
        guards += [f"{path.name}:{owner.get(id(node), '<module>')}" for node in ast.walk(tree)
                   if guards_a_ragged_list(node)]
    assert guards == ["corpus.py:_array"]


def names(node):
    """Every name and attribute that ``node`` holds, with its line."""
    for child in ast.walk(node):
        name = child.id if isinstance(child, ast.Name) else getattr(child, "attr", None)
        if name is not None:
            yield child.lineno, name


def test_strict_counts_are_computed_only_in_evaluation():
    """Dev F1, ``eval``, agreement and the library scorers count int keys
    through ``radsigns.evaluation``: no other module intersects key arrays
    or imports the run finder to key entities, and neither the eval reader
    nor ``eval`` itself builds an ``Entity``: ``errors`` classifies span arrays."""
    offenders = []
    for path in sorted(Path(radsigns.__file__).parent.glob("*.py")):
        if path.name == "evaluation.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [f"{path.name}:{lineno} {found}" for lineno, found in names(tree)
                      if found == "intersect1d"]
        offenders += [f"{path.name}:{node.lineno} {alias.name}" for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) for alias in node.names
                      if alias.name == "_run_arrays"]
    for node in ast.parse(Path(cli.__file__).read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef) and node.name in ("_aligned_corpora", "_cmd_eval"):
            offenders += [f"{node.name}:{lineno} {found}" for lineno, found in names(node)
                          if found in ("Entity", "batch_entities", "classify_errors")]
    assert offenders == []


def test_one_reader_and_one_writer_per_file_format():
    """The public readers and writers of ``radsigns.corpus`` are one per file
    format and direction, ``RecordLines`` writing the quadruple and relation
    JSON Lines, and ``text_feature_ids`` is the one feature-id function of
    ``radsigns.encoder``."""
    io = {name for name, value in vars(corpus).items()
          if re.match(r"(read|write)_", name) and inspect.isfunction(value)}
    assert io == {"read_tagged_flat", "read_text_flat", "read_emission_blocks", "read_dictionary",
                  "read_json_object", "read_relations", "write_tagged_flat", "write_emissions"}
    jsonl_writers = [name for name, value in vars(corpus).items()
                     if inspect.isclass(value) and {"quadruples", "relations"} <= set(vars(value))]
    assert jsonl_writers == ["RecordLines"]
    classes = [v for v in vars(encoder).values()
               if inspect.isclass(v) and v.__module__ == encoder.__name__]
    feature_ids = {name for owner in (encoder, *classes) for name in vars(owner)
                   if "feature_id" in name and not name.startswith("_")}
    assert feature_ids == {"text_feature_ids"}


MODULES = {info.name: importlib.import_module(f"radsigns.{info.name}")
           for info in pkgutil.iter_modules(radsigns.__path__)}


PER_SENTENCE_API = {"EmissionMatrix", "score_sentence", "viterbi_decode", "log_partition", "nll",
                    "nll_and_gradient", "path_score", "_single",
                    "Sentence", "TagSequence", "from_pairs", "pairs", "tags_from_indices",
                    "entities_to_tags", "tags_to_entities", "validate_path",
                    "find_primary_parts", "match"}
# the writers of Quadruple and Relation lists, and what only they used
OBJECT_LIST_WRITERS = {"write_quadruples", "write_relations", "_write_records", "entity_to_dict",
                       "NO_ID", "_Raises", "_utf8", "_id_end", "_bad_end", "_ends_of"}
# the wrappers of a model's two arrays, which TaggerModel now holds and checks itself
MODEL_WRAPPERS = {"TransitionMatrix", "LinearScorerParams"}
# the quadruple record, built only by the tests' oracle, and the relation reader's entity helper
TEST_SIDE_RECORDS = {"Quadruple", "entity_from_dict"}
DELETED_API = PER_SENTENCE_API | OBJECT_LIST_WRITERS | MODEL_WRAPPERS | TEST_SIDE_RECORDS


def test_the_flat_batch_functions_are_the_one_library_surface():
    """No src module defines, imports or exports a per-sentence type, a
    ``FlatCorpus`` conversion to or from them, a batch-size-1 CRF, scoring,
    decoding or matching wrapper, or a writer of ``Quadruple`` or
    ``Relation`` lists or a helper only those used, or a wrapper of a model's
    weight or transition array, or the ``Quadruple`` record, which lives in
    ``tests/_synth.py``, or ``entity_from_dict``, not even as an attribute;
    ``extract_features`` takes a ``str``, and ``TaggerModel`` only holds its
    vocabulary, weights and transitions: it defines no method but the
    ``__post_init__`` that checks them."""
    offenders = [f"{name}.{found}" for name, module in (("radsigns", radsigns), *MODULES.items())
                 for found in DELETED_API & set(vars(module))]
    offenders += [f"{cls.__name__}.{found}" for cls in (corpus.FlatCorpus, corpus.RecordLines)
                  for found in DELETED_API & set(dir(cls))]
    for path in sorted(Path(radsigns.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            defined = getattr(node, "name", None) if isinstance(
                node, (ast.FunctionDef, ast.ClassDef)) else None
            imported = [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom) else []
            offenders += [f"{path.name}:{node.lineno} {found}" for found in (defined, *imported)
                          if found in DELETED_API]
            # a local or attribute may be called pairs or match, not NO_ID or _bad_end
            used = (node.id if isinstance(node, ast.Name) else node.attr
                    if isinstance(node, ast.Attribute) else None)
            if used in OBJECT_LIST_WRITERS:
                offenders.append(f"{path.name}:{node.lineno} {used}")
    text = next(iter(inspect.signature(encoder.extract_features).parameters.values()))
    if text.annotation not in (str, "str"):
        offenders.append(f"extract_features({text.name}: {text.annotation})")
    tagger = next(node for node in ast.parse(Path(crf.__file__).read_text(encoding="utf-8")).body
                  if isinstance(node, ast.ClassDef) and node.name == "TaggerModel")
    offenders += [f"TaggerModel.{node.name}" for node in ast.walk(tagger)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name != "__post_init__"]
    assert offenders == []


def bound_names():
    """Every name bound in ``radsigns`` or one of its modules, and every
    attribute or dataclass field of a class defined there."""
    found = set()
    for module in (radsigns, *MODULES.values()):
        found |= set(vars(module))
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__.startswith("radsigns."):
                found |= set(dir(value))
                if dataclasses.is_dataclass(value):
                    found |= {field.name for field in dataclasses.fields(value)}
    return found


def resolves(dotted):
    """Whether ``dotted``, a name or a module, each with attributes, with or
    without a leading ``radsigns.``, is bound in ``radsigns``."""
    first, *rest = dotted.removeprefix("radsigns.").split(".")
    value = MODULES.get(first) or next(
        (vars(m)[first] for m in (radsigns, *MODULES.values()) if first in vars(m)), None)
    for attr in rest:
        value = getattr(value, attr, None)
    return value is not None


def test_readme_names_only_what_radsigns_binds():
    """Every backticked dotted name or call in README.md, every backticked
    snake_case word that is not an option's dest, and every backticked
    CamelCase word that is not a builtin exception, is bound in
    ``radsigns``: a deleted or renamed function or type cannot linger in the
    docs.  Only a version note, a paragraph that starts with "Version ", may
    name what ``DELETED_API`` lists, as the API it replaced."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    paragraphs = re.split(r"\n\s*\n", re.sub(r"```.*?```", "", readme, flags=re.S))
    parser = cli.build_parser()
    dests = {a.dest for p in [parser, *cli._commands(parser).values()] for a in p._actions}
    bound = bound_names()
    offenders = []
    for paragraph in paragraphs:
        for span in re.findall(r"`([^`]+)`", paragraph):
            call = re.fullmatch(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(\(.*\))?", span, re.S)
            if call is None:
                continue
            name = call.group(1)
            if paragraph.startswith("Version ") and name.split(".")[-1] in DELETED_API:
                continue
            if "." in name or call.group(2):
                if not resolves(name):
                    offenders.append(span)
            elif re.fullmatch(r"[a-z][a-z0-9]*(?:_[a-z0-9]+)+", name):
                if name not in bound and name not in dests:
                    offenders.append(span)
            elif re.fullmatch(r"[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)*", name):
                exception = getattr(builtins, name, None)
                if name not in bound and not (inspect.isclass(exception)
                                              and issubclass(exception, BaseException)):
                    offenders.append(span)
    assert offenders == []
