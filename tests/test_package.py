import ast
from pathlib import Path

import radsigns


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
