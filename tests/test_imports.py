"""Every name a module of ``dualgi`` imports is used in it or exported
through its ``__all__``: an import left behind by a deletion fails here
(no linter runs on the package)."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "dualgi"


def _unused_imports(source):
    """The names ``source`` imports but neither reads nor lists in
    ``__all__``."""
    tree = ast.parse(source)
    imported, used, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used | exported)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_import(path):
    assert _unused_imports(path.read_text()) == []


def test_finds_an_unused_import():
    source = ("import os\nfrom .a import b, c as d\n"
              "__all__ = ['b']\nos.getcwd()\n")
    assert _unused_imports(source) == [(2, "d")]
