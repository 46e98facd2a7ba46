"""Every name a module of ``dualgi`` imports is used in it or exported
through its ``__all__``, every private function, class or method the
package defines is referenced in it, and every ``cached_property`` it
defines is read in it as an attribute: an import, a helper or a cached
quantity left behind by a deletion fails here (no linter runs on the
package)."""

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


def _unreferenced_private(sources):
    """(module, line, name) of each private function, class or method
    (``_name``, not ``__dunder__``) that ``sources``, a dict of module
    name to source, define but never read, as a name or an attribute."""
    defined, referenced = [], set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__")
                                                 and name.endswith("__")):
                    defined.append((module, node.lineno, name))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return sorted(item for item in defined if item[2] not in referenced)


def test_every_private_definition_is_referenced():
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert _unreferenced_private(sources) == []


def test_finds_an_unreferenced_private_definition():
    sources = {
        "a.py": ("def _used():\n    pass\n\n\ndef _unused():\n    pass\n"
                 "\n\nclass _Kept:\n    def __init__(self):\n        pass\n"
                 "\n    def _method(self):\n        pass\n"),
        "b.py": "from .a import _Kept, _used\n_used()\n_Kept()\n",
    }
    assert _unreferenced_private(sources) == [("a.py", 5, "_unused"),
                                              ("a.py", 13, "_method")]


def _unread_cached_properties(sources):
    """(module, line, name) of each ``cached_property`` that ``sources``,
    a dict of module name to source, define but never read as an
    attribute (``obj.name``): one filled in through ``vars`` or never
    used at all."""
    defined, read = [], set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and any(getattr(d, "id", getattr(d, "attr", None))
                            == "cached_property"
                            for d in node.decorator_list):
                defined.append((module, node.lineno, node.name))
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(item for item in defined if item[2] not in read)


def test_every_cached_property_is_read():
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert _unread_cached_properties(sources) == []


def test_finds_an_unread_cached_property():
    sources = {
        "a.py": ("import functools\nfrom functools import cached_property\n"
                 "\n\nclass K:\n    @cached_property\n    def read(self):\n"
                 "        return 1\n\n    @functools.cached_property\n"
                 "    def filled(self):\n        return 2\n\n"
                 "    @property\n    def plain(self):\n        return 3\n"),
        "b.py": ("from .a import K\nk = K()\nk.read\n"
                 "vars(k)['filled'] = 0\n"),
    }
    assert _unread_cached_properties(sources) == [("a.py", 11, "filled")]
