"""Every name a module of ``dualgi`` imports is used in it or exported
through its ``__all__``, every private function, class or method the
package defines is referenced in it, and every ``cached_property`` it
defines is read in it as an attribute: an import, a helper or a cached
quantity left behind by a deletion fails here (no linter runs on the
package).  Only ``realkernel`` names a ``numpy.linalg`` routine beyond
``matrix_power``, so every factorization, solve and rank decision, and
with them the one rank rule, stays in one module.  Only ``cli._emit``
calls ``json.dumps``, so every CLI report has one encoder."""

import ast
import pathlib

import numpy as np
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


#: ``numpy.linalg`` routines that factor a matrix, solve with one or decide
#: a rank, some with a cutoff of their own: every name but ``matrix_power``,
#: repeated products, and the error type.
RANK_ROUTINES = set(np.linalg.__all__) - {"matrix_power", "LinAlgError"}


def _owners(tree):
    """id(node) -> the name of the innermost def enclosing it."""
    owner = {}
    for node in ast.walk(tree):  # outer defs first, inner ones overwrite
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(inner), node.name) for inner in ast.walk(node))
    return owner


def _rank_routine_calls(source):
    """(line, function, name) of each ``np.linalg.<name>`` (also through
    ``numpy.linalg`` or a name bound to ``numpy.linalg``) in ``source``
    that names one of ``RANK_ROUTINES``, called or passed on, and of
    each such name imported from ``numpy.linalg``; ``function`` is the
    innermost enclosing def, or None."""
    tree = ast.parse(source)
    linalg, owner = {"linalg"}, _owners(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            linalg |= {alias.asname for alias in node.names
                       if alias.name == "numpy.linalg" and alias.asname}
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            linalg |= {alias.asname or alias.name for alias in node.names
                       if alias.name == "linalg"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in RANK_ROUTINES \
                and (getattr(node.value, "attr", None) == "linalg"
                     or getattr(node.value, "id", None) in linalg):
            found.append((node.lineno, owner.get(id(node)), node.attr))
        elif isinstance(node, ast.ImportFrom) \
                and node.module == "numpy.linalg":
            found += [(node.lineno, owner.get(id(node)), alias.name)
                      for alias in node.names if alias.name in RANK_ROUTINES]
    return sorted(found, key=lambda call: call[0])


def test_rank_decisions_stay_in_realkernel():
    found = {(path.name, func, name)
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "realkernel.py"
             for _, func, name in _rank_routine_calls(path.read_text())}
    assert found == set()
    assert _rank_routine_calls((PACKAGE / "realkernel.py").read_text())


def test_finds_a_rank_routine_call():
    source = ("import numpy as np\nnp.linalg.pinv(a)\n"
              "x = numpy.linalg.matrix_rank(a)\nnp.linalg.qr(a)\n"
              "f(np.linalg.svd, a)\nfrom numpy.linalg import inv, svd\n"
              "from numpy import linalg\nimport numpy.linalg as la\n"
              "def g(a):\n    return linalg.lstsq(a, a) + la.svd(a)\n"
              "np.linalg.matrix_power(a, 2)\nerror = np.linalg.LinAlgError\n")
    assert _rank_routine_calls(source) == [
        (2, None, "pinv"), (3, None, "matrix_rank"), (4, None, "qr"),
        (5, None, "svd"), (6, None, "inv"), (6, None, "svd"),
        (10, "g", "lstsq"), (10, "g", "svd")]


def _json_dumps_uses(source):
    """(line, function) of each ``json.dumps`` in ``source``, called or
    passed on, and of each ``dumps`` imported from ``json``;
    ``function`` is the innermost enclosing def, or None."""
    tree = ast.parse(source)
    owner = _owners(tree)
    return sorted((node.lineno, owner.get(id(node)))
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "dumps"
                  and getattr(node.value, "id", None) == "json"
                  or isinstance(node, ast.ImportFrom) and node.module == "json"
                  and any(alias.name == "dumps" for alias in node.names))


def test_reports_have_one_encoder():
    found = {(path.name, func)
             for path in sorted(PACKAGE.glob("*.py"))
             for _, func in _json_dumps_uses(path.read_text())}
    assert found == {("cli.py", "_emit")}


def test_finds_a_json_dumps_use():
    source = ("import json\ndef _emit(r):\n    return json.dumps(r)\n"
              "print(json.dumps({}))\nfrom json import dumps, loads\n"
              "def f(r):\n    g(json.dumps, r)\n    return json.loads(r)\n")
    assert _json_dumps_uses(source) == [(3, "_emit"), (4, None), (5, None),
                                        (7, "f")]
