"""Source hygiene of the package, read from its syntax trees: no module imports
a name it never uses, no module reads another module's underscore name, every
module-level constant and private helper is read somewhere, and every name the
README and the docstrings cite as ``module.name`` or ``Class.name`` exists."""

import ast
import functools
import importlib
import re
from collections import namedtuple
from pathlib import Path

import pytest

import qshuffle

_SRC = Path(__file__).resolve().parents[1] / "src" / "qshuffle"
_MODULES = sorted(_SRC.glob("*.py"))
_README = _SRC.parents[1] / "README.md"


# a named tuple's own methods (``_make``, ``_replace``, ...) are public: the
# underscore only keeps them apart from field names
_NAMED_TUPLE_API = {name for name in dir(namedtuple("T", ())) if not name.startswith("__")}


def _private(name: str) -> bool:
    return (name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
            and name not in _NAMED_TUPLE_API)


def _imports(tree: ast.Module):
    """(bound name, imported name, is a module) per name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], alias.name, True
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                # ``from . import simulator`` binds a module; ``from .circuit import Gate`` does not
                yield alias.asname or alias.name, alias.name, node.module is None


# the imports of __init__.py are the package's public names
@pytest.mark.parametrize("path", [p for p in _MODULES if p.name != "__init__.py"], ids=lambda path: path.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(bound for bound, _, _ in _imports(tree) if bound not in used)
    assert unused == [], f"{path.name} imports {unused} and never uses them"


@pytest.mark.parametrize("path", _MODULES, ids=lambda path: path.name)
def test_no_module_reads_another_modules_private_name(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = list(_imports(tree))
    modules = {bound for bound, _, is_module in imports if is_module}
    reads = [name for _, name, _ in imports if _private(name)]
    reads += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and _private(node.attr)]
    assert reads == [], f"{path.name} reads private names {reads}"


@pytest.mark.parametrize("path", _MODULES, ids=lambda path: path.name)
def test_no_module_imports_dataclasses(path):
    # records are named tuples: the dataclass decorator generates and execs
    # code for each class at import, a third of the CLI's start-up
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "dataclasses" not in {name.partition(".")[0] for name in imported}, f"{path.name} imports dataclasses"


def _reads(tree: ast.Module):
    """Every name a module reads: loaded names and attributes, and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
    yield from (name for _, name, _ in _imports(tree))


def _leftover_candidates(tree: ast.Module):
    """The module-level ALL-CAPS constants, and the private functions, methods
    and classes at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _private(node.name):
            yield node.name
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):  # ``A, B = ...`` binds two
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for target in targets for t in ast.walk(target)
                        if isinstance(t, ast.Name) and t.id.isupper())


def test_no_unread_constant_or_private_definition():
    # a constant or private helper that no module reads is a leftover of a deletion
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in _MODULES}
    read = {name for tree in trees.values() for name in _reads(tree)}
    unread = sorted(f"{module}:{name}" for module, tree in trees.items()
                    for name in _leftover_candidates(tree) if name not in read)
    assert unread == [], f"defined and never read: {unread}"


def _doc_texts():
    """(where, text): the README, then every docstring of the package."""
    yield "README.md", _README.read_text(encoding="utf-8")
    for path in _MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node):
                where = f"{path.name}:{node.name}" if hasattr(node, "name") else path.name
                yield where, ast.get_docstring(node)


def test_every_doc_reference_resolves():
    # a backticked `name.attr` whose name is a package module or an exported
    # class must resolve: a deletion leaves no stale reference behind
    roots = {path.stem: importlib.import_module(f"qshuffle.{path.stem}")
             for path in _MODULES if not path.stem.startswith("__")}
    roots |= {name: obj for name, obj in vars(qshuffle).items() if isinstance(obj, type)}
    stale, checked = [], 0
    for where, text in _doc_texts():
        for name, *attrs in (m.split(".") for m in re.findall(r"`(\w+(?:\.\w+)+)`", text)):
            if name in roots:
                checked += 1
                try:
                    functools.reduce(getattr, attrs, roots[name])
                except AttributeError:
                    stale.append(f"{where}: {'.'.join([name, *attrs])}")
    assert checked and stale == [], f"references to missing names: {stale}"
