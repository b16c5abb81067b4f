"""The mutation tool's anchors match the code they mutate, and every
definition in the package has a caller in the package."""

import ast
import glob
import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                    "mutants.py")
PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "qdet")


def _load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MUTANTS = _load_mutants()


@pytest.mark.parametrize("mutant", MUTANTS.MUTANTS, ids=lambda m: m[0])
def test_anchor_occurs_exactly_once(mutant):
    name, _, path, anchor, replacement = mutant
    with open(os.path.join(MUTANTS.ROOT, path), encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(anchor) == 1, name
    assert replacement != anchor, name


def test_every_definition_is_referenced_in_the_package():
    """A function, method or class that nothing in src/qdet names serves
    only the tests, and belongs in them.  A function or class counts as
    referenced when a Name, an Attribute or an import alias anywhere in
    the package carries its name; a method (a def in a class body) only
    when an Attribute does, since a bare name never reaches it.  Dunder
    methods are called by the language."""
    defined = []
    methods = set()
    names = set()
    attributes = set()
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.append((node, "%s:%d" % (
                    os.path.basename(path), node.lineno)))
            if isinstance(node, ast.ClassDef):
                methods.update(item for item in node.body if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)))
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    assert defined and methods
    unused = ["%s (%s)" % (node.name, where) for node, where in defined
              if node.name not in attributes
              and (node in methods or node.name not in names)
              and not (node.name.startswith("__")
                       and node.name.endswith("__"))]
    assert not unused, unused


def test_every_field_is_read_in_the_package():
    """A dataclass field or a __slots__ entry that no attribute load in
    src/qdet reads is carried for the tests only.  A field counts as
    read when an Attribute in a Load context anywhere in the package
    carries its name."""
    fields = []
    loaded = set()
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                loaded.add(node.attr)
            if not isinstance(node, ast.ClassDef):
                continue
            where = "%s.%%s (%s:%d)" % (node.name, os.path.basename(path),
                                         node.lineno)
            dataclass = any(ast.unparse(d).startswith("dataclass")
                            for d in node.decorator_list)
            for item in node.body:
                if (dataclass and isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)):
                    fields.append((item.target.id, where))
                if (isinstance(item, ast.Assign)
                        and any(isinstance(t, ast.Name) and t.id == "__slots__"
                                for t in item.targets)):
                    fields.extend((ast.literal_eval(elt), where)
                                  for elt in item.value.elts)
    assert len(fields) > 40
    unread = [where % name for name, where in fields if name not in loaded]
    assert not unread, unread
