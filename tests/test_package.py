"""The library keeps only what the harness, the CLI or a documented contract uses.

Every module-level function and class of ``src/attsim``, and every
method of such a class, public or private (dunders aside), must be
referenced, as a name or an attribute, somewhere in the package outside
its own definition, so that a helper a deletion leaves behind fails too.
An import alone is not a use, and neither is a call from a test. A public
name that only a documented contract uses goes in ``_CONTRACT_ONLY``
(a method as ``Class.method``) with the README section that documents it.

No two module-level dataclasses of ``src/attsim`` have the same fields,
names and annotations alike: one type per concept.

The package's ``__version__`` and the ``version`` of ``pyproject.toml``
are one number, bumped together.
"""

import ast
import re
from pathlib import Path

import attsim

_PACKAGE = Path(attsim.__file__).parent

# public name (a method as "Class.method") -> the README section that documents its contract
_CONTRACT_ONLY: dict = {}


def _trees():
    """The parsed module of each ``src/attsim`` file, by file name."""
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(_PACKAGE.glob("*.py"))}


def _definitions(trees):
    """``(module, name, node)`` of each module-level function and class but the dunders."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        (module, node.name, node)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, kinds) and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def _methods(definitions):
    """``(module, "Class.method", name, node)`` of each method of a module-level class but the dunders."""
    return [
        (module, f"{cls}.{node.name}", node.name, node)
        for module, cls, class_node in definitions
        if isinstance(class_node, ast.ClassDef)
        for node in class_node.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def _references(tree):
    """Each Name and Attribute node of ``tree`` with the name it reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node, node.id
        elif isinstance(node, ast.Attribute):
            yield node, node.attr


def test_every_public_definition_is_used_in_the_package():
    trees = _trees()
    definitions = _definitions(trees)
    assert len(definitions) > 20  # the package was found and parsed
    methods = _methods(definitions)
    assert len(methods) > 10  # the classes' methods were found
    refs = [ref for tree in trees.values() for ref in _references(tree)]
    unused = []
    labelled = [(module, name, name, node) for module, name, node in definitions] + methods
    for module, label, name, node in labelled:
        inside = {id(n) for n in ast.walk(node)}
        used = any(ref == name and id(n) not in inside for n, ref in refs)
        if not used and label not in _CONTRACT_ONLY:
            unused.append(f"{module}:{node.lineno} {label}")
    assert not unused, "definitions that nothing in src/attsim uses: " + ", ".join(unused)
    assert set(_CONTRACT_ONLY) <= {label for _, label, _, _ in labelled}


def test_no_two_dataclasses_have_the_same_fields():
    trees = _trees()
    by_fields = {}
    for module, name, node in _definitions(trees):
        decorators = {ast.unparse(d).split("(")[0] for d in node.decorator_list}
        if isinstance(node, ast.ClassDef) and decorators & {"dataclass", "dataclasses.dataclass"}:
            key = tuple(
                (stmt.target.id, ast.unparse(stmt.annotation))
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            )
            by_fields.setdefault(key, []).append(f"{module}:{name}")
    assert len(by_fields) > 3  # the dataclasses were found
    same = [names for names in by_fields.values() if len(names) > 1]
    assert not same, "dataclasses with the same fields: " + "; ".join(", ".join(n) for n in same)


def test_version_matches_pyproject():
    # read with a regex: tomllib is not in every Python the project supports
    text = (_PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    versions = re.findall(r'^version\s*=\s*"([^"]+)"\s*$', project, flags=re.MULTILINE)
    assert versions == [attsim.__version__]
