"""The library keeps only what the harness, the CLI or a documented contract uses.

Every public module-level function and class of ``src/attsim`` must be
referenced, as a name or an attribute, somewhere in the package outside
its own definition. An import alone is not a use. A name that only a
documented contract uses goes in ``_CONTRACT_ONLY`` with the README
section that documents it.
"""

import ast
from pathlib import Path

import attsim

_PACKAGE = Path(attsim.__file__).parent

# public name -> the README section that documents its contract
_CONTRACT_ONLY: dict = {}


def _public_definitions(trees):
    """``(module, name, node)`` of each public module-level function and class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        (module, node.name, node)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, kinds) and not node.name.startswith("_")
    ]


def _references(tree):
    """Each Name and Attribute node of ``tree`` with the name it reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node, node.id
        elif isinstance(node, ast.Attribute):
            yield node, node.attr


def test_every_public_definition_is_used_in_the_package():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(_PACKAGE.glob("*.py"))}
    definitions = _public_definitions(trees)
    assert len(definitions) > 20  # the package was found and parsed
    refs = [ref for tree in trees.values() for ref in _references(tree)]
    unused = []
    for module, name, node in definitions:
        inside = {id(n) for n in ast.walk(node)}
        used = any(ref == name and id(n) not in inside for n, ref in refs)
        if not used and name not in _CONTRACT_ONLY:
            unused.append(f"{module}:{node.lineno} {name}")
    assert not unused, "public definitions that nothing in src/attsim uses: " + ", ".join(unused)
    assert set(_CONTRACT_ONLY) <= {name for _, name, _ in definitions}
