"""Layout checks on the package source.

Code with no caller outside its own tests is dead: every module-level
function and class in ``src/levelarr``, and every method and property of such
a class other than a dunder, must be used somewhere in the package other than
its own definition.  A use is a name, an attribute, or a string naming it
(``__all__``); an import alone does not count.
"""

import ast
from collections import Counter
from pathlib import Path

import levelarr

SRC = Path(levelarr.__file__).resolve().parent


def _uses(node: ast.AST) -> Counter:
    """How often each identifier is used within ``node``."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            out[sub.value] += 1
    return out


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
METHODS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(tree: ast.Module):
    return [node for node in tree.body if isinstance(node, DEFINITIONS)]


def _methods(tree: ast.Module):
    """Methods and properties of the module-level classes, dunders aside."""
    return [
        method
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, METHODS) and not (method.name.startswith("__") and method.name.endswith("__"))
    ]


def _unused(trees: dict, definitions) -> list[str]:
    defined = [(module, node) for module, tree in trees.items() for node in definitions(tree)]
    uses = sum((_uses(tree) for tree in trees.values()), Counter())
    # uses inside the definition itself (recursion, a class naming itself) do not count
    return [f"{module}: {node.name}" for module, node in defined if uses[node.name] == _uses(node)[node.name]]


def _trees() -> dict:
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_every_module_level_definition_is_used():
    trees = _trees()
    assert {"enumerate_regions", "_reach_level", "Region"} <= {node.name for tree in trees.values() for node in _definitions(tree)}
    assert _unused(trees, _definitions) == []


def test_every_method_and_property_is_used():
    trees = _trees()
    assert {"sign_string", "rows", "evaluate"} <= {node.name for tree in trees.values() for node in _methods(tree)}
    assert _unused(trees, _methods) == []


def test_no_form_is_spelled_by_name():
    # A Coxeter form is the signed root (i, v) of ``Hyperplane.form()``; no
    # module re-tags directions by name.
    tags = {"coord", "diff", "sum"}
    named = [
        f"{module}:{node.lineno}: {node.value}"
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in tags
    ]
    assert named == []


def test_no_single_field_wrapper():
    # A NamedTuple with one field and no method or property only wraps a
    # value: return the value itself.
    named_tuples = [
        (module, cls)
        for module, tree in _trees().items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and any(ast.unparse(base).endswith("NamedTuple") for base in cls.bases)
    ]
    assert {"CharPoly", "Region"} <= {cls.name for _, cls in named_tuples}
    wrappers = [
        f"{module}: {cls.name}"
        for module, cls in named_tuples
        if sum(isinstance(node, ast.AnnAssign) for node in cls.body) == 1
        and not any(isinstance(node, METHODS) for node in cls.body)
    ]
    assert wrappers == []


def _callers(trees: dict, names: set) -> set[str]:
    """``module: definition`` of every module-level definition that calls one of ``names``.

    A call outside any definition is named ``module: <module>``.
    """
    return {
        f"{module}: {getattr(top, 'name', '<module>')}"
        for module, tree in trees.items()
        for top in tree.body
        for sub in ast.walk(top)
        if isinstance(sub, ast.Call) and getattr(sub.func, "id", getattr(sub.func, "attr", None)) in names
    }


def test_one_level_engine_choice():
    # ``regions._leaves`` is the one place a split engine and a level engine
    # are chosen: no other code runs the closure walk, the LP walk or the
    # cone-span LP.
    assert _callers(_trees(), {"_closure_walk", "_lp_walk", "cone_span_dimension"}) == {"regions.py: _leaves"}


def test_one_feasibility_engine():
    # ``_IntTableau`` is the one LP engine: no other code defines a pivot or
    # a simplex loop, and only the split test and the cone-span LP build a
    # tableau.  A new LP extends it rather than forking it.
    trees = _trees()
    defs = sorted(
        f"{module}: {getattr(top, 'name', '<module>')}.{node.name}"
        for module, tree in trees.items()
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, METHODS) and node.name in {"pivot", "minimize"}
    )
    assert defs == ["exactmath.py: _IntTableau.minimize", "exactmath.py: _IntTableau.pivot"]
    assert _callers(trees, {"_IntTableau"}) == {"exactmath.py: _feasible_system", "exactmath.py: cone_span_dimension"}
