"""Source-level invariants of the package."""

import ast
import importlib
import importlib.util
from pathlib import Path

import tcaseries

SRC = Path(tcaseries.__file__).parent


def test_no_assert_statements():
    # runtime checks must raise explicitly: `python -O` strips assert statements
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_unused_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in bound.items()
                  if name not in used]
    assert found == []


def _zero_default_get(node) -> bool:
    """X.get(k, 0) or X.get(k, Fraction(0))."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get" and len(node.args) == 2):
        return False
    default = node.args[1]
    if (isinstance(default, ast.Call) and isinstance(default.func, ast.Name)
            and default.func.id == "Fraction" and len(default.args) == 1):
        default = default.args[0]
    return isinstance(default, ast.Constant) and default.value == 0


def test_coefficients_merge_only_in_polyutil():
    # `X.get(k, 0) + v` re-implements polyutil.merge_terms / add_into.
    # _bell_polynomials keeps its own loop: it is the independent route that
    # `enhanced --r 1` checks phi_sigma against.
    allowed = {("grassmann.py", "_bell_polynomials")}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "polyutil.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        skip = {id(node) for func in ast.walk(tree)
                if isinstance(func, ast.FunctionDef) and (path.name, func.name) in allowed
                for node in ast.walk(func)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                  and id(node) not in skip
                  and (_zero_default_get(node.left) or _zero_default_get(node.right))]
    assert found == []


def test_names_pinned_by_perfbench_tracing_exist():
    # perfbench/tracing.py wraps library functions by module and name; a
    # rename or deletion here would silently drop them from the traced run
    path = Path(__file__).parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for mod_name, qual, *_ in tracing.TARGETS:
        obj = importlib.import_module(f"tcaseries.{mod_name}")
        for attr in qual.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(f"{mod_name}.{qual}")
    for mod_name, attr, _ in tracing.CACHES:
        fn = getattr(importlib.import_module(f"tcaseries.{mod_name}"), attr, None)
        if not hasattr(fn, "cache_info"):
            missing.append(f"{mod_name}.{attr}.cache_info")
    assert missing == []
