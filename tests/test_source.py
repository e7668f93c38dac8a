"""Source-level invariants of the package."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import tcaseries

SRC = Path(tcaseries.__file__).parent


def test_no_assert_statements():
    # runtime checks must raise explicitly: `python -O` strips assert statements,
    # and pytest rewrites them only in test modules, not in the shared oracles
    found = []
    for path in sorted(SRC.glob("*.py")) + [Path(__file__).parent / "oracles.py"]:
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


def test_no_dataclasses():
    # value classes derive from polyutil.Value; dataclasses costs the CLI
    # its import and that of inspect at every start
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found += [f"{path.name}:{node.lineno}" for alias in node.names
                          if alias.name.split(".")[0] == "dataclasses"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dataclasses"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S: only what importing the package loads, not what site does
    code = ("import sys, tcaseries.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)}, check=True)
    assert proc.stdout.strip() == "[]"


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
    # `X.get(k, 0) + v` re-implements polyutil.merge_terms.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "polyutil.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                  and (_zero_default_get(node.left) or _zero_default_get(node.right))]
    assert found == []


def _bare_size_bounds(node):
    """The compares `name < 0` and `name < 1` of an expression, outside comprehensions,
    whose compares bound the elements of a sequence, not a size."""
    if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)):
        return
    if (isinstance(node, ast.Compare) and isinstance(node.left, ast.Name)
            and isinstance(node.ops[0], ast.Lt) and isinstance(node.comparators[0], ast.Constant)
            and node.comparators[0].value in (0, 1)):
        yield node
    for child in ast.iter_child_nodes(node):
        yield from _bare_size_bounds(child)


def _raises_value_error(body) -> bool:
    return any(isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
               and getattr(node.exc.func, "id", None) == "ValueError"
               for stmt in body for node in ast.walk(stmt))


def test_sizes_meet_their_bounds_only_in_polyutil():
    # `if d < 0: raise ValueError(...)` re-implements polyutil.size
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "polyutil.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.If) and _raises_value_error(node.body)
                  and any(_bare_size_bounds(node.test))]
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


def test_grassmann_reads_schur_products_off_the_bialternant():
    # Littlewood-Richardson products and shifted classes are r-variable Schur
    # expansions, read off torus.schur_coefficients; the infinite-variable
    # character table of symfunc is not a route for them
    tree = ast.parse((SRC / "grassmann.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert names & {"multiply", "change_basis"} == set()


def test_pushforward_oracle_reads_chi_through_bott():
    # pushforward_module_character is the brute-force side of the theta
    # check: its chi comes through Bott's algorithm, never Borel-Weil directly
    tree = ast.parse((SRC / "grassmann.py").read_text())
    func = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == "pushforward_module_character")
    assert "dim_schur" not in {node.id for node in ast.walk(func) if isinstance(node, ast.Name)}


def test_invariant_dimensions_use_no_weyl_integration():
    # invariant dimensions come from the Brauer-Klimyk rule on dominant
    # weights, paired by Schur's lemma with no pruning bound, block by block
    # where the character splits, on integers; the constant-term route is the
    # oracle in tests/oracles.py
    tree = ast.parse((SRC / "torus.py").read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {"_sl_reduce", "_size"} & set(funcs) == set()
    for name in ("invariant_dimensions", "_split_block", "_brauer_klimyk"):
        names = {node.id for node in ast.walk(funcs[name]) if isinstance(node, ast.Name)}
        assert names & {"delta_squared", "_ct_dot", "_weighted", "_integral",
                        "Fraction"} == set(), name


def test_integral_route_weights_each_degree_once():
    # the enhanced route forms ch_n * |Delta|^2 once per degree and pairs it
    # with each p_lam; one weyl_inner per partition re-forms it every time
    tree = ast.parse((SRC / "torus.py").read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    body = funcs["enhanced_from_equivariant"]
    names = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    assert "weyl_inner" not in names


def _called_names(module: str, name: str) -> set[str]:
    """Names called as plain functions in the top-level function `name` of `module`."""
    tree = ast.parse((SRC / module).read_text())
    func = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)
    return {node.func.id for node in ast.walk(func)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def test_exponentials_share_the_newton_kernel():
    # Newton's identity runs once, in polyutil.newton_exp, on integers; the
    # exponentials of power-sum dicts and of torus characters call it
    for module, name in (("symfunc.py", "graded_exp"), ("torus.py", "sym_degree_characters")):
        assert "newton_exp" in _called_names(module, name), name


def test_multiset_products_share_multiset_mul():
    # products of keys that multiply by multiset union run once, in
    # polyutil.multiset_mul on packed codes: the determinant's Laplace
    # expansion, power-sum products and the t-expansions of enhanced series
    for module, name in (("polyutil.py", "linear_form_det"), ("symfunc.py", "_p_mul_terms"),
                         ("seriesforms.py", "_tails"), ("seriesforms.py", "enhanced_expand")):
        assert "multiset_mul" in _called_names(module, name), name


def _modular_inverse(node) -> bool:
    """pow(x, -1, p)."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "pow" and len(node.args) == 3):
        return False
    e = node.args[1]
    return (isinstance(e, ast.Constant) and e.value == -1) or (
        isinstance(e, ast.UnaryOp) and isinstance(e.op, ast.USub)
        and isinstance(e.operand, ast.Constant) and e.operand.value == 1)


def _row_swap(node) -> bool:
    """a[i], a[j] = a[j], a[i]."""
    if not (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Tuple) and isinstance(node.value, ast.Tuple)):
        return False
    lhs, rhs = node.targets[0].elts, node.value.elts
    return (len(lhs) == len(rhs) == 2 and all(isinstance(e, ast.Subscript) for e in lhs + rhs)
            and [ast.dump(e.value) for e in lhs] == [ast.dump(e.value) for e in rhs]
            and [ast.dump(e.slice) for e in lhs] == [ast.dump(e.slice) for e in rhs[::-1]])


def test_elimination_only_in_polyutil():
    # a pivot loop with row swaps re-implements polyutil.echelon, the one
    # elimination kernel, exact or modulo a prime
    swapping, modular = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                nodes = list(ast.walk(func))
                if any(_row_swap(n) for n in nodes):
                    swapping.add((path.name, func.name))
                    if any(_modular_inverse(n) for n in nodes):
                        modular.add((path.name, func.name))
    assert swapping == {("polyutil.py", "echelon")}
    assert modular == {("polyutil.py", "echelon")}


def test_determinant_expansion_only_in_polyutil():
    # a Laplace expansion over bit masks of the columns taken re-implements
    # polyutil.linear_form_det, the one determinant kernel; grassmann reads no
    # private torus kernel (|Delta|^2 products are the oracle's route)
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found |= {(path.name, func.name) for func in ast.walk(tree)
                  if isinstance(func, ast.FunctionDef)
                  and any(isinstance(n, ast.Attribute) and n.attr == "bit_count"
                          for n in ast.walk(func))}
    assert found == {("polyutil.py", "linear_form_det")}
    tree = ast.parse((SRC / "grassmann.py").read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "torus"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def _callers(tree, attr: str) -> set[str]:
    """Qualified names of the functions that call `<something>.attr(...)`."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == attr):
                found.add(".".join(scope))
            visit(child, scope)

    visit(tree, [])
    return found


# the kernels whose output is canonical by construction; tests/test_values.py
# checks each against a rebuild through the validating constructor
TRUSTED_CALLERS = {
    ("grassmann.py", "detring_formal_character"),
    ("grassmann.py", "gessel_enhanced"),
    ("grassmann.py", "pushforward_module_character"),
    ("grassmann.py", "theta_r"),
    ("seriesforms.py", "TSeries.__mul__"),
    ("seriesforms.py", "enhanced_expand"),
    ("seriesforms.py", "phi_sigma"),
    ("seriesforms.py", "sigma_expand"),
    ("seriesforms.py", "ts_exp"),
    ("symfunc.py", "change_basis"),
    ("torus.py", "LaurentPoly.__mul__"),
    ("torus.py", "delta_squared"),
    ("torus.py", "enhanced_from_equivariant"),
    ("torus.py", "kernel_K"),
    ("torus.py", "sym_degree_characters"),
}


def test_only_canonical_kernels_skip_validation():
    # Value.trusted is the one constructor that skips a value's __init__, and
    # the one place that makes an instance by __new__
    callers, makers, definers = set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        callers |= {(path.name, name) for name in _callers(tree, "trusted")}
        makers |= {(path.name, name) for name in _callers(tree, "__new__")}
        definers |= {(path.name, node.name) for node in ast.walk(tree)
                     if isinstance(node, ast.ClassDef) for item in node.body
                     if isinstance(item, ast.FunctionDef) and item.name == "trusted"}
    assert callers == TRUSTED_CALLERS
    assert makers == {("polyutil.py", "Value.trusted")}
    assert definers == {("polyutil.py", "Value")}


def test_src_line_budget():
    # the package stays at or below 2500 non-blank, non-comment lines, counted
    # as `grep -hvE '^\s*(#|$)' src/tcaseries/*.py | wc -l` does; a change that
    # raises the budget says so in CHANGES.md
    lines = [line for path in SRC.glob("*.py") for line in path.read_text().splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    assert len(lines) <= 2500


# public names that only their unit tests read, each with the reason it stays
UNIT_TESTED_API = {
    "dfinite.hadamard": "closes the D-finite class under coefficient-wise products",
    "torus.constant_term": "the CT operation of Weyl integration",
    "seriesforms.sigma_recognize": "the sigma-form recognizer that the ideal quotients will route",
}


def _public_names(tree) -> set[str]:
    """A module's __all__ and its public top-level functions and classes."""
    names = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and not node.name.startswith("_")}
    return names | set(next((ast.literal_eval(node.value) for node in tree.body
                             if isinstance(node, ast.Assign)
                             and getattr(node.targets[0], "id", None) == "__all__"), []))


def _source_module(node, modules) -> str | None:
    """The package module that `from <module> import ...` names: `.m`, `tcaseries.m`,
    or "" for the package itself (`.`, `tcaseries`)."""
    name = node.module or ""
    if node.level == 0:
        if name.split(".")[0] != "tcaseries":
            return None
        name = name[len("tcaseries."):] if "." in name else ""
    return name if name in modules or name == "" else None


def _qualified_reads(tree, modules, exported) -> set[tuple[str, str]]:
    """(module, name) pairs a file reads from the package: names imported from a
    module, attributes of a module alias, and names read through the package,
    which `exported` maps to the module that defines them."""
    aliases, found = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (m := _source_module(node, modules)) is not None:
            for alias in node.names:
                if m == "" and alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
                elif m or alias.name in exported:
                    found.add((m or exported[alias.name], alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "tcaseries":
                    aliases[alias.asname or "tcaseries"] = ".".join(parts[1:]) if alias.asname else ""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name):
                m = aliases.get(base.id)
            elif (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
                    and aliases.get(base.value.id) == "" and base.attr in modules):
                m = base.attr
            else:
                continue
            if m:
                found.add((m, node.attr))
            elif m == "" and node.attr in exported:
                found.add((exported[node.attr], node.attr))
    return found


def _loads(tree, skip=None) -> set[str]:
    """Names a module loads outside the top-level definition of `skip`."""
    return {node.id for top in tree.body
            if not (isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name == skip)
            for node in ast.walk(top) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _strings(tree) -> set[str]:
    """The dotted parts of a file's string constants, by which perfbench/tracing.py
    wraps its targets."""
    return {part for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for part in node.value.split(".")}


def _readers():
    """(src module trees by module name, trees of the other readers: the oracles,
    the acceptance tests and the benchmark, and the benchmark's string parts)."""
    root = Path(__file__).parent
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    bench = [ast.parse(path.read_text(), str(path))
             for path in sorted((root.parent / "perfbench").glob("*.py"))]
    outside = [ast.parse(path.read_text(), str(path))
               for path in (root / "oracles.py", root / "test_acceptance.py")] + bench
    return trees, outside, set().union(*map(_strings, bench))


def test_every_export_has_a_reader():
    # a public name that no route, CLI subcommand, benchmark, oracle or
    # acceptance test reads is unused API, unless UNIT_TESTED_API keeps it; a
    # read names its module (`from .m import name`, `m.name`, or the package's
    # re-export); the package __init__ only re-exports, so it reads nothing
    trees, outside, strings = _readers()
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = {alias.name: node.module for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    reads = set().union(*(_qualified_reads(tree, set(trees), exported)
                          for tree in [*trees.values(), *outside]))
    unread = {f"{m}.{name}" for m, tree in trees.items() for name in _public_names(tree)
              if (m, name) not in reads and name not in strings | _loads(tree, skip=name)}
    assert unread == set(UNIT_TESTED_API)


def _attributes(node, skip=None) -> set[str]:
    """The attribute names read under `node`, outside the subtree `skip`."""
    if node is skip:
        return set()
    found = {node.attr} if isinstance(node, ast.Attribute) else set()
    for child in ast.iter_child_nodes(node):
        found |= _attributes(child, skip)
    return found


def test_every_public_member_has_a_reader():
    # a public method or property of a package class needs an attribute read
    # outside its own definition by a route, benchmark, oracle or acceptance test
    trees, outside, strings = _readers()
    unread = set()
    for tree in trees.values():
        elsewhere = strings.union(*(_attributes(t) for t in [*trees.values(), *outside]
                                    if t is not tree))
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            unread |= {f"{cls.name}.{member.name}" for member in cls.body
                       if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
                       and member.name not in elsewhere | _attributes(tree, skip=member)}
    assert unread == set()
