"""Every name that a module in src/ or tests/ imports is used in it,
every function and class that src/ defines is used in src/ or tests/ (in
tests/ alone only if it is a reference the tests check against), and
every function in src/ reads each of its parameters."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source):
    """(line, name) of each imported name that the module never loads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def dead_names(defining, loading):
    """Names of the functions and classes (dunder methods aside) defined in
    the sources ``defining`` that no source in ``loading`` reads, as a name
    or an attribute."""
    defined = {n.name for source in defining for n in ast.walk(ast.parse(source))
               if isinstance(n, (ast.FunctionDef, ast.ClassDef))
               and not (n.name.startswith("__") and n.name.endswith("__"))}
    loaded = {n.id if isinstance(n, ast.Name) else n.attr
              for source in loading for n in ast.walk(ast.parse(source))
              if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}
    return sorted(defined - loaded)


def unread_parameters(source):
    """(line, function, parameter) of each parameter (self and cls aside)
    that its function's body never reads."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(fn.lineno, fn.name, name) for name in params
                  if name not in read and name not in ("self", "cls")]
    return sorted(found)


def _sources():
    # an __init__.py imports to re-export
    return [p for d in ("src", "tests") for p in sorted((ROOT / d).rglob("*.py"))
            if p.name != "__init__.py"]


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c as d, e\ne()\n") == [(1, "os"), (2, "d")]


def test_no_unused_imports():
    found = {str(p.relative_to(ROOT)): bad for p in _sources()
             if (bad := unused_imports(p.read_text()))}
    assert found == {}


def test_scan_finds_a_dead_name():
    src = "class A:\n    def __init__(self): pass\n    def m(self): pass\ndef f(): pass\n"
    assert dead_names([src], ["A().m", "g = 1"]) == ["f"]


def test_no_dead_names():
    defining = [p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))]
    assert dead_names(defining, [p.read_text() for p in _sources()]) == []


# the functions of src/ that no code in src/ reads, each with what it is for
TEST_ONLY = {
    "lp_norm": "quadrature reference for the diagnostics",
    "mass_in_ball": "quadrature reference for the diagnostics",
    "apply_origin": "acceptance 2: the convolution at r = 0",
    "sharp_constant_defect": "acceptance 3: agreement of the two sharp-constant forms",
    "is_l2_admissible": "acceptance 1: admissibility of the scattering pairs",
}


def test_names_only_tests_read_are_references():
    # a second way to build an object, which only tests take, fails here
    src = [p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))
           if p.name != "__init__.py"]
    assert set(dead_names(src, src)) <= set(TEST_ONLY)


def test_scan_finds_an_unread_parameter():
    src = ("class S:\n    def __init__(self, grid, V):\n        self.grid = grid\n"
           "def f(a, *rest, k=1, **kw):\n    return a + k + g(*rest)\n")
    assert unread_parameters(src) == [(2, "__init__", "V"), (4, "f", "kw")]


def test_no_unread_parameters():
    found = {str(p.relative_to(ROOT)): bad for p in _sources()
             if p.is_relative_to(ROOT / "src") and (bad := unread_parameters(p.read_text()))}
    assert found == {}
