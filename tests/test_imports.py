"""Every name that a module in src/ or tests/ imports is used in it, and
every function and class that src/ defines is used in src/ or tests/."""

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
