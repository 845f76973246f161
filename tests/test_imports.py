"""Every imported name is used by the module that imports it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src/delaylab", "tests", "tools")


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; ``__all__`` counts as a read."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant)
                        and isinstance(c.value, str))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_unused_import_scan_sees_what_it_should():
    assert unused_imports("import math\nimport os.path\n") == [
        "line 1: math", "line 2: os"]
    assert unused_imports("from a import b as c\nc()\n") == []
    assert unused_imports("from x import y\n__all__ = ['y']\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


def test_no_unused_imports():
    found = []
    for folder in SCANNED:
        for path in sorted((ROOT / folder).glob("*.py")):
            found += [f"{path.relative_to(ROOT)} {hit}"
                      for hit in unused_imports(path.read_text())]
    assert found == []
