"""Every imported name is used: a stdlib-ast scan of src/, tests/ and demos/.

A name counts as used when it appears as a Name node (which covers
attribute chains such as `cocritical.verify.is_cocritical`, whose root is a
Name) or as a word in a quoted annotation.  Docstrings and other strings do
not count.  Package __init__.py files are skipped, because their imports are
the public re-exports.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "demos")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each name the module imports and never uses."""
    tree = ast.parse(source)
    imported: list[tuple[int, str]] = []
    used: set[str] = set()
    annotations: list[ast.expr | None] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    imported.append((node.lineno, alias.asname or alias.name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return [(line, name) for line, name in imported if name not in used]


def scanned_files() -> list[Path]:
    return sorted(
        path
        for folder in SCANNED
        for path in (ROOT / folder).rglob("*.py")
        if path.name != "__init__.py"
    )


def test_unused_import_scan_flags_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import json\n"
        "from typing import Any, Optional as Opt\n"
        "from x import *\n"
        "def f(a: 'Opt[int]') -> None:\n"
        "    'Any json named in a docstring is not a use.'\n"
        "    return os.getcwd()\n"
    )
    assert unused_imports(source) == [(2, "osp"), (3, "json"), (4, "Any")]


def test_no_unused_imports():
    files = scanned_files()
    assert any(path.name == "verify.py" for path in files)
    found = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in files
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []
