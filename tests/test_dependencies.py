"""The package's only third-party runtime dependency is numpy."""

import ast
import sys
from pathlib import Path

import farecast

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "farecast"}


def absolute_imports(path: Path):
    """(line, top-level module) of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_src_imports_only_the_standard_library_and_numpy():
    sources = sorted(Path(farecast.__file__).parent.rglob("*.py"))
    assert len(sources) > 10
    foreign = [f"{path.name}:{line}: {module}" for path in sources
               for line, module in absolute_imports(path) if module not in ALLOWED]
    assert foreign == []
