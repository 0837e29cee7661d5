import ast
from pathlib import Path

import delsarte

SOURCES = sorted(Path(delsarte.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression of it reads.

    `import a.b` binds `a`; `from __future__` imports bind no name.
    """
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_unused_imports_detector():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from math import gcd, prod\n"
        "def f(x: prod) -> int:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["gcd", "js"]


def test_every_package_import_is_used():
    assert len(SOURCES) >= 9
    unused = {path.name: names for path in SOURCES if (names := unused_imports(path.read_text()))}
    assert unused == {}
