"""A map's form is decided in the kernel: no module of the package but
``linmap`` builds a ``LinMap(...)`` directly; the others go through
``from_terms``, ``from_cols`` and the kernel's operations."""
import ast
from pathlib import Path

import hopfkit

PACKAGE = Path(hopfkit.__file__).resolve().parent


def _direct_builds(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id == "LinMap"
                    or isinstance(f, ast.Attribute) and f.attr == "LinMap"):
                yield node.lineno


def test_only_linmap_calls_the_map_constructor():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    assert list(_direct_builds(PACKAGE / "linmap.py"))
    found = {(p.name, line) for p in sources if p.name != "linmap.py"
             for line in _direct_builds(p)}
    assert found == set()
