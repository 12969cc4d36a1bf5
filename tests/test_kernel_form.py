"""A map's form is decided in the kernel: no module of the package but
``linmap`` builds a ``LinMap(...)`` directly; the others go through
``from_terms``, ``from_cols`` and the kernel's operations, and reach into
``linmap``'s private names only where listed here."""
import ast
from pathlib import Path

import hopfkit

PACKAGE = Path(hopfkit.__file__).resolve().parent

# module -> the private names of ``linmap`` it may import
PRIVATE_READS = {
    ("factories.py", "_terms"),
    ("post_hopf.py", "_terms"),
    ("structures.py", "_terms"),
    ("solve.py", "_gather"),
}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _direct_builds(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id == "LinMap"
                    or isinstance(f, ast.Attribute) and f.attr == "LinMap"):
                yield node.lineno


def _private_reads(path):
    """The ``_``-prefixed names ``path`` takes from ``linmap``: imported by
    name, or read as an attribute of the module."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "linmap":
            yield from (a.name for a in node.names if a.name.startswith("_"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "linmap" and node.attr.startswith("_")):
            yield node.attr


def test_only_linmap_calls_the_map_constructor():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    assert list(_direct_builds(PACKAGE / "linmap.py"))
    found = {(p.name, line) for p in sources if p.name != "linmap.py"
             for line in _direct_builds(p)}
    assert found == set()


def test_only_the_listed_modules_reach_into_the_kernel():
    found = {(p.name, name) for p in sorted(PACKAGE.glob("*.py")) if p.name != "linmap.py"
             for name in _private_reads(p)}
    assert found == PRIVATE_READS
