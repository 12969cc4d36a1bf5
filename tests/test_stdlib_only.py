"""The runtime stays stdlib-only: numpy and sympy may be installed, but
hopfkit imports nothing outside the standard library."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import hopfkit

PACKAGE = Path(hopfkit.__file__).resolve().parent


def _absolute_imports(path):
    """The top-level name of every absolute import in the module at ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_absolute_import_is_in_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    outside = {(p.name, name) for p in sources for name in _absolute_imports(p)
               if name not in sys.stdlib_module_names}
    assert outside == set()


def test_the_cli_imports_with_numpy_and_sympy_blocked():
    # a module set to None in sys.modules raises ImportError when imported
    code = ('import sys; sys.modules["numpy"] = sys.modules["sympy"] = None; '
            'import hopfkit.cli')
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
