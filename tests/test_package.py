"""The shipped package is what the program runs.

Every module file under src/thetalab is loaded by the command-line entry
point, so no module is reached only from the tests, and no module imports a
name it does not use (an import marked `# noqa: F401` on its first line is
kept on purpose).  `__init__.py` is left out of the second check: its
imports are the package's exports.
"""

import ast
import os
import subprocess
import sys

import pytest

import thetalab

PACKAGE_DIR = os.path.dirname(os.path.abspath(thetalab.__file__))
MODULE_FILES = sorted(f for f in os.listdir(PACKAGE_DIR) if f.endswith(".py"))


def test_the_cli_loads_every_module():
    code = ("import sys, thetalab.cli; "
            "print('\\n'.join(m for m in sys.modules if m.split('.')[0] == 'thetalab'))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE_DIR))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    loaded = set(run.stdout.split())
    expected = {"thetalab"} | {f"thetalab.{f[:-3]}" for f in MODULE_FILES
                               if f != "__init__.py"}
    assert loaded == expected


def _used_names(tree: ast.AST) -> set[str]:
    """Every bare name the module reads, quoted annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        notes = []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            notes = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes = [node.returns]
        for note in notes:
            for sub in ast.walk(note) if note is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    expr = ast.parse(sub.value, mode="eval")
                    used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement of `source` that nothing reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                out.append(f"line {node.lineno}: {bound}")
    return out


def test_unused_import_check():
    src = ("import math\nimport os.path\nfrom numpy import sqrt, pi\n"
           "from typing import Sequence\n\n"
           "def f(x: 'Sequence[float]') -> float:\n    return sqrt(os.sep)\n")
    assert unused_imports(src) == ["line 1: math", "line 3: pi"]
    assert unused_imports("import os  # noqa: F401\n") == []


@pytest.mark.parametrize("name", [f for f in MODULE_FILES if f != "__init__.py"])
def test_no_unused_import(name):
    with open(os.path.join(PACKAGE_DIR, name)) as fh:
        assert unused_imports(fh.read()) == []
