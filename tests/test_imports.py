"""What importing the package loads."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import gridpatterns


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; every process and spawned pool worker
    # imports the package, so a stray scipy import costs each of them
    src = str(Path(gridpatterns.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, gridpatterns.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert out.stdout.strip() == "[]"


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, annotations included."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_no_unused_imports():
    # __init__.py imports names only to re-export them, so it is left out
    package = Path(gridpatterns.__file__).resolve().parent
    unused = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py" and (names := _unused_imports(path.read_text()))
    }
    assert unused == {}


def _importers(*modules: str) -> list[str]:
    """Modules of the package that import one of ``modules`` or a submodule or name of one."""
    found = set()
    for path in Path(gridpatterns.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # relative imports resolve inside the package
                base = ".".join(filter(None, ["gridpatterns" if node.level else "", node.module]))
                names = [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name == m or name.startswith(m + ".") for name in names for m in modules):
                found.add(path.name)
    return sorted(found)


def test_only_lines_reads_and_writes_csv():
    # every table goes through lines.read_table and lines.write_table
    assert _importers("csv") == ["lines.py"]


def test_only_evaluation_starts_a_pool():
    # generation, calibration and synth run in one process: only evaluate's
    # whole repetitions pay for a worker
    assert _importers("concurrent.futures", "multiprocessing") == ["evaluation.py"]


def _dotted(node: ast.expr) -> str:
    """``a.b.c`` for a chain of attributes on a name, else ''."""
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def test_only_rng_calls_numpy_random():
    # rng.py derives every stream, so seeds cannot drift between two
    # derivations; annotations such as np.random.Generator are not calls
    package = Path(gridpatterns.__file__).resolve().parent
    callers = {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and _dotted(node.func).startswith(("np.random.", "numpy.random."))
    }
    assert sorted(callers) == ["rng.py"]


def test_every_open_names_utf8_or_binary():
    # text files are UTF-8 whatever the locale's default encoding
    package = Path(gridpatterns.__file__).resolve().parent
    loose = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) != "open":
                continue
            options = [*node.args, *(kw.value for kw in node.keywords if kw.arg == "mode")]
            binary = any(isinstance(arg, ast.Constant) and "b" in str(arg.value) for arg in options[1:])
            utf8 = any(kw.arg == "encoding" and getattr(kw.value, "value", None) == "utf-8" for kw in node.keywords)
            if not (binary or utf8):
                loose.append(f"{path.name}:{node.lineno}")
    assert loose == []


def test_every_public_name_has_a_caller():
    # a public function or class that only tests call is code to delete: each
    # must be read by the package outside __init__.py, read by a demo, or
    # named in the README
    package = Path(gridpatterns.__file__).resolve().parent
    root = Path(__file__).resolve().parents[1]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    demos = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted((root / "demos").glob("*.py"))]
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in [*(tree for path, tree in trees.items() if path.name != "__init__.py"), *demos]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    readme = (root / "README.md").read_text(encoding="utf-8")
    uncalled = [
        f"{path.name}:{node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in read
        and not re.search(rf"\b{node.name}\b", readme)
    ]
    assert uncalled == []
