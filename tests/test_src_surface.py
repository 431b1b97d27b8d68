"""Every public function and class in src/seqcast is used by the program.

A public top-level function or class that nothing but tests references is
test code living in the package, or dead code: it belongs in tests/ or
nowhere. A name counts as used when another module of src/seqcast, its own
module beyond its definition, or the benchmark under bench/ names it.
"""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import seqcast

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "seqcast"


def _names_used(path: Path) -> Counter:
    """How often each identifier is referenced in a file (definitions excluded)."""
    used: Counter = Counter()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias):
            used[node.name.rsplit(".", 1)[-1]] += 1
    return used


def _public_definitions(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [n.name for n in tree.body if isinstance(n, kinds) and not n.name.startswith("_")]


def test_every_public_name_has_a_caller_outside_tests():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    used = {path: _names_used(path) for path in modules}
    bench = sum((_names_used(p) for p in (ROOT / "bench").rglob("*.py")), Counter())

    unused = []
    for path in modules:
        for name in _public_definitions(path):
            elsewhere = sum(counts[name] for other, counts in used.items() if other != path)
            if not (used[path][name] or elsewhere or bench[name]):
                unused.append(f"{path.stem}.{name}")
    assert unused == [], "public names only tests can use; move them into tests/"


def test_the_cli_loads_every_module_of_the_package():
    # a module the program never imports serves only tests: it belongs in tests/
    probe = "import sys, seqcast.cli; print(*(m for m in sys.modules if m.startswith('seqcast.')))"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=PACKAGE.parent, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    modules = {f"seqcast.{p.stem}" for p in PACKAGE.glob("*.py")} - {"seqcast.__init__"}
    assert set(done.stdout.split()) == modules - {"seqcast.__main__"}


def test_the_package_states_the_version_pyproject_declares():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
    assert declared and seqcast.__version__ == declared.group(1)
