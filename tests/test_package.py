"""The shipped package: its public API, and no code that only tests run."""

import ast
import os
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import cspmon

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class TestPublicApi:
    def test_lists_no_module_and_no_duplicate(self):
        assert len(set(cspmon.__all__)) == len(cspmon.__all__)
        for name in cspmon.__all__:
            assert not isinstance(getattr(cspmon, name), types.ModuleType), name

    def test_star_import_runs_clean_under_warnings_as_errors(self):
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-c",
             "from cspmon import *; print(len([n for n in dir() if not n.startswith('_')]))"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert int(proc.stdout) == len(cspmon.__all__)

    def test_readme_lists_exactly_the_public_names(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
        # Each bullet is "- Heading: `name`, ...", continued on indented lines.
        bullets = re.findall(r"^- [^:]*:(.*(?:\n  .*)*)", section, re.MULTILINE)
        listed = [name for bullet in bullets for name in re.findall(r"`(\w+)`", bullet)]
        assert len(set(listed)) == len(listed)
        assert sorted(listed) == sorted(cspmon.__all__)


def _public_definitions(stmt: ast.stmt) -> list[str]:
    """The public names a top-level statement defines: a function, a class or a constant."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [
            node.id
            for target in targets
            for node in ast.walk(target)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        ]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def _names_read(node: ast.AST) -> set[str]:
    """Every bare name and attribute name that ``node`` reads."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def unused_public_definitions(package: Path, readers: Path, exported) -> list[str]:
    """``module.name`` for each public top-level definition in ``package`` that
    is not ``exported`` and that no other statement of the package, and no
    file in ``readers``, reads.  Name-based, so it errs towards passing."""

    def parse(path):
        return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    statements = [
        (path.stem, stmt, _names_read(stmt))
        for path in sorted(package.glob("*.py"))
        for stmt in parse(path).body
    ]
    read_outside = set().union(*(_names_read(parse(path)) for path in readers.glob("*.py")))
    unused = []
    for module, stmt, _ in statements:
        for name in _public_definitions(stmt):
            if name in exported or name in read_outside:
                continue
            if not any(name in read for _, other, read in statements if other is not stmt):
                unused.append(f"{module}.{name}")
    return unused


class TestShippedCode:
    def test_no_public_definition_only_tests_use(self):
        # What only tests use belongs in tests/conftest.py.
        assert unused_public_definitions(SRC / "cspmon", ROOT / "perfbench", cspmon.__all__) == []

    def test_flags_a_test_only_helper_put_back(self, tmp_path):
        package = tmp_path / "cspmon"
        shutil.copytree(SRC / "cspmon", package)
        with open(package / "terms.py", "a", encoding="utf-8") as f:
            f.write("\n\ndef is_closed(term: Term) -> bool:\n    return not term._free\n")
        found = unused_public_definitions(package, ROOT / "perfbench", cspmon.__all__)
        assert found == ["terms.is_closed"]
