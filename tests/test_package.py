"""The runtime stays standard-library only.

Every import in the package is relative or names a standard-library module,
and pyproject.toml declares no dependencies.  Both are read from the files:
the modules are parsed with ast, never imported, and pyproject.toml is read
as text, since tomllib is not in the standard library before Python 3.11.
"""

import ast
import sys
from pathlib import Path

import dgkernel

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def non_stdlib_imports(package: Path):
    """(file, module, line) of each absolute import in the package whose
    top-level module is not in the standard library."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [(path.name, module, node.lineno) for module in modules
                      if module.partition(".")[0] not in sys.stdlib_module_names]
    return found


def declared_dependencies(pyproject: str):
    """The value of `dependencies` in the [project] table, as written, or
    None if the table has no such key."""
    table = None
    for line in pyproject.splitlines():
        line = line.strip()
        if line.startswith("["):
            table = line
        elif table == "[project]" and line.partition("=")[0].strip() == "dependencies":
            return line.partition("=")[2].strip()
    return None


class TestStandardLibraryOnly:
    def test_the_package_imports_only_the_standard_library(self):
        assert non_stdlib_imports(Path(dgkernel.__file__).parent) == []

    def test_the_project_declares_no_dependencies(self):
        assert declared_dependencies(PYPROJECT.read_text()) == "[]"

    def test_the_check_finds_a_planted_import(self, tmp_path):
        (tmp_path / "planted.py").write_text(
            "from __future__ import annotations\n"
            "import os.path, numpy\n"
            "from . import zlinalg\n"
            "from .complexes import Complex\n"
            "from hypothesis.strategies import integers\n"
            "def f():\n    import sympy\n")
        assert non_stdlib_imports(tmp_path) == [
            ("planted.py", "numpy", 2), ("planted.py", "hypothesis.strategies", 5),
            ("planted.py", "sympy", 7)]

    def test_the_check_reads_the_project_table(self):
        assert declared_dependencies(
            '[project]\nname = "x"\ndependencies = ["numpy"]\n') == '["numpy"]'
        assert declared_dependencies('[project]\ndependencies = [\n  "numpy",\n]\n') == "["
        assert declared_dependencies(
            '[project]\nname = "x"\n[tool.x]\ndependencies = []\n') is None
