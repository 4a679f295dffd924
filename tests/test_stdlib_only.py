"""The package imports nothing outside the standard library."""

import ast
import pathlib
import sys

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1]
                  / "src" / "idealtri").glob("*.py"))


def test_every_import_is_relative_or_stdlib():
    assert SOURCES
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (
                    path.name, name)
