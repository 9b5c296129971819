"""No orphaned helpers: every private function or method defined in
src/agmds is referenced somewhere in src/agmds, as a name, an attribute or
an import, so deleting a caller cannot leave its helper behind."""

import ast
from pathlib import Path

import agmds

SRC = Path(agmds.__file__).parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_definitions_and_references():
    defined, referenced = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_private(node.name):
                    defined.append((node.name, f"{path.name}:{node.lineno}"))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return defined, referenced


def test_every_private_helper_is_referenced():
    defined, referenced = private_definitions_and_references()
    assert defined
    assert [where for name, where in defined if name not in referenced] == []
