"""Every module-level function and class of the program has a caller.

A definition in ``src/mixcast`` must be referenced from another definition
in ``src/`` or from ``benchmarks/``: code that only tests reach is deleted,
not kept.  Names, attributes, imports and string constants (the
benchmark's traced run wraps attributes by name) count as references.  Every
name a module exports in ``__all__`` is defined.
"""

import ast
from pathlib import Path

import mixcast

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mixcast"

# Public names no other program file calls, each with its reason.
ALLOWED = {
    "count_parameters": "public API: the parameter count the paper reports per configuration",
    "parse_report": "public API: reads back the report.jsonl files that emit_report writes",
}


def referenced_names(node) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.split(".")[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def unreferenced_definitions() -> list[str]:
    files = sorted(SRC.glob("*.py")) + sorted((ROOT / "benchmarks").rglob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in files}
    # References from each top-level statement, so that a definition's own
    # body does not count for it.
    statements = [(stmt, referenced_names(stmt)) for tree in trees.values()
                  for stmt in tree.body]
    missing = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in trees[path].body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not any(stmt.name in names for other, names in statements if other is not stmt):
                missing.append(f"{path.stem}.{stmt.name}")
    return missing


def test_every_definition_has_a_caller_outside_tests():
    unused = [name for name in unreferenced_definitions()
              if name.split(".")[1] not in ALLOWED]
    assert not unused, f"reached only from tests (delete, or allow with a reason): {unused}"


def test_allowed_names_are_defined():
    defined = {stmt.name for path in SRC.glob("*.py")
               for stmt in ast.parse(path.read_text()).body
               if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}
    assert set(ALLOWED) <= defined


def test_exported_names_are_defined():
    for module in (mixcast, mixcast.tensor):
        stale = [name for name in module.__all__ if not hasattr(module, name)]
        assert not stale, f"{module.__name__}.__all__ names undefined: {stale}"
