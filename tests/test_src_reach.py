"""src/spinadapt keeps what the CLI and the benchmark run.

Every module-level function and class of the package, outside __init__.py,
must be named somewhere other than its own definition: elsewhere in
src/spinadapt (an __init__.py re-export does not count) or in bench/*.py,
whose tracer looks functions up by the strings of its LAYERS table.  A
definition that only the tests name belongs in tests/references.py.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spinadapt"


def _names(node: ast.AST) -> set[str]:
    """What node names: Name ids, attribute names, imported names and
    string constants."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def _unreached(package: dict[str, str], outside: list[str]) -> list[str]:
    """'module.name' of each top-level def or class of the `package`
    sources ({module: source}) that no other top-level statement of them
    and no `outside` source names."""
    named = set().union(*(_names(ast.parse(src)) for src in outside))
    statements = [(module, stmt) for module, src in package.items()
                  for stmt in ast.parse(src).body]
    uses = [(stmt, _names(stmt)) for _, stmt in statements]
    missing = []
    for module, stmt in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        if stmt.name in named:
            continue
        if not any(stmt.name in seen for other, seen in uses
                   if other is not stmt):
            missing.append(f"{module}.{stmt.name}")
    return missing


def test_every_package_definition_is_reached():
    package = {path.stem: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    outside = [path.read_text() for path in sorted((ROOT / "bench").glob("*.py"))]
    assert _unreached(package, outside) == []


def test_reach_check_sees_what_only_names_itself():
    package = {
        "a": "def used():\n    return helper()\n\n"
             "def helper():\n    return 1\n\n"
             "def recursive(n):\n    return recursive(n - 1)\n\n"
             "class Lonely:\n    pass\n",
        "b": "from .a import used\n\n"
             "def traced():\n    pass\n",
    }
    assert _unreached(package, ["LAYERS = {('b', 'traced'): 'x'}"]) == \
        ["a.recursive", "a.Lonely"]
