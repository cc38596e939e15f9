"""Every module-level private name in `src/dpchroma` has a reader in `src/`.

A private helper (`_name`) that nothing in the package reads is dead code:
tests alone do not keep it alive.  A name counts as read when a top-level
statement other than its own definition loads it, imports it or reads it
as an attribute.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dpchroma"


def _defined(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _read(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_every_private_module_name_is_read_in_src():
    statements = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        statements += [(path.name, node) for node in tree.body]
    reads = [_read(node) for _, node in statements]
    dead = []
    for i, (module, node) in enumerate(statements):
        for name in _defined(node):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in r for j, r in enumerate(reads) if j != i):
                dead.append(f"{module}:{node.lineno} {name}")
    assert dead == []
