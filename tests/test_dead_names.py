"""Every name defined or imported in `src/dpchroma` has a reader.

A module-level name that nothing in the package reads is dead code: tests
alone do not keep it alive.  A name counts as read when a top-level
statement other than its own definition loads it, imports it or reads it
as an attribute.  Four rules:

- a private name (`_name`) needs a reader in `src/`;
- a public name needs a reader in `src/`, unless the package exports it
  (`dpchroma.__all__`) or it is a `verify` suite, which `@_suite`
  registers by its decorator;
- an import needs a load of the name it binds in its own module; the
  package's `__init__.py` reads its imports by exporting them;
- a method or property of a class (not a dunder) needs an attribute read
  in `src/` outside its own body: one that only the tests call belongs in
  `tests/oracles.py`.
"""

import ast
from collections import Counter
from pathlib import Path

import dpchroma

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


def _is_suite(node):
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_suite"
        for d in getattr(node, "decorator_list", ())
    )


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _unread_definitions(public):
    statements = [(module, node) for module, tree in _modules() for node in tree.body]
    reads = [_read(node) for _, node in statements]
    dead = []
    for i, (module, node) in enumerate(statements):
        for name in _defined(node):
            if name.startswith("__") or name.startswith("_") == public:
                continue
            if public and (name in dpchroma.__all__ or _is_suite(node)):
                continue
            if not any(name in r for j, r in enumerate(reads) if j != i):
                dead.append(f"{module}:{node.lineno} {name}")
    return dead


def test_every_private_module_name_is_read_in_src():
    assert _unread_definitions(public=False) == []


def test_every_public_module_name_is_exported_or_read_in_src():
    assert _unread_definitions(public=True) == []


def test_every_import_is_read_by_its_module():
    unread = []
    for module, tree in _modules():
        loads = {
            sub.id for sub in ast.walk(tree)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        if module == "__init__.py":
            loads.update(dpchroma.__all__)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in loads:
                        unread.append(f"{module}:{node.lineno} {bound}")
    assert unread == []


def _attribute_reads(node):
    """How often each name is read as an attribute inside `node`: a method
    is reached only through its object, so a bare load of the same name (a
    local variable, say) does not read it."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def test_every_method_is_read_in_src():
    modules = list(_modules())
    reads = sum((_attribute_reads(tree) for _, tree in modules), Counter())
    unread = [
        f"{module}:{node.lineno} {cls.name}.{node.name}"
        for module, tree in modules
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("__")
        and reads[node.name] == _attribute_reads(node)[node.name]
    ]
    assert unread == []
