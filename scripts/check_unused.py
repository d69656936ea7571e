"""Fail on dead code in ``src/``: unused imports and unreferenced defs.

Usage: ``python scripts/check_unused.py`` (from anywhere; exits 1 and
lists every finding, or prints ``ok``).  Standard library ``ast`` only.

Two rules, both over the Python files under ``src/``:

* **unused import** — a name an ``import`` binds that nothing in its
  scope reads.  The scope is the enclosing function, or the module for
  a module- or class-level import.  Package ``__init__.py`` files
  re-export, so their imports are exempt, as is a name the module lists
  in ``__all__`` and ``from __future__`` imports.
* **unreferenced definition** — a module- or class-level ``def`` or
  ``class`` whose name no file under ``src/``, ``tests/``,
  ``benchmarks/``, ``scripts/``, ``perfbench/`` or ``examples/`` reads,
  as a bare name, an attribute or an imported name, outside its own
  body, and that its module does not export in ``__all__``.  Dunder
  methods are exempt: the data model calls them.

There is no inline escape.  A name that only reflection reaches goes in
``REFLECTED`` below, with the place that looks it up.
"""

from __future__ import annotations

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks", "scripts", "perfbench", "examples")

#: (module path under src/, name) pairs that are reached only by name
#: lookup at run time, never by a reference the scan can see.
REFLECTED = {
    # PEP 562 module hook: Python calls it for a missing attribute.
    ("repro/resilience/__init__.py", "__getattr__"),
}

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _exported(tree: ast.Module) -> dict[str, ast.Constant]:
    """Name -> its string entry in a module-level ``__all__``."""
    names: dict[str, ast.Constant] = {}
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [getattr(node, "target", None)])
        if any(getattr(t, "id", None) == "__all__" for t in targets):
            names.update((n.value, n) for n in ast.walk(node)
                         if isinstance(n, ast.Constant)
                         and isinstance(n.value, str))
    return names


def _reads(scope: ast.AST) -> set[str]:
    """Every bare name read anywhere inside ``scope``."""
    return {node.id for node in ast.walk(scope)
            if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}


def _own(scope: ast.AST):
    """The nodes of ``scope`` outside the functions nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(path: pathlib.Path, tree: ast.Module) -> list[str]:
    if path.name == "__init__.py":
        return []
    exported = _exported(tree)
    found = []
    for scope in [tree, *(n for n in ast.walk(tree)
                          if isinstance(n, _SCOPES))]:
        imports = [node for node in _own(scope)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"]
        reads = _reads(scope) if imports else set()
        for node in imports:
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in reads and name not in exported:
                    found.append((node.lineno, name))
    return [f"{path.relative_to(ROOT)}:{line}: unused import {name!r}"
            for line, name in sorted(found)]


def _definitions(tree: ast.Module):
    """(name, node, in_class) of every module- and class-level def and
    class, conditional ones (``if``/``try`` at those levels) included."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    stack = [(node, False) for node in tree.body]
    while stack:
        node, in_class = stack.pop()
        if isinstance(node, kinds):
            yield node.name, node, in_class
            if isinstance(node, ast.ClassDef):
                stack.extend((child, True) for child in node.body)
        elif isinstance(node, (ast.If, ast.Try)):
            stack.extend((child, in_class)
                         for child in ast.iter_child_nodes(node))


def _references(tree: ast.Module) -> dict[str, list[ast.AST]]:
    """Name -> the nodes that read it (bare, attribute, import, or an
    ``__all__`` entry: the module's declared interface)."""
    refs = {name: [node] for name, node in _exported(tree).items()}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                         ast.Store):
            refs.setdefault(node.id, []).append(node)
        elif isinstance(node, ast.Attribute):
            refs.setdefault(node.attr, []).append(node)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                refs.setdefault(alias.name, []).append(node)
    return refs


def unreferenced(trees: dict[pathlib.Path, ast.Module]) -> list[str]:
    refs: dict[str, list[tuple[pathlib.Path, ast.AST]]] = {}
    for path, tree in trees.items():
        for name, nodes in _references(tree).items():
            refs.setdefault(name, []).extend((path, n) for n in nodes)
    src = ROOT / "src"
    found = []
    for path, tree in trees.items():
        if src not in path.parents:
            continue
        module = path.relative_to(src).as_posix()
        for name, node, in_class in _definitions(tree):
            if in_class and name.startswith("__") and name.endswith("__"):
                continue  # the data model calls these
            if (module, name) in REFLECTED:
                continue
            span = range(node.lineno, node.end_lineno + 1)
            if not any(ref_path != path or ref.lineno not in span
                       for ref_path, ref in refs.get(name, ())):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}: "
                             f"{name!r} is never referenced")
    return found


def main() -> int:
    trees = {path: _parse(path)
             for top in SCANNED
             for path in sorted((ROOT / top).rglob("*.py"))}
    findings = []
    for path, tree in trees.items():
        if ROOT / "src" in path.parents:
            findings += unused_imports(path, tree)
    findings += unreferenced(trees)
    for line in findings:
        print(line)
    if findings:
        print(f"{len(findings)} dead-code finding(s)", file=sys.stderr)
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
