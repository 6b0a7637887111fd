#!/usr/bin/env python3
"""Docstring and export lint gate for the public API surface.

Walks every module under ``src/repro`` with the ``ast`` module (no
imports, so it is fast and side-effect-free) and fails when a *public*
module or class lacks a docstring.  Public means: the module's path
has no underscore-prefixed component except ``__init__``/``__main__``,
and the class name has no leading underscore.

The repository treats docstrings as the first line of documentation —
docs/architecture.md points readers at module docstrings for detail —
so a missing one is a docs regression and CI fails on it.

It also fails when a name in a module's ``__all__`` is not bound at
that module's top level (by a definition, an assignment or an import):
deleting a definition must take its export with it.

Usage:
    python tools/doccheck.py            # report + exit 1 on violations
    python tools/doccheck.py --list     # machine-readable one-per-line
"""

from __future__ import annotations

import ast
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


def is_public_module(path: pathlib.Path) -> bool:
    return all(
        not part.startswith("_") or part in ("__init__.py", "__main__.py")
        for part in path.relative_to(SRC.parent).parts
    )


def iter_violations():
    """Yield ``(path, lineno, kind, name)`` for every missing docstring."""
    for path in sorted(SRC.rglob("*.py")):
        if not is_public_module(path):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        relative = path.relative_to(REPO)
        if ast.get_docstring(tree) is None:
            yield relative, 1, "module", ".".join(
                path.relative_to(SRC.parent).with_suffix("").parts
            )
        for node in ast.walk(tree):
            if (isinstance(node, ast.ClassDef)
                    and not node.name.startswith("_")
                    and ast.get_docstring(node) is None):
                yield relative, node.lineno, "class", node.name


def bound_names(statements: list[ast.stmt]) -> set[str]:
    """Names the *statements* bind at their own level, looking into
    compound statements but not into function or class bodies."""
    names: set[str] = set()
    for node in statements:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                names.update(n.id for n in ast.walk(target)
                             if isinstance(n, ast.Name))
        for field in ("body", "orelse", "finalbody", "handlers"):
            names |= bound_names(getattr(node, field, []))
    return names


def iter_stale_exports():
    """Yield ``(path, lineno, "export", name)`` for every ``__all__``
    entry its module does not bind."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                bound = bound_names(tree.body)
                for entry in getattr(node.value, "elts", []):
                    if entry.value not in bound:
                        yield (path.relative_to(REPO), entry.lineno,
                               "export", entry.value)


def main(argv: list[str]) -> int:
    violations = list(iter_violations())
    stale = list(iter_stale_exports())
    if "--list" in argv:
        for path, lineno, kind, name in violations + stale:
            print(f"{path}:{lineno}:{kind}:{name}")
        return 1 if violations or stale else 0
    if violations:
        print(f"doccheck: {len(violations)} public name(s) missing "
              f"docstrings:\n")
        for path, lineno, kind, name in violations:
            print(f"  {path}:{lineno}: {kind} {name}")
        print("\nEvery public module and class under src/repro must carry "
              "a docstring\n(see docs/architecture.md for the bar these "
              "are held to).")
    if stale:
        print(f"doccheck: {len(stale)} __all__ name(s) not bound in "
              f"their module:\n")
        for path, lineno, _kind, name in stale:
            print(f"  {path}:{lineno}: {name}")
    if violations or stale:
        return 1
    print("doccheck: all public modules and classes are documented, and "
          "every __all__ name is bound")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
