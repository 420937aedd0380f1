"""Reachability checker: every module of the package is reached from the CLI.

Project-level rule ``unreachable-module``: walk the static import graph from
the console-script module :data:`ROOT_MODULE` and flag every module under
``src/<package>`` the walk never reaches.  Such a module runs only through
tests, benchmarks or a package re-export, so nothing the tool does depends on
it; it is either wired to a command or deleted.

The walk reads the AST only and follows these edges:

* every ``import`` statement, including function-level ones (the CLI
  imports lazily);
* ``from pkg import name`` goes to ``pkg`` and, through ``pkg/__init__.py``,
  to the module that defines ``name`` (or to the submodule ``pkg.name``);
* reaching a module reaches its parent packages, which Python executes;
* a package ``__init__``'s own imports are edges only for the names it uses
  in code other than imports and ``__all__`` -- so a registry such as
  ``CHECKERS`` counts, and a plain re-export does not.

A module kept on purpose carries a reasoned
``# repro-lint: disable=unreachable-module -- <why>`` directive in the
comment block above its first statement.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.devtools.analyzer import Checker, Finding, LintConfig

#: Directory holding the package, repo-relative.
SOURCE_ROOT = "src"
#: The console-script module every reachable module is imported from.
ROOT_MODULE = "repro.cli"

#: One import: (module, imported name or ``None``, name it binds locally).
_Import = Tuple[str, Optional[str], str]


def _module_index(source_root: Path, package: str) -> Dict[str, Path]:
    """Dotted module name -> file, for every module of the package."""
    index: Dict[str, Path] = {}
    for path in sorted((source_root / package).rglob("*.py")):
        parts = list(path.relative_to(source_root).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        index[".".join(parts)] = path
    return index


class _ImportGraph:
    def __init__(self, index: Dict[str, Path]) -> None:
        self.index = index
        self._trees: Dict[str, ast.Module] = {}
        self._imports: Dict[str, List[_Import]] = {}

    def tree(self, module: str) -> ast.Module:
        if module not in self._trees:
            path = self.index[module]
            self._trees[module] = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        return self._trees[module]

    def is_package(self, module: str) -> bool:
        return self.index[module].name == "__init__.py"

    def imports(self, module: str) -> List[_Import]:
        if module not in self._imports:
            found: List[_Import] = []
            for node in _statements(self.tree(module).body):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        bound = alias.asname or alias.name.partition(".")[0]
                        found.append((alias.name, None, bound))
                elif isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        found.append((node.module or "", alias.name, alias.asname or alias.name))
            self._imports[module] = found
        return self._imports[module]

    def resolve(self, module: str, name: Optional[str], seen: Set[str]) -> List[str]:
        """The in-package modules that ``from module import name`` loads."""
        if module not in self.index:
            return []
        if name is None:
            return [module]
        if self.is_package(module) and module not in seen:
            for source, imported, bound in self.imports(module):
                if bound == name:
                    target = self.resolve(source, imported, seen | {module})
                    return [module] + target
        submodule = f"{module}.{name}"
        return [module, submodule] if submodule in self.index else [module]

    def edges(self, module: str) -> List[str]:
        used = _names_used(self.tree(module)) if self.is_package(module) else None
        targets: List[str] = []
        for source, name, bound in self.imports(module):
            if used is None or bound in used:
                targets.extend(self.resolve(source, name, set()))
        return targets


def _statements(body: List[Any]) -> Iterator[Any]:
    """Every statement in ``body`` and the blocks nested in it.

    Imports are statements, so the walk skips expressions, which make up
    most of a module's nodes.
    """
    for statement in body:
        yield statement
        for block in ("body", "orelse", "finalbody", "handlers", "cases"):
            nested = getattr(statement, block, None)
            if isinstance(nested, list):
                yield from _statements(nested)


def _names_used(tree: ast.Module) -> Set[str]:
    """Names loaded by code other than imports and the ``__all__`` list."""
    used: Set[str] = set()
    for statement in tree.body:
        if isinstance(statement, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(statement, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in statement.targets
        ):
            continue
        used.update(node.id for node in ast.walk(statement) if isinstance(node, ast.Name))
    return used


def reachable_modules(index: Dict[str, Path], root_module: str) -> Set[str]:
    """Every module of ``index`` the import graph reaches from ``root_module``."""
    graph = _ImportGraph(index)
    reached: Set[str] = set()
    pending = [root_module]
    while pending:
        module = pending.pop()
        parts = module.split(".")
        for depth in range(1, len(parts) + 1):
            name = ".".join(parts[:depth])
            if name in index and name not in reached:
                reached.add(name)
                pending.extend(graph.edges(name))
    return reached


class ReachabilityChecker(Checker):
    name = "reachability"
    rules = ("unreachable-module",)

    def check_project(self, root: Path, config: LintConfig) -> List[Finding]:
        source_root = root / SOURCE_ROOT
        index = _module_index(source_root, ROOT_MODULE.partition(".")[0])
        reached = reachable_modules(index, ROOT_MODULE)
        findings: List[Finding] = []
        for module, path in sorted(index.items()):
            if module in reached:
                continue
            body = ast.parse(path.read_text(encoding="utf-8")).body
            findings.append(
                Finding(
                    rule="unreachable-module",
                    path=path.relative_to(root).as_posix(),
                    line=body[0].lineno if body else 1,
                    message=f"module '{module}' is not reachable from {ROOT_MODULE}",
                    hint="wire it to a command or delete it",
                )
            )
        return findings
