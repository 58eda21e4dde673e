"""Data model of the analyzer: parsed modules and findings.

A lint run parses every module of the target tree once into a
:class:`ParsedModule` (source, AST, inline-suppression map) and hands the
whole :class:`PackageGraph` to each rule — cross-module rules (cache-key
closure, registry wiring) need the global view, single-module rules just
iterate.  Findings are plain data the CLI renders one per line.
"""

from __future__ import annotations

import ast
import contextlib
import io
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

#: Inline suppression comments: ``# staticcheck: allow[R001]`` (or a
#: comma-separated list) on the offending line waives those rules there.
_ALLOW_PREFIX = "staticcheck: allow["


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    symbol: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} [{self.symbol}] {self.message}"


def _allow_map(source: str) -> Dict[int, Set[str]]:
    """Map line number -> rule IDs waived by an inline allow comment."""
    allowed: Dict[int, Set[str]] = {}
    # The ast parse already succeeded; comments are best-effort.
    with contextlib.suppress(tokenize.TokenError):
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            text = token.string.lstrip("#").strip()
            if not text.startswith(_ALLOW_PREFIX) or not text.endswith("]"):
                continue
            rules = text[len(_ALLOW_PREFIX):-1]
            names = {rule.strip() for rule in rules.split(",") if rule.strip()}
            if names:
                allowed.setdefault(token.start[0], set()).update(names)
    return allowed


@dataclass
class ParsedModule:
    """One parsed source file of the lint target."""

    path: Path
    #: Path relative to the scan root, with ``/`` separators (stable in
    #: findings across platforms and checkouts).
    relpath: str
    #: Dotted module name relative to the scan root (``repro.core.frontend``
    #: when scanning ``src/repro``; fixture trees get fixture-local names).
    name: str
    source: str
    tree: ast.Module
    allow: Dict[int, Set[str]] = field(default_factory=dict)

    @property
    def package(self) -> str:
        """Dotted name of the package containing this module."""
        if self.name.endswith(".__init__"):
            return self.name.rsplit(".", 1)[0].rpartition(".")[0]
        return self.name.rpartition(".")[0]

    @property
    def is_package_init(self) -> bool:
        return self.path.name == "__init__.py"

    def allows(self, line: int, rule: str) -> bool:
        return rule in self.allow.get(line, ())


def enclosing_symbol(
    module: ParsedModule, node: ast.AST
) -> str:
    """Qualified name of the innermost function/class containing ``node``.

    Computed lazily by walking the tree (modules are small); falls back to
    ``<module>`` for top-level statements.
    """
    target_line = getattr(node, "lineno", None)
    if target_line is None:
        return "<module>"
    best: Optional[Tuple[int, str]] = None

    def visit(scope: ast.AST, prefix: str) -> None:
        nonlocal best
        for child in ast.iter_child_nodes(scope):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                qualname = f"{prefix}{child.name}"
                end = getattr(child, "end_lineno", child.lineno)
                if child.lineno <= target_line <= (end or child.lineno):
                    best = (child.lineno, qualname)
                    visit(child, f"{qualname}.")
            else:
                visit(child, prefix)

    visit(module.tree, "")
    return best[1] if best is not None else "<module>"


@dataclass
class PackageGraph:
    """Every parsed module of one lint target, plus the scan root."""

    root: Path
    modules: List[ParsedModule]

    def __iter__(self) -> Iterator[ParsedModule]:
        return iter(self.modules)

    def module_named(self, name: str) -> Optional[ParsedModule]:
        for module in self.modules:
            if module.name == name:
                return module
        return None

    def package_init(self, package: str) -> Optional[ParsedModule]:
        """The ``__init__`` module of a dotted package name, if scanned."""
        return self.module_named(f"{package}.__init__")


def parse_tree(root: Path, *, module_prefix: str = "") -> PackageGraph:
    """Parse every ``*.py`` under ``root`` (or ``root`` itself for a file).

    ``module_prefix`` seeds the dotted names (``"repro"``-rooted scans pass
    the package name; fixture scans leave it empty).  Files that fail to
    parse raise — a lint run over unparsable source has nothing true to say.
    """
    root = root.resolve()
    if root.is_file():
        paths = [root]
        base = root.parent
    else:
        paths = sorted(root.rglob("*.py"))
        base = root
    modules: List[ParsedModule] = []
    for path in paths:
        if "__pycache__" in path.parts:
            continue
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        relpath = path.relative_to(base).as_posix()
        dotted = relpath[:-3].replace("/", ".")  # strip ".py"
        if module_prefix:
            dotted = f"{module_prefix}.{dotted}" if dotted != "__init__" else (
                f"{module_prefix}.__init__"
            )
        modules.append(
            ParsedModule(
                path=path,
                relpath=relpath,
                name=dotted,
                source=source,
                tree=tree,
                allow=_allow_map(source),
            )
        )
    return PackageGraph(root=root, modules=modules)
