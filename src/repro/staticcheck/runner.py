"""Lint runner: parse targets, run every rule over them."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Union

from repro.staticcheck.model import Finding, PackageGraph, parse_tree


def parse_target(path: Union[str, Path]) -> PackageGraph:
    """Parse one lint target (package directory, plain directory or file).

    A directory containing an ``__init__.py`` is scanned as a package: its
    directory name seeds the dotted module names (``src/repro`` lints as
    ``repro.*``), which is what lets the wiring and scope rules see the
    same names imports use.  A target that does not exist, or holds no
    ``*.py`` module, raises :class:`ValueError`: linting nothing must not
    read as a clean tree.
    """
    root = Path(path).resolve()
    if not root.exists():
        raise ValueError(f"no such file or directory: {path}")
    prefix = ""
    if root.is_dir() and (root / "__init__.py").exists():
        prefix = root.name
    package = parse_tree(root, module_prefix=prefix)
    if not package.modules:
        raise ValueError(f"no *.py module under {path}")
    return package


def run_lint(paths: Iterable[Union[str, Path]]) -> List[Finding]:
    """Run every rule over every target and return the findings, sorted.

    Sorting is by (path, line, rule, message), so output is stable across
    runs and platforms.  The rule table is imported here, not at module
    level: ``import repro`` loads this package for ``@hot_loop`` and must
    not load the rules with it.
    """
    from repro.staticcheck.rules import RULES

    packages = [parse_target(path) for path in paths]
    findings: List[Finding] = []
    for package in packages:
        for rule in RULES:
            findings.extend(rule(package))
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings
