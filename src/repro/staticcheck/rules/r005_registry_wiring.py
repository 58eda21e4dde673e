"""R005 — registry wiring: registered components must be imported.

Components self-register at import time (``@BTB_REGISTRY.register(...)``,
``@PREFETCHER_REGISTRY.register(...)``).  The contract that makes
"registration" mean "availability" is that each package's ``__init__``
imports every module that registers something; a module left out of the
``__init__`` defines a component that exists on disk but never appears in
the registry, and the failure mode is an unknown-name error naming a
component that is plainly right there in the source tree.

The rule flags any module containing a registration decorator — a
``*_REGISTRY.register`` attribute or a bare ``register_*`` name — whose
package ``__init__`` (when it is part of the scan) does not import it,
directly (``import pkg.mod``, ``from pkg import mod``, ``from .mod import
X``) or by symbol (``from pkg.mod import X``).
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.staticcheck.astutil import decorator_names
from repro.staticcheck.model import Finding, PackageGraph, ParsedModule

RULE_ID = "R005"


def _is_registration_decorator(name: str) -> bool:
    parts = name.split(".")
    if parts[-1].startswith("register_"):
        return True
    return (
        len(parts) >= 2
        and parts[-1] == "register"
        and "REGISTRY" in parts[-2].upper()
    )


def _registration_line(module: ParsedModule) -> int:
    """Line of the first registration decorator, or 0 when there is none."""
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if any(_is_registration_decorator(name) for name in decorator_names(node)):
            return node.lineno
    return 0


def _imported_modules(init: ParsedModule) -> Set[str]:
    """Dotted module names the ``__init__`` imports, relative imports
    resolved against its package."""
    # ``repro.branch.__init__`` resolves level-1 imports against
    # ``repro.branch``.
    own_package = init.name.rsplit(".", 1)[0]
    imported: Set[str] = set()
    for node in ast.walk(init.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                parts = own_package.split(".")
                if node.level - 1 >= len(parts):
                    continue
                kept = parts[: len(parts) - (node.level - 1)]
                base = ".".join(kept)
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            if base:
                imported.add(base)
            for alias in node.names:
                if base:
                    imported.add(f"{base}.{alias.name}")
                else:
                    imported.add(alias.name)
    return imported


def check_registry_wiring(package: PackageGraph) -> Iterator[Finding]:
    """Modules registering components must be imported by their package."""
    for module in package:
        if module.is_package_init:
            continue
        line = _registration_line(module)
        if line == 0:
            continue
        init = package.package_init(module.package)
        if init is None:
            # Top-level module or package scanned without its __init__;
            # there is no wiring contract to check.
            continue
        if module.name in _imported_modules(init):
            continue
        if module.allows(line, RULE_ID):
            continue
        yield Finding(
            rule=RULE_ID,
            path=module.relpath,
            line=line,
            symbol=module.name,
            message=(
                f"module registers components but {init.relpath} never "
                "imports it; its registrations are unreachable"
            ),
        )
