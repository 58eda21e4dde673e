"""Documentation integrity: links resolve, CLI and script examples are real.

Six drift guards, all cheap enough for tier-1:

* every relative markdown link (and same-file anchor) in the repo's
  documentation points at something that exists — CI's docs job runs this
  file, so a renamed doc or dropped heading fails the build;
* every markdown path a docstring or comment under ``src/``, ``tests/`` or
  ``benchmarks/`` cites resolves from the repo root or ``docs/`` — code
  cannot point readers at a deleted doc;
* every ``--flag`` used in a documented ``python -m repro <cmd>`` example
  is a real option of that subcommand's parser — the docs cannot describe
  a CLI that no longer exists;
* every name an ``examples/*.py`` script imports from a ``repro`` module
  exists there — nothing else imports or runs the examples, so a deleted
  name would otherwise break one unnoticed;
* every keyword an example passes to a callable it imports from ``repro``
  is a parameter of that callable — the same guard for deleted keywords;
* every test the README, ``docs/`` or the verify skill cites — a
  ``tests/<file>.py::Class::test`` node id or a backticked ``test_*`` or
  ``Test*`` name — is defined in the test modules, parsed and not run
  (ROADMAP.md and CHANGES.md are history, and cite deleted tests).
"""

from __future__ import annotations

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

from repro.__main__ import _build_parser
from repro.sweep import run_sweep

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The documentation set under the link gate: repo-level markdown + docs/.
DOC_FILES = sorted(
    [
        *REPO_ROOT.glob("*.md"),
        *(REPO_ROOT / "docs").glob("*.md"),
    ]
)

#: The documents that describe the tree as it stands, under the citation
#: guard.
CITING_DOCS = [
    REPO_ROOT / "README.md",
    *sorted((REPO_ROOT / "docs").glob("*.md")),
    REPO_ROOT / ".claude/skills/verify/SKILL.md",
]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_FENCE = re.compile(r"```[a-z]*\n(.*?)```", re.DOTALL)
#: A markdown path as code cites it: ``docs/report.md``, ``README.md``.
_MD_PATH = re.compile(r"[\w./-]*[\w-]\.md\b")
#: A test module or node id as a document cites it: ``tests/test_sweep.py``,
#: ``tests/test_sweep.py::TestOneWritePath``.
_NODE_ID = re.compile(r"\b((?:tests|benchmarks)/[\w/]+\.py)((?:::\w+)*)")
#: A test cited by its name alone: ``test_warm_reuse_parity`` in backticks.
_TEST_NAME = re.compile(r"`(test_\w+|Test\w+)`")
_DEFINITION = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _anchors(path: Path) -> set:
    """GitHub-style anchor slugs of every heading in a markdown file."""
    slugs = set()
    for heading in _HEADING.findall(path.read_text(encoding="utf-8")):
        text = re.sub(r"`([^`]*)`", r"\1", heading.strip())
        slug = re.sub(r"[^\w\- ]", "", text.lower()).replace(" ", "-")
        slugs.add(slug)
    return slugs


def _intra_repo_links(path: Path):
    for target in _LINK.findall(path.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        yield target


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_markdown_links_resolve(doc):
    broken = []
    for target in _intra_repo_links(doc):
        file_part, _, anchor = target.partition("#")
        resolved = doc if not file_part else (doc.parent / file_part).resolve()
        if not resolved.exists():
            broken.append(f"{target} -> missing file {resolved}")
            continue
        if anchor and resolved.suffix == ".md" and anchor not in _anchors(resolved):
            broken.append(f"{target} -> no heading for anchor #{anchor}")
    assert not broken, f"{doc}: broken link(s): {broken}"


def test_markdown_paths_named_in_code_resolve():
    stale = []
    for tree in ("src", "tests", "benchmarks"):
        for source in sorted((REPO_ROOT / tree).rglob("*.py")):
            for name in sorted(set(_MD_PATH.findall(source.read_text(encoding="utf-8")))):
                if not any(
                    (base / name).exists() for base in (REPO_ROOT, REPO_ROOT / "docs")
                ):
                    stale.append(f"{source.relative_to(REPO_ROOT)}: {name}")
    assert not stale, f"code cites missing markdown file(s): {stale}"


def _definitions(body) -> dict:
    """``{name: its own definitions}`` for each class and function in ``body``."""
    return {
        node.name: _definitions(node.body) if isinstance(node, ast.ClassDef) else {}
        for node in body
        if isinstance(node, _DEFINITION)
    }


def test_cited_tests_exist():
    modules = {
        source.relative_to(REPO_ROOT).as_posix(): ast.parse(source.read_text(encoding="utf-8"))
        for tree in ("tests", "benchmarks")
        for source in (REPO_ROOT / tree).rglob("*.py")
    }
    names = {
        node.name
        for module in modules.values()
        for node in ast.walk(module)
        if isinstance(node, _DEFINITION)
    }
    cited, stale = 0, []
    for doc in CITING_DOCS:
        text = doc.read_text(encoding="utf-8")
        where = doc.relative_to(REPO_ROOT)
        for path, node_id in _NODE_ID.findall(text):
            cited += 1
            scope = _definitions(modules[path].body) if path in modules else None
            for name in node_id.split("::")[1:]:
                scope = scope.get(name) if scope is not None else None
            if scope is None:
                stale.append(f"{where}: {path}{node_id}")
        for name in _TEST_NAME.findall(text):
            cited += 1
            if name not in names:
                stale.append(f"{where}: {name}")
    assert cited  # the scan found the documents' citations
    assert not stale, f"documentation cites tests that do not exist: {stale}"


def test_every_doc_is_reachable_from_the_index():
    """docs/index.md is the TOC: every doc page must appear in it."""
    index = REPO_ROOT / "docs" / "index.md"
    listed = set(_intra_repo_links(index))
    for doc in (REPO_ROOT / "docs").glob("*.md"):
        if doc.name == "index.md":
            continue
        assert doc.name in listed, f"docs/index.md does not link {doc.name}"


def _documented_cli_flags():
    """(doc, subcommand, flag) for every flag in a documented CLI example."""
    out = []
    for doc in DOC_FILES:
        for block in _FENCE.findall(doc.read_text(encoding="utf-8")):
            # Join backslash-continued lines so multi-line examples parse.
            for line in block.replace("\\\n", " ").splitlines():
                match = re.search(r"python -m repro\s+(\w+)", line)
                if not match:
                    continue
                sub = match.group(1)
                for flag in re.findall(r"(--[\w-]+)", line):
                    out.append((doc.relative_to(REPO_ROOT), sub, flag))
    return out


def test_documented_cli_examples_use_real_flags():
    parser = _build_parser()
    actions = next(
        a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"
    )
    known = {
        name: {opt for action in sub._actions for opt in action.option_strings}
        for name, sub in actions.choices.items()
    }
    stale = []
    for doc, sub, flag in _documented_cli_flags():
        if sub not in known:
            stale.append(f"{doc}: unknown subcommand 'repro {sub}'")
        elif flag not in known[sub]:
            stale.append(f"{doc}: 'repro {sub}' has no flag {flag}")
    assert not stale, f"documentation drifted from the CLI: {stale}"


def test_example_imports_exist():
    """Parse each example (no workload runs) and resolve its repro imports."""
    missing = []
    for script in sorted((REPO_ROOT / "examples").glob("*.py")):
        for node in ast.walk(ast.parse(script.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                module = importlib.import_module(node.module)
                missing += [
                    f"{script.name}: {node.module}.{alias.name}"
                    for alias in node.names
                    if not hasattr(module, alias.name)
                ]
    assert not missing, f"examples import names that do not exist: {missing}"


def _example_keywords():
    """(script, name, callable, keyword) for every keyword an example passes
    to a callable it imports from a ``repro`` module (AST only, nothing runs)."""
    out = []
    for script in sorted((REPO_ROOT / "examples").glob("*.py")):
        tree = ast.parse(script.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    value = getattr(module, alias.name, None)
                    if callable(value):
                        imported[alias.asname or alias.name] = value
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                target = imported.get(node.func.id)
                if target is None:
                    continue
                out += [
                    (script.name, node.func.id, target, keyword.arg)
                    for keyword in node.keywords
                    if keyword.arg is not None  # a ``**mapping`` names no keyword
                ]
    return out


def _accepted_keywords(target) -> set:
    """The keyword names ``target`` takes; a ``**kwargs`` callable (the grid
    helpers) forwards the rest to :func:`repro.sweep.run_sweep`."""
    parameters = inspect.signature(target).parameters.values()
    names = {
        parameter.name
        for parameter in parameters
        if parameter.kind in (parameter.POSITIONAL_OR_KEYWORD, parameter.KEYWORD_ONLY)
    }
    if any(parameter.kind is parameter.VAR_KEYWORD for parameter in parameters):
        names |= _accepted_keywords(run_sweep)
    return names


def test_example_calls_use_real_keywords():
    keywords = _example_keywords()
    assert keywords  # the scan found the examples' calls
    stale = [
        f"{script}: {name}(..., {keyword}=...)"
        for script, name, target, keyword in keywords
        if keyword not in _accepted_keywords(target)
    ]
    assert not stale, f"examples pass keywords that do not exist: {stale}"
