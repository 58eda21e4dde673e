"""Documentation integrity: intra-repo links resolve, CLI examples are real.

Three drift guards, all cheap enough for tier-1:

* every relative markdown link (and same-file anchor) in the repo's
  documentation points at something that exists — CI's docs job runs this
  file, so a renamed doc or dropped heading fails the build;
* every markdown path a docstring or comment under ``src/``, ``tests/`` or
  ``benchmarks/`` cites resolves from the repo root or ``docs/`` — code
  cannot point readers at a deleted doc;
* every ``--flag`` used in a documented ``python -m repro <cmd>`` example
  is a real option of that subcommand's parser — the docs cannot describe
  a CLI that no longer exists.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.__main__ import _build_parser

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The documentation set under the link gate: repo-level markdown + docs/.
DOC_FILES = sorted(
    [
        *REPO_ROOT.glob("*.md"),
        *(REPO_ROOT / "docs").glob("*.md"),
    ]
)

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_FENCE = re.compile(r"```[a-z]*\n(.*?)```", re.DOTALL)
#: A markdown path as code cites it: ``docs/report.md``, ``README.md``.
_MD_PATH = re.compile(r"[\w./-]*[\w-]\.md\b")


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
