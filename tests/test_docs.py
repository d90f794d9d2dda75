"""The docs stay true: links resolve, examples run, ghosts stay gone.

Documentation that references files which do not exist (this repo once
cited a ``DESIGN.md`` that was never written) is worse than no
documentation — so (1) every relative markdown link in the curated docs
must resolve to a real file, (2) every ``>>>`` example in ``docs/*.md``
must execute verbatim, (3) the swept ghost references must not
come back, and (4) every fully qualified ``repro.*`` cross-reference in
a ``src/`` docstring names a live object.
"""

import doctest
import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOCS = sorted((REPO / "docs").glob("*.md"))
CHECKED = [REPO / "README.md", REPO / "ROADMAP.md", *DOCS]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_EXTERNAL = ("http://", "https://", "mailto:")


def _relative_links(path: Path):
    inside_code = False
    for line in path.read_text().splitlines():
        if line.lstrip().startswith("```"):
            inside_code = not inside_code
            continue
        if inside_code:
            continue
        for target in _LINK.findall(line):
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            yield target


def test_docs_exist():
    names = {path.name for path in DOCS}
    assert {"index.md", "architecture.md", "service.md"} <= names


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: p.name)
def test_relative_links_resolve(path):
    broken = []
    for target in _relative_links(path):
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{path.name} has dead links: {broken}"


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
def test_doc_examples_run(path):
    parser = doctest.DocTestParser()
    examples = parser.get_examples(path.read_text(), name=path.name)
    if not examples:
        pytest.skip(f"{path.name} has no doctests")
    runner = doctest.DocTestRunner(verbose=False)
    test = parser.get_doctest(
        path.read_text(), globs={}, name=path.name, filename=str(path),
        lineno=0,
    )
    result = runner.run(test)
    assert result.failed == 0, f"{result.failed} doctest failure(s) in {path.name}"


def test_architecture_examples_cover_the_headline():
    # the triangle doctest must keep demonstrating ℓ2 < AGM
    text = (REPO / "docs" / "architecture.md").read_text()
    assert ">>> round(lp_bound(stats, query=q).bound, 6)" in text


@pytest.mark.parametrize("tree", ["src", "benchmarks"])
def test_no_ghost_references(tree):
    offenders = []
    for path in (REPO / tree).rglob("*.py"):
        if "__pycache__" in path.parts:
            continue
        text = path.read_text()
        for ghost in ("DESIGN.md", "EXPERIMENTS.md"):
            if ghost in text:
                offenders.append(f"{path.relative_to(REPO)}: {ghost}")
    assert not offenders, f"stale doc references: {offenders}"


_XREF = re.compile(
    r":(?:func|meth|class|mod|attr|data|exc):`~?(repro(?:\.\w+)+)`"
)


def _resolves(dotted: str) -> bool:
    """Import the longest module prefix of ``dotted``, then walk the
    rest as attributes."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def test_docstring_cross_references_resolve():
    # a docstring naming a deleted primitive fails here, not in a reader
    refs = [
        (path.relative_to(REPO), target)
        for path in sorted((REPO / "src").rglob("*.py"))
        for target in _XREF.findall(path.read_text())
    ]
    assert len(refs) > 100
    dead = sorted(
        {f"{path}: {target}" for path, target in refs if not _resolves(target)}
    )
    assert not dead, f"src/ cites objects that do not exist: {dead}"
