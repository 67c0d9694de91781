"""Docs consistency: every cross-reference in docstrings resolves.

Three module docstrings cited a ``DESIGN.md`` that historically did not
exist; this test pins the invariant the other way round: any mention of
``DESIGN.md §N`` or ``README.md`` anywhere under ``src/`` must resolve
to the actual document (and section), every relative markdown link
inside the documents must point at a real file, every ``repro ...``
command shown in a fenced example must parse against the real argparse
tree, every fully qualified Sphinx cross-reference must name an
importable object, and the README's HTTP API table must list exactly
the routes the service registers.
"""

from __future__ import annotations

import importlib
import re
import shlex
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: every prose document whose examples and links we pin
DOCUMENTS = ["README.md", "DESIGN.md", "ROADMAP.md", "docs/OPERATIONS.md"]

SECTION_REF = re.compile(r"DESIGN\.md\s*§(\d+)")
HEADING = re.compile(r"^##\s*§(\d+)\b", re.MULTILINE)
MD_LINK = re.compile(r"\[[^\]]*\]\(([^)#]+)(?:#[^)]*)?\)")
# Any fence opener (language tag or not) — restricting to ```bash would
# desynchronize the pairing: an unmatched opener makes closing fences
# look like openers and prose like code.
FENCED = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)
# A role target may wrap across docstring lines; whitespace is dropped.
SPHINX_ROLE = re.compile(r":(?:class|func|meth|mod|data|attr):`~?(repro\.[^`]+)`")


def _python_sources() -> list[Path]:
    return sorted(SRC.rglob("*.py"))


def _example_commands(doc: Path) -> "list[str]":
    """Every ``repro ...`` command line in ``doc``'s fenced code blocks,
    with backslash continuations joined and comments/background ``&``
    stripped — exactly what a reader would paste into a shell."""
    commands = []
    for block in FENCED.findall(doc.read_text(encoding="utf-8")):
        logical, pending = [], ""
        for line in block.splitlines():
            pending += line.rstrip()
            if pending.endswith("\\"):
                pending = pending[:-1]
                continue
            logical.append(pending.strip())
            pending = ""
        for line in logical:
            line = re.sub(r"\s+#.*$", "", line).rstrip("& ").strip()
            if line.startswith(("repro ", "$ repro ")):
                commands.append(line.lstrip("$ "))
    return commands


def test_design_and_readme_exist():
    assert (REPO / "DESIGN.md").is_file()
    assert (REPO / "README.md").is_file()


def test_every_design_section_reference_resolves():
    headings = set(HEADING.findall((REPO / "DESIGN.md").read_text(encoding="utf-8")))
    assert headings, "DESIGN.md defines no '## §N' section anchors"
    dangling = []
    for path in _python_sources() + [REPO / doc for doc in DOCUMENTS]:
        for section in SECTION_REF.findall(path.read_text(encoding="utf-8")):
            if section not in headings:
                dangling.append(f"{path.relative_to(REPO)} → DESIGN.md §{section}")
    assert not dangling, f"dangling DESIGN.md section references: {dangling}"


def _import_target(target: str) -> None:
    """Import the longest module prefix of ``target``, then walk the rest
    as attributes (AttributeError when the object does not exist)."""
    parts = target.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr)
        return


def test_every_sphinx_role_target_resolves():
    """``:class:`~repro.x.Y``` and friends in src/, README.md and
    DESIGN.md name objects that exist — deleting a class must take its
    cross-references with it."""
    dangling = []
    for path in _python_sources() + [REPO / "README.md", REPO / "DESIGN.md"]:
        for raw in SPHINX_ROLE.findall(path.read_text(encoding="utf-8")):
            target = re.sub(r"\s+", "", raw)
            try:
                _import_target(target)
            except AttributeError:
                dangling.append(f"{path.relative_to(REPO)} → {target}")
    assert not dangling, f"dangling Sphinx cross-references: {dangling}"


def test_every_document_mention_resolves():
    missing = []
    for path in _python_sources():
        text = path.read_text(encoding="utf-8")
        for doc in re.findall(r"\b(DESIGN\.md|README\.md|ROADMAP\.md)\b", text):
            if not (REPO / doc).is_file():
                missing.append(f"{path.relative_to(REPO)} → {doc}")
    assert not missing, f"docstrings reference missing documents: {missing}"


PACKAGES = sorted(
    ".".join(p.parent.relative_to(SRC).parts)
    for p in (SRC / "repro").rglob("__init__.py")
)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    """Every name in a package's ``__all__`` exists: deleting an object
    must take its export with it."""
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", ())
    dangling = [name for name in exported if not hasattr(module, name)]
    assert not dangling, f"{package}.__all__ names missing objects: {dangling}"
    assert len(set(exported)) == len(exported), f"{package}.__all__ repeats a name"


@pytest.mark.parametrize("doc", DOCUMENTS)
def test_markdown_links_resolve(doc):
    path = REPO / doc
    text = path.read_text(encoding="utf-8")
    broken = []
    for target in MD_LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if not (path.parent / target).exists():
            broken.append(target)
    assert not broken, f"{doc} has broken relative links: {broken}"


def test_readme_documents_the_tier1_verify_command():
    text = (REPO / "README.md").read_text(encoding="utf-8")
    assert "PYTHONPATH=src python -m pytest -x -q" in text


@pytest.mark.parametrize("doc", DOCUMENTS)
def test_documented_cli_examples_parse(doc):
    """Every ``repro ...`` line a reader could paste from a fenced
    example must survive the real argparse tree — docs cannot show
    flags the CLI does not have."""
    from repro.cli import build_parser

    commands = _example_commands(REPO / doc)
    if doc in ("README.md", "docs/OPERATIONS.md"):
        assert commands, f"{doc} shows no repro command examples"
    parser = build_parser()
    bad = []
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            bad.append(command)
    assert not bad, f"{doc} shows commands the CLI rejects: {bad}"


ENDPOINT_ROW = re.compile(r"^\|\s*(GET|POST)\s*\|\s*`([^`]+)`\s*\|", re.MULTILINE)


def test_readme_endpoint_table_matches_registered_routes():
    """The README's HTTP API reference lists exactly the routes the
    service registers (repro.service.http.ROUTES) — no drift either
    way."""
    from repro.service.http import ROUTES

    text = (REPO / "README.md").read_text(encoding="utf-8")
    documented = set(ENDPOINT_ROW.findall(text))
    registered = {(method, path) for method, path, _ in ROUTES}
    assert documented == registered, (
        f"README table vs ROUTES — undocumented: {registered - documented}, "
        f"stale rows: {documented - registered}"
    )


def test_readme_documents_the_json_status_flag():
    text = (REPO / "README.md").read_text(encoding="utf-8")
    assert "repro study status" in text and "--json" in text


def test_readme_mentions_every_top_level_module():
    text = (REPO / "README.md").read_text(encoding="utf-8")
    modules = sorted(
        p.parent.name for p in (SRC / "repro").glob("*/__init__.py")
    )
    for module in modules:
        assert f"repro.{module}" in text, f"README module map is missing repro.{module}"


class TestCIConsistency:
    """The CI workflow, `make ci`, and the docs must agree (DESIGN.md §8)."""

    def test_workflow_exists_and_runs_the_tier1_gate(self):
        workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
        assert "make test" in workflow
        assert "make bench" in workflow
        assert "continue-on-error: true" in workflow  # bench job never gates
        assert "benchmarks/check_regression.py" in workflow
        assert "benchmarks/output/*.json" in workflow  # artifact upload
        for python in ('"3.10"', '"3.12"'):
            assert python in workflow, f"CI matrix is missing {python}"
        assert "cache: pip" in workflow

    def test_make_ci_mirrors_the_workflow(self):
        """Every command `make ci` runs must appear verbatim as a
        workflow step, so contributors reproduce CI locally."""
        makefile = (REPO / "Makefile").read_text(encoding="utf-8")
        workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
        recipe = re.search(r"^ci:\n((?:\t.+\n)+)", makefile, re.MULTILINE)
        assert recipe, "Makefile has no `ci` target"
        commands = [line.strip() for line in recipe.group(1).splitlines()]
        assert commands, "`make ci` runs nothing"
        # `make test` is the first command's alias in the workflow; the
        # rest must appear verbatim.
        assert commands[0] == "PYTHONPATH=src python -m pytest -x -q"
        for command in commands[1:]:
            assert command in workflow, f"`make ci` step not in workflow: {command}"

    def test_readme_documents_make_ci_and_the_workflow(self):
        text = (REPO / "README.md").read_text(encoding="utf-8")
        assert "make ci" in text
        assert ".github/workflows/ci.yml" in text


def test_every_intree_sampler_implements_native_ask_tell():
    """DESIGN.md §10 documents all samplers as native ask/tell citizens:
    ``Sampler.ask`` is abstract, so every exported sampler must be
    concrete."""
    from repro.blackbox import samplers
    from repro.blackbox.samplers.base import Sampler

    in_tree = [
        cls
        for cls in (getattr(samplers, name) for name in samplers.__all__)
        if cls is not Sampler
    ]
    assert len(in_tree) >= 5
    for cls in in_tree:
        assert not cls.__abstractmethods__, (
            f"{cls.__name__} leaves {sorted(cls.__abstractmethods__)} abstract"
        )
