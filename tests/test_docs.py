"""Documentation contract tests.

The architecture/config documents are cross-referenced from the README and
promise complete coverage of the ``TempiConfig`` surface; these tests keep
both promises honest without depending on CI (which runs the same link
checker as a workflow step).
"""

from __future__ import annotations

import ast
import dataclasses
import re
import sys
from pathlib import Path

from repro.tempi.config import TempiConfig

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"
TOOLS = REPO / "tools"
SRC = REPO / "src" / "repro"


def test_docs_exist_and_are_cross_linked():
    readme = (REPO / "README.md").read_text()
    assert (DOCS / "ARCHITECTURE.md").exists()
    assert (DOCS / "CONFIG.md").exists()
    assert "docs/ARCHITECTURE.md" in readme
    assert "docs/CONFIG.md" in readme


def test_relative_links_resolve():
    """The same check CI runs: every relative Markdown link exists on disk."""
    sys.path.insert(0, str(TOOLS))
    try:
        import check_links
    finally:
        sys.path.remove(str(TOOLS))
    files = check_links.collect([str(REPO / "README.md"), str(DOCS)])
    assert check_links.broken_links(files) == []


def test_config_reference_covers_every_knob():
    """docs/CONFIG.md documents every ``TempiConfig`` field by name."""
    text = (DOCS / "CONFIG.md").read_text()
    for field in dataclasses.fields(TempiConfig):
        assert f"`{field.name}`" in text, f"knob {field.name!r} missing from docs/CONFIG.md"


def test_architecture_names_every_layer():
    text = (DOCS / "ARCHITECTURE.md").read_text()
    for layer in (
        "repro.mpi",
        "repro.tempi.interposer",
        "repro.tempi.plan",
        "repro.tempi.executor",
        "repro.tempi.progress",
        "repro.machine.nic",
        "repro.gpu",
    ):
        assert layer in text, f"layer {layer!r} missing from the architecture map"
    assert "Ialltoallv" in text  # the end-to-end lifecycle trace


def _class_members() -> dict[str, tuple[set[str], set[str]]]:
    """``name -> (base names, member names)`` of every class under ``src/repro``.

    Members are what the class body defines (methods, class-level names,
    annotated fields, nested classes) plus every ``self.attr =`` its methods
    assign.  Classes are matched by name, so two classes of one name pool
    their members.
    """
    classes: dict[str, tuple[set[str], set[str]]] = {}
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            bases, members = classes.setdefault(node.name, (set(), set()))
            for base in node.bases:
                if isinstance(base, (ast.Name, ast.Attribute)):
                    bases.add(base.id if isinstance(base, ast.Name) else base.attr)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    members.add(item.name)
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    for target in item.targets if isinstance(item, ast.Assign) else [item.target]:
                        members.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                ):
                    members.add(sub.attr)
    return classes


def _defines(classes, name: str, attr: str, seen=()) -> bool:
    bases, members = classes[name]
    return attr in members or any(
        _defines(classes, base, attr, seen + (name,))
        for base in bases
        if base in classes and base not in seen
    )


def test_backticked_class_attributes_exist():
    """Every backticked ``Class.attr`` in the README and ``docs/`` whose
    ``Class`` is defined under ``src/repro`` names something that class or a
    base of it defines — a renamed or deleted member leaves no stale prose."""
    classes = _class_members()
    checked, stale = 0, []
    for path in [REPO / "README.md", *sorted(DOCS.glob("*.md"))]:
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for span in re.findall(r"`([^`]+)`", line):
                match = re.match(r"([A-Z]\w*)\.(\w+)", span)
                if match is None or match[1] not in classes or match[2] in ("value", "name"):
                    continue
                checked += 1
                if not _defines(classes, match[1], match[2]):
                    stale.append(f"{path.relative_to(REPO)}:{lineno}: {match[0]}")
    assert checked > 0
    assert stale == []
