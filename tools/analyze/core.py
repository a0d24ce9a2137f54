"""simlint core: violations, suppressions, file model and the lint driver.

The driver walks every Python file under ``src/`` of the repository root,
parses each once, runs the per-file rules (SIM001/SIM003/SIM005/SIM006/SIM007) and the
project-level rules (SIM002 call-graph purity, SIM004 doc coverage), then
filters the result through the per-line suppression comments.

Suppression syntax (one line, same line as the finding)::

    something_suspicious()  # simlint: disable=SIM001 -- why this is safe

The justification after ``--`` is mandatory: a disable comment without one
is reported as **SIM000** at the same line, so every suppression in the tree
documents itself.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

#: Every rule code this package can emit (SIM000 is the meta-rule that a
#: suppression must carry a justification; it cannot itself be suppressed).
RULE_CODES = (
    "SIM000", "SIM001", "SIM002", "SIM003", "SIM004", "SIM005", "SIM006", "SIM007",
)

_DISABLE_RE = re.compile(
    r"#\s*simlint:\s*disable=(?P<codes>SIM\d{3}(?:\s*,\s*SIM\d{3})*)"
    r"(?:\s*--\s*(?P<why>\S.*))?"
)


@dataclass(frozen=True, order=True)
class Violation:
    """One finding: a rule that fired at a line of a file.

    Ordered by ``(path, line, code)`` so reports are stable however the
    rules ran; ``path`` is repository-root-relative (posix separators).
    """

    path: str
    line: int
    code: str
    message: str

    def render(self) -> str:
        """The one-line CI-greppable form: ``file:line: SIMxxx message``."""
        return f"{self.path}:{self.line}: {self.code} {self.message}"


@dataclass(frozen=True)
class Suppression:
    """One ``# simlint: disable=...`` comment: which codes, and why."""

    line: int
    codes: tuple[str, ...]
    justified: bool


@dataclass
class SourceFile:
    """One parsed Python file plus its lint metadata."""

    path: Path
    relpath: str
    source: str
    tree: Optional[ast.Module]
    parse_error: Optional[str]
    suppressions: dict[int, Suppression] = field(default_factory=dict)

    def suppressed(self, line: int, code: str) -> bool:
        """True when ``code`` is disabled (with or without a reason) at ``line``."""
        entry = self.suppressions.get(line)
        return entry is not None and code in entry.codes


def _parse_suppressions(source: str) -> dict[int, Suppression]:
    """Collect the per-line disable comments of one file."""
    suppressions: dict[int, Suppression] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _DISABLE_RE.search(text)
        if match is None:
            continue
        codes = tuple(code.strip() for code in match.group("codes").split(","))
        suppressions[lineno] = Suppression(
            line=lineno, codes=codes, justified=match.group("why") is not None
        )
    return suppressions


def load_source_file(path: Path, root: Path) -> SourceFile:
    """Read and parse one file (a parse failure becomes a finding, not a crash)."""
    source = path.read_text(encoding="utf-8")
    relpath = path.relative_to(root).as_posix()
    tree: Optional[ast.Module] = None
    parse_error: Optional[str] = None
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:  # pragma: no cover - ruff/compileall gate first
        parse_error = f"could not parse: {exc.msg} (line {exc.lineno})"
    return SourceFile(
        path=path,
        relpath=relpath,
        source=source,
        tree=tree,
        parse_error=parse_error,
        suppressions=_parse_suppressions(source),
    )


def collect_files(root: Path) -> list[SourceFile]:
    """Every Python file under ``<root>/src``, parsed, in path order."""
    src = root / "src"
    if not src.is_dir():
        return []
    return [
        load_source_file(path, root)
        for path in sorted(src.rglob("*.py"))
        if "__pycache__" not in path.parts
    ]


def _suppression_findings(files: Iterable[SourceFile]) -> list[Violation]:
    """SIM000: every disable comment must carry a ``-- justification``."""
    findings: list[Violation] = []
    for source_file in files:
        for suppression in source_file.suppressions.values():
            if not suppression.justified:
                findings.append(
                    Violation(
                        path=source_file.relpath,
                        line=suppression.line,
                        code="SIM000",
                        message=(
                            "suppression without a justification; write "
                            "'# simlint: disable="
                            + ",".join(suppression.codes)
                            + " -- <why this is safe>'"
                        ),
                    )
                )
    return findings


def _apply_suppressions(
    findings: Iterable[Violation], files: dict[str, SourceFile]
) -> list[Violation]:
    """Drop findings whose line carries a matching disable comment."""
    kept: list[Violation] = []
    for violation in findings:
        source_file = files.get(violation.path)
        if source_file is not None and source_file.suppressed(
            violation.line, violation.code
        ):
            continue
        kept.append(violation)
    return kept


def run_lint(
    root: Path, select: Optional[Iterable[str]] = None
) -> list[Violation]:
    """Run every rule over the repository at ``root`` and return the findings.

    ``select`` restricts the report to the given rule codes (SIM000 — the
    justification meta-rule — always runs).  Findings are sorted by
    ``(path, line, code)`` and already filtered through the per-line
    suppression comments.
    """
    from tools.analyze.doccheck import check_doc_coverage
    from tools.analyze.purity import check_selection_purity
    from tools.analyze.rules import FILE_RULES

    files = collect_files(root)
    by_relpath = {source_file.relpath: source_file for source_file in files}

    findings: list[Violation] = []
    for source_file in files:
        if source_file.parse_error is not None:
            findings.append(
                Violation(source_file.relpath, 1, "SIM000", source_file.parse_error)
            )
            continue
        for rule in FILE_RULES:
            findings.extend(rule(source_file))
    findings.extend(check_selection_purity(files))
    findings.extend(check_doc_coverage(root))

    findings = _apply_suppressions(findings, by_relpath)
    findings.extend(_suppression_findings(files))
    if select is not None:
        wanted = set(select) | {"SIM000"}
        findings = [violation for violation in findings if violation.code in wanted]
    return sorted(findings)
