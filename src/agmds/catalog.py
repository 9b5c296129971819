"""Catalog persistence and bit-exact code export.

Catalog files are JSON lines, one entry per discovered code.  Entry ids
are content hashes over every field except the creation timestamp, so
re-running a recipe with the same seed deduplicates across machines.

The matrix-text export format round-trips bit-exactly::

    field 5^1:
    n 3 k 2
    row: 1 1 1
    row: 0 2 4
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

from .code import CodeReport, LinearCode
from .errors import IOFailure
from .field import parse_field_text
from .linalg import FFMatrix


# -- generator matrix export ---------------------------------------------------


def export_matrix_text(code: LinearCode) -> str:
    F = code.field
    lines = [f"field {F.spec_text()}", f"n {code.n} k {code.k}"]
    for row in code.gen.data:
        lines.append("row: " + " ".join(F.element_text(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_matrix_text(text: str) -> LinearCode:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2 or not lines[0].startswith("field "):
        raise IOFailure("matrix text must start with 'field' and 'n/k' lines")
    F = parse_field_text(lines[0][len("field "):])
    header = lines[1].split()
    if (len(header) != 4 or header[0] != "n" or header[2] != "k"
            or not (header[1].isdigit() and header[3].isdigit())):
        raise IOFailure(f"malformed size line {lines[1]!r}")
    n, k = int(header[1]), int(header[3])
    rows = []
    for ln in lines[2:]:
        if not ln.startswith("row:"):
            raise IOFailure(f"malformed row line {ln!r}")
        rows.append([F.parse_element(t) for t in ln[len("row:"):].split()])
    if len(rows) != k or any(len(r) != n for r in rows):
        raise IOFailure("row count or width disagrees with the header")
    return LinearCode(F, FFMatrix(F, rows, n))


def export_code_json(code: LinearCode) -> dict:
    F = code.field
    return {
        "field": F.spec_text(),
        "n": code.n,
        "k": code.k,
        "matrix": [[F.element_text(v) for v in row] for row in code.gen.data],
    }


def code_from_json(doc: dict) -> LinearCode:
    try:
        F = parse_field_text(doc["field"])
        rows = [[F.parse_element(t) for t in row] for row in doc["matrix"]]
        return LinearCode(F, FFMatrix(F, rows, doc["n"]))
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise IOFailure(f"malformed code document: {exc!r}") from None


# -- catalog entries ----------------------------------------------------------------


def report_to_dict(report: CodeReport) -> dict:
    return asdict(report)


def report_from_dict(doc: dict) -> CodeReport:
    return CodeReport(**doc)


@dataclass(frozen=True, slots=True)
class CatalogEntry:
    """One discovered code: construction inputs, invariants, exact matrix."""

    id: str
    field: str
    curve: str | None
    N: int | None
    group: tuple[int, int] | None
    construction: dict
    n: int
    k: int
    m: int | None
    report: dict
    points: list | None
    matrix: list
    created: str | None = None

    def to_json_dict(self, with_created: bool = True) -> dict:
        doc = {
            "id": self.id,
            "field": self.field,
            "curve": self.curve,
            "N": self.N,
            "group": list(self.group) if self.group else None,
            "construction": self.construction,
            "n": self.n,
            "k": self.k,
            "m": self.m,
            "report": self.report,
            "points": self.points,
            "matrix": self.matrix,
        }
        if with_created and self.created:
            doc["created"] = self.created
        return doc


def content_id(doc: dict) -> str:
    """Hash over the canonical JSON of everything except id and created."""
    body = {k: v for k, v in doc.items() if k not in ("id", "created")}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def make_entry(
    code: LinearCode,
    report: CodeReport,
    construction: dict,
    curve_text: str | None = None,
    n_points: int | None = None,
    group: tuple[int, int] | None = None,
    m: int | None = None,
    points_text: list | None = None,
    timestamp: bool = True,
) -> CatalogEntry:
    F = code.field
    doc = {
        "field": F.spec_text(),
        "curve": curve_text,
        "N": n_points,
        "group": list(group) if group else None,
        "construction": construction,
        "n": code.n,
        "k": code.k,
        "m": m,
        "report": report_to_dict(report),
        "points": points_text,
        "matrix": [[F.element_text(v) for v in row] for row in code.gen.data],
    }
    return CatalogEntry(
        id=content_id(doc),
        field=doc["field"],
        curve=curve_text,
        N=n_points,
        group=group,
        construction=construction,
        n=code.n,
        k=code.k,
        m=m,
        report=doc["report"],
        points=points_text,
        matrix=doc["matrix"],
        created=datetime.now(timezone.utc).isoformat() if timestamp else None,
    )


def load_entries(path) -> list[CatalogEntry]:
    """Read a JSON-lines catalog, skipping corrupt lines with a warning."""
    entries = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                    entries.append(
                        CatalogEntry(
                            id=doc["id"],
                            field=doc["field"],
                            curve=doc.get("curve"),
                            N=doc.get("N"),
                            group=tuple(doc["group"]) if doc.get("group") else None,
                            construction=doc.get("construction", {}),
                            n=doc["n"],
                            k=doc["k"],
                            m=doc.get("m"),
                            report=doc.get("report", {}),
                            points=doc.get("points"),
                            matrix=doc["matrix"],
                            created=doc.get("created"),
                        )
                    )
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    print(
                        f"warning: skipping corrupt catalog line {lineno}: {exc}",
                        file=sys.stderr,
                    )
    except FileNotFoundError:
        return []
    except OSError as exc:
        raise IOFailure(f"cannot read catalog {path}: {exc}") from exc
    return entries


def append_entry(path, entry: CatalogEntry) -> bool:
    """Append one entry; duplicates (by id) are skipped.  Returns whether
    the file changed."""
    existing = {e.id for e in load_entries(path)}
    if entry.id in existing:
        return False
    try:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry.to_json_dict(), sort_keys=True) + "\n")
    except OSError as exc:
        raise IOFailure(f"cannot write catalog {path}: {exc}") from exc
    return True
