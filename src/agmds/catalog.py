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

import fcntl
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, fields, replace
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


def _code_from_texts(field_text: str, n, k, rows) -> LinearCode:
    """The code over the field named by field_text whose generator is rows:
    k rows of n element texts each, as both import formats give them."""
    F = parse_field_text(field_text)
    if type(n) is not int or type(k) is not int:
        raise IOFailure(f"n and k must be integers, got {n!r} and {k!r}")
    if len(rows) != k or any(type(r) is not list or len(r) != n for r in rows):
        raise IOFailure("row count or width disagrees with the header")
    return LinearCode(F, FFMatrix(F, [[F.parse_element(t) for t in r] for r in rows], n))


def parse_matrix_text(text: str) -> LinearCode:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2 or not lines[0].startswith("field "):
        raise IOFailure("matrix text must start with 'field' and 'n/k' lines")
    field_text = lines[0][len("field "):]
    header = lines[1].split()
    if (len(header) != 4 or header[0] != "n" or header[2] != "k"
            or not (header[1].isdigit() and header[3].isdigit())):
        raise IOFailure(f"malformed size line {lines[1]!r}")
    rows = []
    for ln in lines[2:]:
        if not ln.startswith("row:"):
            raise IOFailure(f"malformed row line {ln!r}")
        rows.append(ln[len("row:"):].split())
    return _code_from_texts(field_text, int(header[1]), int(header[3]), rows)


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
        return _code_from_texts(doc["field"], doc["n"], doc["k"], doc["matrix"])
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise IOFailure(f"malformed code document: {exc!r}") from None


# -- catalog entries ----------------------------------------------------------------


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
        """The entry's document, keyed by field name; created only if asked."""
        doc = {name: getattr(self, name) for name in _DOC_KEYS}
        doc["group"] = list(self.group) if self.group else None
        if with_created and self.created:
            doc["created"] = self.created
        return doc


_DOC_KEYS = tuple(f.name for f in fields(CatalogEntry) if f.name != "created")


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
) -> CatalogEntry:
    entry = CatalogEntry(
        id="",
        curve=curve_text,
        N=n_points,
        group=group,
        construction=construction,
        m=m,
        report=asdict(report),
        points=points_text,
        created=datetime.now(timezone.utc).isoformat(),
        **export_code_json(code),
    )
    return replace(entry, id=content_id(entry.to_json_dict()))


def _parse_line(raw: bytes, lineno: int) -> CatalogEntry | None:
    """The entry on one catalog line; None for a blank line, and None with
    a warning for a corrupt one (bad UTF-8, bad JSON, a missing field, a
    mistyped id or construction)."""
    try:
        line = raw.decode("utf-8").strip()
        if not line:
            return None
        doc = json.loads(line)
        if type(doc["id"]) is not str or type(doc.get("construction", {})) is not dict:
            raise TypeError("the id must be a string and the construction an object")
        return CatalogEntry(
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
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"warning: skipping corrupt catalog line {lineno}: {exc}", file=sys.stderr)
        return None


def _entries(data: bytes, needle: bytes = b""):
    """The entries on the catalog's lines, in file order.  Lines end at
    b"\\n" (a CRLF line keeps its CR, which parsing strips).  Only lines
    holding needle or a backslash are decoded, every line for the empty
    needle; a decoded corrupt line is skipped with a warning naming it."""
    for lineno, raw in enumerate(data.split(b"\n"), 1):
        if needle in raw or b"\\" in raw:
            entry = _parse_line(raw, lineno)
            if entry is not None:
                yield entry


def load_entries(path) -> list[CatalogEntry]:
    """Read a JSON-lines catalog, skipping corrupt lines with a warning.

    The file's bytes are read once under a shared lock, so a write in
    progress is never seen half done, and every line is decoded."""
    try:
        with open(path, "rb") as fh:
            fcntl.flock(fh, fcntl.LOCK_SH)
            data = fh.read()
    except FileNotFoundError:
        return []
    except OSError as exc:
        raise IOFailure(f"cannot read catalog {path}: {exc}") from exc
    return list(_entries(data))


def _holds_id(data: bytes, entry_id: str) -> bool:
    """Whether a line of the catalog's bytes parses to an entry with this id.

    Only a line holding the id's UTF-8 bytes or a backslash can: a JSON
    string decodes to the id either from its literal text or through an
    escape.  Other lines are not decoded, and bytes holding neither are
    not split into lines at all."""
    needle = entry_id.encode()
    if needle not in data and b"\\" not in data:
        return False
    return any(e.id == entry_id for e in _entries(data, needle))


def append_entry(path, entry: CatalogEntry) -> bool:
    """Append one entry unless a line already holds its id; returns whether
    the file changed.  The file's bytes are read once, and the check and
    the write run under one exclusive lock, so concurrent writers store
    each id once.  A last line left unterminated (a crashed write) is
    ended first, so the new entry gets a line of its own."""
    try:
        with open(path, "a+b") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            fh.seek(0)
            data = fh.read()
            if _holds_id(data, entry.id):
                return False
            line = json.dumps(entry.to_json_dict(), sort_keys=True).encode() + b"\n"
            fh.write(line if data[-1:] in (b"", b"\n") else b"\n" + line)
    except OSError as exc:
        raise IOFailure(f"cannot write catalog {path}: {exc}") from exc
    return True
