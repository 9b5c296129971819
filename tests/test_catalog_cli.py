"""Catalog persistence, exports, and the command-line front end."""

import fcntl
import json
import multiprocessing
import pathlib
import subprocess
import sys
import tempfile
import time
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from agmds import catalog, curve_make, field_make
from agmds.catalog import (
    append_entry,
    code_from_json,
    export_code_json,
    export_matrix_text,
    load_entries,
    make_entry,
    parse_matrix_text,
)
from agmds.cli import _RECIPES, dispatch
from agmds.errors import IOFailure
from agmds.code import build_code, invariant_report, LinearCode, min_distance, schur_square
from agmds.linalg import FFMatrix, rank
from agmds.recipes import rs_code

F5 = field_make(5)
F16 = field_make(2, 4)
F19 = field_make(19)
E_F5 = curve_make(F5, 1, (0, 0, 0, 0, 1))
PTS = [E_F5.point(0, 1), E_F5.point(2, 2), E_F5.point(4, 0)]


def _hand_code():
    return build_code(E_F5, PTS, 2)


# -- exports ------------------------------------------------------------------------


def test_matrix_text_frozen_bytes():
    text = export_matrix_text(_hand_code())
    assert text == "field 5^1:\nn 3 k 2\nrow: 1 1 1\nrow: 0 2 4\n"


def test_matrix_text_round_trip_is_byte_identical():
    text = export_matrix_text(_hand_code())
    again = export_matrix_text(parse_matrix_text(text))
    assert again == text

    ext = field_make(2, 4)
    code = LinearCode(ext, FFMatrix(ext, [[1, 7, 9], [0, 2, 15]]))
    text = export_matrix_text(code)
    assert export_matrix_text(parse_matrix_text(text)) == text


def test_empty_code_exports_header_only():
    code = LinearCode(F5, FFMatrix(F5, [], cols=4))
    text = export_matrix_text(code)
    assert text == "field 5^1:\nn 4 k 0\n"
    back = parse_matrix_text(text)
    assert (back.n, back.k) == (4, 0)


def test_json_export_round_trip():
    code = _hand_code()
    doc = export_code_json(code)
    back = code_from_json(doc)
    assert back.gen == code.gen


def _resized_text(text, dn, dk):
    """Matrix text whose size line claims n + dn and k + dk."""
    field_line, size_line, *rows = text.splitlines(keepends=True)
    _, n, _, k = size_line.split()
    return "".join([field_line, f"n {int(n) + dn} k {int(k) + dk}\n", *rows])


@st.composite
def full_rank_codes(draw):
    F = draw(st.sampled_from((F19, F16, field_make(3, 2))))
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, min(4, n)))
    rows = draw(st.lists(st.lists(st.integers(0, F.q - 1), min_size=n, max_size=n),
                         min_size=k, max_size=k))
    gen = FFMatrix(F, rows, n)
    assume(rank(gen) == k)
    return LinearCode(F, gen)


@given(code=full_rank_codes(),
       resize=st.sampled_from([(dn, dk) for dn in (-1, 0, 1) for dk in (-1, 0, 1) if dn or dk]))
@settings(max_examples=150, deadline=None)
def test_both_import_formats_agree(code, resize):
    doc, text = export_code_json(code), export_matrix_text(code)
    for back in (code_from_json(doc), parse_matrix_text(text)):
        assert back.field.spec_text() == code.field.spec_text()
        assert back.gen.data == code.gen.data
    dn, dk = resize
    messages = set()
    for parse, bad in ((code_from_json, dict(doc, n=code.n + dn, k=code.k + dk)),
                       (parse_matrix_text, _resized_text(text, dn, dk))):
        with pytest.raises(IOFailure) as exc:
            parse(bad)
        messages.add(str(exc.value))
    assert messages == {"row count or width disagrees with the header"}


# -- catalog -------------------------------------------------------------------------


def _entry():
    code = _hand_code()
    return make_entry(
        code,
        invariant_report(code),
        construction={"recipe": "coset", "params": {"q": 5}, "seed": 0},
        curve_text=E_F5.text(),
        n_points=6,
        group=(1, 6),
        m=2,
    )


def test_append_is_idempotent(tmp_path):
    path = tmp_path / "cat.jsonl"
    e = _entry()
    assert append_entry(path, e)
    size_after_first = path.read_text()
    assert not append_entry(path, e)
    assert path.read_text() == size_after_first
    assert len(load_entries(path)) == 1


def test_two_distinct_entries(tmp_path):
    path = tmp_path / "cat.jsonl"
    code = _hand_code()
    e1 = _entry()
    rep = build_code(E_F5, PTS, 1)
    e2 = make_entry(rep, invariant_report(rep), {"recipe": "coset"}, m=1)
    assert append_entry(path, e1) and append_entry(path, e2)
    loaded = load_entries(path)
    assert [e.id for e in loaded] == [e1.id, e2.id]
    assert loaded[0].matrix == [["1", "1", "1"], ["0", "2", "4"]]


def test_corrupt_line_skipped_with_warning(tmp_path, capsys):
    path = tmp_path / "cat.jsonl"
    append_entry(path, _entry())
    with open(path, "a") as fh:
        fh.write("{not json}\n")
    entries = load_entries(path)
    err = capsys.readouterr().err
    assert len(entries) == 1
    assert "corrupt" in err
    # a later append still works
    rep = build_code(E_F5, PTS, 1)
    assert append_entry(path, make_entry(rep, invariant_report(rep), {}))
    assert len(load_entries(path)) == 2


def test_entry_id_excludes_timestamp():
    e1, e2 = _entry(), _entry()
    assert e1.id == e2.id
    assert e1.to_json_dict(with_created=False) == e2.to_json_dict(with_created=False)


def test_catalog_round_trip_preserves_entry(tmp_path):
    path = tmp_path / "cat.jsonl"
    e = _entry()
    append_entry(path, e)
    loaded = load_entries(path)[0]
    assert loaded.to_json_dict() == e.to_json_dict()


def _line(entry, **dumps):
    return json.dumps(entry.to_json_dict(), sort_keys=True, **dumps).encode()


def _escaped(line: bytes, entry_id: str, positions) -> bytes:
    """The line with the id's characters at these positions written as \\u escapes."""
    text = "".join(f"\\u{ord(c):04x}" if i in positions else c for i, c in enumerate(entry_id))
    return line.replace(f'"id": "{entry_id}"'.encode(), f'"id": "{text}"'.encode())


_CODE = _hand_code()
_REPORT = invariant_report(_CODE)
_POOL = [make_entry(_CODE, _REPORT, {"recipe": "coset", "seed": s}) for s in range(2)]
_POOL.append(make_entry(_CODE, _REPORT, {"recipe": "coset", "note": "a\u2028b"}))


@st.composite
def _catalog_lines(draw, target):
    """One catalog line (without its end) built around the target's id."""
    kind = draw(st.sampled_from(
        ("entry", "raw-utf8", "quoted", "escaped", "corrupt", "bad-utf8", "blank")))
    other = draw(st.sampled_from(_POOL))
    if kind == "entry":
        return _line(other)
    if kind == "raw-utf8":  # U+2028 written raw inside a string
        return _line(other, ensure_ascii=False)
    if kind == "quoted":  # the target id inside another entry's construction
        return _line(make_entry(_CODE, _REPORT, {"recipe": "coset", "note": target.id}))
    if kind == "escaped":
        positions = draw(st.sets(st.integers(0, len(other.id) - 1), min_size=1, max_size=4))
        return _escaped(_line(other), other.id, positions)
    if kind == "corrupt":  # holds the target id, yet is not an entry
        whole = _line(target)
        return draw(st.sampled_from((
            whole[:draw(st.integers(0, len(whole) - 1))],
            f'{{"id": "{target.id}"}}'.encode(),
            f'["{target.id}"]'.encode(),
            whole + b" x",
        )))
    if kind == "bad-utf8":
        return b"\xff\xfe " + target.id.encode()
    return draw(st.sampled_from((b"", b"   ", b"\t", b" \x0c ")))


def test_append_duplicate_decision_matches_load_entries():
    """append_entry's byte scan against the oracle that decodes every line;
    small scan blocks put block boundaries inside the lines."""
    verdicts = set()

    @given(data=st.data(), block=st.sampled_from((64, 100, 257, catalog._SCAN_BLOCK)))
    @settings(max_examples=300, deadline=None)
    def check(data, block):
        target = data.draw(st.sampled_from(_POOL))
        lines = data.draw(st.lists(_catalog_lines(target), max_size=6))
        ends = [data.draw(st.sampled_from((b"\n", b"\r\n"))) for _ in lines]
        if lines:
            ends[-1] = data.draw(st.sampled_from((b"\n", b"\r\n", b"")))
        before = b"".join(line + end for line, end in zip(lines, ends))
        path.write_bytes(before)
        duplicate = target.id in {e.id for e in load_entries(path)}
        verdicts.add(duplicate)
        with mock.patch.object(catalog, "_SCAN_BLOCK", block):
            assert append_entry(path, target) is not duplicate
        if duplicate:
            assert path.read_bytes() == before
        else:
            sep = b"" if not before or before.endswith(b"\n") else b"\n"
            assert path.read_bytes() == before + sep + _line(target) + b"\n"
            assert target.id in {e.id for e in load_entries(path)}

    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "cat.jsonl"
        check()
    assert verdicts == {True, False}


def test_loaded_matrices_share_element_texts(tmp_path):
    path = tmp_path / "cat.jsonl"
    for entry in _POOL[:2]:
        assert append_entry(path, entry)
    with open(path, "ab") as fh:  # a matrix that is not rows of texts loads as it is
        fh.write(b'{"id": "x", "field": "5^1:", "n": 2, "k": 1, "matrix": [[1, "2"]]}\n')
    first, second, odd = load_entries(path)
    assert first.matrix == second.matrix == _POOL[0].matrix
    assert first.matrix[1][2] is second.matrix[1][2] is F5.element_text(4)
    assert odd.matrix == [[1, "2"]]


def test_append_after_an_unterminated_last_line(tmp_path, capsys):
    # a write cut short leaves a last line without its newline
    path = tmp_path / "cat.jsonl"
    assert append_entry(path, _entry())
    cut = path.read_bytes()[:100]
    path.write_bytes(cut)
    rc, out, _ = run_cli(
        "search", "--field", "31", "--curve", "g2:1,0,0,0,0,1;0,0,0", "--n", "10",
        "--m", "6", "--catalog", str(path), "--json", capsys=capsys,
    )
    assert rc == 0
    stored = json.loads(out)
    assert path.read_bytes() == cut + b"\n" + _line(load_entries(path)[0]) + b"\n"
    rc, out, err = run_cli("catalog", "--catalog", str(path), "--json", capsys=capsys)
    assert rc == 0 and "corrupt catalog line 1" in err
    assert [e["id"] for e in json.loads(out)["entries"]] == [stored["id"]]


def test_cli_catalog_skips_invalid_utf8(tmp_path, capsys):
    path = tmp_path / "cat.jsonl"
    first = _entry()
    assert append_entry(path, first)
    with open(path, "ab") as fh:
        fh.write(b"\xff\xfe bad\n")
    rep = build_code(E_F5, PTS, 1)
    second = make_entry(rep, invariant_report(rep), {"recipe": "coset"}, m=1)
    assert append_entry(path, second)
    rc, out, err = run_cli("catalog", "--catalog", str(path), capsys=capsys)
    assert rc == 0 and "Traceback" not in err
    assert "skipping corrupt catalog line 2" in err
    assert out.splitlines()[0] == "2 entries"
    assert first.id[:16] in out and second.id[:16] in out


def _append_all(path, shared, own, barrier):
    # A pause after the duplicate scan widens the window between check and
    # write, and all workers meet before each shared id, so they race on it.
    scan = catalog._may_hold

    def slow_scan(fh, needle):
        found = scan(fh, needle)
        time.sleep(0.005)
        return found

    with mock.patch.object(catalog, "_may_hold", slow_scan):
        for entry in shared:
            barrier.wait()
            append_entry(path, entry)
        for entry in own:
            append_entry(path, entry)


def test_concurrent_writers_store_each_id_once(tmp_path):
    workers = 4
    shared = [make_entry(_CODE, _REPORT, {"recipe": "coset", "shared": i}) for i in range(20)]
    own = [[make_entry(_CODE, _REPORT, {"recipe": "coset", "worker": w, "i": i})
            for i in range(10)] for w in range(workers)]
    path = tmp_path / "cat.jsonl"
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(workers)
    procs = []
    for w in range(workers):
        procs.append(ctx.Process(target=_append_all, args=(path, shared, own[w], barrier)))
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(60)
    assert [proc.exitcode for proc in procs] == [0] * workers
    lines = path.read_bytes().split(b"\n")
    assert lines[-1] == b""
    ids = [json.loads(line)["id"] for line in lines[:-1]]
    expected = {e.id for e in shared} | {e.id for row in own for e in row}
    assert sorted(ids) == sorted(expected)
    assert [e.id for e in load_entries(path)] == ids


def _count_entries(path, ready, go, conn):
    ready.set()
    go.wait()
    conn.send(len(load_entries(path)))


def test_load_waits_for_an_append_in_progress(tmp_path):
    # a writer holding the lock has written half a line; a reader must not see it
    path = tmp_path / "cat.jsonl"
    line = _line(_entry()) + b"\n"
    ctx = multiprocessing.get_context("spawn")
    ready, go = ctx.Event(), ctx.Event()
    receive, send = ctx.Pipe(duplex=False)
    reader = ctx.Process(target=_count_entries, args=(path, ready, go, send))
    reader.start()
    assert ready.wait(30)
    with open(path, "ab") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        fh.write(line[:50])
        fh.flush()
        go.set()
        time.sleep(0.2)
        fh.write(line[50:])
    assert receive.poll(30) and receive.recv() == 1
    reader.join(30)
    assert reader.exitcode == 0


# -- CLI ------------------------------------------------------------------------------


def run_cli(*argv, capsys=None):
    rc = dispatch(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def test_cli_tables(capsys):
    rc, out, _ = run_cli("tables", "--q", "19", capsys=capsys)
    assert rc == 0
    assert "12" in out and "28" in out
    rc, out, _ = run_cli("tables", "--q", "64", "--N", "72", "--json", capsys=capsys)
    assert rc == 0
    assert json.loads(out)["structures"] == [[1, 72], [3, 24]]


def test_cli_curve_info(capsys):
    rc, out, _ = run_cli(
        "curve-info", "--field", "5", "--curve", "g1:0,0,0,0,1", "--points",
        "--json", capsys=capsys,
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["N"] == 6 and doc["group"] == [1, 6]
    assert "(0,1)" in doc["points"]


def test_cli_build_coset_and_determinism(capsys):
    args = ("build", "--recipe", "coset", "--q", "19", "--N", "24",
            "--n", "6", "--m", "3", "--json")
    rc, out1, _ = run_cli(*args, capsys=capsys)
    assert rc == 0
    doc = json.loads(out1)
    assert doc["report"]["is_mds"] is True and doc["report"]["d"] == 4
    rc, out2, _ = run_cli(*args, capsys=capsys)
    assert out1 == out2  # byte-identical for identical argv + seed


def test_cli_selfdual(capsys):
    rc, out, _ = run_cli(
        "selfdual", "--s1", "2", "--s2", "2", "--t", "1", "--Lp", "3",
        "--json", capsys=capsys,
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["report"]["self_dual"] is True and doc["n"] == 6
    rc, _, err = run_cli(
        "selfdual", "--s1", "2", "--s2", "2", "--t", "2", "--Lp", "3",
        capsys=capsys,
    )
    assert rc == 1 and "NotMDS" in err


def test_cli_search_store_export_certify(tmp_path, capsys):
    cat_path = str(tmp_path / "cat.jsonl")
    rc, out, _ = run_cli(
        "search", "--field", "31", "--curve", "g2:1,0,0,0,0,1;0,0,0",
        "--n", "10", "--m", "6", "--catalog", cat_path, "--json", capsys=capsys,
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["report"]["is_mds"] is True and doc["attempts"] >= 1

    rc, out, _ = run_cli("catalog", "--catalog", cat_path, capsys=capsys)
    assert rc == 0 and doc["id"][:16] in out

    rc, out, _ = run_cli(
        "export", "--id", doc["id"][:12], "--catalog", cat_path, capsys=capsys
    )
    assert rc == 0 and out.startswith("field 31^1:")

    code_file = tmp_path / "code.txt"
    code_file.write_text(out)
    rc, out, _ = run_cli("certify", "--in", str(code_file), "--json", capsys=capsys)
    assert rc == 0
    assert json.loads(out)["report"]["d"] == 6

    rc, out, _ = run_cli("schur", "--in", str(code_file), "--json", capsys=capsys)
    assert rc == 0
    # 2m = 12 exceeds n = 10, so the Schur square fills the whole space
    assert json.loads(out)["schur_dim"] == 10


def test_cli_search_over_the_minor_budget_exits_1(capsys):
    # C(27, 14) ~ 2.0e7 column subsets: refused before any sample is drawn
    rc, out, err = run_cli(
        "search", "--field", "31", "--curve", "g2:1,0,0,0,0,1;0,0,0",
        "--n", "27", "--m", "15", capsys=capsys,
    )
    assert rc == 1 and out == ""
    assert err.strip() == "BudgetExceeded: C(27,14) column subsets exceed budget 10000000"


def test_cli_export_round_trip_bytes(tmp_path, capsys):
    text = export_matrix_text(_hand_code())
    f = tmp_path / "c.txt"
    f.write_text(text)
    rc, out, _ = run_cli("export", "--in", str(f), capsys=capsys)
    assert rc == 0 and out == text


def test_cli_export_unknown_id(tmp_path, capsys):
    cat_path = tmp_path / "cat.jsonl"
    append_entry(cat_path, _entry())
    rc, _, err = run_cli(
        "export", "--id", "ffff", "--catalog", str(cat_path), capsys=capsys
    )
    assert rc == 1 and "no entry" in err


def _entries_sharing_a_prefix():
    # content ids are hashes: vary the seed until two share their first digit
    code = _hand_code()
    report = invariant_report(code)
    by_first = {}
    for seed in range(100):
        e = make_entry(code, report, {"recipe": "coset", "seed": seed})
        if e.id[0] in by_first:
            return by_first[e.id[0]], e
        by_first[e.id[0]] = e
    raise AssertionError("no two ids share a first digit")


def test_cli_ambiguous_id_prefix_is_a_usage_error(tmp_path, capsys):
    cat_path = str(tmp_path / "cat.jsonl")
    e1, e2 = _entries_sharing_a_prefix()
    assert append_entry(cat_path, e1) and append_entry(cat_path, e2)
    prefix = e1.id[0]
    for argv in (
        ("catalog", "--catalog", cat_path, "--show", prefix),
        ("export", "--catalog", cat_path, "--id", prefix),
    ):
        rc, out, err = run_cli(*argv, capsys=capsys)
        assert rc == 2 and out == "" and "Traceback" not in err
        assert "ambiguous" in err and e1.id in err and e2.id in err
    # a unique prefix still selects its entry
    unique = e2.id[:12]
    rc, out, _ = run_cli("catalog", "--catalog", cat_path, "--show", unique,
                         "--json", capsys=capsys)
    assert rc == 0 and json.loads(out)["id"] == e2.id
    rc, out, _ = run_cli("export", "--catalog", cat_path, "--id", unique,
                         capsys=capsys)
    assert rc == 0 and out == export_matrix_text(code_from_json(e2.to_json_dict()))


def test_cli_usage_errors(capsys):
    rc, _, err = run_cli("build", "--recipe", "coset", "--q", "19", capsys=capsys)
    assert rc == 2 and "needs" in err
    rc, _, err = run_cli(
        "build", "--recipe", "coset", "--q", "19", "--N", "40", "--n", "4",
        "--m", "2", capsys=capsys,
    )
    assert rc in (1, 2)  # inadmissible order
    rc, _, _ = run_cli("nonsense", capsys=capsys)
    assert rc == 2
    rc, out, err = run_cli("build", "--recipe", "supersingular", "--p", "2", "--ext", "3",
                           "--N", "3", "--k", "1", capsys=capsys)
    assert rc == 2 and out == "" and err == "PreconditionFailed: p must be odd\n"
    # a coset size below m or below 1 is refused before any curve search
    for n in ("0", "-4"):
        rc, _, err = run_cli("build", "--recipe", "coset", "--q", "2^8", "--N", "288",
                             "--n", n, "--m", "8", capsys=capsys)
        assert rc == 2 and "RangeViolation" in err and "Traceback" not in err
    for argv in (
        ("curve-info", "--field", "abc", "--curve", "g1:0,0,0,0,1"),
        ("build", "--recipe", "rs", "--q", "19", "--alpha", "1,x", "--k", "2"),
        ("curve-info", "--field", "19", "--curve", "g1:0,0,zz,0,1"),
    ):
        rc, _, err = run_cli(*argv, capsys=capsys)
        assert rc == 2 and "MalformedText" in err and "Traceback" not in err


@pytest.mark.parametrize("text", [
    '{"field": ',
    '{"field": "5^1:", "n": 3, "k": 2, "matrix": [[1, 1, 1], [0, 2, 4]]}',
    '{"n": 3}',
    "field 5^1:\nn three k 2\n",
    '{"field": "5^1:", "n": 3, "matrix": [["1", "1", "1"], ["0", "2", "4"]]}',
    '{"field": "5^1:", "n": 3, "k": 2, "matrix": [["1", "1", "1"], ["0", "2"]]}',
    '{"field": "5^1:", "n": 3.5, "k": 0, "matrix": []}',
    '{"field": "5^1:", "n": 3, "k": 2, "matrix": ["111", "024"]}',
], ids=["truncated-json", "integer-entries", "missing-keys", "non-numeric-size",
        "missing-k", "ragged-rows", "non-integer-size", "string-rows"])
def test_cli_malformed_code_file_is_a_usage_error(text, tmp_path, capsys):
    path = tmp_path / "code.txt"
    path.write_text(text)
    for command in ("certify", "schur", "export"):
        rc, out, err = run_cli(command, "--in", str(path), capsys=capsys)
        assert rc == 2 and out == "" and "IOFailure" in err and "Traceback" not in err


def test_cli_json_code_size_must_match_its_matrix(tmp_path, capsys):
    """A JSON code document is held to its n and k as matrix text is to its
    size line: the same [3,2] rows under a [7,4] header fail alike."""
    doc = {"field": "5^1:", "n": 7, "k": 4, "matrix": [["1", "0", "1"], ["0", "1", "2"]]}
    (tmp_path / "code.json").write_text(json.dumps(doc))
    (tmp_path / "code.txt").write_text("field 5^1:\nn 7 k 4\nrow: 1 0 1\nrow: 0 1 2\n")
    errors = set()
    for name in ("code.json", "code.txt"):
        rc, out, err = run_cli("certify", "--in", str(tmp_path / name), capsys=capsys)
        assert rc == 2 and out == ""
        errors.add(err)
    assert errors == {"IOFailure: row count or width disagrees with the header\n"}


@pytest.mark.parametrize("budget", ["0", "-5", "x"])
@pytest.mark.parametrize("argv", [
    ("search", "--field", "31", "--curve", "g2:1,0,0,0,0,1;0,0,0", "--n", "10", "--m", "6"),
    ("certify", "--in", "code.txt"),
    ("schur", "--in", "code.txt"),
])
def test_cli_budget_must_be_positive(argv, budget, capsys):
    rc, out, err = run_cli(*argv, "--budget", budget, capsys=capsys)
    assert rc == 2 and out == "" and "--budget" in err


# Content ids; the id hashes the whole report, so any moved reported value
# changes it.  The first four were pinned before recipes took d from their
# certificate, the rest before the twisted flag moved to the subset-sum DP
# and the rs recipe to the Vandermonde report.
GOLDEN_IDS = [
    (
        ("build", "--recipe", "coset", "--q", "19", "--N", "24", "--n", "6", "--m", "3"),
        "8ea9b61d6964e318aa0bf20d9f233dc294407e1882474fc98267d9c550111bce",
    ),
    (
        ("build", "--recipe", "twisted-rs", "--q", "19", "--alpha", "1,2,3,4",
         "--eta", "5", "--k", "2"),
        "29189d33b85d43709fd9d9de493aa13ba053616c3ad7ea6766342111656026f7",
    ),
    (
        ("selfdual", "--s1", "2", "--s2", "2", "--t", "1", "--Lp", "3"),
        "ce63e9fc01e8ebe315631da01eb432f64a006696a0ff48f6d5112139b72de858",
    ),
    (
        ("search", "--field", "31", "--curve", "g2:1,0,0,0,0,1;0,0,0",
         "--n", "10", "--m", "6", "--seed", "0"),
        "70d0fdabea43f28a7557435ef573fcd6017daff0df084f1e570a847a48bee14e",
    ),
    (
        ("build", "--recipe", "rs", "--q", "19", "--alpha", "1,2,3,4,5,6,7,8", "--k", "3"),
        "ef158a51ceafff5e474f44d393b80577c0673bda7500cc59194c5d46619715f5",
    ),
    (
        ("build", "--recipe", "rs", "--q", "5", "--alpha", "0,1,2,3,4", "--k", "5"),
        "bda56f6ee3b27a561bfe832444264207dc91762fa828ab7fb735d5e99e01de8b",
    ),
    (
        ("build", "--recipe", "twisted-rs", "--q", "19", "--alpha", "1,2,3,4",
         "--eta", "6", "--k", "2"),
        "cc1eedac016efdf48a2b96662a3fba25be6d27bbd5eb06d67763e495535d664d",
    ),
    (
        ("build", "--recipe", "twisted-rs", "--q", "19", "--alpha", "12,13,1,8,15,7,6,4",
         "--eta", "11", "--k", "3"),
        "2d9cff583ce802ee619d737d6c7e6e17c6e226206e51e9a877bbbc6c6a59a12d",
    ),
    (
        ("build", "--recipe", "twisted-rs", "--q", "3^2", "--alpha", "0,1,2,3,4,5",
         "--eta", "2", "--k", "3"),
        "c3c5ce065f7ccb1eb3286bfcf1baad439e7799d0e5e0cb8bc1447f7ee3236260",
    ),
    (
        ("selfdual", "--s1", "2", "--s2", "4", "--t", "1", "--Lp", "3"),
        "41e04b836efdbe385754d5d3b0ddd97ac06f3950f13d2408a2dadc8d81c98b3e",
    ),
    (
        ("build", "--recipe", "sqrt-prime", "--p", "19", "--m", "2"),
        "8d869e88d29b7d3b68f069f08f4636f68eaafb259a5c19fbb8785ad75550cba6",
    ),
    (
        ("build", "--recipe", "sqrt-prime", "--p", "19", "--m", "2", "--longer"),
        "2b80fcd4626b113282dd44abd106f36a2a3b5ea6b303ca107de716c67c8a0e27",
    ),
    (
        ("build", "--recipe", "coprime-split", "--q", "19", "--l1", "4", "--l2", "5",
         "--m", "2"),
        "4fe0706d1950ecf66c5b61f97a6dfb8fbd5b0c4edb71c899fefb98d7ae650e0f",
    ),
    (
        ("build", "--recipe", "short-length", "--q", "2411", "--n", "7", "--m", "3"),
        "be13b64482c8fb8f8b89b936252bfeb4357dd5e8ef0ebec0e4c09b7049309b4f",
    ),
    # pinned once supersingular entries recorded their points and group
    (
        ("build", "--recipe", "supersingular", "--p", "7", "--ext", "3", "--N", "8",
         "--k", "4"),
        "a39f0506030882ee3208aa47071c980087b29a57260115e16839ddc7d22ef1d1",
    ),
]
GOLDEN_NAMES = [
    "coset", "twisted-rs", "selfdual", "search", "rs-f19", "rs-full-f5",
    "twisted-rs-mds", "twisted-rs-n8", "twisted-rs-f9-zero", "selfdual-f256",
    "sqrt-prime", "sqrt-prime-longer", "coprime-split", "short-length", "supersingular",
]


@pytest.mark.parametrize("argv, entry_id", GOLDEN_IDS, ids=GOLDEN_NAMES)
def test_cli_golden_ids(argv, entry_id, monkeypatch, capsys):
    monkeypatch.delenv("AGMDS_SEED", raising=False)
    rc, out, _ = run_cli(*argv, "--json", capsys=capsys)
    assert rc == 0
    assert json.loads(out)["id"] == entry_id


# Every build recipe's usage message when its options are left out.
RECIPE_NEEDS = {
    "coset": "--N, --n and --m",
    "coprime-split": "--l1, --l2 and --m",
    "short-length": "--n and --m",
    "sqrt-prime": "--p and --m",
    "supersingular": "--p, --ext, --N and --k",
    "twisted-rs": "--alpha, --eta and --k",
    "rs": "--alpha and --k",
}
FIELD_RECIPES = {"coset", "coprime-split", "short-length", "twisted-rs", "rs"}


def test_cli_recipe_choices_are_the_recipe_table(capsys):
    assert set(_RECIPES) == set(RECIPE_NEEDS)
    rc, _, err = run_cli("build", "--recipe", "nonsense", capsys=capsys)
    assert rc == 2 and "{" + ",".join(_RECIPES) + "}" in err


@pytest.mark.parametrize("recipe", list(RECIPE_NEEDS))
def test_cli_recipe_usage_message(recipe, capsys):
    field = ("--q", "19") if recipe in FIELD_RECIPES else ()
    rc, out, err = run_cli("build", "--recipe", recipe, *field, capsys=capsys)
    assert (rc, out) == (2, "")
    assert err == f"UsageError: {recipe} recipe needs {RECIPE_NEEDS[recipe]}\n"
    if field:
        rc, out, err = run_cli("build", "--recipe", recipe, capsys=capsys)
        assert (rc, out) == (2, "")
        assert err == "UsageError: this recipe needs --q (as p, p^s or p^s:[modulus])\n"


@pytest.mark.parametrize("argv, stray, takes", [
    (("build", "--recipe", "sqrt-prime", "--p", "19", "--m", "2", "--q", "5", "--k", "9"),
     "--q, --k", "--p, --m, --longer"),
    (("build", "--recipe", "sqrt-prime", "--p", "19", "--m", "2", "--k", "0"),
     "--k", "--p, --m, --longer"),
    (("build", "--recipe", "coset", "--q", "19", "--N", "24", "--n", "6", "--m", "3",
      "--longer"), "--longer", "--q, --N, --n, --m"),
    (("build", "--recipe", "rs", "--q", "19", "--alpha", "1,2,3", "--k", "2", "--eta", "6",
      "--l1", "4"), "--l1, --eta", "--q, --alpha, --k"),
], ids=["sqrt-prime", "zero-value", "flag", "rs"])
def test_cli_build_rejects_options_outside_its_recipe(argv, stray, takes, capsys):
    rc, out, err = run_cli(*argv, "--json", capsys=capsys)
    assert (rc, out) == (2, "")
    assert err == f"UsageError: {argv[2]} recipe does not take {stray} (it takes {takes})\n"


@pytest.mark.parametrize("argv", [
    ("build", "--recipe", "coset", "--q", "19", "--N", "24", "--n", "6", "--m", "3"),
    ("build", "--recipe", "coprime-split", "--q", "19", "--l1", "4", "--l2", "5", "--m", "2"),
    ("build", "--recipe", "short-length", "--q", "2411", "--n", "7", "--m", "3"),
    ("build", "--recipe", "sqrt-prime", "--p", "19", "--m", "2"),
    ("build", "--recipe", "sqrt-prime", "--p", "19", "--m", "2", "--longer"),
    ("build", "--recipe", "supersingular", "--p", "7", "--ext", "3", "--N", "8", "--k", "4"),
    ("build", "--recipe", "supersingular", "--p", "5", "--ext", "3", "--N", "6", "--k", "3"),
    ("selfdual", "--s1", "2", "--s2", "2", "--t", "1", "--Lp", "3"),
], ids=["coset", "coprime-split", "short-length", "sqrt-prime", "sqrt-prime-longer",
        "supersingular-f343", "supersingular-f125", "selfdual"])
def test_cli_elliptic_entries_record_points_and_group(argv, capsys):
    rc, out, _ = run_cli(*argv, "--json", capsys=capsys)
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["points"]) == len(set(doc["points"])) == doc["n"]
    d1, d2 = doc["group"]
    assert d1 * d2 == doc["N"] and d2 % d1 == 0


@pytest.mark.parametrize("eta, flag", [("5", False), ("6", True)])
def test_cli_twisted_rs_prints_its_mds_condition(eta, flag, capsys):
    argv = ("build", "--recipe", "twisted-rs", "--q", "19", "--alpha", "1,2,3,4",
            "--eta", eta, "--k", "2")
    rc, out, _ = run_cli(*argv, "--json", capsys=capsys)
    assert rc == 0 and json.loads(out)["mds_condition"] is flag
    rc, out, _ = run_cli(*argv, capsys=capsys)
    assert rc == 0 and out.splitlines()[1] == f"mds_condition: {flag}"


@pytest.mark.parametrize("field, n", [(F19, 5), (F19, 8), (F16, 6), (F16, 9)],
                         ids=["f19-n5", "f19-n8", "f16-n6", "f16-n9"])
def test_cli_rs_schur_distance_from_the_vandermonde_theorem(field, n, capsys):
    # the square of RS_k is RS_min(2k-1, n), so schur_d = n - min(2k-1, n) + 1
    q = str(field.p) if field.s == 1 else f"{field.p}^{field.s}"
    alphas = list(range(n))
    for k in range(1, n + 1):
        rc, out, _ = run_cli("build", "--recipe", "rs", "--q", q, "--alpha",
                             ",".join(map(str, alphas)), "--k", str(k), "--json",
                             capsys=capsys)
        assert rc == 0
        scanned = min_distance(schur_square(rs_code(field, alphas, k)))
        assert json.loads(out)["report"]["schur_d"] == scanned


def test_cli_rs_schur_distance_beyond_the_scan_budget(capsys):
    # the [18,4] square over F_19 is too large to scan; the theorem gives 12
    alpha = ",".join(str(a) for a in range(18))
    rc, out, _ = run_cli("build", "--recipe", "rs", "--q", "19", "--alpha", alpha,
                         "--k", "4", "--json", capsys=capsys)
    assert rc == 0
    assert json.loads(out)["report"]["schur_d"] == 12


def test_cli_seed_env_override(tmp_path, monkeypatch, capsys):
    args = ("search", "--field", "31", "--curve", "g2:1,0,0,0,0,1;0,0,0",
            "--n", "10", "--m", "6", "--json")
    monkeypatch.setenv("AGMDS_SEED", "5")
    rc, out_env, _ = run_cli(*args, capsys=capsys)
    monkeypatch.delenv("AGMDS_SEED")
    rc, out_default, _ = run_cli(*args, capsys=capsys)
    rc, out_explicit, _ = run_cli(*args, "--seed", "5", capsys=capsys)
    assert out_env == out_explicit
    assert json.loads(out_env)["construction"]["seed"] == 5
    assert json.loads(out_default)["construction"]["seed"] == 0


@pytest.mark.parametrize("value", ["x", "", "1.5", "5x"])
@pytest.mark.parametrize("argv", [
    ("build", "--recipe", "coset", "--q", "19", "--N", "24", "--n", "6", "--m", "3"),
    ("selfdual", "--s1", "2", "--s2", "2", "--t", "1", "--Lp", "3"),
], ids=["build", "selfdual"])
def test_cli_seed_env_must_be_an_integer(argv, value, monkeypatch, capsys):
    monkeypatch.setenv("AGMDS_SEED", value)
    rc, out, err = run_cli(*argv, "--json", capsys=capsys)
    assert (rc, out) == (2, "")
    assert err == f"UsageError: AGMDS_SEED must be an integer, got {value!r}\n"
    # an explicit --seed wins without reading the variable
    rc, out, _ = run_cli(*argv, "--json", "--seed", "3", capsys=capsys)
    assert rc == 0 and json.loads(out)["construction"]["seed"] == 3


def test_cli_entry_reproduces_matrix(tmp_path, capsys):
    # re-running the stored construction with its seed rebuilds the matrix
    cat_path = str(tmp_path / "cat.jsonl")
    args = ("build", "--recipe", "coset", "--q", "19", "--N", "12", "--n", "4",
            "--m", "2", "--catalog", cat_path, "--json")
    rc, out, _ = run_cli(*args, capsys=capsys)
    entry = load_entries(cat_path)[0]
    params = entry.construction["params"]
    from agmds.recipes import search_coset_code

    code, _, _ = search_coset_code(
        field_make(params["q"]), params["N"], params["n"], params["m"],
        seed=entry.construction["seed"],
    )
    rebuilt = [[code.field.element_text(v) for v in row] for row in code.gen.data]
    assert rebuilt == entry.matrix


def test_cli_module_entry_point():
    # the console entry point must be importable and runnable end to end
    r = subprocess.run(
        [sys.executable, "-m", "agmds.cli", "tables", "--q", "5"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0 and "orders:" in r.stdout
