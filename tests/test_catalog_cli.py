"""Catalog persistence, exports, and the command-line front end."""

import json
import subprocess
import sys

import pytest

from agmds import curve_make, field_make
from agmds.catalog import (
    append_entry,
    code_from_json,
    export_code_json,
    export_matrix_text,
    load_entries,
    make_entry,
    parse_matrix_text,
)
from agmds.cli import dispatch
from agmds.code import build_code, invariant_report, LinearCode
from agmds.linalg import FFMatrix

F5 = field_make(5)
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
    assert doc["report"]["is_mds"] is True

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
    for argv in (
        ("curve-info", "--field", "abc", "--curve", "g1:0,0,0,0,1"),
        ("build", "--recipe", "rs", "--q", "19", "--alpha", "1,x", "--k", "2"),
        ("curve-info", "--field", "19", "--curve", "g1:0,0,zz,0,1"),
    ):
        rc, _, err = run_cli(*argv, capsys=capsys)
        assert rc == 2 and "MalformedText" in err and "Traceback" not in err


# Content ids pinned before recipes took d from their certificate; the id
# hashes the whole report, so any moved reported value changes it.
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
]


@pytest.mark.parametrize(
    "argv, entry_id", GOLDEN_IDS, ids=["coset", "twisted-rs", "selfdual", "search"]
)
def test_cli_golden_ids(argv, entry_id, monkeypatch, capsys):
    monkeypatch.delenv("AGMDS_SEED", raising=False)
    rc, out, _ = run_cli(*argv, "--json", capsys=capsys)
    assert rc == 0
    assert json.loads(out)["id"] == entry_id


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
