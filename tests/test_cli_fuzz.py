"""argv fuzzing of the command-line front end.

Every argv must end in a documented exit code (0 success, 1 search or
certification failure, 2 usage error) and never in an uncaught exception,
which a shell would see as a traceback.  Fields stay small (q <= 32) so
every example runs in milliseconds; integers come from [-3, 40], half of
them from [1, 8], and a value is malformed text one time in twenty.  The
options a subcommand or recipe requires are usually present and the others
usually absent, so runs that get past the argument checks are fuzzed too;
a build option outside the chosen recipe is a usage error, so it is rarer
still.
"""

import argparse
import contextlib
import io

import pytest
from hypothesis import example, given, settings, strategies as st

from agmds import cli, errors
from agmds.cli import dispatch

MAX_Q = 32
INTS = st.one_of(st.integers(-3, 40), st.integers(1, 8)).map(str)
MALFORMED = st.sampled_from((
    "", " ", "abc", "x", "-", "--", "1,x", "[1,", "[]", "2^", "^3", "3^2:[1,",
    "2^3:[1,1,1]", "1e3", "(1,2)", "g1:", "g2:1;", "g3:1", "nan",
))
FIELDS = st.sampled_from(("2", "3", "5", "7", "19", "31", "2^2", "2^3", "2^4", "2^5",
                          "3^2", "3^3", "5^2", "2^4:[1,1,0,0,1]", "2^2:[1,0,1]"))
# smooth over most of FIELDS, one of each genus singular everywhere or often
CURVES = st.sampled_from((
    "g1:0,0,0,0,1", "g1:0,0,0,1,1", "g1:1,0,0,0,1", "g1:0,1,0,0,1", "g1:[0,1],0,0,0,1",
    "g1:0,0,0,0,0", "g2:1,0,0,0,0,1;0,0,0", "g2:1,1,0,0,0,1;0,0,0", "g2:1,0,0,0,0,1;1,0,0",
    "g2:0,1,0,2,0,1;0,0,0",
))
ELEMENTS = st.lists(st.sampled_from(("0", "1", "2", "3", "4", "5", "6", "-1", "40", "[0,1]",
                                     "[1,1]")), max_size=6, unique=True).map(",".join)


def _value(values):
    """A value from values, or malformed text one time in twenty."""
    return st.integers(0, 19).flatmap(lambda i: MALFORMED if i == 0 else values)


def _opt(name, values, one_in=4):
    """``name value`` one time in one_in, else absent."""
    return st.integers(1, one_in).flatmap(
        lambda i: _value(values).map(lambda v: (name, v)) if i == 1 else st.just(()))


def _req(name, values):
    """``name value``, left out one time in ten."""
    return st.integers(0, 9).flatmap(
        lambda i: st.just(()) if i == 0 else _value(values).map(lambda v: (name, v)))


def _flag(name, one_in=2):
    return st.integers(1, one_in).map(lambda i: (name,) if i == 1 else ())


def _joined(command, parts):
    return [command, *(token for part in parts for token in part)]


@st.composite
def _prime_power(draw):
    """(p, s) with p^s <= MAX_Q whenever both are valid."""
    p = draw(st.integers(-3, MAX_Q - 1))
    top = 1
    while p >= 2 and p ** (top + 1) <= MAX_Q:
        top += 1
    return str(p), str(draw(st.integers(-3, top)))


BUILD_NEEDS = {
    "coset": ("--q", "--N", "--n", "--m"),
    "coprime-split": ("--q", "--l1", "--l2", "--m"),
    "short-length": ("--q", "--n", "--m"),
    "sqrt-prime": ("--p", "--m"),
    "supersingular": ("--p", "--ext", "--N", "--k"),
    "twisted-rs": ("--q", "--alpha", "--eta", "--k"),
    "rs": ("--q", "--alpha", "--k"),
    "bogus": (),
}


@st.composite
def _build(draw, catalogs):
    recipe = draw(st.sampled_from(sorted(BUILD_NEEDS)))
    p, ext = draw(_prime_power())
    values = {"--q": FIELDS, "--p": st.just(p), "--ext": st.just(ext), "--alpha": ELEMENTS,
              "--eta": ELEMENTS}
    parts = [("--recipe", recipe)]
    for name in ("--q", "--N", "--n", "--m", "--k", "--l1", "--l2", "--p", "--ext",
                 "--alpha", "--eta"):
        needed = name in BUILD_NEEDS[recipe]
        value = values.get(name, INTS)
        parts.append(draw(_req(name, value) if needed else _opt(name, value, one_in=20)))
    parts += [draw(_opt("--seed", INTS)), draw(_opt("--catalog", catalogs))]
    parts.append(draw(_flag("--longer", one_in=2 if recipe == "sqrt-prime" else 20)))
    return _joined("build", parts)


@st.composite
def _selfdual(draw):
    # the field is F_(2^(s1*s2)), so s1*s2 <= 5 keeps q <= MAX_Q
    s1 = draw(st.integers(-3, 5))
    s2 = draw(st.integers(-3, 5 // s1 if s1 > 0 else 5))
    parts = [("--s1", str(s1)), ("--s2", str(s2))] + [draw(o) for o in (
        _req("--t", INTS), _req("--Lp", INTS), _opt("--seed", INTS))]
    return _joined("selfdual", parts)


def _simple(command, *options):
    return st.tuples(*options).map(lambda parts: _joined(command, parts))


def _argv(files, catalogs):
    return st.one_of(
        _simple("tables", _req("--q", INTS), _opt("--N", INTS)),
        _simple("curve-info", _req("--field", FIELDS), _req("--curve", CURVES),
                _flag("--points")),
        _build(catalogs),
        _selfdual(),
        # the budget caps the samples drawn, so it is always given
        _simple("search", _req("--field", FIELDS), _req("--curve", CURVES),
                _req("--n", INTS), _req("--m", INTS),
                _value(INTS).map(lambda v: ("--budget", v))),
        _simple("certify", _req("--in", files), _opt("--budget", INTS)),
        _simple("schur", _req("--in", files), _opt("--budget", INTS)),
        _simple("catalog", _req("--catalog", files), _opt("--show", INTS)),
        _simple("export", _opt("--in", files), _opt("--catalog", files), _opt("--id", INTS),
                _opt("--format", st.sampled_from(("json", "matrix-text", "txt")))),
        st.lists(st.one_of(INTS, MALFORMED), max_size=3),
    )


# Files the subcommands read or append to, named "@name" in argv and
# written to a fresh directory; "@" alone names the directory itself.
FILES = {
    "code.txt": "field 5^1:\nn 3 k 2\nrow: 1 1 1\nrow: 0 2 4\n",
    "code.json": '{"field": "5^1:", "n": 3, "k": 2, "matrix": [["1", "1", "1"], ["0", "2", "4"]]}',
    "shape.json": '{"field": "5^1:", "n": 3, "k": 2, "matrix": [[1, 1, 1], [0, 2, 4]]}',
    "bad.txt": "field 5^1:\nn 3 k 2\nrow: 1 x\n",
    "size.txt": "field 5^1:\nn three k 2\n",
    "bad.json": '{"field": ',
    "catalog.jsonl": '{"id": "0"}\nnot json\n',
}
PATHS = st.sampled_from([f"@{name}" for name in (*FILES, "missing.txt")] + ["@"])
# build --catalog appends: to the catalog above, to a new file, or to a directory
CATALOGS = st.sampled_from(("@catalog.jsonl", "@new.jsonl", "@"))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, body in FILES.items():
        (root / name).write_text(body, encoding="utf-8")
    return root


@given(argv=_argv(PATHS, CATALOGS), as_json=st.booleans())
@example(argv=["build", "--recipe", "coset", "--q", "2^3", "--N", "12", "--n", "0", "--m", "3"],
         as_json=False)
@example(argv=["build", "--recipe", "supersingular", "--p", "5", "--ext", "1", "--N", "0",
               "--k", "1"], as_json=False)
@settings(max_examples=250, deadline=None)
def test_argv_fuzz_exit_codes(fuzz_dir, argv, as_json):
    argv = [str(fuzz_dir / t[1:]) if t.startswith("@") else t for t in argv]
    if as_json:
        argv.append("--json")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = dispatch(argv)
    assert rc in (0, 1, 2), (argv, rc)
    assert "Traceback" not in err.getvalue(), argv


SEARCH_FAILURES = {
    "NotMDS", "NotFound", "BudgetExhausted", "BudgetExceeded", "NoAdmissibleCurve",
    "NoAdmissibleBeta", "NoFullWeightSolution", "SubgroupNotFound",
}


def test_exit_code_follows_the_exception_hierarchy(monkeypatch):
    classes = [
        c for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, errors.AgmdsError)
    ]
    codes = {}
    for exc_type in classes + [cli.UsageError]:
        def fail(args, exc_type=exc_type):
            raise exc_type("stub")

        ap = argparse.ArgumentParser()
        ap.set_defaults(func=fail)
        monkeypatch.setattr(cli, "build_parser", lambda ap=ap: ap)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            codes[exc_type.__name__] = dispatch([])
        assert err.getvalue() == f"{exc_type.__name__}: stub\n"
    assert len(codes) == len(classes) + 1
    # the eight search failures and their base exit 1, every other error 2
    assert {name for name, rc in codes.items() if rc == 1} == SEARCH_FAILURES | {"SearchFailure"}
    assert {rc for name, rc in codes.items() if rc != 1} == {2}
