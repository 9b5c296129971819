"""Command-line front end.

Subcommands: curve-info, tables, build, certify, schur, selfdual, search,
catalog, export.  Human-readable text by default, a single JSON document
with --json.  Exit codes: 0 success, 1 for certification/search failures
(not-MDS, nothing found, budget exhausted), 2 for usage errors (the
message names the violated precondition).

A build recipe is one row of _RECIPES: the options it records, the option
holding its degree m, and the call that builds it.  build, selfdual and
search all end in _finish, which makes the catalog entry, stores it and
prints it.

The default seed is 0, overridable by the AGMDS_SEED environment variable;
an explicit --seed wins over both.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict

from . import catalog as cat
from .code import DEFAULT_BUDGET, invariant_report, schur_square
from .code import _distance_or_none, _report_from_distance
from .curves import (
    group_structure,
    hasse_window,
    parse_curve_text,
    point_text,
    admissible_curve_orders,
    admissible_group_structures,
)
from .errors import AgmdsError, IOFailure, SearchFailure
from .field import parse_field_text
from .recipes import (
    coprime_split_code,
    genus2_mds_search,
    rs_code,
    search_coset_code,
    self_dual_pipeline,
    short_length_code,
    sqrt_prime_code,
    supersingular_code,
    twisted_rs_code,
)

def _emit(args, doc: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _report_lines(report) -> list[str]:
    return [
        f"[n,k,d] = [{report.n},{report.k},{report.d if report.d is not None else '?'}]",
        f"is_mds: {report.is_mds}  self_dual: {report.self_dual}",
        f"schur_dim: {report.schur_dim}  schur_d: {report.schur_d}",
        f"hull_dim: {report.hull_dim}  non_rs_certified: {report.non_rs_certified}",
    ]


# -- subcommand handlers ------------------------------------------------------------


def _cmd_tables(args) -> int:
    if args.N is None:
        orders = admissible_curve_orders(args.q)
        _emit(
            args,
            {"q": args.q, "orders": orders},
            [f"q = {args.q}", "orders: " + " ".join(map(str, orders))],
        )
    else:
        shapes = admissible_group_structures(args.q, args.N)
        _emit(
            args,
            {"q": args.q, "N": args.N, "structures": [list(s) for s in shapes]},
            [f"q = {args.q}, N = {args.N}"]
            + [f"structure: Z/{d1} x Z/{d2}" for d1, d2 in shapes],
        )
    return 0


def _cmd_curve_info(args) -> int:
    field = parse_field_text(args.field)
    curve = parse_curve_text(field, args.curve)
    pts = curve.points()
    doc = {
        "field": field.spec_text(),
        "curve": curve.text(),
        "genus": curve.genus,
        "N": len(pts),
    }
    lines = [
        f"curve {curve.text()} over {field.spec_text()}",
        f"rational points: {len(pts)}",
    ]
    if curve.genus == 1:
        d1, d2 = group_structure(curve)
        lo, hi = hasse_window(field.q)
        doc["group"] = [d1, d2]
        doc["hasse_window"] = [lo, hi]
        lines.append(f"group: Z/{d1} x Z/{d2}")
        lines.append(f"hasse window: [{lo}, {hi}]")
    if args.points:
        doc["points"] = [point_text(field, p) for p in pts]
        lines += ["points:"] + ["  " + point_text(field, p) for p in pts]
    _emit(args, doc, lines)
    return 0


def _seed(args) -> int:
    """--seed if given, else AGMDS_SEED if set, else 0.  An AGMDS_SEED
    that is not an integer is a usage error."""
    if args.seed is not None:
        return args.seed
    text = os.environ.get("AGMDS_SEED")
    if text is None:
        return 0
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"AGMDS_SEED must be an integer, got {text!r}") from None


def _finish(args, recipe, params, seed, built, m, head, extra=()) -> int:
    """Make the catalog entry of a built (code, report, meta), store it
    when --catalog is given and print it: the head lines, the report lines
    and the id, or the entry (without its timestamp, so stdout is
    byte-deterministic) plus the meta keys named in extra."""
    code, report, meta = built
    curve, points = meta.get("curve"), meta.get("points")
    entry = cat.make_entry(
        code,
        report,
        construction={"recipe": recipe, "params": params, "seed": seed},
        curve_text=curve.text() if curve is not None else None,
        n_points=meta.get("N"),
        group=meta.get("group"),
        m=m,
        points_text=[point_text(code.field, p) for p in points] if points else None,
    )
    if args.catalog:
        cat.append_entry(args.catalog, entry)
    doc = entry.to_json_dict(with_created=False)
    doc.update((key, meta[key]) for key in extra if key in meta)
    _emit(args, doc, head + _report_lines(report) + [f"id: {entry.id}"])
    return 0


def _elements(field, text: str) -> list:
    return [field.parse_element(t) for t in text.split(",")]


def _twisted_rs(args, field, seed):
    code, report, flag = twisted_rs_code(
        field, _elements(field, args.alpha), field.parse_element(args.eta), args.k
    )
    return code, report, {"mds_condition": flag}


def _rs(args, field, seed):
    code = rs_code(field, _elements(field, args.alpha), args.k)
    # By the Vandermonde theorem every k columns are independent, and the
    # Schur square is the RS code of dimension min(2k - 1, n).
    n, k = code.n, code.k
    dim = min(2 * k - 1, n)
    return code, _report_from_distance(code, n - k + 1, True, schur=(dim, n - dim + 1)), {}


# One row per build recipe: the options it records (each needed but a flag;
# --q is parsed into the field), the option holding the degree m or None, and
# the call (args, field or None, seed) -> (code, report, meta).
_RECIPES = {
    "coset": (("q", "N", "n", "m"), "m",
              lambda a, F, s: search_coset_code(F, a.N, a.n, a.m, seed=s)),
    "coprime-split": (("q", "l1", "l2", "m"), "m",
                      lambda a, F, s: coprime_split_code(F, a.l1, a.l2, a.m, seed=s)),
    "short-length": (("q", "n", "m"), "m",
                     lambda a, F, s: short_length_code(F, a.n, a.m, seed=s)),
    "sqrt-prime": (("p", "m", "longer"), "m",
                   lambda a, F, s: sqrt_prime_code(a.p, a.m, longer=a.longer, seed=s)),
    "supersingular": (("p", "ext", "N", "k"), "k",
                      lambda a, F, s: supersingular_code(a.p, a.ext, a.N, a.k, seed=s)),
    "twisted-rs": (("q", "alpha", "eta", "k"), None, _twisted_rs),
    "rs": (("q", "alpha", "k"), None, _rs),
}


# Every option some recipe records, in table order.
_RECIPE_OPTIONS = tuple(dict.fromkeys(o for options, _, _ in _RECIPES.values() for o in options))


def _cmd_build(args) -> int:
    options, m_option, run = _RECIPES[args.recipe]
    # Unset is None, or False for a flag (0 == False, so test identity).
    stray = [f"--{o}" for o in _RECIPE_OPTIONS if o not in options
             and getattr(args, o) is not None and getattr(args, o) is not False]
    _require(not stray, f"{args.recipe} recipe does not take {', '.join(stray)} "
                        f"(it takes {', '.join('--' + o for o in options)})")
    field = None
    if "q" in options:
        _require(args.q is not None, "this recipe needs --q (as p, p^s or p^s:[modulus])")
        field = parse_field_text(args.q)
    params = {o: getattr(args, o) for o in options}
    needed = [f"--{o}" for o in options if o != "q" and not isinstance(params[o], bool)]
    _require(None not in params.values(),
             f"{args.recipe} recipe needs {', '.join(needed[:-1])} and {needed[-1]}")
    if field is not None:
        params["q"] = field.q
    seed = _seed(args)
    built = run(args, field, seed)
    code, _, meta = built
    head = [f"recipe {args.recipe}: built [{code.n},{code.k}] over {code.field.spec_text()}"]
    if "mds_condition" in meta:
        head.append(f"mds_condition: {meta['mds_condition']}")
    m = getattr(args, m_option) if m_option else None
    return _finish(args, args.recipe, params, seed, built, m, head, ("mds_condition",))


def _cmd_selfdual(args) -> int:
    seed = _seed(args)
    built = self_dual_pipeline(args.s1, args.s2, args.t, args.Lp, seed=seed)
    code, report, meta = built
    params = {"s1": args.s1, "s2": args.s2, "t": args.t, "Lp": args.Lp}
    head = [
        f"self-dual pipeline over F_{code.field.q}: beta={meta['beta']}, "
        f"N={meta['N']}, group=Z/{meta['group'][0]} x Z/{meta['group'][1]}"
    ]
    return _finish(args, "self-dual-pipeline", params, seed, built, report.n // 2, head)


def _cmd_search(args) -> int:
    seed = _seed(args)
    field = parse_field_text(args.field)
    curve = parse_curve_text(field, args.curve)
    code, report, meta = genus2_mds_search(
        curve, args.n, args.m, seed=seed, budget=args.budget
    )
    params = {"field": field.spec_text(), "curve": curve.text(), "n": args.n, "m": args.m}
    head = [
        f"found after {meta['attempts']} samples "
        f"(counting bound ok: {meta['counting_bound_ok']})"
    ]
    return _finish(args, "genus2-search", params, seed, (code, report, meta), args.m,
                   head, ("attempts",))


def _load_code_arg(args):
    with open(args.infile, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise IOFailure(f"{args.infile} is not valid JSON: {exc}") from None
        return cat.code_from_json(doc)
    return cat.parse_matrix_text(text)


def _cmd_certify(args) -> int:
    code = _load_code_arg(args)
    report = invariant_report(code, args.budget)
    doc = {"field": code.field.spec_text(), "report": asdict(report)}
    _emit(args, doc, _report_lines(report))
    return 0


def _cmd_schur(args) -> int:
    code = _load_code_arg(args)
    sq = schur_square(code)
    sd = _distance_or_none(sq, args.budget)
    doc = {
        "field": code.field.spec_text(),
        "n": code.n,
        "k": code.k,
        "schur_dim": sq.k,
        "schur_d": sd,
    }
    _emit(
        args,
        doc,
        [f"schur_dim: {sq.k}", f"schur_d: {sd if sd is not None else '?'}"],
    )
    return 0


def _cmd_catalog(args) -> int:
    entries = cat.load_entries(args.catalog)
    if args.show:
        e = _entry_by_prefix(entries, args.show)
        if e is None:
            return 1
        _emit(args, e.to_json_dict(), _entry_lines(e))
        return 0
    doc = {"count": len(entries), "entries": [
        {"id": e.id, "field": e.field, "n": e.n, "k": e.k,
         "recipe": e.construction.get("recipe")} for e in entries]}
    lines = [f"{len(entries)} entries"] + [
        f"{e.id[:16]}  [{e.n},{e.k}] over {e.field}  "
        f"({e.construction.get('recipe')})"
        for e in entries
    ]
    _emit(args, doc, lines)
    return 0


def _entry_by_prefix(entries, prefix: str) -> cat.CatalogEntry | None:
    """The one entry whose id starts with prefix; None (reported on
    stderr) when there is none, UsageError when several ids match."""
    matches = [e for e in entries if e.id.startswith(prefix)]
    ids = sorted({e.id for e in matches})
    if len(ids) > 1:
        raise UsageError(f"id prefix {prefix} is ambiguous: {' '.join(ids)}")
    if not matches:
        print(f"no entry with id prefix {prefix}", file=sys.stderr)
        return None
    return matches[0]


def _entry_lines(e: cat.CatalogEntry) -> list[str]:
    lines = [
        f"id: {e.id}",
        f"field: {e.field}",
        f"[n,k] = [{e.n},{e.k}], m = {e.m}",
        f"curve: {e.curve}",
        f"N: {e.N}, group: {e.group}",
        f"construction: {e.construction}",
        f"report: {e.report}",
    ]
    if e.created:
        lines.append(f"created: {e.created}")
    return lines


def _cmd_export(args) -> int:
    if args.infile:
        code = _load_code_arg(args)
    else:
        _require(args.id is not None and args.catalog is not None,
                 "export needs --in FILE, or --id and --catalog")
        e = _entry_by_prefix(cat.load_entries(args.catalog), args.id)
        if e is None:
            return 1
        code = cat.code_from_json(e.to_json_dict())
    if args.format == "json":
        sys.stdout.write(json.dumps(cat.export_code_json(code), sort_keys=True) + "\n")
    else:
        sys.stdout.write(cat.export_matrix_text(code))
    return 0


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise UsageError(message)


class UsageError(AgmdsError):
    pass


def _positive_int(text: str) -> int:
    """argparse type of the step budgets: a positive integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


# -- parser -------------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parsing leaves it as it
    was, and every default is fixed (the seed's is resolved after parsing)."""
    ap = argparse.ArgumentParser(
        prog="agmds",
        description="MDS algebraic-geometry code workbench over small finite fields",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, seeded=False, catalog=False):
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        if seeded:
            p.add_argument("--seed", type=int, default=None)
        if catalog:
            p.add_argument("--catalog", default=None, help="JSON-lines catalog path")

    p = sub.add_parser("tables", help="attainable point counts / group shapes")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--N", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("curve-info", help="points and group of a curve")
    p.add_argument("--field", required=True)
    p.add_argument("--curve", required=True)
    p.add_argument("--points", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_curve_info)

    p = sub.add_parser("build", help="run a named construction")
    p.add_argument(
        "--recipe",
        required=True,
        choices=list(_RECIPES),
    )
    p.add_argument("--q", default=None, help="field as p, p^s or p^s:[modulus]")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--l1", type=int, default=None)
    p.add_argument("--l2", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--ext", type=int, default=None)
    p.add_argument("--alpha", default=None, help="comma-separated evaluation elements")
    p.add_argument("--eta", default=None)
    p.add_argument("--longer", action="store_true")
    common(p, seeded=True, catalog=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("selfdual", help="self-dual pipeline over F_{2^(s1*s2)}")
    p.add_argument("--s1", type=int, required=True)
    p.add_argument("--s2", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--Lp", type=int, required=True)
    common(p, seeded=True, catalog=True)
    p.set_defaults(func=_cmd_selfdual)

    p = sub.add_parser("search", help="randomized genus-2 MDS hunt")
    p.add_argument("--field", required=True)
    p.add_argument("--curve", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--budget", type=_positive_int, default=2000)
    common(p, seeded=True, catalog=True)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("certify", help="full invariant report for a stored code")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    common(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("schur", help="Schur-square dimension and distance")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    common(p)
    p.set_defaults(func=_cmd_schur)

    p = sub.add_parser("catalog", help="list or show catalog entries")
    p.add_argument("--catalog", required=True)
    p.add_argument("--show", default=None, help="id prefix to display")
    common(p)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("export", help="bit-exact generator matrix export")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--id", default=None)
    p.add_argument("--catalog", default=None)
    p.add_argument("--format", choices=["matrix-text", "json"], default="matrix-text")
    common(p)
    p.set_defaults(func=_cmd_export)

    return ap


def dispatch(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SearchFailure as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (AgmdsError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return dispatch(argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
