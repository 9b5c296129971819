"""Command-line front end.

Subcommands: curve-info, tables, build, certify, schur, selfdual, search,
catalog, export.  Human-readable text by default, a single JSON document
with --json.  Exit codes: 0 success, 1 for certification/search failures
(not-MDS, nothing found, budget exhausted), 2 for usage errors (the
message names the violated precondition).

The default seed is 0, overridable by the AGMDS_SEED environment variable;
an explicit --seed wins over both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog as cat
from .code import invariant_report, min_distance, schur_square
from .curves import (
    group_structure,
    hasse_window,
    parse_curve_text,
    point_text,
    admissible_curve_orders,
    admissible_group_structures,
)
from .errors import (
    AgmdsError,
    BudgetExceeded,
    BudgetExhausted,
    NoAdmissibleBeta,
    NoAdmissibleCurve,
    NoFullWeightSolution,
    NotFound,
    NotMDS,
    SubgroupNotFound,
)
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

SEARCH_FAILURES = (
    NotMDS,
    NotFound,
    BudgetExhausted,
    BudgetExceeded,
    NoAdmissibleCurve,
    NoAdmissibleBeta,
    NoFullWeightSolution,
    SubgroupNotFound,
)


def _default_seed() -> int:
    try:
        return int(os.environ.get("AGMDS_SEED", "0"))
    except ValueError:
        return 0


def _emit(args, doc: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _entry_doc(entry: cat.CatalogEntry) -> dict:
    # Stdout documents omit the timestamp so identical argv+seed runs are
    # byte-identical; the timestamp is added when storing.
    return entry.to_json_dict(with_created=False)


def _store(args, entry: cat.CatalogEntry) -> None:
    if getattr(args, "catalog", None):
        cat.append_entry(args.catalog, entry)


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


def _parse_q(q_text):
    _require(q_text is not None, "this recipe needs --q (as p, p^s or p^s:[modulus])")
    return parse_field_text(q_text)


def _cmd_build(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    recipe = args.recipe
    meta = {}
    m = None
    if recipe == "coset":
        field = _parse_q(args.q)
        _require(args.N is not None and args.n is not None and args.m is not None,
                 "coset recipe needs --N, --n and --m")
        m = args.m
        code, report, meta = search_coset_code(field, args.N, args.n, args.m, seed=seed)
        params = {"q": field.q, "N": args.N, "n": args.n, "m": args.m}
    elif recipe == "coprime-split":
        field = _parse_q(args.q)
        _require(args.l1 is not None and args.l2 is not None and args.m is not None,
                 "coprime-split recipe needs --l1, --l2 and --m")
        m = args.m
        code, report, meta = coprime_split_code(field, args.l1, args.l2, args.m, seed=seed)
        params = {"q": field.q, "l1": args.l1, "l2": args.l2, "m": args.m}
    elif recipe == "short-length":
        field = _parse_q(args.q)
        _require(args.n is not None and args.m is not None,
                 "short-length recipe needs --n and --m")
        m = args.m
        code, report, meta = short_length_code(field, args.n, args.m, seed=seed)
        params = {"q": field.q, "n": args.n, "m": args.m}
    elif recipe == "sqrt-prime":
        _require(args.p is not None and args.m is not None,
                 "sqrt-prime recipe needs --p and --m")
        m = args.m
        code, report, meta = sqrt_prime_code(args.p, args.m, longer=args.longer, seed=seed)
        params = {"p": args.p, "m": args.m, "longer": args.longer}
    elif recipe == "supersingular":
        _require(None not in (args.p, args.ext, args.N, args.k),
                 "supersingular recipe needs --p, --ext, --N and --k")
        m = args.k
        code, report, meta = supersingular_code(args.p, args.ext, args.N, args.k, seed=seed)
        params = {"p": args.p, "ext": args.ext, "N": args.N, "k": args.k}
    elif recipe == "twisted-rs":
        field = _parse_q(args.q)
        _require(args.alpha is not None and args.eta is not None and args.k is not None,
                 "twisted-rs recipe needs --alpha, --eta and --k")
        alphas = [field.parse_element(t) for t in args.alpha.split(",")]
        eta = field.parse_element(args.eta)
        code, report, flag = twisted_rs_code(field, alphas, eta, args.k)
        meta = {"mds_condition": flag}
        params = {"q": field.q, "alpha": args.alpha, "eta": args.eta, "k": args.k}
    elif recipe == "rs":
        field = _parse_q(args.q)
        _require(args.alpha is not None and args.k is not None,
                 "rs recipe needs --alpha and --k")
        alphas = [field.parse_element(t) for t in args.alpha.split(",")]
        code = rs_code(field, alphas, args.k)
        report = invariant_report(code)
        params = {"q": field.q, "alpha": args.alpha, "k": args.k}
    else:  # pragma: no cover - argparse restricts choices
        raise AgmdsError(f"unknown recipe {recipe}")
    entry = _make_entry(code, report, recipe, params, seed, meta, m)
    _store(args, entry)
    lines = [f"recipe {recipe}: built [{entry.n},{entry.k}] over {entry.field}"]
    if "mds_condition" in meta:
        lines.append(f"mds_condition: {meta['mds_condition']}")
    lines += _report_lines(report) + [f"id: {entry.id}"]
    doc = _entry_doc(entry)
    if "mds_condition" in meta:
        doc["mds_condition"] = meta["mds_condition"]
    _emit(args, doc, lines)
    return 0


def _make_entry(code, report, recipe, params, seed, meta, m):
    curve = meta.get("curve")
    field = code.field
    points = meta.get("points")
    return cat.make_entry(
        code,
        report,
        construction={"recipe": recipe, "params": params, "seed": seed},
        curve_text=curve.text() if curve is not None else None,
        n_points=meta.get("N"),
        group=meta.get("group"),
        m=m,
        points_text=[point_text(field, p) for p in points] if points else None,
    )


def _cmd_selfdual(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    code, report, meta = self_dual_pipeline(args.s1, args.s2, args.t, args.Lp, seed=seed)
    entry = _make_entry(
        code,
        report,
        "self-dual-pipeline",
        {"s1": args.s1, "s2": args.s2, "t": args.t, "Lp": args.Lp},
        seed,
        meta,
        report.n // 2,
    )
    _store(args, entry)
    lines = [
        f"self-dual pipeline over F_{code.field.q}: beta={meta['beta']}, "
        f"N={meta['N']}, group=Z/{meta['group'][0]} x Z/{meta['group'][1]}"
    ] + _report_lines(report) + [f"id: {entry.id}"]
    _emit(args, _entry_doc(entry), lines)
    return 0


def _cmd_search(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    field = parse_field_text(args.field)
    curve = parse_curve_text(field, args.curve)
    code, report, meta = genus2_mds_search(
        curve, args.n, args.m, seed=seed, budget=args.budget
    )
    entry = _make_entry(
        code,
        report,
        "genus2-search",
        {"field": field.spec_text(), "curve": curve.text(), "n": args.n, "m": args.m},
        seed,
        dict(meta, N=len(curve.points())),
        args.m,
    )
    _store(args, entry)
    lines = [
        f"found after {meta['attempts']} samples "
        f"(counting bound ok: {meta['counting_bound_ok']})"
    ] + _report_lines(report) + [f"id: {entry.id}"]
    doc = _entry_doc(entry)
    doc["attempts"] = meta["attempts"]
    _emit(args, doc, lines)
    return 0


def _load_code_arg(args):
    with open(args.infile, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return cat.code_from_json(json.loads(text))
    return cat.parse_matrix_text(text)


def _cmd_certify(args) -> int:
    code = _load_code_arg(args)
    report = invariant_report(code, args.budget)
    doc = {"field": code.field.spec_text(), "report": cat.report_to_dict(report)}
    _emit(args, doc, _report_lines(report))
    return 0


def _cmd_schur(args) -> int:
    code = _load_code_arg(args)
    sq = schur_square(code)
    try:
        sd = min_distance(sq, args.budget) if sq.k else None
    except BudgetExceeded:
        sd = None
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


# -- parser -------------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
        choices=[
            "coset", "coprime-split", "short-length", "sqrt-prime",
            "supersingular", "twisted-rs", "rs",
        ],
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
    p.add_argument("--budget", type=int, default=2000)
    common(p, seeded=True, catalog=True)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("certify", help="full invariant report for a stored code")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--budget", type=int, default=10**7)
    common(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("schur", help="Schur-square dimension and distance")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--budget", type=int, default=10**7)
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
    except SEARCH_FAILURES as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (AgmdsError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return dispatch(argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
