"""The benchmark's seeded workloads.

A workload turns (seed, batch index) into a fixed batch of steps.  A step
with a check is an op, one user-level request: a recipe call, a CLI command
or a catalog append.  Checks run after the batch, outside its timing, and
return None when the output is right, else the reason it is wrong.  Every
input comes from the seed; agmds is driven only through its public modules,
looked up at call time so that a tracer's wrappers see the calls.
"""

from __future__ import annotations

import functools
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from random import Random
from typing import Callable

import agmds
from agmds import catalog, cli, code as codes, curves, recipes


@dataclass(frozen=True)
class Step:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None] | None = None

    @property
    def is_op(self) -> bool:
        return self.check is not None


@dataclass(frozen=True)
class Workload:
    name: str
    # (p, s) of every field the workload uses; set-up builds their tables.
    fields: tuple
    # (seed, batch index, scratch directory of the batch) -> steps
    batch: Callable[[int, int, str], list]


def build_tables(fields) -> None:
    """Build the arithmetic tables of each field, as the first inv and the
    first chi or solve_quadratic would."""
    for p, s in fields:
        F = agmds.field_make(p, s)
        F.inv(1)
        if p == 2:
            F.solve_quadratic(1, 1)
        else:
            F.chi(1)


def _rng(name: str, seed: int, index: int) -> Random:
    return Random(f"{name}:{seed}:{index}")


def _seeds(rng: Random, count: int) -> list[int]:
    return [rng.randrange(1 << 31) for _ in range(count)]


# -- elliptic recipes -------------------------------------------------------------


def _coset_check(n: int, m: int):
    def check(out) -> str | None:
        code, report, meta = out
        if (code.n, code.k) != (n, m):
            return f"[n,k] = [{code.n},{code.k}], requested [{n},{m}]"
        if report.is_mds is not True or report.d != n - m + 1:
            return f"report says d={report.d}, is_mds={report.is_mds}"
        curve = meta["curve"]
        points = meta.get("points") or curves.coset(curve, meta["subgroup"], meta["rep"])
        if not codes.is_mds_by_group_sums(curve, points, m):
            return f"some {m} evaluation points sum to the identity"
        if codes.build_code(curve, points, m).gen != code.gen:
            return "build_code gives another generator"
        return None

    return check


def _self_dual_check(n: int):
    k = n // 2

    def check(out) -> str | None:
        sd, report, meta = out
        if (sd.n, sd.k) != (n, k):
            return f"[n,k] = [{sd.n},{sd.k}], requested [{n},{k}]"
        if report.is_mds is not True or report.d != n - k + 1:
            return f"report says d={report.d}, is_mds={report.is_mds}"
        curve, points = meta["curve"], meta["points"]
        if not codes.is_mds_by_group_sums(curve, points, k):
            return f"some {k} evaluation points sum to the identity"
        base = codes.build_code(curve, points, k)
        roots = [sd.field.frobenius_sqrt(v) for v in sd.provenance["scaling"]]
        if base.gen != meta["base_code"].gen or base.gen.scale_columns(roots) != sd.gen:
            return "build_code and the recorded scaling give another generator"
        if not sd.gen.mul(sd.gen.transpose()).is_zero():
            return "G * G^T is not zero"
        return None

    return check


def _points_and_group(F, text: str):
    curve = curves.parse_curve_text(F, text)
    return len(curve.points()), curves.group_structure(curve)


def _group_check(q: int):
    def check(out) -> str | None:
        n_points, (d1, d2) = out
        if d1 * d2 != n_points:
            return f"d1 * d2 = {d1 * d2} but the curve has {n_points} points"
        if not curves.is_admissible_structure(q, n_points, d1, d2):
            return f"({d1},{d2}) is not an admissible shape for N={n_points}"
        return None

    return check


def ec_char2_batch(seed: int, index: int, scratch: str) -> list[Step]:
    s = _seeds(_rng("ec-char2", seed, index), 3)
    F8, F16 = agmds.field_make(2, 8), agmds.field_make(2, 16)
    return [
        Step(
            "search_coset_code F_2^8 N=288 n=16 m=8",
            lambda: recipes.search_coset_code(F8, 288, 16, 8, seed=s[0]),
            _coset_check(16, 8),
        ),
        Step(
            "self_dual_pipeline 2,4,1,3",
            lambda: recipes.self_dual_pipeline(2, 4, 1, 3, seed=s[1]),
            _self_dual_check(6),
        ),
        Step(
            "self_dual_pipeline 4,2,1,3",
            lambda: recipes.self_dual_pipeline(4, 2, 1, 3, seed=s[2]),
            _self_dual_check(6),
        ),
        Step(
            "points and group_structure of g1:1,0,0,0,1 over F_2^16",
            lambda: _points_and_group(F16, "g1:1,0,0,0,1"),
            _group_check(F16.q),
        ),
    ]


def _curve_check(F, n_points: int):
    def check(curve) -> str | None:
        count = len(curve.points())
        if count != n_points:
            return f"the curve has {count} points, not {n_points}"
        return _group_check(F.q)((count, curves.group_structure(curve)))

    return check


def ec_oddext_batch(seed: int, index: int, scratch: str) -> list[Step]:
    s = _seeds(_rng("ec-oddext", seed, index), 3)
    F343, F125 = agmds.field_make(7, 3), agmds.field_make(5, 3)
    return [
        Step(
            "find_curve_with_order F_7^3 N=312",
            lambda: curves.find_curve_with_order(F343, 312, seed=s[0]),
            _curve_check(F343, 312),
        ),
        Step(
            "supersingular_code 7,3,8,4",
            lambda: recipes.supersingular_code(7, 3, 8, 4, seed=s[0]),
            _coset_check(8, 4),
        ),
        Step(
            "search_coset_code F_5^3 N=110 n=10 m=5",
            lambda: recipes.search_coset_code(F125, 110, 10, 5, seed=s[1]),
            _coset_check(10, 5),
        ),
        Step(
            "search_coset_code F_5^3 N=130 n=10 m=5",
            lambda: recipes.search_coset_code(F125, 130, 10, 5, seed=s[2]),
            _coset_check(10, 5),
        ),
    ]


# -- genus-2 hunt through the CLI -------------------------------------------------------

G2_CALLS = 40
G2_N, G2_M = 9, 6
G2_ARGV = ["search", "--field", "31", "--curve", "g2:1,0,0,0,0,1;0,0,0",
           "--n", str(G2_N), "--m", str(G2_M)]


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _stored_code(entry):
    return catalog.code_from_json(
        {"field": entry.field, "n": entry.n, "k": entry.k, "matrix": entry.matrix}
    )


def _g2_check(stored: Callable[[], dict]):
    def check(out) -> str | None:
        rc, stdout = out
        if rc != 0:
            return f"exit code {rc}"
        if stdout.count("\n") != 1 or not stdout.endswith("\n"):
            return "stdout is not exactly one line"
        try:
            doc = json.loads(stdout)
        except ValueError:
            return "stdout is not a JSON document"
        n, k, d = doc["n"], doc["k"], doc["report"]["d"]
        # dim L(m*P0) = m - 1 on a genus-2 curve
        if (n, k) != (G2_N, G2_M - 1) or d != n - k + 1:
            return f"[n,k,d] = [{n},{k},{d}]"
        entry = stored().get(doc["id"])
        if entry is None:
            return "the code is not in the catalog"
        if entry.matrix != doc["matrix"] or not codes.is_mds_by_minors(_stored_code(entry)):
            return "the stored code is not the printed MDS code"
        return None

    return check


def g2_hunt_cli_batch(seed: int, index: int, scratch: str) -> list[Step]:
    rng = _rng("g2-hunt-cli", seed, index)
    path = os.path.join(scratch, "g2.jsonl")
    stored = functools.cache(lambda: {e.id: e for e in catalog.load_entries(path)})
    check = _g2_check(stored)
    steps = []
    for s in _seeds(rng, G2_CALLS):
        argv = G2_ARGV + ["--seed", str(s), "--json", "--catalog", path]
        steps.append(Step(f"agmds search --seed {s}", functools.partial(_cli, argv), check))
    return steps


# -- catalog at scale ---------------------------------------------------------------

SWEEP_APPENDS = 400
SWEEP_READ_EVERY = 10
SWEEP_PREFIX = 12
# (p, s, n, k) of the seeded Reed-Solomon codes the sweep stores.
SWEEP_POOL = ((2, 8, 12, 6), (2, 8, 10, 4), (31, 1, 12, 6), (31, 1, 10, 5))


@functools.cache
def _sweep_pool(seed: int) -> tuple:
    rng = _rng("catalog-sweep-pool", seed, 0)
    pool = []
    for p, s, n, k in SWEEP_POOL:
        F = agmds.field_make(p, s)
        code = recipes.rs_code(F, rng.sample(range(1, F.q), n), k)
        pool.append((code, codes.invariant_report(code)))
    return tuple(pool)


def _sweep_read(path: str, entry, reads: dict, i: int) -> None:
    """load_entries, a prefix lookup of entry i and a matrix-text round trip
    of what the lookup found; results are checked after the batch."""
    try:
        hits = [e for e in catalog.load_entries(path) if e.id.startswith(entry.id[:SWEEP_PREFIX])]
        back = None
        if hits:
            back = catalog.parse_matrix_text(catalog.export_matrix_text(_stored_code(hits[0])))
        reads.setdefault(i, []).append(([e.id for e in hits], back))
    except Exception as exc:  # a failed read is a wrong output of append i
        reads.setdefault(i, []).append((f"read raised {exc!r}", None))


def _sweep_check(entry, code, stored: Callable[[], list], reads: dict, i: int):
    def check(changed) -> str | None:
        if changed is not True:
            return "append_entry reported no change"
        entries = stored()
        if len(entries) != SWEEP_APPENDS:
            return f"the catalog holds {len(entries)} entries, not {SWEEP_APPENDS}"
        mine = [e for e in entries if e.id == entry.id]
        if len(mine) != 1:
            return f"entry stored {len(mine)} times"
        if catalog.content_id(mine[0].to_json_dict()) != mine[0].id:
            return "stored id is not the content hash"
        for ids, back in reads.get(i, ()):
            if ids != [entry.id]:
                return f"prefix lookup found {ids}"
            if back.field != code.field or back.gen != code.gen:
                return "matrix-text round trip changed the generator"
        return None

    return check


def catalog_sweep_batch(seed: int, index: int, scratch: str) -> list[Step]:
    rng = _rng("catalog-sweep", seed, index)
    pool = _sweep_pool(seed)
    path = os.path.join(scratch, "sweep.jsonl")
    stored = functools.cache(lambda: catalog.load_entries(path))
    reads: dict = {}
    entries = []
    for i in range(SWEEP_APPENDS):
        code, report = pool[rng.randrange(len(pool))]
        construction = {"recipe": "rs", "sweep": seed, "batch": index, "index": i}
        entries.append((catalog.make_entry(code, report, construction), code))
    steps = []
    for i, (entry, code) in enumerate(entries):
        steps.append(Step(
            f"append_entry {i}",
            lambda e=entry: catalog.append_entry(path, e),
            _sweep_check(entry, code, stored, reads, i),
        ))
        if i % SWEEP_READ_EVERY == SWEEP_READ_EVERY - 1:
            j = rng.randrange(i + 1)
            steps.append(Step(
                f"read {j} after append {i}",
                lambda e=entries[j][0], j=j: _sweep_read(path, e, reads, j),
            ))
    return steps


# Each entry's reason for being in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("ec-char2", ((2, 8), (2, 16)), ec_char2_batch),
        Workload("ec-oddext", ((7, 3), (5, 3)), ec_oddext_batch),
        Workload("g2-hunt-cli", ((31, 1),), g2_hunt_cli_batch),
        Workload("catalog-sweep", ((2, 8), (31, 1)), catalog_sweep_batch),
    )
}
