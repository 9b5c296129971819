"""Layer kernels: field arithmetic in ns/op and 20x40 linear algebra in ms,
each the median of a few timed repeats over seeded inputs."""

from __future__ import annotations

import statistics
import time
from random import Random

from agmds import field as fields, linalg

# The prime, characteristic-2 and odd-characteristic extension cases.
FIELD_CASES = (("F19", 19, 1), ("F256", 2, 8), ("F343", 7, 3))
MATRIX_CASES = (("F256", 2, 8), ("F343", 7, 3))
PAIRS = 20_000
ROWS, COLS = 20, 40
REPEATS = 5


def _median_ns(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times)


def field_kernels(seed: int) -> dict[str, float]:
    out = {}
    for label, p, s in FIELD_CASES:
        F = fields.field_make(p, s)
        rng = Random(f"kernels:{seed}:{label}")
        pairs = [(rng.randrange(F.q), rng.randrange(1, F.q)) for _ in range(PAIRS)]
        add, mul, inv = F.add, F.mul, F.inv

        def add_all():
            for a, b in pairs:
                add(a, b)

        def mul_all():
            for a, b in pairs:
                mul(a, b)

        def inv_all():
            for _, b in pairs:
                inv(b)

        for name, fn in (("add", add_all), ("mul", mul_all), ("inv", inv_all)):
            out[f"field.{name}_ns.{label}"] = _median_ns(fn) / PAIRS
    return out


def linalg_kernels(seed: int) -> dict[str, float]:
    out = {}
    for label, p, s in MATRIX_CASES:
        F = fields.field_make(p, s)
        rng = Random(f"kernels:{seed}:{label}:matrix")
        M = linalg.FFMatrix(F, [[rng.randrange(F.q) for _ in range(COLS)] for _ in range(ROWS)])
        out[f"linalg.rank_ms.{label}"] = _median_ns(lambda: linalg.rank(M)) / 1e6
        out[f"linalg.kernel_basis_ms.{label}"] = _median_ns(lambda: linalg.kernel_basis(M)) / 1e6
    return out
