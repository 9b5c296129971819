"""Small integer helpers: primality and factoring.

Everything here targets desk-scale integers (< 2**32); trial division is
plenty and keeps the routines obviously correct.
"""

from __future__ import annotations

from functools import cache


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorint(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}; factorint(1) == {}."""
    if n < 1:
        raise ValueError("factorint expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@cache
def prime_factors(n: int) -> tuple[int, ...]:
    return tuple(sorted(factorint(n)))


def prime_power_split(q: int) -> tuple[int, int]:
    """Return (p, n) with q == p**n, or raise ValueError."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    fac = factorint(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    ((p, n),) = fac.items()
    return p, n
