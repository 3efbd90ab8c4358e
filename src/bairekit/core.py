"""Canonical string enumeration, positions, arithmetic helpers, growth-bound
families, and pairing.

Strings are enumerated by length and then lexicographically; rank 0 is the
empty string.  Throughout the package, position p (1-based) of a
characteristic sequence stores the membership bit of the string of rank p-1,
so the first bit after a prefix of length m belongs to the string of rank m.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterator


def rank_to_string(i: int) -> str:
    """Return the i-th binary string in length-then-lex order."""
    if i < 0:
        raise ValueError("rank must be nonnegative")
    n = (i + 1).bit_length() - 1  # strings of length n occupy ranks 2^n-1 .. 2^(n+1)-2
    if n == 0:
        return ""
    return format(i - (2**n - 1), f"0{n}b")


def string_to_rank(x: str) -> int:
    """Inverse of :func:`rank_to_string`."""
    if x.strip("01") and x != "":
        raise ValueError(f"not a binary string: {x!r}")
    if not x:
        return 0
    return 2 ** len(x) - 1 + int(x, 2)


def strings_of_length(n: int) -> Iterator[str]:
    """All binary strings of length n in lexicographic order."""
    for v in range(2**n):
        yield format(v, f"0{n}b") if n else ""


def monus(a: int, b: int) -> int:
    """Truncated subtraction: max(a - b, 0)."""
    return a - b if a > b else 0


def ceil_log2(n: int) -> int:
    """Smallest m with 2^m >= n, for n >= 1."""
    if n < 1:
        raise ValueError("ceil_log2 needs n >= 1")
    return (n - 1).bit_length()


def prefix_arg_size(prefix_len: int) -> int:
    """The machine-input size of a prefix: ceil(log2(len + 1))."""
    return prefix_len.bit_length()


def iroot(x: int, k: int) -> int:
    """Floor of the k-th root of x, exact integer arithmetic."""
    if x < 0 or k < 1:
        raise ValueError("iroot needs x >= 0, k >= 1")
    if k == 1 or x < 2:
        return x
    if k == 2:
        return isqrt(x)
    # integer Newton steps fall from any seed above the root to its floor
    r = 1 << -(-x.bit_length() // k)
    while True:
        y = ((k - 1) * r + x // r ** (k - 1)) // k
        if y >= r:
            return r
        r = y


def ceil_pow(n: int, delta: Fraction) -> int:
    """ceil(n ** delta) for rational delta, exact."""
    if n == 0:
        return 0
    p, q = delta.numerator, delta.denominator
    base = n**p
    r = iroot(base, q)
    return r if r**q == base else r + 1


@dataclass(frozen=True)
class BoundFamily:
    """A parameterized growth-rate family standing in for a resource bound.

    Kinds: poly(k) -> n^k, quasipoly(k) -> n^(ceil(log2(n+2))^k),
    quasipolylin(k) -> n^(k*ceil(log2(n+2))), subexp(d) -> 2^ceil(n^d).
    Evaluation is arbitrary precision and clamped to >= 1.
    """

    kind: str
    param: Fraction

    def __post_init__(self) -> None:
        if self.kind not in ("poly", "quasipoly", "quasipolylin", "subexp"):
            raise ValueError(f"unknown bound kind: {self.kind}")
        if self.kind == "subexp" and not 0 < self.param < 1:
            raise ValueError("subexp exponent must lie in (0, 1)")
        if self.kind != "subexp" and (self.param.denominator != 1 or self.param < 0):
            raise ValueError("polynomial-style exponent must be a natural")

    @classmethod
    def poly(cls, k: int) -> "BoundFamily":
        return cls("poly", Fraction(k))

    @classmethod
    def quasipoly(cls, k: int) -> "BoundFamily":
        return cls("quasipoly", Fraction(k))

    @classmethod
    def quasipolylin(cls, k: int) -> "BoundFamily":
        return cls("quasipolylin", Fraction(k))

    @classmethod
    def subexp(cls, delta: Fraction) -> "BoundFamily":
        return cls("subexp", Fraction(delta))

    def __call__(self, n: int) -> int:
        return bound_eval(self, n)

    def label(self) -> str:
        return f"{self.kind}:{self.param}"


def bound_eval(f: BoundFamily, n: int) -> int:
    """Evaluate a bound family at n; total, monotone, and >= 1."""
    if n < 0:
        raise ValueError("bound argument must be nonnegative")
    if f.kind == "poly":
        v = n ** int(f.param)
    elif f.kind == "quasipoly":
        v = n ** (ceil_log2(n + 2) ** int(f.param))
    elif f.kind == "quasipolylin":
        v = n ** (int(f.param) * ceil_log2(n + 2))
    else:
        v = 2 ** ceil_pow(n, f.param)
    return max(v, 1)


def cantor_pair(i: int, j: int) -> int:
    """Cantor pairing (i+j)(i+j+1)/2 + j."""
    s = i + j
    return s * (s + 1) // 2 + j


def cantor_unpair(n: int) -> tuple[int, int]:
    """Exact inverse of :func:`cantor_pair`."""
    w = (isqrt(8 * n + 1) - 1) // 2
    j = n - w * (w + 1) // 2
    return w - j, j


def derive_seed(*parts: object) -> int:
    """Stable 64-bit seed derived from the given parts (platform independent)."""
    blob = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")
