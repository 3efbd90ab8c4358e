"""Exact-rational martingales: fairness verification, capital traces, and the
density bettor that wins on languages with recurring empty levels.

Betting-form martingales carry a stake function (signed stake on the next bit
being 1), so the fairness identity 2d(w) = d(w0) + d(w1) holds structurally;
externally supplied value functions are checked by :func:`fairness_check`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from .core import rank_to_string
from .language import LanguageOracle


@dataclass(frozen=True)
class Martingale:
    """Betting-form martingale: capital is derived from stakes."""

    name: str
    initial: Fraction
    bet: Callable[[str], Fraction]

    def value(self, w: str) -> Fraction:
        d = self.initial
        for p in range(1, len(w) + 1):
            stake = self.bet(w[: p - 1])
            d = d + stake if w[p - 1] == "1" else d - stake
        return d


@dataclass(frozen=True)
class ValueMartingale:
    """Martingale given directly by a value function (fixtures, imports)."""

    name: str
    value_fn: Callable[[str], Fraction]

    def value(self, w: str) -> Fraction:
        return self.value_fn(w)


MartingaleLike = Union[Martingale, ValueMartingale]


@dataclass(frozen=True)
class FairnessReport:
    ok: bool
    witness: Optional[str] = None
    reason: str = ""

    def __str__(self) -> str:
        return "PASS" if self.ok else f"FAIL at {self.witness!r}: {self.reason}"


def fairness_check(d: MartingaleLike, depth: int) -> FairnessReport:
    """Verify 2d(w) = d(w0) + d(w1) exactly, and d >= 0, for all |w| <= depth."""
    if depth > 14:
        raise ValueError("fairness depth capped at 14")
    if depth < 0:
        raise ValueError("fairness depth must be >= 0")

    if isinstance(d, Martingale):
        # capital is carried down the tree, one stake evaluation per node
        def walk(w: str, cap: Fraction) -> FairnessReport:
            if cap < 0:
                return FairnessReport(False, w, f"negative capital {cap}")
            if len(w) == depth:
                return FairnessReport(True)
            stake = d.bet(w)
            if abs(stake) > cap:
                return FairnessReport(False, w, f"stake {stake} exceeds capital {cap}")
            for bit, nxt in (("0", cap - stake), ("1", cap + stake)):
                sub = walk(w + bit, nxt)
                if not sub.ok:
                    return sub
            return FairnessReport(True)

        return walk("", d.initial)

    def walk_values(w: str) -> FairnessReport:
        dw = d.value(w)
        if dw < 0:
            return FairnessReport(False, w, f"negative capital {dw}")
        if len(w) == depth:
            return FairnessReport(True)
        if 2 * dw != d.value(w + "0") + d.value(w + "1"):
            return FairnessReport(False, w, "2d(w) != d(w0) + d(w1)")
        for bit in "01":
            sub = walk_values(w + bit)
            if not sub.ok:
                return sub
        return FairnessReport(True)

    return walk_values("")


def capital_trace(d: MartingaleLike, lang: LanguageOracle, horizon: int) -> list[Fraction]:
    """Exact capital values d(chi[1..p]) for p = 0..horizon."""
    trace: list[Fraction] = []
    if isinstance(d, Martingale):
        cap = d.initial
        trace.append(cap)
        w = []
        for p in range(1, horizon + 1):
            stake = d.bet("".join(w))
            bit = lang.member(rank_to_string(p - 1))
            cap = cap + stake if bit else cap - stake
            w.append(str(bit))
            trace.append(cap)
        return trace
    w = ""
    for p in range(horizon + 1):
        trace.append(d.value(w))
        if p < horizon:
            w += str(lang.member(rank_to_string(p)))
    return trace


def level_window(n: int) -> tuple[int, int]:
    """1-based chi positions holding the first n strings of length n."""
    return 2**n, 2**n + n - 1


def _betting_level(p: int) -> Optional[int]:
    """Level whose window contains position p, if any."""
    n = p.bit_length() - 1
    if n >= 1 and p - 2**n < n:
        return n
    return None


def density_bettor() -> Martingale:
    """Splits capital into level shares c_n = 1/(2 n^2) and bets each share
    all-in on bit 0 across the first n strings of length n.

    A full share doubles n times on an empty level, gaining 2^(n-1)/n^2; a
    single member in the window forfeits the share.  The halved shares keep
    the total stake strictly below the unit initial capital.
    """

    def bet(w: str) -> Fraction:
        p = len(w) + 1
        n = _betting_level(p)
        if n is None:
            return Fraction(0)
        start, _ = level_window(n)
        prior = w[start - 1 : p - 1]
        if "1" in prior:
            return Fraction(0)  # share already lost on this level
        share = Fraction(1, 2 * n * n) * 2 ** len(prior)
        return -share

    return Martingale("density", Fraction(1), bet)


def constant_martingale(value: Fraction = Fraction(1)) -> Martingale:
    return Martingale("constant", value, lambda w: Fraction(0))


def empty_level_indicator(lang: LanguageOracle, n: int) -> int:
    """1 iff none of the first n strings of length n is a member."""
    if n < 1:
        raise ValueError("levels start at n = 1")
    return int(all(lang.member(format(v, f"0{n}b")) == 0 for v in range(min(n, 2**n))))
