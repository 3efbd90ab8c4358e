"""Finite extension strategies: global, indexed, locally computable, and
probabilistic variants, with meets/avoids checking, union combination,
query-set enforcement, amplification, and extension-size bounding.

A strategy maps a characteristic-sequence prefix to an extension of it; the
prefix is always handed over as a 1-based read view so every oracle access can
be counted and checked against a declared query set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from .core import (
    BoundFamily,
    bound_eval,
    cantor_unpair,
    prefix_arg_size,
    rank_to_string,
)
from .errors import ExtensionCap, ScaleGuard
from .language import LanguageOracle

Bit = int
MaybeBit = Optional[int]

DEFAULT_EXT_CAP = 4096
DEFAULT_ENUM_CAP = 2**18


class PrefixOracle:
    """Random-access view of a 0/1 prefix.  Reads are 1-based and recorded;
    out-of-range reads answer 0, matching the padding convention used by every
    simulation in the package."""

    __slots__ = ("length", "_lookup", "reads")

    def __init__(self, length: int, lookup: Callable[[int], int]):
        self.length = length
        self._lookup = lookup
        self.reads: list[int] = []

    @classmethod
    def from_string(cls, bits: str) -> "PrefixOracle":
        return cls(len(bits), lambda p: int(bits[p - 1]))

    def __len__(self) -> int:
        return self.length

    def read(self, pos: int) -> int:
        self.reads.append(pos)
        if 1 <= pos <= self.length:
            return self._lookup(pos)
        return 0

    def peek(self, pos: int) -> int:
        """Unrecorded read, for harness-side bookkeeping only."""
        if 1 <= pos <= self.length:
            return self._lookup(pos)
        return 0

    def restricted(self, length: int) -> "PrefixOracle":
        """View of the first ``length`` bits.  In-range reads pass through and
        are recorded on the base view as well; reads beyond ``length`` answer
        0 without touching the base (they query the shorter prefix, not it)."""
        return PrefixOracle(min(length, self.length), self.read)

    def padded(self, bits: str) -> "PrefixOracle":
        """View extended by ``bits``.  Base-region reads are recorded on the
        base view; reads in the padding never touch it."""
        base_len = self.length

        def lookup(p: int) -> int:
            if p <= base_len:
                return self.read(p)
            return int(bits[p - base_len - 1])

        return PrefixOracle(base_len + len(bits), lookup)

    def materialize(self) -> str:
        return "".join(str(self.peek(p)) for p in range(1, self.length + 1))


PrefixLike = Union[str, PrefixOracle]


def as_view(sigma: PrefixLike) -> PrefixOracle:
    if isinstance(sigma, PrefixOracle):
        return sigma
    return PrefixOracle.from_string(sigma)


@dataclass(frozen=True)
class Constructor:
    """A finite extension strategy; ``extend`` returns the extension part only,
    so the image always extends the input by construction."""

    name: str
    extend: Callable[[PrefixOracle], str]

    def apply(self, sigma: PrefixLike) -> str:
        """The full image: sigma followed by its extension."""
        view = as_view(sigma)
        return view.materialize() + self.extend(view)


@dataclass(frozen=True)
class IndexedConstructor:
    """A family of strategies indexed by a natural number."""

    name: str
    extend_at: Callable[[int, PrefixOracle], str]

    def at(self, i: int) -> Constructor:
        return Constructor(f"{self.name}[{i}]", lambda view: self.extend_at(i, view))


@dataclass(frozen=True)
class LocalConstructor:
    """An indexed strategy whose extension is computed bit by bit.

    ``ext_bit(i, view, k)`` returns the k-th extension bit (1-based) or None
    once the extension has ended; a well-formed strategy never resumes after
    None.  ``query_set(n, i, k)`` declares every position that ext_bit may
    read, for all i' <= i, k' <= k, on inputs with arg size at most n.
    """

    name: str
    ext_bit: Callable[[int, PrefixOracle, int], MaybeBit]
    query_set: Callable[[int, int, int], tuple[int, ...]]


@dataclass(frozen=True)
class ProbabilisticLocalConstructor:
    """Local strategy computed with seeded randomness; correct with declared
    probability at error parameter n (validated empirically, not proved)."""

    name: str
    ext_bit_seeded: Callable[[int, PrefixOracle, int, int, int], MaybeBit]
    query_set: Callable[[int, int, int], tuple[int, ...]]


def ext_of(h: IndexedConstructor, i: int, sigma: PrefixLike) -> str:
    """The unique w with h_i(sigma) = sigma + w."""
    return h.extend_at(i, as_view(sigma))


def materialize_local(
    h: LocalConstructor, i: int, sigma: PrefixLike, cap: int = DEFAULT_EXT_CAP
) -> str:
    """Collect extension bits until the strategy ends; error if it is still
    emitting past ``cap`` bits."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    view = as_view(sigma)
    bits: list[str] = []
    for k in range(1, cap + 2):
        b = h.ext_bit(i, view, k)
        if b is None:
            return "".join(bits)
        if k > cap:
            raise ExtensionCap(f"{h.name}: no extension end within {cap} bits")
        bits.append(str(b))
    raise AssertionError("unreachable")


def extension_length(
    h: LocalConstructor, i: int, sigma: PrefixLike, cap: int = DEFAULT_EXT_CAP
) -> int:
    """``len(materialize_local(h, i, sigma, cap))``, with the same errors and
    ext_bit calls, counted without building the extension."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    view = as_view(sigma)
    k = 1
    while h.ext_bit(i, view, k) is not None:
        if k > cap:
            raise ExtensionCap(f"{h.name}: no extension end within {cap} bits")
        k += 1
    return k - 1


def local_as_constructor(h: LocalConstructor, i: int = 0, cap: int = DEFAULT_EXT_CAP) -> Constructor:
    return Constructor(f"{h.name}[{i}]", lambda view: materialize_local(h, i, view, cap))


def local_as_indexed(h: LocalConstructor, cap: int = DEFAULT_EXT_CAP) -> IndexedConstructor:
    return IndexedConstructor(h.name, lambda i, view: materialize_local(h, i, view, cap))


def constant_as_indexed(h: Constructor) -> IndexedConstructor:
    return IndexedConstructor(h.name, lambda i, view: h.extend(view))


@dataclass(frozen=True)
class MeetVerdict:
    met: bool
    tau: Optional[str]
    horizon: int

    def __str__(self) -> str:
        if self.met:
            return f"Met tau={self.tau!r}"
        return f"NotMetUpTo {self.horizon}"


StrategyLike = Union[Constructor, IndexedConstructor, LocalConstructor]


def _chi_bit(lang: LanguageOracle, pos: int) -> int:
    """Characteristic bit at 1-based position pos."""
    return lang.member(rank_to_string(pos - 1))


def meets_at(
    h: StrategyLike,
    lang: LanguageOracle,
    tau: str,
    *,
    index: int = 0,
    cap: int = DEFAULT_EXT_CAP,
) -> bool:
    """Does h(tau) prefix the characteristic sequence of ``lang``?

    For local strategies the extension is compared bit by bit and the scan
    stops at the first mismatch, so unreachable extension ends do not block
    the verdict.
    """
    if isinstance(h, LocalConstructor):
        if cap < 1:
            raise ValueError("cap must be >= 1")
        view = as_view(tau)
        for k in range(1, cap + 2):
            b = h.ext_bit(index, view, k)
            if b is None:
                return True
            if b != _chi_bit(lang, len(tau) + k):
                return False
            if k > cap:
                raise ExtensionCap(f"{h.name}: matched beyond {cap} bits with no end")
        raise AssertionError("unreachable")
    if isinstance(h, IndexedConstructor):
        w = h.extend_at(index, as_view(tau))
    else:
        w = h.extend(as_view(tau))
    return all(int(w[j]) == _chi_bit(lang, len(tau) + j + 1) for j in range(len(w)))


def meets_check(
    h: StrategyLike,
    lang: LanguageOracle,
    horizon: int,
    *,
    index: int = 0,
    cap: int = DEFAULT_EXT_CAP,
) -> MeetVerdict:
    """Search the prefixes of chi up to ``horizon`` for a meeting witness.

    Only prefixes of the characteristic sequence need scanning: h(tau) can
    prefix chi only if tau does.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    chi_bits: list[str] = []
    for m in range(horizon + 1):
        tau = "".join(chi_bits)
        if meets_at(h, lang, tau, index=index, cap=cap):
            return MeetVerdict(True, tau, horizon)
        if m < horizon:
            chi_bits.append(str(_chi_bit(lang, m + 1)))
    return MeetVerdict(False, None, horizon)


def union_combine(h: Callable[[int, int, PrefixOracle], str], name: str = "union") -> IndexedConstructor:
    """Fold a doubly indexed family into a singly indexed one via pairing."""

    def extend_at(n: int, view: PrefixOracle) -> str:
        i, j = cantor_unpair(n)
        return h(i, j, view)

    return IndexedConstructor(name, extend_at)


@dataclass(frozen=True)
class QueryViolation:
    position: int
    index: int
    bit_index: int
    trial: int


@dataclass(frozen=True)
class QueryReport:
    ok: bool
    violation: Optional[QueryViolation] = None

    def __str__(self) -> str:
        if self.ok:
            return "PASS"
        v = self.violation
        return f"FAIL position={v.position} i={v.index} k={v.bit_index} trial={v.trial}"


def enforce_query_set(
    h: LocalConstructor, trials: Sequence[tuple[int, int, int, str]]
) -> QueryReport:
    """Check that every oracle read during ext_bit(i', sigma, k') for
    i' <= i, k' <= k lies in the declared query_set(n, i, k)."""
    for t_idx, (n, i, k, sigma) in enumerate(trials):
        if prefix_arg_size(len(sigma)) > n:
            raise ValueError(f"trial {t_idx}: prefix arg size exceeds declared n={n}")
        allowed = set(h.query_set(n, i, k))
        for i_sub in range(i + 1):
            for k_sub in range(1, k + 1):
                view = as_view(sigma)
                h.ext_bit(i_sub, view, k_sub)
                for pos in view.reads:
                    if pos not in allowed:
                        return QueryReport(False, QueryViolation(pos, i_sub, k_sub, t_idx))
    return QueryReport(True)


def wrap_deterministic(h: LocalConstructor) -> ProbabilisticLocalConstructor:
    """Present a deterministic local strategy as a probabilistic one."""
    return ProbabilisticLocalConstructor(
        h.name,
        lambda i, view, k, n, seed: h.ext_bit(i, view, k),
        h.query_set,
    )


def amplify(ph: ProbabilisticLocalConstructor, reps: int) -> ProbabilisticLocalConstructor:
    """Majority vote over ``reps`` independent-seed runs of each bit.

    Whether the bit has ended is decided first, by majority of end-vs-bit
    outcomes; the surviving bit outcomes then vote, ties resolving to 1.
    """
    from .core import derive_seed

    if reps < 1 or reps % 2 == 0:
        raise ValueError("reps must be odd and >= 1")

    def ext_bit_seeded(i: int, view: PrefixOracle, k: int, n: int, seed: int) -> MaybeBit:
        outcomes = [
            ph.ext_bit_seeded(i, view, k, n, derive_seed("amplify", seed, r))
            for r in range(reps)
        ]
        ends = sum(1 for o in outcomes if o is None)
        if 2 * ends > reps:
            return None
        ones = sum(1 for o in outcomes if o == 1)
        zeros = sum(1 for o in outcomes if o == 0)
        return 1 if ones >= zeros else 0

    return ProbabilisticLocalConstructor(f"amplify[{reps}]({ph.name})", ext_bit_seeded, ph.query_set)


def bound_extension_sizes(
    h: LocalConstructor,
    i_max: int,
    *,
    enum_cap: int = DEFAULT_ENUM_CAP,
    ext_cap: int = DEFAULT_EXT_CAP,
) -> list[int]:
    """Block-size table f(0..i_max): f(0) = 1 and f(i) dominates both 2^i and
    every extension h_i produces on prefixes shorter than the blocks so far.

    The table certifies that block i of a diagonal construction (of size f(i))
    can hold ext(h_i(prefix through block i-1)).
    """
    f = [1]
    for i in range(1, i_max + 1):
        budget = sum(f)
        if 2 ** (budget + 1) - 1 > enum_cap:
            raise ScaleGuard(
                f"f({i}) needs {2 ** (budget + 1) - 1} prefixes; cap is {enum_cap}"
            )
        best = 2**i
        for length in range(budget + 1):
            for v in range(2**length):
                sigma = format(v, f"0{length}b") if length else ""
                best = max(best, extension_length(h, i, sigma, ext_cap))
        f.append(best)
    return f


def bound_uniform(h: IndexedConstructor, m: int, *, enum_cap: int = DEFAULT_ENUM_CAP) -> int:
    """max over t <= m and |tau| <= m of |h_t(tau)| (whole image, not just ext)."""
    if 2 ** (m + 1) - 1 > enum_cap:
        raise ScaleGuard(f"bound_uniform at m={m} exceeds enumeration cap {enum_cap}")
    best = 0
    for length in range(m + 1):
        for v in range(2**length):
            tau = format(v, f"0{length}b") if length else ""
            for t in range(m + 1):
                best = max(best, length + len(ext_of(h, t, tau)))
    return best


@dataclass(frozen=True)
class MeterReport:
    """Diagnostic resource report; never a correctness gate."""

    queries: int
    emitted_bits: int
    steps: int
    bound: BoundFamily
    bound_value: int
    arg_size: int

    @property
    def violation(self) -> bool:
        return max(self.queries, self.emitted_bits, self.steps) > self.bound_value

    def __str__(self) -> str:
        verdict = "VIOLATION" if self.violation else "ok"
        return (
            f"queries={self.queries} bits={self.emitted_bits} steps={self.steps} "
            f"bound={self.bound.label()}={self.bound_value} arg={self.arg_size} [{verdict}]"
        )


def meter_extension(
    h: StrategyLike,
    sigma: PrefixLike,
    bound: BoundFamily,
    *,
    index: int = 0,
    cap: int = DEFAULT_EXT_CAP,
) -> tuple[str, MeterReport]:
    """Apply a strategy under a counting view and compare the counts against
    the bound family evaluated at the argument size."""
    view = as_view(sigma)
    n = prefix_arg_size(len(view)) + index.bit_length()
    if isinstance(h, LocalConstructor):
        if cap < 1:
            raise ValueError("cap must be >= 1")
        steps = 0
        bits: list[str] = []
        for k in range(1, cap + 2):
            steps += 1
            b = h.ext_bit(index, view, k)
            if b is None:
                break
            if k > cap:
                raise ExtensionCap(f"{h.name}: no extension end within {cap} bits")
            bits.append(str(b))
        w = "".join(bits)
    elif isinstance(h, IndexedConstructor):
        steps = 1
        w = h.extend_at(index, view)
    else:
        steps = 1
        w = h.extend(view)
    report = MeterReport(len(view.reads), len(w), steps, bound, bound_eval(bound, n), n)
    return w, report
