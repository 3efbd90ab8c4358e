"""Banach-Mazur game engine, the meagerness/winning-strategy conversions in
both directions (global and local), and the diagonal languages that meet
every member of an indexed family.

Positions are 1-based throughout; block i of a diagonal language starts right
after the blocks before it, and its extension bits start at the block's first
position, so the construction meets h_i at the block boundary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Union

from .core import derive_seed, monus, prefix_arg_size, string_to_rank
from .errors import ExtensionCap, ExtensionOverflow, PlayerIIStalled, ScaleGuard
from .language import LanguageOracle
from .strategy import (
    Constructor,
    IndexedConstructor,
    LocalConstructor,
    PrefixOracle,
    as_view,
    bound_uniform,
    ext_of,
    materialize_local,
)


@dataclass(frozen=True)
class HalfMove:
    move_index: int
    player: str
    state_length: int
    extension_length: int


@dataclass(frozen=True)
class GameTranscript:
    records: tuple[HalfMove, ...]
    result_prefix: str

    @property
    def move_count(self) -> int:
        return len(self.records)

    @property
    def rounds(self) -> int:
        return sum(1 for r in self.records if r.player == "II")


def run_game(
    f: Constructor, g: Constructor, max_rounds: int, horizon: int
) -> GameTranscript:
    """Alternate f (Player I) and g (Player II) from the empty string until a
    full round ends at or past ``horizon`` bits, or ``max_rounds`` rounds.

    Player I may extend by nothing; Player II must strictly extend.
    """
    state = ""
    records: list[HalfMove] = []
    idx = 0
    for _ in range(max_rounds):
        w = f.extend(as_view(state))
        state += w
        idx += 1
        records.append(HalfMove(idx, "I", len(state), len(w)))
        w = g.extend(as_view(state))
        if not w:
            raise PlayerIIStalled(f"{g.name} returned an empty extension at length {len(state)}")
        state += w
        idx += 1
        records.append(HalfMove(idx, "II", len(state), len(w)))
        if len(state) >= horizon:
            break
    return GameTranscript(tuple(records), state)


def identity_adversary() -> Constructor:
    return Constructor("identity", lambda view: "")


def zeros_adversary() -> Constructor:
    return Constructor("zeros", lambda view: "0")


def seeded_adversary(seed: int) -> Constructor:
    """Deterministic pseudo-random extender: 1 to 4 bits drawn from the seed
    and the current state."""

    def extend(view: PrefixOracle) -> str:
        rng = random.Random(derive_seed("adversary", seed, view.materialize()))
        return "".join(str(rng.randrange(2)) for _ in range(rng.randrange(1, 5)))

    return Constructor(f"seeded[{seed}]", extend)


def adversary_suite(seed: int = 11) -> list[Constructor]:
    """The fixed Player I suite used by the conversion checks."""
    return [identity_adversary(), zeros_adversary(), seeded_adversary(seed)]


def winning_to_indexed(g: Constructor) -> IndexedConstructor:
    """h_k(sigma) = g(sigma padded with zeros up to length k); the returned
    extension is relative to sigma, so it starts with the padding bits."""

    def extend_at(k: int, view: PrefixOracle) -> str:
        pad = "0" * monus(k, len(view))
        return pad + g.extend(view.padded(pad))

    return IndexedConstructor(f"from-game({g.name})", extend_at)


def _met_in_view(
    h: IndexedConstructor, t: int, view: PrefixOracle, bound: int
) -> Optional[tuple[int, str]]:
    """A verified (tau length, image h_t(tau)) inside the view, for some
    prefix tau of it with |tau| <= bound; None if there is none."""
    for m in range(min(bound, len(view)) + 1):
        w = h.extend_at(t, view.restricted(m))
        if m + len(w) <= len(view) and all(
            int(w[j]) == view.peek(m + 1 + j) for j in range(len(w))
        ):
            tau = "".join(str(view.peek(q)) for q in range(1, m + 1))
            return m, tau + w
    return None


def indexed_to_winning(h: IndexedConstructor) -> Constructor:
    """Player II strategy that always extends by the smallest family index not
    yet visibly met inside the current state.

    The scan ranges over indices and prefix lengths up to the state's argument
    size; when every index in range is met the move is a single 0.  Witnesses
    are cached as (tau length, image) and only trusted when the current scan
    would rediscover them, so the strategy stays a pure function of the state.
    """
    met_cache: dict[int, tuple[int, str]] = {}

    def met(t: int, view: PrefixOracle, bound: int) -> bool:
        cached = met_cache.get(t)
        if cached is not None:
            tau_len, img = cached
            if (
                tau_len <= bound
                and len(img) <= len(view)
                and all(int(img[j]) == view.peek(j + 1) for j in range(len(img)))
            ):
                return True
        found = _met_in_view(h, t, view, bound)
        if found is not None:
            tau_len, img = found
            met_cache[t] = (tau_len, img)
            return True
        return False

    def extend(view: PrefixOracle) -> str:
        bound = prefix_arg_size(len(view))
        for t in range(1, bound + 1):
            if not met(t, view, bound):
                return h.extend_at(t, view)
        return "0"

    return Constructor(f"to-game({h.name})", extend)


def _met_local_in_view(h: LocalConstructor, t: int, view: PrefixOracle, bound: int) -> bool:
    """Bit-by-bit prefix check of h_t(tau) against the view; extensions that
    outrun the view cannot be prefixes, so the scan always terminates."""
    for m in range(min(bound, len(view)) + 1):
        sub = view.restricted(m)
        k = 1
        while True:
            b = h.ext_bit(t, sub, k)
            if b is None:
                return True
            if m + k > len(view) or b != view.peek(m + k):
                break
            k += 1
    return False


def indexed_to_winning_loc(
    h: LocalConstructor, *, enum_cap: int = 2**18, max_table: int = 16
) -> LocalConstructor:
    """Local Player II strategy: first bit 0, remaining bits shifted from the
    smallest not-visibly-met index evaluated on the state plus that 0.

    The index/prefix scan is capped at B, the largest m whose uniform image
    bound fits the argument size, so every image inspected during the scan
    fits inside the readable region.
    """
    table: dict[int, int] = {}
    picked: dict[str, Optional[int]] = {}
    as_indexed = IndexedConstructor(h.name, lambda t, view: materialize_local(h, t, view))

    def f(m: int) -> int:
        if m not in table:
            table[m] = bound_uniform(as_indexed, m, enum_cap=enum_cap)
        return table[m]

    def scan_bound(n: int) -> int:
        b = 0
        while b + 1 <= max_table and f(b + 1) <= n:
            b += 1
        return b

    def pick_index(view: PrefixOracle) -> Optional[int]:
        key = view.materialize()
        if key in picked:
            return picked[key]
        bound = scan_bound(prefix_arg_size(len(view)))
        n0: Optional[int] = None
        for t in range(1, bound + 1):
            if not _met_local_in_view(h, t, view, bound):
                n0 = t
                break
        picked[key] = n0
        return n0

    def ext_bit(i: int, view: PrefixOracle, k: int) -> Optional[int]:
        n0 = pick_index(view)
        if n0 is None:
            return 0 if k == 1 else None
        if k == 1:
            return 0
        return h.ext_bit(n0, view.padded("0"), k - 1)

    def query_set(n: int, i: int, k: int) -> tuple[int, ...]:
        positions = set(range(1, n + 1))
        if k >= 2:
            b = scan_bound(n)
            positions.update(h.query_set(n + 1, max(b, 1), k - 1))
        return tuple(sorted(positions))

    return LocalConstructor(f"to-game-loc({h.name})", ext_bit, query_set)


def meets_within(
    h: Union[Constructor, IndexedConstructor],
    bits: str,
    *,
    index: int = 0,
) -> tuple[bool, Optional[str]]:
    """Does some prefix tau of ``bits`` have its whole image h(tau) inside
    ``bits``?  Witnesses running past the string never count."""
    for m in range(len(bits) + 1):
        tau = bits[:m]
        w = ext_of(h, index, tau) if isinstance(h, IndexedConstructor) else h.extend(as_view(tau))
        if m + len(w) <= len(bits) and bits[m : m + len(w)] == w:
            return True, tau
    return False, None


def _stored_block_lookup(stored: dict[int, str]):
    def lookup(pos: int) -> int:
        lvl = pos.bit_length() - 1
        if lvl == 0:
            return 0  # block 0 is the single bit 0
        offset = pos - 2**lvl
        ext = stored.get(lvl, "")
        return int(ext[offset]) if offset < len(ext) else 0

    return lookup


def diag_language_global(h: IndexedConstructor) -> LanguageOracle:
    """Language meeting h_i for every i >= 1, with block i (the positions of
    all length-i strings) holding ext(h_i(blocks before)) padded with zeros.

    Membership is computed per string from the extensions of all blocks up to
    the string's length, answering the strategy's queries from the stored
    extensions and zeros.  Each language keeps the extensions it has computed,
    so a query computes only the blocks no earlier query reached, in
    increasing order; the store is bounded by the longest string queried.  A
    block that overflows is not stored, so a retry raises again.
    """
    stored: dict[int, str] = {}

    def member(x: str) -> int:
        n = len(x)
        for i in range(len(stored) + 1, n + 1):
            view = PrefixOracle(2**i - 1, _stored_block_lookup(stored))
            w = h.extend_at(i, view)
            if len(w) > 2**i:
                raise ExtensionOverflow(f"{h.name}[{i}]: {len(w)} bits exceed block size {2**i}")
            stored[i] = w
        if n == 0:
            return 0
        offset = int(x, 2)
        ext = stored[n]
        return int(ext[offset]) if offset < len(ext) else 0

    return LanguageOracle(f"diag({h.name})", member)


def diag_prefix_global(h: IndexedConstructor, n_bits: int) -> str:
    """Direct whole-prefix block construction; the independent counterpart of
    :func:`diag_language_global`'s per-string algorithm."""
    prefix = "0"
    i = 1
    while len(prefix) < n_bits:
        w = ext_of(h, i, prefix)
        if len(w) > 2**i:
            raise ExtensionOverflow(f"{h.name}[{i}]: {len(w)} bits exceed block size {2**i}")
        prefix += w + "0" * (2**i - len(w))
        i += 1
    return prefix[:n_bits]


def block_location(f_table: list[int], pos: int) -> tuple[int, int]:
    """Map a 1-based chi position to (block index, 1-based offset in block)
    for blocks of the given sizes."""
    if pos < 1:
        raise ValueError("positions are 1-based")
    start = 0  # cumulative size of the blocks before the current one
    for i, width in enumerate(f_table):
        if pos <= start + width:
            return i, pos - start
        start += width
    raise ScaleGuard(f"position {pos} lies beyond the {len(f_table)} computed blocks")


def diag_language_local(h: LocalConstructor, f_table: list[int]) -> LanguageOracle:
    """Local diagonal language with block sizes from ``f_table`` (as computed
    by bound_extension_sizes, so extensions always fit their blocks).

    A membership bit is the block's extension bit at the string's offset, 0 in
    the padded zone; the strategy's queries are answered by recursing on
    earlier positions.
    """
    if not f_table or f_table[0] != 1:
        raise ValueError("block size table must start with f(0) = 1")
    starts = [0]
    for width in f_table:
        starts.append(starts[-1] + width)

    def bit_at(pos: int) -> int:
        i, rpos = block_location(f_table, pos)
        if i == 0:
            return 0
        view = PrefixOracle(starts[i], lambda q: bit_at(q))
        b = h.ext_bit(i, view, rpos)
        return 0 if b is None else b

    return LanguageOracle(f"diag-loc({h.name})", lambda x: bit_at(string_to_rank(x) + 1))


def diag_prefix_local(h: LocalConstructor, f_table: list[int]) -> str:
    """Direct block construction for the local diagonal language; raises
    ExtensionOverflow if an extension outgrows its block (the size table from
    bound_extension_sizes rules that out)."""
    if not f_table or f_table[0] != 1:
        raise ValueError("block size table must start with f(0) = 1")
    prefix = "0"
    for i in range(1, len(f_table)):
        try:
            w = materialize_local(h, i, prefix, cap=f_table[i])
        except ExtensionCap as exc:
            raise ExtensionOverflow(
                f"{h.name}[{i}]: extension exceeds block size {f_table[i]}"
            ) from exc
        prefix += w + "0" * (f_table[i] - len(w))
    return prefix
