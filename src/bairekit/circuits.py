"""Boolean circuits with oracle gates: canonical enumeration, evaluation
against a prefix oracle, consistency filtering, and majority votes.

Gate basis: unary NOT, fan-in-2 AND/OR over distinct earlier wires, and
ORACLE gates whose input wires spell a query string u; the gate reads the
oracle bit at the position holding u's membership.  Size counts every
non-input gate, oracle gates included.

Two fast paths stand on brute-force references kept beside them.
:func:`enumerate_circuits` is a depth-first search that never builds a
non-canonical gate combination; its order is that of the product-then-filter
enumeration.  :func:`diagonal_steps` evaluates each circuit once, bit-sliced
over the query strings (each wire an int mask, an oracle gate a mux over the
oracle bits), and reads each oracle position at most once per call, so a
``PrefixOracle.reads`` log is shorter than gate-by-gate evaluation leaves.
:func:`eval_circuit`, :func:`consistent_set`, :func:`majority_vote` and
:func:`truth_table` evaluate gate by gate and are the reference.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, Union

from .core import string_to_rank, strings_of_length
from .errors import EmptySet, MalformedCircuit, ScaleGuard
from .strategy import PrefixOracle

MAX_INPUTS = 4
MAX_SIZE = 5

Gate = tuple
OracleLike = Union[str, PrefixOracle]


@dataclass(frozen=True)
class OracleCircuit:
    n_inputs: int
    gates: tuple[Gate, ...]
    output: int

    @property
    def size(self) -> int:
        return len(self.gates) - self.n_inputs

    def dump(self) -> str:
        """One-line debug form: g<k>=OP(args)."""
        parts = []
        for k, g in enumerate(self.gates):
            refs = g[1] if g[0] == "ORC" else g[1:]
            parts.append(f"g{k}={g[0]}({','.join(str(r) for r in refs)})")
        return " ".join(parts) + f" out=g{self.output}"


def _oracle_bit(sigma: OracleLike, pos: int) -> int:
    if isinstance(sigma, PrefixOracle):
        return sigma.read(pos)
    if 1 <= pos <= len(sigma):
        return int(sigma[pos - 1])
    return 0


def eval_circuit(c: OracleCircuit, x: str, sigma: OracleLike) -> int:
    """Gate-by-gate evaluation of c on input x with oracle sigma.

    An ORACLE gate whose wires carry bits spelling u answers the bit at
    position rank(u)+1 of sigma, 0 when that lies beyond the prefix.
    """
    if len(x) != c.n_inputs:
        raise ValueError(f"input length {len(x)} != n_inputs {c.n_inputs}")
    values: list[int] = []
    for idx, gate in enumerate(c.gates):
        op = gate[0]
        if op == "IN":
            values.append(int(x[gate[1]]))
            continue
        refs = gate[1] if op == "ORC" else gate[1:]
        if any(not 0 <= r < idx for r in refs):
            raise MalformedCircuit(f"gate g{idx} references a non-earlier wire")
        if op == "NOT":
            values.append(1 - values[gate[1]])
        elif op == "AND":
            values.append(values[gate[1]] & values[gate[2]])
        elif op == "OR":
            values.append(values[gate[1]] | values[gate[2]])
        elif op == "ORC":
            u = "".join(str(values[w]) for w in gate[1])
            values.append(_oracle_bit(sigma, string_to_rank(u) + 1))
        else:
            raise MalformedCircuit(f"unknown gate op {op!r}")
    if not 0 <= c.output < len(c.gates):
        raise MalformedCircuit("output references a missing gate")
    return values[c.output]


def _gate_choices(n_prior: int, oracle_arity: int) -> list[Gate]:
    """Canonically ordered descriptors for one new gate over n_prior wires."""
    out: list[Gate] = [("NOT", a) for a in range(n_prior)]
    out += [("AND", a, b) for a in range(n_prior) for b in range(a + 1, n_prior)]
    out += [("OR", a, b) for a in range(n_prior) for b in range(a + 1, n_prior)]
    for arity in range(oracle_arity + 1):
        out += [("ORC", wires) for wires in itertools.product(range(n_prior), repeat=arity)]
    return out


def enumerate_circuits(
    n: int,
    s: int,
    *,
    max_inputs: int = MAX_INPUTS,
    max_size: int = MAX_SIZE,
    oracle_arity: int = 1,
) -> Iterator[OracleCircuit]:
    """Every circuit with n inputs and size <= s, in a stable canonical order.

    Canonical form: input gates first; each added gate except the last feeds a
    later gate; the output is the last added gate (an input wire when s
    permits size 0).  Enumeration is syntactic, with no semantic dedup.

    The order is that of ``itertools.product`` over the per-gate choice lists,
    filtered to canonical combinations; a depth-first search yields it without
    building the rejected combinations.
    """
    if n > max_inputs or s > max_size:
        raise ScaleGuard(f"circuit enumeration capped at n <= {max_inputs}, s <= {max_size}")
    if n < 0 or s < 0:
        raise ValueError("n and s must be nonnegative")
    inputs = tuple(("IN", j) for j in range(n))
    for j in range(n):
        yield OracleCircuit(n, inputs, j)
    for m in range(1, s + 1):
        for gates in _canonical_gates(n, m, oracle_arity, inputs):
            yield OracleCircuit(n, gates, n + m - 1)


def _canonical_gates(
    n: int, m: int, oracle_arity: int, inputs: tuple[Gate, ...]
) -> Iterator[tuple[Gate, ...]]:
    """Gate tuples, ``inputs`` first, of the canonical circuits with m added
    gates over n inputs, in ``itertools.product`` order."""
    # choices[t]: (gate, bit set of the added gates it reads) for added gate t
    choices = []
    for t in range(m):
        level = []
        for gate in _gate_choices(n + t, oracle_arity):
            refs = gate[1] if gate[0] == "ORC" else gate[1:]
            level.append((gate, sum({1 << (r - n) for r in refs if r >= n})))
        choices.append(level)
    # the last gate must read every added gate still unread; memoized per set
    last: dict[int, list[Gate]] = {}
    # a later gate reads at most this many distinct wires
    reach = max(2, oracle_arity)

    def place(t: int, prefix: tuple[Gate, ...], unread: int) -> Iterator[tuple[Gate, ...]]:
        if t == m - 1:
            closing = last.get(unread)
            if closing is None:
                closing = last[unread] = [g for g, used in choices[t] if not unread & ~used]
            for gate in closing:
                yield prefix + (gate,)
            return
        room = (m - 1 - t) * reach
        for gate, used in choices[t]:
            left = unread & ~used | 1 << t
            if left.bit_count() <= room:
                yield from place(t + 1, prefix + (gate,), left)

    return place(0, inputs, 0)


def consistent_set(
    n: int,
    s: int,
    sigma: OracleLike,
    constraints: Iterable[tuple[str, int]],
    *,
    family: Sequence[OracleCircuit] | None = None,
    **caps,
) -> list[OracleCircuit]:
    """Circuits from the (n, s) enumeration that satisfy every constraint
    C(u) = z against the given oracle prefix."""
    pairs = list(constraints)
    for u, _ in pairs:
        if len(u) != n:
            raise ValueError(f"constraint string {u!r} is not of length {n}")
    pool: Iterable[OracleCircuit] = (
        family if family is not None else enumerate_circuits(n, s, **caps)
    )
    return [c for c in pool if all(eval_circuit(c, u, sigma) == z for u, z in pairs)]


def majority_vote(circuits: Sequence[OracleCircuit], u: str, sigma: OracleLike) -> int:
    """1 iff at least half the circuits output 1 on u (ties resolve to 1)."""
    if not circuits:
        raise EmptySet("majority over an empty circuit set")
    ones = sum(eval_circuit(c, u, sigma) for c in circuits)
    return 1 if 2 * ones >= len(circuits) else 0


def truth_table(c: OracleCircuit, sigma: OracleLike) -> str:
    """Output bits over all input assignments in lexicographic order."""
    if c.n_inputs > MAX_INPUTS:
        raise ScaleGuard(f"truth table capped at n <= {MAX_INPUTS}")
    return "".join(str(eval_circuit(c, x, sigma)) for x in strings_of_length(c.n_inputs))


@dataclass(frozen=True)
class FlipStep:
    """One diagonalization step: the string queried, the emitted (flipped)
    bit, and the consistent-set sizes before and after filtering."""

    z: str
    bit: int
    before: int
    after: int


def majority_or_one(circuits: Sequence[OracleCircuit], u: str, sigma: OracleLike) -> int:
    """Majority with the empty set treated as a tie (hence 1)."""
    if not circuits:
        return 1
    return majority_vote(circuits, u, sigma)


def _tables(
    family: Iterable[OracleCircuit],
    n: int,
    in_masks: Sequence[int],
    full: int,
    oracle: Callable[[int], int],
) -> Iterator[int]:
    """Bit-sliced evaluation: bit k of a wire value is the wire's value on
    query point k, an n-bit string whose bits ``in_masks`` give.  Yields each
    circuit's output and raises what :func:`eval_circuit` raises on it.  The
    wires a circuit shares with the one before it are not evaluated again."""
    before: tuple[Gate, ...] = ()
    values: list[int] = []
    for c in family:
        if c.n_inputs != n:
            raise ValueError(f"input length {n} != n_inputs {c.n_inputs}")
        gates = c.gates
        idx = 0
        for gate, old in zip(gates, before):
            if gate is not old:
                break
            idx += 1
        del values[idx:]
        for gate in gates[idx:]:
            op = gate[0]
            if op == "IN":
                values.append(in_masks[gate[1]])
                idx += 1
                continue
            for r in gate[1] if op == "ORC" else gate[1:]:
                if not 0 <= r < idx:
                    raise MalformedCircuit(f"gate g{idx} references a non-earlier wire")
            if op == "NOT":
                values.append(values[gate[1]] ^ full)
            elif op == "AND":
                values.append(values[gate[1]] & values[gate[2]])
            elif op == "OR":
                values.append(values[gate[1]] | values[gate[2]])
            elif op == "ORC":
                # a mux: the points whose wires spell u read position
                # rank(u)+1, which is int("1" + u, 2)
                terms = [(full, 1)]
                for w in gate[1]:
                    m = values[w]
                    terms = [
                        (part, 2 * pos + b)
                        for points, pos in terms
                        for part, b in ((points & ~m, 0), (points & m, 1))
                        if part
                    ]
                values.append(sum(points for points, pos in terms if oracle(pos)))
            else:
                raise MalformedCircuit(f"unknown gate op {op!r}")
            idx += 1
        if not 0 <= c.output < len(gates):
            raise MalformedCircuit("output references a missing gate")
        before = gates
        yield values[c.output]


def diagonal_steps(
    family: Sequence[OracleCircuit], zs: Sequence[str], sigma: OracleLike
) -> tuple[list[FlipStep], list[OracleCircuit]]:
    """Run the majority-flip diagonalization over a fixed circuit family.

    Each step emits 1 minus the majority output on z and keeps only the
    circuits that agree with the emitted bit, halving the set or better.

    Each circuit is evaluated once, bit-sliced over the distinct query
    strings, and each oracle position is read at most once per call.  Steps,
    survivors and errors are those of :func:`majority_or_one` and
    :func:`eval_circuit` applied step by step.
    """
    if not family or not zs:
        return [FlipStep(z, 0, 0, 0) for z in zs], list(family)
    n = len(zs[0])
    # each step at least halves the set, so no list outlasts 64 steps: later
    # strings are never evaluated, and a table over the points fits in 64 bits
    points: dict[str, int] = {}
    for z in zs[:64]:
        if z not in points and len(z) == n and not z.strip("01"):
            points[z] = len(points)
    in_masks = [sum(1 << k for z, k in points.items() if z[j] == "1") for j in range(n)]
    read: dict[int, int] = {}

    def oracle(pos: int) -> int:
        if pos not in read:
            read[pos] = _oracle_bit(sigma, pos)
        return read[pos]

    full = (1 << len(points)) - 1
    tables = array("Q", _tables(family, n, in_masks, full, oracle))
    current: Sequence[OracleCircuit] = family
    steps: list[FlipStep] = []
    for z in zs:
        if not current:
            steps.append(FlipStep(z, 0, 0, 0))
            continue
        k = points.get(z)
        if k is None:
            if len(z) != n:
                raise ValueError(f"input length {len(z)} != n_inputs {n}")
            raise ValueError(f"not a binary string: {z!r}")
        before = len(current)
        bit = 0 if 2 * sum(t >> k & 1 for t in tables) >= before else 1
        current = [c for c, t in zip(current, tables) if t >> k & 1 == bit]
        tables = array("Q", (t for t in tables if t >> k & 1 == bit))
        steps.append(FlipStep(z, bit, before, len(current)))
    return steps, current
