import itertools
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bairekit.core import derive_seed, string_to_rank
from bairekit.errors import EmptySet, MalformedCircuit, ScaleGuard
from bairekit.circuits import (
    FlipStep,
    OracleCircuit,
    _gate_choices,
    consistent_set,
    diagonal_steps,
    enumerate_circuits,
    eval_circuit,
    majority_or_one,
    majority_vote,
    truth_table,
)
from bairekit.strategy import PrefixOracle

IN0 = ("IN", 0)
IN1 = ("IN", 1)


def passthrough(n=1, which=0):
    return OracleCircuit(n, tuple(("IN", j) for j in range(n)), which)


def not_circuit():
    return OracleCircuit(1, (IN0, ("NOT", 0)), 1)


def and_circuit():
    return OracleCircuit(2, (IN0, IN1, ("AND", 0, 1)), 2)


def oracle_circuit():
    return OracleCircuit(1, (IN0, ("ORC", (0,))), 1)


class TestEval:
    def test_passthrough(self):
        assert eval_circuit(passthrough(), "1", "") == 1
        assert eval_circuit(passthrough(), "0", "101") == 0

    def test_not(self):
        assert eval_circuit(not_circuit(), "1", "") == 0
        assert eval_circuit(not_circuit(), "0", "") == 1

    def test_oracle_gate_reads_rank_position(self):
        # input 1 spells u = "1"; rank("1") = 2, so position 3 of sigma
        assert eval_circuit(oracle_circuit(), "1", "010") == 0
        assert eval_circuit(oracle_circuit(), "1", "001") == 1
        assert eval_circuit(oracle_circuit(), "1", "01") == 0  # beyond prefix

    def test_empty_arity_oracle_reads_position_one(self):
        c = OracleCircuit(1, (IN0, ("ORC", ())), 1)
        assert eval_circuit(c, "0", "1") == 1
        assert eval_circuit(c, "0", "0") == 0

    def test_malformed_reference(self):
        bad = OracleCircuit(1, (IN0, ("NOT", 1)), 1)
        with pytest.raises(MalformedCircuit):
            eval_circuit(bad, "1", "")

    def test_input_length_checked(self):
        with pytest.raises(ValueError):
            eval_circuit(passthrough(), "11", "")

    def test_oracle_extension_monotone(self):
        # arity <= 1 oracle gates reach positions 1..3 only, all inside a
        # 4-bit prefix, so lengthening sigma cannot change any output
        sigma = "0110"
        longer = sigma + "111"
        for c in enumerate_circuits(2, 2):
            for x in ("00", "01", "10", "11"):
                assert eval_circuit(c, x, longer) == eval_circuit(c, x, sigma)


class TestEnumerate:
    def test_input_only_count(self):
        assert len(list(enumerate_circuits(1, 0))) == 1
        assert len(list(enumerate_circuits(3, 0))) == 3

    def test_n1_s1_contains_not_and_oracle(self):
        fam = list(enumerate_circuits(1, 1))
        assert len(fam) >= 2
        ops = {c.gates[-1][0] for c in fam if c.size == 1}
        assert "NOT" in ops and "ORC" in ops

    def test_determinism(self):
        a = [c.dump() for c in enumerate_circuits(2, 2)]
        b = [c.dump() for c in enumerate_circuits(2, 2)]
        assert a == b

    def test_all_sizes_within_bound_and_no_dangling(self):
        for c in enumerate_circuits(2, 3):
            assert 0 <= c.size <= 3
            used = set()
            for g in c.gates:
                refs = g[1] if g[0] == "ORC" else g[1:]
                if g[0] != "IN":
                    used.update(r for r in refs if r >= c.n_inputs)
            for idx in range(c.n_inputs, len(c.gates) - 1):
                assert idx in used

    def test_scale_guard(self):
        with pytest.raises(ScaleGuard):
            list(enumerate_circuits(5, 1))
        with pytest.raises(ScaleGuard):
            list(enumerate_circuits(1, 6))


def reference_enumeration(n, s, oracle_arity=1):
    """Product-then-filter enumeration: every combination of gate choices,
    keeping those where each added gate but the last feeds a later gate."""
    inputs = tuple(("IN", j) for j in range(n))
    for j in range(n):
        yield OracleCircuit(n, inputs, j)
    for m in range(1, s + 1):
        choice_lists = [_gate_choices(n + t, oracle_arity) for t in range(m)]
        for combo in itertools.product(*choice_lists):
            used = set()
            for gate in combo:
                refs = gate[1] if gate[0] == "ORC" else gate[1:]
                used.update(r for r in refs if r >= n)
            if all(n + t in used for t in range(m - 1)):
                yield OracleCircuit(n, inputs + combo, n + m - 1)


# (n, s) rungs of the halving benchmark, with their family sizes
FAMILY_SIZES = {
    (2, 1): 9, (2, 2): 51, (2, 3): 485, (2, 4): 7093,
    (3, 1): 16, (3, 2): 120, (3, 3): 1498, (3, 4): 27810,
    (4, 1): 25, (4, 2): 235, (4, 3): 3637,
}


class TestEnumerationMatchesReference:
    @pytest.mark.parametrize(
        "n,s,arity",
        [(n, s, 1) for (n, s) in FAMILY_SIZES if (n, s) != (3, 4)] + [(2, 3, 2)],
    )
    def test_same_dump_sequence(self, n, s, arity):
        got = [c.dump() for c in enumerate_circuits(n, s, oracle_arity=arity)]
        want = [c.dump() for c in reference_enumeration(n, s, arity)]
        assert got == want
        if arity == 1:
            assert len(got) == FAMILY_SIZES[(n, s)]

    def test_largest_rung_count(self):
        assert sum(1 for _ in enumerate_circuits(3, 4)) == FAMILY_SIZES[(3, 4)]


class TestConsistentSet:
    def test_empty_constraints_is_whole_enumeration(self):
        fam = list(enumerate_circuits(1, 1))
        assert consistent_set(1, 1, "00", []) == fam

    def test_filter_monotone(self):
        base = consistent_set(2, 2, "0110", [("01", 1)])
        tighter = consistent_set(2, 2, "0110", [("01", 1), ("10", 0)])
        assert set(map(id, tighter)) <= set(map(id, base)) or all(
            c in base for c in tighter
        )

    def test_brute_force_cardinality(self):
        # independent loop over the enumeration
        sigma, constraint = "00", ("1", 1)
        expected = [
            c
            for c in enumerate_circuits(1, 1)
            if eval_circuit(c, constraint[0], sigma) == constraint[1]
        ]
        got = consistent_set(1, 1, sigma, [constraint])
        assert got == expected
        assert len(got) == 1  # only the passthrough outputs 1 on "1" with sigma "00"

    def test_constraint_length_checked(self):
        with pytest.raises(ValueError):
            consistent_set(2, 1, "0", [("1", 1)])


class TestMajority:
    def test_majority_examples(self):
        trio = [passthrough(), not_circuit(), passthrough()]
        assert majority_vote(trio, "1", "") == 1  # outputs 1,0,1
        pair = [passthrough(), not_circuit()]
        assert majority_vote(pair, "1", "") == 1  # tie resolves to 1
        flipped = [not_circuit(), not_circuit(), passthrough()]
        assert majority_vote(flipped, "1", "") == 0  # outputs 0,0,1

    def test_empty_set_raises(self):
        with pytest.raises(EmptySet):
            majority_vote([], "1", "")
        assert majority_or_one([], "1", "") == 1

    def test_halving_under_flip(self):
        rng = random.Random(derive_seed("halving"))
        fam = list(enumerate_circuits(2, 2))
        for _ in range(20):
            subset = [c for c in fam if rng.random() < 0.5]
            if not subset:
                continue
            u = random.Random(rng.random()).choice(["00", "01", "10", "11"])
            flip = 1 - majority_vote(subset, u, "0110")
            kept = [c for c in subset if eval_circuit(c, u, "0110") == flip]
            assert len(kept) <= len(subset) // 2


class TestTruthTable:
    def test_examples(self):
        assert truth_table(passthrough(), "") == "01"
        assert truth_table(not_circuit(), "") == "10"
        assert truth_table(and_circuit(), "") == "0001"

    def test_distinct_tables_bounded(self):
        for n, s in ((1, 2), (2, 3), (3, 2)):
            tables = {truth_table(c, "0101") for c in enumerate_circuits(n, s)}
            count = sum(1 for _ in enumerate_circuits(n, s))
            assert len(tables) <= min(2 ** 2**n, count)


class TestDiagonalSteps:
    def test_halving_and_emptiness(self):
        fam = list(enumerate_circuits(2, 2))
        zs = [format(i % 4, "02b") for i in range(10)]
        steps, final = diagonal_steps(fam, zs, "0110")
        for step in steps:
            assert step.after <= step.before // 2
        assert not final  # 10 > log2(51)

    def test_matches_consistent_set_replay(self):
        fam = list(enumerate_circuits(2, 2))
        zs = ["00", "01", "10", "11", "00"]
        steps, _ = diagonal_steps(fam, zs, "1010")
        constraints = []
        for step in steps:
            expected = consistent_set(2, 2, "1010", constraints, family=fam)
            assert len(expected) == step.before
            if expected:
                assert step.bit == 1 - majority_vote(expected, step.z, "1010")
            constraints.append((step.z, step.bit))


def test_dump_is_parseable_line():
    c = OracleCircuit(2, (IN0, IN1, ("AND", 0, 1), ("ORC", (2,))), 3)
    line = c.dump()
    assert line == "g0=IN(0) g1=IN(1) g2=AND(0,1) g3=ORC(2) out=g3"


def test_rank_convention_of_oracle_gate():
    # the queried position is exactly string_to_rank(u) + 1
    c = OracleCircuit(2, (IN0, IN1, ("ORC", (0, 1)),), 2)
    sigma = "0000001000"
    for u in ("00", "01", "10", "11"):
        want = int(sigma[string_to_rank(u)]) if string_to_rank(u) < len(sigma) else 0
        assert eval_circuit(c, u, sigma) == want


def reference_steps(family, zs, sigma):
    """Gate-by-gate flip loop: majority over the current set, then a filter."""
    current = list(family)
    steps = []
    for z in zs:
        bit = 1 - majority_or_one(current, z, sigma)
        survivors = [c for c in current if eval_circuit(c, z, sigma) == bit]
        steps.append(FlipStep(z, bit, len(current), len(survivors)))
        current = survivors
    return steps, current


def outcome(run):
    """(steps, survivor dumps), or the type of the error raised."""
    try:
        steps, survivors = run()
    except (MalformedCircuit, ValueError) as exc:
        return type(exc)
    return steps, [c.dump() for c in survivors]


@lru_cache(maxsize=None)
def small_family(n, s, arity):
    return tuple(enumerate_circuits(n, s, oracle_arity=arity))


MALFORMED = (
    OracleCircuit(2, (IN0, IN1, ("NOT", 2)), 2),
    OracleCircuit(2, (IN0, IN1, ("XOR", 0, 1)), 2),
    OracleCircuit(2, (IN0, IN1, ("AND", 0, 1)), 3),
)


@st.composite
def flip_runs(draw):
    n, s, arity = draw(
        st.sampled_from([(1, 2, 1), (2, 0, 1), (2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 2)])
    )
    pool = small_family(n, s, arity)
    family = draw(st.sampled_from(["whole", "empty", "sample"]))
    if family == "whole":
        family = list(pool)
    elif family == "empty":
        family = []
    else:
        family = draw(st.lists(st.sampled_from(pool), max_size=40))
    if n == 2 and draw(st.booleans()):
        family.insert(draw(st.integers(0, len(family))), draw(st.sampled_from(MALFORMED)))
    strings = [format(v, f"0{n}b") for v in range(2**n)]
    zs = draw(st.lists(st.sampled_from(strings), max_size=2 * 2**n + 2))
    if draw(st.booleans()):
        zs.insert(draw(st.integers(0, len(zs))), "1" * (n + 1))
    sigma = draw(st.text("01", max_size=12))
    return family, zs, sigma


class TestDiagonalStepsMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(flip_runs(), st.booleans())
    def test_same_steps_survivors_and_errors(self, run, as_view):
        family, zs, bits = run
        sigma = PrefixOracle.from_string(bits) if as_view else bits
        want = outcome(lambda: reference_steps(family, zs, bits))
        assert outcome(lambda: diagonal_steps(family, zs, sigma)) == want
        if as_view:
            assert len(sigma.reads) == len(set(sigma.reads))

    def test_edge_cases(self):
        fam = list(enumerate_circuits(2, 2))
        assert diagonal_steps([], ["00", "111"], "01") == (
            [FlipStep("00", 0, 0, 0), FlipStep("111", 0, 0, 0)],
            [],
        )
        # no query evaluates nothing, so a malformed circuit does not raise
        assert diagonal_steps(MALFORMED, [], "") == ([], list(MALFORMED))
        with pytest.raises(MalformedCircuit):
            diagonal_steps(fam + [MALFORMED[0]], ["01"], "")
        with pytest.raises(ValueError):
            diagonal_steps(fam, ["010"], "")
        with pytest.raises(ValueError):
            diagonal_steps(fam, ["01", "0"], "")

    def test_long_sigma_as_view_reads_each_position_once(self):
        fam = list(enumerate_circuits(2, 3, oracle_arity=2))
        zs = ["11", "00", "10", "01", "11", "00"]
        bits = "1011001110101"
        view = PrefixOracle.from_string(bits)
        assert diagonal_steps(fam, zs, view) == reference_steps(fam, zs, bits)
        assert sorted(view.reads) == sorted(set(view.reads))
        assert set(view.reads) <= set(range(1, 8))


def reference_eval(c, x, sigma):
    """Gate-by-gate evaluation that spells each oracle query u as a string
    and reads position string_to_rank(u) + 1."""
    if len(x) != c.n_inputs:
        raise ValueError(f"input length {len(x)} != n_inputs {c.n_inputs}")
    values = []
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
            pos = string_to_rank(u) + 1
            if isinstance(sigma, PrefixOracle):
                values.append(sigma.read(pos))
            else:
                values.append(int(sigma[pos - 1]) if 1 <= pos <= len(sigma) else 0)
        else:
            raise MalformedCircuit(f"unknown gate op {op!r}")
    if not 0 <= c.output < len(c.gates):
        raise MalformedCircuit("output references a missing gate")
    return values[c.output]


@st.composite
def any_circuits(draw):
    """Canonical circuits, and gate lists with wires that may point forward
    or below 0, unknown ops, stray arguments and a missing output gate."""
    if draw(st.booleans()):
        n, s, arity = draw(st.sampled_from([(1, 2, 1), (2, 2, 1), (2, 3, 1), (2, 2, 2), (3, 2, 2)]))
        return draw(st.sampled_from(small_family(n, s, arity)))
    n = draw(st.integers(0, 3))
    gates = [("IN", draw(st.integers(-1, n))) for _ in range(n)]
    for _ in range(draw(st.integers(0, 5))):
        idx = len(gates)
        stray = st.integers(-1, idx + 1)
        wire = stray if draw(st.integers(0, 5)) == 0 else st.integers(0, max(idx - 1, 0))
        op = draw(st.sampled_from(["NOT", "AND", "OR", "ORC", "XOR", "IN"]))
        if op == "ORC":
            gates.append(("ORC", tuple(draw(st.lists(wire, max_size=3)))))
        elif op == "IN":
            gates.append(("IN", draw(st.integers(0, max(n - 1, 0)))))
        else:
            refs = [draw(wire) for _ in range(1 if op == "NOT" else 2)]
            if draw(st.integers(0, 5)) == 0:
                refs.append(draw(stray))
            gates.append((op, *refs))
    output = draw(st.integers(-1, len(gates)))
    return OracleCircuit(n, tuple(gates), output)


def eval_outcome(evaluate, c, x, bits, as_view):
    """(result or (error type, message), reads log) of one evaluation."""
    sigma = PrefixOracle.from_string(bits) if as_view else bits
    try:
        result = evaluate(c, x, sigma)
    except (MalformedCircuit, ValueError, IndexError, TypeError) as exc:
        result = (type(exc), str(exc))
    return result, sigma.reads if as_view else None


class TestEvalMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        any_circuits(),
        st.integers(-1, 1),
        st.sampled_from(["01", "01", "0129", "01a"]),
        st.text("01", max_size=12) | st.text("0123", max_size=12),
        st.booleans(),
        st.data(),
    )
    def test_same_result_errors_and_reads(self, c, slack, alphabet, bits, as_view, data):
        length = max(c.n_inputs + slack, 0)
        x = data.draw(st.text(alphabet, min_size=length, max_size=length))
        want = eval_outcome(reference_eval, c, x, bits, as_view)
        assert eval_outcome(eval_circuit, c, x, bits, as_view) == want
