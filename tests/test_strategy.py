import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bairekit.core import BoundFamily, cantor_pair, derive_seed
from bairekit.errors import ExtensionCap
from bairekit.language import explicit_language
from bairekit.strategy import (
    Constructor,
    IndexedConstructor,
    LocalConstructor,
    PrefixOracle,
    ProbabilisticLocalConstructor,
    amplify,
    as_view,
    bound_extension_sizes,
    bound_uniform,
    constant_as_indexed,
    enforce_query_set,
    ext_of,
    extension_length,
    local_as_indexed,
    materialize_local,
    meets_at,
    meets_check,
    meter_extension,
    union_combine,
    wrap_deterministic,
)
from bairekit.zoo import (
    EMPTY_QUERY_SET,
    ones_family,
    ones_family_local,
    singleton_avoider,
    singleton_family_local,
    sparse_avoider,
)

bits_st = st.text(alphabet="01", max_size=24)


def identity_strategy():
    return IndexedConstructor("identity", lambda i, view: "")


def echo_local(width=4):
    """Copies the first bits of the prefix; reads position k for bit k."""

    def ext_bit(i, view, k):
        if k > min(len(view), width):
            return None
        return view.read(k)

    return LocalConstructor("echo", ext_bit, lambda n, i, k: tuple(range(1, k + 1)))


def constant_ones_double():
    """Emits 2|sigma| ones, used to trip the materialization cap."""

    def ext_bit(i, view, k):
        return 1 if k <= 2 * len(view) else None

    return LocalConstructor("double-ones", ext_bit, EMPTY_QUERY_SET)


class TestPrefixOracle:
    def test_reads_are_recorded_and_out_of_range_is_zero(self):
        view = PrefixOracle.from_string("101")
        assert [view.read(p) for p in (1, 3, 7)] == [1, 1, 0]
        assert view.reads == [1, 3, 7]

    def test_restricted_records_on_base(self):
        view = PrefixOracle.from_string("1011")
        sub = view.restricted(2)
        assert len(sub) == 2
        assert sub.read(2) == 0
        assert sub.read(3) == 0  # beyond the restriction, not a base read
        assert view.reads == [2]

    def test_padded_serves_padding_without_base_reads(self):
        view = PrefixOracle.from_string("11")
        padded = view.padded("01")
        assert len(padded) == 4
        assert [padded.read(p) for p in (1, 3, 4)] == [1, 0, 1]
        assert view.reads == [1]

    def test_materialize_does_not_record(self):
        view = PrefixOracle.from_string("0110")
        assert view.materialize() == "0110"
        assert view.reads == []


class TestExtOf:
    def test_singleton_avoider_on_empty(self, empty):
        h = constant_as_indexed(singleton_avoider(empty))
        assert ext_of(h, 3, "00") == "1"  # 1 - member(s_2)

    def test_identity_extension_is_empty(self):
        assert ext_of(identity_strategy(), 3, "01") == ""

    def test_sparse_avoider_pads_with_length_many_ones(self):
        h = local_as_indexed(sparse_avoider())
        assert ext_of(h, 1, "0110") == "1111"


class TestMaterializeLocal:
    def test_sparse(self):
        assert materialize_local(sparse_avoider(), 1, "0110", 16) == "1111"

    def test_immediate_end(self):
        h = LocalConstructor("noop", lambda i, v, k: None, EMPTY_QUERY_SET)
        assert materialize_local(h, 0, "101", 8) == ""

    def test_cap_fires(self):
        with pytest.raises(ExtensionCap):
            materialize_local(constant_ones_double(), 0, "000", 4)

    def test_exact_cap_length_is_allowed(self):
        h = sparse_avoider()
        assert materialize_local(h, 0, "0101", 4) == "1111"


class TestMeets:
    def test_singleton_avoider_never_met_by_its_language(self, empty, full, parity):
        for lang in (empty, full, parity):
            verdict = meets_check(singleton_avoider(lang), lang, 64)
            assert not verdict.met
            assert str(verdict) == "NotMetUpTo 64"

    def test_sparse_meets_full_at_empty_prefix(self, full):
        verdict = meets_check(sparse_avoider(), full, 8)
        assert verdict.met and verdict.tau == ""

    def test_singleton_meets_language_differing_at_flip(self, empty):
        # flipping the predicted bit at position 1 produces a met witness
        lang = explicit_language("1")
        assert meets_check(singleton_avoider(empty), lang, 8).met

    def test_meets_avoids_duality(self, parity, full):
        from bairekit.language import chi_prefix

        # avoided language: no chi prefix is a meeting witness
        avoider = singleton_avoider(parity)
        assert not meets_check(avoider, parity, 32).met
        for m in range(16):
            assert not meets_at(avoider, parity, chi_prefix(parity, m))
        # met language: the verdict's tau really is a witness
        verdict = meets_check(sparse_avoider(), full, 8)
        assert verdict.met
        assert meets_at(sparse_avoider(), full, verdict.tau)


class TestUnionCombine:
    def test_ones_example(self):
        combined = union_combine(lambda i, j, view: "1" * (i + j))
        assert ext_of(combined, cantor_pair(1, 2), "0") == "111"
        assert cantor_pair(1, 2) == 8

    def test_base_index(self):
        combined = union_combine(lambda i, j, view: f"{i % 2}{j % 2}")
        assert ext_of(combined, 0, "10") == "00"

    def test_round_trip_random_triples(self):
        rng = random.Random(derive_seed("union-test"))

        def fn(i, j, view):
            return format((i * 37 + j * 11 + len(view)) % 16, "04b")

        combined = union_combine(fn)
        for _ in range(50):
            i, j = rng.randrange(32), rng.randrange(32)
            sigma = "".join(str(rng.randrange(2)) for _ in range(rng.randrange(10)))
            assert ext_of(combined, cantor_pair(i, j), sigma) == fn(i, j, as_view(sigma))


class TestQuerySets:
    def test_sparse_passes_with_empty_set(self):
        trials = [(4, 2, 3, "0110"), (3, 1, 2, "101")]
        assert enforce_query_set(sparse_avoider(), trials).ok

    def test_violation_fixture_reports_position(self):
        bad = LocalConstructor(
            "peeker",
            lambda i, view, k: view.read(1) if k == 1 else None,
            EMPTY_QUERY_SET,
        )
        report = enforce_query_set(bad, [(3, 0, 1, "101")])
        assert not report.ok
        assert report.violation.position == 1
        assert "position=1" in str(report)

    def test_echo_strategy_passes_with_declared_range(self):
        assert enforce_query_set(echo_local(), [(4, 2, 4, "1011"), (3, 0, 2, "110")]).ok

    def test_trial_precondition(self):
        with pytest.raises(ValueError):
            enforce_query_set(sparse_avoider(), [(1, 0, 1, "00000")])


class TestAmplify:
    def test_deterministic_base_is_unchanged(self):
        base = wrap_deterministic(sparse_avoider())
        amped = amplify(base, 5)
        for sigma in ("", "01", "1101"):
            for k in range(1, 7):
                view = PrefixOracle.from_string(sigma)
                want = sparse_avoider().ext_bit(0, view, k)
                assert amped.ext_bit_seeded(0, view, k, 8, 123) == want

    def test_reps_one_equals_base(self):
        base = wrap_deterministic(echo_local())
        amped = amplify(base, 1)
        view = PrefixOracle.from_string("101")
        for k in (1, 2, 3, 4, 5):
            assert amped.ext_bit_seeded(0, view, k, 4, 7) == base.ext_bit_seeded(
                0, view, k, 4, 7
            )

    def test_reps_must_be_odd(self):
        with pytest.raises(ValueError):
            amplify(wrap_deterministic(sparse_avoider()), 4)

    def test_noisy_base_is_boosted(self):
        truth = sparse_avoider()

        def ext_bit_seeded(i, view, k, n, seed):
            true = truth.ext_bit(i, view, k)
            rng = random.Random(derive_seed("noise", seed, i, k, len(view)))
            if rng.randrange(10) < 7:
                return true
            return 0 if true is None else 1 - true

        base = ProbabilisticLocalConstructor("noisy", ext_bit_seeded, EMPTY_QUERY_SET)
        amped = amplify(base, 15)
        grid = [("0110", 2), ("0110", 5), ("10101", 3), ("10101", 6), ("111", 1)]
        correct = 0
        for t in range(400):
            sigma, k = grid[t % len(grid)]
            view = PrefixOracle.from_string(sigma)
            want = truth.ext_bit(0, view, k)
            correct += amped.ext_bit_seeded(0, view, k, 8, derive_seed("run", t)) == want
        assert correct >= 360  # the acceptance suite runs the full 1000-trial schedule


class TestBoundTables:
    def test_f_zero_is_one(self):
        assert bound_extension_sizes(sparse_avoider(), 0) == [1]

    def test_sparse_table(self):
        assert bound_extension_sizes(sparse_avoider(), 2) == [1, 2, 4]

    @staticmethod
    def materialized_table(h, i_max, ext_cap):
        """The table from the lengths of the materialized extensions."""
        f = [1]
        for i in range(1, i_max + 1):
            best = 2**i
            for length in range(sum(f) + 1):
                for v in range(2**length):
                    sigma = format(v, f"0{length}b") if length else ""
                    best = max(best, len(materialize_local(h, i, sigma, ext_cap)))
            f.append(best)
        return f

    def test_lemma_properties(self):
        for h, i_max in ((sparse_avoider(), 4), (ones_family_local(), 3), (singleton_family_local(), 3)):
            table = bound_extension_sizes(h, i_max)
            for i, value in enumerate(table):
                assert value >= 2**i or i == 0
            # property 1: every extension on short prefixes fits, and the
            # longest one (or 2^i) is the entry, measured by materializing it
            assert table == self.materialized_table(h, i_max, 4096)

    def test_cap_trips_as_materialize_local_does(self):
        h = constant_ones_double()
        with pytest.raises(ExtensionCap) as want:
            self.materialized_table(h, 2, 5)
        with pytest.raises(ExtensionCap) as got:
            bound_extension_sizes(h, 2, ext_cap=5)
        assert str(got.value) == str(want.value)
        assert bound_extension_sizes(h, 2, ext_cap=6) == self.materialized_table(h, 2, 6)
        with pytest.raises(ValueError, match="cap must be >= 1"):
            bound_extension_sizes(h, 1, ext_cap=0)

    def test_bound_uniform_examples(self):
        assert bound_uniform(identity_strategy(), 5) == 5
        assert bound_uniform(local_as_indexed(sparse_avoider()), 3) == 6
        assert bound_uniform(ones_family(), 4) == 8


class TestExtensionCoherence:
    def zoo_locals(self):
        from bairekit.language import full_language
        from bairekit.zoo import (
            finite_class_predicate,
            ones_family_local,
            sigma2_avoider,
            singleton_family_local,
        )

        return [
            sparse_avoider(),
            echo_local(),
            ones_family_local(),
            singleton_family_local(),
            sigma2_avoider(finite_class_predicate(), full_language()),
        ]

    def test_materialized_bits_match_ext_bit(self):
        rng = random.Random(derive_seed("coherence"))
        for h in self.zoo_locals():
            for i in range(5):
                for length in list(range(9)) + [17, 32]:
                    # ones near the front keep certificate-driven endings near
                    sigma = ("101" + "".join(str(rng.randrange(2)) for _ in range(length)))[:length]
                    built, counted = as_view(sigma), as_view(sigma)
                    w = materialize_local(h, i, built, 2048)
                    assert extension_length(h, i, counted, 2048) == len(w)
                    assert counted.reads == built.reads
                    view = as_view(sigma)
                    for k, ch in enumerate(w, 1):
                        assert h.ext_bit(i, view, k) == int(ch), (h.name, i, sigma, k)
                    assert h.ext_bit(i, view, len(w) + 1) is None

    @given(bits_st, st.integers(min_value=0, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_monotone_end_sparse(self, sigma, i):
        h = sparse_avoider()
        view = as_view(sigma)
        ended = False
        for k in range(1, len(sigma) + 4):
            b = h.ext_bit(i, view, k)
            if ended:
                assert b is None
            ended = b is None

    def test_monotone_end_all_zoo_locals(self):
        rng = random.Random(derive_seed("monotone"))
        for h in self.zoo_locals():
            for i in range(3):
                for _ in range(6):
                    length = rng.randrange(9)
                    sigma = "".join(str(rng.randrange(2)) for _ in range(length))
                    view = as_view(sigma)
                    ended = False
                    for k in range(1, 40):
                        b = h.ext_bit(i, view, k)
                        if ended:
                            assert b is None, (h.name, i, sigma, k)
                        ended = b is None


class TestMeter:
    def test_violation_detection(self):
        w, report = meter_extension(echo_local(), "1011", BoundFamily.poly(1), cap=16)
        assert w == "1011"
        assert report.queries == 4
        assert report.arg_size == 3
        assert report.bound_value == 3
        assert report.violation  # 5 steps and 4 bits exceed poly(1) at 3

    def test_within_bound(self, empty):
        w, report = meter_extension(singleton_avoider(empty), "00", BoundFamily.poly(2))
        assert w == "1"
        assert not report.violation
        assert "ok" in str(report)
