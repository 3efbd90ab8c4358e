import random

import pytest

from bairekit.core import derive_seed, monus, rank_to_string
from bairekit.errors import ExtensionOverflow, PlayerIIStalled, ScaleGuard
from bairekit.language import chi_prefix
from bairekit.strategy import (
    Constructor,
    IndexedConstructor,
    PrefixOracle,
    as_view,
    bound_extension_sizes,
    enforce_query_set,
    ext_of,
    local_as_constructor,
    local_as_indexed,
    materialize_local,
)
from bairekit.game import (
    _stored_block_lookup,
    adversary_suite,
    block_location,
    diag_language_global,
    diag_language_local,
    diag_prefix_global,
    diag_prefix_local,
    identity_adversary,
    indexed_to_winning,
    indexed_to_winning_loc,
    meets_within,
    run_game,
    seeded_adversary,
    winning_to_indexed,
    zeros_adversary,
)
from bairekit.zoo import (
    ones_family,
    ones_family_local,
    singleton_family,
    singleton_family_local,
    sparse_avoider,
)


def appender(bits):
    return Constructor(f"append[{bits}]", lambda view: bits)


class TestRunGame:
    def test_alternating_appends(self):
        tr = run_game(appender("0"), appender("1"), 4, 100)
        assert tr.result_prefix == "01010101"
        assert tr.rounds == 4
        assert [r.player for r in tr.records] == ["I", "II"] * 4

    def test_identity_player_one(self):
        tr = run_game(identity_adversary(), appender("1"), 3, 100)
        assert tr.result_prefix == "111"

    def test_stall_guard(self):
        with pytest.raises(PlayerIIStalled):
            run_game(appender("0"), Constructor("empty", lambda v: ""), 2, 100)

    def test_states_chain_and_extend_every_round(self):
        tr = run_game(seeded_adversary(3), appender("10"), 6, 100)
        lengths = [r.state_length for r in tr.records]
        assert lengths == sorted(lengths)
        for a, b in zip(tr.records, tr.records[1:]):
            assert b.state_length == a.state_length + b.extension_length
        # state after each Player II move strictly grows
        ii_lengths = [r.state_length for r in tr.records if r.player == "II"]
        assert all(a < b for a, b in zip(ii_lengths, ii_lengths[1:]))

    def test_result_extends_every_round_replay(self):
        f, g = zeros_adversary(), appender("1")
        tr = run_game(f, g, 5, 100)
        state = ""
        for _ in range(5):
            state += f.extend(as_view(state))
            state += g.extend(as_view(state))
            assert tr.result_prefix.startswith(state)

    def test_horizon_stops_play(self):
        tr = run_game(appender("0"), appender("1"), 10**6, 16)
        assert 16 <= len(tr.result_prefix) <= 17


class TestWinningToIndexed:
    def test_padding_example(self):
        h = winning_to_indexed(appender("1"))
        assert ext_of(h, 3, "0") == "001"

    def test_no_padding_when_index_small(self):
        g = appender("1")
        h = winning_to_indexed(g)
        assert ext_of(h, 1, "0110") == "1"
        assert ext_of(h, 0, "") == "1"

    def test_defining_identity_on_random_inputs(self):
        def probe(view):
            # extension depends on the padded input, exercising the zero fill
            return "1" if len(view) % 2 else "10"

        g = Constructor("probe", probe)
        h = winning_to_indexed(g)
        rng = random.Random(derive_seed("w2i"))
        for _ in range(100):
            k = rng.randrange(12)
            sigma = "".join(str(rng.randrange(2)) for _ in range(rng.randrange(10)))
            padded = sigma + "0" * monus(k, len(sigma))
            want = "0" * monus(k, len(sigma)) + g.extend(as_view(padded))
            assert ext_of(h, k, sigma) == want


class TestIndexedToWinning:
    def test_empty_state_outputs_zero(self):
        g = indexed_to_winning(singleton_family())
        assert g.extend(PrefixOracle.from_string("")) == "0"

    @pytest.mark.parametrize("family_name", ["singletons", "ones"])
    def test_meets_low_indices_against_all_adversaries(self, family_name):
        families = {"singletons": singleton_family, "ones": ones_family}
        for adversary in adversary_suite(11):
            fam = families[family_name]()
            g = indexed_to_winning(fam)
            tr = run_game(adversary, g, 2048, 2**10)
            for i in range(1, 5):
                met, _ = meets_within(fam, tr.result_prefix, index=i)
                assert met, (family_name, adversary.name, i)


class TestIndexedToWinningLocal:
    def test_first_bit_rules(self):
        h = singleton_family_local()
        g = indexed_to_winning_loc(h)
        # unmet index in range: first bit is still 0
        view = PrefixOracle.from_string("0100000")
        assert g.ext_bit(0, view, 1) == 0
        # every index in range met (all-zero state): 0 at k=1, end at k>1
        zeros = PrefixOracle.from_string("0" * 8)
        assert g.ext_bit(0, zeros, 1) == 0
        assert g.ext_bit(0, zeros, 2) is None
        # empty state: no index in range at all
        empty = PrefixOracle.from_string("")
        assert g.ext_bit(0, empty, 1) == 0
        assert g.ext_bit(0, empty, 2) is None

    def test_shifts_underlying_bits(self):
        h = singleton_family_local()
        g = indexed_to_winning_loc(h)
        # sigma[2] = 1 defeats every short witness of h_1, so n0 = 1
        sigma = "0100000"
        want = materialize_local(h, 1, sigma + "0")
        got = materialize_local(g, 0, sigma)
        assert got == "0" + want
        assert want == "1"

    def test_full_play_meets_low_indices(self):
        h = singleton_family_local()
        g = local_as_constructor(indexed_to_winning_loc(h), 0, 4096)
        tr = run_game(identity_adversary(), g, 1024, 2**9)
        fam = local_as_indexed(h)
        for i in range(1, 4):
            met, _ = meets_within(fam, tr.result_prefix, index=i)
            assert met, i

    def test_query_set_is_respected(self):
        g = indexed_to_winning_loc(singleton_family_local())
        trials = [(4, 0, 3, "0" * 12), (3, 1, 2, "0101010")]
        assert enforce_query_set(g, trials).ok


class TestDiagGlobal:
    def test_frozen_prefix_for_ones_family(self):
        h = IndexedConstructor("tail-ones", lambda i, view: "1" * i)
        assert diag_prefix_global(h, 7) == "0101100"

    def test_meets_every_index_at_block_boundaries(self):
        for name, fam in (
            ("singletons", singleton_family()),
            ("ones", ones_family()),
            ("sparse", local_as_indexed(sparse_avoider())),
        ):
            lang = diag_language_global(fam)
            prefix = diag_prefix_global(fam, 2**7)
            for i in range(1, 7):
                tau = prefix[: 2**i - 1]
                w = ext_of(fam, i, tau)
                start = 2**i - 1
                assert prefix[start : start + len(w)] == w, (name, i)

    def test_member_algorithm_agrees_with_direct_construction(self):
        for fam in (singleton_family(), ones_family(), local_as_indexed(sparse_avoider())):
            lang = diag_language_global(fam)
            direct = diag_prefix_global(fam, 2**8)
            assert chi_prefix(lang, 2**8) == direct

    def test_extension_overflow_guard(self):
        too_big = IndexedConstructor("fat", lambda i, view: "1" * (2**i + 1))
        with pytest.raises(ExtensionOverflow):
            diag_prefix_global(too_big, 8)
        with pytest.raises(ExtensionOverflow):
            diag_language_global(too_big).member("0")


class TestBlockLocation:
    def test_partial_sum_formula(self):
        table = [1, 2, 4]
        assert block_location(table, 1) == (0, 1)
        assert block_location(table, 2) == (1, 1)
        assert block_location(table, 3) == (1, 2)
        assert block_location(table, 4) == (2, 1)
        assert block_location(table, 7) == (2, 4)

    def test_guard_beyond_table(self):
        with pytest.raises(ScaleGuard):
            block_location([1, 2], 4)
        with pytest.raises(ValueError):
            block_location([1], 0)


class TestDiagLocal:
    def test_sparse_blocks_start_with_prefix_length_ones(self):
        h = sparse_avoider()
        table = bound_extension_sizes(h, 4)
        direct = diag_prefix_local(h, table)
        # block i starts with min(prefix length, block size) ones
        start = 0
        for i, width in enumerate(table):
            block = direct[start : start + width]
            if i > 0:
                ones = min(start, width)
                assert block == "1" * ones + "0" * (width - ones)
            start += width

    def test_member_agrees_with_direct(self):
        for h in (sparse_avoider(), ones_family_local(), singleton_family_local()):
            table = bound_extension_sizes(h, 4)
            direct = diag_prefix_local(h, table)
            lang = diag_language_local(h, table)
            assert chi_prefix(lang, len(direct)) == direct

    def test_meets_each_index_at_block_boundaries(self):
        for h in (sparse_avoider(), ones_family_local(), singleton_family_local()):
            table = bound_extension_sizes(h, 4)
            lang = diag_language_local(h, table)
            direct = diag_prefix_local(h, table)
            for i in range(1, 5):
                tau = direct[: sum(table[:i])]
                w = materialize_local(h, i, tau)
                start = sum(table[:i])
                assert direct[start : start + len(w)] == w, i

    def test_overflow_cannot_happen_with_computed_table(self):
        h = ones_family_local()
        table = bound_extension_sizes(h, 4)
        diag_prefix_local(h, table)  # raises ExtensionOverflow on violation

    def test_overflow_on_understated_table(self):
        with pytest.raises(ExtensionOverflow):
            diag_prefix_local(ones_family_local(), [1, 2, 4, 2])

    def test_table_must_start_at_one(self):
        with pytest.raises(ValueError):
            diag_prefix_local(sparse_avoider(), [2, 2])


def reading_family():
    """h_i copies bit i of its input, repeated i times: exercises the stored
    block query answering inside the per-string member algorithm."""

    def extend_at(i, view):
        if i == 0:
            return ""
        return str(view.read(i)) * i

    return IndexedConstructor("readers", extend_at)


def reading_local():
    """ext bit k echoes input position k, for k <= index: exercises the
    recursive query answering of the local diagonal."""
    from bairekit.strategy import LocalConstructor

    def ext_bit(i, view, k):
        return view.read(k) if k <= i else None

    return LocalConstructor("echo-loc", ext_bit, lambda n, i, k: tuple(range(1, k + 1)))


class TestDiagCrossValidation:
    def test_global_member_matches_direct_for_reading_family(self):
        fam = reading_family()
        direct = diag_prefix_global(fam, 2**8)
        lang = diag_language_global(fam)
        assert chi_prefix(lang, 2**8) == direct

    def test_global_meets_reading_family(self):
        fam = reading_family()
        direct = diag_prefix_global(fam, 2**8)
        for i in range(1, 7):
            tau = direct[: 2**i - 1]
            w = ext_of(fam, i, tau)
            start = 2**i - 1
            assert direct[start : start + len(w)] == w, i

    def test_local_member_matches_direct_for_reading_family(self):
        h = reading_local()
        table = bound_extension_sizes(h, 4)
        direct = diag_prefix_local(h, table)
        lang = diag_language_local(h, table)
        assert chi_prefix(lang, len(direct)) == direct

    def test_local_meets_reading_family(self):
        h = reading_local()
        table = bound_extension_sizes(h, 4)
        direct = diag_prefix_local(h, table)
        for i in range(1, 5):
            boundary = sum(table[:i])
            w = materialize_local(h, i, direct[:boundary])
            assert direct[boundary : boundary + len(w)] == w, i


def resimulating_member(h):
    """Per-string membership that recomputes every block up to the string's
    length on each call."""

    def member(x):
        n = len(x)
        stored = {}
        for i in range(1, n + 1):
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

    return member


def counting(h):
    """h with a log of the indices it is asked to extend at."""
    calls = []

    def extend_at(i, view):
        calls.append(i)
        return h.extend_at(i, view)

    return IndexedConstructor(h.name, extend_at), calls


class TestDiagGlobalMemo:
    BITS = 2**11

    @pytest.mark.parametrize(
        "fam",
        [singleton_family(), ones_family(), local_as_indexed(sparse_avoider()), reading_family()],
        ids=lambda fam: fam.name,
    )
    def test_any_query_order_matches_resimulation(self, fam):
        strings = [rank_to_string(p) for p in range(self.BITS)]
        reference = resimulating_member(fam)
        want = {x: reference(x) for x in strings}
        shuffled = list(strings)
        random.Random(derive_seed("memo-order", fam.name)).shuffle(shuffled)
        orders = [shuffled, strings[::-1], [x for x in strings for _ in range(2)]]
        counted, calls = counting(fam)
        lang = diag_language_global(counted)
        for order in orders:
            assert [lang.member(x) for x in order] == [want[x] for x in order]
        # each block is computed once, however the queries arrive
        assert calls == list(range(1, len(strings[-1]) + 1))

    def test_overflow_is_raised_again_and_never_stored(self):
        fat = IndexedConstructor("fat3", lambda i, view: "1" * (9 if i == 3 else i))
        reference = resimulating_member(fat)
        lang = diag_language_global(fat)
        for _ in range(2):
            with pytest.raises(ExtensionOverflow, match=r"^fat3\[3\]: 9 bits exceed block size 8$"):
                lang.member("0101")
        # blocks below the overflow still answer, and the overflow stays
        for x in ("", "0", "1", "00", "11", "10"):
            assert lang.member(x) == reference(x)
        for x in ("000", "1111"):
            with pytest.raises(ExtensionOverflow, match=r"^fat3\[3\]"):
                lang.member(x)
