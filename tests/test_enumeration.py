import hashlib
import itertools
import json
import logging
import math
from collections import Counter

import pytest

from permsphere import (
    HAMMING,
    KENDALL,
    L1,
    BetaTable,
    Permutation,
    ball_polynomial,
    beta,
    connected_beta,
    count_report,
    oracle_ball,
    oracle_sphere,
    pipeline_ball,
    pipeline_sphere,
    sphere_polynomial,
)
from permsphere import oracle, pipeline
from permsphere.oracle import EnumerationCapError, _group_suffix, _split, group_histogram
from permsphere.pipeline import _route, attainable_radii, connected_histogram, radius_step
from permsphere.metrics import MetricId, max_l1

from helpers import (
    brute_connected_histogram,
    direct_split_type_counts,
    mahonian,
    rencontres,
    stirling_cycles,
    word_cayley,
    word_hamming,
    word_histogram,
    word_inversions,
    word_is_connected,
    word_l1,
    word_linf,
    word_lp,
    words,
)

# OEIS A003319: connected (indecomposable) permutations of S_m, m = 2..15.
A003319 = [1, 3, 13, 71, 461, 3447, 29093, 273343, 2829325, 31998903, 392743957,
           5201061455, 73943424413, 1123596277863]

# Every oracle metric with its whole-word distance.
SWEEP_METRICS = [
    ("l1", word_l1), ("lp:2", word_lp(2)), ("lp:3", word_lp(3)), ("lp:40", word_lp(40)),
    ("linf", word_linf), ("hamming", word_hamming), ("cayley", word_cayley),
    ("kendall", word_inversions),
]


def insert_kendall(word: tuple[int, ...], i: int, c: int) -> tuple[int, ...]:
    """Put value i into a word of 1..i-1 with c values after it."""
    cut = len(word) - c
    return word[:cut] + (i,) + word[cut:]


def insert_cayley(word: tuple[int, ...], i: int, c: int) -> tuple[int, ...]:
    """Put value i into a word of 1..i-1 as a new cycle (c = 0), or after
    value c in the cycle of c (word[j - 1] is the image of j)."""
    if c == 0:
        return word + (i,)
    return word[: c - 1] + (i,) + word[c:] + (word[c - 1],)


# The position-cost metrics with their fold and the cost of a value moved
# by g places.
COST_FOLDS = [
    ("l1", sum, lambda g: g), ("lp:3", sum, lambda g: g**3),
    ("hamming", sum, lambda g: int(g != 0)), ("linf", max, lambda g: g),
]


def lists_built(monkeypatch, metric, n):
    """Sweep S_n under ``metric`` and return each list its walker took from
    the arrangement-list builder, as (first position, values, entries)."""
    built = []
    make = oracle._arrangement_lists

    def spy_make(cost, fold, packed):
        build = make(cost, fold, packed)

        def spy(i, values):
            data = build(i, values)
            built.append((i, tuple(values), list(data)))
            return data

        return spy

    monkeypatch.setattr(oracle, "_arrangement_lists", spy_make)
    oracle._WALKS[metric.kind](metric, n)
    return built


@pytest.fixture
def fresh_sweeps():
    """Sweep afresh, and keep no sweep made under patched settings."""
    oracle._sweep_group.cache_clear()
    yield
    oracle._sweep_group.cache_clear()


class TestOracle:
    def test_sphere_values(self):
        assert oracle_sphere(L1, 5, 12) == 20
        assert oracle_sphere(L1, 4, 0) == 1
        assert oracle_sphere(L1, 4, 8) == 4

    def test_ball_values(self):
        assert oracle_ball(L1, 4, 2) == 4
        assert oracle_ball(L1, 4, 0) == 1
        assert oracle_ball(L1, 4, 4) == 11

    def test_ball_is_cumulative_spheres(self):
        for r in range(0, 9):
            assert oracle_ball(L1, 4, r) == sum(oracle_sphere(L1, 4, s) for s in range(r + 1))

    def test_ball_saturates_at_group_order(self):
        assert oracle_ball(L1, 5, max_l1(5)) == math.factorial(5)

    def test_cap(self):
        with pytest.raises(EnumerationCapError, match="cap"):
            group_histogram(L1, 13)

    # The cap is an argument of each call and outlives none of them.
    def test_cap_is_an_argument(self):
        with pytest.raises(EnumerationCapError, match="^enumerating S_5 exceeds the configured cap of 4$"):
            oracle_ball(L1, 5, 4, cap=4)
        with pytest.raises(EnumerationCapError, match="cap of 4"):
            count_report(L1, 5, 4, method="oracle", cap=4)
        assert oracle_sphere(L1, 5, 4, cap=5) == oracle_sphere(L1, 5, 4) == 12

    def test_large_sweep_warns_once(self, caplog, monkeypatch):
        from permsphere import oracle

        monkeypatch.setattr(oracle, "_COMFORT_DEGREE", 4)
        oracle._sweep_group.cache_clear()
        with caplog.at_level(logging.WARNING, logger="permsphere.oracle"):
            for r in range(0, 13, 2):
                oracle_sphere(L1, 5, r)
            oracle_ball(L1, 5, 12)
        assert [r.getMessage() for r in caplog.records] == [
            "enumerating S_5 (120 permutations); this may take a while"
        ]

    # Every walker finishes from suffix lists of the last max(1, n // 2)
    # positions: at n = 1 the whole word is one suffix, and n = 8 splits
    # 4 + 4. lp:40 distances are too large for a list histogram.
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("name, dist", SWEEP_METRICS)
    def test_sweep_equals_whole_word_count(self, name, dist, n):
        assert group_histogram(MetricId.parse(name), n) == word_histogram(dist, n)

    # Every count of every sweep up to S_9, pinned by one SHA-256: a change
    # to the oracle that moves any count shows here.
    def test_histograms_match_their_pinned_digest(self):
        names = ["l1", "lp:2", "lp:3", "linf", "hamming", "cayley", "kendall"]
        doc = {
            name: {n: sorted(group_histogram(MetricId.parse(name), n).items()) for n in range(1, 10)}
            for name in names
        }
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == "9fbe4cafa17723c7f2a79f5fd72af2d01fbf9c1b4e66abbab73616869473a690"

    # A flush size of one byte flushes at every node, so each group holds
    # one list when it is counted.
    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("name, dist", SWEEP_METRICS)
    def test_sweep_flushing_at_every_node_equals_whole_word_count(
        self, name, dist, n, fresh_sweeps, monkeypatch
    ):
        monkeypatch.setattr(oracle, "_FLUSH_BYTES", 1)
        assert group_histogram(MetricId.parse(name), n) == word_histogram(dist, n)

    # _walk_costs gives the same histogram from byte suffix lists as from the
    # loop over entries; sweeps take bytes for l1 and Hamming, entries for lp.
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("name", ["l1", "hamming", "lp:2"])
    def test_byte_path_equals_the_entries_loop(self, name, n):
        metric = MetricId.parse(name)
        by_bytes, by_entries = (oracle._walk_costs(metric, n, packed) for packed in (True, False))
        assert by_bytes.packed and not by_entries.packed
        assert by_bytes.counts() == by_entries.counts() == group_histogram(metric, n)

    # Every byte list waits under its head distance and the set of values it
    # holds, so each count pass finds at least one entry, and a flush makes
    # one pass per value of each key. Flushing at every node as well as once
    # at the end keeps that true for each head's own list. lp tallies each
    # list as it is added, so nothing of it waits for a flush.
    @pytest.mark.parametrize("flush_bytes", [1 << 20, 1])
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("name", ["l1", "lp:2", "hamming", "linf", "kendall", "cayley"])
    def test_every_queued_list_holds_each_value_of_its_key(self, name, n, flush_bytes, monkeypatch):
        metric = MetricId.parse(name)
        expected = group_histogram(metric, n)
        monkeypatch.setattr(oracle, "_FLUSH_BYTES", flush_bytes)
        flush = oracle._Tally.flush
        flushed = []

        def spy(tally):
            for (_, values), lists in tally.waiting.items():
                assert all(set(data) == values for data in lists)
            passes = tally.passes
            flushed.append(sum(len(values) for _, values in tally.waiting))
            flush(tally)
            assert tally.passes - passes == flushed[-1]

        monkeypatch.setattr(oracle._Tally, "flush", spy)
        tally = oracle._WALKS[metric.kind](metric, n)
        assert tally.counts() == expected
        assert len(flushed) == tally.flushes
        assert tally.flushes >= 1 if tally.packed else tally.flushes == 0

    # The debug line names the tally path and counts the flushes, the
    # bytes.count passes and the leaves, one per permutation. A byte sweep
    # flushes once at the end, or whenever its queue has no room for another
    # copy of a suffix list: the heads at one distance queue their list
    # repeated, in pieces that fill the room left, so a flush size of 1
    # flushes after each head (n! / k! of them) and Kendall S_8's 24 * 100
    # after every 100 heads (17 flushes for its 40,320 leaves); lp:40's
    # distances take the entries loop. Flushing once, Kendall S_8 makes one
    # pass for each of the 23 head distances and each of the 7 inversion
    # counts of S_4.
    @pytest.mark.parametrize("name, n, flush_bytes, tail", [
        ("l1", 5, 1 << 20, "bytes tally, 1 flushes, 34 count passes, 120 leaves"),
        ("l1", 5, 1, "bytes tally, 60 flushes, 84 count passes, 120 leaves"),
        ("kendall", 8, 1 << 20, "bytes tally, 1 flushes, 161 count passes, 40320 leaves"),
        ("kendall", 8, 24 * 100, "bytes tally, 17 flushes, 273 count passes, 40320 leaves"),
        ("cayley", 6, 1 << 20, "bytes tally, 1 flushes, 12 count passes, 720 leaves"),
        ("lp:40", 5, 1, "entries tally, 0 flushes, 0 count passes, 120 leaves"),
    ])
    def test_debug_line_reports_the_tally(self, name, n, flush_bytes, tail, fresh_sweeps, monkeypatch, caplog):
        monkeypatch.setattr(oracle, "_FLUSH_BYTES", flush_bytes)
        with caplog.at_level(logging.DEBUG, logger="permsphere.oracle"):
            group_histogram(MetricId.parse(name), n)
        [message] = [r.getMessage() for r in caplog.records]
        assert message.startswith(f"oracle sweep of S_{n} under {name}: ")
        assert message.endswith(tail)

    # A sweep counts one leaf per permutation, whether it flushes once at
    # the end or after every piece, or tallies lp entry by entry, and no
    # queued piece outgrows the flush size unless one suffix list does.
    @pytest.mark.parametrize("flush_bytes", [1 << 20, 1])
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("name", ["l1", "lp:2", "hamming", "linf", "kendall", "cayley"])
    def test_a_sweep_counts_one_leaf_per_permutation(self, name, n, flush_bytes, monkeypatch):
        metric = MetricId.parse(name)
        monkeypatch.setattr(oracle, "_FLUSH_BYTES", flush_bytes)
        add, flush = oracle._Tally.add, oracle._Tally.flush
        bound = [flush_bytes]

        def spy_add(tally, heads, data):
            bound[0] = max(bound[0], len(data))
            add(tally, heads, data)

        def spy_flush(tally):
            assert all(len(piece) <= bound[0] for lists in tally.waiting.values() for piece in lists)
            flush(tally)

        monkeypatch.setattr(oracle._Tally, "add", spy_add)
        monkeypatch.setattr(oracle._Tally, "flush", spy_flush)
        tally = oracle._WALKS[metric.kind](metric, n)
        tally.counts()
        assert tally.leaves == math.factorial(n)

    # The tally alone counts leaves, for every walker, so a sweep whose
    # adds tally each permutation twice is refused.
    @pytest.mark.parametrize("name", ["l1", "lp:2", "hamming", "linf", "kendall", "cayley"])
    def test_a_sweep_that_miscounts_its_leaves_raises(self, name, fresh_sweeps, monkeypatch):
        add = oracle._Tally.add
        monkeypatch.setattr(oracle._Tally, "add", lambda tally, *args: add(tally, *args) or add(tally, *args))
        with pytest.raises(ArithmeticError, match="counted 240 leaves, not 120"):
            group_histogram(MetricId.parse(name), 5)

    # Kendall and Cayley queue all their heads in one add, one head
    # distance byte per head (n! / k! of them), and each head paired with
    # each entry of the S_k suffix list gives the whole-word histogram.
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize(
        "name, dist", [("kendall", word_inversions), ("cayley", word_cayley)], ids=["kendall", "cayley"]
    )
    def test_one_add_queues_every_head(self, name, dist, n, monkeypatch):
        added = []
        monkeypatch.setattr(oracle._Tally, "add", lambda tally, *args: added.append(args))
        metric = MetricId(name)
        oracle._WALKS[metric.kind](metric, n)
        [(heads, data)] = added
        k = n - _split(n)
        assert type(heads) is bytes and len(heads) == math.factorial(n) // math.factorial(k)
        assert data == _group_suffix(metric, k)
        assert Counter(d + t for d in heads for t in data) == word_histogram(dist, n)

    # Each suffix list holds one distance per arrangement of the values left
    # after the head, never a histogram, and a sweep builds one list per
    # value set, so it tallies each permutation once.
    @pytest.mark.parametrize("n", [1, 2, 5, 7])
    @pytest.mark.parametrize("name, fold, cost", COST_FOLDS, ids=["l1", "lp:3", "hamming", "linf"])
    def test_suffix_lists_hold_every_arrangement_once(self, name, fold, cost, n, monkeypatch):
        metric = MetricId.parse(name)
        split = _split(n)
        k = n - split
        built = [
            (rem, costs)
            for i, rem, costs in lists_built(monkeypatch, metric, n)
            if i == split and len(rem) == k
        ]
        for rem, costs in built:
            expected = [
                fold(cost(abs(v - i)) for i, v in enumerate(arr, split))
                for arr in itertools.permutations(rem)
            ]
            assert len(costs) == math.factorial(k)
            assert costs == expected
        # one list per value set, C(n, k) in all
        assert sorted(rem for rem, _ in built) == list(itertools.combinations(range(n), k))

    # So does each head list, for the values placed in the first positions;
    # the empty head of S_1 costs nothing.
    @pytest.mark.parametrize("n", [1, 2, 5, 7])
    @pytest.mark.parametrize("name, fold, cost", COST_FOLDS, ids=["l1", "lp:3", "hamming", "linf"])
    def test_head_lists_hold_every_arrangement_once(self, name, fold, cost, n, monkeypatch):
        metric = MetricId.parse(name)
        split = _split(n)
        built = [
            (placed, costs)
            for i, placed, costs in lists_built(monkeypatch, metric, n)
            if i == 0 and len(placed) == split
        ]
        for placed, costs in built:
            expected = [
                fold([cost(abs(v - i)) for i, v in enumerate(arr)] or [0])
                for arr in itertools.permutations(placed)
            ]
            assert len(costs) == math.factorial(split)
            assert costs == expected
        # one list per value set, C(n, split) in all
        assert sorted(placed for placed, _ in built) == list(itertools.combinations(range(n), split))

    # A translate table wraps past 255, so a byte sweep whose distances may
    # not fit a byte is refused before it starts (lp:3 on S_7 reaches 576).
    def test_byte_sweep_refuses_distances_past_a_byte(self):
        with pytest.raises(ValueError, match="255"):
            oracle._walk_costs(MetricId.parse("lp:3"), 7, packed=True)

    # Kendall and Cayley finish every head from one list, the distances of
    # S_k itself, one entry per permutation (1-based words).
    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize(
        "name, dist", [("kendall", word_inversions), ("cayley", word_cayley)], ids=["kendall", "cayley"]
    )
    def test_group_suffix_lists_the_distances_of_s_k(self, name, dist, k):
        expected = [dist(w) for w in words(k)]
        assert list(_group_suffix(MetricId(name), k)) == expected

    # Every code (c_1..c_n) with c_i in range(i), decoded by the insertion
    # rule of its metric, is a distinct word whose distance is the sum of
    # the module's step costs for that code.
    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize(
        "name, insert, dist",
        [("kendall", insert_kendall, word_inversions), ("cayley", insert_cayley, word_cayley)],
        ids=["kendall", "cayley"],
    )
    def test_insertion_codes_list_s_n_at_the_sum_of_their_steps(self, name, insert, dist, n):
        step = oracle._STEPS[name]
        assert [len(step(i)) for i in range(1, n + 1)] == list(range(1, n + 1))
        seen = set()
        for code in itertools.product(*map(range, range(1, n + 1))):
            word = ()
            for i, c in enumerate(code, 1):
                word = insert(word, i, c)
            assert dist(word) == sum(step(i)[c] for i, c in enumerate(code, 1))
            seen.add(word)
        assert len(seen) == math.factorial(n)

    # At n = 11 the byte queue flushes many times (over 10 MB of leaves).
    @pytest.mark.parametrize("n", range(1, 12))
    def test_kendall_is_mahonian(self, n):
        assert group_histogram(KENDALL, n) == dict(enumerate(mahonian(n)))

    # n = 10 is the first size whose suffix list has 120 entries (k = 5)
    @pytest.mark.parametrize("n", range(1, 12))
    def test_cayley_is_stirling_first_kind(self, n):
        # distance n - k for the permutations with k cycles
        cycles = stirling_cycles(n)
        assert group_histogram(MetricId("cayley"), n) == {n - k: cycles[k] for k in range(1, n + 1)}

    # n = 10 is the first size whose suffix lists have 120 entries (k = 5)
    @pytest.mark.parametrize("n", range(1, 11))
    def test_hamming_is_rencontres(self, n):
        expected = {k: c for k, c in enumerate(rencontres(n)) if c}
        assert group_histogram(HAMMING, n) == expected

    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("name", ["l1", "lp:2", "lp:3", "linf", "hamming", "cayley", "kendall"])
    def test_total_is_group_order(self, name, n):
        assert sum(group_histogram(MetricId.parse(name), n).values()) == math.factorial(n)


class TestConnectedBase:
    @pytest.mark.parametrize(
        "metric, dist", [(L1, word_l1), (KENDALL, word_inversions)], ids=["l1", "kendall"]
    )
    def test_matches_brute_force(self, metric, dist):
        for m in range(2, 9):
            assert connected_histogram(metric, m) == brute_connected_histogram(dist, m)

    @pytest.mark.parametrize("metric", [L1, KENDALL], ids=["l1", "kendall"])
    def test_totals_are_a003319(self, metric):
        assert [sum(connected_histogram(metric, m).values()) for m in range(2, 16)] == A003319

    def test_degree_one_is_empty(self):
        assert connected_histogram(L1, 1) == {} and connected_histogram(KENDALL, 0) == {}

    def test_non_additive_refused(self):
        with pytest.raises(ValueError, match="no split-type pipeline for hamming"):
            connected_histogram(HAMMING, 3)

    # S_14 is above the oracle's default cap of 12
    def test_never_capped(self):
        connected_histogram.cache_clear()
        assert sum(connected_histogram(L1, 14).values()) == A003319[12]


class TestConnectedBeta:
    def test_transposition(self):
        assert connected_beta(L1, 2, 2) == 1

    def test_power_of_three(self):
        assert connected_beta(L1, 8, 5) == 27

    def test_s6_values(self):
        assert connected_beta(L1, 18, 6) == 36
        assert connected_beta(L1, 16, 6) == 100

    def test_s6_exhaustive_cross_check(self):
        direct = sum(1 for w in words(6) if word_is_connected(w) and word_l1(w) == 16)
        assert direct == 100
        assert connected_beta(L1, 16, 6) == direct

    def test_degree_one_is_never_a_part(self):
        assert connected_beta(L1, 0, 1) == 0


class TestBeta:
    def test_all_transpositions(self):
        for k in range(1, 7):
            assert beta(L1, 2 * k, 2 * k, k) == 1

    def test_stray_cell(self):
        assert beta(L1, 20, 8, 2) == 72

    def test_radius12_cells(self):
        assert beta(L1, 12, 8, 2) == 405
        assert beta(L1, 12, 7, 2) == 72

    # every entry point of the pipeline refuses a metric without a route, with
    # one message that names the routes there are
    def test_non_additive_refused(self):
        entries = (
            BetaTable,
            lambda metric: connected_histogram(metric, 3),
            radius_step,
            lambda metric: pipeline_sphere(metric, 5, 2),
            lambda metric: pipeline_sphere(metric, 5, 0),
            lambda metric: pipeline_ball(metric, 5, 0),
            lambda metric: sphere_polynomial(metric, 0),
        )
        for name in ("hamming", "cayley", "linf", "lp:2"):
            for entry in entries:
                with pytest.raises(ValueError) as refused:
                    entry(MetricId.parse(name))
                assert str(refused.value) == f"no split-type pipeline for {name}; l1 and kendall only"

    @pytest.mark.parametrize("metric", [L1, KENDALL], ids=["l1", "kendall"])
    def test_single_parts_come_through_the_empty_split_type(self, metric):
        for m in range(2, 11):
            for r in range(0, max(connected_histogram(metric, m)) + radius_step(metric) + 1):
                assert beta(metric, r, m, 1) == connected_beta(metric, r, m)

    @pytest.mark.parametrize("metric", [L1, KENDALL], ids=["l1", "kendall"])
    def test_zero_outside_the_split_types(self, metric):
        for m in range(-2, 9):
            for r in range(0, 20):
                assert beta(metric, r, m, 0) == beta(metric, r, m, -1) == 0
                assert beta(metric, -1 - r, m, 1) == beta(metric, -2 - r, m, 2) == 0
                if metric == L1 and r % 2:
                    assert all(beta(metric, r, m, q) == 0 for q in range(1, 5))

    # no split type of degree m lies past farthest(m), so its row there is
    # empty at once and reads no other row
    @pytest.mark.parametrize("metric", [L1, KENDALL], ids=["l1", "kendall"])
    def test_row_past_the_farthest_distance_reads_no_row(self, metric):
        table, farthest = BetaTable(metric), _route(metric)[2]
        for m in range(2, 9):
            BetaTable._row.cache_clear()
            assert table._row(farthest(m) + 1, m) == {}
            assert BetaTable._row.cache_info().misses == 1

    @pytest.mark.parametrize("m", range(2, 8))
    def test_convolution_vs_direct_assembly_l1(self, m):
        direct = direct_split_type_counts(word_l1, m)
        radii = {r for r, _ in direct}
        for q in range(1, m // 2 + 1):
            for r in range(0, max(radii) + 2):
                assert beta(L1, r, m, q) == direct.get((r, q), 0)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_convolution_vs_direct_assembly_kendall(self, m):
        direct = direct_split_type_counts(word_inversions, m)
        radii = {r for r, _ in direct}
        for q in range(1, m // 2 + 1):
            for r in range(0, max(radii) + 2):
                assert beta(KENDALL, r, m, q) == direct.get((r, q), 0)


class TestAlpha:
    """alpha(R, m, q), the split types of distance at most R: the ball
    polynomial's coefficients."""

    def test_small_values(self):
        assert ball_polynomial(L1, 2).coefficient(2, 1) == 1
        assert ball_polynomial(L1, 4).coefficient(2, 1) == 1

    def test_connected_s4_cross_check(self):
        direct = sum(1 for w in words(4) if word_is_connected(w) and word_l1(w) <= 8)
        assert ball_polynomial(L1, 8).coefficient(4, 1) == direct

    def test_alpha_sums_beta(self):
        for m in range(2, 7):
            for q in range(1, m // 2 + 1):
                for r in attainable_radii(L1, 18):
                    assert ball_polynomial(L1, r).coefficient(m, q) == sum(
                        beta(L1, s, m, q) for s in attainable_radii(L1, r)
                    )


class TestPipeline:
    def test_point_values(self):
        assert pipeline_sphere(L1, 5, 12) == 20
        assert pipeline_sphere(L1, 7, 2) == 6
        assert pipeline_sphere(L1, 7, 12) == 591
        assert oracle_sphere(L1, 7, 12) == 591

    def test_odd_radius_empty(self):
        assert pipeline_sphere(L1, 5, 7) == 0

    def test_radius_zero(self):
        assert pipeline_sphere(L1, 5, 0) == 1
        assert pipeline_ball(L1, 5, 0) == 1

    def test_ball_values(self):
        assert pipeline_ball(L1, 4, 4) == 11
        assert pipeline_ball(L1, 6, 2) == 6

    # no split type of degree m lies beyond the route's farthest(m), so a
    # huge radius walks no further than that
    def test_huge_radius_with_small_n(self):
        assert pipeline_ball(L1, 3, 10**9) == 6
        assert pipeline_sphere(KENDALL, 3, 10**9) == 0
        assert pipeline_sphere(L1, 3, 10**7) == 0
        for metric in (L1, KENDALL):
            for n in range(1, 10):
                assert pipeline_ball(metric, n, 10**9) == math.factorial(n)

    @pytest.mark.parametrize("metric", [L1, KENDALL], ids=["l1", "kendall"])
    def test_connected_parts_lie_within_the_widest_split_type(self, metric):
        farthest = _route(metric)[2]
        for m in range(2, 13):
            assert max(connected_histogram(metric, m)) <= farthest(m)

    @pytest.mark.parametrize("metric", [L1, KENDALL], ids=["l1", "kendall"])
    def test_farthest_is_the_largest_distance_in_the_group(self, metric):
        farthest = _route(metric)[2]
        assert farthest(0) == 0
        for m in range(1, 10):
            assert farthest(m) == max(group_histogram(metric, m))

    # the parts of a split type together lie no farther than farthest(m)
    @pytest.mark.parametrize("metric", [L1, KENDALL], ids=["l1", "kendall"])
    def test_farthest_is_superadditive(self, metric):
        farthest = _route(metric)[2]
        for a in range(61):
            for b in range(61):
                assert farthest(a) + farthest(b) <= farthest(a + b)

    def test_oracle_equivalence_small(self):
        for n in range(2, 7):
            for r in range(0, max_l1(n) + 2):
                assert pipeline_sphere(L1, n, r) == oracle_sphere(L1, n, r)
                assert pipeline_ball(L1, n, r) == oracle_ball(L1, n, r)

    def test_kendall_oracle_equivalence_small(self):
        for n in range(2, 7):
            top = n * (n - 1) // 2
            for r in range(0, top + 2):
                assert pipeline_sphere(KENDALL, n, r) == oracle_sphere(KENDALL, n, r)
                assert pipeline_ball(KENDALL, n, r) == oracle_ball(KENDALL, n, r)

    def test_telescoping(self):
        for n in range(2, 7):
            for k in range(1, 9):
                assert pipeline_ball(L1, n, 2 * k) - pipeline_sphere(L1, n, 2 * k) == pipeline_ball(
                    L1, n, 2 * k - 2
                )

    def test_ball_equals_alpha_double_sum(self):
        from permsphere import guarded_binom
        from permsphere.pipeline import size_bound

        for n in range(2, 7):
            for radius in (4, 8, 12):
                bound = size_bound(L1, radius)
                alpha = ball_polynomial(L1, radius).coefficient
                total = 1
                for q in range(1, bound + 1):
                    for m in range(2 * q, q + bound + 1):
                        if m - q > n:
                            break
                        total += alpha(m, q) * guarded_binom(n + q - m, q)
                assert total == pipeline_ball(L1, n, radius)

    def test_non_additive_refused(self):
        with pytest.raises(ValueError):
            pipeline_sphere(HAMMING, 5, 2)

    def test_query_builds_no_base_above_n(self, monkeypatch):
        from permsphere import pipeline
        from permsphere.pipeline import sphere_terms

        for memo in (sphere_terms, BetaTable._row, pipeline._pipeline_form):
            memo.cache_clear()
        degrees = []
        monkeypatch.setattr(
            pipeline,
            "connected_histogram",
            lambda metric, m: degrees.append(m) or connected_histogram(metric, m),
        )
        assert pipeline_ball(KENDALL, 3, 12) == 6
        assert pipeline_sphere(L1, 3, 20) == 0
        assert degrees and max(degrees) <= 3

    def test_polynomial_is_the_query_at_top_2r(self):
        from permsphere.pipeline import sphere_terms

        for memo in (sphere_terms, pipeline._pipeline_form):
            memo.cache_clear()
        poly = sphere_polynomial(L1, 16)
        misses = sphere_terms.cache_info().misses
        assert pipeline_sphere(L1, 40, 16) == poly.evaluate(40)
        assert sphere_terms.cache_info().misses == misses

    def test_one_key_per_inner_sphere(self):
        from permsphere import verify
        from permsphere.pipeline import sphere_terms

        for memo in (sphere_terms, pipeline._pipeline_form):
            memo.cache_clear()
        verify.run_verify(8, 8, True)
        # a ball's inner spheres keyed on the ball's own top took 154 keys
        assert sphere_terms.cache_info().currsize == 126

    @pytest.mark.parametrize("metric, radius, top", [(L1, 20, 40), (KENDALL, 12, 5)], ids=["l1", "kendall"])
    def test_terms_read_only_the_support(self, monkeypatch, metric, radius, top):
        from permsphere.pipeline import size_bound, sphere_terms

        sphere_terms.cache_clear()
        cells = []
        read = BetaTable.beta
        monkeypatch.setattr(BetaTable, "beta", lambda table, r, m, q: cells.append((m, q)) or read(table, r, m, q))
        terms = sphere_terms(metric, radius, top)
        walked, bound = list(cells), size_bound(metric, radius)
        assert walked and all(m - q <= bound and m <= top for m, q in walked)
        assert [(m, q) for _, m, q in terms] == [(m, q) for m, q in walked if beta(metric, radius, m, q)]

    def test_cold_build_logs_stage_times(self, caplog):
        from permsphere import pipeline
        from permsphere.pipeline import sphere_terms

        for memo in (connected_histogram, sphere_terms, BetaTable._row, pipeline._pipeline_form):
            memo.cache_clear()
        with caplog.at_level(logging.DEBUG, logger="permsphere.pipeline"):
            assert pipeline_ball(L1, 10, 6) == 286
        messages = [r.getMessage() for r in caplog.records]
        bases = [text for text in messages if text.startswith("connected base of degree ")]
        forms = [text for text in messages if text.startswith("pipeline ")]
        assert [text.split()[4] for text in bases] == ["2", "3", "4"]
        assert all(" under l1: " in text and text.endswith(" s") for text in bases)
        # a ball form is the ball one radius in plus the sphere form at its
        # radius, the chain built innermost first
        keys = [(0, 0), (2, 4), (4, 8), (6, 10)]
        assert [text.split(": ")[0] for text in forms] == [
            f"pipeline {kind} form at radius {r}, m <= {top}, under l1"
            for r, top in keys
            for kind in ("sphere", "ball")
        ]
        assert all(text.endswith(" s") for text in forms)
        assert forms[-1].startswith("pipeline ball form at radius 6, m <= 10, under l1: degree 3 in ")
        assert " terms of degree 3 in " in forms[-2]
        # one line per cold sphere_terms: cells, newly built rows, seconds
        cells = [text for text in messages if text.startswith("sphere terms at radius ")]
        assert [text.split()[4].rstrip(",") for text in cells] == ["0", "2", "4", "6"]
        # each inner sphere under its own key, m <= min(top, 2r)
        assert [text.split(", m <= ")[1].split(",")[0] for text in cells] == ["0", "4", "8", "10"]
        assert all(", under l1: " in text and text.endswith(" s") for text in cells)
        assert [int(text.split(": ")[1].split()[0]) for text in cells] == [
            len(sphere_terms(L1, r, top)) for r, top in keys
        ]
        rows = [int(text.split(" cells, ")[1].split()[0]) for text in cells]
        assert rows[0] == 0 and sum(rows) == BetaTable._row.cache_info().misses
        assert len(messages) == 15
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="permsphere.pipeline"):
            assert pipeline_ball(L1, 10, 6) == 286
        assert caplog.records == []

    # a ball form is the ball one radius in plus one sphere form; the
    # merged ball terms are the independent side
    @pytest.mark.parametrize("metric, max_radius", [(L1, 16), (KENDALL, 10)], ids=["l1", "kendall"])
    def test_ball_forms_are_the_expanded_ball_terms(self, metric, max_radius):
        from permsphere.pipeline import ball_terms, expand_terms

        for radius in range(max_radius + 1):
            for top in range(2 * radius + 1):
                a, denominator = expand_terms(ball_terms(metric, radius, top))
                assert pipeline._pipeline_form(metric, radius, top, True) == (a[::-1], denominator)

    # a cold chain of 153 ball forms is built innermost first, so it nests
    # no deeper than one ball
    def test_cold_ball_chain_stays_shallow(self):
        import sys

        pipeline._pipeline_form.cache_clear()
        depth, frame = 0, sys._getframe()
        while frame:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            assert pipeline_ball(KENDALL, 18, 153) == math.factorial(18)
        finally:
            sys.setrecursionlimit(limit)

    def test_ball_of_maximal_radius_is_the_group(self):
        for n in range(1, 12):
            assert pipeline_ball(L1, n, max_l1(n)) == math.factorial(n)
            assert pipeline_ball(KENDALL, n, n * (n - 1) // 2) == math.factorial(n)

    def test_kendall_spheres_are_mahonian(self):
        for n in range(1, 12):
            counts = mahonian(n)
            assert [pipeline_sphere(KENDALL, n, r) for r in range(len(counts) + 1)] == counts + [0]


class TestSupportBounds:
    def test_prop_m_minus_q_bound(self):
        for k in range(1, 7):
            for q in range(1, k + 1):
                for m in range(2 * q, q + k + 3):
                    if m - q > k:
                        assert beta(L1, 2 * k, m, q) == 0

    def test_max_radius_bounds(self):
        # even degree 2r: empty above k = r^2; odd degree 2r+1: above r^2 + r
        assert beta(L1, 10, 4, 1) == 0
        assert beta(L1, 14, 5, 1) == 0
        assert beta(L1, 8, 4, 1) == 4
        assert beta(L1, 12, 5, 1) == 20

    def test_lp_support_bound_s6(self):
        from permsphere import distance_to_identity, lp

        for w in words(6):
            st = Permutation(w).split_type()
            if st.q == 0:
                continue
            sigma = st.permutation
            for p in (1, 2, 3):
                native = distance_to_identity(lp(p), sigma)
                assert 2 * (st.m - st.q) <= native

    def test_linf_counterexample(self):
        from permsphere import LINF, concatenate, distance_to_identity, parse

        for r in range(1, 7):
            sigma = concatenate(*[parse("2 1")] * r)
            st = sigma.split_type()
            assert distance_to_identity(LINF, sigma) == 1
            assert st.m - st.q == r

    def test_connected_cycle_bound(self):
        from helpers import word_cycles

        for m in range(2, 8):
            for w in words(m):
                if not word_is_connected(w):
                    continue
                k = word_l1(w) // 2
                t = word_cycles(w)
                assert m - 1 <= k
                assert t <= k + 2 - m


class TestCountReport:
    def test_both(self):
        report = count_report(L1, 5, 12, method="both")
        assert report.pipeline_count == report.oracle_count == 20
        assert report.match is True

    def test_oracle_only(self):
        report = count_report(L1, 4, 4, ball=True, method="oracle")
        assert report.oracle_count == 11
        assert report.pipeline_count is None and report.match is None

    def test_as_dict_strings(self):
        d = count_report(L1, 5, 12, method="both").as_dict()
        assert d["pipeline"] == "20" and d["oracle"] == "20" and d["match"] is True
