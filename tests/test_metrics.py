import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from permsphere import (
    CAYLEY,
    HAMMING,
    KENDALL,
    L1,
    LINF,
    MetricId,
    Permutation,
    concatenate,
    distance,
    distance_to_identity,
    lp,
    parse,
)
from permsphere.metrics import max_l1

from helpers import adjacent_swaps, all_swaps, bfs_word_distance, word_pair_distance, words

SRC = str(Path(__file__).resolve().parents[1] / "src")
SIX_METRICS = (L1, lp(2), LINF, HAMMING, CAYLEY, KENDALL)


class TestMetricId:
    def test_parse_names(self):
        assert MetricId.parse("l1") == L1
        assert MetricId.parse("lp:3").p == 3
        assert MetricId.parse("kendall").kind == "kendall"

    def test_lp1_is_l1(self):
        assert MetricId.parse("lp:1") == L1

    def test_invalid(self):
        with pytest.raises(ValueError):
            MetricId.parse("ulam")
        with pytest.raises(ValueError):
            MetricId.parse("lp:0")

    def test_equal_metrics_hash_equal(self):
        assert lp(1) is L1
        assert MetricId("lp", 2) == lp(2) and hash(MetricId("lp", 2)) == hash(lp(2))
        assert MetricId("lp", 2) != lp(3) and MetricId("l1") != MetricId("linf")
        assert {MetricId("kendall"): 1}[KENDALL] == 1

    def test_one_object_per_metric(self):
        for kind in ("l1", "linf", "hamming", "cayley", "kendall"):
            assert MetricId.parse(kind) is MetricId(kind) is MetricId(kind=kind, p=None)
        assert MetricId.parse("lp:2") is MetricId("lp", 2) is lp(2)
        assert MetricId.parse(" Kendall ") is KENDALL

    def test_frozen(self):
        with pytest.raises(AttributeError):
            L1.kind = "kendall"
        with pytest.raises(AttributeError):
            lp(2).p = 3
        assert L1.kind == "l1" and lp(2).p == 2

    def test_repr(self):
        assert repr(L1) == "MetricId(kind='l1', p=None)"
        assert repr(lp(3)) == "MetricId(kind='lp', p=3)"

    @pytest.mark.parametrize("p", [2.5, 2.0, 1.0, True, False, "2", None, 0, -1])
    def test_non_integer_exponent_refused(self, p):
        # True and 2.0 equal 1 and 2 as dict keys, so they must not reach the
        # intern table, where they would find lp:1 and lp:2
        with pytest.raises(ValueError, match="integer exponent p >= 1"):
            MetricId("lp", p)
        with pytest.raises(ValueError, match="integer exponent p >= 1"):
            lp(p)

    def test_unpickled_in_another_process_hashes_equal(self):
        # the child hashes strings with another seed, so a hash carried
        # through the pickle would no longer match a fresh instance there
        payload = pickle.dumps([lp(2), KENDALL])
        child = (
            "import pickle, sys\n"
            "from permsphere.metrics import KENDALL, lp\n"
            "got = pickle.loads(sys.stdin.buffer.read())\n"
            "assert {lp(2): 0, KENDALL: 1}[got[1]] == 1 and hash(got[0]) == hash(lp(2))\n"
            "assert got[1] is KENDALL and got[0] is lp(2)\n"
        )
        env = {**os.environ, "PYTHONHASHSEED": "12345",
               "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", child], input=payload, env=env, check=True)


class TestDistanceToIdentity:
    def test_l1_transposition(self):
        assert distance_to_identity(L1, parse("2 1")) == 2

    def test_l1_reversal(self):
        assert distance_to_identity(L1, parse("3 2 1")) == 4

    def test_hamming_distant_transposition(self):
        for r in range(2, 8):
            w = list(range(1, r + 1))
            w[0], w[r - 1] = w[r - 1], w[0]
            assert distance_to_identity(HAMMING, Permutation(tuple(w))) == 2

    def test_linf_stack_of_transpositions(self):
        for r in range(1, 6):
            sigma = concatenate(*[parse("2 1")] * r)
            assert distance_to_identity(LINF, sigma) == 1

    def test_cayley_identity(self):
        assert distance_to_identity(CAYLEY, Permutation.identity(4)) == 0

    def test_lp_native_scale(self):
        assert distance_to_identity(lp(2), parse("3 2 1")) == 8
        assert distance_to_identity(lp(3), parse("2 1")) == 2


class TestPairwiseDistance:
    def test_equal_permutations(self):
        u = parse("4 1 3 2")
        for metric in SIX_METRICS:
            assert distance(metric, u, u) == 0

    def test_against_identity(self):
        assert distance(L1, parse("2 1"), Permutation.identity(2)) == 2

    def test_kendall_reversal(self):
        assert distance(KENDALL, parse("3 2 1"), Permutation.identity(3)) == 3

    def test_kendall_bfs_s4(self):
        for w in words(4):
            expected = bfs_word_distance(w, adjacent_swaps)
            assert distance_to_identity(KENDALL, Permutation(w)) == expected

    def test_cayley_bfs_s4(self):
        for w in words(4):
            expected = bfs_word_distance(w, all_swaps)
            assert distance_to_identity(CAYLEY, Permutation(w)) == expected

    def test_translation_route_agrees(self):
        # the positionwise metrics, against their two-word definition, across degrees
        rng = random.Random(7)
        pool = [w for n in (3, 4, 5) for w in words(n)]
        for _ in range(100):
            u, v = rng.choice(pool), rng.choice(pool)
            for metric in (L1, lp(2), lp(3), LINF, HAMMING):
                expected = word_pair_distance(metric.kind, u, v, metric.p or 1)
                assert distance(metric, Permutation(u), Permutation(v)) == expected

    def test_mixed_degrees(self):
        u, v = parse("2 1"), parse("1 3 2")
        assert distance(L1, u, v) == distance(L1, parse("2 1 3"), v)


class TestMaxDistance:
    def test_l1_table(self):
        assert [max_l1(m) for m in range(2, 8)] == [2, 4, 8, 12, 18, 24]

    def test_l1_closed_form_vs_brute(self):
        for m in range(1, 8):
            brute = max(distance_to_identity(L1, Permutation(w)) for w in words(m))
            assert max_l1(m) == brute


class TestProperties:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_l1_parity(self, n):
        for w in words(n):
            assert distance_to_identity(L1, Permutation(w)) % 2 == 0

    def test_right_invariance(self):
        rng = random.Random(11)
        pool = [Permutation(w) for w in words(6)]
        for _ in range(60):
            u, v, w = (rng.choice(pool) for _ in range(3))
            for metric in SIX_METRICS:
                assert distance(metric, u * w, v * w) == distance(metric, u, v)

    def test_symmetry_and_triangle_s4(self):
        perms = [Permutation(w) for w in words(4)]
        metrics = (L1, LINF, HAMMING, CAYLEY, KENDALL)
        for u, v in itertools.product(perms, perms):
            for metric in metrics:
                assert distance(metric, u, v) == distance(metric, v, u)
        rng = random.Random(3)
        for _ in range(300):
            u, v, w = (rng.choice(perms) for _ in range(3))
            for metric in metrics:
                assert distance(metric, u, v) <= distance(metric, u, w) + distance(metric, w, v)

    def test_triangle_random_s6(self):
        rng = random.Random(5)
        pool = [Permutation(w) for w in words(6)]
        for _ in range(200):
            u, v, w = (rng.choice(pool) for _ in range(3))
            for metric in (L1, LINF, HAMMING, CAYLEY, KENDALL):
                assert distance(metric, u, v) <= distance(metric, u, w) + distance(metric, w, v)

    def test_additivity(self):
        for metric in (L1, KENDALL):
            for wu in words(4):
                for wv in words(4):
                    u, v = Permutation(wu), Permutation(wv)
                    assert distance_to_identity(metric, u + v) == distance_to_identity(
                        metric, u
                    ) + distance_to_identity(metric, v)

    def test_split_type_invariance_s6(self):
        for w in words(6):
            u = Permutation(w)
            sigma = u.split_type().permutation
            for metric in SIX_METRICS:
                assert distance_to_identity(metric, u) == distance_to_identity(metric, sigma)

    def test_kendall_l1_bound_s6(self):
        for w in words(6):
            u = Permutation(w)
            assert distance_to_identity(L1, u) <= 2 * distance_to_identity(KENDALL, u)
