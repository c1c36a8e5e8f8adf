import itertools

import pytest

from permsphere import (
    Permutation,
    SplitType,
    concatenate,
    count_embeddings,
    guarded_binom,
    parse,
)

from helpers import word_split_type, words


class TestParse:
    def test_whitespace(self):
        assert parse("1 4 3 2").word == (1, 4, 3, 2)

    def test_commas(self):
        assert parse("3,2,1").word == (3, 2, 1)

    def test_mixed_separators(self):
        assert parse("2, 1  3").word == (2, 1, 3)

    def test_duplicate_value(self):
        with pytest.raises(ValueError, match="duplicate value 1"):
            parse("1 1 2")

    def test_gap(self):
        with pytest.raises(ValueError, match="value 4"):
            parse("1 2 4")

    def test_nonpositive(self):
        with pytest.raises(ValueError, match="0"):
            parse("0 1")

    def test_not_integer(self):
        with pytest.raises(ValueError, match="'x'"):
            parse("1 x")

    def test_empty(self):
        assert parse("").degree == 0


class TestEquality:
    def test_trailing_fixed_points(self):
        assert parse("2 1 3 4") == parse("2 1")
        assert hash(parse("2 1 3 4")) == hash(parse("2 1"))

    def test_distinct(self):
        assert parse("2 1") != parse("1 2")

    def test_not_equal_to_its_word(self):
        assert (Permutation((1,)) == (1,)) is False

    def test_identity_degrees(self):
        assert Permutation.identity(5) == Permutation.identity(0)


class TestConcatenate:
    def test_paper_example(self):
        assert parse("3 2 1") + parse("2 1") == parse("3 2 1 5 4")

    def test_four_way(self):
        got = concatenate(parse("1"), parse("3 2 1"), parse("1 2"), parse("2 1"))
        assert got == parse("1 4 3 2 5 6 8 7")

    def test_identity_element(self):
        assert Permutation.identity(0) + parse("2 1") == parse("2 1")
        assert parse("2 1") + Permutation.identity(0) == parse("2 1")

    def test_associative(self):
        a, b, c = parse("2 1"), parse("3 1 2"), parse("1")
        assert (a + b) + c == a + (b + c)


class TestCuts:
    def test_example(self):
        assert parse("1 4 3 2 5 7 6").cuts() == (1, 4, 5)

    def test_connected(self):
        assert parse("3 2 1").cuts() == ()

    def test_identity(self):
        assert Permutation.identity(3).cuts() == (1, 2)


class TestSplitDecomposition:
    def test_example(self):
        parts = parse("1 4 3 2 5 7 6").split_decomposition().parts
        assert [p.word for p in parts] == [(1,), (3, 2, 1), (1,), (2, 1)]

    def test_connected(self):
        assert [p.word for p in parse("3 2 1").split_decomposition().parts] == [(3, 2, 1)]

    def test_identity(self):
        parts = Permutation.identity(3).split_decomposition().parts
        assert [p.word for p in parts] == [(1,), (1,), (1,)]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_round_trip(self, n):
        for w in words(n):
            pi = Permutation(w)
            assert pi.split_decomposition().reassemble().word == w


class TestConnected:
    def test_examples(self):
        assert parse("3 2 1").is_connected()
        assert not parse("1 4 3 2").is_connected()
        assert parse("1").is_connected()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Permutation.identity(0).is_connected()


class TestSplitType:
    def test_example(self):
        st = parse("1 4 3 2 5 6 8 7").split_type()
        assert st.permutation == parse("3 2 1 5 4")
        assert (st.m, st.q) == (5, 2)

    def test_identity(self):
        st = Permutation.identity(4).split_type()
        assert (st.m, st.q) == (0, 0)
        assert st.parts == ()

    def test_str(self):
        assert str(SplitType(())) == "(empty)"
        assert str(parse("2 1 4 3").split_type()) == "2 1 + 2 1"

    def test_transposition(self):
        st = parse("2 1").split_type()
        assert (st.m, st.q) == (2, 1)

    def test_invalid_part(self):
        with pytest.raises(ValueError, match="trivial"):
            SplitType((parse("1"),))
        with pytest.raises(ValueError, match="not connected"):
            SplitType((parse("1 3 2"),))

    def test_q_at_most_m_minus_q(self):
        for n in range(1, 7):
            for w in words(n):
                st = Permutation(w).split_type()
                assert st.q <= st.m - st.q
                if st.q == st.m - st.q:
                    assert all(p.word == (2, 1) for p in st.parts)


class TestCountEmbeddings:
    def test_brute_force_s7(self):
        target = word_split_type((3, 2, 1, 5, 4))
        direct = sum(1 for w in words(7) if word_split_type(w) == target)
        assert direct == 6
        assert count_embeddings(7, parse("3 2 1 5 4").split_type()) == 6

    def test_exact_fit(self):
        assert count_embeddings(5, parse("3 2 1 5 4").split_type()) == 1

    def test_too_small(self):
        assert count_embeddings(2, parse("3 2 1 5 4").split_type()) == 0

    @pytest.mark.parametrize("n", range(1, 8))
    def test_partition_of_group(self, n):
        seen = {}
        for w in words(n):
            st = Permutation(w).split_type()
            seen[st] = seen.get(st, 0) + 1
        total = 0
        import math

        for st, direct in seen.items():
            assert count_embeddings(n, st) == direct
            total += direct
        assert total == math.factorial(n)

    def test_weakly_increasing_in_n(self):
        st = parse("3 2 1 5 4").split_type()
        values = [count_embeddings(n, st) for n in range(1, 12)]
        assert values == sorted(values)
        for n in range(st.m - st.q, 12):
            assert count_embeddings(n, st) == guarded_binom(n + st.q - st.m, st.q)


class TestGuardedBinom:
    def test_negative_top(self):
        assert guarded_binom(-1, 0) == 0
        assert guarded_binom(-2, 3) == 0

    def test_ordinary(self):
        assert guarded_binom(4, 2) == 6
        assert guarded_binom(2, 5) == 0
        assert guarded_binom(0, 0) == 1
