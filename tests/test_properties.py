"""Randomized property checks with hypothesis."""
import hypothesis.strategies as st
from hypothesis import given, settings

from permsphere import (
    KENDALL,
    L1,
    BetaTable,
    Permutation,
    distance,
    distance_to_identity,
    parse,
)


def permutations(max_degree=6):
    return st.integers(min_value=1, max_value=max_degree).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    ).map(lambda values: Permutation(tuple(values)))


@given(permutations())
def test_parse_round_trip(pi):
    assert parse(str(pi)).word == pi.word


@given(permutations(), permutations(), permutations())
def test_concatenation_associative(a, b, c):
    assert ((a + b) + c).word == (a + (b + c)).word


@given(permutations(), permutations())
def test_concatenation_degree_and_cut(a, b):
    combined = a + b
    assert combined.degree == a.degree + b.degree
    assert a.degree in combined.cuts()
    assert not combined.is_connected()


@given(permutations(), permutations(), permutations())
@settings(max_examples=60)
def test_right_invariance(u, v, w):
    for metric in (L1, KENDALL):
        assert distance(metric, u * w, v * w) == distance(metric, u, v)


@given(permutations(), permutations())
def test_additivity(u, v):
    for metric in (L1, KENDALL):
        assert distance_to_identity(metric, u + v) == distance_to_identity(
            metric, u
        ) + distance_to_identity(metric, v)


@given(permutations(max_degree=7))
def test_l1_parity(u):
    assert distance_to_identity(L1, u) % 2 == 0


@given(permutations())
def test_split_type_round_trip(u):
    decomposition = u.split_decomposition()
    assert decomposition.reassemble().word == u.word
    st_ = u.split_type()
    assert st_.q <= st_.m - st_.q or st_.m == 0
    assert distance_to_identity(L1, st_.permutation) == distance_to_identity(L1, u)


@given(permutations(), permutations())
def test_inverse_and_compose(u, v):
    n = max(u.degree, v.degree)
    assert u * u.inverse() == Permutation.identity(0)
    assert (u * v).inverse() == v.inverse() * u.inverse()


@given(
    st.sampled_from([L1, KENDALL]),
    st.lists(st.tuples(st.integers(0, 24), st.integers(0, 26), st.integers(0, 13)), min_size=1, max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_beta_table_does_not_depend_on_read_order(metric, reads):
    table, reference = BetaTable(metric), BetaTable(metric)
    step, farthest = table.step, table.farthest
    # the widest read: q = 1 at the largest size and total of the reads; no
    # cell of size <= s lies past farthest(s + 1)
    total = max(radius // step for radius, _, _ in reads)
    size = max(0, min(max(m - q for _, m, q in reads), total))
    reference.beta(step * min(total, farthest(size + 1) // step), size + 1, 1)
    grown = reference.total, reference.size, reference.cells
    for radius, m, q in reads:
        assert table.beta(radius, m, q) == reference.beta(radius, m, q)
    assert (reference.total, reference.size, reference.cells) == grown
    for key, row in table.rows.items():
        assert reference.rows[key][:len(row)] == row
