"""Randomized property checks with hypothesis."""
from unittest import mock

import hypothesis.strategies as st
from hypothesis import example, given, settings

from permsphere import (
    KENDALL,
    L1,
    BetaTable,
    Permutation,
    distance,
    distance_to_identity,
    parse,
    pipeline,
)

from helpers import cold_pipeline


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


# beta grows the table only for a read that can be nonzero, so each growth
# asks for, and leaves the table at, size <= total <= farthest(size + 1) // step;
# the examples are a read past _last and one with t < s, each of which beta
# turns away before it grows
@given(
    st.sampled_from([L1, KENDALL]),
    st.lists(st.tuples(st.integers(0, 24), st.integers(0, 26), st.integers(0, 13)), min_size=1, max_size=12),
)
@example(L1, [(4, 2, 1)])
@example(KENDALL, [(1, 6, 2)])
@settings(max_examples=60, deadline=None)
def test_beta_table_grows_inside_its_bound(metric, reads):
    table = BetaTable(metric)
    step, farthest, grow = table.step, table.farthest, table._grow

    def checked(total, size):
        assert size <= total <= farthest(size + 1) // step
        grow(total, size)
        assert table.size <= table.total <= farthest(table.size + 1) // step

    table._grow = checked
    for radius, m, q in reads:
        table.beta(radius, m, q)


base_reads = st.sampled_from([L1, KENDALL]).flatmap(lambda metric: st.one_of(
    st.tuples(st.just("cut"), st.just(metric), st.integers(0, 16), st.integers(0, 80)),
    st.tuples(st.just("whole"), st.just(metric), st.integers(0, 16)),
    st.tuples(st.just("beta"), st.just(metric), st.integers(0, 40), st.integers(0, 14), st.integers(0, 7)),
))


# a read the latest scan covers leaves the memo as it was, and any other
# read scans again at exactly its own degree and distance, so no scan
# reaches past a read; a read, cut or whole, direct or made by a growing
# table, is a fresh scan at its own bounds
@given(st.lists(base_reads, min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_rescans_never_pass_the_reads(sequence):
    cold_pipeline()
    read = pipeline.connected_histogram

    def checked(metric, m, radius=None):
        scan, farthest = pipeline._route(metric).base, pipeline._route(metric).farthest
        before = pipeline._scans.get(metric.kind)
        hist = read(metric, m, radius)
        if m >= 2:
            need = farthest(m) if radius is None else radius
            after = pipeline._scans[metric.kind]
            if before is not None and m <= before[0] and need <= before[1]:
                assert after is before
            else:
                assert after[:2] == (m, need)
            assert hist == scan(m, need)[m]
        return hist

    betas = []
    with mock.patch.object(pipeline, "connected_histogram", checked):
        for kind, metric, *args in sequence:
            if kind == "beta":
                betas.append((metric, *args, pipeline.beta(metric, *args)))
            else:
                pipeline.connected_histogram(metric, *args)
    # each cell as a cold table that grew once holds it
    cold_pipeline()
    for metric, radius, m, q, value in betas:
        assert BetaTable(metric).beta(radius, m, q) == value


# a ball's outermost radius is the largest multiple of the step that is at
# most both its radius and farthest(top)
@given(st.sampled_from([L1, KENDALL]), st.integers(0, 400), st.integers(0, 60))
def test_outermost_radius_is_the_last_step_in_reach(metric, radius, top):
    route = pipeline._route(metric)
    last, reach = pipeline._outermost(metric, radius, top), min(radius, route.farthest(top))
    assert last % route.step == 0 and last <= reach < last + route.step
