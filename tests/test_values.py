"""Value semantics of the package's record classes: equality, hashing, repr,
assignment and pickling."""
import pickle
from fractions import Fraction

import pytest

from permsphere import BinomialPoly, CountReport, Permutation, RationalPoly, SplitType, parse
from permsphere.perm import SplitDecomposition
from permsphere.verify import Check, VerifyReport

# name: (build one value, a different value of the class, its fields, its repr)
FROZEN = {
    "Permutation": (
        lambda: Permutation((2, 1, 3)), Permutation((1, 3, 2)), ("word",),
        "Permutation((2, 1, 3))",
    ),
    "SplitDecomposition": (
        lambda: parse("1 4 3 2 5").split_decomposition(),
        parse("1 4 3 2").split_decomposition(),
        ("parts", "cut_positions"),
        "SplitDecomposition(parts=(Permutation((1,)), Permutation((3, 2, 1)), Permutation((1,))),"
        " cut_positions=(1, 4))",
    ),
    "SplitType": (
        lambda: parse("3 1 2 5 4").split_type(),
        parse("3 1 2").split_type(),
        ("parts",),
        "SplitType(parts=(Permutation((3, 1, 2)), Permutation((2, 1))))",
    ),
    "BinomialPoly": (
        lambda: BinomialPoly(((1, 4, 2), (3, 3, 1)), "kendall", 4),
        BinomialPoly(((1, 4, 2), (3, 3, 1)), "kendall", 6),
        ("terms", "metric", "radius"),
        "BinomialPoly(terms=((3, 3, 1), (1, 4, 2)), metric='kendall', radius=4)",
    ),
    "RationalPoly": (
        lambda: RationalPoly((Fraction(1, 2), 3, 0)),
        RationalPoly((Fraction(1, 2),)),
        ("coefficients",),
        "RationalPoly(coefficients=(Fraction(1, 2), Fraction(3, 1)))",
    ),
    "CountReport": (
        lambda: CountReport("l1", 5, 12, 20, None),
        CountReport("l1", 5, 12, 20, 20),
        ("metric", "n", "radius", "pipeline_count", "oracle_count"),
        "CountReport(metric='l1', n=5, radius=12, pipeline_count=20, oracle_count=None)",
    ),
}

# name: (build one value, its fields, its repr)
MUTABLE = {
    "Check": (
        lambda: Check("c", "f", "oracle", {"a": "1"}),
        ("name", "formula", "source", "values", "verdict"),
        "Check(name='c', formula='f', source='oracle', values={'a': '1'}, verdict='match')",
    ),
    "VerifyReport": (
        lambda: VerifyReport([Check("c", "f", "oracle")]),
        ("checks",),
        "VerifyReport(checks=[Check(name='c', formula='f', source='oracle', values={},"
        " verdict='match')])",
    ),
}


@pytest.mark.parametrize("make, other, fields, text", FROZEN.values(), ids=FROZEN.keys())
def test_frozen_value(make, other, fields, text):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other
    assert repr(a) == text
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b
    copy = pickle.loads(pickle.dumps(a))
    assert copy == a and hash(copy) == hash(a)


@pytest.mark.parametrize("make, fields, text", MUTABLE.values(), ids=MUTABLE.keys())
def test_mutable_value(make, fields, text):
    a, b = make(), make()
    assert a is not b and a == b
    assert repr(a) == text
    with pytest.raises(TypeError):
        hash(a)
    assert pickle.loads(pickle.dumps(a)) == a
    for name in fields:
        setattr(b, name, None)
        assert getattr(b, name) is None and a != b
        setattr(b, name, getattr(a, name))
    assert a == b


def test_mutable_defaults_are_not_shared():
    assert Check("c", "f", "s").verdict == "match"
    assert Check("c", "f", "s").values == {} and VerifyReport().checks == []
    assert Check("c", "f", "s").values is not Check("c", "f", "s").values
    assert VerifyReport().checks is not VerifyReport().checks


# the two records with no constructor of their own take their fields from
# Record.__init__, one value per field, positionally
@pytest.mark.parametrize("make", [CountReport, SplitDecomposition], ids=["CountReport", "SplitDecomposition"])
def test_record_takes_one_value_per_field(make):
    fields = [None] * len(make.__slots__)
    assert make(*fields)._fields() == tuple(fields)
    for wrong in (fields[1:], [*fields, None]):
        with pytest.raises(TypeError, match=make.__name__):
            make(*wrong)


def test_records_of_two_classes_are_unequal_with_equal_fields():
    check, report = Check("a", "b", "c", {}, "match"), CountReport("a", "b", "c", {}, "match")
    assert check._fields() == report._fields()
    assert check != report and report != check
