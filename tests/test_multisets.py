"""Multiset algebra against a collections.Counter reference."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nestnets import EMPTY, Multiset
from nestnets.multisets import sort_key

# elements of one multiset are homogeneous in practice (places, vectors,
# variables, tokens), and canonical ordering relies on that
string_elements = st.lists(st.sampled_from("abcde"), max_size=8)
tuple_elements = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=8)
multisets = st.one_of(string_elements, tuple_elements).map(Multiset)
string_multisets = string_elements.map(Multiset)


def as_counter(ms: Multiset) -> Counter:
    return Counter(dict(ms.items()))


@given(st.one_of(string_elements, tuple_elements))
def test_construction_counts(xs):
    ms = Multiset(xs)
    ref = Counter(xs)
    assert as_counter(ms) == ref
    assert ms.total() == len(xs) == len(ms)
    for e in set(xs):
        assert ms.count(e) == ref[e]
        assert e in ms


@given(string_multisets, string_multisets)
def test_add_matches_counter(a, b):
    assert as_counter(a + b) == as_counter(a) + as_counter(b)


@given(string_multisets, string_multisets)
def test_sub_is_truncated(a, b):
    # Counter's own subtraction drops non-positive counts, same convention
    assert as_counter(a - b) == as_counter(a) - as_counter(b)


@given(string_multisets, string_multisets)
def test_sub_then_add_is_pointwise_max(a, b):
    joined = (a - b) + b
    for e in set(a.support()) | set(b.support()):
        assert joined.count(e) == max(a.count(e), b.count(e))


@given(string_multisets, string_multisets)
def test_add_commutes_and_cancels(a, b):
    assert a + b == b + a
    assert (a + b) - b == a
    assert a + EMPTY == a
    assert a - EMPTY == a
    assert EMPTY - a == EMPTY


@given(string_multisets, string_multisets, string_multisets)
def test_add_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(string_multisets, string_multisets)
def test_leq_is_pointwise(a, b):
    expected = all(a.count(e) <= b.count(e) for e in a.support())
    assert a.leq(b) == expected
    assert EMPTY.leq(a)
    assert a.leq(a + b)
    assert (a - b).leq(a)


@given(string_multisets, string_multisets)
def test_leq_antisymmetric(a, b):
    if a.leq(b) and b.leq(a):
        assert a == b


@given(string_multisets, string_multisets, string_multisets)
def test_leq_transitive(a, b, c):
    if a.leq(b) and b.leq(c):
        assert a.leq(c)


@given(string_multisets, st.integers(0, 4))
def test_scalar_multiply(a, n):
    assert as_counter(a * n) == Counter({e: c * n for e, c in a.items() if n})
    assert n * a == a * n
    assert a * 0 == EMPTY
    assert a * 1 == a


@given(string_multisets)
def test_hash_consistent_with_eq(a):
    b = Multiset(a.elements())
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@given(multisets)
def test_canonical_iteration(a):
    assert a.elements() == sorted(a.elements())
    assert list(a) == a.elements()
    assert a.support() == sorted(set(a.elements()))
    assert Multiset(a) == a  # iterating a multiset rebuilds it


def canonical_views(ref: Counter) -> dict:
    """Every canonical view, computed afresh from reference counts."""
    items = sorted(((e, c) for e, c in ref.items() if c > 0), key=lambda ec: sort_key(ec[0]))
    elements = [e for e, c in items for _ in range(c)]
    return {
        "items": items,
        "support": [e for e, _ in items],
        "elements": elements,
        "iter": elements,
        "sort_key": tuple((sort_key(e), c) for e, c in items),
    }


def views_of(ms: Multiset, order: list[str]) -> dict:
    calls = {
        "items": ms.items,
        "support": ms.support,
        "elements": ms.elements,
        "iter": lambda: list(iter(ms)),
        "sort_key": ms.sort_key,
    }
    return {name: calls[name]() for name in order}


@given(
    st.one_of(st.tuples(string_elements, string_elements), st.tuples(tuple_elements, tuple_elements)),
    st.integers(0, 3),
    st.permutations(["items", "support", "elements", "iter", "sort_key"]),
)
def test_canonical_views_after_each_operation(pair, n, order):
    xs, ys = pair
    cx, cy = Counter(xs), Counter(ys)
    a, b = Multiset(xs), Multiset(ys)
    with_zeros = dict(cx) | {y: 0 for y in ys if y not in cx}
    scaled = Counter({e: c * n for e, c in cx.items()})
    built = [
        (Multiset(xs), cx),
        (Multiset.from_counts(with_zeros), cx),
        (a + b, cx + cy),
        (a - b, cx - cy),
        (b - a, cy - cx),
        (a * n, scaled),
        (n * a, scaled),
    ]
    for ms, ref in built:
        expected = canonical_views(ref)
        # the first pass computes the canonical order, the second reads it back
        assert views_of(ms, order) == expected
        assert views_of(ms, order[::-1]) == expected


@given(
    st.one_of(st.tuples(string_elements, string_elements, string_elements),
              st.tuples(tuple_elements, tuple_elements, tuple_elements)),
    st.permutations(["items", "support", "elements", "iter", "sort_key"]),
)
def test_replace_is_sub_then_add(triple, order):
    xs, ys, zs = triple
    a, b, c = Multiset(xs + ys), Multiset(ys), Multiset(zs)  # b <= a, so a - b truncates nothing
    views_before = views_of(a, order)  # a's canonical order is cached before the call
    for consumed, produced in ((b, c), (b, b), (b, EMPTY), (EMPTY, c), (a, c), (c, c)):
        if not consumed.leq(a):
            continue
        got, expected = a.replace(consumed.items(), produced.items()), a - consumed + produced
        assert got == expected
        assert hash(got) == hash(expected)
        assert got.sort_key() == expected.sort_key()
        ref = Counter(xs + ys) - Counter(consumed.elements()) + Counter(produced.elements())
        assert views_of(got, order) == canonical_views(ref)
        # the successor keeps its own insertion order, yet every canonical view
        # equals that of a multiset built afresh in another order
        fresh = Multiset.from_counts(dict(reversed(ref.items())))
        assert views_of(got, order) == views_of(fresh, order)
        assert dict(got.counts()) == dict(fresh.counts()) == ref
    # the counts are copied: the receiver is unchanged, its cached views too
    assert a == Multiset(xs + ys)
    assert views_of(a, order[::-1]) == {name: views_before[name] for name in order[::-1]}
    # consumed pairs that repeat an element, and elements both consumed and produced
    assert a.replace([(e, 1) for e in ys], []) == Multiset(xs)
    if c.leq(a - b):
        assert a.replace(b.items() + c.items(), c.items()) == a - b


@given(multisets, st.integers(1, 3))
def test_replace_never_truncates(a, extra):
    for e, count in a.items():
        with pytest.raises(ValueError):
            a.replace([(e, count + extra)], [])
    absent = "z" if not a or isinstance(a.support()[0], str) else (9, 9)
    with pytest.raises(ValueError):
        a.replace([(absent, extra)], [(absent, extra)])  # producing it too does not help
    assert absent not in a


@given(multisets, st.sampled_from(["items", "support", "elements"]))
def test_returned_lists_are_copies(a, view):
    expected_items = a.items()
    expected_hash = hash(Multiset(a.elements()))
    returned = getattr(a, view)()
    returned.append(returned[0] if returned else "x")
    returned.reverse()
    returned.append(("zz", 9))
    assert a.items() == expected_items
    assert hash(a) == expected_hash
    assert a == Multiset(a.elements())
    assert getattr(a, view)() != returned


@given(multisets)
def test_counts_are_items_in_insertion_order(a):
    built = Multiset(reversed(a.elements()))
    assert list(built.counts()) == list(Counter(reversed(a.elements())).items())
    assert built._items is None and built._key is None  # counts() computes no canonical order
    assert sorted(built.counts(), key=lambda ec: sort_key(ec[0])) == built.items() == a.items()


def test_from_counts_copies_its_argument():
    counts = {"b": 1, "a": 2}
    ms = Multiset.from_counts(counts)
    assert ms.items() == [("a", 2), ("b", 1)]
    counts["c"] = 5
    del counts["a"]
    assert ms.items() == [("a", 2), ("b", 1)]
    assert ms == Multiset(["a", "a", "b"])


def test_rendering():
    assert str(Multiset(["b", "a", "a"])) == "{{a, a, b}}"
    assert str(EMPTY) == "{{}}"
    assert repr(Multiset(["a"])) == "Multiset(['a'])"


def test_from_counts_validation():
    assert Multiset.from_counts({"a": 2, "b": 0}) == Multiset(["a", "a"])
    with pytest.raises(ValueError):
        Multiset.from_counts({"a": -1})
    with pytest.raises(ValueError):
        Multiset.from_counts({"a": 1.5})
    with pytest.raises(ValueError):
        Multiset.from_counts({"a": True})


def test_negative_scaling_rejected():
    with pytest.raises(ValueError):
        Multiset(["a"]) * -1


def test_empty_behaviour():
    assert not EMPTY
    assert bool(Multiset(["a"]))
    assert EMPTY == Multiset()
    assert EMPTY.sort_key() == ()


@given(st.one_of(
    st.lists(string_elements.map(Multiset), max_size=6),
    st.lists(tuple_elements.map(Multiset), max_size=6),
))
def test_sort_key_orders_deterministically(ms_list):
    once = sorted(ms_list, key=Multiset.sort_key)
    again = sorted(list(reversed(ms_list)), key=Multiset.sort_key)
    assert [m.sort_key() for m in once] == [m.sort_key() for m in again]
