"""Ids of every kind: a net or system built from them is either rejected
when it is constructed or printed and parsed back exactly."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nestnets import (
    Event,
    Multiset,
    NestedToken,
    NuNet,
    ObjectSystem,
    PetriNet,
    idle_id,
    parse_nunet,
    parse_object_system,
    print_nunet,
    print_object_system,
)

# Short ids over a few letters, the type separator ':' and '=', or keywords of the formats;
# one id in twenty is empty or holds whitespace or a reserved character.
VALID = st.one_of(
    st.text(st.sampled_from("abé:="), min_size=1, max_size=3),
    st.sampled_from([":", "::", "=", "end", "in", "out", "with", "places", "trans", "vars", "init", "event",
                     "events", "black", "idle::s", "nupn", "eos"]),
)
REJECTED = st.sampled_from(["", "e{", "a b", "x#y", "a;b", "]", "\t"])
ID = st.tuples(st.integers(0, 19), VALID, REJECTED).map(lambda pick: pick[2] if pick[0] == 7 else pick[1])


def id_lists(n):
    """n ids, pairwise distinct in half of the draws, so that many draws build a net."""
    return st.one_of(st.lists(ID, min_size=n, max_size=n, unique=True), st.lists(ID, min_size=n, max_size=n))


def built(make):
    """make(), or None when construction rejects an id with ValueError."""
    try:
        return make()
    except ValueError:
        return None


@settings(max_examples=200, deadline=None)
@given(ids=id_lists(6))
@example(ids=["n", "p", "q", "t", "x", "nu"])
@example(ids=["end", ":", "in", "out", "=", "::"])
def test_name_net_ids_round_trip_or_are_rejected(ids):
    name, p, q, t, x, nu = ids
    net = built(lambda: NuNet(name, (p, q), (t,), (x,), (nu,),
                              {t: {p: Multiset([x])}}, {t: {q: Multiset([x]), p: Multiset([nu])}}))
    if net is None:
        return
    init = Multiset([(1, 0), (0, 2)])
    text = print_nunet(net, init, init)
    assert parse_nunet(text) == (net, init, init)
    assert print_nunet(*parse_nunet(text)) == text


EOS_IDS = ["doc", "a", "b", "u", "v", "s", "s1", "s2", "t", "ev1", "ev2"]


def with_id(position, value):
    return EOS_IDS[:position] + [value] + EOS_IDS[position + 1:]


@settings(max_examples=200, deadline=None)
@given(ids=id_lists(len(EOS_IDS)))
@example(ids=EOS_IDS)
@example(ids=[":", ":", "end", ":", "with", "=", "::", "a:", "end", "end", "t"])
@example(ids=with_id(0, "a:b"))  # an object net id holding the type separator
@example(ids=with_id(3, ":"))  # an object transition ':' in an event clause
@example(ids=with_id(9, "e{"))  # event names that were accepted and could not be read back
@example(ids=with_id(9, "a b"))
@example(ids=with_id(9, "x#y"))
@example(ids=with_id(9, ""))
def test_object_system_ids_round_trip_or_are_rejected(ids):
    net_id, a, b, u, v, name, s1, s2, t, ev1, ev2 = ids

    def make():
        obj = PetriNet(net_id, (a, b), (u, v), {u: Multiset([a]), v: Multiset([b])},
                       {u: Multiset([b]), v: Multiset([a])})
        system = PetriNet(name, (s1, s2), (t,), {t: Multiset([s1])}, {t: Multiset([s1, s2])})
        events = [Event.make(ev1, t, {net_id: Multiset([u, v, v])}),
                  Event.make(ev2, idle_id(s1), {net_id: Multiset([v])})]
        return ObjectSystem(system, [obj], {s1: net_id, s2: "black"}, events)

    system = built(make)
    if system is None:
        return
    init = Multiset([NestedToken(s1, Multiset([a, a, b])), NestedToken(s2, Multiset())])
    text = print_object_system(system, init, init)
    assert parse_object_system(text) == (system, init, init)
    assert print_object_system(*parse_object_system(text)) == text
