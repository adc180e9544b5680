"""The name-net to object-system compilation: shape, wiring, encodings."""

import random

import pytest

from nestnets import EMPTY, Multiset, NestedToken, NuNet
from nestnets.nunet import config
from nestnets.reduction import (
    SELECT_TRAN,
    SIM,
    decode_config,
    encode_config,
    max_run_length,
    object_net,
    obj_id,
    reduce_nunet,
    run_length,
)
from netgen import random_config, random_nupn


def d0():
    return NuNet(
        name="d0",
        places=("p", "q"),
        transitions=("t1",),
        standard_vars=("x",),
        fresh_vars=("nu",),
        inflow={"t1": {"p": Multiset(["x"])}},
        outflow={"t1": {"q": Multiset(["x"]), "p": Multiset(["nu"])}},
    )


def non_idle(system):
    return [t for t in system.system.transitions if not t.startswith("idle::")]


# -- the object net ------------------------------------------------------------

def test_object_net_restricts_arcs_per_variable():
    data = object_net(d0())
    assert data.name == "data"
    assert data.places == ("p", "q")
    assert data.transitions == ("t1::obj::x", "t1::obj::nu")
    assert data.pre_of("t1::obj::x") == Multiset(["p"])
    assert data.post_of("t1::obj::x") == Multiset(["q"])
    assert data.pre_of("t1::obj::nu") == EMPTY
    assert data.post_of("t1::obj::nu") == Multiset(["p"])


# -- gadget shape ----------------------------------------------------------------

def test_d0_gadget_wiring():
    red = reduce_nunet(d0())
    hat = red.system.system
    assert hat.places == (
        "sim", "selectTran",
        "t1::select::nu", "t1::selected::x", "t1::run::x", "t1::run::nu", "t1::report",
    )
    assert non_idle(red.system) == [
        "t1::pick::x", "t1::pick::nu", "t1::fire::x", "t1::fire::nu", "t1::done",
    ]
    assert hat.pre_of("t1::pick::x") == Multiset(["selectTran", "sim"])
    assert hat.post_of("t1::pick::x") == Multiset(["t1::selected::x", "t1::select::nu"])
    assert hat.pre_of("t1::pick::nu") == Multiset(["t1::select::nu"])
    assert hat.post_of("t1::pick::nu") == Multiset(["t1::run::x", "t1::run::nu"])
    assert hat.pre_of("t1::fire::x") == Multiset(["t1::selected::x", "t1::run::x"])
    assert hat.post_of("t1::fire::x") == Multiset(["sim", "t1::report"])
    assert hat.pre_of("t1::fire::nu") == Multiset(["t1::run::nu"])
    assert hat.post_of("t1::fire::nu") == Multiset(["sim", "t1::report"])
    assert hat.pre_of("t1::done") == Multiset(["t1::report", "t1::report"])
    assert hat.post_of("t1::done") == Multiset(["selectTran"])

    assert red.system.typing["sim"] == "data"
    assert red.system.typing["selectTran"] == "black"
    assert red.system.typing["t1::selected::x"] == "data"
    assert red.system.typing["t1::run::x"] == "black"
    assert red.system.typing["t1::report"] == "black"


def test_d0_events():
    red = reduce_nunet(d0())
    events = {e.name: e for e in red.system.events}
    assert set(events) == {
        "t1::pick::x", "t1::pick::nu", "t1::fire::x", "t1::fire::nu", "t1::done",
    }
    for name, e in events.items():
        assert e.transition == name
    assert events["t1::fire::x"].theta_of("data") == Multiset(["t1::obj::x"])
    assert events["t1::fire::nu"].theta_of("data") == Multiset(["t1::obj::nu"])
    assert events["t1::pick::x"].theta == ()
    assert events["t1::done"].theta == ()


def test_gadget_without_fresh_variable():
    net = NuNet("n", ("p",), ("t",), standard_vars=("x",),
                inflow={"t": {"p": Multiset(["x"])}},
                outflow={"t": {"p": Multiset(["x"])}})
    red = reduce_nunet(net)
    hat = red.system.system
    assert hat.places == ("sim", "selectTran", "t::selected::x", "t::run::x", "t::report")
    assert non_idle(red.system) == ["t::pick::x", "t::fire::x", "t::done"]
    # the last standard pick releases the run tokens itself
    assert hat.post_of("t::pick::x") == Multiset(["t::selected::x", "t::run::x"])
    assert hat.pre_of("t::done") == Multiset(["t::report"])
    assert run_length(net, "t") == 3


def test_gadget_without_variables_degenerates():
    net = NuNet("n", ("p",), ("t",))
    red = reduce_nunet(net)
    assert red.system.system.places == ("sim", "selectTran")
    assert non_idle(red.system) == ["t::done"]
    hat = red.system.system
    assert hat.pre_of("t::done") == Multiset(["selectTran"])
    assert hat.post_of("t::done") == Multiset(["selectTran"])
    assert run_length(net, "t") == 1


def test_closed_form_counts():
    rng = random.Random(31)
    for _ in range(120):
        net = random_nupn(rng)
        red = reduce_nunet(net)
        expect_places = 2
        expect_trans = 0
        for t in net.transitions:
            n = len(net.standard_vars_of(t))
            if net.fresh_vars_of(t):
                expect_places += 3 * n + 2
                expect_trans += 2 * n + 3
            else:
                expect_places += 3 * n
                expect_trans += 2 * n + 1
        assert len(red.system.system.places) == expect_places
        assert len(non_idle(red.system)) == expect_trans
        assert len(red.system.events) == expect_trans


def test_run_length_counts_each_gadget():
    # The nets of test_closed_form_counts: each transition's run length is
    # the number of steps its gadget compiles to.
    rng = random.Random(31)
    for _ in range(120):
        net = random_nupn(rng)
        red = reduce_nunet(net)
        steps = [red.name_table[tid] for tid in non_idle(red.system)]
        for t in net.transitions:
            own = [e for e in steps if e.source_transition == t and e.role in ("pick", "fire", "done")]
            assert run_length(net, t) == len(own)


def test_run_length_closed_forms():
    rng = random.Random(32)
    for _ in range(60):
        net = random_nupn(rng)
        for t in net.transitions:
            n = len(net.standard_vars_of(t))
            expect = 2 * n + 3 if net.fresh_vars_of(t) else 2 * n + 1
            assert run_length(net, t) == expect
        assert max_run_length(net) == max(run_length(net, t) for t in net.transitions)
    assert max_run_length(NuNet("n", ("p",), ())) == 1


def test_reduction_is_conservative():
    rng = random.Random(33)
    for _ in range(120):
        assert reduce_nunet(random_nupn(rng)).system.is_conservative()


def test_reduction_deterministic():
    rng = random.Random(34)
    for _ in range(20):
        net = random_nupn(rng)
        assert reduce_nunet(net).system == reduce_nunet(net).system


def test_rejections():
    with pytest.raises(ValueError):  # invalid source net
        reduce_nunet(NuNet("n", (), ()))
    with pytest.raises(ValueError):  # reserved id
        reduce_nunet(NuNet("n", ("sim",), ()))
    with pytest.raises(ValueError):  # generated namespace
        reduce_nunet(NuNet("n", ("p",), ("a::b",)))
    # transition idle would generate idle::pick::x, inside the system's idle namespace
    idle = NuNet("n", ("p",), ("idle",), standard_vars=("x",),
                 inflow={"idle": {"p": Multiset(["x"])}}, outflow={"idle": {"p": Multiset(["x"])}})
    with pytest.raises(ValueError, match="^net n: id 'idle' collides with the generated namespace$"):
        reduce_nunet(idle)


# -- the name table ---------------------------------------------------------------

def test_name_table_roles():
    red = reduce_nunet(d0())
    roles = {i: e.role for i, e in red.name_table.items()}
    assert roles["sim"] == "sim"
    assert roles["selectTran"] == "selectTran"
    assert roles["t1::select::nu"] == "select-place"
    assert roles["t1::selected::x"] == "selected-place"
    assert roles["t1::run::x"] == "run-place"
    assert roles["t1::report"] == "report-place"
    assert roles["t1::pick::x"] == "pick"
    assert roles["t1::fire::nu"] == "fire"
    assert roles["t1::done"] == "done"
    assert roles["t1::obj::x"] == "object-transition"


def test_name_table_covers_generated_ids():
    rng = random.Random(35)
    for _ in range(40):
        net = random_nupn(rng)
        red = reduce_nunet(net)
        generated = set(red.system.system.places) | set(non_idle(red.system))
        generated |= {obj_id(t, v) for t in net.transitions for v in net.vars_of(t)}
        assert set(red.name_table) == generated


# -- encodings ----------------------------------------------------------------------

def test_encode_golden():
    net = d0()
    enc = encode_config(net, config(net, [(1, 0), (0, 2)]))
    assert enc == Multiset([
        NestedToken(SIM, Multiset(["p"])),
        NestedToken(SIM, Multiset(["q", "q"])),
        NestedToken(SELECT_TRAN, EMPTY),
    ])


def test_encode_decode_round_trip():
    rng = random.Random(36)
    for _ in range(150):
        net = random_nupn(rng)
        cfg = random_config(rng, net)
        assert decode_config(net, encode_config(net, cfg)) == cfg


def test_decode_rejects_non_encodings():
    net = d0()
    enc = encode_config(net, config(net, [(1, 0)]))
    control = Multiset([NestedToken(SELECT_TRAN, EMPTY)])
    sim_tok = Multiset([NestedToken(SIM, Multiset(["p"]))])
    assert decode_config(net, enc - control) is None          # no control token
    assert decode_config(net, enc + control) is None          # two control tokens
    assert decode_config(net, sim_tok + Multiset([NestedToken(SELECT_TRAN, Multiset(["p"]))])) is None
    assert decode_config(net, enc + Multiset([NestedToken("t1::report", EMPTY)])) is None
    assert decode_config(net, control + Multiset([NestedToken(SIM, Multiset(["zz"]))])) is None  # foreign place
    assert decode_config(net, Multiset()) is None


def test_encode_checks_arity():
    with pytest.raises(ValueError):
        encode_config(d0(), Multiset([(1, 0, 0)]))
