"""File formats: parsing, printing, round trips, source positions."""

import pathlib
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nestnets import (
    InvalidNetError,
    Multiset,
    NestedToken,
    ParseError,
    dot_nunet,
    dot_object_system,
    encode_config,
    format_config,
    format_marking,
    name_table_tsv,
    parse_config,
    parse_marking,
    parse_nunet,
    parse_object_system,
    print_nunet,
    print_object_system,
    reduce_nunet,
    sniff_format,
)
from nestnets.nunet import config
from nestnets.textio import _int
from netgen import random_config, random_marking, random_nupn, random_object_system

DATA = pathlib.Path(__file__).parent / "data"


def d0_text():
    return (DATA / "d0.nupn").read_text()


def courier_text():
    return (DATA / "courier.eos").read_text()


LONG = "1" * 5000  # more digits than int() converts by default


# -- name net files ---------------------------------------------------------------

def test_parse_d0_fixture():
    net, init, target = parse_nunet(d0_text())
    assert net.name == "d0"
    assert net.places == ("p", "q")
    assert net.transitions == ("t1",)
    assert net.standard_vars == ("x",)
    assert net.fresh_vars == ("nu",)
    assert net.inflow["t1"] == {"p": Multiset(["x"])}
    assert net.outflow["t1"] == {"q": Multiset(["x"]), "p": Multiset(["nu"])}
    assert init == config(net, [(1, 0)])
    assert target == config(net, [(0, 1)])


def test_nupn_print_parse_identity():
    rng = random.Random(71)
    for _ in range(60):
        net = random_nupn(rng)
        init = random_config(rng, net)
        target = random_config(rng, net)
        text = print_nunet(net, init, target)
        net2, init2, target2 = parse_nunet(text)
        assert net2 == net
        assert init2 == init
        assert target2 == target
        assert print_nunet(net2, init2, target2) == text


def test_nupn_print_canonicalizes():
    # same net, scrambled surface syntax
    messy = "\n".join([
        "nupn d0",
        "places p",
        "places q   # places accumulate",
        "vars x",
        "fresh nu",
        "trans t1",
        "  out q : x",
        "  in p : x",
        "  out p : nu",
        "end",
        "init [1 0]",
        "target [0 1]",
        "",
    ])
    net, init, target = parse_nunet(messy)
    assert print_nunet(net, init, target) == print_nunet(*parse_nunet(d0_text()))


def test_duplicate_arcs_accumulate():
    text = "nupn n\nplaces p\nvars x y\ntrans t\n in p : x\n in p : y\nend\n"
    net, _, _ = parse_nunet(text)
    assert net.inflow["t"]["p"] == Multiset(["x", "y"])


def test_nupn_without_init_or_target():
    net, init, target = parse_nunet("nupn n\nplaces p\n")
    assert net.transitions == ()
    assert init is None and target is None


def test_parse_errors_carry_positions():
    cases = [
        ("", "line 1: unexpected end of file"),
        ("petri x\n", "line 1: expected 'nupn' header, got 'petri'"),
        ("nupn a b\n", "line 1: expected 'nupn [name]'"),
        ("nupn n\nplaces p\nfrobnicate\n", "line 3: unexpected keyword 'frobnicate'"),
        ("nupn n\nplaces p\nin p : x\n", "line 3: unexpected keyword 'in'"),
        ("nupn n\nplaces p q\nvars x\ntrans t\n in p : x\n out q : x\nend\ninit [1]\n",
         "line 8: vector [1] has arity 1, net has 2 places"),
        ("nupn n\nplaces p\ninit [-1]\n", "line 3: negative entry in [-1]"),
        ("nupn n\nplaces p\ninit [1]\nplaces q\n", "line 3: vector [1] has arity 1, net has 2 places"),
        ("nupn n\ninit [x]\nplaces p p\n", "line 2: expected an integer, got 'x'"),  # syntax in file order,
        ("nupn n\nplaces p p\ninit [1]\n", "line 2: net n: duplicate place id 'p'"),  # then the net, then fit
        ("nupn n\nplaces p\nplaces p\n", "line 3: net n: duplicate place id 'p'"),  # id errors at the repeat
        ("nupn n\nplaces p\nvars x\nfresh x\n", "line 4: net n: duplicate variable id 'x'"),
        ("nupn n\nplaces p\ntrans p\nend\n", "line 3: net n: id 'p' used as both place and transition"),
        ("nupn n\nplaces p a;b\n", "line 2: place id 'a;b' contains whitespace or reserved characters"),
        ("nupn a;b\nplaces p\n", "line 1: net id 'a;b' contains whitespace or reserved characters"),
        ("nupn n\nplaces p\nvars x\ntrans t\n in p : x\n", "line 5: unexpected end of file"),
        ("nupn n\nplaces p\ntrans t\nend\ntrans t\nend\n", "line 5: net n: duplicate transition id 't'"),
        ("nupn n\nplaces p\nvars x\ntrans t\n in p : y\nend\n", "line 5: undeclared variable 'y'"),
        ("nupn n\nplaces p\nvars x\ntrans t\n in zz : x\nend\n", "line 5: unknown place 'zz'"),
        ("nupn n\nplaces p q\nvars x\ntrans t\n in p : x\n out zz : x\nend\n", "line 6: unknown place 'zz'"),
        (f"nupn n\nplaces p\ninit [{LONG}]\n", f"line 3: expected an integer, got '{LONG}'"),
    ]
    for text, message in cases:
        with pytest.raises(ParseError) as err:
            parse_nunet(text)
        assert str(err.value) == message
    net, _, _ = parse_nunet(d0_text())
    with pytest.raises(ParseError) as err:
        parse_config("[1 0]\n[0 1 2]", net)
    assert str(err.value) == "line 2: vector [0, 1, 2] has arity 3, net has 2 places"


@pytest.mark.parametrize("vector, message", [
    ((1,), "vector [1] has arity 1, net has 2 places"),
    ((1, -1), "negative entry in [1, -1]"),
])
def test_one_fit_rule_one_message(vector, message):
    net, _, _ = parse_nunet(d0_text())
    text = "[" + " ".join(map(str, vector)) + "]"
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        config(net, [vector])
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        encode_config(net, Multiset([vector]))
    with pytest.raises(ParseError, match=rf"^line 1: {re.escape(message)}$"):
        parse_config(text, net)
    with pytest.raises(ParseError, match=rf"^line 11: {re.escape(message)}$"):
        parse_nunet(d0_text().replace("init [1 0]", "init " + text))


@pytest.mark.parametrize("brk", ["\f", "\u2028"])
def test_comments_end_only_at_a_line_break(brk):
    # A form feed or a line separator inside a comment leaves the comment
    # open, and lines are counted by their newlines.
    text = d0_text().replace("# Running example", f"# Running{brk}example")
    assert parse_nunet(text) == parse_nunet(d0_text())
    with pytest.raises(ParseError, match=r"^line 3: unexpected keyword 'wat'$"):
        parse_nunet(f"nupn n\n# a comment{brk}with a page break\nwat\n")
    assert parse_nunet(text.replace("\n", "\r\n")) == parse_nunet(text.replace("\n", "\r"))


@given(st.text(alphabet="019_+-\u0663xe.", max_size=6))
def test_integers_read_as_int_reads_them(tok):
    try:
        value = int(tok)
    except ValueError:
        with pytest.raises(ParseError, match=r"^line 4: expected an integer, got "):
            _int(4, tok, "an integer")
    else:
        assert _int(4, tok, "an integer") == value


def test_inline_states_may_span_lines():
    net, _, _ = parse_nunet(d0_text())
    assert parse_config("[1\n 0] [+0\n\n 0_2]", net) == config(net, [(1, 0), (0, 2)])
    system, _, _ = parse_object_system(courier_text())
    assert parse_marking("outbox\n{ final:1\n }", system) == Multiset([NestedToken("outbox", Multiset(["final"]))])
    cases = [
        (parse_config, net, "[1\n x]", "line 2: expected an integer, got 'x'"),
        (parse_config, net, "[1 0]\n[0\n1 2]", "line 2: vector [0, 1, 2] has arity 3, net has 2 places"),
        (parse_config, net, "[1 0]\n[0\n", "line 2: unterminated '['"),
        (parse_config, net, "[1 0]\n\n0]", "line 3: expected '[', got '0'"),
        (parse_marking, system, "outbox {\n zz:1 }",
         "line 1: token on 'outbox' (type doc) has inner token on foreign place 'zz'"),
        (parse_marking, system, "outbox { }\ninbox {\n final:x }", "line 3: expected an integer count, got 'x'"),
        (parse_marking, system, "outbox { }\ninbox { final:-1\n }", "line 2: negative count -1 for 'final'"),
        (parse_marking, system, "outbox { }\ninbox\n", "line 2: expected '{' after place 'inbox'"),
        (parse_marking, system, "outbox { }\ninbox {\n final:1\n", "line 2: unterminated '{'"),
    ]
    for parse, subject, text, message in cases:
        with pytest.raises(ParseError) as err:
            parse(text, subject)
        assert str(err.value) == message


def test_init_and_target_may_precede_places():
    net, init, target = parse_nunet("nupn n\ntarget [0]\ninit [1]\nplaces p\ninit [2] [3]\n")
    assert net.places == ("p",)
    assert (init, target) == (Multiset([(2,), (3,)]), Multiset([(0,)]))  # the last init line wins


def test_invalid_net_raises_or_parses():
    text = "nupn n\nplaces p\nvars x\ntrans t\n out p : x\nend\n"
    with pytest.raises(InvalidNetError) as err:
        parse_nunet(text)
    assert "output variable x not consumed" in str(err.value)
    assert err.value.issues == ["transition t: output variable x not consumed on any input arc"]


def test_config_format_round_trip():
    net, _, _ = parse_nunet(d0_text())
    for vectors in ([], [(1, 0)], [(1, 0), (1, 0), (0, 2)]):
        cfg = config(net, vectors)
        assert parse_config(format_config(cfg), net) == cfg
    assert format_config(config(net, [(0, 2), (1, 0)])) == "[0 2] [1 0]"
    assert format_config(Multiset()) == ""


# -- object system files -----------------------------------------------------------

def test_parse_courier_fixture():
    system, init, target = parse_object_system(courier_text())
    assert system.system.name == "desk"
    assert system.system.places == ("inbox", "outbox", "spool")
    assert system.typing == {"inbox": "doc", "outbox": "doc", "spool": "black"}
    assert set(system.object_nets) == {"doc", "black"}
    assert system.object_nets["doc"].transitions == ("stamp",)
    assert [e.name for e in system.events] == ["process", "hold"]
    assert system.events[0].transition == "move"
    assert system.events[0].theta_of("doc") == Multiset(["stamp"])
    assert system.events[1].transition == "idle::inbox"
    assert init == Multiset([
        NestedToken("inbox", Multiset(["draft", "draft"])),
        NestedToken("inbox", Multiset()),
    ])
    assert target == Multiset([NestedToken("outbox", Multiset(["final"]))])


def test_courier_fires():
    system, init, _ = parse_object_system(courier_text())
    process = system.events[0]
    modes = system.enabled_modes(init, process)
    # only the loaded inbox token can pay for the stamp
    assert len(modes) == 1
    assert modes[0].lam == Multiset([NestedToken("inbox", Multiset(["draft", "draft"]))])
    assert modes[0].rho == Multiset([
        NestedToken("outbox", Multiset(["draft", "final"])),
        NestedToken("spool", Multiset()),
    ])


def test_eos_print_parse_identity():
    system, init, target = parse_object_system(courier_text())
    text = print_object_system(system, init, target)
    system2, init2, target2 = parse_object_system(text)
    assert system2 == system
    assert init2 == init and target2 == target
    assert print_object_system(system2, init2, target2) == text


def test_reduced_net_round_trips():
    net, init, target = parse_nunet(d0_text())
    red = reduce_nunet(net)
    text = print_object_system(red.system, encode_config(net, init), encode_config(net, target))
    system2, init2, target2 = parse_object_system(text)
    assert system2 == red.system
    assert init2 == encode_config(net, init)
    assert target2 == encode_config(net, target)


def test_eos_parse_errors_carry_positions():
    cases = [
        ("eos\nobjectnet a\n places x\nend\n", "line 1: missing 'system' section"),
        ("eos\nsystem first\n places a:black\nend\nsystem second\n places b:black\nend\n",
         "line 5: duplicate 'system' section"),
        ("eos\nsystem s\n places p:black\nend\ninit p { zz:1 }\n",
         "line 5: token on 'p' (type black) has inner token on foreign place 'zz'"),
        ("eos\nsystem s\n places p\nend\n", "line 3: system place 'p' needs a type: name:Type"),
        ("eos\nsystem s\n places p:foo\nend\n", "line 3: place 'p' typed by unknown object net 'foo'"),
        ("eos\nobjectnet black\n places x\nend\nsystem s\n places p:black\nend\n",
         "line 2: object net id 'black' is reserved for the empty net"),
        ("eos\nobjectnet a\n places x\n trans t\n  in x\n  bad x\n end\nend\n",
         "line 6: expected 'in', 'out' or 'end', got 'bad'"),
        ("eos\nsystem s\n places p:black\n trans t\n  in p\n  out p\n end\n trans t\n end\nend\n",
         "line 8: net s: duplicate transition id 't'"),
        ("eos\nobjectnet a\n places x x\n trans u\n end\nend\nsystem s\n places p:a\nend\n",
         "line 3: net a: duplicate place id 'x'"),
        ("eos\nobjectnet a\nend\nobjectnet a\nend\nsystem s\n places p:a\nend\n",
         "line 4: net s: duplicate object net id 'a'"),
        ("eos\nobjectnet a:b\nend\nsystem s\n places p:a:b\nend\n",
         "line 2: object net id 'a:b' contains ':', the separator of a place and its type"),
        ("eos\nobjectnet d\n places x\nend\nsystem s\n places p:d\n trans x\n end\nend\n",
         "line 7: net s: id 'x' used as both system transition and place of object net d"),
        ("eos\nsystem s\n places p:black\n trans idle::p\n end\nend\n",
         "line 4: transition id 'idle::p' uses the reserved idle namespace"),
        # the idle transition of x takes the id of place idle::x, reported where that place is declared
        ("eos\nsystem s\n places x:black\n places idle::x:black\nend\n",
         "line 4: net s: id 'idle::x' used as both system place and system transition"),
        ("nupn n\n", "line 1: expected 'eos' header, got 'nupn'"),
        ("eos\nsystem s\n places p:black\nend\ninit { }\n", "line 5: expected a place name, got '{'"),
        ("eos\nsystem s\n places p:black\nend\ninit p { x }\n", "line 5: expected 'place:count', got 'x'"),
        ("eos\nsystem s\n places p:black\n trans t\n  in p\n  out p\n end\nend\nevents\n"
         " event e = t\n event e = t\nend\n", "line 11: net s: duplicate event id 'e'"),
        ("eos\nsystem s\n places p:black\n trans t\n  in p\n  out p\n end\nend\nevents\n"
         " event a;b = t\nend\n", "line 10: event id 'a;b' contains whitespace or reserved characters"),
        ("eos\nsystem s\n places p:black\nend\ninit p { x:1 }\ninit p { }\n",
         "line 5: token on 'p' (type black) has inner token on foreign place 'x'"),
        ("eos\nsystem s\n places p:black\n trans t\n  in p : 0\n end\nend\n",
         "line 5: arc weight must be positive, got 0"),
        (f"eos\nsystem s\n places p:black\n trans t\n  in p : {LONG}\n end\nend\n",
         f"line 5: expected an integer weight, got '{LONG}'"),
        (f"eos\nsystem s\n places p:black\nend\ninit p {{ x:{LONG} }}\n",
         f"line 5: expected an integer count, got '{LONG}'"),
        # end of file inside a block names the file's last line that holds a token
        ("", "line 1: unexpected end of file"),
        ("eos\nobjectnet a\n places x\n", "line 3: unexpected end of file"),
        ("eos\nobjectnet a\n places x\n trans u\n end\n# c\n\n", "line 5: unexpected end of file"),
        ("eos\nsystem s\n places p:black\n", "line 3: unexpected end of file"),
        ("eos\nsystem s\n places p:black\n trans t\n  in p\n", "line 5: unexpected end of file"),
        ("eos\nsystem s\n places p:black\n trans t\n end\n", "line 5: unexpected end of file"),
        ("eos\nsystem s\n places p:black\nend\nevents\n", "line 5: unexpected end of file"),
        ("eos\nsystem s\n places p:black\n trans t\n end\nend\nevents\n event e = t\n# c\n",
         "line 8: unexpected end of file"),
    ]
    # an event's own errors name its line (17), not the system's (8)
    events = ("eos\nobjectnet d\n places x\n trans u\n  out x\n end\nend\n"
              "system s\n places p:d\n trans t\n  in p\n  out p\n end\nend\n"
              "events\n event ok = t with d: u\n {}\nend\n")
    cases += [(events.format(event), f"line 17: {message}") for event, message in [
        ("event e = zz", "net s: unknown transition 'zz'"),
        ("event e = t with q: u", "event 'e' synchronizes unknown object net 'q'"),
        ("event e = t with d: zz", "net d: unknown transition 'zz'"),
        ("event e = idle::p", "event 'e' rides an idle transition but fires no object transition"),
        ("event e = t with d u", "expected '<net>: <transition>...' in event clause"),
        # every clause between 'with', ';' and the end of the line holds one net and its transitions
        ("event e = t with", "expected '<net>: <transition>...' in event clause"),
        ("event e = t with ; ; d: u ;", "expected '<net>: <transition>...' in event clause"),
        ("event e = t with d: u ;", "expected '<net>: <transition>...' in event clause"),
        ("event e = t with d: u ; ; d: u", "expected '<net>: <transition>...' in event clause"),
    ]]
    for text, message in cases:
        with pytest.raises(ParseError) as err:
            parse_object_system(text)
        assert str(err.value) == message


def test_marking_format_round_trip():
    system, init, target = parse_object_system(courier_text())
    for marking in (init, target, Multiset()):
        assert parse_marking(format_marking(marking), system) == marking
    assert format_marking(init) == "inbox { } inbox { draft:2 }"


def test_event_clause_colon_spacing():
    # both "doc: stamp" and "doc : stamp" describe the same event
    spaced = courier_text().replace("doc: stamp", "doc : stamp")
    assert parse_object_system(spaced)[0] == parse_object_system(courier_text())[0]


# -- frozen printer output ------------------------------------------------------------

COMPILED_D0 = """\
eos
objectnet data
  places p q
  trans t1::obj::x
    in p
    out q
  end
  trans t1::obj::nu
    out p
  end
end
system compiled
  places sim:data selectTran:black t1::select::nu:black t1::selected::x:data t1::run::x:black t1::run::nu:black t1::report:black
  trans t1::pick::x
    in selectTran
    in sim
    out t1::select::nu
    out t1::selected::x
  end
  trans t1::pick::nu
    in t1::select::nu
    out t1::run::nu
    out t1::run::x
  end
  trans t1::fire::x
    in t1::run::x
    in t1::selected::x
    out sim
    out t1::report
  end
  trans t1::fire::nu
    in t1::run::nu
    out sim
    out t1::report
  end
  trans t1::done
    in t1::report : 2
    out selectTran
  end
end
events
  event t1::pick::x = t1::pick::x
  event t1::pick::nu = t1::pick::nu
  event t1::fire::x = t1::fire::x with data: t1::obj::x
  event t1::fire::nu = t1::fire::nu with data: t1::obj::nu
  event t1::done = t1::done
end
init selectTran { } sim { p:1 }
target selectTran { } sim { q:1 }
"""

COURIER_DOT = (
    "digraph system {\n"
    "  rankdir=LR;\n"
    '  subgraph "cluster_doc" {\n'
    '    label="doc";\n'
    '    "draft" [shape=circle];\n'
    '    "final" [shape=circle];\n'
    '    "stamp" [shape=box];\n'
    '    "draft" -> "stamp";\n'
    '    "stamp" -> "final";\n'
    "  }\n"
    '  "inbox" [shape=circle];\n'
    '  "outbox" [shape=circle];\n'
    '  "spool" [shape=triangle];\n'
    '  "move" [shape=box, label="move\nprocess ⟨doc: stamp⟩"];\n'
    '  "inbox" -> "move";\n'
    '  "move" -> "outbox";\n'
    '  "move" -> "spool";\n'
    '  subgraph "cluster_token0" {\n'
    "    style=dashed;\n"
    '    label="";\n'
    '    "token0" [shape=plaintext, label="{ }"];\n'
    "  }\n"
    '  "token0" -> "inbox" [style=dashed, arrowhead=none];\n'
    '  subgraph "cluster_token1" {\n'
    "    style=dashed;\n"
    '    label="";\n'
    '    "token1" [shape=plaintext, label="{ draft:2 }"];\n'
    "  }\n"
    '  "token1" -> "inbox" [style=dashed, arrowhead=none];\n'
    "}\n"
)


def test_print_nunet_d0_frozen():
    assert print_nunet(*parse_nunet(d0_text())) == (
        "nupn d0\nplaces p q\nvars x\nfresh nu\ntrans t1\n  in p : x\n  out p : nu\n  out q : x\nend\n"
        "init [1 0]\ntarget [0 1]\n")


def test_print_object_system_frozen():
    net, init, target = parse_nunet(d0_text())
    compiled = reduce_nunet(net).system
    assert print_object_system(compiled, encode_config(net, init), encode_config(net, target)) == COMPILED_D0
    assert print_object_system(*parse_object_system(courier_text())) == (
        courier_text().split("\n", 1)[1].replace("inbox { draft:2 } inbox { }", "inbox { } inbox { draft:2 }"))
    # a system net without places keeps its bare 'places' line; an object net without places has none
    assert print_object_system(parse_object_system("eos\nsystem s\nend\n")[0]) == "eos\nsystem s\n  places \nend\n"
    assert print_object_system(parse_object_system("eos\nobjectnet a\nend\nsystem s\nend\n")[0]) == (
        "eos\nobjectnet a\nend\nsystem s\n  places \nend\n")


def test_dot_object_system_frozen():
    system, init, _ = parse_object_system(courier_text())
    assert dot_object_system(system, init) == COURIER_DOT


# -- layout ----------------------------------------------------------------------------

def _relayout(rng: random.Random, text: str) -> str:
    """text with blank and comment lines, other indentation, trailing comments and 'd : u' clause spacing."""
    out = []
    for line in text.splitlines():
        for _ in range(rng.randint(0, 1)):
            out.append(rng.choice(["", "   ", "# a comment line", "\t# indented comment"]))
        line = re.sub(r"(with|;) ([^\s:]+): ", r"\1 \2 : ", line)  # object net ids hold no ':'
        line = rng.choice(["", " ", "\t", "      "]) + line.strip() + rng.choice(["", "  ", " # trailing"])
        out.append(line)
    return "\n".join(out) + rng.choice(["", "\n", "\n\n# end\n"])


def _split_lines(rng: random.Random, state: str) -> str:
    """An inline state with its tokens split over lines at random gaps."""
    return re.sub(" ", lambda _: rng.choice([" ", "\n", "\n  ", "  \n\n"]), state)


def test_layout_round_trips():
    rng = random.Random(29)
    for _ in range(40):
        net = random_nupn(rng)
        init, target = random_config(rng, net), random_config(rng, net)
        text = print_nunet(net, init, target)
        messy = _relayout(rng, text)
        assert parse_nunet(messy) == (net, init, target), messy
        assert print_nunet(*parse_nunet(messy)) == text
        assert parse_config(_split_lines(rng, format_config(init)), net) == init

        red = reduce_nunet(net)
        enc_init, enc_target = encode_config(net, init), encode_config(net, target)
        systems = [(red.system, enc_init, enc_target)]
        system = random_object_system(rng)
        systems.append((system, random_marking(rng, system), random_marking(rng, system)))
        for system, init, target in systems:
            text = print_object_system(system, init, target)
            messy = _relayout(rng, text)
            assert parse_object_system(messy) == (system, init, target), messy
            assert print_object_system(*parse_object_system(messy)) == text
            assert parse_marking(_split_lines(rng, format_marking(init)), system) == init
    assert _relayout(random.Random(0), "  event e = t with d: u v ; f: w").count(" : ") == 2


# -- the provenance table -----------------------------------------------------------

def test_name_table_tsv_frozen():
    net, _, _ = parse_nunet(d0_text())
    expected = (
        "sim\tsim\t\t\n"
        "selectTran\tselectTran\t\t\n"
        "t1::select::nu\tselect-place\tt1\tnu\n"
        "t1::selected::x\tselected-place\tt1\tx\n"
        "t1::run::x\trun-place\tt1\tx\n"
        "t1::run::nu\trun-place\tt1\tnu\n"
        "t1::report\treport-place\tt1\t\n"
        "t1::pick::x\tpick\tt1\tx\n"
        "t1::pick::nu\tpick\tt1\tnu\n"
        "t1::fire::x\tfire\tt1\tx\n"
        "t1::fire::nu\tfire\tt1\tnu\n"
        "t1::done\tdone\tt1\t\n"
        "t1::obj::x\tobject-transition\tt1\tx\n"
        "t1::obj::nu\tobject-transition\tt1\tnu\n"
    )
    assert name_table_tsv(reduce_nunet(net)) == expected


# -- format detection ----------------------------------------------------------------

def test_sniff_format():
    assert sniff_format(d0_text()) == "nupn"
    assert sniff_format(courier_text()) == "eos"
    assert sniff_format("\n# comment\n\n  eos\nsystem s\nend\n") == "eos"
    with pytest.raises(ParseError):
        sniff_format("garbage\n")
    with pytest.raises(ParseError):
        sniff_format("# only comments\n")


# -- DOT export ---------------------------------------------------------------------

def _brace_balanced(text: str) -> bool:
    depth = 0
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


def test_dot_nunet():
    net, _, _ = parse_nunet(d0_text())
    dot = dot_nunet(net)
    assert dot.startswith("digraph")
    assert _brace_balanced(dot)
    assert '"p" [shape=circle]' in dot
    assert '"t1" [shape=box]' in dot
    assert '"p" -> "t1" [label="x"]' in dot
    assert '"t1" -> "p" [label="nu"]' in dot


def test_dot_labels_an_event_that_fires_nothing_by_its_own_name():
    system, _, _ = parse_object_system("eos\nsystem s\n places p:black\n trans t\n  in p\n  out p\n end\nend\n"
                                       "events\n event go = t\n event t = t\nend\n")
    assert '  "t" [shape=box, label="t\ngo"];\n' in dot_object_system(system)


def test_explicit_black_net_is_neither_printed_nor_drawn():
    implicit, init, target = parse_object_system(courier_text())
    explicit, _, _ = parse_object_system(courier_text().replace("objectnet doc", "objectnet black\nend\nobjectnet doc"))
    assert "black" in explicit.object_nets and explicit == implicit
    assert print_object_system(explicit, init, target) == print_object_system(implicit, init, target)
    assert dot_object_system(explicit, init) == dot_object_system(implicit, init) == COURIER_DOT


def test_dot_object_system():
    net, init, _ = parse_nunet(d0_text())
    red = reduce_nunet(net)
    dot = dot_object_system(red.system, encode_config(net, init))
    assert _brace_balanced(dot)
    assert 'subgraph "cluster_data"' in dot
    assert "shape=triangle" in dot       # black-typed places
    assert "idle::" not in dot           # synthesized transitions stay hidden
    assert "cluster_token0" in dot       # marking tokens appear
