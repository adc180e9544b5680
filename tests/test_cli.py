"""The command line interface: subcommands, exit codes, determinism."""

import os
import pathlib
import subprocess
import sys
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nestnets
from nestnets import (InvalidNetError, ParseError, SearchLimitReached, cli, coverability, cover_object_system,
                      explore_object_system, nunet, objectsystem, parse_marking, parse_nunet, parse_object_system, print_nunet,
                      print_object_system)
from nestnets.cli import main
from nestnets.coverability import DEFAULT_MAX_STATES
from nestnets.objectsystem import covers as os_covers
from test_coverability import SPLIT_EOS
from test_textio import COURIER_DOT

DATA = pathlib.Path(__file__).parent / "data"
D0 = str(DATA / "d0.nupn")
GAP = str(DATA / "gap.nupn")
COURIER = str(DATA / "courier.eos")


def run(capsys, *argv):
    """(exit code, stdout, stderr) of one main call, usage errors included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- validate -----------------------------------------------------------------

def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", D0)
    assert code == 0
    assert out == "ok: nupn d0 (2 places, 1 transitions)\n"


def test_validate_eos(capsys):
    code, out, _ = run(capsys, "validate", COURIER)
    assert code == 0
    assert out == "ok: eos desk (3 places, 2 events, 1 object nets)\n"


def test_validate_reads_a_byte_order_mark(capsys, tmp_path):
    f = tmp_path / "bom.nupn"
    f.write_text(pathlib.Path(D0).read_text(), encoding="utf-8-sig")
    assert f.read_bytes().startswith(b"\xef\xbb\xbf")
    assert run(capsys, "validate", str(f)) == (0, "ok: nupn d0 (2 places, 1 transitions)\n", "")


def test_validate_does_not_count_an_explicit_black_net(capsys, tmp_path):
    f = tmp_path / "black.eos"
    f.write_text(pathlib.Path(COURIER).read_text().replace("objectnet doc", "objectnet black\nend\nobjectnet doc"))
    assert run(capsys, "validate", str(f)) == (0, "ok: eos desk (3 places, 2 events, 1 object nets)\n", "")


def test_validate_violations(capsys, tmp_path):
    f = tmp_path / "bad.nupn"
    f.write_text("nupn bad\nplaces p\nvars x\ntrans t\n out p : x\nend\n")
    code, out, _ = run(capsys, "validate", str(f))
    assert code == 1
    assert out == "violation: transition t: output variable x not consumed on any input arc\n"


def test_validate_parse_error(capsys, tmp_path):
    f = tmp_path / "broken.nupn"
    f.write_text("nupn n\nplaces p\nwat\n")
    code, out, err = run(capsys, "validate", str(f))
    assert code == 1
    assert out == ""
    assert err == "error: line 3: unexpected keyword 'wat'\n"


def test_validate_rejects_a_system_line_with_two_names(capsys, tmp_path):
    f = tmp_path / "two.eos"
    f.write_text("eos\nobjectnet doc\n places a\nend\nsystem a b\n places p:doc\nend\n")
    assert run(capsys, "validate", str(f)) == (1, "", "error: line 5: expected 'system [name]'\n")


@pytest.mark.parametrize("text, code, out, err", [
    # init is fitted to every place of the file, not to those declared before it
    ("nupn n\nplaces p\ninit [1]\nplaces q\n", 1, "", "error: line 3: vector [1] has arity 1, net has 2 places\n"),
    ("nupn n\ninit [1]\nplaces p\n", 0, "ok: nupn n (1 places, 0 transitions)\n", ""),
])
def test_validate_fits_init_to_the_whole_net(capsys, tmp_path, text, code, out, err):
    f = tmp_path / "late.nupn"
    f.write_text(text)
    assert run(capsys, "validate", str(f)) == (code, out, err)


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "no/such/file.nupn")
    assert code == 1
    assert err.startswith("error:")


# -- simulate -----------------------------------------------------------------

def test_simulate_deterministic(capsys):
    code, first, _ = run(capsys, "simulate", D0, "--steps", "4", "--seed", "9")
    assert code == 0
    code, second, _ = run(capsys, "simulate", D0, "--steps", "4", "--seed", "9")
    assert code == 0
    assert first == second
    assert first.startswith("0: [1 0]\n")
    assert len(first.strip().splitlines()) == 5
    assert first == (
        "0: [1 0]\n"
        "1: t1 x=[1 0] -> [0 1] [1 0]\n"
        "2: t1 x=[1 0] -> [0 1] [0 1] [1 0]\n"
        "3: t1 x=[1 0] -> [0 1] [0 1] [0 1] [1 0]\n"
        "4: t1 x=[1 0] -> [0 1] [0 1] [0 1] [0 1] [1 0]\n"
    )


def test_simulate_deadlock(capsys, tmp_path):
    f = tmp_path / "stuck.nupn"
    f.write_text("nupn n\nplaces p\nvars x\ntrans t\n in p : x\n out p : x\nend\ninit\n")
    code, out, _ = run(capsys, "simulate", str(f), "--steps", "3")
    assert code == 0
    assert "deadlock after 0 steps" in out


def test_simulate_eos(capsys):
    code, out, _ = run(capsys, "simulate", COURIER, "--steps", "2", "--seed", "1")
    assert code == 0
    assert out.startswith("0: inbox { } inbox { draft:2 }\n")
    assert out == (
        "0: inbox { } inbox { draft:2 }\n"
        "1: process -> inbox { } outbox { draft:1 final:1 } spool { }\n"
        "deadlock after 1 steps\n"
    )


# -- reduce -------------------------------------------------------------------

def test_reduce_files_round_trip(capsys, tmp_path):
    eos = tmp_path / "d0.eos"
    table = tmp_path / "d0.tsv"
    code, out, _ = run(capsys, "reduce", D0, "-o", str(eos), "--name-table", str(table))
    assert code == 0
    assert out == ""
    code, out, _ = run(capsys, "validate", str(eos))
    assert code == 0
    assert out == "ok: eos compiled (7 places, 5 events, 1 object nets)\n"
    rows = table.read_text().splitlines()
    assert rows[0] == "sim\tsim\t\t"
    assert len(rows) == 14


def test_reduce_to_stdout(capsys):
    code, out, _ = run(capsys, "reduce", D0)
    assert code == 0
    assert out.startswith("eos\n")
    assert "init selectTran { } sim { p:1 }" in out


# Two gadgets, tf (the fresh variable only) and tb (two standard variables and
# the fresh one): the name table lists each gadget's places, then its
# transitions, and the object transitions last.
GAP_EOS = (
    "eos\n"
    "objectnet data\n"
    "  places p q\n"
    "  trans tf::obj::nu\n"
    "    out p\n"
    "  end\n"
    "  trans tb::obj::x\n"
    "    in p\n"
    "    out p\n"
    "  end\n"
    "  trans tb::obj::y\n"
    "    in p\n"
    "    out p\n"
    "  end\n"
    "  trans tb::obj::nu\n"
    "    out q\n"
    "  end\n"
    "end\n"
    "system compiled\n"
    "  places sim:data selectTran:black tf::run::nu:black tf::report:black tb::select::y:black tb::select::nu:black tb::selected::x:data tb::selected::y:data tb::run::x:black tb::run::y:black tb::run::nu:black tb::report:black\n"
    "  trans tf::pick::nu\n"
    "    in selectTran\n"
    "    out tf::run::nu\n"
    "  end\n"
    "  trans tf::fire::nu\n"
    "    in tf::run::nu\n"
    "    out sim\n"
    "    out tf::report\n"
    "  end\n"
    "  trans tf::done\n"
    "    in tf::report\n"
    "    out selectTran\n"
    "  end\n"
    "  trans tb::pick::x\n"
    "    in selectTran\n"
    "    in sim\n"
    "    out tb::select::y\n"
    "    out tb::selected::x\n"
    "  end\n"
    "  trans tb::pick::y\n"
    "    in sim\n"
    "    in tb::select::y\n"
    "    out tb::select::nu\n"
    "    out tb::selected::y\n"
    "  end\n"
    "  trans tb::pick::nu\n"
    "    in tb::select::nu\n"
    "    out tb::run::nu\n"
    "    out tb::run::x\n"
    "    out tb::run::y\n"
    "  end\n"
    "  trans tb::fire::x\n"
    "    in tb::run::x\n"
    "    in tb::selected::x\n"
    "    out sim\n"
    "    out tb::report\n"
    "  end\n"
    "  trans tb::fire::y\n"
    "    in tb::run::y\n"
    "    in tb::selected::y\n"
    "    out sim\n"
    "    out tb::report\n"
    "  end\n"
    "  trans tb::fire::nu\n"
    "    in tb::run::nu\n"
    "    out sim\n"
    "    out tb::report\n"
    "  end\n"
    "  trans tb::done\n"
    "    in tb::report : 3\n"
    "    out selectTran\n"
    "  end\n"
    "end\n"
    "events\n"
    "  event tf::pick::nu = tf::pick::nu\n"
    "  event tf::fire::nu = tf::fire::nu with data: tf::obj::nu\n"
    "  event tf::done = tf::done\n"
    "  event tb::pick::x = tb::pick::x\n"
    "  event tb::pick::y = tb::pick::y\n"
    "  event tb::pick::nu = tb::pick::nu\n"
    "  event tb::fire::x = tb::fire::x with data: tb::obj::x\n"
    "  event tb::fire::y = tb::fire::y with data: tb::obj::y\n"
    "  event tb::fire::nu = tb::fire::nu with data: tb::obj::nu\n"
    "  event tb::done = tb::done\n"
    "end\n"
    "init selectTran { }\n"
    "target selectTran { } sim { p:1 } sim { p:1 }\n"
)
GAP_TSV = (
    "sim\tsim\t\t\n"
    "selectTran\tselectTran\t\t\n"
    "tf::run::nu\trun-place\ttf\tnu\n"
    "tf::report\treport-place\ttf\t\n"
    "tf::pick::nu\tpick\ttf\tnu\n"
    "tf::fire::nu\tfire\ttf\tnu\n"
    "tf::done\tdone\ttf\t\n"
    "tb::select::y\tselect-place\ttb\ty\n"
    "tb::select::nu\tselect-place\ttb\tnu\n"
    "tb::selected::x\tselected-place\ttb\tx\n"
    "tb::selected::y\tselected-place\ttb\ty\n"
    "tb::run::x\trun-place\ttb\tx\n"
    "tb::run::y\trun-place\ttb\ty\n"
    "tb::run::nu\trun-place\ttb\tnu\n"
    "tb::report\treport-place\ttb\t\n"
    "tb::pick::x\tpick\ttb\tx\n"
    "tb::pick::y\tpick\ttb\ty\n"
    "tb::pick::nu\tpick\ttb\tnu\n"
    "tb::fire::x\tfire\ttb\tx\n"
    "tb::fire::y\tfire\ttb\ty\n"
    "tb::fire::nu\tfire\ttb\tnu\n"
    "tb::done\tdone\ttb\t\n"
    "tf::obj::nu\tobject-transition\ttf\tnu\n"
    "tb::obj::x\tobject-transition\ttb\tx\n"
    "tb::obj::y\tobject-transition\ttb\ty\n"
    "tb::obj::nu\tobject-transition\ttb\tnu\n"
)


def test_reduce_gap_byte_for_byte(capsys, tmp_path):
    table = tmp_path / "gap.tsv"
    assert run(capsys, "reduce", GAP, "--name-table", str(table)) == (0, GAP_EOS, "")
    assert table.read_text() == GAP_TSV


# -- cover --------------------------------------------------------------------

def test_cover_hit(capsys):
    code, out, _ = run(capsys, "cover", D0, "--target", "[0 1]", "--depth", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "covered at depth 1"
    assert lines[1] == "  1. t1 x=[1 0]"
    assert lines[2] == "state: [0 1] [1 0]"


def test_cover_miss(capsys):
    code, out, _ = run(capsys, "cover", D0, "--target", "[2 2]", "--depth", "2")
    assert code == 2
    assert out == "not covered within depth 2\n"


def test_cover_limit(capsys):
    # Each step of d0 moves one name to [0 1] and mints one more, so the first
    # state with five names on [0 1] is the sixth found: past a cap of 5.  The
    # step bound cannot drop a state here, as one name reaches [0 1] in a step.
    five = "[0 1] [0 1] [0 1] [0 1] [0 1]"
    code, _, err = run(capsys, "cover", D0, "--target", five, "--depth", "40", "--max-states", "5")
    assert code == 3
    assert "max_states" in err
    code, out, _ = run(capsys, "cover", D0, "--target", five, "--depth", "40", "--max-states", "6")
    assert code == 0 and out.startswith("covered at depth 5\n")


def test_cover_out_of_every_names_reach_searches_nothing(capsys, monkeypatch):
    # No name of d0 ever gains a token on p, so no name reaches [3 3]: the step
    # bound answers at the start, within the cap of 5, and draws no successor.
    steps = []
    real = nunet.successors
    monkeypatch.setattr(coverability, "nu_successors", lambda *a: steps.append(a) or real(*a))
    assert run(capsys, "cover", D0, "--target", "[3 3]", "--depth", "40", "--max-states", "5") == (
        2, "not covered within depth 40\n", "")
    assert steps == []


def test_cover_within_the_cap_exits_zero(capsys):
    # The covering state is the second one found, within --max-states 2.
    assert run(capsys, "cover", D0, "--init", "[1 0] [2 0] [3 0]", "--target", "[0 1]", "--depth", "1",
               "--max-states", "2") == (0, "covered at depth 1\n  1. t1 x=[1 0]\nstate: [0 1] [1 0] [2 0] [3 0]\n", "")


def test_cover_target_from_file(capsys, tmp_path):
    f = tmp_path / "target.cfg"
    f.write_text("[0 1]\n")
    code, out, _ = run(capsys, "cover", D0, "--target", str(f), "--depth", "2")
    assert code == 0
    assert out.startswith("covered at depth 1")


@pytest.mark.parametrize("net, state, err", [
    (D0, "[0 1]\n[1 2 3]\n", "error: line 2: vector [1, 2, 3] has arity 3, net has 2 places\n"),
    (D0, "# target\n[0 1]\n\n[x]\n", "error: line 4: expected an integer, got 'x'\n"),
    (COURIER, "outbox { final:1 }\noutbox { zz:1 }\n",
     "error: line 2: token on 'outbox' (type doc) has inner token on foreign place 'zz'\n"),
])
def test_state_file_errors_carry_their_line(capsys, tmp_path, net, state, err):
    f = tmp_path / "target.txt"
    f.write_text(state)
    assert run(capsys, "cover", net, "--target", str(f), "--depth", "1") == (1, "", err)


def test_eos_fits_every_init_line(capsys, tmp_path):
    f = tmp_path / "twice.eos"
    f.write_text("eos\nsystem s\n places p:black\nend\ninit p { x:1 }\ninit p { }\n")
    assert run(capsys, "validate", str(f)) == (
        1, "", "error: line 5: token on 'p' (type black) has inner token on foreign place 'x'\n")


@pytest.mark.parametrize("text, target", [
    ("nupn n\nplaces p\n", "[1]"),
    ("eos\nsystem s\n places p:black\nend\n", "p { }"),
])
def test_cover_needs_an_initial_state(capsys, tmp_path, text, target):
    f = tmp_path / "no_init.txt"
    f.write_text(text)
    assert run(capsys, "cover", str(f), "--target", target, "--depth", "1") == (
        1, "", "error: no initial state: the file has no init line and --init was not given\n")
    assert run(capsys, "cover", str(f), "--target", target, "--depth", "1", "--init", target)[0] == 0


def test_cover_init_override(capsys):
    code, out, _ = run(capsys, "cover", D0, "--target", "[0 1]", "--depth", "0",
                       "--init", "[0 1]")
    assert code == 0
    assert out.startswith("covered at depth 0")


def test_cover_eos(capsys):
    code, out, _ = run(capsys, "cover", COURIER, "--target", "outbox { final:1 }",
                       "--depth", "1")
    assert code == 0
    assert "covered at depth 1" in out
    assert "process" in out
    assert out == (
        "covered at depth 1\n"
        "  1. process  take inbox { draft:2 }  put outbox { draft:1 final:1 } spool { }\n"
        "state: inbox { } outbox { draft:1 final:1 } spool { }\n"
    )


def test_cover_compiled_d0_witnesses(capsys, tmp_path):
    # Both inits list their sim tokens out of canonical order, and the first
    # pick chooses among them.  In the first only sim { p:1 q:1 } leads to the
    # target; in the second both tokens do, at the same depth, so the witness
    # printed is the one whose pick comes first in canonical mode order.
    eos = tmp_path / "d0.eos"
    assert run(capsys, "reduce", D0, "-o", str(eos)) == (0, "", "")
    assert run(capsys, "cover", str(eos), "--init", "selectTran { } sim { p:2 } sim { p:1 q:1 } sim { q:3 }",
               "--target", "selectTran { } sim { q:2 } sim { q:2 }", "--depth", "6") == (0, (
        "covered at depth 5\n"
        "  1. t1::pick::x  take selectTran { } sim { p:1 q:1 }  put t1::select::nu { } t1::selected::x { p:1 q:1 }\n"
        "  2. t1::pick::nu  take t1::select::nu { }  put t1::run::nu { } t1::run::x { }\n"
        "  3. t1::fire::x  take t1::run::x { } t1::selected::x { p:1 q:1 }  put sim { q:2 } t1::report { }\n"
        "  4. t1::fire::nu  take t1::run::nu { }  put sim { p:1 } t1::report { }\n"
        "  5. t1::done  take t1::report { } t1::report { }  put selectTran { }\n"
        "state: selectTran { } sim { p:1 } sim { p:2 } sim { q:2 } sim { q:3 }\n"), "")
    code, out, err = run(capsys, "cover", str(eos), "--init", "selectTran { } sim { p:2 q:1 } sim { p:1 q:1 }",
                         "--target", "selectTran { } sim { q:2 }", "--depth", "6")
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == (
        "  1. t1::pick::x  take selectTran { } sim { p:1 q:1 }  put t1::select::nu { } t1::selected::x { p:1 q:1 }")
    assert out.splitlines()[-1] == "state: selectTran { } sim { p:1 } sim { p:2 q:1 } sim { q:2 }"


def test_cover_eos_many_tokens_on_one_place(capsys, tmp_path):
    # 1100 distinct tokens on one input place, more than the default recursion
    # limit.  The event also needs a token on the empty place ready, so the
    # search skips it before selecting tokens and builds no successor (without
    # the gate, building 1100 successors of 1100 tokens each takes under 1 s).
    # test_eos.py selects that many tokens directly.
    f = tmp_path / "many.eos"
    init = " ".join(f"pool {{ a:{k} }}" for k in range(1, 1101))
    f.write_text("eos\nobjectnet doc\n places a\nend\nsystem s\n places pool:doc ready:black done:doc\n"
                 "trans move\n in pool\n in ready\n out done\n end\nend\nevents\n event go = move\nend\n"
                 f"init {init}\n")
    code, out, err = run(capsys, "cover", str(f), "--target", "done { a:1100 }", "--depth", "1")
    assert (code, out, err) == (2, "not covered within depth 0 (state space exhausted)\n", "")


# 300 distinct tokens on the one input place, so one layer holds 300
# successors of 300 tokens each.
WIDE_POOL = [f"pool {{ a:{k} }}" for k in range(1, 301)]
WIDE_EOS = ("eos\nobjectnet doc\n places a\nend\nsystem s\n places pool:doc done:doc\n"
            "trans move\n in pool\n out done\n end\nend\nevents\n event go = move\nend\n"
            f"init {' '.join(WIDE_POOL)}\n")


def test_cover_eos_wide_marking_ungated(capsys, tmp_path):
    # every successor is built, hashed and checked against the target; only
    # the printed state is put in canonical order
    f = tmp_path / "wide.eos"
    f.write_text(WIDE_EOS)
    code, out, err = run(capsys, "cover", str(f), "--target", "done { a:300 }", "--depth", "1")
    assert (code, err) == (0, "")
    assert out == ("covered at depth 1\n"
                   "  1. go  take pool { a:300 }  put done { a:300 }\n"
                   f"state: done {{ a:300 }} {' '.join(WIDE_POOL[:-1])}\n")


def test_wide_marking_successors_are_never_sorted(monkeypatch):
    # A search computes no canonical order for a successor marking: not to
    # order a layer, not to check it against a target.
    system, init, _ = parse_object_system(WIDE_EOS)
    layer = explore_object_system(system, init, depth=1).states[1:]
    assert len(layer) == 300 and all(len(marking) == 300 for marking in layer)
    checked = []

    def recording_covers(marking, target):
        checked.append(marking)
        return os_covers(marking, target)

    monkeypatch.setattr(coverability, "os_covers", recording_covers)
    # One token holds a:300, and the target asks for two: each of the 300
    # successors has a token on done, so the step bound keeps and tests all.
    answer = cover_object_system(system, init, parse_marking("done { a:300 } pool { a:300 }", system), 1)
    assert not answer.covered and len(checked) == 301 and checked[0] == init
    assert all(m._items is None and m._key is None for m in layer + checked[1:])
    # No token ever holds a:301, so the step bound answers with no search.
    checked.clear()
    answer = cover_object_system(system, init, parse_marking("done { a:301 }", system), 1)
    assert not answer.covered and answer.depth == 1 and checked == [init]


# A names-style query: many equal names on three distinct vectors.  Its shortest
# witness is the first found, t0 before t2 in declaration order.
NAMES_NUPN = ("nupn nm\nplaces p0 p1 p2\nvars x y\nfresh nu\n"
              "trans t0\n in p0 : y\n in p1 : x\n out p1 : x\n out p2 : y y\nend\n"
              "trans t1\n in p2 : x\n out p1 : nu\nend\n"
              "trans t2\n in p0 : y\n out p2 : y\nend\n"
              "init [0 1 0] [1 1 3] [2 1 2]\n")


def test_search_outputs_ignore_the_hash_seed(tmp_path):
    package_root = str(pathlib.Path(nestnets.__file__).resolve().parent.parent)
    wide, names = tmp_path / "wide.eos", tmp_path / "names.nupn"
    wide.write_text(WIDE_EOS)
    names.write_text(NAMES_NUPN)
    queries = {
        (str(wide), "done { a:300 }", "1"): "covered at depth 1\n",
        (str(names), "[0 1 0] [0 1 0] [0 1 4] [2 1 0]", "3"): (
            "covered at depth 2\n"
            "  1. t0 x=[0 1 0] y=[1 1 3]\n"
            "  2. t1 x=[0 1 5]\n"
            "state: [0 1 0] [0 1 0] [0 1 4] [2 1 2]\n"),
    }
    for (path, target, depth), head in queries.items():
        outs = [
            subprocess.run(
                [sys.executable, "-m", "nestnets.cli", "cover", path, "--target", target, "--depth", depth],
                capture_output=True, env={"PYTHONHASHSEED": seed, "PATH": "", "PYTHONPATH": package_root},
            )
            for seed in ("0", "1")
        ]
        assert [p.returncode for p in outs] == [0, 0] and outs[0].stderr == outs[1].stderr == b""
        assert outs[0].stdout == outs[1].stdout
        assert outs[0].stdout.decode().startswith(head)


def test_cover_exact_rejected_for_eos(capsys):
    code, _, err = run(capsys, "cover", COURIER, "--target", "outbox { }",
                       "--depth", "1", "--exact")
    assert code == 1
    assert "--exact only applies to name nets" in err


def test_cover_eos_counts_only_kept_states_against_the_cap(capsys, tmp_path):
    # Without the step bound the search records its 41st state before the
    # covering one.  With it, the states that cannot cover in the steps they
    # have left are dropped uncounted, and the same witness is found.
    f = tmp_path / "split.eos"
    f.write_text(SPLIT_EOS)
    system, initial, _ = parse_object_system(SPLIT_EOS)
    target = parse_marking("i { b:1 c:1 } o1 { a:1 }", system)
    modes: dict = {}
    lams: dict = {}
    unpruned = partial(coverability._cover, lambda m: system.successors(m, modes, lams),
                       lambda m: os_covers(m, target), initial, 3)
    with pytest.raises(SearchLimitReached):
        unpruned(40)
    witness = ("covered at depth 3\n"
               "  1. split  take i { a:1 b:2 }  put o0 { a:1 } o1 { a:1 } o2 { b:1 }\n"
               "  2. rewrite  take o0 { a:1 }  put o0 { c:1 }\n"
               "  3. merge  take o0 { c:1 } o2 { b:1 }  put i { b:1 c:1 }\n"
               "state: i { b:1 c:1 } o1 { a:1 }\n")
    assert run(capsys, "cover", str(f), "--target", "i { b:1 c:1 } o1 { a:1 }", "--depth", "3",
               "--max-states", "40") == (0, witness, "")
    assert unpruned(100) == cover_object_system(system, initial, target, 3, 40)


def test_cover_eos_out_of_reach_at_the_start_searches_nothing(capsys, monkeypatch):
    # outbox { final:3 } needs three stamps, and one event stamps one draft.
    expanded = []
    real = objectsystem.ObjectSystem.successors
    monkeypatch.setattr(objectsystem.ObjectSystem, "successors", lambda *a: expanded.append(a) or real(*a))
    assert run(capsys, "cover", COURIER, "--target", "outbox { final:3 }", "--depth", "2") == (
        2, "not covered within depth 2\n", "")
    assert expanded == []


def test_cover_eos_that_drops_a_state_claims_no_exhausted_space(capsys):
    # Moving a token off inbox leaves one there, and no event puts one back,
    # so that state is dropped.  The space closes at depth 2, but a search
    # that dropped a state has not shown that the target is out of reach at
    # every depth, so it reports the depth it was given.
    system, initial, _ = parse_object_system(pathlib.Path(COURIER).read_text())
    space = explore_object_system(system, initial, 50)
    assert space.frontier_exhausted and space.depth_reached == 2
    assert run(capsys, "cover", COURIER, "--target", "inbox { final:1 } inbox { final:1 }", "--depth", "50") == (
        2, "not covered within depth 50\n", "")


def test_cover_exhausted_note(capsys, tmp_path):
    # The one name moves from p to q and stops.  A name reaches [0 1] in one
    # step, so the step bound keeps both states, and the search closes the
    # space without finding a second name for the target's second copy.
    f = tmp_path / "finite.nupn"
    f.write_text("nupn n\nplaces p q\nvars x\ntrans t\n in p : x\n out q : x\nend\ninit [1 0]\n")
    code, out, _ = run(capsys, "cover", str(f), "--target", "[0 1] [0 1]", "--depth", "50")
    assert code == 2
    assert out == "not covered within depth 1 (state space exhausted)\n"
    # Here the one name only loses its token, so no name reaches [2]: the step
    # bound answers with no search, which has not closed the space, so the
    # note is not printed.
    f.write_text("nupn n\nplaces p\nvars x\ntrans t\n in p : x\nend\ninit [1]\n")
    assert run(capsys, "cover", str(f), "--target", "[2]", "--depth", "50") == (2, "not covered within depth 50\n", "")


# -- cover-transfer -------------------------------------------------------------

def test_cover_transfer_agreement(capsys):
    code, out, _ = run(capsys, "cover-transfer", D0, "--target", "[0 1]", "--depth", "1")
    assert code == 0
    assert "agreement: yes" in out
    code, out, _ = run(capsys, "cover-transfer", D0, "--target", "[3 3]", "--depth", "1")
    assert code == 2
    assert "agreement: yes" in out


def test_cover_transfer_disagreement(capsys):
    code, out, _ = run(capsys, "cover-transfer", GAP, "--target", "[1 0] [1 0]",
                       "--depth", "1")
    assert code == 4
    assert "disagreement" in out


# -- check-lemma ------------------------------------------------------------------

def test_check_lemma_init(capsys):
    code, out, _ = run(capsys, "check-lemma", D0)
    assert code == 0
    assert out == "PASS config [1 0]: 1 successor(s), 2 run(s)\n"


def test_check_lemma_explicit_config(capsys):
    code, out, _ = run(capsys, "check-lemma", D0, "--config", "[2 0] [0 1]")
    assert code == 0
    assert out.startswith("PASS config [0 1] [2 0]:")


def test_check_lemma_random_deterministic(capsys):
    args = ("check-lemma", D0, "--random", "--trials", "6", "--seed", "3")
    code, first, _ = run(capsys, *args)
    assert code == 0
    _, second, _ = run(capsys, *args)
    assert first == second
    assert first.count("PASS") == 6


def test_check_lemma_walks_to_the_longest_run(capsys, tmp_path):
    # runs are walked up to the longest gadget run, 5 steps for d0
    assert run(capsys, "check-lemma", D0) == (
        0, "PASS config [1 0]: 1 successor(s), 2 run(s)\n", "")
    f = tmp_path / "still.nupn"
    f.write_text("nupn n\nplaces p\ninit [1]\n")  # no transition, so no gadget to wait for
    assert run(capsys, "check-lemma", str(f)) == (
        0, "PASS config [1]: 0 successor(s), 0 run(s)\n", "")


def test_check_lemma_requires_configuration(capsys, tmp_path):
    f = tmp_path / "noinit.nupn"
    f.write_text("nupn n\nplaces p\nvars x\ntrans t\n in p : x\n out p : x\nend\n")
    code, _, err = run(capsys, "check-lemma", str(f))
    assert code == 1
    assert "no configuration" in err


def test_check_lemma_reports_a_broken_compiler(capsys, monkeypatch):
    from test_coverability import _reduction_with_broken_fire

    monkeypatch.setattr(cli, "reduce_nunet", _reduction_with_broken_fire)
    assert run(capsys, "check-lemma", D0) == (4, (
        "FAIL config [1 0]: 1 successor(s), 0 run(s)\n"
        "  source successors:   [0 1] [1 0]\n"
        "  compiled endpoints:  (none)\n"
        "1/1 configurations failed\n"), "")


def test_check_lemma_config_and_random_exclude_each_other(capsys):
    code, out, err = run(capsys, "check-lemma", D0, "--config", "[1 0]", "--random")
    assert (code, out) == (1, "")
    assert err.endswith("nestnets check-lemma: error: argument --random: not allowed with argument --config\n")


@pytest.mark.parametrize("extra", [["--trials", "5"], ["--seed", "3"], ["--trials", "0", "--seed", "0"]])
@pytest.mark.parametrize("which", [[], ["--config", "[1 0]"]])
def test_check_lemma_trials_and_seed_need_random(capsys, which, extra):
    assert run(capsys, "check-lemma", D0, *which, *extra) == (
        1, "", "error: --trials and --seed apply only with --random\n")


# -- dot ---------------------------------------------------------------------------

def test_dot_outputs(capsys, tmp_path):
    code, out, _ = run(capsys, "dot", D0)
    assert code == 0
    assert out.startswith("digraph nunet {")
    f = tmp_path / "out.dot"
    code, out, _ = run(capsys, "dot", COURIER, "-o", str(f))
    assert code == 0
    assert out == ""
    assert f.read_text() == COURIER_DOT


# -- argument handling ---------------------------------------------------------------

def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["cover", D0])  # missing required --target/--depth
    assert err.value.code == 1


@pytest.mark.parametrize("argv, option, low, value", [
    (["simulate", D0, "--steps", "-1"], "--steps", 0, -1),
    (["cover", D0, "--target", "[0 1]", "--depth", "-3"], "--depth", 0, -3),
    (["cover", D0, "--target", "[0 1]", "--depth", "1", "--max-states", "0"], "--max-states", 1, 0),
    (["cover", D0, "--target", "[0 1]", "--depth", "1", "--max-states", "-5"], "--max-states", 1, -5),
    (["cover-transfer", D0, "--target", "[0 1]", "--depth", "-2"], "--depth", 0, -2),
    (["cover-transfer", D0, "--target", "[0 1]", "--depth", "1", "--max-states", "0"], "--max-states", 1, 0),
    (["check-lemma", D0, "--random", "--trials", "-2"], "--trials", 0, -2),
])
def test_out_of_range_counts_are_usage_errors(capsys, argv, option, low, value):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument {option}: must be at least {low}, got {value}\n")


def test_count_options_accept_their_lowest_value(capsys):
    assert run(capsys, "simulate", D0, "--steps", "0") == (0, "0: [1 0]\n", "")
    assert run(capsys, "cover", D0, "--target", "[1 0]", "--depth", "0", "--max-states", "1") == (
        0, "covered at depth 0\nstate: [1 0]\n", "")
    assert run(capsys, "check-lemma", D0, "--random", "--trials", "0") == (0, "", "")


def test_non_integer_count_keeps_argparse_message(capsys):
    with pytest.raises(SystemExit) as err:
        main(["cover", D0, "--target", "[0 1]", "--depth", "x"])
    assert err.value.code == 1
    assert capsys.readouterr().err.endswith("error: argument --depth: invalid int value: 'x'\n")


def test_console_entry_point():
    """The exit code, stdout and stderr of main reach the shell unchanged."""
    # The child imports the same nestnets copy as this process, installed or not.
    package_root = str(pathlib.Path(nestnets.__file__).resolve().parent.parent)
    for argv, expected in [
        (["validate", D0], (0, "ok: nupn d0 (2 places, 1 transitions)\n", "")),
        (["cover", D0, "--target", "[1]", "--depth", "1"],
         (1, "", "error: line 1: vector [1] has arity 1, net has 2 places\n")),
        (["cover", COURIER, "--target", "outbox { final:1 }", "--init", "inbox { }", "--depth", "3"],
         (2, "not covered within depth 0 (state space exhausted)\n", "")),
    ]:
        proc = subprocess.run(
            [sys.executable, "-m", "nestnets.cli", *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": package_root},
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == expected


def test_cli_import_stays_light():
    """Importing the CLI loads none of dataclasses, inspect or copy. Under -S, with
    site-packages off the path, it also shows that the CLI needs nothing outside the stdlib."""
    package_root = str(pathlib.Path(nestnets.__file__).resolve().parent.parent)
    script = "import sys, nestnets.cli; print(sorted({'dataclasses', 'inspect', 'copy'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": package_root},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


# -- one parser per process ------------------------------------------------------

def test_parser_built_on_first_call_then_shared():
    package_root = str(pathlib.Path(nestnets.__file__).resolve().parent.parent)
    script = (
        "import contextlib, io, sys\n"
        "import nestnets.cli as cli\n"
        "print(cli._build_parser.cache_info().currsize)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(['validate', {D0!r}]) for _ in range(6)]\n"
        "info = cli._build_parser.cache_info()\n"
        "print(codes, info.misses, info.hits, info.currsize)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": package_root})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n[0, 0, 0, 0, 0, 0] 1 5 1\n"


@pytest.mark.parametrize("argv", [
    ["cover", D0, "--target", "[0 1]", "--depth", "2"],
    ["check-lemma", GAP, "--random", "--trials", "3", "--seed", "4"],
    ["cover", D0, "--target", "[0 1]", "--depth", "x"],
    ["frobnicate"],
    ["simulate", "--help"],
])
def test_same_argv_twice_same_outcome(capsys, argv):
    assert run(capsys, *argv) == run(capsys, *argv)


def test_defaults_do_not_carry_over(capsys, monkeypatch):
    seen = []

    def spy(net, initial, goal, depth, max_states, exact=False):
        seen.append(max_states)
        return cover_nunet(net, initial, goal, depth, max_states, exact=exact)

    cover_nunet = cli.cover_nunet
    monkeypatch.setattr(cli, "cover_nunet", spy)
    query = ["cover", D0, "--target", "[0 1]", "--depth", "2"]
    assert run(capsys, *query, "--max-states", "7")[0] == 0
    assert run(capsys, *query)[0] == 0
    assert seen == [7, DEFAULT_MAX_STATES]


def test_usage_error_after_good_call_reaches_its_stderr(capsys):
    assert run(capsys, "validate", D0)[0] == 0
    code, out, err = run(capsys, "cover", D0, "--depth", "1")
    assert (code, out) == (1, "")
    assert err.startswith("usage: nestnets cover [-h] --target TARGET")
    assert err.endswith("nestnets cover: error: the following arguments are required: --target\n")


def test_help_after_good_call_reaches_its_stdout(capsys):
    assert run(capsys, "validate", D0)[0] == 0
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: nestnets [-h]")
    assert "check-lemma" in out


# -- fuzz ------------------------------------------------------------------------

# Each data file with a target that parses against the unmutated net.
FUZZ_FILES = {D0: "[0 1]", GAP: "[1 0] [1 0]", COURIER: "outbox { final:1 }"}
FUZZ_PIECES = [" ", "\n", "\t", "{", "}", "[", "]", ":", "::", "=", "#", ";", "-", "0", "1", "9",
               "x", "p", "nu", "draft", "in ", "out ", "trans t\n", "end\n", "places ", "init ",
               "target ", "event ", "with ", "idle", "é", "\x00"]
mutation = st.tuples(st.sampled_from(["delete", "insert", "copy"]), st.integers(0, 10**6),
                     st.integers(1, 12), st.sampled_from(FUZZ_PIECES))


def mutate(text, mutations):
    for kind, at, width, piece in mutations:
        at %= len(text) + 1
        if kind == "delete":
            text = text[:at] + text[at + width:]
        elif kind == "insert":
            text = text[:at] + piece + text[at:]
        else:
            text = text[:at] + text[at:at + width] + text[at:]
    return text


@settings(max_examples=400, deadline=None, report_multiple_bugs=False,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(source=st.sampled_from(sorted(FUZZ_FILES)), mutations=st.lists(mutation, min_size=1, max_size=4))
def test_cli_fuzz_exits_with_a_documented_code(capsys, tmp_path, source, mutations):
    path = tmp_path / pathlib.Path(source).name
    path.write_text(mutate(pathlib.Path(source).read_text(encoding="utf-8"), mutations), encoding="utf-8")
    f = str(path)
    for argv in (["validate", f], ["cover", f, "--target", FUZZ_FILES[source], "--depth", "3",
                 "--max-states", "200"], ["check-lemma", f], ["simulate", f], ["dot", f], ["reduce", f]):
        code = main(argv)
        capsys.readouterr()
        assert 0 <= code <= 4, argv


PRINTERS = {".nupn": (parse_nunet, print_nunet), ".eos": (parse_object_system, print_object_system)}


@settings(max_examples=400, deadline=None, report_multiple_bugs=False)
@given(source=st.sampled_from(sorted(FUZZ_FILES)), mutations=st.lists(mutation, min_size=1, max_size=4))
def test_fuzz_print_then_parse_is_idempotent(source, mutations):
    parse, print_ = PRINTERS[pathlib.Path(source).suffix]
    try:
        parsed = parse(mutate(pathlib.Path(source).read_text(encoding="utf-8"), mutations))
    except (ParseError, InvalidNetError):
        return
    printed = print_(*parsed)
    assert parse(printed) == parsed  # net, init and target
    assert print_(*parse(printed)) == printed
