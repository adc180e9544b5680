"""Object systems: nets whose tokens carry markings of other nets.

A system net moves structured tokens around; each system place is typed by
an object net, and a token on that place is the pair (place, marking of
the object net).  Places typed by the empty net carry plain black tokens,
i.e. their inner marking is always empty.

Steps are events: a system transition paired with, per object net, a
multiset of that net's transitions to fire synchronously on the moved
tokens.  An event fires in a mode (lam, rho) where lam is the multiset of
tokens consumed and rho the multiset produced.  The mode is legal when

  1. lam sits exactly on the transition's input places,
  2. rho sits exactly on its output places,
  3. per object net, the consumed tokens jointly contain enough inner
     tokens for the synchronized transitions, and
  4. per object net, rho redistributes exactly the consumed inner tokens
     after the synchronized transitions have fired.

The redistribution is aggregate: inner tokens of equally typed inputs may
be split and merged freely across equally typed outputs.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .matching import has_perfect_left_matching
from .multisets import EMPTY, Multiset
from .petri import BLACK, BLACK_ID, NotEnabledError, PetriNet, _claim_ids, _IdError, _unique_ids

IDLE_PREFIX = "idle::"


def idle_id(place: str) -> str:
    return IDLE_PREFIX + place


def inner_text(inner: Multiset) -> str:
    """An inner marking as text: '{ p:k ... }', or '{ }' when empty."""
    entries = " ".join(f"{p}:{c}" for p, c in inner.items())
    return "{ " + entries + " }" if entries else "{ }"


class NestedToken(NamedTuple):
    """A token of the system net: a place plus an inner marking."""

    place: str
    inner: Multiset

    def sort_key(self) -> tuple:
        return (self.place, self.inner.sort_key())

    def __str__(self) -> str:
        return f"{self.place} {inner_text(self.inner)}"


class Event(NamedTuple):
    """A system transition plus the object transitions fired alongside it.

    theta maps object net ids to multisets of that net's transitions; nets
    missing from the map fire nothing.
    """

    name: str
    transition: str
    theta: tuple[tuple[str, Multiset], ...] = ()

    @classmethod
    def make(cls, name: str, transition: str, theta: Mapping[str, Multiset] | None = None) -> "Event":
        entries = tuple(sorted((n, ms) for n, ms in (theta or {}).items() if ms))
        return cls(name, transition, entries)

    def theta_of(self, net_id: str) -> Multiset:
        for n, ms in self.theta:
            if n == net_id:
                return ms
        return EMPTY


class EventMode(NamedTuple):
    """A concrete way to fire an event: consumed and produced tokens."""

    event: Event
    lam: Multiset
    rho: Multiset

    def sort_key(self) -> tuple:
        return (self.event.name, self.lam.sort_key(), self.rho.sort_key())


def project_system(marking: Multiset) -> Multiset:
    """Forget inner markings: the multiset of occupied system places."""
    counts: dict[str, int] = {}
    for tok, c in marking.items():
        counts[tok.place] = counts.get(tok.place, 0) + c
    return Multiset.from_counts(counts)


def _by_place(marking: Multiset) -> dict[str, list[tuple[NestedToken, int]]]:
    """A marking's (token, count) pairs grouped by system place, in insertion order."""
    out: dict[str, list[tuple[NestedToken, int]]] = {}
    for tok, c in marking.counts():
        out.setdefault(tok.place, []).append((tok, c))
    return out


def _selections(avail: Sequence[tuple[Hashable, int]], need: int) -> Iterator[dict[Hashable, int]]:
    """All ways to take exactly `need` items from (item, available) pairs, canonically ordered if avail is."""
    stack: list[tuple[int, int, tuple]] = [(0, need, ())]  # (item index, still needed, taken so far)
    while stack:
        i, left, taken = stack.pop()
        if left == 0:
            yield dict(taken)
        elif i < len(avail):
            tok, have = avail[i]
            # none first and one copy last: 1, 2, ... copies come off the stack before none, which is
            # canonical order, since a selection's pairs are in avail's order
            for k in (0, *range(min(have, left), 0, -1)):
                stack.append((i + 1, left - k, taken + ((tok, k),) if k else taken))


def _distributions(aggregate: Multiset, slots: int) -> Iterator[list[Multiset]]:
    """All ways to split a multiset across `slots` ordered slots."""
    if slots == 1:
        yield [aggregate]
        return
    items = aggregate.items()
    # Splitting c copies of an element takes c from slots that could each hold all c.
    per_element = [list(_selections([(i, c) for i in range(slots)], c)) for _, c in items]
    for combo in itertools.product(*per_element):
        parts: list[dict] = [{} for _ in range(slots)]
        for (element, _), split in zip(items, combo):
            for i, k in split.items():
                parts[i][element] = k
        yield [Multiset.from_counts(d) for d in parts]


class ObjectSystem:
    """System net + typed places + object nets + events.

    Idle transitions (consume and reproduce one token on a single place)
    are added to ``system`` under ids ``idle::<place>``, and ``object_nets``
    holds the implicit empty net ``black``; ``declared_transitions`` and
    ``declared_nets`` are what the caller gave, for printers.  Events may
    ride an idle transition if they fire at least one object transition.

    Each event's shape is derived once, when the system is built: its input
    (place, demand) pairs, its output places per object net, and per fired
    object net theta's combined consumption and production.
    """

    def __init__(
        self,
        system: PetriNet,
        object_nets: Iterable[PetriNet],
        typing: Mapping[str, str],
        events: Iterable[Event] = (),
    ):
        object_nets = tuple(object_nets)
        # every net given checked its own ids, so the claims below check uniqueness only
        _unique_ids(system.name, [("object net", [net.name for net in object_nets])])
        nets = {net.name: net for net in object_nets}
        for n in nets:
            if ":" in n:  # files type a system place as <place>:<object net>
                message = f"object net id {n!r} contains ':', the separator of a place and its type"
                raise _IdError(message, "object net", n)
        if nets.setdefault(BLACK_ID, BLACK) != BLACK:
            raise _IdError(f"object net id {BLACK_ID!r} is reserved for the empty net", "object net", BLACK_ID)
        self.object_nets = nets
        self.declared_nets = tuple(net for net in object_nets if net.name != BLACK_ID)

        for t in system.transitions:
            if t.startswith(IDLE_PREFIX):
                raise _IdError(f"transition id {t!r} uses the reserved idle namespace", "system transition", t)
        self.declared_transitions = system.transitions
        # idle::p is a valid id because p is one and the prefix holds no reserved character
        idles = {idle_id(p): Multiset([p]) for p in system.places}
        self.system = object.__new__(PetriNet)  # a shallow copy of the checked net, extended
        vars(self.system).update(vars(system), transitions=system.transitions + tuple(idles),
                                 pre=system.pre | idles, post=system.post | idles)

        # ids must be globally unique across the system net and all object nets
        groups = [("system place", self.system.places), ("system transition", self.system.transitions)]
        for net in nets.values():
            groups += [(f"place of object net {net.name}", net.places), (f"transition of object net {net.name}", net.transitions)]
        _unique_ids(system.name, groups)

        self.typing = dict(typing)
        if set(self.typing) != set(system.places):
            missing = set(system.places) - set(self.typing)
            extra = set(self.typing) - set(system.places)
            raise ValueError(f"typing must cover system places exactly (missing {sorted(missing)}, extra {sorted(extra)})")
        for p, n in self.typing.items():
            if n not in nets:
                raise _IdError(f"place {p!r} typed by unknown object net {n!r}", "system place", p)

        self.events = tuple(events)
        _claim_ids(system.name, [("event", [e.name for e in self.events])])
        self._shapes: dict[Event, tuple] = {}  # event -> (index, event, input places, their set, shape)
        for i, e in enumerate(self.events):
            try:  # pre_of and pre_sum raise on an unknown transition
                inputs = tuple(self.system.pre_of(e.transition).items())
                slots: dict[str, list[str]] = {}
                for p, c in self.system.post_of(e.transition).items():
                    slots.setdefault(self.typing[p], []).extend([p] * c)
                theta = []
                for net_id, ts in e.theta:
                    if net_id not in nets:
                        raise ValueError(f"event {e.name!r} synchronizes unknown object net {net_id!r}")
                    theta.append((net_id, nets[net_id].pre_sum(ts), nets[net_id].post_sum(ts)))
                if e.transition.startswith(IDLE_PREFIX) and not any(ts for _, ts in e.theta):
                    raise ValueError(f"event {e.name!r} rides an idle transition but fires no object transition")
            except ValueError as exc:  # the event's declaration is at fault
                raise _IdError(str(exc), "event", e.name) from None
            places = [p for p, _ in inputs]
            shape = (inputs, {n: tuple(slots[n]) for n in sorted(slots)}, tuple(theta))
            self._shapes[e] = (i, e, places, frozenset(places), shape)

    def _shape(self, event: Event) -> tuple:
        if event not in self._shapes:
            raise ValueError(f"net {self.system.name}: unknown event {event.name!r}")
        return self._shapes[event][-1]

    # -- markings ----------------------------------------------------------

    def validate_marking(self, marking: Multiset) -> Multiset:
        """The marking, if each of its tokens lies on a system place and fits that place's net."""
        for tok, _ in marking.counts():
            if not isinstance(tok, NestedToken):
                raise ValueError(f"marking element {tok!r} is not a token")
            if tok.place not in self.typing:
                raise ValueError(f"token on unknown system place {tok.place!r}")
            net = self.object_nets[self.typing[tok.place]]
            allowed = set(net.places)
            for p, _ in tok.inner.counts():
                if p not in allowed:
                    raise ValueError(
                        f"token on {tok.place!r} (type {net.name}) has inner token on foreign place {p!r}"
                    )
        return marking

    # -- enabledness -------------------------------------------------------

    def _inner_by_net(self, marking: Multiset) -> dict[str, Multiset]:
        """Combined inner marking per object net; nets holding nothing are left out."""
        out: dict[str, Multiset] = {}
        for tok, c in marking.counts():
            if tok.inner:
                net_id = self.typing[tok.place]
                inner = tok.inner if c == 1 else tok.inner * c  # multisets are immutable, so shared
                have = out.get(net_id)
                out[net_id] = inner if have is None else have + inner
        return out

    def _inner_after(self, theta: tuple, lam: Multiset) -> dict[str, Multiset] | None:
        """What rho must hold per object net (conditions 3 and 4), given an event's theta sums.

        None when the inner tokens of lam cannot pay for theta.  A net that
        theta does not fire keeps its inner tokens, so only theta is walked.
        """
        inner = self._inner_by_net(lam)
        for net_id, need, gain in theta:
            have = inner.pop(net_id, EMPTY)
            if not need.leq(have):
                return None
            after = have - need + gain
            if after:
                inner[net_id] = after
        return inner

    def phi(self, event: Event, lam: Multiset, rho: Multiset) -> bool:
        """The mode predicate: see the module docstring, conditions 1 to 4."""
        _, _, theta = self._shape(event)
        if project_system(lam) != self.system.pre_of(event.transition):
            return False
        if project_system(rho) != self.system.post_of(event.transition):
            return False
        return self._inner_after(theta, lam) == self._inner_by_net(rho)

    def enabled(self, marking: Multiset, mode: EventMode) -> bool:
        return self.phi(mode.event, mode.lam, mode.rho) and mode.lam.leq(marking)  # phi checks the event

    def step(self, marking: Multiset, mode: EventMode) -> Multiset:
        """Fire a mode after checking that it is one of this system's modes
        and enabled at the marking; fire itself checks only that lam is there."""
        if not self.enabled(marking, mode):
            raise NotEnabledError(f"witness step {mode.event.name!r} is not enabled")
        return fire(marking, mode)

    def enabled_modes(
        self, marking: Multiset, event: Event, *, lam_memo: dict | None = None, by_place: dict | None = None
    ) -> list[EventMode]:
        """All modes of an event enabled at a marking, canonically ordered.

        Consumed tokens are chosen per input place; produced inner tokens
        are distributed over output places of the same type in every
        possible way.  Symmetric choices collapse to one mode.

        Lams come out in canonical order without their sort keys: input
        places are in canonical order, and so are each place's tokens and
        therefore, as _selections yields them, its selections.  All
        selections on one place have the same size, so no place's block of a
        lam is a proper prefix of another's.

        successors passes lam_memo, a dict its search keeps for its own life:
        the modes of one choice of consumed tokens depend only on the event
        and those tokens, so their mode list is stored there under (event,
        lam) and reused, as different input tokens often share those choices.
        It also passes by_place, its own _by_place(marking), which is read and
        not changed.  A call without them groups the marking itself and
        memoises nothing.
        """
        if lam_memo is None:
            lam_memo = {}  # never hits: distinct selections consume distinct multisets
        if by_place is None:
            by_place = _by_place(marking)
        inputs, _, _ = self._shape(event)
        per_place: list[list[dict[NestedToken, int]]] = []
        for p, need in inputs:
            avail = by_place.get(p, [])
            if len(avail) > 1:  # all on place p, so the inner markings order them
                avail = sorted(avail, key=lambda pair: pair[0].inner.sort_key())
            sels = list(_selections(avail, need))
            if not sels:
                return []
            per_place.append(sels)

        modes: list[EventMode] = []
        for combo in itertools.product(*per_place):
            lam_counts: dict[NestedToken, int] = {}
            for sel in combo:
                # tokens on different places never coincide
                lam_counts.update(sel)
            lam = Multiset.from_counts(lam_counts)
            found = lam_memo.get((event, lam))
            if found is None:
                found = lam_memo[(event, lam)] = self._modes_consuming(event, lam)
            modes.extend(found)
        return modes

    def _modes_consuming(self, event: Event, lam: Multiset) -> list[EventMode]:
        """The modes of the event consuming exactly lam, ordered by rho."""
        _, slots, theta = self._shape(event)
        modes: dict[Multiset, EventMode] = {}
        aggregates = self._inner_after(theta, lam)
        if aggregates is not None and all(net_id in slots for net_id in aggregates):
            per_net = [list(_distributions(aggregates.get(n, EMPTY), len(places))) for n, places in slots.items()]
            for assignment in itertools.product(*per_net):
                tokens: list[NestedToken] = []
                for places, inners in zip(slots.values(), assignment):
                    tokens.extend(map(NestedToken, places, inners))
                rho = Multiset(tokens)
                modes[rho] = EventMode(event, lam, rho)
        if len(modes) > 1:  # never so in compiled systems
            return sorted(modes.values(), key=lambda mode: mode.rho.sort_key())
        return list(modes.values())

    def successors(self, marking: Multiset, modes: dict, lams: dict) -> Iterator[tuple[EventMode, Multiset]]:
        """(mode, next marking) pairs, lazily: events in declaration order, each
        one's modes in enabled_modes' order, so a search fires nothing past its answer.

        modes and lams are memos a search keeps for its own life, never on the
        system.  An event's modes depend only on the tokens on its input places,
        so modes holds each mode list under the event's index and those tokens as
        _by_place groups them, in the marking's insertion order (equal tokens met
        in another order miss, which stays exact).  An event with an empty input
        place has no mode.  enabled_modes reads this grouping and takes lams as
        its lam_memo."""
        by_place = _by_place(marking)
        occupied = frozenset(by_place)
        for i, event, places, needed, _ in self._shapes.values():
            if not needed <= occupied:
                continue
            key = (i, *(tuple(by_place[p]) for p in places))
            found = modes.get(key)
            if found is None:
                found = modes[key] = self.enabled_modes(marking, event, lam_memo=lams, by_place=by_place)
            for mode in found:
                yield mode, fire(marking, mode)

    def step_bound(self, target: Multiset) -> Callable[[Multiset], float]:
        """A function from a marking to a lower bound on the steps it needs to
        reach any marking that covers target: 0 or more, or math.inf.

        It is the larger of two terms, each 0 on every covering marking and
        falling by at most 1 per step, so a bounded search may drop a state
        found at depth g once g plus the bound exceeds its depth.

        The aggregate term: a covering marking holds at least the target's
        tokens on each system place and, per object net and inner place, at
        least the target's inner tokens there summed over the tokens of that
        net's type.  One step raises such a coordinate by at most its gain, so
        the term is the largest ceil(deficit / gain) over the coordinates in
        deficit, and infinite when no event raises one of them.

        The token term, for each object net of which no event consumes two
        tokens.  An event that consumes one token of the net splits what that
        token holds after theta fired over the tokens of the net it makes, so
        on inner place q a token gains at most the largest made_q - used_q of
        such an event (or 0) per step; an event that consumes none makes each
        token of the net with at most theta's made.  A target token is covered
        by one token, which is a token sigma of its net now or is made later,
        so from sigma it needs the largest ceil((target_q - sigma_q)+ /
        gain_q) steps, infinite where a deficit has no gain, and from a made
        one step more.  The term is the largest over the target's non-empty
        inner markings of the cheapest of these costs.  Per target inner
        marking the function keeps a witness token, and scans the marking's
        tokens as nunet.step_bound scans its configuration's tuples."""
        need: dict[str | tuple[str, str], int] = {}
        for tok, c in target.counts():
            need[tok.place] = need.get(tok.place, 0) + c
            net_id = self.typing[tok.place]
            for q, k in tok.inner.counts():
                need[net_id, q] = need.get((net_id, q), 0) + k * c
        gains = dict.fromkeys(need, 0)  # the largest gain of one event on each coordinate, or 0
        merged = set()  # the object nets of which some event consumes two tokens
        inner_gains: dict[str, dict[str, int]] = {}  # per object net and inner place, the largest gain of a token
        made_of: dict[str, list[Multiset]] = {}  # per object net, the most an event makes a new token of it with
        for _, e, _, _, (inputs, slots, theta) in self._shapes.values():
            step = dict(self.system.post_of(e.transition).counts())
            taken: dict[str, int] = {}  # per object net, the tokens the event consumes
            for p, c in inputs:
                step[p] = step.get(p, 0) - c
                net_id = self.typing[p]
                taken[net_id] = taken.get(net_id, 0) + c
                if taken[net_id] > 1:
                    merged.add(net_id)
            fired = {}
            for net_id, used, made in theta:  # an inner place that theta only consumes from gains nothing
                fired[net_id] = made
                # without a consumed token of the net, theta makes new tokens: a birth below, not a gain
                per_place = inner_gains.setdefault(net_id, {}) if net_id in taken else {}
                for q, k in made.counts():
                    step[net_id, q] = step.get((net_id, q), 0) + k - used.count(q)
                    per_place[q] = max(per_place.get(q, 0), k - used.count(q))
            for coordinate in need:
                gains[coordinate] = max(gains[coordinate], step.get(coordinate, 0))
            for net_id in slots:
                if net_id not in taken:
                    made_of.setdefault(net_id, []).append(fired.get(net_id, EMPTY))

        def cost(goal: Multiset, inner: Multiset, per_place: dict[str, int]) -> float:
            steps = 0
            for q, want in goal.counts():
                deficit = want - inner.count(q)
                if deficit > 0:
                    gain = per_place.get(q, 0)
                    if not gain:
                        return math.inf
                    steps = max(steps, -(-deficit // gain))
            return steps

        def scan(entry: list, marking: Multiset, steps: float) -> float:
            """steps, or the cheapest cost of entry's inner marking where that is higher, filing the
            cheapest lineage found (a token, or None for a made one) and its cost in entry, as
            nunet.step_bound's scan does."""
            net_id, goal, per_place, best = entry[:4]
            witness = None
            for tok, _ in marking.counts():
                if self.typing[tok.place] == net_id:
                    here = cost(goal, tok.inner, per_place)
                    if here < best:
                        best, witness = here, tok
                        if best <= steps:
                            break
            entry[4:] = witness, best
            return max(steps, best)

        # The token term's goals: per distinct non-empty inner marking of a target token of a net that no
        # event merges, [its net, it, its net's gains, its cost from a made token, its last witness, the
        # witness's cost].
        goals = []
        for net_id, goal in dict.fromkeys((self.typing[tok.place], tok.inner) for tok, _ in target.counts()):
            if goal and net_id not in merged:
                per_place = inner_gains.get(net_id, {})
                born = min((1 + cost(goal, m, per_place) for m in made_of.get(net_id, ())), default=math.inf)
                goals.append([net_id, goal, per_place, born, None, born])
        # system place -> {inner place: coordinate} for the inner places of its net that the target demands
        wanted_of = {p: {c[1]: c for c in need if isinstance(c, tuple) and c[0] == net_id}
                     for p, net_id in self.typing.items()}

        def bound(marking: Multiset) -> float:
            left = need.copy()  # the deficit on each coordinate
            for tok, c in marking.counts():
                place = tok.place
                if place in left:
                    left[place] -= c
                wanted = wanted_of[place]
                if wanted:
                    for q, k in tok.inner.counts():
                        coordinate = wanted.get(q)
                        if coordinate is not None:
                            left[coordinate] -= c * k
            steps = 0
            for coordinate, gain in gains.items():
                deficit = left[coordinate]
                if deficit > 0:
                    if not gain:
                        return math.inf
                    if deficit > steps * gain:  # ceil(deficit / gain) > steps
                        steps = -(-deficit // gain)
            kept = []  # the goals whose witness is still here: scanned last, once the bound is highest
            for entry in goals:
                if entry[4] is None or entry[4] in marking:
                    kept.append(entry)
                else:
                    steps = scan(entry, marking, steps)
            for entry in kept:
                if entry[5] > steps:  # else its witness shows that it cannot raise the bound
                    steps = scan(entry, marking, steps)
            return steps

        return bound

    # -- structure ---------------------------------------------------------

    def is_conservative(self) -> bool:
        """Every consumed token type reappears among the produced places.

        For each system transition, each input place's type must also be
        the type of some output place, so object tokens are never dropped.
        """
        for t in self.system.transitions:
            out_types = {self.typing[p] for p in self.system.post_of(t).support()}
            for p in self.system.pre_of(t).support():
                if self.typing[p] not in out_types:
                    return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ObjectSystem):
            return NotImplemented
        return (
            self.system == other.system
            and self.object_nets == other.object_nets
            and self.typing == other.typing
            and self.events == other.events
        )

    def __repr__(self) -> str:
        return (
            f"ObjectSystem({self.system.name!r}, {len(self.system.places)} places, "
            f"{len(self.events)} events, {len(self.object_nets)} object nets)"
        )


def fire(marking: Multiset, mode: EventMode) -> Multiset:
    """Replace the consumed tokens with the produced ones."""
    try:
        return marking.replace(mode.lam.counts(), mode.rho.counts())
    except ValueError:  # replace raises exactly when lam is not contained in the marking
        raise NotEnabledError(f"event {mode.event.name!r}: consumed tokens {mode.lam} not present in {marking}") from None


def covers(marking: Multiset, target: Multiset) -> bool:
    """Token-wise domination: an injective, place-respecting assignment of
    target tokens to marking tokens whose inner markings dominate them.

    Each distinct marking token is one right vertex holding as many target
    tokens as it has copies, and each distinct target token a group of copies."""
    rows = list(marking.counts())
    groups: list[tuple[list[int], int]] = []
    for tok, count in target.counts():
        fits = [j for j, (r, _) in enumerate(rows) if tok.place == r.place and tok.inner.leq(r.inner)]
        if not fits:  # most markings of a search fail here, before any matching
            return False
        groups.append((fits, count))
    return has_perfect_left_matching(groups, [count for _, count in rows])
