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
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .matching import has_perfect_left_matching
from .multisets import EMPTY, Multiset
from .petri import BLACK, BLACK_ID, NotEnabledError, PetriNet, _claim_ids, _IdError

IDLE_PREFIX = "idle::"


def idle_id(place: str) -> str:
    return IDLE_PREFIX + place


class NestedToken(NamedTuple):
    """A token of the system net: a place plus an inner marking."""

    place: str
    inner: Multiset

    def sort_key(self) -> tuple:
        return (self.place, self.inner.sort_key())

    def __str__(self) -> str:
        entries = " ".join(f"{p}:{c}" for p, c in self.inner.items())
        return f"{self.place} {{ {entries} }}" if entries else f"{self.place} {{ }}"


@dataclass(frozen=True)
class Event:
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


@dataclass(frozen=True)
class EventMode:
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
    """All ways to take exactly `need` items from (item, available) pairs."""
    stack: list[tuple[int, int, tuple]] = [(0, need, ())]  # (item index, still needed, taken so far)
    while stack:
        i, left, taken = stack.pop()
        if left == 0:
            yield dict(taken)
        elif i < len(avail):
            tok, have = avail[i]
            # ascending, so the most copies of this item come off the stack first
            for k in range(min(have, left) + 1):
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
    are synthesized for every system place at construction under ids
    ``idle::<place>``; input descriptions never list them.  Events may
    reference an idle transition, in which case they must fire at least
    one object transition.

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
        _claim_ids(system.name, [("object net", [net.name for net in object_nets])])
        nets = {net.name: net for net in object_nets}
        for n in nets:
            if ":" in n:  # files type a system place as <place>:<object net>
                message = f"object net id {n!r} contains ':', the separator of a place and its type"
                raise _IdError(message, "object net", n)
        if nets.setdefault(BLACK_ID, BLACK) != BLACK:
            raise _IdError(f"object net id {BLACK_ID!r} is reserved for the empty net", "object net", BLACK_ID)
        self.object_nets = nets

        for t in system.transitions:
            if t.startswith(IDLE_PREFIX):
                raise _IdError(f"transition id {t!r} uses the reserved idle namespace", "system transition", t)
        with_idles = PetriNet(
            system.name,
            system.places,
            system.transitions + tuple(idle_id(p) for p in system.places),
            dict(system.pre) | {idle_id(p): Multiset([p]) for p in system.places},
            dict(system.post) | {idle_id(p): Multiset([p]) for p in system.places},
        )
        self.system = with_idles

        # ids must be globally unique across the system net and all object nets
        groups = [("system place", self.system.places), ("system transition", self.system.transitions)]
        for net in nets.values():
            groups += [(f"place of object net {net.name}", net.places), (f"transition of object net {net.name}", net.transitions)]
        _claim_ids(system.name, groups)

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
        self._shapes: dict[Event, tuple] = {}
        for e in self.events:
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
            self._shapes[e] = (inputs, {n: tuple(slots[n]) for n in sorted(slots)}, tuple(theta))

    def _shape(self, event: Event) -> tuple:
        if event not in self._shapes:
            raise ValueError(f"net {self.system.name}: unknown event {event.name!r}")
        return self._shapes[event]

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
                out[net_id] = out.get(net_id, EMPTY) + tok.inner * c
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

    def enabled_modes(
        self, marking: Multiset, event: Event, *, lam_memo: dict | None = None
    ) -> list[EventMode]:
        """All modes of an event enabled at a marking, canonically ordered.

        Consumed tokens are chosen per input place; produced inner tokens
        are distributed over output places of the same type in every
        possible way.  Symmetric choices collapse to one mode.

        A search may pass lam_memo, a dict it keeps for its own life: the
        modes of one choice of consumed tokens depend only on the event and
        those tokens, so they are stored there under (event, lam) and reused.
        """
        if lam_memo is None:
            lam_memo = {}  # never hits: distinct selections consume distinct multisets
        inputs, _, _ = self._shape(event)
        by_place = _by_place(marking)
        per_place: list[list[dict[NestedToken, int]]] = []
        for p, need in inputs:
            sels = list(_selections(by_place.get(p, []), need))
            if not sels:
                return []
            per_place.append(sels)

        per_lam: list[tuple[tuple, list[EventMode]]] = []
        for combo in itertools.product(*per_place):
            lam_counts: dict[NestedToken, int] = {}
            for sel in combo:
                # tokens on different places never coincide
                lam_counts.update(sel)
            lam = Multiset.from_counts(lam_counts)
            found = lam_memo.get((event, lam))
            if found is None:
                found = lam_memo[(event, lam)] = self._modes_consuming(event, lam)
            per_lam.append(found)
        # distinct selections consume distinct multisets, so no two keys tie
        per_lam.sort(key=lambda entry: entry[0])
        return [mode for _, modes in per_lam for mode in modes]

    def _modes_consuming(self, event: Event, lam: Multiset) -> tuple[tuple, list[EventMode]]:
        """lam's sort key and the modes of the event consuming exactly lam, ordered by rho."""
        _, slots, theta = self._shape(event)
        modes: dict[tuple, EventMode] = {}
        aggregates = self._inner_after(theta, lam)
        if aggregates is not None and all(net_id in slots for net_id in aggregates):
            per_net = [list(_distributions(aggregates.get(n, EMPTY), len(places))) for n, places in slots.items()]
            for assignment in itertools.product(*per_net):
                tokens: list[NestedToken] = []
                for places, inners in zip(slots.values(), assignment):
                    tokens.extend(map(NestedToken, places, inners))
                rho = Multiset(tokens)
                modes[rho.sort_key()] = EventMode(event, lam, rho)
        return lam.sort_key(), [modes[k] for k in sorted(modes)]

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
    if not mode.lam.leq(marking):
        raise NotEnabledError(f"event {mode.event.name!r}: consumed tokens {mode.lam} not present in {marking}")
    return marking.replace(mode.lam.counts(), mode.rho.counts())


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
