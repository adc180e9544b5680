"""Place/transition nets with multiset markings.

A net stores, per transition, the multiset of places it consumes from and
the multiset it produces to.  Markings are multisets of place names.  The
empty net (no places, no transitions) is the type of plain black tokens:
its only marking is the empty multiset.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Iterable, Mapping

from .multisets import EMPTY, Multiset


class NotEnabledError(Exception):
    """Raised when a transition or event is fired without being enabled."""


_RESERVED = re.compile(r"[\s{}\[\]#;]")  # \s matches exactly the characters str.isspace accepts


class _IdError(ValueError):
    """An error one declaration causes: a broken id rule or a bad reference.  kind and id name the
    declaration at fault, so a parser can report its line."""

    def __init__(self, message: str, kind: str, id: str):
        super().__init__(message)
        self.kind = kind
        self.id = id


def _check_id(kind: str, name: str) -> str:
    if not isinstance(name, str) or not name:
        raise _IdError(f"{kind} id must be a non-empty string, got {name!r}", kind, name)
    if _RESERVED.search(name):
        raise _IdError(f"{kind} id {name!r} contains whitespace or reserved characters", kind, name)
    return name


def _claim_ids(net: str, groups: Iterable[tuple[str, Iterable[str]]]) -> None:
    """Check the net id and every id of each (kind, ids) group, and that no id is used twice in the net.

    Each id's syntax is checked just before _unique_ids claims it."""
    _check_id("net", net)
    _unique_ids(net, ((kind, map(partial(_check_id, kind), ids)) for kind, ids in groups))


def _unique_ids(net: str, groups: Iterable[tuple[str, Iterable[str]]]) -> None:
    """Check that no id of the (kind, ids) groups is used twice in the net, for ids whose syntax was checked.

    The one uniqueness check: each call is one namespace."""
    seen: dict[str, str] = {}
    for kind, ids in groups:
        for i in ids:
            if i in seen:
                if seen[i] == kind:
                    raise _IdError(f"net {net}: duplicate {kind} id {i!r}", kind, i)
                raise _IdError(f"net {net}: id {i!r} used as both {seen[i]} and {kind}", kind, i)
            seen[i] = kind


class PetriNet:
    """A net with multiset arcs.

    pre/post map transition ids to multisets of place ids; transitions
    missing from the mappings get empty pre/post sets.
    """

    def __init__(
        self,
        name: str,
        places: Iterable[str] = (),
        transitions: Iterable[str] = (),
        pre: Mapping[str, Multiset] | None = None,
        post: Mapping[str, Multiset] | None = None,
    ):
        self.name = name
        self.places = tuple(places)
        self.transitions = tuple(transitions)
        _claim_ids(name, (("place", self.places), ("transition", self.transitions)))
        place_set = set(self.places)
        trans_set = set(self.transitions)
        self.pre: dict[str, Multiset] = {t: EMPTY for t in self.transitions}
        self.post: dict[str, Multiset] = {t: EMPTY for t in self.transitions}
        for label, given, store in (("pre", pre or {}, self.pre), ("post", post or {}, self.post)):
            for t, ms in given.items():
                if t not in trans_set:
                    raise ValueError(f"net {name}: {label} set for unknown transition {t!r}")
                for p, _ in ms.counts():
                    if p not in place_set:
                        raise ValueError(f"net {name}: transition {t!r} {label} uses unknown place {p!r}")
                store[t] = ms

    def pre_of(self, t: str) -> Multiset:
        try:
            return self.pre[t]
        except KeyError:
            raise ValueError(f"net {self.name}: unknown transition {t!r}") from None

    def post_of(self, t: str) -> Multiset:
        try:
            return self.post[t]
        except KeyError:
            raise ValueError(f"net {self.name}: unknown transition {t!r}") from None

    def enabled(self, marking: Multiset, t: str) -> bool:
        return self.pre_of(t).leq(marking)

    def fire(self, marking: Multiset, t: str) -> Multiset:
        if not self.enabled(marking, t):
            raise NotEnabledError(f"net {self.name}: transition {t!r} is not enabled at {marking}")
        return marking - self.pre[t] + self.post[t]

    def pre_sum(self, ts: Multiset) -> Multiset:
        """Combined consumption of a multiset of transitions."""
        out = EMPTY
        for t, c in ts.items():
            out = out + self.pre_of(t) * c
        return out

    def post_sum(self, ts: Multiset) -> Multiset:
        out = EMPTY
        for t, c in ts.items():
            out = out + self.post_of(t) * c
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PetriNet):
            return NotImplemented
        return (
            self.name == other.name
            and self.places == other.places
            and self.transitions == other.transitions
            and self.pre == other.pre
            and self.post == other.post
        )

    def __repr__(self) -> str:
        return f"PetriNet({self.name!r}, {len(self.places)} places, {len(self.transitions)} transitions)"


BLACK_ID = "black"

# The empty net: the type of unstructured tokens.  Its only marking is EMPTY.
BLACK = PetriNet(BLACK_ID)
