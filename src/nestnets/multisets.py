"""Finite multisets over hashable elements.

The algebra is the usual one: sum is pointwise addition of counts,
difference is truncated at zero, and inclusion is pointwise <= on counts.
Counts are plain Python ints, so they never overflow; negative counts are
rejected at construction.

Iteration and rendering use a canonical order so that equal multisets
always print and enumerate identically.  Elements are sorted by
``sort_key(element)``, which handles strings, int tuples and any object
exposing its own ``sort_key()`` (nested tokens do).  A multiset is never
changed once built, so it computes its canonical order and its own sort
key at most once, on first use.

``counts()`` is the one order-free view: the (element, count) pairs in
insertion order, the order in which the operation that built the multiset
met its elements.  It never sorts, so reads whose result cannot depend on
order (searches, domination, firing) use it and leave the canonical order
to printing and to ordering mode lists.
"""

from __future__ import annotations

from typing import Any, ItemsView, Iterable, Iterator, Mapping


def sort_key(element: Any) -> Any:
    """Canonical ordering key for a multiset element."""
    key = getattr(element, "sort_key", None)
    if key is not None:
        return key()
    return element


class Multiset:
    """Immutable finite multiset.

    ``Multiset(iterable)`` counts occurrences; ``Multiset.from_counts``
    takes an element -> count mapping.  Zero counts are dropped, negative
    counts raise ValueError.
    """

    __slots__ = ("_counts", "_hash", "_items", "_key")

    def __new__(cls, elements: Iterable[Any] = ()) -> "Multiset":
        counts: dict[Any, int] = {}
        for e in elements:
            counts[e] = counts.get(e, 0) + 1
        return cls._of(counts)

    @classmethod
    def _of(cls, counts: dict[Any, int]) -> "Multiset":
        """The one constructor: takes ownership of positive int counts."""
        m = object.__new__(cls)
        m._counts = counts
        m._hash = None
        m._items = None
        m._key = None
        return m

    @classmethod
    def from_counts(cls, counts: Mapping[Any, int]) -> "Multiset":
        kept: dict[Any, int] = {}
        for e, c in counts.items():
            if isinstance(c, bool) or not isinstance(c, int):
                raise ValueError(f"count for {e!r} must be an int, got {type(c).__name__}")
            if c < 0:
                raise ValueError(f"negative count {c} for {e!r}")
            if c > 0:
                kept[e] = c
        return cls._of(kept)

    def _canonical(self) -> tuple[tuple[Any, int], ...]:
        """(element, count) pairs in canonical order, sorted on first use."""
        items = self._items
        if items is None:
            counts = self._counts
            items = self._items = tuple((e, counts[e]) for e in sorted(counts, key=sort_key))
        return items

    def counts(self) -> ItemsView[Any, int]:
        """(element, count) pairs in insertion order; computes no canonical order."""
        return self._counts.items()

    def count(self, element: Any) -> int:
        return self._counts.get(element, 0)

    __getitem__ = count  # so a multiset is a holding of bounds._steps

    def support(self) -> list:
        """Distinct elements, canonically ordered."""
        return [e for e, _ in self._canonical()]

    def items(self) -> list[tuple[Any, int]]:
        """(element, count) pairs in canonical element order."""
        return list(self._canonical())

    def total(self) -> int:
        """Cardinality counting multiplicity."""
        return sum(self._counts.values())

    def elements(self) -> list:
        """All elements with multiplicity, canonically ordered."""
        out = []
        for e, c in self._canonical():
            out.extend([e] * c)
        return out

    def __len__(self) -> int:
        return self.total()

    def __iter__(self) -> Iterator[Any]:
        for e, c in self._canonical():
            for _ in range(c):
                yield e

    def __contains__(self, element: Any) -> bool:
        return element in self._counts

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __add__(self, other: "Multiset") -> "Multiset":
        if not isinstance(other, Multiset):
            return NotImplemented
        counts = dict(self._counts)
        for e, c in other._counts.items():
            counts[e] = counts.get(e, 0) + c
        return Multiset._of(counts)

    def __sub__(self, other: "Multiset") -> "Multiset":
        """Truncated difference: counts never go below zero."""
        if not isinstance(other, Multiset):
            return NotImplemented
        counts = dict(self._counts)
        for e, c in other._counts.items():
            d = counts.get(e)
            if d is not None:
                if d > c:
                    counts[e] = d - c
                else:
                    del counts[e]
        return Multiset._of(counts)

    def replace(self, consumed: Iterable[tuple[Any, int]], produced: Iterable[tuple[Any, int]]) -> "Multiset":
        """Take the consumed (element, count) pairs out and add the produced ones, copying the counts
        once.  Counts are positive; unlike ``-`` this never truncates, but raises ValueError."""
        counts = dict(self._counts)
        for e, c in consumed:
            left = counts.pop(e, 0) - c
            if left < 0:
                raise ValueError(f"cannot take {c} of {e!r} out of {self}")
            if left:
                counts[e] = left
        for e, c in produced:
            counts[e] = counts.get(e, 0) + c
        return Multiset._of(counts)

    def __mul__(self, n: int) -> "Multiset":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError(f"cannot scale a multiset by {n}")
        return Multiset._of({e: c * n for e, c in self._counts.items()} if n else {})

    __rmul__ = __mul__

    def leq(self, other: "Multiset") -> bool:
        """Multiset inclusion: every count here is <= the count in other."""
        return all(c <= other.count(e) for e, c in self._counts.items())

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._counts.items()))
        return self._hash

    def sort_key(self) -> tuple:
        """Key ordering multisets among themselves (used for canonical forms)."""
        key = self._key
        if key is None:
            key = self._key = tuple((sort_key(e), c) for e, c in self._canonical())
        return key

    def __str__(self) -> str:
        return "{{" + ", ".join(str(e) for e in self.elements()) + "}}"

    def __repr__(self) -> str:
        return f"Multiset({self.elements()!r})"


EMPTY = Multiset()
