"""Bipartite matching via augmenting paths."""

from __future__ import annotations

from typing import Sequence


def has_perfect_left_matching(adjacency: Sequence[Sequence[int]]) -> bool:
    """True when every left vertex can be matched to a distinct right vertex.

    adjacency[i] lists the right-side vertices compatible with left vertex i.
    A left vertex with no augmenting path never gains one as the matching
    grows, so the search stops at the first such vertex.
    """
    match_right: dict[int, int] = {}

    def augment(i: int, seen: set[int]) -> bool:
        for j in adjacency[i]:
            if j in seen:
                continue
            seen.add(j)
            if j not in match_right or augment(match_right[j], seen):
                match_right[j] = i
                return True
        return False

    return all(augment(i, set()) for i in range(len(adjacency)))
