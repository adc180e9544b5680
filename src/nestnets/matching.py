"""Bipartite matching via augmenting paths."""

from __future__ import annotations

from collections import deque
from typing import Sequence


def has_perfect_left_matching(adjacency: Sequence[Sequence[int]]) -> bool:
    """True when every left vertex can be matched to a distinct right vertex.

    adjacency[i] lists the right-side vertices compatible with left vertex i.
    A left vertex with no augmenting path never gains one as the matching
    grows, so the search stops at the first such vertex.
    """
    match_right: dict[int, int] = {}
    match_left: dict[int, int] = {}
    for i in range(len(adjacency)):
        # Breadth-first search for an augmenting path; via[j] is the left vertex that reached j.
        via: dict[int, int] = {}
        queue = deque([i])
        free = None
        while queue and free is None:
            u = queue.popleft()
            for j in adjacency[u]:
                if j not in via:
                    via[j] = u
                    if j not in match_right:
                        free = j
                        break
                    queue.append(match_right[j])
        if free is None:
            return False
        # Flip the path: each right vertex on it takes the left vertex that reached it.
        while free is not None:
            u = via[free]
            previous = match_left.get(u)
            match_right[free], match_left[u] = u, free
            free = previous
    return True
