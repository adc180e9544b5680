"""Capacitated bipartite matching via augmenting paths."""

from __future__ import annotations

from collections import deque
from typing import Sequence


def has_perfect_left_matching(groups: Sequence[tuple[Sequence[int], int]], capacity: Sequence[int]) -> bool:
    """True when every left vertex can be matched, right vertex j holding at
    most capacity[j] of them; groups[g] = (edges, demand) is demand copies
    of a left vertex adjacent to the right vertices in edges.

    Each search places one copy, and a full right vertex passes it on to
    each group it holds once: the cost is linear in the copies for fixed
    numbers of groups and right vertices, and up to quadratic in those.
    A left vertex with no augmenting path never gains one as the matching
    grows, so the search stops at the first such vertex.
    """
    load = [0] * len(capacity)  # copies held per right vertex
    held: list = [None] * len(capacity)  # right vertex -> its one group while it holds one, else group -> copies
    for group, (_, demand) in enumerate(groups):
        for _ in range(demand):
            # Breadth-first search over groups: via[j] is the group that reached right vertex j,
            # came[g] the full right vertex that passed the search on to group g.
            via: dict[int, int] = {}
            came: dict[int, int | None] = {group: None}
            queue = deque([group])
            free = None
            while queue and free is None:
                g = queue.popleft()
                for j in groups[g][0]:
                    if j not in via:
                        via[j] = g
                        if load[j] < capacity[j]:
                            free = j
                            break
                        at = held[j]
                        if at is None:  # a right vertex of no capacity holds nothing
                            continue
                        for k in [at] if isinstance(at, int) else [k for k, copies in at.items() if copies]:
                            if k not in came:
                                came[k] = j
                                queue.append(k)
            if free is None:
                return False
            # Flip the path: each right vertex on it takes a copy of the group that reached it,
            # and that copy leaves the right vertex the group came from.
            while free is not None:
                g, at = via[free], held[free]
                if not load[free] or at == g:
                    held[free] = g
                elif isinstance(at, int):
                    held[free] = {at: load[free], g: 1}
                else:
                    at[g] = at.get(g, 0) + 1
                load[free] += 1
                free = came[g]
                if free is not None:
                    load[free] -= 1
                    if isinstance(held[free], dict):
                        held[free][g] -= 1
    return True
