"""Seed-driven workload inputs and the oracles that check the CLI's reports.

Nothing here imports ``gammacomplex``: the inputs are built and the expected
values computed by separate code, so a library change can neither alter a
workload nor vouch for its own output.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations
from math import comb


def random_subdivision_steps(d: int, k: int, rng: random.Random) -> tuple[list, dict]:
    """Edge-adjacency simulation of ``k`` uniformly chosen edge subdivisions.

    Starts from the boundary of the d-cross-polytope on ids ``0 .. 2d-1``
    (antipodes ``i ^ 1``); the i-th new vertex gets id ``2d + i``, matching the
    CLI's sequence format.  Returns the subdivided edges and the final
    adjacency.
    """
    adj = {v: {u for u in range(2 * d) if u != v and u != v ^ 1} for v in range(2 * d)}
    edges = [(a, b) for a in range(2 * d) for b in sorted(adj[a]) if a < b]
    slot = {e: i for i, e in enumerate(edges)}

    def drop(e):
        i = slot.pop(e)
        last = edges.pop()
        if i < len(edges):
            edges[i] = last
            slot[last] = i

    def add(e):
        slot[e] = len(edges)
        edges.append(e)

    steps = []
    for i in range(k):
        a, b = edges[rng.randrange(len(edges))]
        w = 2 * d + i
        star = (adj[a] & adj[b]) | {a, b}
        drop((a, b))
        adj[a].discard(b)
        adj[b].discard(a)
        adj[w] = set(star)
        for v in star:
            adj[v].add(w)
            add((v, w))
        steps.append((a, b))
    return steps, adj


def clique_counts(adj: dict) -> list[int]:
    """Number of cliques of each size (the empty clique included), on bitmasks."""
    order = sorted(adj)
    index = {v: i for i, v in enumerate(order)}
    later = [0] * len(order)
    for v, ns in adj.items():
        i = index[v]
        for u in ns:
            if index[u] > i:
                later[i] |= 1 << index[u]
    counts = [1]

    def grow(size: int, candidates: int) -> None:
        if len(counts) == size + 1:
            counts.append(0)
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            counts[size + 1] += 1
            nxt = candidates & later[low.bit_length() - 1]
            if nxt:
                grow(size + 1, nxt)

    grow(0, (1 << len(order)) - 1)
    return counts


def power_set(n: int) -> list[list[int]]:
    return [list(c) for r in range(1, n + 1) for c in combinations(range(1, n + 1), r)]


def intervals(n: int) -> list[list[int]]:
    return [list(range(i, j + 1)) for i in range(1, n + 1) for j in range(i, n + 1)]


def random_flag_building_set(n: int, additions: int, rng: random.Random) -> list[list[int]]:
    """A connected flag building set: a random binary decomposition of {1..n}
    plus up to ``additions`` members, each added only while the family stays
    a flag building set.  Members are bitmasks until the end.
    """
    members: set[int] = set()

    def split(mask: int) -> None:
        members.add(mask)
        items = [i for i in range(n) if mask >> i & 1]
        if len(items) > 1:
            part = sum(1 << i for i in rng.sample(items, rng.randint(1, len(items) - 1)))
            split(part)
            split(mask ^ part)

    full = (1 << n) - 1
    split(full)

    def appendable(s: int) -> bool:
        if not any(p != s and p & s == p and (s ^ p) in members for p in members):
            return False
        return all(
            (x | s) in members
            for x in members
            if x & s and x & s != x and x & s != s
        )

    pool = [m for m in range(1, full) if bin(m).count("1") > 1]
    for _ in range(additions):
        candidates = [s for s in pool if s not in members and appendable(s)]
        if not candidates:
            break
        members.add(rng.choice(candidates))
    return [[i + 1 for i in range(n) if m >> i & 1] for m in sorted(members)]


def associahedron_gamma(n: int) -> list[int]:
    """gamma of the interval building set on [n]: C(n-1, 2i) * Cat(i)."""
    d = n - 1
    return [comb(d, 2 * i) * comb(2 * i, i) // (i + 1) for i in range(d // 2 + 1)]


def permutohedron_gamma(n: int) -> list[int]:
    """gamma of the power set on [n]: permutations of [n] by descent count,
    among those with no double descent and no final descent
    (Postnikov-Reiner-Williams)."""
    out = [0] * ((n + 1) // 2)
    for w in permutations(range(n)):
        des = [i for i in range(n - 1) if w[i] > w[i + 1]]
        if des and des[-1] == n - 2:
            continue
        if any(b == a + 1 for a, b in zip(des, des[1:])):
            continue
        out[len(des)] += 1
    while out and out[-1] == 0:
        out.pop()
    return out
