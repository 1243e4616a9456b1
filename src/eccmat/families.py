"""Constructors for named graph families and labeled-tree generators."""

from __future__ import annotations

import heapq
import itertools
import random

from .graphs import MAX_ORDER, Graph, Tree

ENUMERATION_LIMIT = 9


def path(n: int) -> Tree:
    """Path on vertices 0..n-1 in order."""
    if n < 1:
        raise ValueError("path requires n >= 1")
    return Tree(n, [(i, i + 1) for i in range(n - 1)])


def star(n: int) -> Tree:
    """Star with hub 0 joined to 1..n-1."""
    if n < 2:
        raise ValueError("star requires n >= 2")
    return Tree(n, [(0, i) for i in range(1, n)])


def center_pendant_tree(n: int, d: int, a: int, b: int) -> Tree:
    """Path 0..d with a pendant vertices on v_{(d-1)/2} and b on v_{(d+1)/2}.

    The path length d must be odd, so the two attachment points are the
    adjacent middle vertices; the result has diameter exactly d.
    """
    if d < 3:
        raise ValueError("center_pendant_tree requires d >= 3")
    if d % 2 == 0:
        raise ValueError("center_pendant_tree requires odd d")
    if not 0 <= a <= b:
        raise ValueError("center_pendant_tree requires b >= a >= 0")
    if a + b != n - d - 1:
        raise ValueError("center_pendant_tree requires a + b = n - d - 1")
    edges = [(i, i + 1) for i in range(d)]
    lo = (d - 1) // 2
    hi = lo + 1
    label = d + 1
    for _ in range(a):
        edges.append((lo, label))
        label += 1
    for _ in range(b):
        edges.append((hi, label))
        label += 1
    return Tree(n, edges)


def spider(leg_count: int, leg_length: int) -> Tree:
    """Center 0 with leg_count paths of leg_length edges attached."""
    if leg_count < 2:
        raise ValueError("spider requires leg_count >= 2")
    if leg_length < 1:
        raise ValueError("spider requires leg_length >= 1")
    edges = []
    label = 1
    for _ in range(leg_count):
        prev = 0
        for _ in range(leg_length):
            edges.append((prev, label))
            prev = label
            label += 1
    return Tree(label, edges)


def pruefer_decode(seq) -> Tree:
    """Tree on len(seq)+2 vertices from a Pruefer sequence."""
    seq = tuple(seq)
    n = len(seq) + 2
    for x in seq:
        if not 0 <= x < n:
            raise ValueError(f"sequence entry {x} outside 0..{n - 1}")
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Tree(n, edges)


def pruefer_random(n: int, seed) -> Tree:
    """Seed-deterministic uniform random labeled tree on n vertices."""
    if n < 2:
        raise ValueError("pruefer_random requires n >= 2")
    rng = random.Random(seed)
    return pruefer_decode(rng.randrange(n) for _ in range(n - 2))


def enumerate_labeled_trees(n: int):
    """All n^(n-2) labeled trees on n vertices, in Pruefer order."""
    if n < 2:
        raise ValueError("enumeration requires n >= 2")
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration capped at n <= {ENUMERATION_LIMIT}")
    for seq in itertools.product(range(n), repeat=n - 2):
        yield pruefer_decode(seq)


def canonical_key(t: Tree) -> str:
    """Isomorphism-invariant string: equal keys iff the trees are isomorphic.

    Classic rooted-tree canonical form, rooted at the center (or at a
    virtual midpoint when the center is an adjacent pair).
    """
    n = t.n
    if n == 1:
        return "()"
    degree = [t.degree(v) for v in range(n)]
    remaining = n
    layer = [v for v in range(n) if degree[v] == 1]
    removed = [False] * n
    while remaining > 2:
        nxt = []
        for v in layer:
            removed[v] = True
        remaining -= len(layer)
        for v in layer:
            for w in t.neighbors(v):
                if not removed[w]:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    centers = sorted(layer)

    def shape(v: int, parent: int) -> str:
        subs = sorted(shape(w, v) for w in t.neighbors(v) if w != parent)
        return "(" + "".join(subs) + ")"

    if len(centers) == 1:
        return shape(centers[0], -1)
    u, v = centers
    return "".join(sorted((shape(u, v), shape(v, u))))


def cycle(n: int) -> Graph:
    """Cycle on vertices 0..n-1."""
    if n < 3:
        raise ValueError("cycle requires n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def hypercube(dim: int) -> Graph:
    """dim-dimensional hypercube on 2^dim vertices, labels as bit strings."""
    if dim < 1:
        raise ValueError("hypercube requires dim >= 1")
    n = 1 << dim
    edges = []
    for u in range(n):
        for bit in range(dim):
            v = u ^ (1 << bit)
            if u < v:
                edges.append((u, v))
    return Graph(n, edges)


def cocktail_party(k: int) -> Graph:
    """Complete multipartite graph with k parts of size 2 (vertices 2i, 2i+1)."""
    if k < 2:
        raise ValueError("cocktail_party requires k >= 2")
    n = 2 * k
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if u // 2 != v // 2
    ]
    return Graph(n, edges)


def diametrical_examples():
    """The four fixed graphs where every vertex has a unique farthest partner."""
    return [cycle(4), cycle(6), hypercube(3), cocktail_party(3)]


# Family token name -> (constructor, number of arguments, order of the graph
# its arguments build). The order is worked out from the arguments so that an
# oversized token is rejected before anything is built.
_FAMILIES = {
    "path": (path, 1, lambda n: n),
    "star": (star, 1, lambda n: n),
    "tndab": (center_pendant_tree, 4, lambda n, d, a, b: n),
    "spider": (spider, 2, lambda legs, length: legs * length + 1),
    "cycle": (cycle, 1, lambda n: n),
    "hypercube": (hypercube, 1, lambda dim: 1 << max(0, min(dim, 64))),  # no 2**huge
    "cocktail": (cocktail_party, 1, lambda k: 2 * k),
}


def parse_family(token: str) -> Graph:
    """Build a graph from a "name:arg,arg,..." family token."""
    name, sep, raw = token.partition(":")
    name = name.strip().lower()
    if name not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise ValueError(f"unknown family {name!r} (known: {known})")
    if not sep:
        raise ValueError(f"family {name!r} needs arguments, e.g. {name}:5")
    try:
        args = [int(part) for part in raw.split(",")]
    except ValueError:
        raise ValueError(f"family arguments must be integers, got {raw!r}") from None
    build, arity, order = _FAMILIES[name]
    if len(args) != arity:
        raise ValueError(f"family {name!r} takes {arity} argument(s), got {len(args)}")
    if order(*args) > MAX_ORDER:
        raise ValueError(f"family {token!r} has more than {MAX_ORDER} vertices")
    return build(*args)
