"""Graphs, trees, distances, and tree metadata: centers and the branches
hanging off them.

Vertices are integers 0..n-1 and every graph is simple and connected; both
properties are enforced at construction time so no later operation has to
re-check them. Trees additionally carry the n-1 edge invariant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

# Largest graph order accepted from input. Family tokens, edge-list and
# graph6 headers and tree ranges above it are rejected before anything is
# built: an eccentricity matrix on 1024 vertices already holds a million
# entries (a tree runs BFS from its peripheral vertices only, any other
# graph from every vertex), and a characteristic polynomial that neither
# the low-rank route nor a twin-class quotient shrinks (spiders, odd
# cycles) still costs n^4.
MAX_ORDER = 1024

# Largest --input file read, in bytes. An edge list of the complete graph at
# MAX_ORDER, 523,776 edge lines, takes about 5.3 MB.
MAX_INPUT_BYTES = 8 << 20


class Graph:
    """Simple connected undirected graph with sorted adjacency lists."""

    __slots__ = ("n", "adj", "edge_count")

    def __init__(self, n: int, edges):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        nbrs = [set() for _ in range(n)]
        count = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if v in nbrs[u]:
                raise ValueError(f"duplicate edge ({u},{v})")
            nbrs[u].add(v)
            nbrs[v].add(u)
            count += 1
        self.n = n
        self.adj = tuple(tuple(sorted(s)) for s in nbrs)
        self.edge_count = count
        if self._reachable_from_zero() != n:
            raise ValueError("graph must be connected")

    def _reachable_from_zero(self) -> int:
        seen = [False] * self.n
        seen[0] = True
        stack = [0]
        count = 1
        while stack:
            u = stack.pop()
            for w in self.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    stack.append(w)
        return count

    def neighbors(self, v: int):
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self):
        """Edges as (u, v) pairs with u < v, sorted."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, m={self.edge_count})"


class Tree(Graph):
    """Connected graph with exactly n-1 edges."""

    def __init__(self, n: int, edges):
        super().__init__(n, edges)
        if self.edge_count != n - 1:
            raise ValueError(f"tree on {n} vertices needs {n - 1} edges, got {self.edge_count}")


def bfs_distances(g: Graph, source: int):
    """Distance row from source, computed by breadth-first search."""
    if not 0 <= source < g.n:
        raise ValueError("source out of range")
    dist = [-1] * g.n
    dist[source] = 0
    frontier = [source]
    adj = g.adj
    while frontier:
        nxt = []
        for u in frontier:
            du1 = dist[u] + 1
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = du1
                    nxt.append(w)
        frontier = nxt
    return dist


def eccentricity_rows(g: Graph):
    """(ecc, rows): the eccentricities of g, and a dict from each vertex
    that can hold a kept entry of the eccentricity matrix to its BFS row.

    A kept entry d(u,v) = min(e(u), e(v)) <= e(u) makes v farthest from u,
    or u farthest from v. In a tree every vertex farthest from some vertex
    is peripheral (an end of a diameter), so every kept entry has a
    peripheral endpoint. A tree (a connected graph with n - 1 edges) runs
    the double sweep: BFS from 0 finds a farthest vertex a, BFS from a a
    farthest vertex b, and e(v) = max(d(a,v), d(b,v)). Its sources are then
    the peripheral vertices, e(v) = diameter, and the rows of a and b are
    reused: 1 + |P| BFS runs for the set P of peripheral vertices. Any other
    graph runs BFS from every vertex.
    """
    n = g.n
    if g.edge_count != n - 1:
        rows = {s: bfs_distances(g, s) for s in range(n)}
        return tuple(map(max, rows.values())), rows
    d0 = bfs_distances(g, 0)
    a = d0.index(max(d0))
    da = bfs_distances(g, a)
    diameter = max(da)
    b = da.index(diameter)
    db = bfs_distances(g, b)
    ecc = tuple(map(max, da, db))
    ends = {a: da, b: db}
    rows = {v: ends[v] if v in ends else bfs_distances(g, v) for v in range(n) if ecc[v] == diameter}
    return ecc, rows


@dataclass(frozen=True)
class TreeMeta:
    """Eccentricities, diameter, centers, branches and distinguished vertices.

    branch[v] names the component of T minus its center that holds v: for
    even diameter the center's neighbor on v's path from the center (the
    center is keyed by itself), for odd diameter the nearer of the two
    centers. distinguished holds, for even diameter, the branches that
    reach depth diameter/2, i.e. the center's neighbors on some diametrical
    path. For odd diameter the set is empty.
    """

    ecc: tuple
    diameter: int
    centers: tuple
    branch: tuple
    distinguished: frozenset


def tree_meta(t: Tree, ecc: tuple) -> TreeMeta:
    """Centers, branches and distinguished vertices from the eccentricities.

    With even diameter 2d and center c, e(v) = d(c,v) + d, so the vertices
    at depth d from the center are the peripheral ones, e(v) = 2d.
    """
    diameter = max(ecc)
    radius = min(ecc)
    centers = tuple(v for v in range(t.n) if ecc[v] == radius)
    odd = diameter % 2 == 1
    branch = [-1] * t.n
    if odd:
        if len(centers) != 2 or centers[1] not in t.adj[centers[0]]:
            raise RuntimeError("odd-diameter tree must have two adjacent centers")
        roots = centers
    else:
        if len(centers) != 1:
            raise RuntimeError("even-diameter tree must have a unique center")
        (u0,) = centers
        branch[u0] = u0
        roots = t.adj[u0]
    for r in roots:
        branch[r] = r
    stack = list(roots)
    while stack:
        u = stack.pop()
        for w in t.adj[u]:
            if branch[w] < 0:
                branch[w] = branch[u]
                stack.append(w)
    # a lone vertex (diameter 0) has no branches
    if odd or not diameter:
        return TreeMeta(ecc, diameter, centers, tuple(branch), frozenset())
    distinguished = frozenset(branch[w] for w in range(t.n) if ecc[w] == diameter)
    return TreeMeta(ecc, diameter, centers, tuple(branch), distinguished)


def diametrical_pairing(ecc, rows):
    """The involution pairing each vertex with its unique diametral partner,
    or None when some vertex has zero or several partners.

    ecc and rows are eccentricity_rows(g): a vertex below the diameter has
    no partner, and every other vertex has its BFS row (a graph other than
    a tree has every row, so its check runs one BFS per vertex)."""
    diameter = max(ecc)
    pairing = {}
    for v, e in enumerate(ecc):
        if e != diameter or rows[v].count(diameter) != 1:
            return None
        pairing[v] = rows[v].index(diameter)
    return pairing


# str.splitlines' line boundaries, where _data_lines ends its text blocks
_BREAK = re.compile("[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def _data_lines(text: str):
    """The stripped lines of text, without blank and "#" comment lines, read
    from blocks of about 64 Ki characters so that no list holds all lines.
    A block ending inside a CR LF pair leaves an empty line, which is blank."""
    start = 0
    while start < len(text):
        cut = _BREAK.search(text, start + (1 << 16))
        end = cut.end() if cut else len(text)
        for ln in text[start:end].splitlines():
            ln = ln.strip()
            if ln and not ln.startswith("#"):
                yield ln
        start = end


def read_graph(text: str) -> Graph:
    """Parse an edge list, or a graph6 line when the first data line is not
    an "n m" header; a graph6 input holds that one data line only. Of an
    edge list's lines, at most m are kept; the rest are only counted."""
    lines = _data_lines(text)
    first = next(lines, None)
    if first is None:
        raise ValueError("empty input")
    head = first.split()
    if not (len(head) == 2 and all(p.lstrip("-").isdigit() for p in head)):
        found = 1 + sum(1 for _ in lines)
        if found > 1:
            raise ValueError(f"graph6 input must hold one graph; found {found} data lines")
        return read_graph6(first)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError("first line must be 'n m'") from None
    if n < 1 or m < 0:
        raise ValueError(f"header {first.strip()!r} needs an order n >= 1 and an edge count m >= 0")
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds the limit of {MAX_ORDER}")
    if m > n * (n - 1) // 2:
        raise ValueError(f"a graph of order {n} has at most {n * (n - 1) // 2} edges; the header declares {m}")
    kept, found = [], 0
    for ln in lines:
        found += 1
        if found <= m:
            kept.append(ln)
    if found != m:
        raise ValueError(f"expected {m} edge lines, found {found}")
    edges = []
    for ln in kept:
        try:
            u, v = map(int, ln.split())
        except ValueError:
            raise ValueError(f"bad edge line: {ln!r}") from None
        edges.append((u, v))
    return Graph(n, edges)


def to_edge_list(g: Graph) -> str:
    """Serialize a graph in the edge-list text format."""
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines)


def read_graph6(line: str) -> Graph:
    """Decode one graph6 line into a Graph.

    The order is one character up to 62; from 63 on it is "~" and three
    characters (18 bits), or "~~" and six (36 bits), big-endian. The body
    that follows is exactly ceil(n(n-1)/12) characters, and the bits after
    the n(n-1)/2 edge bits are zero.
    """
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ValueError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise ValueError("invalid graph6 character")
    # the order's digits are data[start:head]
    if data[0] != 63:
        start, head = 0, 1
    elif len(data) > 1 and data[1] == 63:
        start, head = 2, 8
    else:
        start, head = 1, 4
    if len(data) < head:
        raise ValueError("graph6 string too short")
    n = 0
    for b in data[start:head]:
        n = (n << 6) | b
    if n < 1:
        raise ValueError("graph6 graph must have at least one vertex")
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds the limit of {MAX_ORDER}")
    need = n * (n - 1) // 2
    body, want = len(data) - head, (need + 5) // 6
    if body != want:
        raise ValueError(f"graph6 body of order {n} has {body} characters; expected {want}")
    bits = []
    for b in data[head:]:
        for k in range(5, -1, -1):
            bits.append((b >> k) & 1)
    if any(bits[need:]):
        raise ValueError(f"graph6 padding bits after the {need} edge bits of order {n} must be zero")
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                edges.append((i, j))
            pos += 1
    return Graph(n, edges)
