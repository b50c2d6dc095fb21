"""Small-graph kernel: bitset adjacency, isomorphism, graph6, enumeration.

A :class:`Graph` is an immutable value: a vertex count ``n`` plus one integer
bitmask per vertex holding that vertex's neighborhood. Every operation
returns a new graph, so values can be shared freely. The vertex cap
(default 32) keeps each row inside one machine word.

Canonical forms are exact: the key of a graph is its order followed by the
lexicographically minimal upper-triangle bit string over all vertex
relabelings. Two graphs are isomorphic iff their keys are equal. The search
that finds it places a maximum independent set first, as a set, since its
columns are zero in any order, and fixes that set's order only as far as
the later columns read it. Non-isomorphic enumeration uses canonical
augmentation, which keeps memory flat: a one-vertex extension is kept iff
the parent's own minimal labeling (the least perm that reaches the minimal
string), followed by the new vertex, is a minimal labeling of the
extension. Two exact tests reject most extensions before they are labeled:
a swap of two twins of the parent, and a greedy labeling whose bits fall
below the pinned one's. Either exhibits a labeling below the pinned one, so
the pinned test would fail; an extension that passes both is searched in
full.
"""

from __future__ import annotations

import re
from functools import lru_cache, reduce
from typing import Iterable, Iterator

from .errors import (
    BadParameter,
    CapExceeded,
    LoopRejected,
    MalformedHeader,
    TrailingGarbage,
    TruncatedBody,
    UnknownName,
    VertexOutOfRange,
)

VERTEX_CAP = 32
ENUM_CAP = 10  # guard for exhaustive non-isomorphic enumeration


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    ``adj[v]`` is the neighborhood of ``v`` as a bitmask. Construction
    validates the vertex cap, symmetry, absence of loops, and that no bit
    index reaches n; the library's own derived graphs, valid by
    construction, skip the checks (``_built``).
    """

    __slots__ = ("n", "adj", "_bits", "_perm", "_p4s")

    def __init__(self, n: int, adj: tuple[int, ...]):
        if n > VERTEX_CAP:
            raise CapExceeded(f"n={n} exceeds cap {VERTEX_CAP}")
        if n < 0 or len(adj) != n:
            raise VertexOutOfRange(f"adjacency has {len(adj)} rows for n={n}")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise VertexOutOfRange(f"row {v} has a bit >= n={n}")
            if (row >> v) & 1:
                raise LoopRejected(f"loop at vertex {v}")
        for v in range(n):
            row = adj[v]
            while row:
                u = (row & -row).bit_length() - 1
                row &= row - 1
                if not (adj[u] >> v) & 1:
                    raise VertexOutOfRange(f"asymmetric edge ({v},{u})")
        self.n = n
        self.adj = tuple(adj)
        self._bits = None
        self._perm = None
        self._p4s = None

    # -- basic accessors ---------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return _bits_to_tuple(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as ascending pairs, in lexicographic order."""
        out = []
        for v in range(self.n):
            row = self.adj[v] >> (v + 1)
            u = v + 1
            while row:
                if row & 1:
                    out.append((v, u))
                row >>= 1
                u += 1
        return out

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.adj) // 2

    # -- derived graphs ----------------------------------------------------

    def complement(self) -> Graph:
        full = (1 << self.n) - 1
        return _built(
            self.n, tuple((full ^ row ^ (1 << v)) for v, row in enumerate(self.adj))
        )

    def induced(self, vertices: Iterable[int]) -> Graph:
        """Subgraph induced on ``vertices``; new indices follow ascending order."""
        vs = sorted(set(vertices))
        if vs and (vs[0] < 0 or vs[-1] >= self.n):
            raise VertexOutOfRange(f"vertex set {vs} not within 0..{self.n - 1}")
        pos = {v: i for i, v in enumerate(vs)}
        rows = []
        for v in vs:
            row = 0
            r = self.adj[v]
            for u in vs:
                if (r >> u) & 1:
                    row |= 1 << pos[u]
            rows.append(row)
        return _built(len(vs), tuple(rows))

    def induced_mask(self, mask: int) -> Graph:
        return self.induced(_bits_to_tuple(mask))

    def delete_vertex(self, v: int) -> Graph:
        return self.induced([u for u in range(self.n) if u != v])

    # -- connectivity ------------------------------------------------------

    def component_masks(self) -> list[int]:
        """Vertex masks of the connected components, by smallest member."""
        return _component_masks(self.adj, (1 << self.n) - 1)

    def is_connected(self) -> bool:
        return len(self.component_masks()) <= 1

    # -- canonical form ----------------------------------------------------

    @property
    def canonical_bits(self) -> int:
        """Minimal upper-triangle bit string packed into an int (cached with
        the labeling that reaches it, which ``canonical_form`` reads)."""
        if self._bits is None:
            self._bits, self._perm = _min_bits(self.adj)
        return self._bits

    def canonical_key(self) -> bytes:
        return _pack_key(self.n, self.canonical_bits)

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph({self.n}, {self.edges()})"

    def __reduce__(self):
        return (Graph, (self.n, self.adj))


# ---------------------------------------------------------------------------
# construction


def _built(n: int, adj: tuple[int, ...]) -> Graph:
    """A graph on rows that are valid by construction, derived from valid
    graphs within the vertex cap, with none of the constructor's checks."""
    g = object.__new__(Graph)
    g.n = n
    g.adj = adj
    g._bits = g._perm = g._p4s = None
    return g


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicate pairs collapse."""
    if n > VERTEX_CAP:  # before the rows, whose ints grow with n
        raise CapExceeded(f"n={n} exceeds cap {VERTEX_CAP}")
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise LoopRejected(f"loop ({u},{v})")
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRange(f"edge ({u},{v}) outside 0..{n - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def empty_graph(n: int) -> Graph:
    return from_edges(n, ())


def complete_graph(n: int) -> Graph:
    return empty_graph(n).complement()


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise VertexOutOfRange(f"cycle needs n >= 3, got {n}")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_multipartite(parts: Iterable[int]) -> Graph:
    """Complete multipartite graph; parts occupy consecutive index blocks."""
    return union_all(*map(complete_graph, parts)).complement()


def complete_bipartite(a: int, b: int) -> Graph:
    return complete_multipartite((a, b))


def headless_spider(j: int, thick: bool = False) -> Graph:
    """Headless spider: body clique 0..j-1, legs j..2j-1 matched to the body.

    Thin legs see exactly their partner; thick legs see the rest of the body.
    """
    if j < 2:
        raise BadParameter(f"spider parameter j={j} < 2")
    if 2 * j > VERTEX_CAP:  # before the edge list, which grows as j^2
        raise CapExceeded(f"spider order {2 * j} exceeds cap {VERTEX_CAP}")
    edges = [(a, b) for a in range(j) for b in range(a + 1, j)]
    for i in range(j):
        if thick:
            edges.extend((b, j + i) for b in range(j) if b != i)
        else:
            edges.append((i, j + i))
    return from_edges(2 * j, edges)


def _attach_head(base: Graph, attach: int, head: Graph) -> Graph:
    """``base`` plus ``head`` shifted by |V_base|, with every vertex of the
    mask ``attach`` (base vertices only) joined to every head vertex."""
    n = base.n + head.n
    if n > VERTEX_CAP:
        raise CapExceeded(f"n={n} exceeds cap {VERTEX_CAP}")
    hmask = ((1 << head.n) - 1) << base.n
    rows = [row | hmask if (attach >> v) & 1 else row for v, row in enumerate(base.adj)]
    rows.extend((row << base.n) | attach for row in head.adj)
    return _built(n, tuple(rows))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; g keeps its indices, h is shifted by |V_g|."""
    return _attach_head(g, 0, h)


def join(g: Graph, h: Graph) -> Graph:
    """Join: disjoint union plus all cross edges."""
    return _attach_head(g, (1 << g.n) - 1, h)


def union_all(*graphs: Graph) -> Graph:
    return reduce(disjoint_union, graphs, empty_graph(0))


def join_all(*graphs: Graph) -> Graph:
    return reduce(join, graphs, empty_graph(0))


# ---------------------------------------------------------------------------
# mask helpers (shared with the recognizers)


def _mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _bits_to_tuple(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


def _component_masks(adj, mask: int) -> list[int]:
    comps = []
    rest = mask
    while rest:
        seed = rest & -rest
        comp = seed
        frontier = seed
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = adj[v] & mask & ~comp
            comp |= new
            frontier |= new
        comps.append(comp)
        rest &= ~comp
    return comps


def _co_rows(adj, mask: int) -> list[int]:
    """Complement rows restricted to ``mask``: row v holds the non-neighbors
    of v inside ``mask``, v itself excluded."""
    return [mask & ~row & ~(1 << v) for v, row in enumerate(adj)]


# ---------------------------------------------------------------------------
# canonical labeling

# The search places vertices one position at a time, always extending only
# the partial labelings whose bit-string prefix is minimal. Bit order is the
# graph6 column order (0,1),(0,2),(1,2),(0,3),..., so all bits among placed
# vertices form a prefix, and the k-th placed vertex adds its column: its
# adjacency to the k vertices before it, first vertex highest. It runs in two
# phases, after the ordered-partition refinement of McKay and Piperno
# ("Practical graph isomorphism, II", 2014), applied to the minimal string.
#
# Phase 1, the independent prefix. A column is zero as long as some unplaced
# vertex sees no placed one, so the first alpha(G) columns are zero and the
# first alpha(G) vertices form a maximum independent set S; those bits do
# not depend on the order of S. Phase 1 grows independent sets in ascending
# vertex order, one state per set, until none grows: the sets left are the
# maximum ones.
#
# Phase 2, the tail. Each state keeps S as cells, an ordered partition whose
# orders are the orders of S still open, and places the other vertices. Over
# the open orders, a candidate u's least column reads each cell's
# non-neighbours of u and then its neighbours, followed by u's bits against
# the tail; so a state's minimal column is read cell by cell (the least count
# of neighbours in the cell) and then down the tail, narrowing the vertices
# that hold it. Placing a holder v keeps only the open orders that give v
# that column: every cell splits into v's non-neighbours followed by its
# neighbours. A later split stays inside a cell, so it never moves a vertex
# across an earlier one and every placed column stays as it was read. A
# minimal labeling is thus exactly an order of S that its state's final cells
# allow followed by its tail, and both phases give the same bits as placing
# S one vertex at a time.
#
# A state's key is one int. Block u, m bits at u*m, holds u's adjacency to
# the tail (first tail vertex highest) for u in S or unplaced; placed tail
# vertices keep a zero block, and the placed mask sits above the blocks. The
# cells group S by block, in block order, so equal keys mean equal cells and
# equal tail columns: identical futures, merged. Placing v shifts every block
# up one bit and adds v's adjacency as each block's last bit, in O(1); a tail
# column has fewer than m bits, so no block spills into the next.
#
# Twins (true or false, in the whole graph) are placed in index order only:
# swapping two unplaced twins is an automorphism that fixes the placed
# prefix, so the subtree of the higher twin repeats the lower twin's bits,
# and the least perm keeps twins in index order.
#
# Automorphisms. Twin-free symmetric graphs (spiders, unions of C5) tie in
# every state: thin7 reached 5,040 final states, all images of one another.
# So once a level holds more than PRUNE_STATES states with at least
# PRUNE_LEFT vertices left to place (no labeling of order 8 or less holds
# more than 30; below PRUNE_LEFT a state's subtree is too small to repay the
# pairing), each state whose holders would start at least PRUNE_FRESH new
# states (a holder whose child merges by key costs nothing) prunes them. It
# pairs its lowest such holder u with each other one v not yet in u's orbit:
# both sides individualize their vertex on the state's ordered partition
# (the tail as singletons, the cells, the unplaced vertices), refine to
# equitable partitions, and individualize the first vertex of their first
# cell of two or more until both are discrete. The map read off is kept only
# if it sends every row onto a row, so a failed pairing prunes nothing. A
# kept map that fixes the state's tail pointwise and S setwise maps the state
# onto itself (the cells are S grouped by adjacency to the tail), so its
# holders' children have one future up to that map, and a holder that the
# kept maps send to a lower holder is dropped: the bits stay the same.
#
# Perm. A level is built from its states in order and their holders in
# ascending order, so of two states with one key the first has the
# lexicographically least tail, and keeping it keeps the least perm: their
# cells are equal and come first. Without pruning, the returned perm is the
# least over the final states, each cell sorted ascending. That is the least
# perm of any minimal labeling, the one enumerate_graphs reads, and the first
# one a search placing every vertex one at a time would find. A search that
# dropped a holder recovers it instead. Every minimal labeling below a state
# of the level where pruning engaged is an automorphic image of an explored
# final state's, through the maps that dropped holders, the twin swaps, the
# tail maps of states merged by key from that level on (equal keys make the
# map that sends one tail onto the other and fixes every other vertex an
# automorphism) and the maps between final states (equal bits); and the least
# perm lies below such a state, by the argument above. The orbit of one final
# state's perm under the group these maps generate thus holds the least perm
# and only minimal labelings, and the least perm is its least image, read off
# a stabilizer chain whose base is that perm (Schreier-Sims).
#
# The search stops with CapExceeded once its steps pass LABEL_CAP: each set
# or state it builds is a step, and so is each cell it reads, since a
# state's read costs about as much per cell as building a child, each kept
# map it checks and each cell that pairing and refinement read.


LABEL_CAP = 2_000_000  # search steps per canonical search
PRUNE_STATES, PRUNE_LEFT, PRUNE_FRESH = 32, 4, 3  # when pruning engages (above)


def _twin_before(adj) -> list[int]:
    """For each vertex, the previous vertex of its twin class, or -1.

    False twins share N(v), true twins share N[v]. No open neighborhood
    equals a closed one, and no vertex has both kinds of twin, so one dict
    keyed by both forms finds each vertex's class.
    """
    last = {}
    before = []
    for v, row in enumerate(adj):
        closed = row | (1 << v)
        prev = last.get(row, last.get(closed, -1))
        before.append(prev)
        last[row] = last[closed] = v
    return before


def _min_column(key: int, k: int, m: int, cand: int) -> int:
    """The minimal column among the vertices ``cand``, read down the first
    ``k`` planes of a packed key (plane j at offset j*m holds the row of the
    j-th placed vertex), packed with the vertices holding it as
    ``column << m | holders``."""
    col = 0
    rest = ~key
    for _ in range(k):
        zeros = rest & cand
        col <<= 1
        if zeros:
            cand = zeros
        else:
            col |= 1
        rest >>= m
    return (col << m) | cand


def _over_cap(m: int) -> CapExceeded:
    return CapExceeded(f"canonical labeling of n={m} passed {LABEL_CAP} search steps")


def _independent_prefix(adj, lower) -> tuple[list[int], int]:
    """Phase 1: the maximum independent sets whose twins come in index order
    (``lower[v]`` is the bit of v's previous twin), and the sets grown.

    A state is (set, the vertices above its last that see none of it), so
    each set is grown once, from its ascending prefix.
    """
    m = len(adj)
    level = [(0, (1 << m) - 1)]
    grown = 0
    while True:
        nxt = []
        for s, free in level:
            while free:
                low = free & -free
                free ^= low
                v = low.bit_length() - 1
                if not lower[v] & ~s:
                    nxt.append((s | low, free & ~adj[v]))
        if not nxt:
            return [s for s, _ in level], grown
        grown += len(nxt)
        if grown > LABEL_CAP:
            raise _over_cap(m)
        level = nxt


def _split(cells: tuple[int, ...], splits: tuple[int, ...], row: int) -> tuple[int, ...]:
    """``cells`` with each cell of ``splits`` split into its vertices
    outside ``row``, followed by those in it."""
    for c in splits:
        i = cells.index(c)
        part = c & row
        cells = cells[:i] + (c ^ part, part) + cells[i + 1:]
    return cells


def _refine(adj, cells: list[int], queue: list[int]) -> int:
    """Refine the ordered partition ``cells`` (masks, changed in place) until
    it is equitable, splitting by the masks in ``queue`` and by every cell a
    split makes; returns the cells read.

    A cell splits by its vertices' neighbour counts in the splitter, lowest
    count first, in place. Every choice reads counts and positions only, so
    two partitions that an automorphism maps onto each other cell by cell
    refine to two that it still maps so.
    """
    steps = 0
    while queue:
        w = queue.pop()
        j = 0
        while j < len(cells):
            c = cells[j]
            steps += 1
            if c & (c - 1):
                parts = {}
                todo = c
                while todo:
                    low = todo & -todo
                    todo ^= low
                    t = (adj[low.bit_length() - 1] & w).bit_count()
                    parts[t] = parts.get(t, 0) | low
                if len(parts) > 1:
                    parts = [parts[t] for t in sorted(parts)]
                    cells[j:j + 1] = parts
                    queue.extend(parts)
                    j += len(parts)
                    continue
            j += 1
    return steps


def _individualize(adj, cells: list[int], x: int) -> int:
    """Split ``x`` off in front of its cell of the equitable ``cells`` and
    refine; returns the cells read."""
    low = 1 << x
    i = next(j for j, c in enumerate(cells) if c & low)
    if cells[i] != low:
        cells[i:i + 1] = [low, cells[i] ^ low]
    return _refine(adj, cells, [low])


def _pair(adj, cells: list[int], u: int, v: int) -> tuple[tuple[int, ...] | None, int]:
    """An automorphism that maps ``u`` to ``v`` and each cell of the
    equitable partition ``cells`` onto itself, or None; and the cells read.

    Both sides individualize their vertex, then the first vertex of their
    first cell of two or more, refining after each, until both partitions
    are discrete; the map reads one off the other, cell by cell. It is kept
    only if it sends every row onto a row, so a None proves nothing, except
    when ``u`` and ``v`` lie in two cells: then no such map exists.
    """
    if not any(c >> u & 1 and c >> v & 1 for c in cells):
        return None, len(cells)
    a, b = list(cells), list(cells)
    steps = _individualize(adj, a, u) + _individualize(adj, b, v)
    while True:
        if len(a) != len(b) or any(x.bit_count() != y.bit_count() for x, y in zip(a, b)):
            return None, steps
        i = next((j for j, c in enumerate(a) if c & (c - 1)), None)
        if i is None:
            break
        x, y = a[i] & -a[i], b[i] & -b[i]
        steps += _individualize(adj, a, x.bit_length() - 1)
        steps += _individualize(adj, b, y.bit_length() - 1)
    g = [0] * len(adj)
    for x, y in zip(a, b):
        g[x.bit_length() - 1] = y.bit_length() - 1
    for w, row in enumerate(adj):
        image = 0
        while row:
            low = row & -row
            row ^= low
            image |= 1 << g[low.bit_length() - 1]
        if image != adj[g[w]]:
            return None, steps
    return tuple(g), steps


def _orbit_holders(adj, placed, chain, cells, hold, fresh, gens, onto) -> tuple[int, int]:
    """The holders ``fresh`` (a subset of the state's holders ``hold``)
    that automorphism pruning keeps, and the steps it took.

    ``gens`` lists the kept automorphisms as (moved mask, map); it grows by
    the ones paired here. ``onto`` maps each independent set S to how many
    of them it has checked and the ones that map S onto itself. Those that
    also fix the state's tail pointwise map the state onto itself: the
    cells are S grouped by adjacency to the tail, so each cell goes onto
    itself. Two holders in one orbit of the group they generate therefore
    have children with one future, and a holder that one of them maps to a
    lower holder is dropped. The lowest fresh holder is paired with each
    other fresh holder not yet in its orbit.
    """
    s = 0
    for c in cells:
        s |= c
    fixed = placed & ~s  # the tail
    mine = onto.setdefault(s, [0, []])
    for moved, g in gens[mine[0]:]:
        if all(s >> g[x] & 1 for x in _bits_to_tuple(moved & s)):
            mine[1].append((moved, g))
    steps = len(gens) - mine[0] + len(mine[1])
    mine[0] = len(gens)
    orbit = [1 << v for v in range(len(adj))]

    def unite(moved, g):
        for v in _bits_to_tuple(hold & moved):
            w = g[v]
            if not orbit[v] >> w & 1:
                joined = orbit[v] | orbit[w]
                for x in _bits_to_tuple(joined):
                    orbit[x] = joined

    for moved, g in mine[1]:
        if not moved & fixed:
            unite(moved, g)
    u = (fresh & -fresh).bit_length() - 1
    base = None
    for v in _bits_to_tuple(fresh)[1:]:
        if orbit[u] >> v & 1:
            continue
        if base is None:
            base = [1 << t for t in _tail(chain)] + list(cells) + [(1 << len(adj)) - 1 & ~placed]
            steps += _refine(adj, base, list(base))
        g, work = _pair(adj, base, u, v)
        steps += work
        if g is not None:
            moved = _mask_of(w for w, x in enumerate(g) if w != x)
            gens.append((moved, g))
            mine[1].append((moved, g))
            mine[0] += 1
            unite(moved, g)
    keep = 0
    for v in _bits_to_tuple(fresh):
        if (orbit[v] & -orbit[v]).bit_length() - 1 == v:
            keep |= 1 << v
    return keep, steps


def _least_image(perm: tuple[int, ...], gens) -> tuple[int, ...]:
    """The lexicographically least image of ``perm`` (every vertex once)
    under the group that the maps ``gens`` generate.

    Schreier–Sims builds a stabilizer chain whose base is ``perm``: level i
    holds the orbit of ``perm[i]`` under the maps that fix ``perm[:i]``,
    each point with a map that sends ``perm[i]`` there. The least image
    then takes at each level the point whose image is least under the map
    chosen so far, and composes its map in.
    """
    k = len(perm)
    ident = tuple(range(k))

    def compose(a, b):  # b, then a
        return tuple(map(a.__getitem__, b))

    def inverse(a):
        inv = [0] * k
        for x, y in enumerate(a):
            inv[y] = x
        return tuple(inv)

    strong = [[] for _ in range(k)]  # level i: maps whose first moved base point is perm[i]
    trans = [{b: (ident, ident)} for b in perm]  # level i, point: (map, its inverse)
    sifted = [set() for _ in range(k)]  # level i: (point, id of map) pairs whose Schreier map sifted

    def strip(g, i):
        """g divided by the transversals from level i on, and the level
        where it left the chain (k once it is the identity)."""
        for j in range(i, k):
            x = g[perm[j]]
            if x != perm[j]:
                if x not in trans[j]:
                    return g, j
                g = compose(trans[j][x][1], g)
        return g, k

    def close(i):  # the orbit of perm[i] under the maps of level i and above
        level = trans[i]
        maps = [s for j in range(i, k) for s in strong[j]]
        todo = list(level)
        while todo:
            y = todo.pop()
            for s in maps:
                z = s[y]
                if z not in level:
                    u = compose(s, level[y][0])
                    level[z] = (u, inverse(u))
                    todo.append(z)

    def schreier(top):
        """The first Schreier map at or below level ``top`` that does not
        sift, stripped, or the identity at level k."""
        for i in range(top, -1, -1):
            maps = [s for j in range(i, k) for s in strong[j]]
            for y, (u, _) in list(trans[i].items()):
                for s in maps:
                    if (y, id(s)) not in sifted[i]:
                        sifted[i].add((y, id(s)))
                        h, j = strip(compose(trans[i][s[y]][1], compose(s, u)), i + 1)
                        if j < k:
                            return h, j
        return ident, k

    for g in gens:
        g, j = strip(g, 0)
        while j < k:
            strong[j].append(g)
            for i in range(j, -1, -1):
                close(i)
            g, j = schreier(j)
    c = ident
    for i in range(k):
        y = min(trans[i], key=lambda z: c[z])
        c = compose(c, trans[i][y][0])
    return tuple(c[b] for b in perm)


def _min_bits(adj) -> tuple[int, tuple[int, ...]]:
    """Return (bits, perm) for the minimal labeling; ``perm`` holds vertex
    ids in placement order, the least one of any minimal labeling.

    Phase 1 finds the sets S (see above). Phase 2 maps each packed key to
    (chain, cells, live): the chain (parent chain, vertex) holds the tail,
    the cells are masks in order, and ``live`` masks the blocks of S and of
    the unplaced vertices. Each state's minimal column is read once, cell by
    cell and then down the tail blocks of the holders left. A state above
    the least column read so far at its level is dropped, and a lower one
    empties the level; a state that ties builds one child per holder. The
    holders share their count of neighbours in every cell, so the cells
    that split are the ones where that count is neither 0 nor the size.

    Once pruning engages (see above), a tied state first drops the holders
    that ``_orbit_holders`` finds in the orbit of a lower one, and each
    child merged by key is noted with the state it merged into. A search
    that dropped a holder returns ``_least_image`` of the first final
    state's perm under the kept maps, the twin swaps, the merged tails' maps
    and the maps between final states; one that dropped none returns the
    least final perm as before.
    """
    m = len(adj)
    if m == 0:
        return 0, ()
    lower = [1 << t if t >= 0 else 0 for t in _twin_before(adj)]
    sets, steps = _independent_prefix(adj, lower)
    alpha = sets[0].bit_count()
    if alpha == m:  # edgeless: every labeling is minimal
        return 0, tuple(range(m))
    full = (1 << m) - 1
    top = m * m
    every = (1 << top) - 1  # all m blocks
    others = [every ^ (full << (v * m)) for v in range(m)]  # all blocks but v's
    non = {1 << v: ~row for v, row in enumerate(adj)}
    spread = [sum(1 << (u * m) for u in _bits_to_tuple(row)) for row in adj]
    states = {s << top: (None, (s,), every) for s in sets}
    bits = 0
    gens = None  # the kept automorphisms, once pruning engages
    onto = {}  # independent set: (gens checked, the gens mapping it onto itself)
    merged = []  # (kept chain, merged chain) pairs from then on
    pruned = False
    for k in range(alpha, m):
        if gens is None and len(states) > PRUNE_STATES and m - k >= PRUNE_LEFT:
            gens = []
        nxt = {}
        best = None
        for key, (chain, cells, live) in states.items():
            placed = key >> top
            hold = full & ~placed
            col = 0
            splits = ()
            for c in cells:
                if c & (c - 1):
                    size = c.bit_count()
                    least = size + 1
                    todo = hold
                    while todo:
                        low = todo & -todo
                        todo ^= low
                        t = (adj[low.bit_length() - 1] & c).bit_count()
                        if t < least:
                            least, hold = t, low
                        elif t == least:
                            hold |= low
                    if 0 < least < size:
                        splits += (c,)
                    col = (col << size) | ((1 << least) - 1)
                else:
                    zeros = hold & non[c]
                    col <<= 1
                    if zeros:
                        hold = zeros
                    else:
                        col |= 1
            if hold & (hold - 1):  # the least tail column among the holders
                least = full
                todo = hold
                while todo:
                    low = todo & -todo
                    todo ^= low
                    t = (key >> ((low.bit_length() - 1) * m)) & full
                    if t < least:
                        least, hold = t, low
                    elif t == least:
                        hold |= low
            else:
                least = (key >> ((hold.bit_length() - 1) * m)) & full
            col = (col << (k - alpha)) | least
            steps += len(cells)
            if best is None or col < best:
                best = col
                nxt = {}
            elif col > best:
                continue
            shifted = key << 1
            if gens is not None and hold & (hold - 1):
                # holders whose children would be new states; the others
                # merge by key, so pairing them saves nothing
                fresh = 0
                seen = set()
                for v in _bits_to_tuple(hold):
                    if not lower[v] & ~placed:
                        key2 = ((shifted | spread[v]) & live & others[v]) | ((placed | 1 << v) << top)
                        if key2 not in nxt and key2 not in seen:
                            seen.add(key2)
                            fresh |= 1 << v
                if fresh.bit_count() >= PRUNE_FRESH:
                    keep, work = _orbit_holders(adj, placed, chain, cells, hold, fresh, gens, onto)
                    steps += work
                    pruned |= keep != fresh
                    hold ^= fresh ^ keep
            while hold:
                low = hold & -hold
                hold ^= low
                v = low.bit_length() - 1
                if lower[v] & ~placed:  # a lower twin is unplaced
                    continue
                steps += 1
                live2 = live & others[v]
                key2 = ((shifted | spread[v]) & live2) | ((placed | low) << top)
                if key2 in nxt:
                    if gens is not None:
                        merged.append((nxt[key2][0], (chain, v)))
                    continue
                if splits:
                    nxt[key2] = ((chain, v), _split(cells, splits, adj[v]), live2)
                else:
                    nxt[key2] = ((chain, v), cells, live2)
            if steps > LABEL_CAP:
                raise _over_cap(m)
        bits = (bits << k) | best
        states = nxt
    perms = [sum(map(_bits_to_tuple, cells), ()) + _tail(chain)
             for chain, cells, _ in states.values()]
    if not pruned:
        return bits, min(perms)
    maps = [g for _, g in gens]
    maps += [_map(m, ((t, v), (v, t))) for v, t in enumerate(_twin_before(adj)) if t >= 0]
    maps += [_map(m, zip(_tail(other), _tail(kept))) for kept, other in merged]
    maps += [_map(m, zip(perms[0], p)) for p in perms[1:]]
    return bits, _least_image(perms[0], maps)


def _tail(chain) -> tuple[int, ...]:
    """The vertices of a chain (parent chain, vertex), first placed first."""
    tail = []
    while chain:
        chain, v = chain
        tail.append(v)
    return tuple(reversed(tail))


def _map(m: int, pairs) -> tuple[int, ...]:
    """The map on 0..m-1 that sends x to y for each (x, y) in ``pairs`` and
    fixes every other point."""
    g = list(range(m))
    for x, y in pairs:
        g[x] = y
    return tuple(g)


def _column(row: int, perm) -> int:
    """The bits of ``row`` read in ``perm`` order, first vertex highest."""
    col = 0
    for w in perm:
        col = (col << 1) | ((row >> w) & 1)
    return col


def _greedy_below(adj, cols) -> bool:
    """True when a greedy labeling of ``adj`` has bits below the labeling
    whose k-th column is ``cols[k]``, which then is not minimal.

    From each start vertex it places the lowest unplaced vertex of minimal
    column, carrying the holders of that column as ``_min_bits`` does (plane
    k of ``key`` is the row of the k-th placed vertex). A start is dropped
    at its first column above ``cols``; False means no start went below,
    not that ``cols`` is minimal.
    """
    m = len(adj)
    full = (1 << m) - 1
    for s in range(m):
        key = placed = 0
        col, cand, low = 0, full, 1 << s
        for k in range(m):
            if col != cols[k]:
                if col < cols[k]:
                    return True
                break
            v = low.bit_length() - 1
            key |= adj[v] << (k * m)
            placed |= low
            rest = cand ^ low
            apart = rest & ~adj[v]
            if apart:
                col, cand = col << 1, apart
            elif rest:
                col, cand = (col << 1) | 1, rest
            elif placed != full:
                col = _min_column(key, k + 1, m, full & ~placed)
                col, cand = col >> m, col & full
            low = cand & -cand
    return False


def _pack_key(n: int, bits: int) -> bytes:
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 7) // 8
    return bytes([n]) + (bits << (8 * nbytes - nbits)).to_bytes(nbytes, "big")


def canonical_key(g: Graph) -> bytes:
    """Byte string identifying the isomorphism class of ``g``."""
    return g.canonical_key()


def is_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and g.canonical_bits == h.canonical_bits


def canonical_form(g: Graph) -> Graph:
    """The canonically relabeled copy of ``g`` (same key, fixed labels)."""
    g.canonical_bits  # one search per graph: it caches the perm too
    perm = g._perm
    pos = {v: i for i, v in enumerate(perm)}
    rows = [0] * g.n
    for i, v in enumerate(perm):
        row = g.adj[v]
        while row:
            u = (row & -row).bit_length() - 1
            row &= row - 1
            rows[i] |= 1 << pos[u]
    return _built(g.n, tuple(rows))


# ---------------------------------------------------------------------------
# induced subgraph search


def contains_induced(g: Graph, h: Graph) -> tuple[int, ...] | None:
    """First injective map (in lexicographic order) embedding h induced in g.

    Returns a tuple ``t`` with ``t[i]`` the image of h-vertex ``i``, or None
    when no vertex subset of g induces a copy of h. The search is exhaustive.
    """
    if h.n > g.n:
        return None
    gadj, hadj = g.adj, h.adj
    image = []
    used = 0

    def extend(i: int) -> bool:
        nonlocal used
        if i == h.n:
            return True
        want = hadj[i]
        for v in range(g.n):
            if (used >> v) & 1:
                continue
            ok = True
            for j in range(i):
                if ((want >> j) & 1) != ((gadj[v] >> image[j]) & 1):
                    ok = False
                    break
            if not ok:
                continue
            image.append(v)
            used |= 1 << v
            if extend(i + 1):
                return True
            image.pop()
            used ^= 1 << v
        return False

    if extend(0):
        return tuple(image)
    return None


def _p4_paths(adj) -> Iterator[tuple[int, int, int, int]]:
    """Each induced P4 once, as its path (a, b, c, d): the middle edge b-c
    with b < c, an end a in N(b) but not N[c], and an end d in N(c) but not
    N[b] that is not adjacent to a."""
    for b, row in enumerate(adj):
        closed = row | (1 << b)
        above = row >> (b + 1) << (b + 1)
        while above:
            low = above & -above
            above ^= low
            c = low.bit_length() - 1
            a_side = row & ~adj[c] & ~low
            if not a_side:
                continue
            d_side = adj[c] & ~closed
            while d_side:
                dlow = d_side & -d_side
                d_side ^= dlow
                d = dlow.bit_length() - 1
                ends = a_side & ~adj[d]
                while ends:
                    alow = ends & -ends
                    ends ^= alow
                    yield alow.bit_length() - 1, b, c, d


def p4_masks(g: Graph) -> tuple[int, ...]:
    """Masks of all vertex sets inducing a P4, in lexicographic order of
    their sorted vertex tuples: (0,1,2,5) comes before (0,1,3,4) although
    its mask is larger (cached on g)."""
    if g._p4s is None:
        quads = sorted(tuple(sorted(path)) for path in _p4_paths(g.adj))
        g._p4s = tuple(map(_mask_of, quads))
    return g._p4s


def list_induced_p4s(g: Graph) -> list[tuple[int, int, int, int]]:
    """All 4-sets inducing a P4, each once, in lexicographic order."""
    return [_bits_to_tuple(m) for m in p4_masks(g)]


def _has_c5(g: Graph) -> bool:
    """Induced C5 test: some P4 a-b-c-d closes into a C5 through a fifth
    vertex adjacent to a and d and to neither b nor c."""
    adj = g.adj
    return any(adj[a] & adj[d] & ~adj[b] & ~adj[c] for a, b, c, d in _p4_paths(adj))


# ---------------------------------------------------------------------------
# graph6 codec (single-byte header, n <= 62)


def graph6_encode(g: Graph) -> str:
    if g.n > 62:
        raise CapExceeded(f"graph6 single-byte header caps n at 62, got {g.n}")
    chunks = [chr(63 + g.n)]
    buf = 0
    fill = 0
    for j in range(1, g.n):
        for i in range(j):
            buf = (buf << 1) | ((g.adj[i] >> j) & 1)
            fill += 1
            if fill == 6:
                chunks.append(chr(63 + buf))
                buf = 0
                fill = 0
    if fill:
        chunks.append(chr(63 + (buf << (6 - fill))))
    return "".join(chunks)


def graph6_decode(text: str) -> Graph:
    """Decode one graph6 line; strict about length and zero padding."""
    if not text:
        raise MalformedHeader("empty graph6 string")
    head = ord(text[0])
    if text[0] in ":;&":
        raise MalformedHeader(f"unsupported format header {text[0]!r}")
    if head == 126:
        raise CapExceeded("multi-byte graph6 header (n > 62) not supported")
    if not 63 <= head <= 125:
        raise MalformedHeader(f"header byte {head} outside 63..125")
    n = head - 63
    if n > VERTEX_CAP:
        raise CapExceeded(f"decoded order {n} exceeds cap {VERTEX_CAP}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = text[1:]
    if len(body) < need:
        raise TruncatedBody(f"need {need} body bytes, got {len(body)}")
    if len(body) > need:
        raise TrailingGarbage(f"{len(body) - need} extra bytes")
    bits = 0
    for ch in body:
        if not 63 <= ord(ch) <= 126:
            raise MalformedHeader(f"body byte {ord(ch)} outside 63..126")
        bits = (bits << 6) | (ord(ch) - 63)
    pos = 6 * need
    if bits & ((1 << (pos - nbits)) - 1):
        raise TrailingGarbage("nonzero padding bits")
    rows = [0] * n
    for j in range(1, n):  # the column order of graph6_encode
        for i in range(j):
            pos -= 1
            if (bits >> pos) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# exhaustive non-isomorphic enumeration


def enumerate_graphs(n_max: int) -> Iterator[Graph]:
    """One representative per isomorphism class, orders 1..n_max.

    Canonical augmentation: a child of an order-m representative (new vertex
    m attached by an arbitrary neighborhood mask) is kept iff one labeling,
    the parent's cached perm followed by m, reaches the child's minimal bits;
    isomorphic children of the same parent are deduplicated by key. Output
    per order is sorted by canonical key.

    A mask that holds the previous twin t of a vertex v but not v itself is
    skipped unlabeled. The parent's perm places t before v, and swapping them
    is an automorphism of the parent. It maps the child to an isomorphic one
    whose pinned column has v's bit set instead of t's. v sits later in the
    perm, so that column is smaller: the child has a labeling below its
    pinned one and fails the test.

    The remaining children are screened by ``_greedy_below`` against the
    pinned columns (the parent's, read once per parent, then the new
    vertex's). Any labeling of the child whose bits are below the pinned
    bits proves that the pinned labeling is not minimal, so a greedy one
    that gets there rejects the child exactly. A child that survives is
    labeled in full and tested as before, so the accepted children, their
    cached perms and the output order do not depend on the screen.
    """
    if n_max > ENUM_CAP:
        raise CapExceeded(f"n_max={n_max} exceeds enumeration cap {ENUM_CAP}")
    if n_max < 1:
        return
    level = [complete_graph(1)]
    yield level[0]
    for m in range(1, n_max):
        nxt = []
        for parent in level:
            rows = parent.adj
            # the pinned search over the old vertices never reads the new
            # vertex's bits, so the parent's own labeling (cached when it was
            # accepted as a child) is shared by all 2^m extensions
            pbase = parent.canonical_bits << m
            pperm = parent._perm
            pcols = [_column(rows[v], pperm[:k]) for k, v in enumerate(pperm)]
            # (previous twin, vertex) bit pairs: see the docstring
            twins = [(1 << t, 1 << v) for v, t in enumerate(_twin_before(rows)) if t >= 0]
            accepted = set()
            for mask in range(1 << m):
                if any(mask & t and not mask & v for t, v in twins):
                    continue
                child_rows = tuple(
                    rows[v] | (1 << m) if (mask >> v) & 1 else rows[v]
                    for v in range(m)
                ) + (mask,)
                col = _column(mask, pperm)
                if _greedy_below(child_rows, pcols + [col]):
                    continue
                child = _built(m + 1, child_rows)
                free = child.canonical_bits
                if free in accepted:
                    continue
                if pbase | col == free:
                    accepted.add(free)
                    nxt.append(child)
        nxt.sort(key=Graph.canonical_key)
        yield from nxt
        level = nxt


# ---------------------------------------------------------------------------
# named catalog

_PCK = re.compile(r"^([pck])([0-9]+(?:,[0-9]+)*)$")
_SPIDER = re.compile(r"^(thin|thick)([0-9]+)$")


@lru_cache(maxsize=None)
def _named_fixed() -> dict[str, Graph]:
    k1, k2, k3 = complete_graph(1), complete_graph(2), complete_graph(3)
    p3 = path_graph(3)
    c4, c5 = cycle_graph(4), cycle_graph(5)
    house = from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 4), (2, 4), (3, 4)])
    banner = from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 4), (2, 4)])
    fork = from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
    kite = from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 4), (1, 4), (2, 4)])
    w4 = join(cycle_graph(4), k1)
    net = from_edges(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)])
    return {
        "house": house,
        "banner": banner,
        "cobanner": banner.complement(),
        "fork": fork,
        "kite": kite,
        "w4": w4,
        "net": net,
        "e1": union_all(k1, k2, k2),
        "e2": union_all(p3, p3),
        "e3": union_all(c4, k1, k1),
        "e4": union_all(k2, k2, k2).complement(),
        "e5": disjoint_union(k2, c4).complement(),
        "e6": disjoint_union(k1, w4),
        "e7": disjoint_union(k1, disjoint_union(p3, k2).complement()),
        "e8": disjoint_union(k2, join(empty_graph(2), k2)),
        "e9": disjoint_union(k3, k3),
        "e10": disjoint_union(k1, c5),
        "e11": disjoint_union(k1, banner),
        "e12": disjoint_union(k1, house),
        "e13": disjoint_union(k2, c5).complement(),
    }


def _size(digits: str) -> int:
    """A catalog size, refused before ``int()`` reads more digits than any
    size within the vertex cap has (``int()`` stops at 4,300 digits)."""
    size = digits.lstrip("0") or "0"
    if len(size) > len(str(VERTEX_CAP)):
        raise CapExceeded(f"catalog size of {len(size)} digits exceeds vertex cap {VERTEX_CAP}")
    return int(size)


def catalog(name: str) -> Graph:
    """Look up a named graph: Pn, Cn, Kn, Ka,b,..., W4, house, banner,
    cobanner, fork, kite, net, thin<j>/thick<j> spiders, E1..E13."""
    key = name.strip().lower().replace(" ", "").replace("_", "").replace("-", "")
    fixed = _named_fixed()
    if key in fixed:
        return fixed[key]
    m = _SPIDER.match(key)
    if m:
        return headless_spider(_size(m.group(2)), thick=(m.group(1) == "thick"))
    m = _PCK.match(key)
    if m:
        kind, nums = m.group(1), [_size(x) for x in m.group(2).split(",")]
        if sum(nums) > VERTEX_CAP:
            raise CapExceeded(f"{name!r} exceeds vertex cap")
        if kind == "k":
            return complete_graph(nums[0]) if len(nums) == 1 else complete_multipartite(nums)
        if len(nums) != 1:
            raise UnknownName(f"no catalog graph named {name!r}")
        if kind == "p":
            return path_graph(nums[0])
        if nums[0] < 3:
            raise UnknownName(f"no catalog graph named {name!r}")
        return cycle_graph(nums[0])
    raise UnknownName(f"no catalog graph named {name!r}")
