"""Small-graph kernel: bitset adjacency, isomorphism, graph6, enumeration.

A :class:`Graph` is an immutable value: a vertex count ``n`` plus one integer
bitmask per vertex holding that vertex's neighborhood. Every operation
returns a new graph, so values can be shared freely. The vertex cap
(default 32) keeps each row inside one machine word.

Canonical forms are exact: the key of a graph is its order followed by the
lexicographically minimal upper-triangle bit string over all vertex
relabelings, and the canonical form is the graph that string spells. Two
graphs are isomorphic iff their keys are equal. The search that finds it
places a maximum independent set first, as a set, since its columns are zero
in any order, and fixes that set's order only as far as the later columns
read it. Non-isomorphic enumeration is orderly and keeps memory flat: every
graph it holds is a canonical form, and a one-vertex extension is kept iff
it is one too, that is iff its own labeling spells its minimal bits. Two
exact tests reject most extensions unsearched: a lower bound on the new
vertex's column, read off the parent's own columns, and a swap of two twins
of the parent. Either exhibits a labeling below the extension's. The
parent's own search runs once for the extensions that pass both, state by
state, and one pass over that trace reads the new vertex's column at every
traced state for all of them at once, as bitsets over their columns: each
extension then searches only the states that place its new vertex.
"""

from __future__ import annotations

import re
from functools import lru_cache, reduce
from itertools import chain
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

    __slots__ = ("n", "adj", "_bits", "_p4s", "_maps")

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
        self._p4s = None
        self._maps = None

    # -- basic accessors ---------------------------------------------------

    def _vertex(self, v: int) -> int:
        """``v``, checked to lie in 0..n-1."""
        if not 0 <= v < self.n:
            raise VertexOutOfRange(f"vertex {v} outside 0..{self.n - 1}")
        return v

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[self._vertex(u)] >> self._vertex(v)) & 1)

    def degree(self, v: int) -> int:
        return self.adj[self._vertex(v)].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return _bits_to_tuple(self.adj[self._vertex(v)])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as ascending pairs, in lexicographic order."""
        return list(_edges_in(self.adj, (1 << self.n) - 1))

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
        """``induced`` on every vertex but ``v``: each row keeps its bits
        below v and shifts those above it down one."""
        low = (1 << self._vertex(v)) - 1
        return _built(self.n - 1, tuple((r & low) | (r >> 1 & ~low)
                                        for u, r in enumerate(self.adj) if u != v))

    # -- connectivity ------------------------------------------------------

    def component_masks(self) -> list[int]:
        """Vertex masks of the connected components, by smallest member."""
        return _component_masks(self.adj, (1 << self.n) - 1)

    def is_connected(self) -> bool:
        return len(self.component_masks()) <= 1

    # -- canonical form ----------------------------------------------------

    @property
    def canonical_bits(self) -> int:
        """Minimal upper-triangle bit string packed into an int, in graph6
        column order (cached). The search takes the candidate automorphisms
        that ``canonical_key`` was handed, if any."""
        if self._bits is None:
            self._bits = _min_bits(self.adj, maps=self._maps)
            self._maps = None
        return self._bits

    def canonical_key(self, maps=None) -> bytes:
        """The order and the canonical bits, packed. ``maps``, a callable
        that gives candidate automorphisms (see ``_min_bits``), goes to the
        search if the bits are not cached yet."""
        if maps is not None and self._bits is None:
            self._maps = maps
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
    g._bits = g._p4s = g._maps = None
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


def _edges_in(adj, mask: int) -> tuple[tuple[int, int], ...]:
    """The edges inside ``mask`` as ascending pairs, in lexicographic order."""
    return tuple((v, u) for v in _bits_to_tuple(mask)
                 for u in _bits_to_tuple(adj[v] & mask & ~((2 << v) - 1)))


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
# vertex order, one state per set, a vertex only after its previous twin (see
# Twins), until none grows: the sets left are the maximum ones whose twins
# come in index order. A walk (below) also reads those of one vertex fewer.
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
# column has fewer than m bits, so no block spills into the next. That
# adjacency, bit 0 of the block of each neighbour of v, is read off a table
# per order, one lookup per byte of v's row (``_spreads``).
#
# Twins (true or false, in the whole graph) are placed in index order only:
# swapping two unplaced twins is an automorphism that fixes the placed
# prefix, so the subtree of the higher twin repeats the lower twin's bits.
# ``_twin_before`` finds each vertex's previous twin, lower[v], with one dict
# keyed by open and closed rows.
#
# Walks. Orderly generation asks of each child (a canonical parent plus one
# new vertex w) only whether its own labeling is minimal. The parent's own
# search runs once for all its children (``_trace``), in the children's
# packing, and keeps every state it evaluates, with the tail vertices
# placed to reach it: no two merge by key, no orbit prunes a holder, and
# the states above their own column stay, without children. w's column at
# a traced state depends on w's mask alone: on its count in each cell and
# its bits at the tail vertices. So one pass (``_sweep``) reads it for all
# 2^m masks at once, a bit at a time as bitsets over the columns, and finds
# the columns that read below the own column at some state and, for each
# other column, the states where it ties. A child (``_walk``) whose column
# is in the first set is rejected. Otherwise a branch places w at each
# state where it ties, and the branches, with the sets of alpha vertices
# that hold w, run the level step above on the child. The five conditions
# that make the walk exact are in ``enumerate_graphs``.
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
# kept maps send to a lower holder is dropped: the bits stay the same. The
# search returns the bits alone, which fix the canonical form, so no reader
# needs the labeling that reaches them.
#
# Known maps. A member of a class with a decomposition tree (cographs,
# P4-sparse and P4-extendible graphs) can hand the search the automorphisms
# its tree names (``classes.tree_maps``): the swap of two legs of a spider
# with their body partners, the swap of two isomorphic sibling subtrees, and
# the small groups of the extension graphs. Then the search pairs nothing.
# It reads the maps when the first tied state has MAPS_FRESH fresh holders,
# so a member whose search never gets that wide never builds its tree. It
# keeps each map that sends every row onto a row (``_moved``), as it checks a
# paired map, and from then on, at any level, every tied state with two or
# more fresh holders prunes by the kept maps alone, under the rule above: a
# map counts only where it fixes the tail pointwise and S setwise, so the
# bits are the same as without them.
#
# The search stops with CapExceeded once its steps pass LABEL_CAP: each set
# or state it builds is a step, and so is each cell it reads, since a
# state's read costs about as much per cell as building a child, each known
# map it reads, each kept map it checks and each cell that pairing and
# refinement read. A trace and a walk count the same way: each state they
# build and each cell they read; the sweep counts each state and each bit
# it compares.


LABEL_CAP = 2_000_000  # search steps per canonical search
PRUNE_STATES, PRUNE_LEFT, PRUNE_FRESH = 32, 4, 3  # when pruning engages (above)
MAPS_FRESH = 4  # the fresh holders of the first state that reads known maps (above)


def _twin_before(adj) -> list[int]:
    """For each vertex, the bit of the previous vertex of its twin class (0
    if none).

    False twins share N(v), true twins share N[v]. No open neighborhood
    equals a closed one, and no vertex has both kinds of twin, so one dict
    keyed by both forms finds each vertex's class.
    """
    last = {}
    lower = []
    for v, row in enumerate(adj):
        low = 1 << v
        closed = row | low
        lower.append(last.get(row) or last.get(closed, 0))
        last[row] = last[closed] = low
    return lower


def _over_cap(m: int) -> CapExceeded:
    return CapExceeded(f"canonical labeling of n={m} passed {LABEL_CAP} search steps")


def _independent_prefix(adj, lower) -> tuple[list[int], list[int], int]:
    """Phase 1: the maximum independent sets whose twins come in index order
    (``lower[v]`` is the bit of v's previous twin), those of one vertex
    fewer (none when the maximum set is empty), and the sets grown.

    A state is (set, the vertices above its last that see none of it), so
    each set is grown once, from its ascending prefix.
    """
    m = len(adj)
    level, prev = [(0, (1 << m) - 1)], []
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
            return [s for s, _ in level], [s for s, _ in prev], grown
        grown += len(nxt)
        if grown > LABEL_CAP:
            raise _over_cap(m)
        level, prev = nxt, level


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


def _pair(adj, cells: list[int], u: int, v: int) -> tuple[tuple[int, tuple[int, ...]] | None, int]:
    """An automorphism that maps ``u`` to ``v`` and each cell of the
    equitable partition ``cells`` onto itself, as (moved mask, map), or
    None; and the cells read.

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
    moved = _moved(adj, g)
    return (None if moved is None else (moved, tuple(g))), steps


def _moved(adj, g) -> int | None:
    """The mask of the vertices that the map ``g`` (``g[v]`` is v's image)
    moves, if it is an automorphism of ``adj``; else None.

    It is one if it permutes the vertices it moves and sends each of their
    rows onto the row of the image. The other rows need no reading: an edge
    between two fixed vertices stays, and an edge from a fixed w to a moved
    u goes to (w, g[u]), which row g[u] holds, since that row equals the
    image of row u, whose fixed part is row u's.
    """
    if len(g) != len(adj):
        return None
    moved = 0
    image = 0
    for v, w in enumerate(g):
        if v != w:
            moved |= 1 << v
            image |= 1 << w
    if image != moved:
        return None
    for v in _bits_to_tuple(moved):
        row = adj[v]
        image = row & ~moved
        for u in _bits_to_tuple(row & moved):
            image |= 1 << g[u]
        if image != adj[g[v]]:
            return None
    return moved


def _orbit_holders(adj, placed, cells, hold, fresh, gens, onto, pair=True) -> tuple[int, int]:
    """The holders ``fresh`` (a subset of the state's holders ``hold``)
    that automorphism pruning keeps, and the steps it took.

    ``gens`` lists the kept automorphisms as (moved mask, map); with
    ``pair`` it grows by the ones paired here. ``onto`` maps each
    independent set S to how many of them it has checked and the ones that
    map S onto itself. Those that
    also fix the state's tail pointwise map the state onto itself: the
    cells are S grouped by adjacency to the tail, so each cell goes onto
    itself. Two holders in one orbit of the group they generate therefore
    have children with one future, and a holder that one of them maps to a
    lower holder is dropped. The lowest fresh holder is paired with each
    other fresh holder not yet in its orbit, unless ``pair`` is false.
    Pairing starts from the tail as singletons in index order: a kept map
    fixes every singleton, whatever their order.
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
    for v in _bits_to_tuple(fresh)[1:] if pair else ():
        if orbit[u] >> v & 1:
            continue
        if base is None:
            base = [1 << t for t in _bits_to_tuple(fixed)]
            base += list(cells) + [(1 << len(adj)) - 1 & ~placed]
            steps += _refine(adj, base, list(base))
        found, work = _pair(adj, base, u, v)
        steps += work
        if found is not None:
            gens.append(found)
            mine[1].append(found)
            mine[0] += 1
            unite(*found)
    keep = 0
    for v in _bits_to_tuple(fresh):
        if (orbit[v] & -orbit[v]).bit_length() - 1 == v:
            keep |= 1 << v
    return keep, steps


@lru_cache(maxsize=None)
def _tables(m: int) -> tuple[int, int, int, tuple[int, ...]]:
    """The packed-key tables of order m: (full, top, every, others)."""
    full = (1 << m) - 1
    top = m * m
    every = (1 << top) - 1  # all m blocks
    others = tuple(every ^ (full << (v * m)) for v in range(m))  # all blocks but v's
    return full, top, every, others


@lru_cache(maxsize=None)
def _spread_table(m: int) -> tuple[tuple[int, ...], ...]:
    """For each byte of a row of order m, the spread of each value of that
    byte: bit 0 of the block of every vertex the byte holds."""
    table = []
    for base in range(0, m, 8):
        spread = [0]
        for y in range(1, 1 << min(8, m - base)):
            low = y & -y
            spread.append(spread[y ^ low] | 1 << ((base + low.bit_length() - 1) * m))
        table.append(tuple(spread))
    return tuple(table)


def _spreads(adj) -> list[int]:
    """spread[v]: bit 0 of the block of each neighbour of v, read off
    ``_spread_table`` one byte of v's row at a time."""
    first, *rest = _spread_table(len(adj))
    spread = [first[row & 255] for row in adj]
    for b, table in enumerate(rest, 1):
        spread = [s | table[row >> 8 * b & 255] for s, row in zip(spread, adj)]
    return spread


def _read(adj, key, cells, hold, n: int, width: int) -> tuple[int, int, tuple[int, ...]]:
    """The least column that the holders ``hold`` read at a state with
    ``cells`` and packed ``key`` (blocks of n bits), as (column, the holders
    that read it, the cells that split when one of them is placed).

    The column reads each cell's least count of neighbours among the
    holders, as that many ones after the cell's other bits, and then the
    ``width`` tail bits of the holders left, each its block of the key. The
    holders share their count of neighbours in every cell, so the cells
    that split are the ones where that count is neither 0 nor the size.
    """
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
            zeros = hold & ~adj[c.bit_length() - 1]
            col <<= 1
            if zeros:
                hold = zeros
            else:
                col |= 1
    tail = (1 << width) - 1
    if hold & (hold - 1):  # the least tail column among the holders
        least = tail + 1
        todo = hold
        while todo:
            low = todo & -todo
            todo ^= low
            t = (key >> ((low.bit_length() - 1) * n)) & tail
            if t < least:
                least, hold = t, low
            elif t == least:
                hold |= low
    else:
        least = (key >> ((hold.bit_length() - 1) * n)) & tail
    return (col << width) | least, hold, splits


def _min_bits(adj, maps=None) -> int:
    """The minimal upper-triangle bit string of ``adj``, in graph6 column
    order.

    Phase 2 maps each packed key to (cells, live): the cells are masks in
    order, and ``live`` masks the blocks of S and of the unplaced vertices.
    Each state's minimal column is read once (``_read``), cell by cell and
    then down the tail blocks of the holders left. A state above the least
    column read so far at its level is dropped, and a lower one empties the
    level; a state that ties builds one child per holder.

    Once pruning engages (see above), a tied state first drops the holders
    that ``_orbit_holders`` finds in the orbit of a lower one. ``maps``,
    if given, is a callable that returns candidate automorphisms, each a
    sequence with ``g[v]`` the image of v (see Known maps above). It is
    called once, when the first tied state has MAPS_FRESH fresh holders;
    the maps that are not automorphisms are dropped, and from then on
    every tied state with two or more fresh holders prunes by the others,
    with no pairing.
    """
    m = len(adj)
    if m == 0:
        return 0
    lower = _twin_before(adj)
    sets, _, steps = _independent_prefix(adj, lower)
    alpha = sets[0].bit_count()
    if alpha == m:  # edgeless: every labeling is minimal
        return 0
    full, top, every, others = _tables(m)
    spread = _spreads(adj)
    states = {s << top: ((s,), every) for s in sets}
    bits = 0
    pair = maps is None
    gens = None if pair else []  # the kept automorphisms, once pruning engages
    # the fresh holders that make a state prune (with maps, first read them)
    fewest = PRUNE_FRESH if pair else MAPS_FRESH
    support = full  # the vertices that a kept map may move
    onto = {}  # independent set: (gens checked, the gens mapping it onto itself)
    for k in range(alpha, m):
        if gens is None and len(states) > PRUNE_STATES and m - k >= PRUNE_LEFT:
            gens = []
        nxt = {}
        best = None
        for key, (cells, live) in states.items():
            placed = key >> top
            col, hold, splits = _read(adj, key, cells, full & ~placed, m, k - alpha)
            steps += len(cells)
            if best is None or col < best:
                best = col
                nxt = {}
            elif col > best:
                continue
            shifted = key << 1
            if gens is not None and (hold & support).bit_count() >= fewest:
                # holders whose children would be new states; the others
                # merge by key, so pruning them saves nothing
                fresh = 0
                seen = set()
                for v in _bits_to_tuple(hold):
                    if not lower[v] & ~placed:
                        key2 = ((shifted | spread[v]) & live & others[v]) | ((placed | 1 << v) << top)
                        if key2 not in nxt and key2 not in seen:
                            seen.add(key2)
                            fresh |= 1 << v
                if fresh.bit_count() >= fewest:
                    if maps is not None:  # keep the automorphisms
                        support = 0
                        for g in maps():
                            steps += 1
                            moved = _moved(adj, g)
                            if moved:
                                gens.append((moved, g))
                                support |= moved
                        maps = None
                        fewest = 2
                    keep, work = _orbit_holders(adj, placed, cells, hold, fresh, gens, onto, pair)
                    steps += work
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
                    continue
                nxt[key2] = (_split(cells, splits, adj[v]) if splits else cells, live2)
            if steps > LABEL_CAP:
                raise _over_cap(m)
        bits = (bits << k) | best
        states = nxt
    return bits


def _trace(adj, lower) -> tuple:
    """The search of a canonical form ``adj`` of order m, run once for all
    of its children and kept for ``_walk``: (alpha, levels, owns, below,
    lower, reject, ties), where ``lower`` gives each vertex's previous-twin
    bit (``_twin_before``) and ``reject`` and ``ties`` are ``_sweep``'s.

    levels[j] lists every state the search evaluates at level alpha+j as
    (key, cells, live, path): its key and live mask in the children's
    packing, blocks of m+1 bits, where the new vertex's block m stays zero;
    and the tail vertices placed to reach it, in order. The last list holds
    the leaves, where every vertex is placed. owns[j] is the own column at
    level alpha+j, and ``below`` lists the independent sets of alpha-1
    vertices whose twins come in index order, which a child's sets with the
    new vertex grow from.

    It is the full search with two differences (see ``enumerate_graphs``):
    no two states merge by key and no orbit prunes a holder; and a state
    above its own column is kept, though it builds no children. The parent
    is a canonical form, so no state reads below its own column. States
    count against LABEL_CAP as search steps do.
    """
    m = len(adj)
    n = m + 1
    sets, below, steps = _independent_prefix(adj, lower)
    alpha = sets[0].bit_count()
    _, top, every, others = _tables(n)
    spread = _spreads(adj + (0,))
    # the order-0 graph's one set is empty, and an empty cell reads nothing
    level = [(s << top, (s,) if s else (), every, ()) for s in sets]
    levels = [level]
    owns = []
    for k in range(alpha, m):
        own = _column(adj[k], range(k))
        owns.append(own)
        nxt = []
        for key, cells, live, path in level:
            placed = key >> top
            col, hold, splits = _read(adj, key, cells, (1 << m) - 1 & ~placed, n, k - alpha)
            steps += len(cells)
            if col > own:  # no children, but a child's new vertex may tie here
                continue
            shifted = key << 1
            while hold:
                low = hold & -hold
                hold ^= low
                v = low.bit_length() - 1
                if lower[v] & ~placed:  # a lower twin is unplaced
                    continue
                steps += 1
                live2 = live & others[v]
                nxt.append((((shifted | spread[v]) & live2) | ((placed | low) << top),
                            _split(cells, splits, adj[v]) if splits else cells, live2, path + (v,)))
            if steps > LABEL_CAP:
                raise _over_cap(m)
        level = nxt
        levels.append(level)
    return (alpha, levels, owns, below, lower) + _sweep(m, alpha, levels, owns, steps)


@lru_cache(maxsize=None)
def _holders(m: int) -> tuple[int, ...]:
    """has[v] for the 2^m columns x of a child of an order-m parent: the set
    of columns whose mask holds v (bit m-1-v of x), as a bitset over x."""
    return tuple(sum(1 << x for x in range(1 << m) if x >> (m - 1 - v) & 1) for v in range(m))


@lru_cache(maxsize=None)
def _cell_bits(m: int, cell: int) -> tuple[int, ...]:
    """A cell's bits in the new vertex's column, top first, as bitsets over
    the 2^m columns: a mask that meets the cell in t of its s vertices reads
    s-t zeros then t ones, so bit d is the set of masks that meet it in at
    least s-d vertices (``_holders`` alone for a singleton)."""
    has = _holders(m)
    ge = [(1 << (1 << m)) - 1]  # ge[t]: the masks that meet the cell in at least t vertices
    for u in _bits_to_tuple(cell):
        ge = [ge[0]] + [a | b & has[u] for a, b in zip(ge[1:], ge)] + [ge[-1] & has[u]]
    return tuple(ge[:0:-1])


def _sweep(m: int, alpha: int, levels, owns, steps: int) -> tuple[int, list[dict[int, list[int]]]]:
    """Every child's new vertex w read at every traced state of its order-m
    parent at once, as bitsets over the 2^m columns: (reject, ties).
    ``reject`` is the set of columns where w reads below the own column at
    some traced state, and ties[j] maps each other column to the indices in
    levels[j] of the states where w ties it (none at the leaves).

    w's column at a state is fixed by its mask: the cells' bits
    (``_cell_bits``), then each tail bit, the set of masks that hold the
    vertex placed there. The own column is the parent's below the leaves
    and the child's own at them, whose bit q is the set of masks that hold
    q. Each state compares bit by bit, top first, and stops once no column
    is undecided; the columns already rejected start decided. Each state
    and each bit compared count against LABEL_CAP, from ``steps``.
    """
    has = _holders(m)
    every = (1 << (1 << m)) - 1
    reject = 0
    tied = []  # (j, i, the columns that tie at levels[j][i])
    for j, level in enumerate(levels):
        k = alpha + j
        # the own column's bits, top first
        ones = has if k == m else [every if owns[j] >> p & 1 else 0 for p in range(k - 1, -1, -1)]
        for i, (_, cells, _, path) in enumerate(level):
            steps += 1
            undecided = every ^ reject
            for b, o in zip(chain(*[_cell_bits(m, c) for c in cells], [has[v] for v in path]), ones):
                steps += 1
                differ = undecided & (o ^ b)
                reject |= differ & o  # w reads 0 where the own column reads 1
                undecided ^= differ
                if not undecided:
                    break
            if undecided and k < m:
                tied.append((j, i, undecided))
            if steps > LABEL_CAP:
                raise _over_cap(m)
    ties = [{} for _ in levels]
    for j, i, cols in tied:
        cols &= ~reject
        while cols:
            low = cols & -cols
            cols ^= low
            ties[j].setdefault(low.bit_length() - 1, []).append(i)
    return reject, ties


def _walk(adj, col: int, trace) -> bool:
    """Whether the own labeling of ``adj``, a canonical form of order m
    plus a new vertex m whose column, read in index order, is ``col``, is
    minimal; ``trace`` is the parent's ``_trace``.

    The traced states are decided for every column at once (``_sweep``):
    the child is rejected if its column is in the reject set. Otherwise
    each traced state where the new vertex ties the own column opens a
    branch, the state with the new vertex placed. The branches, and the
    child's independent sets of alpha vertices that hold the new vertex,
    run the search's level step on ``adj``, merged by key, until one reads
    below its own column. The argument is in ``enumerate_graphs``.
    """
    alpha, levels, owns, below, lower, reject, ties = trace
    if reject >> col & 1:
        return False
    m = len(adj) - 1
    n = m + 1
    x = adj[m]
    new = 1 << m
    shift = m * n  # the new vertex's block
    full, top, every, others = _tables(n)
    spread = None  # the child's, once a branch needs it
    branch = {(s | new) << top: ((s | new,), every) for s in below if not s & x}
    steps = 0
    for j, own in enumerate(owns + [col]):
        k = alpha + j
        nxt = {}
        for i in ties[j].get(col, ()):
            key, cells, live, path = levels[j][i]
            key |= _column(x, path) << shift  # the new vertex's tail block
            if spread is None:
                spread = _spreads(adj)
            steps += 1
            live2 = live & others[m]
            nxt[(((key << 1) | spread[m]) & live2) | (((key >> top) | new) << top)] = (
                tuple(part for c in cells for part in (c & ~x, c & x) if part), live2)
        for key, (cells, live) in branch.items():
            placed = key >> top
            got, hold, splits = _read(adj, key, cells, full & ~placed, n, j)
            steps += len(cells)
            if got < own:
                return False
            if got > own or k == m:
                continue
            if spread is None:
                spread = _spreads(adj)
            shifted = key << 1
            while hold:
                low = hold & -hold
                hold ^= low
                v = low.bit_length() - 1
                if lower[v] & ~placed:  # a lower twin is unplaced
                    continue
                steps += 1
                live2 = live & others[v]
                key2 = ((shifted | spread[v]) & live2) | ((placed | low) << top)
                if key2 not in nxt:
                    nxt[key2] = (_split(cells, splits, adj[v]) if splits else cells, live2)
        if steps > LABEL_CAP:
            raise _over_cap(n)
        branch = nxt
    return True


def _column(row: int, perm) -> int:
    """The bits of ``row`` read in ``perm`` order, first vertex highest."""
    col = 0
    for w in perm:
        col = (col << 1) | ((row >> w) & 1)
    return col


def _upper(adj, order) -> int:
    """The upper-triangle bits of the subgraph on ``order`` (vertex i is
    ``order[i]``), read in graph6 column order, first pair highest."""
    bits = 0
    for j in range(1, len(order)):
        bits = bits << j | _column(adj[order[j]], order[:j])
    return bits


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
    """The canonically relabeled copy of ``g``: the graph whose upper
    triangle is ``g``'s minimal bits (same key, fixed labels)."""
    return _built(g.n, _rows(g.n, g.canonical_bits))


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


def _p4_walk(adj) -> Iterator[int]:
    """The vertex mask of each induced P4 once, found as its path a-b-c-d:
    the middle edge b-c with b < c, an end a in N(b) but not N[c], and an
    end d in N(c) but not N[b] that is not adjacent to a."""
    for b, row in enumerate(adj):
        blow = 1 << b
        above = row >> (b + 1) << (b + 1)
        while above:
            low = above & -above
            above ^= low
            c = low.bit_length() - 1
            a_side = row & ~adj[c] & ~low
            if not a_side:
                continue
            d_side = adj[c] & ~row & ~blow
            while d_side:
                dlow = d_side & -d_side
                d_side ^= dlow
                ends = a_side & ~adj[dlow.bit_length() - 1]
                while ends:
                    alow = ends & -ends
                    ends ^= alow
                    yield alow | blow | low | dlow


_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))  # each byte's bits reversed


def p4_masks(g: Graph) -> tuple[int, ...]:
    """Masks of all vertex sets inducing a P4, in lexicographic order of
    their sorted vertex tuples: (0,1,2,5) comes before (0,1,3,4) although
    its mask is larger (cached on g). Of two 4-sets the first holds the
    lowest vertex of their difference, so the order is descending on the
    masks read with vertex 0 highest: four bytes, low first, each reversed."""
    if g._p4s is None:
        g._p4s = tuple(sorted(_p4_walk(g.adj), reverse=True,
                              key=lambda m: m.to_bytes(4, "little").translate(_REVERSED)))
    return g._p4s


def list_induced_p4s(g: Graph) -> list[tuple[int, int, int, int]]:
    """All 4-sets inducing a P4, each once, in lexicographic order."""
    return [_bits_to_tuple(m) for m in p4_masks(g)]


def _has_c5(g: Graph) -> bool:
    """Induced C5 test: some P4 a-b-c-d closes into a C5 through a fifth
    vertex adjacent to a and d and to neither b nor c. The ends of a P4 are
    its two vertices with one neighbour inside it."""
    adj = g.adj
    for m in p4_masks(g):
        fifth = -1
        for v in _bits_to_tuple(m):
            fifth &= adj[v] if (adj[v] & m).bit_count() == 1 else ~adj[v]
        if fifth:
            return True
    return False


# ---------------------------------------------------------------------------
# graph6 codec (single-byte header, n <= 62)


def graph6_encode(g: Graph) -> str:
    if g.n > 62:
        raise CapExceeded(f"graph6 single-byte header caps n at 62, got {g.n}")
    nbits = g.n * (g.n - 1) // 2
    size = (nbits + 5) // 6
    bits = _upper(g.adj, range(g.n)) << (6 * size - nbits)
    return chr(63 + g.n) + "".join(chr(63 + (bits >> 6 * i & 63)) for i in reversed(range(size)))


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
    pad = 6 * need - nbits
    if bits & ((1 << pad) - 1):
        raise TrailingGarbage("nonzero padding bits")
    # _rows builds symmetric, loop-free rows below bit n, and n is capped
    return _built(n, _rows(n, bits >> pad))


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """(i, 1 << j, j, 1 << i) for each pair i < j by its bit in the upper
    triangle of ``graph6_encode``, bit 0 the last (n <= VERTEX_CAP)."""
    return tuple(reversed([(i, 1 << j, j, 1 << i) for j in range(1, n) for i in range(j)]))


def _rows(n: int, bits: int) -> tuple[int, ...]:
    """The rows of the graph on n vertices whose upper triangle, read in
    the column order of ``graph6_encode`` with the first pair highest, is
    ``bits``."""
    rows = [0] * n
    pairs = _pairs(n)
    while bits:
        p = bits.bit_length() - 1
        bits ^= 1 << p
        i, bj, j, bi = pairs[p]
        rows[i] |= bj
        rows[j] |= bi
    return tuple(rows)


# ---------------------------------------------------------------------------
# exhaustive non-isomorphic enumeration


def enumerate_graphs(n_max: int) -> Iterator[Graph]:
    """One representative per isomorphism class, orders 1..n_max: its
    canonical form.

    Orderly generation (Read, "Every one a winner", 1978): every graph held
    is a canonical form. A child of an order-m form (new vertex m attached
    by an arbitrary neighborhood mask) is kept iff it is a canonical form
    too, that is iff its own labeling spells its minimal bits: the parent's
    bits followed by the mask's column, read in index order. The first m
    vertices of a canonical form of order m+1 are a canonical form: their
    bits are a prefix of its minimal bits, and a labeling of them with lower
    bits would give one of the whole graph too. So each class is reached
    from exactly one parent, through the mask that is its last column; two
    kept children with equal bits would have equal rows, so each is kept
    once.

    Output per order comes in ascending canonical key with no sort. The
    parents come in key order, a child's bits are its parent's bits
    followed by its column, and each parent tries its columns in ascending
    order, so every child of a lower parent comes before those of a higher
    one, and a parent's children ascend. So each child is yielded as it is
    kept, and only the orders below n_max are held, as parents.

    Let c_k be the parent's column k (k bits, vertex 0 highest) and x the
    new vertex's column (m bits, vertex m-1 lowest). Placing the new vertex
    at position k, after vertices 0..k-1, keeps the first k columns and
    makes column k equal to x >> (m-k). So if x < c_k << (m-k) for some k,
    the child has a labeling below its own and is not kept: the columns x
    tried start at the maximum of c_k << (m-k), and none below it is built.
    The columns tried are a bitset over the 2^m columns, less those the
    twin skip below rules out.

    A mask that holds the previous twin t of a vertex v but not v itself is
    skipped unwalked. t comes before v, and swapping them is an
    automorphism of the parent. It maps the child to an isomorphic one
    whose last column has v's bit set instead of t's. v comes later, so
    that column is smaller: the child has a labeling below its own and is
    not kept.

    Every other child from the bound up is decided by a walk of its
    parent's search. The parent's own search runs once, at its first child
    admitted, and keeps every state it evaluates (``_trace``). One pass
    then reads the new vertex w at every traced state for all the columns
    at once (``_sweep``), and each child searches only the states that
    place w (``_walk``); it is kept, with its own bits cached, iff no state
    reads below the child's own column at its level. The root is the one
    child of the order-0 graph. To order 7 that is 1,993 walks, of which
    741 reject (723 in the sweep's reject set), over 209 traces; a child is
    built as a ``Graph`` only once it is kept, and yielded at once. Five
    conditions make the walk exact:

    (a) Below the last level, a child's own column equals its parent's, and
        the parent's own labeling is minimal. So at a traced state the
        child reads the smaller of the parent's column and w's. w's column
        there is fixed by the mask: its count of neighbours in each cell
        and its bits at the tail vertices placed, which the sweep reads
        for every mask at once. The child is rejected iff w, at a traced
        state or in a branch that holds it, reads below the child's own
        column.
    (b) Two states that the parent's search merges by key can differ in
        w's block. So the trace keeps every state, and prunes no holder by
        an orbit: the parent's automorphisms need not be the child's.
    (c) A state that the parent's search drops, because its column is above
        its own, builds no children, but the sweep reads it too, and it
        opens a branch where w ties that own column.
    (d) The parent's twin filter serves every admitted child, because the
        twin skip admits only masks that hold a suffix of each parent twin
        class. Take any labeling that places a held later twin before an
        unheld earlier twin. Swapping the two is an automorphism of the
        parent, and it moves a 1 that involves w to a later position: the
        bits fall. Two twins on one side of the mask are twins of the child.
        So some minimal labeling keeps the parent's twin order, and the
        trace and the branches keep it too, with w free.
    (e) The last level is swept as well: at the traced leaves, where w is
        the only holder left, w's column is compared with the child's last
        own column, the mask's, whose bit q is the set of masks that hold
        vertex q.

    The branches start where w ties at a traced state, and at the
    independent sets of alpha vertices that hold w: the parent's sets of
    alpha-1 vertices in twin order that miss the mask, plus w. If the child's
    independence number is alpha+1, those are not maximum, but then some
    traced set, in twin order, misses the mask too (a held part of a class
    is a suffix), and w reads a zero column there, below the own column
    alpha, unless the parent is edgeless and the mask empty. A branch runs
    the search's level step on the child, merged by key. The trace and the
    walk count their states and the cells they read against LABEL_CAP as
    the search does, and the sweep its states and the bits it compares.
    """
    if n_max > ENUM_CAP:
        raise CapExceeded(f"n_max={n_max} exceeds enumeration cap {ENUM_CAP}")
    level = [_built(0, ())]
    level[0]._bits = 0  # the order-0 graph, whose one child is the root
    for m in range(n_max):
        nxt = []
        # masks[x] is the mask whose column, read in index order, is x:
        # reversing m bits is its own inverse
        masks = [_column(x, range(m)) for x in range(1 << m)]
        has = _holders(m)
        new = 1 << m
        for parent in level:
            rows = parent.adj
            # a canonical form's own columns spell its minimal bits
            pbase = parent.canonical_bits << m
            bound = max((_column(row, range(k)) << (m - k) for k, row in enumerate(rows)), default=0)
            lower = _twin_before(rows)
            todo = (1 << (1 << m)) - (1 << bound)  # the columns from the bound up
            for v, t in enumerate(lower):
                if t:  # the twin skip
                    todo &= ~(has[t.bit_length() - 1] & ~has[v])
            trace = None
            while todo:
                low = todo & -todo
                todo ^= low
                col = low.bit_length() - 1
                mask = masks[col]
                if trace is None:  # the parent's own search, once
                    trace = _trace(rows, lower)
                adj = tuple(rows[v] | new if (mask >> v) & 1 else rows[v]
                            for v in range(m)) + (mask,)
                if _walk(adj, col, trace):
                    child = _built(m + 1, adj)
                    child._bits = pbase | col
                    if m + 1 < n_max:  # the last order is yielded, not held
                        nxt.append(child)
                    yield child
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
