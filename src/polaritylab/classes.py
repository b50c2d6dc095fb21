"""Recognition, decomposition, and generation of four cograph superclasses.

Covered families: cographs (P4-free), P4-sparse graphs (no five vertices
induce two P4s), P4-extendible graphs (every P4 has at most one outside
vertex on a P4 meeting it), and C5-free P4-extendible graphs ("62").

Each class has one forbidden-structure recognizer, ``certificate``: the
structure that proves a graph is not in the class, or None for a member.
The ``is_*`` predicates read it. The structural recognizer is the
decomposition itself: the connectedness recursion (components /
co-components / spider nodes) that builds the decomposition trees.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, groupby, permutations
from typing import Callable, Iterator, Literal, Optional, Union

from . import graphs as gr
from . import polarity
from .errors import BadParameter, CapExceeded, NotAP4, NotInClass
from .graphs import (
    ENUM_CAP,
    Graph,
    _attach_head,
    _bits_to_tuple,
    _co_rows,
    _component_masks,
    _edges_in,
    _has_c5,
    _mask_of,
    catalog,
    complete_graph,
    disjoint_union,
    join,
    p4_masks,
)

ClassId = Literal["cograph", "p4sparse", "p4extendible", "62"]
CLASS_IDS: tuple[ClassId, ...] = ("cograph", "p4sparse", "p4extendible", "62")

ExtKind = Literal["p4", "c5", "p5", "house", "banner", "cobanner", "fork", "kite"]
EXT_KINDS: tuple[ExtKind, ...] = (
    "p4", "c5", "p5", "house", "banner", "cobanner", "fork", "kite",
)
SEPARABLE_KINDS: tuple[ExtKind, ...] = ("p4", "banner", "cobanner", "fork", "kite")


# ---------------------------------------------------------------------------
# spiders


@dataclass(frozen=True)
class SpiderPartition:
    """(S, K, R) spider structure: independent legs matched onto a clique body.

    ``pairing`` lists (leg, body partner) pairs; a thin leg sees exactly its
    partner, a thick leg sees the rest of the body. The head is completely
    adjacent to the body and completely nonadjacent to the legs.
    """

    legs: tuple[int, ...]
    body: tuple[int, ...]
    head: tuple[int, ...]
    thin: bool
    pairing: tuple[tuple[int, int], ...]

    def validate(self, g: Graph) -> bool:
        s = _mask_of(self.legs)
        k = _mask_of(self.body)
        r = _mask_of(self.head)
        n_mask = (1 << g.n) - 1
        if s | k | r != n_mask or (s & k) or (s & r) or (k & r):
            return False
        if len(self.legs) != len(self.body) or len(self.legs) < 2:
            return False
        if dict(self.pairing).keys() != set(self.legs):
            return False
        if set(dict(self.pairing).values()) != set(self.body):
            return False
        for b in self.body:
            if g.adj[b] & k != k ^ (1 << b):  # body is a clique
                return False
        for leg, partner in self.pairing:
            inside = g.adj[leg] & (s | k)
            want = (1 << partner) if self.thin else k ^ (1 << partner)
            if inside != want:
                return False
        for h in self.head:
            if g.adj[h] & k != k or g.adj[h] & s:
                return False
        return True


def _find_spider_masked(
    g: Graph, mask: int, co: list[int]
) -> Optional[SpiderPartition]:
    """Spider structure of G[mask], or None; thin is preferred (sigma2 = tau2).

    A thick spider is a thin spider of the complement with legs and body
    swapped, so one scan runs over the rows and then the complement rows
    ``co`` (``_co_rows(g.adj, mask)``).
    """
    if mask.bit_count() < 4:
        return None
    for thin in (True, False):
        rows = g.adj if thin else co
        pairing = [
            (v, (rows[v] & mask).bit_length() - 1)
            for v in _bits_to_tuple(mask)
            if (rows[v] & mask).bit_count() == 1
        ]
        legs = _mask_of(leg for leg, _ in pairing)
        body = _mask_of(b for _, b in pairing)
        head = mask & ~legs & ~body
        if (
            len(pairing) < 2
            or body.bit_count() != len(pairing)
            or body & legs
            or any(rows[b] & body != body ^ (1 << b) for b in _bits_to_tuple(body))
            or any(rows[r] & body != body for r in _bits_to_tuple(head))
        ):
            continue
        if not thin:
            legs, body = body, legs
            pairing = [(b, leg) for leg, b in pairing]
        return SpiderPartition(
            _bits_to_tuple(legs), _bits_to_tuple(body), _bits_to_tuple(head),
            thin, tuple(sorted(pairing)),
        )
    return None


def find_spider(g: Graph) -> Optional[SpiderPartition]:
    """Detect whether ``g`` is a spider; thin is preferred (sigma2 = tau2)."""
    full = (1 << g.n) - 1
    return _find_spider_masked(g, full, _co_rows(g.adj, full))


def _spider_base(j: int, thick: bool = False) -> tuple[Graph, int]:
    """(headless spider, attach mask): the head sees the whole body 0..j-1."""
    return gr.headless_spider(j, thick), (1 << j) - 1


def sigma_j(head: Graph, j: int) -> Graph:
    """Thin spider with |S| = |K| = j over the given head graph."""
    return _attach_head(*_spider_base(j), head)


def tau_j(head: Graph, j: int) -> Graph:
    """Thick spider with |S| = |K| = j over the given head graph."""
    return _attach_head(*_spider_base(j, thick=True), head)


# ---------------------------------------------------------------------------
# extension graphs and extension spiders


@lru_cache(maxsize=None)
def _ext_graphs() -> dict[str, Graph]:
    return {kind: catalog(kind) for kind in EXT_KINDS}


def _triangle(adj, verts) -> int:
    """Upper-triangle bits of G[verts] (vertex i is verts[i]), first pair highest."""
    bits = 0
    for u, v in combinations(verts, 2):
        bits = bits << 1 | adj[u] >> v & 1
    return bits


@lru_cache(maxsize=None)
def _ext_table() -> dict[tuple[int, int], tuple[str, tuple[int, ...]]]:
    """The kind of every relabelled copy of each extension graph, by (order,
    ``_triangle``), and a map onto the catalog copy (vertex i of the copy
    goes to ``perm[i]``): 24 or 120 copies each, found with no labeling."""
    return {(g.n, _triangle(g.adj, perm)): (kind, perm)
            for kind, g in _ext_graphs().items() for perm in permutations(range(g.n))}


@lru_cache(maxsize=None)
def _ext_autos(kind: str) -> tuple[tuple[int, ...], ...]:
    """The automorphisms of an extension graph's catalog copy, but the
    identity."""
    g = _ext_graphs()[kind]
    own = tuple(range(g.n))
    return tuple(p for p in permutations(own)
                 if p != own and _triangle(g.adj, p) == _triangle(g.adj, own))


def _mids(adj, p4s) -> int:
    """Midpoint mask: the vertices of degree 2 inside some P4 among the masks
    ``p4s``. In each separable extension graph the midpoints and endpoints
    of its P4s partition the vertices, so the endpoints are the rest."""
    mids = 0
    for m in p4s:
        for v in _bits_to_tuple(m):
            if (adj[v] & m).bit_count() == 2:
                mids |= 1 << v
    return mids


@lru_cache(maxsize=None)
def _separable_mids(kind: str) -> int:
    """Midpoint mask of a separable extension graph's catalog copy."""
    g = _ext_graphs()[kind]
    return _mids(g.adj, p4_masks(g))


def _ext_kind_of(g: Graph, mask: int) -> Optional[str]:
    if mask.bit_count() not in (4, 5):
        return None
    verts = _bits_to_tuple(mask)
    found = _ext_table().get((len(verts), _triangle(g.adj, verts)))
    return found and found[0]


@dataclass(frozen=True)
class ExtSpiderPartition:
    """Extension-graph spider: head joined to the midpoints of the base."""

    kind: str
    endpoints: tuple[int, ...]
    midpoints: tuple[int, ...]
    head: tuple[int, ...]


def _find_ext_spider_masked(g: Graph, mask: int) -> Optional[ExtSpiderPartition]:
    """Extension-spider structure of G[mask], or None.

    Tries every induced P4 as the seed W: the extension set of a P4 inside
    the head never validates, so a single arbitrary seed is not sound.
    """
    adj = g.adj
    p4s = [m for m in p4_masks(g) if not m & ~mask]
    for w in p4s:
        d = _p4s_meeting(w, p4s)
        if d.bit_count() > 5 or d == mask:
            continue
        kind = _ext_kind_of(g, d)
        if kind is None or kind not in SEPARABLE_KINDS:
            continue
        mids = _mids(adj, [m for m in p4s if not m & ~d])
        rest = mask & ~d
        if any(adj[v] & d != mids for v in _bits_to_tuple(rest)):
            continue
        if any(m & d and m & rest for m in p4s):
            continue
        return ExtSpiderPartition(
            kind, _bits_to_tuple(d & ~mids), _bits_to_tuple(mids), _bits_to_tuple(rest)
        )
    return None


def find_ext_spider(g: Graph) -> Optional[ExtSpiderPartition]:
    """Detect whether ``g`` is an extension-graph spider with nonempty head."""
    return _find_ext_spider_masked(g, (1 << g.n) - 1)


def sigma_sep(kind: str, head: Graph) -> Graph:
    """Separable extension operation: base graph with head joined to its
    midpoints and nothing joined to its endpoints."""
    if kind not in SEPARABLE_KINDS:
        raise BadParameter(f"{kind!r} is not a separable extension graph")
    return _attach_head(_ext_graphs()[kind], _separable_mids(kind), head)


def _p4s_meeting(w: int, p4s) -> int:
    """W plus every P4 mask in ``p4s`` that shares a vertex with W."""
    acc = w
    for m in p4s:
        if m & w:
            acc |= m
    return acc


def extension_set(g: Graph, w) -> tuple[int, ...]:
    """S(W): vertices outside W lying on a P4 that shares a vertex with W."""
    wmask = _mask_of(w)
    if wmask not in p4_masks(g):
        raise NotAP4(f"{tuple(sorted(w))} does not induce a P4")
    return _bits_to_tuple(_p4s_meeting(wmask, p4_masks(g)) & ~wmask)


# ---------------------------------------------------------------------------
# forbidden-structure certificates

def p4_sparse_certificate(g: Graph) -> Optional[tuple[int, ...]]:
    """The lexicographically first 5-vertex set inducing two P4s, or None
    when the graph is P4-sparse.

    Two distinct P4s inside five vertices share three of them, so those sets
    are the unions of two P4s that meet in three vertices: P4s are grouped
    by each of their four 3-subsets. A triple's first union adds its two
    lowest extra vertices; of two 5-sets the first holds the lowest vertex of
    their difference.
    """
    extras: dict[int, int] = {}
    for m in p4_masks(g):
        rest = m
        while rest:
            bit = rest & -rest
            rest ^= bit
            extras[m ^ bit] = extras.get(m ^ bit, 0) | bit
    best = 0
    for triple, ex in extras.items():
        if ex & (ex - 1):
            low = ex & -ex
            rest = ex ^ low
            q = triple | low | rest & -rest
            if not best or (q ^ best) & -(q ^ best) & q:
                best = q
    return _bits_to_tuple(best) if best else None


def p4_extendible_certificate(g: Graph) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(W, S(W)) with |S(W)| >= 2, or None when the graph is P4-extendible."""
    masks = p4_masks(g)
    for w in masks:
        acc = _p4s_meeting(w, masks) & ~w
        if acc.bit_count() >= 2:
            return _bits_to_tuple(w), _bits_to_tuple(acc)
    return None


def certificate(g: Graph, class_id: ClassId) -> Optional[tuple]:
    """The forbidden structure that proves ``g`` is not in the class, or None
    for a member: the lexicographically first induced P4 for cographs,
    ``p4_sparse_certificate`` and ``p4_extendible_certificate`` for the
    other two. The C5-free class ("62") keeps none."""
    if class_id == "cograph":
        p4s = p4_masks(g)
        return _bits_to_tuple(p4s[0]) if p4s else None
    if class_id == "p4sparse":
        return p4_sparse_certificate(g)
    if class_id == "p4extendible":
        return p4_extendible_certificate(g)
    raise BadParameter(f"no certificate for class {class_id!r}")


# ---------------------------------------------------------------------------
# recognizers


def is_cograph(g: Graph) -> bool:
    """P4-free test."""
    return certificate(g, "cograph") is None


def is_p4_sparse(g: Graph) -> bool:
    return certificate(g, "p4sparse") is None


def is_p4_extendible(g: Graph) -> bool:
    return certificate(g, "p4extendible") is None


def is_62_graph(g: Graph) -> bool:
    """C5-free P4-extendible test."""
    return not _has_c5(g) and is_p4_extendible(g)


def recognizer(class_id: ClassId):
    """Membership predicate for a class id."""
    table = {
        "cograph": is_cograph,
        "p4sparse": is_p4_sparse,
        "p4extendible": is_p4_extendible,
        "62": is_62_graph,
    }
    try:
        return table[class_id]
    except KeyError:
        raise BadParameter(f"unknown class id {class_id!r}") from None


# ---------------------------------------------------------------------------
# decomposition trees


@dataclass(frozen=True)
class Leaf:
    vertex: int

    @property
    def vertices(self) -> tuple[int, ...]:
        return (self.vertex,)


@dataclass(frozen=True)
class UnionNode:
    children: tuple["DecompTree", ...]

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(v for c in self.children for v in c.vertices))


@dataclass(frozen=True)
class JoinNode:
    children: tuple["DecompTree", ...]

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(v for c in self.children for v in c.vertices))


@dataclass(frozen=True)
class SpiderNode:
    partition: SpiderPartition
    head: Optional["DecompTree"]

    @property
    def vertices(self) -> tuple[int, ...]:
        p = self.partition
        return tuple(sorted(p.legs + p.body + p.head))


@dataclass(frozen=True)
class ExtGraphNode:
    kind: str
    members: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def vertices(self) -> tuple[int, ...]:
        return self.members


@dataclass(frozen=True)
class ExtSpiderNode:
    kind: str
    endpoints: tuple[int, ...]
    midpoints: tuple[int, ...]
    base_edges: tuple[tuple[int, int], ...]
    head: "DecompTree"

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.endpoints + self.midpoints + self.head.vertices))


DecompTree = Union[Leaf, UnionNode, JoinNode, SpiderNode, ExtGraphNode, ExtSpiderNode]


def build_decomposition(g: Graph, class_id: ClassId) -> DecompTree:
    """Decomposition tree for a P4-sparse or P4-extendible graph.

    Raises NotInClass (with a certificate) for non-members, and BadParameter
    for the empty graph, which has no tree.
    """
    if class_id not in ("p4sparse", "p4extendible"):
        raise BadParameter(f"no decomposition mode for class {class_id!r}")
    cert = certificate(g, class_id)
    if cert is not None:
        if class_id == "p4sparse":
            raise NotInClass("not P4-sparse", certificate=("five_vertex_set", cert))
        raise NotInClass("not P4-extendible", certificate=("extension_set",) + cert)
    if g.n == 0:
        raise BadParameter("the empty graph has no decomposition tree")
    return _decompose(g, (1 << g.n) - 1, class_id)


def _decompose(g: Graph, mask: int, class_id: ClassId) -> DecompTree:
    if mask.bit_count() == 1:
        return Leaf(mask.bit_length() - 1)
    comps = _component_masks(g.adj, mask)
    if len(comps) > 1:
        return UnionNode(tuple(_decompose(g, c, class_id) for c in comps))
    co = _co_rows(g.adj, mask)
    cocomps = _component_masks(co, mask)
    if len(cocomps) > 1:
        return JoinNode(tuple(_decompose(g, c, class_id) for c in cocomps))
    if class_id == "p4sparse":
        part = _find_spider_masked(g, mask, co)
        if part is None:
            raise NotInClass("spider case failed", certificate=None)
        head = _decompose(g, _mask_of(part.head), class_id) if part.head else None
        return SpiderNode(part, head)
    kind = _ext_kind_of(g, mask)
    if kind is not None:
        return ExtGraphNode(kind, _bits_to_tuple(mask), _edges_in(g.adj, mask))
    found = _find_ext_spider_masked(g, mask)
    if found is None:
        raise NotInClass("extension spider case failed", certificate=None)
    head = _mask_of(found.head)
    return ExtSpiderNode(found.kind, found.endpoints, found.midpoints,
                         _edges_in(g.adj, mask & ~head), _decompose(g, head, class_id))


def _collect_edges(node: DecompTree) -> list[tuple[int, int]]:
    if isinstance(node, Leaf):
        return []
    if isinstance(node, (UnionNode, JoinNode)):
        edges = [e for c in node.children for e in _collect_edges(c)]
        if isinstance(node, JoinNode):
            sets = [c.vertices for c in node.children]
            for i, a in enumerate(sets):
                for b in sets[i + 1:]:
                    edges.extend((u, v) for u in a for v in b)
        return edges
    if isinstance(node, SpiderNode):
        p = node.partition
        edges = list(_collect_edges(node.head)) if node.head else []
        edges.extend(
            (a, b) for i, a in enumerate(p.body) for b in p.body[i + 1:]
        )
        for leg, partner in p.pairing:
            if p.thin:
                edges.append((leg, partner))
            else:
                edges.extend((leg, b) for b in p.body if b != partner)
        edges.extend((h, b) for h in p.head for b in p.body)
        return edges
    if isinstance(node, ExtGraphNode):
        return list(node.edges)
    edges = list(node.base_edges)
    edges.extend(_collect_edges(node.head))
    edges.extend((h, m) for h in node.head.vertices for m in node.midpoints)
    return edges


def rebuild(tree: DecompTree) -> Graph:
    """Reconstruct the exact graph a full decomposition tree was built from."""
    verts = tree.vertices
    if verts != tuple(range(len(verts))):
        raise BadParameter("tree does not cover a contiguous vertex range")
    return gr.from_edges(len(verts), _collect_edges(tree))


# ---------------------------------------------------------------------------
# automorphisms read off the tree


def tree_maps(g: Graph, tree: DecompTree) -> list[tuple[int, ...]]:
    """Automorphisms of ``g`` read off its decomposition tree, each a tuple
    (``t[v]`` is v's image), for ``graphs._min_bits``'s ``maps``:

    - the transposition of every two legs of a spider node, with their body
      partners;
    - the swap of every two isomorphic sibling subtrees under a union or
      join node, but two leaves: those are twins, which the search already
      places in index order;
    - the automorphisms of each extension graph node, and those of the base
      of each extension spider node, with the head fixed (they keep the
      midpoints, which the head sees, since those are the middles of the
      base's P4s).

    Isomorphic subtrees are told apart as the closure (``_closure``) tells
    members apart, by a structural code: a leaf's is fixed, a union's or
    join's is its tag and its children's codes, sorted, a spider's is its
    leg count, thin flag and head's code, and an extension node's is its
    kind and its head's code. Codes are computed once, bottom-up, and
    interned per call. Each subtree also gets an order of its vertices (a
    union's or join's children in code order, a spider's legs each followed
    by its partner, an extension graph's as they map onto its catalog copy,
    then the head's), so two subtrees with one code map onto each other
    position by position. The maps are candidates all the same: the search
    keeps one only if it is an automorphism (``graphs._moved``).
    """
    ids: dict[tuple, int] = {}
    identity = list(range(g.n))
    maps: list[tuple[int, ...]] = []

    def swap(a, b) -> None:
        t = identity[:]
        for x, y in zip(a, b):
            t[x], t[y] = y, x
        maps.append(tuple(t))

    def arranged(verts) -> tuple[int, ...]:
        """``verts`` (an extension graph) as they map onto its catalog
        copy, with a map for each automorphism of the copy."""
        kind, perm = _ext_table()[len(verts), _triangle(g.adj, verts)]
        order = [0] * len(verts)
        for v, i in zip(verts, perm):
            order[i] = v
        for p in _ext_autos(kind):
            t = identity[:]
            for i, v in enumerate(order):
                t[v] = order[p[i]]
            maps.append(tuple(t))
        return tuple(order)

    def walk(node: DecompTree) -> tuple[int, tuple[int, ...]]:
        """(code id, vertex order) of a subtree; its maps go to ``maps``."""
        if isinstance(node, Leaf):
            code, order = ("leaf",), (node.vertex,)
        elif isinstance(node, (UnionNode, JoinNode)):
            kids = sorted(map(walk, node.children))
            for _, same in groupby(kids, key=lambda kid: kid[0]):
                orders = [o for _, o in same]
                if len(orders[0]) > 1:
                    for a, b in combinations(orders, 2):
                        swap(a, b)
            code = (type(node).__name__, tuple(c for c, _ in kids))
            order = tuple(v for _, o in kids for v in o)
        elif isinstance(node, SpiderNode):
            p = node.partition
            for a, b in combinations(p.pairing, 2):
                swap(a, b)
            head, tail = walk(node.head) if node.head else (-1, ())
            code = ("spider", p.thin, len(p.pairing), head)
            order = tuple(v for pair in p.pairing for v in pair) + tail
        elif isinstance(node, ExtGraphNode):
            code, order = ("ext", node.kind), arranged(node.members)
        else:
            head, tail = walk(node.head)
            code = ("extspider", node.kind, head)
            order = arranged(tuple(sorted(node.endpoints + node.midpoints))) + tail
        return ids.setdefault(code, len(ids)), order

    walk(tree)
    return maps


# the class whose decomposition tree a member of each class has
_TREE_CLASS: dict[str, ClassId] = {
    "cograph": "p4sparse", "p4sparse": "p4sparse", "p4extendible": "p4extendible",
    "62": "p4extendible",
}


def member_key(g: Graph, class_id: Optional[ClassId] = None,
               tree: Optional[DecompTree] = None) -> bytes:
    """``g``'s canonical key. If ``g`` is known to be a member of the class
    ``class_id``, or ``tree`` is its decomposition tree, the search prunes
    by the automorphisms the tree names (``tree_maps``) and pairs no
    holders; the tree is built only when the search first asks for them.
    The key is the same either way: only the search differs."""
    if tree is None and class_id is None:
        return g.canonical_key()

    def maps() -> list[tuple[int, ...]]:
        return tree_maps(g, tree or _decompose(g, (1 << g.n) - 1, _TREE_CLASS[class_id]))

    return g.canonical_key(maps)


# ---------------------------------------------------------------------------
# constructive generation


# extension graphs that no head operation builds from the order-0 head
_EXPLICIT_BASES = {"p4extendible": ("c5", "p5", "house"), "62": ("p5", "house")}


@lru_cache(maxsize=None)
def _head_operations(class_id: ClassId, n_max: int) -> tuple:
    """(base order, ((base, attach), ...)) per head operation, in the order
    the closure applies them; a head h gives ``_attach_head(base, attach, h)``,
    of order base + h.n: the sigma/tau spiders (j <= n_max/2), or the five
    separable extension operations. Built on first use."""
    if class_id == "p4sparse":
        return tuple(
            (2 * j, (_spider_base(j),) + ((_spider_base(j, thick=True),) if j >= 3 else ()))
            for j in range(2, n_max // 2 + 1)
        )
    if class_id in ("p4extendible", "62"):
        return tuple((_ext_graphs()[k].n, ((_ext_graphs()[k], _separable_mids(k)),))
                     for k in SEPARABLE_KINDS)
    return ()


def _closure(
    class_id: ClassId,
    n_max: int,
    keep: Optional[Callable[[polarity.Value], bool]] = None,
    cluster: bool = False,
) -> tuple[list[polarity.Value], Callable[[int], Graph]]:
    """The value of each member of orders 0..n_max by id, and ``member(i)``,
    which builds id i's graph. Ids are given in the order members are first
    reached, K0 is id 0, and every part of an id has a smaller id.

    Every class closes {K1} under disjoint union, join and its head operations
    (``_head_operations``): the sigma/tau spiders for P4-sparse, the five
    separable extension operations for P4-extendible. The order-0 graph
    is a head at level 0, so the headless spiders and the separable extension
    graphs come out of the same loop; C5, P5 and the house are the other
    P4-extendible bases. The C5-free variant drops C5 (the operations cannot
    create an induced C5 across a boundary, since that would entail a
    crossing P4).

    Members are told apart by a structural code, not a canonical labeling.
    Both classes have a unique tree representation (Jamison and Olariu), so
    the operation that builds a graph, applied to the ids of its parts, names
    its isomorphism class. K1 and the explicit bases have fixed codes, a head
    operation's code is (op index, base index, head id), and a union's
    (join's) is its tag and the sorted ids of its components
    (co-components): a part that is itself a union (join) contributes its
    own parts. Codes are interned to ids per call, and each id records the
    recipe of its first build: the builder, its fixed arguments (a head
    operation's base and attach mask) and the ids of its parts.

    Each id also carries a value, its polarity profile and the profiles of
    its one-vertex deletions (``polarity.Value``), folded from the values of
    its parts by the same operation: ``polarity._combine_value`` for a union
    or join, with the side flags of its module, and
    ``polarity._module_rule(base, attach)`` for a head operation; a fixed
    base is its own rule with attach mask 0, applied to K0's value. The
    profile is P, which answers the (s,k) specs, or with ``cluster`` the
    unipolar profile Q, whose side A is a cluster too. No solver search
    runs, and no graph is built. ``member(i)`` builds id i
    from its recipe when it is first read, on its parts' memoised graphs, so
    a member has the vertex labels of its first build, and reading the ids
    in id order builds them in the order the closure reached them.

    A member for which ``keep(value)`` is false gets an id but is not
    stored, so nothing is built from it. This is exact on every member whose
    route parts (components, co-components, sub-unions, sub-joins, heads)
    pass ``keep``, and whose parts' route parts do in turn: every route to
    it is then reached, from parts reached as without ``keep``, so its first
    recipe, and hence its graph, is the one it has without ``keep``. A
    hereditary ``keep`` passes the route parts of every member that passes
    it, since they are induced subgraphs. The obstruction ``keep``
    (``obstructions.enumerate_minimal_obstructions``) is not hereditary: it
    also asks that a member be critical, that every one-vertex deletion
    change its capped profile. It still passes the route parts of every
    member that passes it. A member's capped profile is a function of its
    route parts' (``polarity._capped``), so a deletion inside a part that
    keeps the part's capped profile keeps the member's: a part that is not
    critical makes the member not critical. The caller checks ``n_max``
    against its own cap.
    """
    if class_id not in CLASS_IDS:
        raise BadParameter(f"unknown class id {class_id!r}")
    ops = _head_operations(class_id, n_max)
    rules = [[polarity._module_rule(*pair, cluster) for pair in pairs] for _order, pairs in ops]
    combine = (("U", disjoint_union, (cluster, True)), ("J", join, (not cluster, False)))
    ids: dict[tuple, int] = {}
    codes: list[tuple] = []
    values: list[polarity.Value] = []
    recipes: list[Optional[tuple]] = []  # (builder, *fixed args, part ids) of each first build
    levels: defaultdict[int, list[int]] = defaultdict(list)

    def add(code: tuple, order: int, recipe: Optional[tuple], rule, *args) -> Optional[int]:
        """The new id of a code not seen before, with its value ``rule(*args)``
        and its recipe, stored at its order if ``keep`` passes it; or None."""
        if code in ids:
            return None
        i = ids[code] = len(codes)
        codes.append(code)
        values.append(rule(*args))
        recipes.append(recipe)
        if keep is None or keep(values[i]):
            levels[order].append(i)
        return i

    def parts(i: int, tag: str) -> tuple[int, ...]:
        code = codes[i]
        return code[1] if code[0] == tag else (i,)

    def member(i: int) -> Graph:
        g = built.get(i)
        if g is None:
            build, *args, part_ids = recipes[i]
            g = built[i] = build(*args, *map(member, part_ids))
        return g

    built = {add(("K0",), 0, None, lambda: polarity.K0_VALUE): gr.empty_graph(0)}
    bases = [(("K1",), complete_graph(1))]
    bases += [(("base", k), _ext_graphs()[k]) for k in _EXPLICIT_BASES.get(class_id, ())]
    for code, g in bases:
        if g.n <= n_max:
            rule = polarity._module_rule(g, 0, cluster)
            built[add(code, g.n, None, rule, polarity.K0_VALUE)] = g

    for m in range(2, n_max + 1):
        for op, (order, pairs) in enumerate(ops):
            for h_id in levels.get(m - order, ()):
                for b, (base, attach) in enumerate(pairs):
                    add((op, b, h_id), m, (_attach_head, base, attach, (h_id,)),
                        rules[op][b], values[h_id])
        for a in range(1, m // 2 + 1):
            for x_id in levels[a]:
                for y_id in levels[m - a]:
                    for tag, build, flags in combine:
                        code = (tag, tuple(sorted(parts(x_id, tag) + parts(y_id, tag))))
                        add(code, m, (build, (x_id, y_id)), polarity._combine_value,
                            values[x_id], values[y_id], *flags)
    return values, member


def generate_class(class_id: ClassId, n_max: int) -> Iterator[Graph]:
    """One member per isomorphism class, orders 1..n_max, sorted by
    (order, canonical key).

    The members are ``_closure``'s, deduplicated by structural code: every
    id but K0's is built, in id order, so each is built once, on its first
    recipe, and labeled once, for the sort.
    """
    if n_max > ENUM_CAP:
        raise CapExceeded(f"n_max={n_max} exceeds generation cap {ENUM_CAP}")
    values, member = _closure(class_id, n_max)
    yield from sorted(map(member, range(1, len(values))), key=lambda g: (g.n, g.canonical_key()))
