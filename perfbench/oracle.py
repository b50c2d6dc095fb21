"""Reference checks that do not come from the code being timed.

Every predicate here is written from the definition of the property, on
plain bitmask rows (a tuple of neighbourhood masks), and imports nothing
from polaritylab. The polar solver prunes on both sides of the partition,
which is exact because both side properties are hereditary; it returns the
same (|A|, lexicographic A)-first witness that the library documents.
"""

from __future__ import annotations

from itertools import combinations

from inputs import EXTENSION_GRAPHS


# ---------------------------------------------------------------------------
# graph6 and canonical-key decoding


class Malformed(ValueError):
    pass


def decode_graph6(text: str) -> tuple[int, ...]:
    if not text or not 63 <= ord(text[0]) <= 125:
        raise Malformed("bad header")
    n = ord(text[0]) - 63
    nbits = n * (n - 1) // 2
    body = text[1:]
    if len(body) != (nbits + 5) // 6:
        raise Malformed("body length")
    bits = 0
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise Malformed("body byte")
        bits = (bits << 6) | val
    pad = 6 * len(body) - nbits
    if bits & ((1 << pad) - 1):
        raise Malformed("padding")
    return _triangle_rows(n, bits >> pad, nbits)


def decode_key(hex_key: str) -> tuple[int, ...]:
    """Rows of the relabelled graph a canonical key spells out: the order
    byte, then the upper triangle in graph6 column order, left aligned."""
    raw = bytes.fromhex(hex_key)
    n = raw[0]
    nbits = n * (n - 1) // 2
    value = int.from_bytes(raw[1:], "big")
    return _triangle_rows(n, value >> (8 * (len(raw) - 1) - nbits), nbits)


def _triangle_rows(n: int, bits: int, nbits: int) -> tuple[int, ...]:
    rows = [0] * n
    t = nbits - 1
    for j in range(1, n):
        for i in range(j):
            if (bits >> t) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            t -= 1
    return tuple(rows)


# ---------------------------------------------------------------------------
# isomorphism


def isomorphic(a, b) -> bool:
    """Backtracking isomorphism test with degree-profile candidate filters."""
    n = len(a)
    if n != len(b):
        return False

    def profile(rows):
        deg = [r.bit_count() for r in rows]
        return [
            (deg[v], tuple(sorted(deg[u] for u in range(n) if (rows[v] >> u) & 1)))
            for v in range(n)
        ]

    pa, pb = profile(a), profile(b)
    if sorted(pa) != sorted(pb):
        return False
    # place vertices of a so that each has as many placed neighbours as possible
    order, placed = [], 0
    for _ in range(n):
        v = max(
            (u for u in range(n) if not (placed >> u) & 1),
            key=lambda u: ((a[u] & placed).bit_count(), -pb.count(pa[u])),
        )
        order.append(v)
        placed |= 1 << v
    image = [-1] * n
    used = 0

    def extend(k: int) -> bool:
        nonlocal used
        if k == n:
            return True
        v = order[k]
        for w in range(n):
            if (used >> w) & 1 or pb[w] != pa[v]:
                continue
            if any(((a[v] >> u) & 1) != ((b[w] >> image[u]) & 1) for u in order[:k]):
                continue
            image[v] = w
            used |= 1 << w
            if extend(k + 1):
                return True
            used ^= 1 << w
        image[v] = -1
        return False

    return extend(0)


def same_graph_lists(found, expected) -> bool:
    """Multiset equality up to isomorphism."""
    if len(found) != len(expected):
        return False
    left = list(expected)
    for g in found:
        hit = next((i for i, h in enumerate(left) if isomorphic(g, h)), None)
        if hit is None:
            return False
        left.pop(hit)
    return True


# ---------------------------------------------------------------------------
# class definitions


def _mask(vertices) -> int:
    return sum(1 << v for v in vertices)


def _is_p4(rows, mask: int) -> bool:
    degs = []
    rest = mask
    while rest:
        low = rest & -rest
        degs.append((rows[low.bit_length() - 1] & mask).bit_count())
        rest ^= low
    return sum(degs) == 6 and all(d in (1, 2) for d in degs)


def p4_sets(rows) -> list[int]:
    return [m for m in map(_mask, combinations(range(len(rows)), 4)) if _is_p4(rows, m)]


def _extension_sets(rows, p4s) -> dict[int, int]:
    """S(W) for every induced P4 W: the vertices outside W lying on a P4
    that shares a vertex with W."""
    through = [0] * len(rows)
    for m in p4s:
        rest = m
        while rest:
            low = rest & -rest
            through[low.bit_length() - 1] |= m
            rest ^= low
    out = {}
    for w in p4s:
        acc = 0
        for v in range(len(rows)):
            if (w >> v) & 1:
                acc |= through[v]
        out[w] = acc & ~w
    return out


def _has_c5(rows) -> bool:
    for quint in combinations(range(len(rows)), 5):
        m = _mask(quint)
        if all((rows[v] & m).bit_count() == 2 for v in quint):
            return True  # 2-regular on five vertices is C5
    return False


def classify(rows) -> dict:
    """Membership in the four classes and the induced-P4 count."""
    p4s = p4_sets(rows)
    p4set = set(p4s)
    sparse = True
    for quint in combinations(range(len(rows)), 5):
        m = _mask(quint)
        if sum((m ^ (1 << v)) in p4set for v in quint) >= 2:
            sparse = False
            break
    ext = all(s.bit_count() <= 1 for s in _extension_sets(rows, p4s).values())
    return {
        "cograph": not p4s,
        "p4sparse": sparse,
        "p4extendible": ext,
        "62": ext and not _has_c5(rows),
        "p4_count": len(p4s),
    }


def valid_extension_certificate(rows, w, s) -> bool:
    wmask, smask = _mask(w), _mask(s)
    if not _is_p4(rows, wmask) or smask.bit_count() < 2:
        return False
    return _extension_sets(rows, p4_sets(rows))[wmask] == smask


# ---------------------------------------------------------------------------
# decomposition trees


def valid_p4extendible_tree(rows, tree) -> bool:
    """The JSON tree is a correct decomposition of ``rows``, checked node
    by node against the graph: union children see no edge between them,
    join children see every edge, an extension graph node induces its named
    graph, and an extension spider joins its head to exactly the midpoints."""
    try:
        return _tree_vertices(rows, tree) == (1 << len(rows)) - 1
    except _BadTree:
        return False


class _BadTree(Exception):
    pass


def _induces(rows, mask: int, kind: str) -> bool:
    vs = [v for v in range(len(rows)) if (mask >> v) & 1]
    pos = {v: i for i, v in enumerate(vs)}
    sub = tuple(
        sum(1 << pos[u] for u in vs if (rows[v] >> u) & 1) for v in vs
    )
    return kind in EXTENSION_GRAPHS and isomorphic(sub, EXTENSION_GRAPHS[kind])


def _tree_vertices(rows, node) -> int:
    kind = node["kind"]
    if kind == "leaf":
        return 1 << node["vertex"]
    if kind in ("union", "join"):
        masks = [_tree_vertices(rows, c) for c in node["children"]]
        if len(masks) < 2:
            raise _BadTree(kind)
        total = 0
        for m in masks:
            if total & m:
                raise _BadTree("overlap")
            total |= m
        for x, y in combinations(masks, 2):
            for v in range(len(rows)):
                if (x >> v) & 1:
                    seen = rows[v] & y
                    if (kind == "union" and seen) or (kind == "join" and seen != y):
                        raise _BadTree(kind)
        return total
    if kind == "extgraph":
        m = _mask(node["vertices"])
        if not _induces(rows, m, node["name"]):
            raise _BadTree(kind)
        return m
    if kind == "extspider":
        ends, mids = _mask(node["endpoints"]), _mask(node["midpoints"])
        head = _tree_vertices(rows, node["head"])
        if ends & mids or head & (ends | mids) or not head:
            raise _BadTree(kind)
        if not _induces(rows, ends | mids, node["name"]):
            raise _BadTree(kind)
        if node["name"] not in ("p4", "banner", "cobanner", "fork", "kite"):
            raise _BadTree(kind)
        for v in range(len(rows)):
            if (head >> v) & 1 and rows[v] & (ends | mids) != mids:
                raise _BadTree(kind)
        return ends | mids | head
    if kind == "spider":
        legs, body = _mask(node["legs"]), _mask(node["body"])
        head = _tree_vertices(rows, node["head"]) if node["head"] else 0
        if legs & body or head & (legs | body) or len(node["pairing"]) != len(node["legs"]):
            raise _BadTree(kind)
        for leg, partner in node["pairing"]:
            want = (1 << partner) if node["thin"] else body & ~(1 << partner)
            if rows[leg] & (legs | body) != want:
                raise _BadTree(kind)
        for v in node["body"]:
            if rows[v] & body != body & ~(1 << v):
                raise _BadTree(kind)
        for v in range(len(rows)):
            if (head >> v) & 1 and (rows[v] & (legs | body)) != body:
                raise _BadTree(kind)
        return legs | body | head
    raise _BadTree(kind)


# ---------------------------------------------------------------------------
# polar partitions


def _cluster_ok(rows, mask: int, kmax: int) -> bool:
    """G[mask] is a disjoint union of at most kmax cliques."""
    parts = 0
    rest = mask
    while rest:
        v = (rest & -rest).bit_length() - 1
        closed = (rows[v] | (1 << v)) & mask
        sub = closed
        while sub:
            u = (sub & -sub).bit_length() - 1
            if (rows[u] | (1 << u)) & mask != closed:
                return False
            sub &= sub - 1
        parts += 1
        if parts > kmax:
            return False
        rest &= ~closed
    return True


def _side_a_ok(rows, co, mask: int, smax: int, clique_side: bool) -> bool:
    if clique_side:
        return all(
            (rows[v] | (1 << v)) & mask == mask for v in range(len(rows)) if (mask >> v) & 1
        )
    return _cluster_ok(co, mask, smax)  # complete multipartite = co-cluster


def first_partition(rows, s, k, clique_side=False):
    """(A, B) first in (|A|, lexicographic A) order, or None.

    ``s``/``k`` None mean unbounded."""
    n = len(rows)
    full = (1 << n) - 1
    co = tuple(full & ~r & ~(1 << v) for v, r in enumerate(rows))
    smax = n if s is None else s
    kmax = n if k is None else k

    def feasible(i: int, a: int, b: int) -> bool:
        if i == n:
            return True
        a2, b2 = a | (1 << i), b | (1 << i)
        return (
            _side_a_ok(rows, co, a2, smax, clique_side) and feasible(i + 1, a2, b)
        ) or (_cluster_ok(rows, b2, kmax) and feasible(i + 1, a, b2))

    def search(i: int, a: int, b: int, need: int):
        if need == 0:
            rest = b | (full & ~((1 << i) - 1))
            return a if _cluster_ok(rows, rest, kmax) else None
        if n - i < need:
            return None
        # taking i into A first keeps the lexicographic order of A
        a2 = a | (1 << i)
        if _side_a_ok(rows, co, a2, smax, clique_side):
            found = search(i + 1, a2, b, need - 1)
            if found is not None:
                return found
        b2 = b | (1 << i)
        if _cluster_ok(rows, b2, kmax):
            return search(i + 1, a, b2, need)
        return None

    # one search without a size first: most queries have no partition, and
    # that answer then needs no search per size
    if not feasible(0, 0, 0):
        return None
    for size in range(n + 1):
        a = search(0, 0, 0, size)
        if a is not None:
            return (
                tuple(v for v in range(n) if (a >> v) & 1),
                tuple(v for v in range(n) if not (a >> v) & 1),
            )
    return None


def parse_spec(text: str):
    """(s, k, clique_side) of a spec string."""
    if text == "unipolar":
        return None, None, True
    s, k = text[3:].split(",")
    return (None if s == "inf" else int(s)), (None if k == "inf" else int(k)), False


def valid_partition(rows, a, b, s, k, clique_side) -> bool:
    n = len(rows)
    am, bm = _mask(a), _mask(b)
    if am & bm or am | bm != (1 << n) - 1:
        return False
    co = tuple(((1 << n) - 1) & ~r & ~(1 << v) for v, r in enumerate(rows))
    return _side_a_ok(rows, co, am, n if s is None else s, clique_side) and _cluster_ok(
        rows, bm, n if k is None else k
    )


def delete_vertex(rows, v: int) -> tuple[int, ...]:
    low = (1 << v) - 1
    return tuple(((r & low) | ((r >> 1) & ~low)) for u, r in enumerate(rows) if u != v)


def unipolar_minimality(rows) -> tuple[bool, bool]:
    """(is an obstruction, is a minimal obstruction) for unipolarity."""
    if first_partition(rows, None, None, True) is not None:
        return False, False
    return True, all(
        first_partition(delete_vertex(rows, v), None, None, True) is not None
        for v in range(len(rows))
    )
