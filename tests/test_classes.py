"""Recognizer, spider, decomposition, and generator tests.

The definitional recognizers are checked against naive re-derivations (the
five-subset double-P4 scan, and an extension-set recomputation from raw
quadruple scans), and both against the structural recursion. The edge walks
that find P4s and C5s are checked against the 4- and 5-subset scans they
replaced.
"""

import hashlib
import random
from dataclasses import replace
from itertools import combinations, permutations

import pytest

from polaritylab import classes, graphs as gr
from polaritylab.classes import (
    CLASS_IDS,
    EXT_KINDS,
    SEPARABLE_KINDS,
    ExtGraphNode,
    ExtSpiderNode,
    JoinNode,
    Leaf,
    SpiderNode,
    SpiderPartition,
    UnionNode,
    build_decomposition,
    certificate,
    extension_set,
    find_ext_spider,
    find_spider,
    generate_class,
    is_62_graph,
    is_cograph,
    is_p4_extendible,
    is_p4_sparse,
    p4_extendible_certificate,
    p4_sparse_certificate,
    rebuild,
    recognizer,
    sigma_j,
    sigma_sep,
    tau_j,
)
from polaritylab.errors import BadParameter, CapExceeded, NotAP4, NotInClass
from polaritylab.graphs import (
    _has_c5,
    canonical_key,
    catalog,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_graphs,
    from_edges,
    graph6_encode,
    headless_spider,
    is_isomorphic,
    join,
    list_induced_p4s,
    p4_masks,
    path_graph,
    union_all,
)


def two_p3():
    return union_all(path_graph(3), path_graph(3))


def decomposes(g, class_id):
    """Structural membership, the oracle for the forbidden-structure
    recognizers: order 0, or the decomposition recursion succeeds."""
    if g.n == 0:
        return True
    try:
        classes._decompose(g, (1 << g.n) - 1, class_id)
    except NotInClass:
        return False
    return True


# --- definitional recognizers -------------------------------------------------


def test_is_cograph_examples():
    assert is_cograph(catalog("k3,3"))
    assert not is_cograph(path_graph(5))
    assert is_cograph(catalog("e7"))


def test_is_p4_sparse_examples():
    assert not is_p4_sparse(cycle_graph(5))
    assert is_p4_sparse(catalog("net"))
    assert not is_p4_sparse(catalog("banner"))
    assert is_p4_sparse(path_graph(4)) and decomposes(path_graph(4), "p4sparse")


def test_is_p4_extendible_examples():
    assert is_p4_extendible(cycle_graph(5))
    assert not is_p4_extendible(headless_spider(3))
    assert not is_p4_extendible(headless_spider(3, thick=True))
    assert is_p4_extendible(two_p3())


def _double_p4_scan(g):
    """Naive definition: some five vertices induce two distinct P4s."""
    p4sets = set(list_induced_p4s(g))
    for quint in combinations(range(g.n), 5):
        hits = [q for q in combinations(quint, 4) if q in p4sets]
        if len(hits) >= 2:
            return True
    return False


def test_sparse_definitional_vs_double_p4_scan(graphs_to_7):
    for g in graphs_to_7:
        assert is_p4_sparse(g) == (not _double_p4_scan(g))


# --- subset-scan oracles ------------------------------------------------------
# The 4- and 5-subset scans that found P4s and C5s before the edge walks.


def _k_subsets(verts, k: int):
    """Every k-subset of ``verts`` as (vertices, mask), in lexicographic order."""
    verts = tuple(verts)
    return zip(combinations(verts, k), map(sum, combinations([1 << v for v in verts], k)))


def scan_p4_masks(g):
    """Masks of the 4-sets inducing a P4 (three edges, degrees 1 to 2), in
    ``_k_subsets`` order."""
    found = []
    for quad, mask in _k_subsets(range(g.n), 4):
        degs = [(g.adj[v] & mask).bit_count() for v in quad]
        if sum(degs) == 6 and min(degs) == 1 and max(degs) == 2:
            found.append(mask)
    return tuple(found)


def scan_has_c5(g):
    """C5 is the only 2-regular graph on five vertices."""
    return any(
        all((g.adj[v] & mask).bit_count() == 2 for v in quint)
        for quint, mask in _k_subsets(range(g.n), 5)
    )


# Fingerprints (edges, sorted degrees) of the seven forbidden 5-vertex graphs
# for P4-sparseness ({C5, P5, P, F} and their complements). Two are shared
# with innocent graphs and need a triangle count to split: (4,(1,1,2,2,2)) is
# P5 or K3+K2, and (6,(2,2,2,3,3)) is the house or K_{2,3}.
_FORBIDDEN_ALWAYS = {
    (4, (1, 1, 1, 2, 3)),  # fork
    (5, (2, 2, 2, 2, 2)),  # C5
    (5, (1, 2, 2, 2, 3)),  # banner (0 triangles) or co-banner (1); both forbidden
    (6, (1, 2, 3, 3, 3)),  # kite
}
_FORBIDDEN_NO_TRIANGLE = (4, (1, 1, 2, 2, 2))  # P5
_FORBIDDEN_ONE_TRIANGLE = (6, (2, 2, 2, 3, 3))  # house


def _triangles_in(adj, mask, verts):
    count = 0
    for v in verts:
        nv = adj[v] & mask
        row = nv >> (v + 1) << (v + 1)  # neighbors above v
        while row:
            u = (row & -row).bit_length() - 1
            row &= row - 1
            count += (adj[u] & nv >> (u + 1) << (u + 1)).bit_count()
    return count


def scan_sparse_certificate(g):
    """The first 5-set, in ``_k_subsets`` order, inducing a forbidden graph."""
    adj = g.adj
    for quint, mask in _k_subsets(range(g.n), 5):
        degs = tuple(sorted((adj[v] & mask).bit_count() for v in quint))
        fp = (sum(degs) // 2, degs)
        if fp in _FORBIDDEN_ALWAYS:
            return quint
        if fp == _FORBIDDEN_NO_TRIANGLE and _triangles_in(adj, mask, quint) == 0:
            return quint
        if fp == _FORBIDDEN_ONE_TRIANGLE and _triangles_in(adj, mask, quint) == 1:
            return quint
    return None


def check_scans(g):
    """The edge walks give what the subset scans give, P4 order included."""
    assert p4_masks(g) == scan_p4_masks(g), g
    assert _has_c5(g) == scan_has_c5(g), g
    assert p4_sparse_certificate(g) == scan_sparse_certificate(g), g


def test_edge_walks_match_the_subset_scans(graphs_to_7):
    for g in graphs_to_7:
        check_scans(g)


@pytest.mark.parametrize("class_id", CLASS_IDS)
def test_edge_walks_match_the_subset_scans_on_the_closures(class_id):
    for g in generate_class(class_id, 8):
        check_scans(g)


def gnp_graphs():
    """Three G(n,p) graphs for each order 8 to 12, at p = .2, .5 and .8."""
    rng = random.Random(33)
    return [from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])
            for n in range(8, 13) for p in (0.2, 0.5, 0.8)]


def test_edge_walks_match_the_subset_scans_on_gnp_graphs():
    for g in gnp_graphs():
        check_scans(g)


def test_edge_walks_match_the_subset_scans_through_vertex_31():
    # the P5 31-0-1-2-30: the walk meets {0,1,2,31} first (middle edge 0-1),
    # and the two P4 masks differ only in the byte of vertices 24 to 31,
    # the last byte that the sort key reads
    g = from_edges(32, [(31, 0), (0, 1), (1, 2), (2, 30)])
    assert list_induced_p4s(g) == [(0, 1, 2, 30), (0, 1, 2, 31)]
    check_scans(g)


def test_p4s_come_in_lexicographic_order_not_mask_order():
    # the net with pendants 0, 1, 2 on the triangle 5, 4, 3: the masks of its
    # P4s fall in the reverse of the vertex tuples' order, and the first W of
    # the P4-extendible certificate (like the cograph certificate) is
    # the first tuple
    net = from_edges(6, [(0, 5), (1, 4), (2, 3), (3, 4), (3, 5), (4, 5)])
    assert list_induced_p4s(net) == [(0, 1, 4, 5), (0, 2, 3, 5), (1, 2, 3, 4)]
    assert p4_masks(net) == (51, 45, 30)
    assert p4_extendible_certificate(net) == ((0, 1, 4, 5), (2, 3))


def _naive_extension_set(g, w):
    out = set()
    p4sets = set(list_induced_p4s(g))
    for quad in p4sets:
        if set(quad) & set(w):
            out |= set(quad) - set(w)
    return tuple(sorted(out))


def test_extension_set_examples():
    p4 = path_graph(4)
    assert extension_set(p4, (0, 1, 2, 3)) == ()
    p5 = path_graph(5)
    assert extension_set(p5, (0, 1, 2, 3)) == (4,)
    spider = headless_spider(3)
    w = list_induced_p4s(spider)[0]
    assert len(extension_set(spider, w)) >= 2
    with pytest.raises(NotAP4):
        extension_set(cycle_graph(4), (0, 1, 2, 3))


def test_extendible_definitional_vs_naive(graphs_to_6):
    for g in graphs_to_6:
        naive = all(
            len(_naive_extension_set(g, w)) <= 1 for w in list_induced_p4s(g)
        )
        assert is_p4_extendible(g) == naive


def test_is_62_graph():
    assert not is_62_graph(cycle_graph(5))
    assert is_62_graph(path_graph(4))
    assert is_62_graph(empty_graph(3))
    assert not is_62_graph(headless_spider(3))


def test_mode_agreement_to_7(graphs_to_7):
    for g in graphs_to_7:
        assert is_p4_sparse(g) == decomposes(g, "p4sparse")
        assert is_p4_extendible(g) == decomposes(g, "p4extendible")


def _is_induced_p4(g, quad):
    return is_isomorphic(g.induced(quad), path_graph(4))


def test_certificates_are_valid(graphs_to_6):
    # each class's certificate is None exactly on its members, by oracles
    # that do not read it, and otherwise is the forbidden structure it names
    for g in graphs_to_6:
        p4s = [q for q in combinations(range(g.n), 4) if _is_induced_p4(g, q)]
        cert = certificate(g, "cograph")
        assert cert == (p4s[0] if p4s else None), g
        cert = certificate(g, "p4sparse")
        assert (cert is None) == decomposes(g, "p4sparse"), g
        if cert is not None:
            assert len(cert) == 5 and len(set(cert)) == 5, g
            assert sum(_is_induced_p4(g, q) for q in combinations(cert, 4)) >= 2, g
        cert = certificate(g, "p4extendible")
        assert (cert is None) == decomposes(g, "p4extendible"), g
        if cert is not None:
            w, s = cert
            assert _is_induced_p4(g, w), g
            assert s == extension_set(g, w) == _naive_extension_set(g, w), g
            assert len(s) >= 2, g
    for class_id in ("62", "bogus"):
        with pytest.raises(BadParameter):
            certificate(path_graph(4), class_id)


def test_complement_closure_to_7(graphs_to_7):
    for g in graphs_to_7:
        co = g.complement()
        assert is_p4_sparse(g) == is_p4_sparse(co)
        assert is_p4_extendible(g) == is_p4_extendible(co)


# --- spiders -------------------------------------------------------------------


def test_find_spider_examples():
    net = catalog("net")
    sp = find_spider(net)
    assert sp is not None and sp.thin and sp.head == ()
    assert len(sp.legs) == 3 and sp.validate(net)
    assert find_spider(cycle_graph(5)) is None
    g = sigma_j(complete_graph(1), 3)
    sp = find_spider(g)
    assert sp is not None and len(sp.head) == 1 and sp.validate(g)
    # thick spiders come back with the complement pairing inverted
    g = tau_j(path_graph(2), 3)
    sp = find_spider(g)
    assert sp is not None and not sp.thin and sp.validate(g)
    # j=2 is always reported thin
    sp = find_spider(path_graph(4))
    assert sp is not None and sp.thin and len(sp.legs) == 2


def test_spider_partition_validate_rejects_each_corruption():
    g = sigma_j(complete_graph(1), 3)
    sp = find_spider(g)
    assert (sp.legs, sp.body, sp.head) == ((3, 4, 5), (0, 1, 2), (6,))
    assert sp.pairing == ((3, 0), (4, 1), (5, 2)) and sp.validate(g)
    corrupted = (
        replace(sp, head=()),  # vertex 6 in no part
        replace(sp, body=(0, 1), head=(2, 6)),  # three legs on two body vertices
        replace(sp, pairing=((3, 0), (4, 1), (6, 2))),  # a head vertex paired as a leg
        replace(sp, pairing=((3, 0), (4, 1), (5, 6))),  # a leg paired with the head
        replace(sp, legs=sp.body, body=sp.legs,  # the legs are no clique
                pairing=tuple((b, s) for s, b in sp.pairing)),
        replace(sp, thin=False),  # each leg sees its partner alone
    )
    for bad in corrupted:
        assert not bad.validate(g), bad
    # sigma_3 over the net: the net's own partition, lifted, with the outer
    # spider as its head, which sees the net's legs
    outer = sigma_j(catalog("net"), 3)
    head = find_spider(outer).head
    net = find_spider(outer.induced(head))
    assert head == (6, 7, 8, 9, 10, 11) and net.validate(outer.induced(head))
    lifted = SpiderPartition(tuple(head[v] for v in net.legs), tuple(head[v] for v in net.body),
                             tuple(range(6)), True, tuple((head[s], head[b]) for s, b in net.pairing))
    assert not lifted.validate(outer)


def _brute_spider_exists(g):
    """Exhaustive (S, K) scan with explicit bijections; independent oracle."""
    n = g.n
    verts = range(n)
    for j in range(2, n // 2 + 1):
        for body in combinations(verts, j):
            bset = set(body)
            if any(not g.has_edge(a, b) for a, b in combinations(body, 2)):
                continue
            rest = [v for v in verts if v not in bset]
            for legs in combinations(rest, j):
                lset = set(legs)
                if any(g.has_edge(a, b) for a, b in combinations(legs, 2)):
                    continue
                head = [v for v in rest if v not in lset]
                if any(
                    not g.has_edge(h, b) or g.has_edge(h, s)
                    for h in head
                    for b, s in zip(body, legs)
                ):
                    continue
                for perm in permutations(body):
                    thin = all(
                        g.has_edge(s, b) == (i == k)
                        for i, s in enumerate(legs)
                        for k, b in enumerate(perm)
                    )
                    thick = all(
                        g.has_edge(s, b) == (i != k)
                        for i, s in enumerate(legs)
                        for k, b in enumerate(perm)
                    )
                    if thin or thick:
                        return True
    return False


def test_find_spider_vs_brute(graphs_to_6):
    for g in graphs_to_6:
        sp = find_spider(g)
        if sp is None:
            assert not _brute_spider_exists(g)
        else:
            assert sp.validate(g)


def test_sigma_tau_builders():
    assert is_isomorphic(sigma_j(empty_graph(0), 2), path_graph(4))
    bull = from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])
    assert is_isomorphic(sigma_j(complete_graph(1), 2), bull)
    assert is_isomorphic(sigma_j(path_graph(2), 2), tau_j(path_graph(2), 2))
    k1 = complete_graph(1)
    assert is_isomorphic(sigma_j(k1, 3).complement(), tau_j(k1, 3))
    with pytest.raises(BadParameter):
        sigma_j(k1, 1)
    with pytest.raises(CapExceeded):
        tau_j(complete_graph(10), 12)


def test_sigma_tau_preserve_sparseness_iff():
    # both directions: all graphs on up to five vertices as heads
    for head in enumerate_graphs(5):
        for j in (2, 3):
            assert is_p4_sparse(sigma_j(head, j)) == is_p4_sparse(head)
            assert is_p4_sparse(tau_j(head, j)) == is_p4_sparse(head)


def test_headless_spiders_are_sparse_and_split():
    from polaritylab.polarity import is_split

    for j in (2, 3, 4):
        for thick in (False, True):
            spider = headless_spider(j, thick)
            assert is_p4_sparse(spider)
            assert is_split(spider)


# --- extension spiders -----------------------------------------------------------


def test_sigma_sep_examples():
    assert is_isomorphic(sigma_sep("p4", empty_graph(0)), path_graph(4))
    bull = sigma_j(complete_graph(1), 2)
    assert is_isomorphic(sigma_sep("p4", complete_graph(1)), bull)
    assert is_p4_extendible(sigma_sep("fork", cycle_graph(4)))
    with pytest.raises(BadParameter):
        sigma_sep("c5", complete_graph(1))


def test_sigma_sep_no_crossing_p4(graphs_to_6):
    heads = [g for g in graphs_to_6 if 1 <= g.n <= 4]
    for kind in SEPARABLE_KINDS:
        base_n = 4 if kind == "p4" else 5
        for head in heads:
            g = sigma_sep(kind, head)
            base_mask = (1 << base_n) - 1
            head_mask = ((1 << head.n) - 1) << base_n
            for quad in list_induced_p4s(g):
                m = 0
                for v in quad:
                    m |= 1 << v
                assert not (m & base_mask and m & head_mask), (kind, head, quad)


def test_separable_kinds_split_into_p4_midpoints_and_endpoints():
    # every vertex of a separable extension graph is a midpoint or an endpoint
    # of its P4s, never both, so the extension-spider detector takes the
    # endpoints of its base to be the vertices that are not midpoints
    for kind in SEPARABLE_KINDS:
        g = catalog(kind)
        mids = ends = 0
        for quad in list_induced_p4s(g):
            for v in quad:
                if sum(g.has_edge(v, u) for u in quad) == 2:
                    mids |= 1 << v
                else:
                    ends |= 1 << v
        assert not mids & ends and mids | ends == (1 << g.n) - 1, kind
        assert classes._separable_mids(kind) == mids, kind


def test_find_ext_spider_examples():
    g = sigma_sep("cobanner", complete_graph(2))
    found = find_ext_spider(g)
    assert found is not None and found.kind == "cobanner" and len(found.head) == 2
    assert find_ext_spider(cycle_graph(5)) is None
    bull = sigma_j(complete_graph(1), 2)
    found = find_ext_spider(bull)
    assert found is not None and found.kind == "p4" and len(found.head) == 1
    # seed choice must not matter even when the head has its own P4s
    g = sigma_sep("p4", path_graph(4))
    found = find_ext_spider(g)
    assert found is not None and found.kind == "p4" and len(found.head) == 4
    assert decomposes(g, "p4extendible")


def test_ext_kind_of_matches_the_canonical_key_definition(graphs_to_7):
    # the definition: the kind whose catalog copy has G[mask]'s canonical key
    by_key = {catalog(kind).canonical_key(): kind for kind in EXT_KINDS}
    defined = {}
    for g in graphs_to_7 + gnp_graphs():
        for k in (3, 4, 5, 6):
            for verts, mask in _k_subsets(range(g.n), k):
                h = g.induced_mask(mask)
                if h.adj not in defined:
                    defined[h.adj] = by_key.get(h.canonical_key())
                assert classes._ext_kind_of(g, mask) == defined[h.adj], (g, verts)
    assert set(defined.values()) == {None, *EXT_KINDS}


def test_ext_table_and_its_lookups_label_nothing(labelings):
    members = list(generate_class("p4extendible", 7))  # labeled for their sort
    classes._ext_graphs.cache_clear()
    classes._ext_table.cache_clear()
    labelings.clear()
    kinds = set()
    for g in members:
        if g.n:
            build_decomposition(g, "p4extendible")
        kinds.update(classes._ext_kind_of(g, mask) for _, mask in _k_subsets(range(g.n), 5))
    assert kinds == {None, *EXT_KINDS} - {"p4"} and labelings == []


def _all_valid_ext_spider_bases(g):
    """Collect (kind, S, K, R) over every seed W that validates, re-deriving
    the checks here so the result is independent of the detector's search
    order."""
    from polaritylab.classes import _ext_kind_of

    full = (1 << g.n) - 1
    masks = []
    for quad in list_induced_p4s(g):
        m = 0
        for v in quad:
            m |= 1 << v
        masks.append(m)
    results = set()
    for w in masks:
        d = w
        for m in masks:
            if m & w:
                d |= m
        if d.bit_count() > 5 or d == full:
            continue
        kind = _ext_kind_of(g, d)
        if kind is None or kind not in SEPARABLE_KINDS:
            continue
        mids = 0
        ends = 0
        for m in masks:
            if m & ~d:
                continue
            for v in range(g.n):
                if (m >> v) & 1:
                    if (g.adj[v] & m).bit_count() == 2:
                        mids |= 1 << v
                    else:
                        ends |= 1 << v
        if mids & ends or (mids | ends) != d:
            continue
        rest = full & ~d
        if any(
            g.adj[r] & d != mids for r in range(g.n) if (rest >> r) & 1
        ):
            continue
        if any(m & d and m & rest for m in masks):
            continue
        results.add((kind, ends, mids, rest))
    return results


def test_ext_spider_base_unique_for_members(graphs_to_7):
    # connected members with connected complement that are not extension
    # graphs decompose through exactly one base set
    from polaritylab.classes import _ext_kind_of
    from polaritylab.graphs import _mask_of

    for g in graphs_to_7:
        if not is_p4_extendible(g) or g.n < 5:
            continue
        if not (g.is_connected() and g.complement().is_connected()):
            continue
        if _ext_kind_of(g, (1 << g.n) - 1) is not None:
            continue
        found = find_ext_spider(g)
        assert found is not None, g
        # every seed W that validates must produce the same base set
        ends, mids, head = map(_mask_of, (found.endpoints, found.midpoints, found.head))
        assert _all_valid_ext_spider_bases(g) == {(found.kind, ends, mids, head)}


# --- decomposition ---------------------------------------------------------------


def test_decomposition_shapes():
    tree = build_decomposition(two_p3(), "p4sparse")
    assert isinstance(tree, UnionNode) and len(tree.children) == 2
    for child in tree.children:
        assert isinstance(child, JoinNode)
        kinds = {type(c) for c in child.children}
        assert kinds <= {Leaf, UnionNode}
    tree = build_decomposition(catalog("net"), "p4sparse")
    assert isinstance(tree, SpiderNode) and tree.head is None
    tree = build_decomposition(cycle_graph(5), "p4extendible")
    assert isinstance(tree, ExtGraphNode) and tree.kind == "c5"
    g = sigma_sep("kite", path_graph(3))
    tree = build_decomposition(g, "p4extendible")
    assert isinstance(tree, ExtSpiderNode) and tree.kind == "kite"


def test_decomposition_not_in_class():
    with pytest.raises(NotInClass) as exc:
        build_decomposition(cycle_graph(5), "p4sparse")
    assert exc.value.certificate[0] == "five_vertex_set"
    with pytest.raises(NotInClass) as exc:
        build_decomposition(headless_spider(3), "p4extendible")
    assert exc.value.certificate[0] == "extension_set"
    with pytest.raises(BadParameter):
        build_decomposition(complete_graph(1), "cograph")
    with pytest.raises(BadParameter):
        build_decomposition(empty_graph(0), "p4sparse")


def test_decompose_builds_complement_rows_once_per_node(monkeypatch):
    from polaritylab import classes

    g = tau_j(sigma_j(path_graph(3), 2), 3)  # a thick spider at the root
    masks = []
    real = classes._co_rows
    monkeypatch.setattr(
        classes, "_co_rows", lambda adj, mask: masks.append(mask) or real(adj, mask))
    tree = build_decomposition(g, "p4sparse")
    assert isinstance(tree, SpiderNode) and not tree.partition.thin
    assert masks.count((1 << g.n) - 1) == 1
    assert len(masks) == len(set(masks))


def test_decomposition_rebuild_identity(graphs_to_7):
    for g in graphs_to_7:
        if g.n == 0:
            continue
        if is_p4_sparse(g):
            assert rebuild(build_decomposition(g, "p4sparse")) == g
        if is_p4_extendible(g):
            assert rebuild(build_decomposition(g, "p4extendible")) == g


def test_decomposition_children_order():
    g = union_all(complete_graph(2), path_graph(3), complete_graph(1))
    tree = build_decomposition(g, "p4sparse")
    mins = [min(c.vertices) for c in tree.children]
    assert mins == sorted(mins)


# --- automorphisms read off the tree ------------------------------------------------


def _tree_search(monkeypatch):
    """Make every search that is handed maps read them at the first tied
    state with two fresh holders. Returns (searches that read maps, pruning
    calls that dropped a holder): each list gets one entry per event."""
    monkeypatch.setattr(gr, "MAPS_FRESH", 2)
    reads, drops = [], []
    holders = gr._orbit_holders

    def counted(*args):
        keep, work = holders(*args)
        if keep != args[4]:  # the fresh holders
            drops.append(keep)
        return keep, work

    monkeypatch.setattr(gr, "_orbit_holders", counted)
    return reads, drops


def _tree_bits(g, class_id, reads):
    """``g``'s bits searched with its tree's maps, each of which must be an
    automorphism."""
    tree = build_decomposition(g, class_id)

    def maps():
        found = classes.tree_maps(g, tree)
        assert all(gr._moved(g.adj, t) for t in found)
        reads.append(found)
        return found

    return gr._min_bits(g.adj, maps=maps)


def _has_spider(node) -> bool:
    if isinstance(node, SpiderNode):
        return True
    return any(map(_has_spider, getattr(node, "children", ())))


def test_tree_maps_label_sparse_spiders_like_the_plain_search(monkeypatch):
    # the members keep their plain bits from generate_class's sort
    members = [g for g in generate_class("p4sparse", 9) if not is_cograph(g)]
    assert len(members) == 616
    reads, drops = _tree_search(monkeypatch)
    for g in members:
        assert _has_spider(build_decomposition(g, "p4sparse"))
        assert _tree_bits(g, "p4sparse", reads) == g.canonical_bits
    assert len(reads) > 300 and len(drops) > 300


def test_tree_maps_label_extendible_members_like_the_plain_search(monkeypatch):
    members = list(generate_class("p4extendible", 9))
    reads, drops = _tree_search(monkeypatch)
    for g in members:
        assert _tree_bits(g, "p4extendible", reads) == g.canonical_bits
    assert len(reads) > 1_000 and len(drops) > 500


def test_tree_maps_label_relabelled_spiders_like_the_plain_search(monkeypatch):
    heads = (complete_graph(1), path_graph(3), cycle_graph(4), complete_graph(3),
             empty_graph(2))
    rng = random.Random(31)
    reads, drops = _tree_search(monkeypatch)
    for j in range(2, 8):
        for build in (sigma_j, tau_j):
            for head in heads:
                g = build(head, j)
                for _ in range(3):
                    p = rng.sample(range(g.n), g.n)
                    h = from_edges(g.n, [(p[u], p[v]) for u, v in g.edges()])
                    assert _tree_bits(h, "p4sparse", reads) == gr._min_bits(h.adj)
    assert len(reads) > 100 and len(drops) > 100


def test_extension_spiders_over_heads_with_their_own_p4s_decompose_and_label():
    # the head's P4s are seeds too: a seed inside the head meets P4s whose
    # union is no separable extension graph, or one the rest does not see
    # uniformly, and is passed over for the seed in the base
    rng = random.Random(32)
    for kind in SEPARABLE_KINDS:
        for head in ("p4", "p5", "c5", "house"):
            g = sigma_sep(kind, catalog(head))
            for _ in range(3):
                p = rng.sample(range(g.n), g.n)
                h = from_edges(g.n, [(p[u], p[v]) for u, v in g.edges()])
                assert rebuild(build_decomposition(h, "p4extendible")) == h
                plain = from_edges(h.n, h.edges()).canonical_key()
                assert classes.member_key(h, "p4extendible") == plain, (kind, head)


def test_tree_maps_name_leg_and_sibling_swaps():
    # thin3 over K1: three leg swaps, and none between the head's one leaf
    g = sigma_j(complete_graph(1), 3)
    part = find_spider(g)
    maps = classes.tree_maps(g, build_decomposition(g, "p4sparse"))
    assert len(maps) == 3
    for t in maps:
        moved = [v for v in range(g.n) if t[v] != v]
        assert len(moved) == 4 and set(moved) <= set(part.legs + part.body)
    # P4 + thin3: each spider's own leg swaps, one and three, and no swap of
    # the two: spiders with unequal leg counts are not isomorphic
    g = disjoint_union(path_graph(4), sigma_j(empty_graph(0), 3))
    maps = classes.tree_maps(g, build_decomposition(g, "p4sparse"))
    assert len(maps) == 1 + 3 and all(gr._moved(g.adj, t) for t in maps)
    # 3*P3: three swaps of the components, and no swap of the twin leaves
    # inside each P3
    g = union_all(path_graph(3), path_graph(3), path_graph(3))
    maps = classes.tree_maps(g, build_decomposition(g, "p4sparse"))
    assert sorted(tuple(v for v in range(9) if t[v] != v) for t in maps) == [
        (0, 1, 2, 3, 4, 5), (0, 1, 2, 6, 7, 8), (3, 4, 5, 6, 7, 8)]
    # C5 has the ten automorphisms of the pentagon, the identity left out
    c5 = cycle_graph(5)
    assert len(classes.tree_maps(c5, build_decomposition(c5, "p4extendible"))) == 9


# --- generation --------------------------------------------------------------------


def test_generate_class_slices():
    sparse5 = [g for g in generate_class("p4sparse", 5) if g.n == 5]
    assert len(sparse5) == 27
    cograph4 = [g for g in generate_class("cograph", 4) if g.n == 4]
    assert len(cograph4) == 10
    ext5 = {canonical_key(g) for g in generate_class("p4extendible", 5)}
    assert canonical_key(cycle_graph(5)) in ext5
    sparse5k = {canonical_key(g) for g in generate_class("p4sparse", 5)}
    assert canonical_key(cycle_graph(5)) not in sparse5k
    with pytest.raises(CapExceeded):
        next(iter(generate_class("cograph", 11)))
    with pytest.raises(BadParameter):
        next(iter(generate_class("nope", 4)))


def test_generate_class_equals_filtered_enumeration(graphs_to_6):
    for class_id in CLASS_IDS:
        gen = {canonical_key(g) for g in generate_class(class_id, 6)}
        check = recognizer(class_id)
        filt = {canonical_key(g) for g in graphs_to_6 if check(g)}
        assert gen == filt, class_id


GENERATED_TO_8_SHA256 = {
    "cograph": "5f7a234cb47c17a368ce568a47f19ebc4941639189c3ae441e9c68477f6c15c9",
    "p4sparse": "1b677a7d69cad30f98081546b326ccedeb501f2c6ce2b787763b92da5c194b58",
    "p4extendible": "048f9752dde50cfc1bd8fbf53b9407805164d6453a961bf125789d6340fa9fb5",
    "62": "d73cb1c9a09ffc27f1e8bc023b94a06475172890d6c3201c4c28ff7ea514ce1a",
}


@pytest.mark.parametrize("class_id", CLASS_IDS)
def test_generate_class_output_is_pinned(class_id):
    # the first graph built in each isomorphism class is the one kept, so the
    # order of the bases and head operations shows in the adjacency
    text = "\n".join(graph6_encode(g) for g in generate_class(class_id, 8))
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATED_TO_8_SHA256[class_id]


def test_head_operations_are_the_pairs_the_builders_attach():
    # each head operation is a (base, attach) pair, in the order the closure
    # applies them: per leg count the thin spider, then the thick one (j >= 3),
    # whose heads see the body 0..j-1; the separable extension operations'
    # heads see the midpoints of the catalog copies
    spiders = classes._head_operations("p4sparse", 9)
    assert spiders == (
        (4, ((headless_spider(2), 0b11),)),
        (6, ((headless_spider(3), 0b111), (headless_spider(3, thick=True), 0b111))),
        (8, ((headless_spider(4), 0b1111), (headless_spider(4, thick=True), 0b1111))),
    )
    extensions = classes._head_operations("p4extendible", 9)
    assert extensions == classes._head_operations("62", 9) == tuple(
        (catalog(kind).n, ((catalog(kind), mids),))
        for kind, mids in zip(SEPARABLE_KINDS, (0b110, 0b10110, 0b1001, 0b110, 0b10110)))
    assert classes._head_operations("cograph", 9) == ()
    # the public builders attach the same pairs
    heads = [empty_graph(0)] + list(enumerate_graphs(4))
    spiders = classes._head_operations("p4sparse", 14)
    assert [order for order, _pairs in spiders] == [4, 6, 8, 10, 12, 14]
    for j, (_order, pairs) in enumerate(spiders, start=2):
        for h in heads:
            assert [classes._attach_head(*pair, h) for pair in pairs] == (
                [sigma_j(h, j)] + ([tau_j(h, j)] if j >= 3 else [])), (j, h)
    for kind, (_order, (pair,)) in zip(SEPARABLE_KINDS, extensions):
        for h in heads:
            assert classes._attach_head(*pair, h) == sigma_sep(kind, h), (kind, h)


def test_closure_that_reads_no_member_attaches_no_head(monkeypatch):
    # the rules come from the (base, attach) pairs, so the closure builds no
    # probe graph: a graph is built only when a member is read
    def closures():
        for class_id in CLASS_IDS:
            for cluster in (False, True):
                classes._closure(class_id, 9, cluster=cluster)

    closures()  # the catalog graphs and head operations are built on first use
    calls = []
    for module in (classes, gr):
        monkeypatch.setattr(module, "_attach_head", lambda *args, _real=module._attach_head: (
            calls.append(args) or _real(*args)))
    closures()
    assert calls == []
    values, member = classes._closure("p4sparse", 6)
    member(len(values) - 1)
    assert calls  # the patches do see builds


def closure_members(class_id, n_max, keep=None, cluster=False):
    """(graph, value) of each ``_closure`` member of order >= 1, in id order,
    which is the order the closure first reaches them."""
    values, member = classes._closure(class_id, n_max, keep, cluster)
    return [(member(i), values[i]) for i in range(1, len(values))]


def _keyed_closure(class_id, n_max):
    """The closure deduplicated by canonical key, as it was before structural
    codes: every graph built is labeled, and the first build per key is kept.
    Yields the members in the order they are first built."""
    ops = classes._head_operations(class_id, n_max)
    levels = {m: {} for m in range(1, n_max + 1)}
    levels[0] = {b"": empty_graph(0)}

    def add(g):
        if g.n <= n_max and g.canonical_key() not in levels[g.n]:
            levels[g.n][g.canonical_key()] = g
            return [g]
        return []

    yield from add(complete_graph(1))
    for kind in classes._EXPLICIT_BASES.get(class_id, ()):
        yield from add(classes._ext_graphs()[kind])
    for m in range(2, n_max + 1):
        for order, pairs in ops:
            for h in levels.get(m - order, {}).values():
                for base, attach in pairs:
                    yield from add(classes._attach_head(base, attach, h))
        for a in range(1, m // 2 + 1):
            for x in levels[a].values():
                for y in levels[m - a].values():
                    yield from add(disjoint_union(x, y))
                    yield from add(join(x, y))


@pytest.mark.parametrize("class_id", CLASS_IDS)
def test_closure_builds_what_the_keyed_closure_builds(class_id):
    # structural codes keep the same first build per isomorphism class, in
    # the same order; ENUM_CAP (10) was checked the same way, once
    want = [(g.n, g.adj) for g in _keyed_closure(class_id, 9)]
    assert [(g.n, g.adj) for g, _value in closure_members(class_id, 9)] == want
