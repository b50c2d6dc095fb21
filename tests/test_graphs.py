"""Graph kernel tests: construction, boolean ops, isomorphism, graph6,
induced-subgraph search, and exhaustive enumeration, each checked against an
independent oracle where the expected value is not forced by definition."""

import hashlib
import random
import time
import tracemalloc
from itertools import combinations, permutations

import pytest

from polaritylab.errors import (
    CapExceeded,
    LoopRejected,
    MalformedHeader,
    TrailingGarbage,
    TruncatedBody,
    UnknownName,
    VertexOutOfRange,
)
from polaritylab import graphs as graphs_module
from polaritylab.classes import CLASS_IDS, generate_class
from polaritylab.graphs import (
    Graph,
    _column,
    _greedy_below,
    _mask_of,
    _min_bits,
    _min_column,
    _twin_before,
    canonical_form,
    canonical_key,
    catalog,
    complete_graph,
    complete_multipartite,
    contains_induced,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_graphs,
    from_edges,
    graph6_decode,
    graph6_encode,
    headless_spider,
    is_isomorphic,
    join,
    join_all,
    list_induced_p4s,
    path_graph,
    union_all,
)
from test_classes import closure_members


def test_from_edges_examples():
    p3 = from_edges(3, [(0, 1), (1, 2)])
    assert p3 == path_graph(3)
    assert from_edges(1, []) == complete_graph(1)
    assert from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]) == cycle_graph(5)
    # duplicates collapse
    assert from_edges(2, [(0, 1), (1, 0), (0, 1)]) == complete_graph(2)


def test_from_edges_errors():
    with pytest.raises(VertexOutOfRange):
        from_edges(3, [(0, 3)])
    with pytest.raises(LoopRejected):
        from_edges(3, [(1, 1)])
    with pytest.raises(CapExceeded):
        from_edges(33, [])


def test_graph_validation():
    with pytest.raises(VertexOutOfRange):
        Graph(2, (2, 0))  # asymmetric
    with pytest.raises(LoopRejected):
        Graph(1, (1,))
    with pytest.raises(VertexOutOfRange):
        Graph(1, (2,))
    with pytest.raises(CapExceeded):
        Graph(40, (0,) * 40)  # order above the vertex cap
    with pytest.raises(VertexOutOfRange):
        complete_graph(-1)
    with pytest.raises(VertexOutOfRange):
        complete_multipartite([2, -1])
    # the builders refuse an order above the cap before building its rows
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            complete_graph(5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_derived_graphs_pass_the_constructor_checks(graphs_to_7):
    # the graphs the library derives itself skip the checks: unions, joins
    # and head operations (every closure member), complements, deletions,
    # canonical forms and enumerated children; rebuilt through the checks,
    # none raises or differs
    members = [g for class_id in CLASS_IDS for g, _value in closure_members(class_id, 8)]
    for g in members + graphs_to_7:
        derived = (g.complement(), canonical_form(g), *(g.delete_vertex(v) for v in range(g.n)))
        for h in (g, *derived):
            assert type(h.adj) is tuple and Graph(h.n, h.adj) == h


def test_complement():
    assert complete_graph(3).complement() == empty_graph(3)
    c5 = cycle_graph(5)
    assert is_isomorphic(c5.complement(), c5)
    # E4 is the complement of 3K2
    assert is_isomorphic(catalog("e4"), union_all(*[complete_graph(2)] * 3).complement())


def test_complement_involution_bit_exact(graphs_to_7):
    for g in graphs_to_7:
        assert g.complement().complement() == g


def test_union_join():
    assert join(empty_graph(2), complete_graph(1)) == from_edges(3, [(0, 2), (1, 2)])
    assert is_isomorphic(
        disjoint_union(path_graph(3), path_graph(3)), catalog("e2")
    )
    # indices: left operand keeps its labels, right is shifted
    g = disjoint_union(path_graph(2), path_graph(2))
    assert g.edges() == [(0, 1), (2, 3)]
    assert union_all() == empty_graph(0) == join_all()
    with pytest.raises(CapExceeded):
        join(complete_graph(20), complete_graph(20))


def test_join_de_morgan(graphs_to_6):
    pool = [g for g in graphs_to_6 if g.n == 3]
    for g in pool:
        for h in pool:
            direct = join(g, h)
            dual = disjoint_union(g.complement(), h.complement()).complement()
            assert direct == dual


def test_induced_subgraph():
    c5 = cycle_graph(5)
    for quad in combinations(range(5), 4):
        assert is_isomorphic(c5.induced(quad), path_graph(4))
    g = catalog("e7")
    assert g.induced(range(g.n)) == g
    net = catalog("net")
    deg3 = [v for v in range(6) if net.degree(v) == 3]
    assert is_isomorphic(net.induced(deg3), complete_graph(3))
    with pytest.raises(VertexOutOfRange):
        c5.induced([0, 7])


def test_isomorphism_examples():
    p4 = path_graph(4)
    assert is_isomorphic(p4, p4.complement())
    assert not is_isomorphic(catalog("k1,3"), p4)
    assert is_isomorphic(cycle_graph(5), cycle_graph(5).complement())
    assert canonical_form(p4).canonical_key() == p4.canonical_key()
    assert is_isomorphic(canonical_form(p4), p4)


def _brute_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n:
        return False
    for perm in permutations(range(g.n)):
        if all(
            g.has_edge(u, v) == h.has_edge(perm[u], perm[v])
            for u in range(g.n)
            for v in range(u + 1, g.n)
        ):
            return True
    return False


def test_canonical_key_vs_exhaustive_permutations():
    graphs = [g for g in enumerate_graphs(5)]
    # within each order, keys agree with brute-force isomorphism on all pairs
    for i, g in enumerate(graphs):
        for h in graphs[i:]:
            if g.n != h.n:
                continue
            same_key = canonical_key(g) == canonical_key(h)
            assert same_key == _brute_isomorphic(g, h)
    # and relabelings never change the key
    for g in graphs:
        if g.n < 2:
            continue
        perm = tuple(reversed(range(g.n)))
        rows = [0] * g.n
        for u, v in g.edges():
            rows[perm[u]] |= 1 << perm[v]
            rows[perm[v]] |= 1 << perm[u]
        assert canonical_key(Graph(g.n, tuple(rows))) == canonical_key(g)


_PLACED = 1 << 60  # column of a placed vertex: larger than any real column


def _unpruned_min_bits(adj):
    """The labeling search without twin pruning or budget: (bits, perm) of
    the first minimal labeling, in the search order of graphs._min_bits."""
    m = len(adj)
    if m == 0:
        return 0, ()
    rowbit = [[(adj[u] >> v) & 1 for v in range(m)] for u in range(m)]
    states = [((), [0] * m)]
    bits = 0
    for k in range(m):
        best = min(map(min, (s[1] for s in states)))
        bits = (bits << k) | best
        nxt = {}
        for perm, vecs in states:
            for i in range(m):
                if vecs[i] != best:
                    continue
                vecs2 = [w if (w := vecs[u]) == _PLACED else (w << 1) | rowbit[i][u]
                         for u in range(m)]
                vecs2[i] = _PLACED
                nxt.setdefault(tuple(vecs2), (perm + (i,), vecs2))
        states = list(nxt.values())
    return bits, states[0][0]


def test_twin_pruning_matches_the_unpruned_search(graphs_to_7):
    members = [g for c in CLASS_IDS for g in generate_class(c, 8)]
    for g in graphs_to_7 + members:
        bits, perm = _unpruned_min_bits(g.adj)
        assert _min_bits(g.adj) == (bits, perm)  # enumerate_graphs reads perm
        pos = {v: i for i, v in enumerate(perm)}
        rows = tuple(_mask_of(pos[u] for u in g.neighbors(v)) for v in perm)
        assert canonical_form(g) == Graph(g.n, rows)


def test_enumeration_output_is_pinned(graphs_to_7):
    # canonical augmentation reads the first minimal labeling's perm, so a
    # change to the labeling search must keep it: same graphs, same order
    text = "\n".join(graph6_encode(g) for g in graphs_to_7)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "526c7cda9d1e0bd4a91225d88d168fbba15851c5330364c73663363ff4227995")


def test_enumeration_output_is_pinned_at_order_8(graphs_to_8):
    text = "\n".join(graph6_encode(g) for g in graphs_to_8)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3c3bdc694df78ac29bf0dd30099acfd6398b7eee72a715ea02bfe62f781031c5")


def test_enumeration_skips_only_children_that_fail_the_pinned_test(graphs_to_7, monkeypatch):
    # a child that holds a vertex's previous twin but not the vertex, or that
    # a greedy labeling beats, is never labeled; every child left unlabeled
    # must fail the pinned test
    calls = []
    search = graphs_module._min_bits
    monkeypatch.setattr(graphs_module, "_min_bits", lambda adj: calls.append(adj) or search(adj))
    assert list(enumerate_graphs(7)) == graphs_to_7
    # 11,291 when every child was labeled, 7,195 with the twin filter alone
    assert len(calls) == 1_482
    labeled = set(calls)
    skipped = 0
    for parent in graphs_to_7:
        m = parent.n
        if m == 7:
            continue
        pinned = parent.canonical_bits << m
        for mask in range(1 << m):
            rows = tuple(row | (1 << m) if (mask >> v) & 1 else row
                         for v, row in enumerate(parent.adj)) + (mask,)
            if rows not in labeled:
                skipped += 1
                assert search(rows)[0] < pinned | _column(mask, parent._perm)
    assert skipped == 11_291 - 1_482


def _columns(adj, perm):
    """The columns of the labeling ``perm``: column k is the adjacency of
    its k-th vertex to the ones before it."""
    return [_column(adj[v], perm[:k]) for k, v in enumerate(perm)]


def _bits_of(cols):
    bits = 0
    for k, col in enumerate(cols):
        bits = (bits << k) | col
    return bits


def _check_greedy_rejection(g, perm):
    """The greedy test never beats a minimal labeling, and beats ``perm``
    only when ``perm`` is above the minimum; returns whether it fired."""
    bits, own = _min_bits(g.adj)
    assert not _greedy_below(g.adj, _columns(g.adj, own))
    cols = _columns(g.adj, perm)
    fired = _greedy_below(g.adj, cols)
    assert not fired or bits < _bits_of(cols)
    return fired


def test_greedy_rejection_is_exact(graphs_to_7):
    rng = random.Random(7)
    members = [g for c in CLASS_IDS for g in generate_class(c, 8)]
    fired = 0
    for g in graphs_to_7 + members:
        fired += _check_greedy_rejection(g, rng.sample(range(g.n), g.n))
    assert fired > len(graphs_to_7)  # not vacuous: most relabelings lose


def _tiered_min_bits(adj, cap=None):
    """The search that the two-phase one replaced, kept as an oracle: it
    places every vertex one at a time, the maximum independent prefix too,
    and returns the first minimal labeling's (bits, perm).

    A state maps a packed key (plane j at offset j*m holds the unplaced
    neighbours of the j-th placed vertex, the placed mask sits at m*m) to
    (chain, its minimal column << m | the vertices holding it). A level
    stores only the children of the lowest tier seen: best·0 (a remaining
    holder is not adjacent to the placed vertex), best·1 (every one is) or
    a rescan of the planes (none is left). It raises CapExceeded after
    ``cap`` expanded states (LABEL_CAP by default).
    """
    cap = graphs_module.LABEL_CAP if cap is None else cap
    m = len(adj)
    if m == 0:
        return 0, ()
    full = (1 << m) - 1
    spread = sum(1 << (j * m) for j in range(m))
    drop = [~(spread << v) for v in range(m)]  # clears v from every plane
    placed_at = m * m
    lower = [1 << t if t >= 0 else 0 for t in _twin_before(adj)]
    states = {0: (None, full)}
    best = bits = 0
    expanded = 0
    for k in range(m):
        bits = (bits << k) | best
        at = k * m
        zero = best << (m + 1)
        one = zero | (1 << m)
        nxt = {}
        tier = 3  # lowest tier stored: 0 best·0, 1 best·1, 2 rescan
        for key, (chain, mincol) in states.items():
            placed = key >> placed_at
            cand = mincol & full
            todo = cand
            while todo:
                low = todo & -todo
                todo ^= low
                i = low.bit_length() - 1
                if lower[i] & ~placed:
                    continue
                expanded += 1
                row = adj[i] & ~placed
                rest = cand ^ low
                apart = rest & ~row
                t = 0 if apart else 1 if rest else 2
                if t > tier:
                    continue
                key2 = (key & drop[i]) | (row << at) | (low << placed_at)
                if t < tier:
                    nxt = {}
                    tier = t
                elif key2 in nxt:
                    continue
                nxt[key2] = ((chain, i), zero | apart if t == 0 else one | rest if t == 1 else 0)
            if expanded > cap:
                raise CapExceeded(f"passed {cap} states")
        if tier < 2:
            best = (best << 1) | tier
        else:
            for key, (chain, _) in nxt.items():
                nxt[key] = (chain, _min_column(key, k + 1, m, full & ~(key >> placed_at)))
            best = min(s[1] for s in nxt.values()) >> m
            nxt = {key: s for key, s in nxt.items() if s[1] >> m == best}
        states = nxt
    perm = []
    chain = next(iter(states.values()))[0]
    while chain:
        chain, v = chain
        perm.append(v)
    return bits, tuple(reversed(perm))


def test_two_phase_search_labels_like_the_tiered_search(graphs_to_7):
    members = [g for c in CLASS_IDS for g, _value in closure_members(c, 8)]
    for g in graphs_to_7 + members:
        assert _min_bits(g.adj) == _tiered_min_bits(g.adj)


@pytest.mark.parametrize("j", range(2, 7))
@pytest.mark.parametrize("kind", ["thin", "thick"])
def test_two_phase_search_labels_spiders_like_the_tiered_search(kind, j):
    g = headless_spider(j, kind == "thick")
    assert _min_bits(g.adj) == _tiered_min_bits(g.adj)


def _gnp(rng, n, p):
    """Rows of a G(n,p) graph drawn from ``rng``."""
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return tuple(rows)


def test_two_phase_search_labels_sparse_graphs_like_the_tiered_search():
    # sparse graphs have large independent prefixes: the tiered search
    # orders them, the two-phase search keeps them as sets
    rng = random.Random(15)
    for n in range(8, 15):
        for p in (0.1, 0.2, 0.3):
            for _ in range(2):
                adj = _gnp(rng, n, p)
                assert _min_bits(adj) == _tiered_min_bits(adj)


TWIN_FREE_SYMMETRIC = {
    **{f"{kind}{j}": headless_spider(j, kind == "thick")
       for j in range(2, 6) for kind in ("thin", "thick")},
    "c10": cycle_graph(10),
    "2c5": union_all(cycle_graph(5), cycle_graph(5)),
}


@pytest.mark.parametrize("name", sorted(TWIN_FREE_SYMMETRIC))
def test_twin_free_symmetric_graphs_label_like_the_unpruned_search(name, monkeypatch):
    # on these graphs some placed vertex sees part of a cell of the
    # independent prefix, so the cell splits
    g = TWIN_FREE_SYMMETRIC[name]
    splits = []
    split = graphs_module._split
    monkeypatch.setattr(graphs_module, "_split", lambda *a: splits.append(a) or split(*a))
    assert _min_bits(g.adj) == _unpruned_min_bits(g.adj)
    assert splits


def _circulants_relabeled(rng):
    """Every circulant graph of order 5 to 10, randomly relabeled twice:
    vertex-transitive, so the least perm often lies in a final state that
    only the maps between final states reach."""
    out = []
    for n in range(5, 11):
        for jumps in range(1, 1 << (n // 2)):
            edges = {tuple(sorted((i, (i + j + 1) % n)))
                     for i in range(n) for j in range(n // 2) if jumps >> j & 1}
            for _ in range(2):
                p = rng.sample(range(n), n)
                out.append(from_edges(n, [(p[u], p[v]) for u, v in edges]))
    return out


def test_pruned_search_labels_like_the_unpruned_search(graphs_to_7, monkeypatch):
    # 1,563 of these graphs recover their perm through the stabilizer chain;
    # a recovery without the maps between final states fails on circulants
    members = [g for c in CLASS_IDS for g in generate_class(c, 8)]
    circulants = _circulants_relabeled(random.Random(21))
    recovered = []
    least = graphs_module._least_image
    monkeypatch.setattr(graphs_module, "_least_image",
                        lambda perm, maps: recovered.append(perm) or least(perm, maps))
    # pruning from the first level, in every state with two or more holders
    # that start new states
    monkeypatch.setattr(graphs_module, "PRUNE_STATES", 0)
    monkeypatch.setattr(graphs_module, "PRUNE_LEFT", 0)
    monkeypatch.setattr(graphs_module, "PRUNE_FRESH", 2)
    for g in graphs_to_7 + members + list(TWIN_FREE_SYMMETRIC.values()) + circulants:
        assert _min_bits(g.adj) == _unpruned_min_bits(g.adj)
    assert len(recovered) > 1_500


def test_least_image_is_the_least_over_the_group():
    # the group generated by (0 1 2 3 4 5) and (1 5)(2 4) on six points,
    # listed by closure, against the stabilizer-chain answer
    gens = [(1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)]
    group = {tuple(range(6))}
    todo = list(group)
    while todo:
        g = todo.pop()
        for s in gens:
            h = tuple(s[x] for x in g)
            if h not in group:
                group.add(h)
                todo.append(h)
    assert len(group) == 12
    rng = random.Random(3)
    for _ in range(20):
        perm = tuple(rng.sample(range(6), 6))
        want = min(tuple(g[x] for x in perm) for g in group)
        assert graphs_module._least_image(perm, gens) == want


# (bits, perm) of the symmetric spiders, taken from the search before
# automorphism pruning (thick9 with LABEL_CAP lifted: 6.2 million steps)
SPIDER_LABELS = {
    "thin7": (9404857916273717311, (7, 8, 9, 10, 11, 12, 13, 6, 5, 4, 3, 2, 1, 0)),
    "thick7": (587985459349670068159, (7, 8, 9, 10, 11, 12, 13, 0, 1, 2, 3, 4, 5, 6)),
    "thin8": (19532410029638384879648895,
              (8, 9, 10, 11, 12, 13, 14, 15, 7, 6, 5, 4, 3, 2, 1, 0)),
    "thick8": (2471039650619413135563423615,
               (8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7)),
    "thick9": (82995580474388791022025811586711295,
               (9, 10, 11, 12, 13, 14, 15, 16, 17, 0, 1, 2, 3, 4, 5, 6, 7, 8)),
}


@pytest.mark.parametrize("name", sorted(SPIDER_LABELS))
def test_symmetric_spiders_keep_their_labels(name):
    assert _min_bits(catalog(name).adj) == SPIDER_LABELS[name]


def test_thin7_labels_in_few_steps(monkeypatch):
    # 24,926 steps with pruning; the search without it passes 40,000 (it
    # built 8,670 states, 5,040 of them final)
    g = catalog("thin7")
    monkeypatch.setattr(graphs_module, "LABEL_CAP", 30_000)
    assert _min_bits(g.adj) == SPIDER_LABELS["thin7"]
    monkeypatch.setattr(graphs_module, "PRUNE_STATES", 10**9)
    with pytest.raises(CapExceeded):
        _min_bits(g.adj)


def test_labeling_thick8_stays_small():
    # the search without pruning peaked at about 54 MB here
    tracemalloc.start()
    try:
        _min_bits(catalog("thick8").adj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_four_c5_labels_invariantly():
    # 4*C5 passed LABEL_CAP before automorphism pruning; about 10^6 steps now
    c5 = cycle_graph(5)
    g = union_all(c5, c5, c5, c5)
    key = canonical_key(g)
    rng = random.Random(20)
    for _ in range(2):
        p = rng.sample(range(g.n), g.n)
        assert canonical_key(from_edges(g.n, [(p[u], p[v]) for u, v in g.edges()])) == key


def test_sparse_graph_labels_in_few_steps(monkeypatch):
    # 14 vertices, 8 edges, an independent prefix of 9: placing the prefix
    # one vertex at a time expanded 609,126 states; as a set it takes 750
    # steps
    g = graph6_decode("MG?G?c?H??????@?_")
    monkeypatch.setattr(graphs_module, "LABEL_CAP", 1_000)
    assert _min_bits(g.adj) == (69122474368, (0, 8, 10, 11, 3, 6, 4, 1, 9, 12, 13, 2, 5, 7))


# G(16, 0.1) with 17 edges: the tiered search passes LABEL_CAP on it. Its
# (bits, perm) were taken once from _tiered_min_bits with a cap of 4*10^6
# (5 s, 311 MB); the two-phase search takes 1,973 steps.
PAST_THE_OLD_CAP = "O@G?CHH???p?OEg?OC???"


def test_sparse_graph_past_the_old_cap_labels():
    g = graph6_decode(PAST_THE_OLD_CAP)
    assert _min_bits(g.adj) == (
        37926794380383956899856, (6, 15, 3, 13, 14, 1, 5, 11, 9, 10, 4, 7, 12, 8, 0, 2))
    rng = random.Random(16)
    for _ in range(20):
        perm = rng.sample(range(g.n), g.n)
        h = from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert canonical_key(h) == canonical_key(g)


def test_twin_classes_collapse():
    for g in (empty_graph(32), complete_graph(32)):
        start = time.perf_counter()
        canonical_key(g)
        assert time.perf_counter() - start < 0.05


def test_label_budget_stops_twin_free_symmetric_graphs():
    # 6*C5 grows about 1.8 million independent sets before its 15,625
    # maximum ones tie
    c5 = cycle_graph(5)
    three = union_all(c5, c5, c5)
    assert canonical_key(canonical_form(three)) == canonical_key(three)
    with pytest.raises(CapExceeded):
        canonical_key(union_all(*[c5] * 6))


def test_labeling_three_c5_stays_small():
    # the search that placed the independent prefix one vertex at a time
    # peaked at about 53 MB here (73 MB RSS); the two-phase one at about 6 MB
    c5 = cycle_graph(5)
    tracemalloc.start()
    try:
        _min_bits(union_all(c5, c5, c5).adj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000_000


# --- graph6 ----------------------------------------------------------------


def _reference_graph6(g: Graph) -> str:
    """Independent re-encoding: explicit bit list, then 6-bit packing."""
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(63 + g.n)]
    for i in range(0, len(bits), 6):
        out.append(chr(63 + int("".join(map(str, bits[i:i + 6])), 2)))
    return "".join(out)


def test_graph6_fixed_examples():
    assert graph6_encode(complete_graph(1)) == "@"
    assert graph6_decode("@") == complete_graph(1)
    assert graph6_encode(complete_graph(4)) == "C~"
    assert graph6_decode("C~") == complete_graph(4)
    assert graph6_encode(path_graph(4)) == "Ch"
    assert graph6_decode("Ch") == path_graph(4)


def test_graph6_matches_reference_and_roundtrips(graphs_to_7):
    for g in graphs_to_7:
        text = graph6_encode(g)
        assert text == _reference_graph6(g)
        assert graph6_decode(text) == g


def test_graph6_errors():
    with pytest.raises(MalformedHeader):
        graph6_decode("")
    with pytest.raises(MalformedHeader):
        graph6_decode(":Ch")  # sparse6
    with pytest.raises(MalformedHeader):
        graph6_decode("\x1fCh")
    with pytest.raises(CapExceeded):
        graph6_decode("~??")  # multi-byte header
    with pytest.raises(TruncatedBody):
        graph6_decode("C")
    with pytest.raises(TrailingGarbage):
        graph6_decode("Chh")
    with pytest.raises(TrailingGarbage):
        graph6_decode("BF")  # n=3 leaves 3 padding bits; they must be zero
    with pytest.raises(CapExceeded):
        graph6_decode(chr(63 + 40) + "?" * 130)  # order above the vertex cap


# --- induced subgraph search -------------------------------------------------


def test_contains_induced_examples():
    assert contains_induced(cycle_graph(5), path_graph(4)) is not None
    assert contains_induced(cycle_graph(4), path_graph(4)) is None
    two_k2 = union_all(complete_graph(2), complete_graph(2))
    emb = contains_induced(catalog("e1"), two_k2)
    assert emb is not None
    assert contains_induced(path_graph(3), complete_graph(4)) is None  # h bigger


def test_contains_induced_embedding_is_valid(graphs_to_6):
    h = path_graph(4)
    for g in graphs_to_6:
        emb = contains_induced(g, h)
        if emb is not None:
            assert len(set(emb)) == 4
            assert is_isomorphic(g.induced(emb), h)


def test_contains_induced_vs_naive(graphs_to_7):
    targets = [
        path_graph(3),
        path_graph(4),
        cycle_graph(4),
        union_all(complete_graph(2), complete_graph(2)),
        cycle_graph(5),
    ]
    keys = [canonical_key(t) for t in targets]
    for g in graphs_to_7:
        for h, hkey in zip(targets, keys):
            naive = any(
                canonical_key(g.induced(sub)) == hkey
                for sub in combinations(range(g.n), h.n)
            )
            assert (contains_induced(g, h) is not None) == naive


def test_list_induced_p4s(graphs_to_7):
    assert list_induced_p4s(cycle_graph(4)) == []
    assert list_induced_p4s(path_graph(4)) == [(0, 1, 2, 3)]
    assert len(list_induced_p4s(cycle_graph(5))) == 5
    p4key = canonical_key(path_graph(4))
    for g in graphs_to_7:
        naive = [
            quad
            for quad in combinations(range(g.n), 4)
            if canonical_key(g.induced(quad)) == p4key
        ]
        assert list_induced_p4s(g) == naive


# --- enumeration -------------------------------------------------------------


def test_enumeration_counts_vs_labeled_dedupe():
    for n in range(1, 7):
        labeled = set()
        for code in range(1 << (n * (n - 1) // 2)):
            rows = [0] * n
            idx = 0
            for j in range(1, n):
                for i in range(j):
                    if (code >> idx) & 1:
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
                    idx += 1
            labeled.add(canonical_key(Graph(n, tuple(rows))))
        ours = [g for g in enumerate_graphs(n) if g.n == n]
        assert len(ours) == len(labeled)
        assert {canonical_key(g) for g in ours} == labeled


def test_enumeration_known_counts(graphs_to_7):
    from collections import Counter

    counts = Counter(g.n for g in graphs_to_7)
    assert [counts[i] for i in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]


def test_enumeration_deterministic():
    a = [graph6_encode(g) for g in enumerate_graphs(5)]
    b = [graph6_encode(g) for g in enumerate_graphs(5)]
    assert a == b
    with pytest.raises(CapExceeded):
        next(iter(enumerate_graphs(11)))


# --- catalog -----------------------------------------------------------------


def test_catalog_names():
    assert is_isomorphic(catalog("E9"), disjoint_union(complete_graph(3), complete_graph(3)))
    assert is_isomorphic(
        catalog("e13"), disjoint_union(complete_graph(2), cycle_graph(5)).complement()
    )
    assert is_isomorphic(catalog("net"), headless_spider(3))
    assert is_isomorphic(catalog("thick3"), headless_spider(3).complement())
    assert is_isomorphic(catalog("house"), catalog("p5").complement())
    assert is_isomorphic(catalog("kite"), catalog("fork").complement())
    assert is_isomorphic(catalog("cobanner"), catalog("banner").complement())
    assert catalog("K2,3").n == 5
    assert is_isomorphic(catalog("k2,2,2"), catalog("e4"))
    assert is_isomorphic(catalog("w4"), join(cycle_graph(4), complete_graph(1)))
    with pytest.raises(UnknownName):
        catalog("e14")
    with pytest.raises(UnknownName):
        catalog("blob")
    with pytest.raises(CapExceeded):
        catalog("k40")
    # a size past int()'s 4,300-digit limit is refused before it is read
    for name in ("p" + "9" * 5000, "thin" + "9" * 5000, "k2," + "9" * 5000):
        with pytest.raises(CapExceeded):
            catalog(name)
    assert catalog("p0005") == path_graph(5)
    with pytest.raises(UnknownName):  # C0: zeros are read as one
        catalog("c" + "0" * 5000)
    # sizes are ASCII digits only
    for name in ("p\u0663", "c\u0665", "k2,\u0663", "thin\u0663", "thick\uff13"):
        with pytest.raises(UnknownName):
            catalog(name)


def test_e_graph_fixed_forms():
    # each E-graph matches its published composition
    p3, k1, k2, k3 = path_graph(3), complete_graph(1), complete_graph(2), complete_graph(3)
    c4, c5 = cycle_graph(4), cycle_graph(5)
    compositions = {
        "e1": union_all(k1, k2, k2),
        "e2": union_all(p3, p3),
        "e3": union_all(c4, k1, k1),
        "e4": union_all(k2, k2, k2).complement(),
        "e5": disjoint_union(k2, c4).complement(),
        "e6": disjoint_union(k1, join(c4, k1)),
        "e7": disjoint_union(k1, disjoint_union(p3, k2).complement()),
        "e8": disjoint_union(k2, join(empty_graph(2), k2)),
        "e9": union_all(k3, k3),
        "e10": disjoint_union(k1, c5),
        "e11": disjoint_union(k1, catalog("banner")),
        "e12": disjoint_union(k1, catalog("house")),
        "e13": disjoint_union(k2, c5).complement(),
    }
    for name, g in compositions.items():
        assert is_isomorphic(catalog(name), g), name
