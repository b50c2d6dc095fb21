"""Graph kernel tests: construction, boolean ops, isomorphism, graph6,
induced-subgraph search, and exhaustive enumeration, each checked against an
independent oracle where the expected value is not forced by definition."""

import hashlib
import importlib.util
import random
import time
import tracemalloc
from itertools import combinations, permutations
from pathlib import Path

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
    _child_sets,
    _child_twins,
    _column,
    _independent_prefix,
    _mask_of,
    _min_bits,
    _spreads,
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


def test_vertex_accessors_refuse_vertices_out_of_range():
    # Python would read -1 as the last row, and a deletion of a vertex the
    # graph lacks would return it unchanged
    p4 = path_graph(4)
    for call in (lambda v: p4.has_edge(v, 2), lambda v: p4.has_edge(2, v),
                 p4.degree, p4.neighbors, p4.delete_vertex):
        for v in (-1, 4, 9):
            with pytest.raises(VertexOutOfRange):
                call(v)
    assert p4.has_edge(2, 3) and not p4.has_edge(0, 3)
    assert p4.degree(3) == 1 and p4.neighbors(1) == (0, 2)
    assert p4.delete_vertex(0) == path_graph(3)


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


def _relabeled(g, perm):
    """``g`` with vertex ``perm[i]`` renamed i."""
    pos = {v: i for i, v in enumerate(perm)}
    return Graph(g.n, tuple(_mask_of(pos[u] for u in g.neighbors(v)) for v in perm))


def _check_label(g, bits, perm):
    """The search reaches ``bits``, and the canonical form (searched again,
    uncached) is ``g`` relabeled by ``perm``, a minimal labeling taken from
    an oracle or pinned."""
    assert _min_bits(g.adj) == bits
    assert canonical_form(Graph(g.n, g.adj)) == _relabeled(g, perm)


def test_twin_pruning_matches_the_unpruned_search(graphs_to_7):
    members = [g for c in CLASS_IDS for g in generate_class(c, 8)]
    for g in graphs_to_7 + members:
        _check_label(g, *_unpruned_min_bits(g.adj))


def test_enumeration_output_is_pinned(graphs_to_7):
    # every graph enumerated is its canonical form, so a change to the
    # labeling search must keep the bits: same graphs, same order
    text = "\n".join(graph6_encode(g) for g in graphs_to_7)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "526c7cda9d1e0bd4a91225d88d168fbba15851c5330364c73663363ff4227995")


def test_enumeration_output_is_pinned_at_order_8(graphs_to_8):
    text = "\n".join(graph6_encode(g) for g in graphs_to_8)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3c3bdc694df78ac29bf0dd30099acfd6398b7eee72a715ea02bfe62f781031c5")


def test_enumeration_yields_canonical_forms(graphs_to_7):
    # each graph enumerated is its own canonical form, and two random
    # relabelings of it label back to it
    rng = random.Random(23)
    for g in graphs_to_7:
        assert canonical_form(g) == g
        for _ in range(2):
            p = rng.sample(range(g.n), g.n)
            assert canonical_form(from_edges(g.n, [(p[u], p[v]) for u, v in g.edges()])) == g


def test_enumeration_skips_only_children_that_fail_the_pinned_test(graphs_to_7, searches):
    # a child whose new column is below the parent's column bound, or that
    # holds a vertex's previous twin but not the vertex, is never labeled;
    # every child left unlabeled must fail the pinned test: its own labeling
    # is not minimal
    assert list(enumerate_graphs(7)) == graphs_to_7
    # 11,291 when every child was labeled, 7,195 with the twin filter alone,
    # 1,482 with the twin filter and a greedy labeling screen
    assert len(searches) == 1_993
    labeled = {args[0] for args, _ in searches}
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
                assert _min_bits(rows) < pinned | _column(mask, range(m))
    assert skipped == 11_291 - 1_993


def _own_bits(adj) -> int:
    """The bits of ``adj``'s own labeling, vertex i placed i-th."""
    bits = 0
    for k, row in enumerate(adj):
        bits = (bits << k) | _column(row, range(k))
    return bits


def _check_verdict(adj):
    own = _own_bits(adj)
    verdict = _min_bits(adj, own)
    assert verdict == (own if _min_bits(adj) == own else None), adj


def test_bounded_search_answers_whether_the_own_labeling_is_minimal(graphs_to_7, searches):
    # every child of every parent to order 7, labeled by the enumeration or
    # skipped, and two random relabelings of every graph of order <= 7: the
    # bounded search returns the own bits iff the full search does
    rng = random.Random(25)
    for g in graphs_to_7:
        if g.n < 7:
            m = g.n
            for mask in range(1 << m):
                _check_verdict(tuple(row | (1 << m) if (mask >> v) & 1 else row
                                     for v, row in enumerate(g.adj)) + (mask,))
        for _ in range(2):
            _check_verdict(_relabeled(g, rng.sample(range(g.n), g.n)).adj)
    # the enumeration's searches: 741 stop early, the rest keep their own bits
    searches.clear()
    list(enumerate_graphs(7))
    verdicts = [(answer, _own_bits(args[0])) for args, answer in searches]
    assert len(verdicts) == 1_993
    assert [v for v, _ in verdicts].count(None) == 741
    assert sum(v == own for v, own in verdicts) == 1_252


def test_children_start_from_their_parents_independent_sets(graphs_to_7):
    # every child of every parent to order 7, labeled by the enumeration or
    # skipped: the sets read off the parent's are the child's maximum
    # independent sets as phase 1 grows them with no twin filter, and the
    # search answers the same with them as without, bounded or in full.
    # The previous-twin bits read off the parent's hold only for the masks
    # the twin skip admits (each of the parent's twin classes splits into a
    # part outside the mask followed by a part inside): on exactly those
    # they are the child's own, and the search answers the same with both
    # handed-down arguments as without them
    for parent in graphs_to_7:
        m = parent.n
        if m == 7:
            continue
        top, below, _ = _independent_prefix(parent.adj, [0] * m)
        lower, last = _twin_before(parent.adj)
        twins = [(t, 1 << v, v) for v, t in enumerate(lower) if t]
        pinned = parent.canonical_bits << m
        for col in range(1 << m):
            mask = _column(col, range(m))
            adj = tuple(row | (1 << m) if (mask >> v) & 1 else row
                        for v, row in enumerate(parent.adj)) + (mask,)
            sets = _child_sets(top, below, mask, 1 << m)
            assert sorted(sets) == sorted(_independent_prefix(adj, [0] * (m + 1))[0]), adj
            for own in (pinned | col, None):
                assert _min_bits(adj, own, sets) == _min_bits(adj, own), adj
            kin = _child_twins(lower, twins, last, mask)
            if any(mask & t and not mask & v for t, v, _ in twins):  # the twin skip
                assert kin is None, adj
                continue
            assert kin == _twin_before(adj)[0], adj
            for own in (pinned | col, None):
                assert _min_bits(adj, own, sets, kin) == _min_bits(adj, own), adj


def test_children_searched_to_order_8_inherit_their_parents_twins(graphs_to_8, searches):
    # the oracle for the hand-down on every child enumerate_graphs(8)
    # searches: the previous-twin bits read off its parent's (the fourth
    # argument) are the ones _twin_before finds on the child; the one other
    # search labels the order-1 root
    assert list(enumerate_graphs(8)) == graphs_to_8
    children = [args for args, _ in searches if len(args) == 4]
    assert len(searches) - 1 == len(children) == 21_973
    for adj, _own, _sets, lower in children:
        assert lower == _twin_before(adj)[0], adj


def test_twin_before_finds_each_vertex_s_previous_twin(graphs_to_7):
    # against the definition: u and v are false twins iff N(u) = N(v), true
    # twins iff N[u] = N[v]; last maps each open and each closed row to the
    # bit of the last vertex with that row
    rng = random.Random(31)
    rows = [g.adj for g in graphs_to_7]
    rows += [_gnp(rng, n, p) for n in (9, 12, 16) for p in (0.2, 0.5, 0.8)]
    rows += [complete_multipartite(parts).adj for parts in ((3, 2, 2), (1, 4), (2, 2, 2, 2))]
    rows += [union_all(complete_graph(3), complete_graph(3), empty_graph(2)).adj]
    for adj in rows:
        lower, last = _twin_before(adj)
        closed = [row | 1 << v for v, row in enumerate(adj)]
        for v in range(len(adj)):
            twins = [u for u in range(v) if adj[u] == adj[v] or closed[u] == closed[v]]
            assert lower[v] == (1 << twins[-1] if twins else 0), adj
        want = {}
        for v in range(len(adj)):
            want[adj[v]] = want[closed[v]] = 1 << v
        assert last == want, adj


def test_one_mask_twin_filter_keeps_the_sets_phase_1_grows(graphs_to_7):
    # a maximum independent set holds a false-twin class whole or not at
    # all, and at most one vertex of a true-twin class; so the maximum sets
    # whose twins come in index order (each vertex's previous twin in the
    # set with it) are those that hold no true twin with a previous twin
    rng = random.Random(29)
    rows = [g.adj for g in graphs_to_7]
    rows += [_gnp(rng, n, p) for n in range(9, 17) for p in (0.2, 0.5, 0.8)]
    for adj in rows:
        lower = _twin_before(adj)[0]
        sets = _independent_prefix(adj, [0] * len(adj))[0]
        pairwise = [s for s in sets
                    if all(s & t or not s >> v & 1 for v, t in enumerate(lower) if t)]
        ban = _mask_of(v for v, t in enumerate(lower) if t & adj[v])
        assert [s for s in sets if not s & ban] == pairwise, adj
        assert set(pairwise) == set(_independent_prefix(adj, lower)[0]), adj


def _edge_spreads(adj):
    """spread[v] by a loop over every edge: bit 0 of the packed-key block
    (m bits at u*m) of each neighbour u of v."""
    m = len(adj)
    spread = [0] * m
    for u, row in enumerate(adj):
        for v in range(m):
            if row >> v & 1:
                spread[v] |= 1 << (u * m)
    return spread


def test_spread_table_matches_the_edge_loop(graphs_to_7):
    rng = random.Random(27)
    rows = [g.adj for g in graphs_to_7]
    rows += [_gnp(rng, n, p) for n in (9, 16, 32) for p in (0.2, 0.5, 0.8)]
    rows += [complete_graph(n).adj for n in (9, 16, 32)]
    for adj in rows:
        assert _spreads(adj) == _edge_spreads(adj), adj


def _pair_loop_rows(n, bits):
    """Rows by a loop over every vertex pair in graph6 column order, the
    first pair reading the highest bit of ``bits``."""
    rows = [0] * n
    pos = n * (n - 1) // 2
    for j in range(1, n):
        for i in range(j):
            pos -= 1
            if (bits >> pos) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return tuple(rows)


def test_rows_match_the_pair_loop():
    rng = random.Random(35)
    for n in range(21):
        nbits = n * (n - 1) // 2
        strings = [0, (1 << nbits) - 1] + [1 << p for p in range(nbits)]
        strings += [rng.getrandbits(nbits) for _ in range(20)]
        for bits in strings:
            assert graphs_module._rows(n, bits) == _pair_loop_rows(n, bits), (n, bits)


def test_enumeration_keys_strictly_ascend(graphs_to_8):
    # no sort: each order's parents come in key order, a child's bits are
    # its parent's followed by its new column, and the columns are tried in
    # ascending order; a key starts with the order, so keys ascend across
    # orders too
    keys = [g.canonical_key() for g in graphs_to_8]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_graph6_decode_of_the_cli_stream_pool_equals_the_validated_graph():
    # graph6_decode skips the constructor's checks: _rows builds valid rows
    spec = importlib.util.spec_from_file_location(
        "inputs", Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    decoded = 0
    for fam, line in inputs.cli_pool():
        if fam == "malformed":
            continue
        g = graph6_decode(line)
        assert g == Graph(g.n, g.adj) and type(g.adj) is tuple
        assert graph6_encode(g) == line
        decoded += 1
    assert decoded == 219


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
    lower = _twin_before(adj)[0]
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
        _check_label(g, *_tiered_min_bits(g.adj))


@pytest.mark.parametrize("j", range(2, 7))
@pytest.mark.parametrize("kind", ["thin", "thick"])
def test_two_phase_search_labels_spiders_like_the_tiered_search(kind, j):
    g = headless_spider(j, kind == "thick")
    _check_label(g, *_tiered_min_bits(g.adj))


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
                _check_label(Graph(n, adj), *_tiered_min_bits(adj))


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
    _check_label(g, *_unpruned_min_bits(g.adj))
    assert splits


def _circulants_relabeled(rng):
    """Every circulant graph of order 5 to 10, randomly relabeled twice:
    vertex-transitive, so their tied states hold one orbit of holders."""
    out = []
    for n in range(5, 11):
        for jumps in range(1, 1 << (n // 2)):
            edges = {tuple(sorted((i, (i + j + 1) % n)))
                     for i in range(n) for j in range(n // 2) if jumps >> j & 1}
            for _ in range(2):
                p = rng.sample(range(n), n)
                out.append(from_edges(n, [(p[u], p[v]) for u, v in edges]))
    return out


def _force_pruning(monkeypatch):
    """Prune from the first level, in every state with two or more holders
    that start new states."""
    monkeypatch.setattr(graphs_module, "PRUNE_STATES", 0)
    monkeypatch.setattr(graphs_module, "PRUNE_LEFT", 0)
    monkeypatch.setattr(graphs_module, "PRUNE_FRESH", 2)


def _count_dropping(monkeypatch):
    """Wrap ``_orbit_holders``; the list returned gets one entry per call
    that kept fewer holders than it was given."""
    drops = []
    holders = graphs_module._orbit_holders

    def counted(*args):
        keep, work = holders(*args)
        if keep != args[4]:  # the fresh holders
            drops.append(keep)
        return keep, work

    monkeypatch.setattr(graphs_module, "_orbit_holders", counted)
    return drops


def test_pruned_search_labels_like_the_unpruned_search(graphs_to_7, monkeypatch):
    # the bits are the unpruned search's, so the canonical form is the
    # unpruned search's too; 1,563 of these searches drop a holder
    members = [g for c in CLASS_IDS for g in generate_class(c, 8)]
    circulants = _circulants_relabeled(random.Random(21))
    drops = _count_dropping(monkeypatch)
    _force_pruning(monkeypatch)
    dropping = 0
    for g in graphs_to_7 + members + list(TWIN_FREE_SYMMETRIC.values()) + circulants:
        before = len(drops)
        bits = _min_bits(g.adj)
        dropping += len(drops) > before
        want, oracle = _unpruned_min_bits(g.adj)
        assert bits == want
        assert canonical_form(Graph(g.n, g.adj)) == _relabeled(g, oracle)  # uncached
    assert dropping > 1_500


def test_enumeration_reads_only_a_minimal_perm(monkeypatch):
    # with pruning from the first level the search reaches the bits through
    # other labelings, and the output keeps test_enumeration_output_is_pinned's
    # pin
    _force_pruning(monkeypatch)
    text = "\n".join(graph6_encode(g) for g in enumerate_graphs(7))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "526c7cda9d1e0bd4a91225d88d168fbba15851c5330364c73663363ff4227995")


def test_canonical_form_is_invariant_where_holders_drop(monkeypatch):
    # the search on each of these drops holders, so which minimal labelings it
    # explores depends on the labels it is given; the canonical form does not
    drops = _count_dropping(monkeypatch)
    c5 = cycle_graph(5)
    rng = random.Random(22)
    for g in (catalog("thin7"), catalog("thin8"), catalog("thick9"), union_all(c5, c5, c5)):
        form = canonical_form(g)
        for _ in range(2):
            p = rng.sample(range(g.n), g.n)
            before = len(drops)
            assert canonical_form(from_edges(g.n, [(p[u], p[v]) for u, v in g.edges()])) == form
            assert len(drops) > before


# (bits, perm) of the symmetric spiders, taken from the search before
# automorphism pruning (thick9 with LABEL_CAP lifted: 6.2 million steps); the
# perm is a minimal labeling, so it spells the canonical form
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


def _check_spider_label(g, name):
    _check_label(g, *SPIDER_LABELS[name])


@pytest.mark.parametrize("name", sorted(SPIDER_LABELS))
def test_symmetric_spiders_keep_their_labels(name):
    _check_spider_label(catalog(name), name)


def test_thin7_labels_in_few_steps(monkeypatch):
    # 24,926 steps with pruning; the search without it passes 40,000 (it
    # built 8,670 states, 5,040 of them final)
    g = catalog("thin7")
    monkeypatch.setattr(graphs_module, "LABEL_CAP", 30_000)
    _check_spider_label(g, "thin7")
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


def _transpositions(m):
    """Every swap of two of m vertices, as maps: the automorphisms among
    them are the twin swaps, and most of the others are not automorphisms."""
    out = []
    for u, v in combinations(range(m), 2):
        g = list(range(m))
        g[u], g[v] = v, u
        out.append(g)
    return out


def test_moved_keeps_only_automorphisms():
    p4 = path_graph(4)  # 0-1-2-3
    assert graphs_module._moved(p4.adj, (3, 2, 1, 0)) == 0b1111
    assert graphs_module._moved(p4.adj, (0, 1, 2, 3)) == 0
    for bad in ((1, 0, 2, 3),  # a swap that is not an automorphism
                (0, 0, 2, 3),  # not a permutation
                (0, 2, 2, 3),
                (3, 2, 1),  # the wrong length
                (1, 2, 3, 0)):  # a rotation of the path
        assert graphs_module._moved(p4.adj, bad) is None, bad


def test_maps_that_are_not_automorphisms_are_dropped(graphs_to_7, monkeypatch):
    # every transposition is handed in, and read at the first state with two
    # fresh holders. The ones kept are twin swaps, which the search already
    # places in index order, so no holder drops and the bits stay; a swap
    # that is not an automorphism would drop some minimal holders
    monkeypatch.setattr(graphs_module, "MAPS_FRESH", 2)
    drops = _count_dropping(monkeypatch)
    reads = []

    def maps(m):
        reads.append(m)
        return _transpositions(m)

    for g in graphs_to_7 + list(TWIN_FREE_SYMMETRIC.values()):
        assert _min_bits(g.adj, maps=lambda: maps(g.n)) == Graph(g.n, g.adj).canonical_bits
    for name in ("thin7", "thick7"):
        g = catalog(name)
        assert _min_bits(g.adj, maps=lambda: maps(g.n)) == SPIDER_LABELS[name][0]
    assert len(reads) > 500 and drops == []


def test_maps_are_read_once_and_only_by_a_wide_search():
    calls = []

    def maps():
        calls.append(1)
        return []

    thin7 = catalog("thin7")
    assert _min_bits(thin7.adj, maps=maps) == SPIDER_LABELS["thin7"][0]
    assert calls == [1]
    calls.clear()
    p6 = path_graph(6)  # no tied state has MAPS_FRESH fresh holders
    assert _min_bits(p6.adj, maps=maps) == _min_bits(p6.adj)
    assert calls == []


def test_sparse_graph_labels_in_few_steps(monkeypatch):
    # 14 vertices, 8 edges, an independent prefix of 9: placing the prefix
    # one vertex at a time expanded 609,126 states; as a set it takes 750
    # steps
    g = graph6_decode("MG?G?c?H??????@?_")
    monkeypatch.setattr(graphs_module, "LABEL_CAP", 1_000)
    _check_label(g, 69122474368, (0, 8, 10, 11, 3, 6, 4, 1, 9, 12, 13, 2, 5, 7))


# G(16, 0.1) with 17 edges: the tiered search passes LABEL_CAP on it. Its
# (bits, perm) were taken once from _tiered_min_bits with a cap of 4*10^6
# (5 s, 311 MB); the two-phase search takes 1,973 steps.
PAST_THE_OLD_CAP = "O@G?CHH???p?OEg?OC???"


def test_sparse_graph_past_the_old_cap_labels():
    g = graph6_decode(PAST_THE_OLD_CAP)
    _check_label(
        g, 37926794380383956899856, (6, 15, 3, 13, 14, 1, 5, 11, 9, 10, 4, 7, 12, 8, 0, 2))
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
