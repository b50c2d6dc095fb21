"""Partition-solver tests: cluster / multipartite predicates, witness search
determinism, and the hereditary-property invariants at small orders."""

import random
from itertools import combinations

import pytest

from polaritylab import polarity
from polaritylab.errors import BadParameter, CapExceeded
from polaritylab.graphs import (
    Graph,
    _bits_to_tuple,
    _co_rows,
    catalog,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    headless_spider,
    path_graph,
    union_all,
)
from polaritylab.polarity import (
    MONOPOLAR,
    POLAR,
    SPLIT,
    UNIPOLAR,
    PolarPartition,
    _eff,
    _is_cm_mask,
    find_polar_partition,
    is_cluster,
    is_complete_multipartite,
    is_split,
    parse_spec,
    satisfies,
    sk_polar,
)
from test_classes import _k_subsets


def test_is_cluster():
    assert is_cluster(union_all(complete_graph(3), complete_graph(3)), 2)
    assert not is_cluster(path_graph(3))
    assert not is_cluster(empty_graph(3), 2)  # 3K1 needs three cliques
    assert is_cluster(empty_graph(3), 3)
    assert is_cluster(empty_graph(0), 0)


def test_is_complete_multipartite():
    assert is_complete_multipartite(catalog("k2,3"), 2)
    assert not is_complete_multipartite(path_graph(3).complement())
    assert not is_complete_multipartite(complete_graph(4), 3)
    assert is_complete_multipartite(complete_graph(4), 4)
    assert is_complete_multipartite(empty_graph(2), 1)


def test_is_split():
    for j in (2, 3, 4):
        assert is_split(headless_spider(j))
        assert is_split(headless_spider(j, thick=True))
    assert not is_split(cycle_graph(4))
    assert is_split(path_graph(4))
    assert is_split(catalog("fork"))
    assert not is_split(cycle_graph(5))
    assert not is_split(union_all(complete_graph(2), complete_graph(2)))


def test_split_matches_partition_search(graphs_to_7):
    for g in graphs_to_7:
        assert is_split(g) == satisfies(g, SPLIT)


def test_c5_polarity_facts():
    c5 = cycle_graph(5)
    assert find_polar_partition(c5, SPLIT) is None
    assert find_polar_partition(c5, sk_polar(2, 1)) is not None
    assert find_polar_partition(c5, sk_polar(1, 2)) is not None
    assert find_polar_partition(c5, sk_polar(None, 0)) is None
    assert find_polar_partition(c5, sk_polar(0, None)) is None
    # P4 and the fork are split but have neither side trivial
    for name in ("p4", "fork"):
        g = catalog(name)
        assert satisfies(g, SPLIT)
        assert not satisfies(g, sk_polar(0, None))
        assert not satisfies(g, sk_polar(None, 0))


def test_monopolar_witness_deterministic():
    k23 = catalog("k2,3")
    w = find_polar_partition(k23, MONOPOLAR)
    assert w == PolarPartition((0, 1), (2, 3, 4))
    assert w.validate(k23, MONOPOLAR)


def test_unipolar_facts():
    assert find_polar_partition(union_all(path_graph(3), path_graph(3)), UNIPOLAR) is None
    assert satisfies(path_graph(3), UNIPOLAR)
    assert satisfies(complete_graph(5), UNIPOLAR)
    assert not satisfies(catalog("k2,3"), UNIPOLAR)


def test_satisfies_examples():
    e6 = catalog("e6")
    assert not satisfies(e6, sk_polar(2, 1))
    for v in range(e6.n):
        assert satisfies(e6.delete_vertex(v), sk_polar(2, 1))
    # complete graphs: one clique on the B side, or enough parts on the A side
    for n in (1, 3, 5):
        kn = complete_graph(n)
        for spec in (UNIPOLAR, MONOPOLAR, POLAR, SPLIT, sk_polar(2, 1), sk_polar(0, 1)):
            assert satisfies(kn, spec)
        assert satisfies(kn, sk_polar(n, 0))
        if n > 1:
            assert not satisfies(kn, sk_polar(1, 0))  # K_n is complete n-partite


def test_degenerate_cases():
    e = empty_graph(0)
    for spec in (UNIPOLAR, MONOPOLAR, POLAR, SPLIT, sk_polar(0, 0)):
        assert find_polar_partition(e, spec) == PolarPartition((), ())
    g = union_all(complete_graph(2), complete_graph(1))
    w = find_polar_partition(g, sk_polar(0, 2))
    assert w is not None and w.a == ()  # s=0 forces an empty A side
    w = find_polar_partition(complete_graph(3), sk_polar(3, 0))
    assert w is not None and w.b == ()  # k=0 forces an empty B side
    for query in (satisfies, find_polar_partition):
        with pytest.raises(CapExceeded):
            query(empty_graph(21), POLAR)


def _is_clique_mask(adj, mask: int) -> bool:
    """The clique test the solver used before it read a clique side as a
    cluster side with one clique: every vertex of the mask sees the rest."""
    rest = mask
    while rest:
        v = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        if adj[v] & mask != mask ^ (1 << v):
            return False
    return True


def test_clique_is_a_cluster_with_one_clique(graphs_to_6):
    for g in graphs_to_6:
        co = _co_rows(g.adj, (1 << g.n) - 1)
        for mask in range(1 << g.n):
            assert _is_cm_mask(co, mask, 1) == _is_clique_mask(g.adj, mask), (g, mask)


def test_every_witness_validates(graphs_to_6):
    specs = [UNIPOLAR, MONOPOLAR, POLAR, SPLIT, sk_polar(2, 1), sk_polar(2, 2)]
    for g in graphs_to_6:
        if g.n > 5:
            continue
        for spec in specs:
            w = find_polar_partition(g, spec)
            if w is not None:
                assert w.validate(g, spec)


def _cliques(vs, adjacent):
    """Number of cliques when ``adjacent`` makes ``vs`` a disjoint union of
    cliques (no three vertices with exactly two adjacent pairs), else None."""
    for t in combinations(vs, 3):
        if sum(adjacent(a, b) for a, b in combinations(t, 2)) == 2:
            return None
    return len({frozenset(u for u in vs if u == v or adjacent(u, v)) for v in vs})


def _is_split_by_definition(g, spec, a, b):
    """Whether (A, B) is a valid split, straight from the definitions: A and B
    partition the vertices; the parts of A are the classes of "equal or
    non-adjacent", at most s of them, or all pairs of A are adjacent for a
    clique side; B is at most k disjoint cliques. None bounds are unbounded."""
    if sorted(a + b) != list(range(g.n)):
        return False
    if spec.clique_side:
        a_ok = all(g.has_edge(u, v) for u, v in combinations(a, 2))
    else:
        parts = _cliques(a, lambda u, v: not g.has_edge(u, v))
        a_ok = parts is not None and (spec.s is None or parts <= spec.s)
    clusters = _cliques(b, g.has_edge)
    return a_ok and clusters is not None and (spec.k is None or clusters <= spec.k)


def _brute_witness(g, spec):
    """First (A, B) by |A|, then lexicographic A, that is a valid split by
    the definitions, or None."""
    for size in range(g.n + 1):
        for a in combinations(range(g.n), size):
            b = tuple(v for v in range(g.n) if v not in a)
            if _is_split_by_definition(g, spec, a, b):
                return a, b
    return None


def test_witness_is_first_in_size_then_lex_order(graphs_to_6):
    bounds = (1, 2, 3, None)
    for g in graphs_to_6:
        for spec in [sk_polar(s, k) for s in bounds for k in bounds] + [UNIPOLAR]:
            w = find_polar_partition(g, spec)
            got = None if w is None else (w.a, w.b)
            assert got == _brute_witness(g, spec), (g, spec)


BOUNDS = (0, 1, 2, 3, None)
ALL_SPECS = [sk_polar(s, k) for s in BOUNDS for k in BOUNDS] + [UNIPOLAR]


def _scan_witness(g, spec):
    """The exhaustive scan the pruned search replaced: every A-side mask in
    (size, lexicographic) order, and the first valid split as (A, B), or None."""
    n = g.n
    adj = g.adj
    full = (1 << n) - 1
    co = _co_rows(adj, full)
    smax = _eff(spec.s, n)
    kmax = _eff(spec.k, n)
    for size in range(n + 1):
        for _, amask in _k_subsets(range(n), size):
            if spec.clique_side:
                if not _is_clique_mask(adj, amask):
                    continue
            elif not _is_cm_mask(adj, amask, smax):
                continue
            if _is_cm_mask(co, full ^ amask, kmax):
                return _bits_to_tuple(amask), _bits_to_tuple(full ^ amask)
    return None


def test_validate_accepts_exactly_the_valid_splits(graphs_to_6):
    # every A-side mask against its complement, and against the complement
    # with one vertex of A added (overlapping) or one of B dropped (not
    # covering); the definitional check decides each pair
    rejected = 0
    for g in graphs_to_6:
        if g.n > 5:
            continue
        full = (1 << g.n) - 1
        for amask in range(full + 1):
            b_full = full ^ amask
            bmasks = {b_full, b_full | (amask & -amask), b_full & (b_full - 1)}
            for bmask in bmasks:
                w = PolarPartition(_bits_to_tuple(amask), _bits_to_tuple(bmask))
                for spec in ALL_SPECS:
                    want = _is_split_by_definition(g, spec, w.a, w.b)
                    assert w.validate(g, spec) == want, (g, spec, w)
                    rejected += not want
    assert rejected


def test_pruned_search_matches_the_exhaustive_scan(graphs_to_7):
    for g in graphs_to_7:
        for spec in ALL_SPECS:
            want = _scan_witness(g, spec)
            w = find_polar_partition(g, spec)
            assert (None if w is None else (w.a, w.b)) == want, (g, spec)
            assert satisfies(g, spec) == (want is not None), (g, spec)


# Verdicts of the exhaustive scan for ALL_SPECS, in order ("1" = has a
# partition), and the most side tests any one query takes. The scan needs
# 2^20 A-side tests per None answer at order 20.
ORDER_20 = {
    "4C5": (union_all(*[cycle_graph(5)] * 4), "00000000010000100001000010", 2_734),
    "C20": (cycle_graph(20), "00000000010000100001000010", 1_077),
    "E20": (empty_graph(20), "00001111111111111111111111", 10_838),
    "K20": (complete_graph(20), "01111011110111101111111111", 230),
    "10K2": (union_all(*[complete_graph(2)] * 10), "00001000010000100001000011", 218),
}


@pytest.mark.parametrize("name", list(ORDER_20))
def test_order_20_queries_are_cheap(name, monkeypatch):
    # a query's work is its side tests (``_is_cm_mask``) plus its first-hit
    # steps (``_first_hit``, which recurses through the module, so each step
    # is counted); the verdict makes only steps, the witness only tests
    g, verdicts, worst = ORDER_20[name]
    tests, passed, steps = [0], [0], [0]
    side_test, step = polarity._is_cm_mask, polarity._first_hit

    def counted_test(*args):
        tests[0] += 1
        ok = side_test(*args)
        passed[0] += ok
        return ok

    def counted_step(*args):
        steps[0] += 1
        return step(*args)

    monkeypatch.setattr(polarity, "_is_cm_mask", counted_test)
    monkeypatch.setattr(polarity, "_first_hit", counted_step)
    for spec, verdict in zip(ALL_SPECS, verdicts):
        tests[0] = passed[0] = steps[0] = 0
        assert satisfies(g, spec) == (verdict == "1"), spec
        assert tests[0] == 0, spec
        verdict_steps, steps[0] = steps[0], 0
        w = find_polar_partition(g, spec)
        assert steps[0] == 0, spec
        assert max(verdict_steps, tests[0]) <= worst, (spec, verdict_steps, tests[0])
        assert (w is not None) == (verdict == "1"), spec
        # a None answer costs one size-free pass, which reaches the nodes the
        # first-hit walk reaches: the root, and one per side test passed
        assert w is not None or verdict_steps == 1 + passed[0], spec
        assert w is None or w.validate(g, spec)


def _parts(rows, mask):
    """Parts of G[mask] on ``rows`` when it is complete multipartite, else
    None, by the definition: each vertex's non-neighbours in the mask,
    itself included, are its part, so the parts are disjoint."""
    parts = {mask & ~rows[v] for v in _bits_to_tuple(mask)}
    return len(parts) if sum(p.bit_count() for p in parts) == mask.bit_count() else None


def _split_verdicts(g):
    """The verdicts for ``ALL_SPECS``, by a brute force over all 2^n A-sides:
    the (A, B) part counts of every split, each side on the rows it is read
    on (a clique side is a cluster side with one clique)."""
    full = (1 << g.n) - 1
    co = _co_rows(g.adj, full)
    on_adj = [_parts(g.adj, m) for m in range(full + 1)]
    on_co = [_parts(co, m) for m in range(full + 1)]
    pairs = {(on_adj[m], on_co[full ^ m]) for m in range(full + 1)}
    cliques = {on_co[m] for m in range(full + 1) if on_co[full ^ m] is not None}
    verdicts = []
    for spec in ALL_SPECS:
        if spec.clique_side:
            verdicts.append(any(c is not None and c <= 1 for c in cliques))
        else:
            s, k = _eff(spec.s, g.n), _eff(spec.k, g.n)
            verdicts.append(any(a is not None and b is not None and a <= s and b <= k
                                for a, b in pairs))
    return verdicts


def _gnp_sweep():
    """Seeded G(n, p) graphs of orders 8 to 14."""
    rng = random.Random(34)
    graphs = []
    for n in range(8, 15):
        for p in (0.2, 0.4, 0.6, 0.8):
            rows = [0] * n
            for u, v in combinations(range(n), 2):
                if rng.random() < p:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
            graphs.append(Graph(n, tuple(rows)))
    return graphs


def test_first_hit_walk_matches_the_bounded_pass_and_every_split(graphs_to_7):
    # the verdict's walk against the witness search and a brute force over
    # all 2^n splits; test_order_20_queries_are_cheap holds both to the
    # exhaustive scan's verdicts at order 20, and test_degenerate_cases
    # holds both to the cap at order 21
    for g in graphs_to_7 + _gnp_sweep():
        for spec, verdict in zip(ALL_SPECS, _split_verdicts(g)):
            assert satisfies(g, spec) == verdict, (g, spec)
            assert (find_polar_partition(g, spec) is not None) == verdict, (g, spec)


def test_complement_duality_small(graphs_to_6):
    for g in graphs_to_6:
        if g.n > 5:
            continue
        co = g.complement()
        for s in range(3):
            for k in range(3):
                assert satisfies(g, sk_polar(s, k)) == satisfies(co, sk_polar(k, s))


def test_monotonicity_small(graphs_to_6):
    for g in graphs_to_6:
        if g.n > 5:
            continue
        table = {
            (s, k): satisfies(g, sk_polar(s, k)) for s in range(4) for k in range(4)
        }
        for (s, k), value in table.items():
            if value:
                for s2 in range(s, 4):
                    for k2 in range(k, 4):
                        assert table[(s2, k2)]


def test_heredity_small(graphs_to_6):
    specs = [UNIPOLAR, MONOPOLAR, POLAR, SPLIT, sk_polar(2, 1)]
    for g in graphs_to_6:
        if g.n > 5:
            continue
        for spec in specs:
            if satisfies(g, spec):
                for v in range(g.n):
                    assert satisfies(g.delete_vertex(v), spec)


def test_infinity_saturation(graphs_to_6):
    for g in graphs_to_6:
        if g.n > 5:
            continue
        n = g.n
        for k in range(3):
            assert satisfies(g, sk_polar(n, k)) == satisfies(g, sk_polar(None, k))
            assert satisfies(g, sk_polar(k, n)) == satisfies(g, sk_polar(k, None))


def test_spider_head_shortcut():
    # unipolarity of a spider reduces to its head
    from polaritylab.classes import sigma_j, tau_j

    heads = [empty_graph(1), path_graph(3), path_graph(4), catalog("k2,3")]
    for head in heads:
        for build, j in ((sigma_j, 2), (sigma_j, 3), (tau_j, 3)):
            if head.n + 2 * j > 9:
                continue
            g = build(head, j)
            assert satisfies(g, UNIPOLAR) == satisfies(head, UNIPOLAR)


def test_banner_spider_head_shortcut():
    # a banner-spider is unipolar iff its head is empty or complete
    from polaritylab.classes import sigma_sep

    for head in (empty_graph(2), path_graph(2), path_graph(3), complete_graph(3)):
        g = sigma_sep("banner", head)
        want = is_cluster(head, 1)
        assert satisfies(g, UNIPOLAR) == want


def test_parse_spec():
    assert parse_spec("sk:2,1") == sk_polar(2, 1)
    assert parse_spec("sk:1,inf") == MONOPOLAR
    assert parse_spec("sk:inf,inf") == POLAR
    assert parse_spec("unipolar") == UNIPOLAR
    assert parse_spec("split") == SPLIT
    assert parse_spec("monopolar").label() == "sk:1,inf"
    assert UNIPOLAR.label() == "unipolar"
    assert parse_spec(" SK:INF,0 ") == sk_polar(None, 0)
    # S and K are ASCII digits or "inf", with nothing around them: no sign,
    # space, underscore or other digit, and no number int() cannot read
    for bad in ("sk:", "sk:1", "sk:a,b", "polarish", "sk:2_0,1", "sk:+2,1", "sk: 2,1",
                "sk:2, 1", "sk:\u0661,1", "sk:1,\uff12", "sk: inf,1", "sk:-1,2",
                "sk:1,2,3", "sk:" + "9" * 5000 + ",1"):
        with pytest.raises(BadParameter):
            parse_spec(bad)
    with pytest.raises(BadParameter):
        sk_polar(-1, 2)
