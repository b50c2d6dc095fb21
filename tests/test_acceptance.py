"""Acceptance suite: exact reproduction of every finite characterization.

Each criterion is one test that performs its check at the stated scale and
prints one pass line (run pytest with -s to see them). All comparisons are
exact set equality by canonical key; nothing is tolerance-based.
"""

import time
from functools import lru_cache
from itertools import combinations, permutations

from polaritylab.classes import (
    CLASS_IDS,
    build_decomposition,
    find_spider,
    generate_class,
    is_cograph,
    is_p4_extendible,
    is_p4_sparse,
    rebuild,
    recognizer,
    sigma_j,
    sigma_sep,
    tau_j,
)
from polaritylab.graphs import (
    canonical_key,
    catalog,
    complete_graph,
    cycle_graph,
    disjoint_union,
    enumerate_graphs,
    graph6_encode,
    list_induced_p4s,
    path_graph,
    union_all,
)
from polaritylab.obstructions import (
    catalog_list,
    construct_s1_obstructions,
    enumerate_minimal_obstructions,
    is_antichain,
    is_minimal_obstruction,
    verify_claim,
)
from polaritylab.polarity import (
    MONOPOLAR,
    POLAR,
    SPLIT,
    UNIPOLAR,
    find_polar_partition,
    is_cluster,
    satisfies,
    sk_polar,
)
from test_classes import decomposes


def keyset(graphs):
    return {canonical_key(g) for g in graphs}


def egraphs(*indices):
    return [catalog(f"e{i}") for i in indices]


def _report(number, name, t0):
    print(f"ACCEPTANCE {number} ({name}): PASS ({time.time() - t0:.1f}s)", flush=True)


@lru_cache(maxsize=None)
def members(class_id, n_max):
    return tuple(generate_class(class_id, n_max))


# ---------------------------------------------------------------------------


def test_criterion_01_unipolar_lists():
    t0 = time.time()
    two_p3 = union_all(path_graph(3), path_graph(3))
    got = enumerate_minimal_obstructions("p4sparse", UNIPOLAR, 6)
    assert keyset(got) == keyset([two_p3, catalog("k2,3")])
    got = enumerate_minimal_obstructions("p4extendible", UNIPOLAR, 6)
    assert keyset(got) == keyset([two_p3, catalog("k2,3"), cycle_graph(5)])
    _report(1, "unipolar lists", t0)


def test_criterion_02_nine_and_thirteen():
    t0 = time.time()
    got = enumerate_minimal_obstructions("p4sparse", sk_polar(2, 1), 8)
    assert len(got) == 9 and keyset(got) == keyset(egraphs(*range(1, 10)))
    got = enumerate_minimal_obstructions("p4extendible", sk_polar(2, 1), 8)
    assert len(got) == 13 and keyset(got) == keyset(egraphs(*range(1, 14)))
    _report(2, "nine and thirteen", t0)


def test_criterion_03_inf1_lists():
    t0 = time.time()
    got = enumerate_minimal_obstructions("p4sparse", sk_polar(None, 1), 7)
    assert keyset(got) == keyset(egraphs(1, 2, 3, 7))
    got = enumerate_minimal_obstructions("p4extendible", sk_polar(None, 1), 7)
    assert keyset(got) == keyset(egraphs(1, 2, 3, 7, 10, 11, 12))
    _report(3, "(inf,1) lists", t0)


def test_criterion_04_polar_lists():
    t0 = time.time()
    got = enumerate_minimal_obstructions("p4sparse", POLAR, 9)
    assert keyset(got) == keyset(catalog_list("polar-sparse")) and len(got) == 8
    got = enumerate_minimal_obstructions("p4extendible", POLAR, 9)
    assert keyset(got) == keyset(catalog_list("polar-extendible")) and len(got) == 14
    _report(4, "polar lists", t0)


def test_criterion_05_cograph_purity():
    t0 = time.time()
    produced = []
    produced += enumerate_minimal_obstructions("p4sparse", sk_polar(2, 1), 8)
    produced += enumerate_minimal_obstructions("p4sparse", sk_polar(None, 1), 7)
    produced += enumerate_minimal_obstructions("p4sparse", POLAR, 9)
    exceptions = [g for g in produced if not is_cograph(g)]
    assert exceptions == []
    _report(5, "cograph purity", t0)


def test_criterion_06_construction_equals_enumeration():
    t0 = time.time()
    for class_id in ("p4sparse", "p4extendible"):
        for s in (2, 3):
            built = {
                canonical_key(g)
                for g in construct_s1_obstructions(class_id, s)
                if g.n <= 8
            }
            found = keyset(
                enumerate_minimal_obstructions(class_id, sk_polar(s, 1), 8)
            )
            assert built == found, (class_id, s)
    _report(6, "construction = enumeration", t0)


def test_criterion_07_recognizer_soundness(graphs_to_8):
    t0 = time.time()
    assert len(graphs_to_8) == 13598  # 1+2+4+11+34+156+1044+12346
    assert sum(1 for g in graphs_to_8 if g.n == 8) == 12346
    disagreements = 0
    for g in graphs_to_8:
        if is_p4_sparse(g) != decomposes(g, "p4sparse"):
            disagreements += 1
        if is_p4_extendible(g) != decomposes(g, "p4extendible"):
            disagreements += 1
    assert disagreements == 0
    seven = [g for g in graphs_to_8 if g.n <= 7]
    for class_id in CLASS_IDS:
        check = recognizer(class_id)
        assert keyset(generate_class(class_id, 7)) == keyset(
            g for g in seven if check(g)
        ), class_id
    _report(7, "recognizer soundness", t0)


def test_criterion_08_disconnected_completeness(graphs_to_8):
    t0 = time.time()
    spec = sk_polar(2, 1)
    got = set()
    for g in graphs_to_8:
        if g.is_connected() or satisfies(g, spec):
            continue
        if all(satisfies(g.delete_vertex(v), spec) for v in range(g.n)):
            got.add(canonical_key(g))
    assert got == keyset(egraphs(1, 2, 3, 6, 7, 8, 9, 10, 11, 12))
    _report(8, "disconnected (2,1) completeness over all graphs", t0)


def test_criterion_09_bound_check():
    t0 = time.time()
    report = verify_claim("bound", 9)
    assert report.passed and report.counterexamples == []
    assert report.details["obstructions"]["(2,1)"] == 9
    _report(9, "(s+1)(k+1) bound", t0)


# --- criterion 10: the per-module property suites at their stated ranges ----


def test_criterion_10a_complement_duality(graphs_to_7):
    t0 = time.time()
    for g in graphs_to_7:
        co = g.complement()
        for s in range(4):
            for k in range(4):
                assert satisfies(g, sk_polar(s, k)) == satisfies(co, sk_polar(k, s))
    _report("10a", "complement duality <=7", t0)


def test_criterion_10b_monotonicity_and_heredity(graphs_to_6):
    t0 = time.time()
    for g in graphs_to_6:
        table = {
            (s, k): satisfies(g, sk_polar(s, k)) for s in range(4) for k in range(4)
        }
        for (s, k), value in table.items():
            if value:
                assert all(
                    table[(s2, k2)] for s2 in range(s, 4) for k2 in range(k, 4)
                )
        for spec in (UNIPOLAR, MONOPOLAR, POLAR, SPLIT, sk_polar(2, 1)):
            if satisfies(g, spec):
                assert all(
                    satisfies(g.delete_vertex(v), spec) for v in range(g.n)
                )
        n = g.n
        for k in range(4):
            assert satisfies(g, sk_polar(n, k)) == satisfies(g, sk_polar(None, k))
            assert satisfies(g, sk_polar(k, n)) == satisfies(g, sk_polar(k, None))
    _report("10b", "monotonicity, heredity, saturation <=6", t0)


def test_criterion_10c_antichains():
    t0 = time.time()
    lists = [
        catalog_list("unipolar-sparse"),
        catalog_list("unipolar-extendible"),
        catalog_list("comonopolar-sparse"),
        catalog_list("comonopolar-extendible"),
        catalog_list("monopolar-sparse"),
        catalog_list("monopolar-extendible"),
        catalog_list("polar-sparse"),
        catalog_list("polar-extendible"),
        catalog_list("egraphs"),
        construct_s1_obstructions("p4sparse", 3),
        construct_s1_obstructions("p4extendible", 3),
    ]
    for graphs in lists:
        ok, pair = is_antichain(graphs)
        assert ok, pair
    _report("10c", "antichains", t0)


def test_criterion_10d_spider_shortcuts():
    t0 = time.time()
    # sigma/tau spiders of order <= 9: unipolar iff the head is
    heads = list(enumerate_graphs(5))
    for head in heads:
        for build, j in ((sigma_j, 2), (sigma_j, 3), (sigma_j, 4),
                         (tau_j, 3), (tau_j, 4)):
            if head.n + 2 * j > 9:
                continue
            g = build(head, j)
            assert satisfies(g, UNIPOLAR) == (head.n == 0 or satisfies(head, UNIPOLAR))
    # banner spiders: unipolar iff the head is empty or one clique
    for head in heads:
        if head.n > 4:
            continue
        g = sigma_sep("banner", head)
        assert satisfies(g, UNIPOLAR) == is_cluster(head, 1)
    _report("10d", "spider unipolarity shortcuts <=9", t0)


def test_criterion_10e_crossing_p4_freedom():
    t0 = time.time()
    heads = [g for g in enumerate_graphs(4) if g.n >= 1]
    for kind in ("p4", "banner", "cobanner", "fork", "kite"):
        base_n = 4 if kind == "p4" else 5
        for head in heads:
            g = sigma_sep(kind, head)
            base_mask = (1 << base_n) - 1
            head_mask = ((1 << head.n) - 1) << base_n
            for quad in list_induced_p4s(g):
                m = 0
                for v in quad:
                    m |= 1 << v
                assert not (m & base_mask and m & head_mask)
    _report("10e", "crossing-P4 freedom", t0)


def _brute_spider_exists(g):
    n = g.n
    for j in range(2, n // 2 + 1):
        for body in combinations(range(n), j):
            if any(not g.has_edge(a, b) for a, b in combinations(body, 2)):
                continue
            bset = set(body)
            rest = [v for v in range(n) if v not in bset]
            for legs in combinations(rest, j):
                if any(g.has_edge(a, b) for a, b in combinations(legs, 2)):
                    continue
                lset = set(legs)
                head = [v for v in rest if v not in lset]
                if any(not g.has_edge(h, b) for h in head for b in body):
                    continue
                if any(g.has_edge(h, s) for h in head for s in legs):
                    continue
                for perm in permutations(body):
                    if all(
                        g.has_edge(s, b) == (i == k)
                        for i, s in enumerate(legs)
                        for k, b in enumerate(perm)
                    ) or all(
                        g.has_edge(s, b) == (i != k)
                        for i, s in enumerate(legs)
                        for k, b in enumerate(perm)
                    ):
                        return True
    return False


def test_criterion_10f_spider_soundness(graphs_to_8):
    t0 = time.time()
    for g in graphs_to_8:
        sp = find_spider(g)
        if sp is None:
            assert not _brute_spider_exists(g), graph6_encode(g)
        else:
            assert sp.validate(g), graph6_encode(g)
    _report("10f", "spider detection soundness <=8", t0)


def test_criterion_10g_decomposition_faithfulness():
    t0 = time.time()
    for class_id in ("p4sparse", "p4extendible"):
        for g in members(class_id, 8):
            assert rebuild(build_decomposition(g, class_id)) == g
    _report("10g", "decomposition rebuild identity <=8", t0)


def test_criterion_10i_complement_invariances(graphs_to_8):
    t0 = time.time()
    # recognizer complement closure at <=8: both forbidden lists are
    # self-complementary
    for g in graphs_to_8:
        co = g.complement()
        assert is_p4_sparse(g) == is_p4_sparse(co)
        assert is_p4_extendible(g) == is_p4_extendible(co)
    # minimal-obstruction transfer at <=7, s,k <= 2
    for g in members("p4sparse", 7) + members("p4extendible", 7):
        co = g.complement()
        for s in (1, 2):
            for k in (1, 2):
                assert (
                    is_minimal_obstruction(g, sk_polar(s, k)).is_minimal
                    == is_minimal_obstruction(co, sk_polar(k, s)).is_minimal
                )
    _report("10i", "complement closure <=8 and obstruction transfer <=7", t0)


def test_criterion_10h_union_recursion_and_spiders():
    t0 = time.time()
    # disjoint unions of pool members obstruct exactly the composed parameter
    from polaritylab.obstructions import _pool

    for class_id in ("p4sparse", "p4extendible"):
        pools = {k: _pool(class_id, k) for k in range(3)}
        for k1, graphs1 in pools.items():
            for k2, graphs2 in pools.items():
                for a in graphs1:
                    for b in graphs2:
                        if a.n + b.n > 9:
                            continue
                        g = disjoint_union(a, b)
                        k = 1 + k1 + k2
                        assert is_minimal_obstruction(g, sk_polar(1, k)).is_minimal
                        assert satisfies(g, sk_polar(1, k + 1))
    report = verify_claim("spider_not_obs", 9)
    assert report.passed, report.counterexamples
    _report("10h", "union recursion forward + spiders never (1,k)-minimal", t0)
