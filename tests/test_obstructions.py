"""Obstruction-engine tests: minimality verdicts with witnesses, the fixed
catalogs, the recursive (s,1) constructor, antichain checks, and the claim
harness at small scale. The heavy exact-reproduction runs live in
test_acceptance.py."""

import hashlib
import json
from collections import Counter
from itertools import combinations_with_replacement

import pytest

from polaritylab import classes, graphs as graphs_module, obstructions, polarity
from polaritylab.classes import sigma_j, sigma_sep, tau_j
from polaritylab.errors import BadParameter, UnknownClaim, UnknownId
from polaritylab.graphs import (
    canonical_key,
    catalog,
    complete_graph,
    cycle_graph,
    disjoint_union,
    graph6_decode,
    graph6_encode,
    headless_spider,
    is_isomorphic,
    path_graph,
    union_all,
)
from polaritylab.obstructions import (
    catalog_list,
    construct_s1_obstructions,
    enumerate_minimal_obstructions,
    is_antichain,
    is_minimal_obstruction,
    obstruction_record,
    s1_fixed_family,
    verify_claim,
)
from polaritylab.polarity import (
    MONOPOLAR,
    POLAR,
    UNIPOLAR,
    PolarPartition,
    find_polar_partition,
    parse_spec,
    satisfies,
    sk_polar,
)
from test_classes import closure_members
from test_polarity import ALL_SPECS


def keyset(graphs):
    return {canonical_key(g) for g in graphs}


def two_p3():
    return union_all(path_graph(3), path_graph(3))


def test_unipolar_minimal_examples():
    for g in (two_p3(), catalog("k2,3"), cycle_graph(7).complement()):
        report = is_minimal_obstruction(g, UNIPOLAR)
        assert report.is_obstruction and report.is_minimal
        for v, w in report.deletion_witnesses.items():
            assert w.validate(g.delete_vertex(v), UNIPOLAR)
    report = is_minimal_obstruction(path_graph(3), UNIPOLAR)
    assert not report.is_obstruction and not report.is_minimal


def test_headless_spiders_never_obstruct():
    for j in (2, 3, 4):
        for thick in (False, True):
            spider = headless_spider(j, thick)
            for s in (1, 2):
                for k in (1, 2):
                    assert not is_minimal_obstruction(spider, sk_polar(s, k)).is_obstruction


def test_e_graphs_are_minimal_21_obstructions():
    spec = sk_polar(2, 1)
    for i in range(1, 14):
        report = is_minimal_obstruction(catalog(f"e{i}"), spec)
        assert report.is_minimal, f"e{i}"


def test_non_minimal_obstruction():
    g = disjoint_union(two_p3(), complete_graph(1))
    report = is_minimal_obstruction(g, UNIPOLAR)
    assert report.is_obstruction and not report.is_minimal
    assert report.deletion_witnesses == {}


def test_minimality_report_runs_one_size_free_pass_per_graph(monkeypatch):
    # the screen decides the graph and every deletion with first-hit walks;
    # the witnesses then come from one bounded walk per deletion
    modes = []
    walk = polarity._first_a
    monkeypatch.setattr(polarity, "_first_a",
                        lambda g, spec, first: modes.append(first) or walk(g, spec, first))
    g = catalog("e9")
    assert is_minimal_obstruction(g, sk_polar(2, 1)).is_minimal
    # twins give isomorphic deletions, so the screen deletes one vertex of
    # each twin class: e9 = 2K3 has two classes of three
    assert modes == [True] * 3 + [False] * g.n


def test_deletion_screen_deletes_one_vertex_per_twin_class(graphs_to_7):
    # twins give isomorphic deletions, so the screen that skips a vertex's
    # later twins answers as the screen over every deletion
    for g in graphs_to_7:
        for spec in ALL_SPECS:
            every = all(satisfies(g.delete_vertex(v), spec) for v in range(g.n))
            assert obstructions._deletions_satisfy(g, spec) == every, (g, spec)


def test_enumerate_unipolar_small():
    got = enumerate_minimal_obstructions("p4sparse", UNIPOLAR, 6)
    assert keyset(got) == keyset([two_p3(), catalog("k2,3")])
    got = enumerate_minimal_obstructions("p4extendible", UNIPOLAR, 6)
    assert keyset(got) == keyset([two_p3(), catalog("k2,3"), cycle_graph(5)])
    # sorted by (order, canonical key)
    assert [g.n for g in got] == sorted(g.n for g in got)


def test_enumeration_labels_only_its_output(searches):
    # the class is screened unlabeled and in build order; only the minimal
    # obstructions it returns are labeled, once each, for the sort
    # (the decomposition's extension table is built without labeling, and
    # this enumeration does not read it, so nothing is warmed first)
    spec = sk_polar(2, 1)
    searches.clear()
    got = enumerate_minimal_obstructions("p4sparse", spec, 8)
    assert got and len(searches) == len(got)
    assert [(g.n, g.canonical_key()) for g in got] == sorted((g.n, g.canonical_key()) for g in got)


def _witness_screen(g, spec):
    """The unpruned minimality screen: a witness search on every deletion,
    stopping at the first one without a partition."""
    if satisfies(g, spec):
        return False
    return all(find_polar_partition(g.delete_vertex(v), spec) is not None for v in range(g.n))


# sk:0,2 and sk:2,0 reach the empty-side branches of the union and join
# profile rules
ORACLE_SPECS = ("unipolar", "sk:1,1", "sk:2,1", "sk:1,2", "sk:inf,1", "sk:1,inf", "sk:2,2",
                "polar", "sk:0,2", "sk:2,0", "sk:3,1", "sk:1,3")


@pytest.mark.parametrize("class_id", ["cograph", "p4sparse", "p4extendible", "62"])
def test_pruned_enumeration_matches_the_unpruned_screen(class_id):
    # the whole closure, screened member by member with witness searches, is
    # the reference for the closure pruned by the property and criticality
    # (by profiles for the (s,k) specs)
    members = [g for g, _value in closure_members(class_id, 8)]
    for text in ORACLE_SPECS:
        spec = parse_spec(text)
        want = sorted((g for g in members if _witness_screen(g, spec)),
                      key=lambda g: (g.n, g.canonical_key()))
        got = enumerate_minimal_obstructions(class_id, spec, 8)
        assert [(graph6_encode(g), g.n) for g in got] == [
            (graph6_encode(g), g.n) for g in want], text


def property_pruned_obstructions(class_id, spec, n_max):
    """The enumeration with the property alone as ``_closure``'s ``keep``,
    and the obstructions read off the values as the engine reads them. The
    property is hereditary, so every minimal obstruction is reached as in
    the full closure, on every member that has the property."""

    def meets(profile):
        return polarity._meets(profile, spec)

    values, member = classes._closure(class_id, n_max, lambda value: meets(value[0]),
                                      spec.clique_side)
    found = [member(i) for i, (profile, deletions) in enumerate(values)
             if not meets(profile) and all(map(meets, deletions))]
    return sorted(found, key=lambda g: (g.n, g.canonical_key()))


BOUNDS = (0, 1, 2, 3, None)
# s = 9 and k = 12 are bounds no member of order <= 9 can exceed (cap 2)
GATE_SPECS = [sk_polar(s, k) for s in BOUNDS for k in BOUNDS] + [
    UNIPOLAR, sk_polar(9, 2), sk_polar(2, 12)]


@pytest.mark.parametrize("class_id", classes.CLASS_IDS)
def test_critical_enumeration_matches_the_property_pruned_one(class_id):
    # building only on critical members returns the same graphs, on the
    # same vertex labels, as building on every member with the property
    for spec in GATE_SPECS:
        want = property_pruned_obstructions(class_id, spec, 9)
        got = enumerate_minimal_obstructions(class_id, spec, 9)
        assert [(graph6_encode(g), g.n) for g in got] == [
            (graph6_encode(g), g.n) for g in want], spec.label()


@pytest.mark.parametrize("class_id", classes.CLASS_IDS)
def test_lists_are_complement_dual(class_id):
    # a graph is (s,k)-polar exactly when its complement is (k,s)-polar, and
    # each class is closed under complement, so the (s,k) list is the
    # complements of the (k,s) list
    lists = {(s, k): enumerate_minimal_obstructions(class_id, sk_polar(s, k), 9)
             for s in BOUNDS for k in BOUNDS}
    for (s, k), got in lists.items():
        assert sorted(g.canonical_key() for g in got) == sorted(
            g.complement().canonical_key() for g in lists[k, s]), (s, k)


def test_p4sparse_32_list_has_four_non_cographs():
    # the P4-sparse (s,1) and (2,2) lists hold cographs only; the paper's
    # pattern "every P4-sparse minimal obstruction is a cograph" stops at (3,2)
    got = enumerate_minimal_obstructions("p4sparse", sk_polar(3, 2), 10)
    assert len(got) == 83
    assert Counter(g.n for g in got) == {7: 3, 8: 22, 9: 43, 10: 15}
    assert sorted(graph6_encode(graphs_module.canonical_form(g))
                  for g in got if not classes.is_cograph(g)) == [
        "G?Chxw", "H?Kpz}~", "H?Kr|~~", "H@Tzv~~"]


@pytest.mark.parametrize("class_id", classes.CLASS_IDS)
def test_closure_keeping_everything_is_the_closure(class_id):
    plain = [graph6_encode(g) for g, _value in closure_members(class_id, 8)]
    kept = [graph6_encode(g) for g, _value in closure_members(class_id, 8, lambda value: True)]
    assert kept == plain


def test_enumeration_builds_on_members_with_the_property_and_finds_no_witness(monkeypatch):
    folded = []
    closure = classes._closure

    def counted(*args, **kwargs):
        values, member = closure(*args, **kwargs)
        folded.append(len(values) - 1)  # K0 is id 0
        return values, member

    built = []
    for name in ("disjoint_union", "join", "_attach_head"):
        build = getattr(classes, name)
        monkeypatch.setattr(classes, name, lambda *args, _build=build, **kwargs: (
            built.append(args) or _build(*args, **kwargs)))
    searches = []
    search = obstructions.find_polar_partition
    monkeypatch.setattr(obstructions, "_closure", counted)
    monkeypatch.setattr(obstructions, "find_polar_partition",
                        lambda *args: searches.append(args) or search(*args))
    got = enumerate_minimal_obstructions("p4sparse", sk_polar(2, 1), 8)
    assert len(got) == 9 and searches == []
    # the full closure has 994 members; building only on members with (2,1)
    # polarity leaves 859, and only on the critical ones among them 220
    assert folded == [220]
    # graphs are built only for the 9 obstructions and their parts, and the
    # rules come from the head operations' (base, attach) pairs, so no probe
    # graph is built; building every member folded would take 225
    assert len(built) == 20


def test_enumeration_below_order_one_is_empty():
    for n_max in (0, -1):
        for spec in (sk_polar(2, 1), UNIPOLAR):
            assert enumerate_minimal_obstructions("p4extendible", spec, n_max) == []


@pytest.mark.parametrize("class_id, spec, digest", [
    ("p4sparse", "sk:2,1", "bb34e737e5d3765d3d9556810760ff1783f03d168ccc7bf7a9371f63f06c5b3d"),
    ("p4sparse", "sk:inf,1", "41d8dc2f4f1906d27527b78470bbc07c230af7faea27fe6df30e305ca563cf55"),
    ("p4sparse", "polar", "f76d7cf573b37e3ebeb35e7ff323798c401de184cf77608e025002d01014fea3"),
    ("p4extendible", "sk:2,1", "dbfbd2bc4229b7a22b2b5f232e816192a4a5ab29f170158ded4de22ef6104cae"),
    ("p4extendible", "sk:inf,1", "1078fab8d170b24db0bed8cf1086cedb46c037fad3b7a59795d351e3155d6f0c"),
    ("p4extendible", "polar", "f76d7cf573b37e3ebeb35e7ff323798c401de184cf77608e025002d01014fea3"),
    ("p4sparse", "unipolar",
     "37768cc4a5940e1bbd81a7a383a8b26f72f30b22b324c171266431d0724bed4f"),
    ("p4extendible", "unipolar",
     "f1ac801d53db43137af019e5abe27f8e323bf48c105a036bd48e6e3b4d6a0793"),
])
def test_sk_enumeration_runs_no_solver_search(monkeypatch, class_id, spec, digest):
    # verdicts and deletion screens come from the folded profiles (the
    # unipolar profile for unipolarity); the lists at order 8 are pinned
    # (digests of the graph6 of the returned graphs)
    def search(*args):
        raise AssertionError("solver search on the (s,k) path")

    monkeypatch.setattr(polarity, "_first_a", search)
    got = enumerate_minimal_obstructions(class_id, parse_spec(spec), 8, workers=2)
    assert sha256_of("\n".join(graph6_encode(g) for g in got)) == digest


def test_construction_matches_catalog_at_s2():
    nine = construct_s1_obstructions("p4sparse", 2)
    assert keyset(nine) == keyset(catalog(f"e{i}") for i in range(1, 10))
    thirteen = construct_s1_obstructions("p4extendible", 2)
    assert keyset(thirteen) == keyset(catalog(f"e{i}") for i in range(1, 14))


def test_construction_s3_contains_2k4():
    graphs = construct_s1_obstructions("p4sparse", 3)
    two_k4 = disjoint_union(complete_graph(4), complete_graph(4))
    assert canonical_key(two_k4) in keyset(graphs)
    with pytest.raises(BadParameter):
        construct_s1_obstructions("p4sparse", 1)
    with pytest.raises(BadParameter):
        construct_s1_obstructions("cograph", 2)


@pytest.mark.parametrize("s, counts", [(3, (13, 19)), (4, (19, 28)), (5, (32, 47)),
                                       (6, (50, 68))])
def test_construction_equals_enumeration_to_the_obstruction_cap(s, counts):
    # the (s,1) lists past the paper's s = 2: the constructed members of
    # order <= OBSTRUCTION_CAP are the enumerated ones, in both classes (for
    # s = 6, 68 of the 74 constructed P4-extendible members)
    cap = obstructions.OBSTRUCTION_CAP
    for class_id, count in zip(("p4sparse", "p4extendible"), counts):
        built = {canonical_key(g) for g in construct_s1_obstructions(class_id, s) if g.n <= cap}
        found = keyset(enumerate_minimal_obstructions(class_id, sk_polar(s, 1), cap))
        assert built == found and len(found) == count, (class_id, s)


def test_s1_fixed_family():
    a, b, c = s1_fixed_family(2)
    assert is_isomorphic(a, catalog("e9"))
    assert is_isomorphic(b, catalog("e8"))
    assert is_isomorphic(c, catalog("e6"))
    with pytest.raises(BadParameter):
        s1_fixed_family(1)


def test_catalog_lists():
    assert keyset(catalog_list("unipolar-sparse")) == keyset([two_p3(), catalog("k2,3")])
    assert keyset(catalog_list("unipolar-extendible")) == keyset(
        [two_p3(), catalog("k2,3"), cycle_graph(5)]
    )
    assert keyset(catalog_list("comonopolar-sparse")) == keyset(
        catalog(n) for n in ("e1", "e2", "e3", "e7")
    )
    assert keyset(catalog_list("comonopolar-extendible")) == keyset(
        catalog(n) for n in ("e1", "e2", "e3", "e7", "e10", "e11", "e12")
    )
    assert keyset(catalog_list("monopolar-sparse")) == keyset(
        catalog(n).complement() for n in ("e1", "e2", "e3", "e7")
    )
    polar_sparse = catalog_list("polar-sparse")
    assert len(polar_sparse) == 8
    sample = disjoint_union(path_graph(3), catalog("e1").complement())
    assert canonical_key(sample) in keyset(polar_sparse)
    assert canonical_key(sample.complement()) in keyset(polar_sparse)
    assert len(catalog_list("polar-extendible")) == 14
    assert len(catalog_list("egraphs")) == 13
    assert keyset(catalog_list("s1fixed", 3)) == keyset(s1_fixed_family(3))
    with pytest.raises(BadParameter):
        catalog_list("s1fixed")
    with pytest.raises(UnknownId):
        catalog_list("mystery")


def test_catalog_members_are_minimal_in_their_class():
    from polaritylab.classes import is_p4_extendible, is_p4_sparse

    cases = [
        ("unipolar-sparse", UNIPOLAR, is_p4_sparse),
        ("unipolar-extendible", UNIPOLAR, is_p4_extendible),
        ("comonopolar-sparse", sk_polar(None, 1), is_p4_sparse),
        ("comonopolar-extendible", sk_polar(None, 1), is_p4_extendible),
        ("monopolar-sparse", MONOPOLAR, is_p4_sparse),
        ("monopolar-extendible", MONOPOLAR, is_p4_extendible),
        ("polar-sparse", POLAR, is_p4_sparse),
        ("polar-extendible", POLAR, is_p4_extendible),
    ]
    for list_id, spec, member in cases:
        for g in catalog_list(list_id):
            assert member(g), list_id
            assert is_minimal_obstruction(g, spec).is_minimal, list_id


def test_is_antichain():
    ok, pair = is_antichain([catalog(f"e{i}") for i in range(1, 14)])
    assert ok and pair is None
    ok, pair = is_antichain([path_graph(3), path_graph(4)])
    assert not ok and pair is not None
    small, big = pair
    assert small.n == 3 and big.n == 4
    assert is_antichain([]) == (True, None)
    c5 = cycle_graph(5)
    assert is_antichain([c5, c5]) == (False, (c5, c5))
    relabeled = c5.complement()  # the pentagram: C5 on other labels
    assert is_antichain([c5, relabeled]) == (False, (c5, relabeled))
    assert is_antichain([c5, catalog("house")]) == (True, None)
    assert is_antichain(catalog_list("polar-extendible"))[0]


def test_complement_transfer(graphs_to_6):
    from polaritylab.classes import is_p4_extendible, is_p4_sparse

    for g in graphs_to_6:
        if g.n > 5 or not is_p4_sparse(g):
            continue
        co = g.complement()
        for s in (1, 2):
            for k in (1, 2):
                fwd = is_minimal_obstruction(g, sk_polar(s, k)).is_minimal
                rev = is_minimal_obstruction(co, sk_polar(k, s)).is_minimal
                assert fwd == rev


def test_pool_unions_obstruct():
    # disjoint unions from the recursion pools land exactly at the composed k
    from polaritylab.obstructions import _pool

    k2 = complete_graph(2)
    c4 = cycle_graph(4)
    assert keyset(_pool("p4sparse", 0)) == keyset([k2])
    assert keyset(_pool("p4sparse", 1)) == keyset([c4])
    assert keyset(_pool("p4extendible", 1)) == keyset([c4, cycle_graph(5)])
    cases = [
        ([k2, k2], 1),
        ([k2, c4], 2),
        ([c4, c4], 3),
        ([k2, k2, k2], 2),
    ]
    for comps, k in cases:
        g = union_all(*comps)
        assert is_minimal_obstruction(g, sk_polar(1, k)).is_minimal
        assert not is_minimal_obstruction(g, sk_polar(1, k - 1)).is_minimal
        if g.n <= 9:
            assert satisfies_k_plus_one(g, k)


def satisfies_k_plus_one(g, k):
    return satisfies(g, sk_polar(1, k + 1))


def test_spiders_with_head_never_minimal_1k():
    heads = [complete_graph(1), path_graph(3), cycle_graph(4)]
    for head in heads:
        builds = [sigma_j(head, 2), sigma_sep("p4", head)]
        if head.n <= 3:
            builds.append(tau_j(head, 3))
            builds.append(sigma_sep("kite", head))
        for g in builds:
            for k in (1, 2, 3):
                assert not is_minimal_obstruction(g, sk_polar(1, k)).is_minimal


def test_obstruction_record():
    rec = obstruction_record(catalog("e9"), sk_polar(2, 1))
    assert rec["order"] == 6 and rec["minimal"] is True
    assert rec["property"] == "sk:2,1"
    assert graph6_decode(rec["graph6"]).canonical_key().hex() == rec["canonical"]
    assert set(rec["witnesses"]) == {str(v) for v in range(6)}


def test_verify_claim_small():
    assert verify_claim("sparse_cog", 6).passed
    assert verify_claim("bound", 6).passed
    report = verify_claim("disc_polar", 8)
    assert report.passed
    assert report.details["p4sparse"]["monopolar_members_filtered_out"] == []
    assert verify_claim("spider_not_obs", 6).passed
    with pytest.raises(UnknownClaim):
        verify_claim("weird", 5)


def sha256_of(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("class_id, digest", [
    ("p4sparse", "1a76a0e3ddba58b6f52a111e4d4d6455d05ec5771877917682386f0ba689e72f"),
    ("p4extendible", "d1ed7e717179d1a88af6b0c9d987b6d50ee8bb9f51657a39b94da2a34d7faa00"),
])
def test_s1_construction_output_is_pinned(class_id, digest):
    text = "\n".join(
        graph6_encode(g) for s in range(2, 7) for g in construct_s1_obstructions(class_id, s))
    assert sha256_of(text) == digest


def test_budget_walks_are_the_multisets_of_the_right_cost():
    from polaritylab.obstructions import _budget_walks

    items = [(1, "a"), (2, "b"), (2, "c"), (3, "d")]
    for budget in range(8):
        brute = [
            [g for _cost, g in pick]
            for t in range(budget + 1)
            for pick in combinations_with_replacement(items, t)
            if sum(cost for cost, _g in pick) == budget
        ]
        walks = list(_budget_walks(items, budget))
        assert sorted(walks) == sorted(brute) and len(walks) == len(brute)
        assert all(w == sorted(w) for w in walks)  # components in item order


@pytest.mark.parametrize("claim, digest", [
    ("sparse_cog", "31ff4453118e8c182292b9b6ecacb9f21e633837072f7094e5d795511ad3256d"),
    ("bound", "fa508b4999b50d47039970ba2dfca61ba490f429871266ba9765b5d2d483f485"),
    ("disc_polar", "7d0a974dcf74403f30de3bb7929b77097a985046802ba53194b6d104250f8220"),
    ("spider_not_obs", "d308f335646e24050e19fdef423598037635da0afb6eed449a043875a6f93538"),
])
def test_claim_reports_are_pinned(claim, digest):
    assert sha256_of(json.dumps(verify_claim(claim, 6).__dict__, sort_keys=True)) == digest


# Neither class has a minimal polar obstruction of order <= 7, so polar is
# pinned at order 8, where each class has two.
@pytest.mark.parametrize("class_id, spec, n_max, digest", [
    ("p4sparse", "unipolar", 7, "20ae4c4e9262351a2da11cd14312429a4cb4b28a4eca3009639e5b933c0383fa"),
    ("p4sparse", "sk:2,1", 7, "9134cd838bc1cad277268fed9a516ac01900847e71e037178ce5215bbaa078a1"),
    ("p4sparse", "sk:inf,1", 7, "098878c0f2dcdf8b689a0cf829366dd67222838f00332de1070f83041b24de60"),
    ("p4sparse", "polar", 8, "ace35cea3c68b417a079bfca61c0e3754c1865c1a91f1e9aec3270eabc707360"),
    ("p4extendible", "unipolar", 7, "d4842e4d5456ccc5c87caec5a2fca001645c277bd501fc70ed07a7f163be4e63"),
    ("p4extendible", "sk:2,1", 7, "7fdf258dce53e14f20879ebe7a41a68195a273dfc623b8e444ab2136daf43ed7"),
    ("p4extendible", "sk:inf,1", 7, "64b710a8ca007fa5fbd9133fd1af593e19d219526d357b10ddcc61b0f867cca1"),
    ("p4extendible", "polar", 8, "ace35cea3c68b417a079bfca61c0e3754c1865c1a91f1e9aec3270eabc707360"),
])
def test_deletion_witnesses_are_pinned(class_id, spec, n_max, digest):
    # the solver's deletion witnesses on each member as the closure built
    # it, laid out as a record with its printed graph6
    spec = parse_spec(spec)
    records = [dict(obstruction_record(g), property=spec.label(), minimal=True,
                    witnesses=is_minimal_obstruction(g, spec).witnesses_json())
               for g in enumerate_minimal_obstructions(class_id, spec, n_max)]
    assert sha256_of(json.dumps(records, sort_keys=True)) == digest


# The same lists as printed: each witness is found on the printed graph6.
PRINTED_RECORD_DIGESTS = {
    ("p4sparse", "unipolar", 7): "8a1e7aba81174cd52e2de875db931eb95b538d11f1476daea161d150766796e3",
    ("p4sparse", "sk:2,1", 7): "9bf5de32f6dea9f086360b2261ac087f0b213987045f31d388e84ca0d179a4d2",
    ("p4sparse", "sk:inf,1", 7): "f62a8cddcfc7317d5a870372330bce0fdfca2de2d3dd5b23673c43c7114db6ef",
    ("p4sparse", "polar", 8): "e33759a15da281f241191f7a1602bd72f7db1f4cee5e4cd3e1943c6ef89e4bcd",
    ("p4extendible", "unipolar", 7): "00cf1d065a98d3dde0521ea31299bbb5de7a5099dbff715ba403f1393e79262e",
    ("p4extendible", "sk:2,1", 7): "0568e5c1a5bf669d44a95053bdb091b9a0f8cf688d7f9a66990db3d448a143a6",
    ("p4extendible", "sk:inf,1", 7): "7c3ee79b474ad611c08abd62ac14cf68455fccf6bf30dbe896d88004c52619a1",
    ("p4extendible", "polar", 8): "e33759a15da281f241191f7a1602bd72f7db1f4cee5e4cd3e1943c6ef89e4bcd",
}


@pytest.mark.parametrize("case", list(PRINTED_RECORD_DIGESTS),
                         ids=lambda case: "-".join(map(str, case)))
def test_deletion_witnesses_fit_the_printed_graph(case):
    class_id, spec, n_max = case
    spec = parse_spec(spec)
    records = [obstruction_record(g, spec)
               for g in enumerate_minimal_obstructions(class_id, spec, n_max)]
    for rec in records:
        g = graph6_decode(rec["graph6"])
        assert set(rec["witnesses"]) == {str(v) for v in range(g.n)}
        for v, w in rec["witnesses"].items():
            witness = PolarPartition(tuple(w["a"]), tuple(w["b"]))
            assert witness.validate(g.delete_vertex(int(v)), spec), (rec["graph6"], v)
    assert sha256_of(json.dumps(records, sort_keys=True)) == PRINTED_RECORD_DIGESTS[case]


# The (2,2) lists reach order 9 = (s+1)(k+1), the order bound for P4-sparse
# obstructions; no member of either list is larger.
@pytest.mark.parametrize("class_id, per_order, digest", [
    ("p4sparse", {7: 10, 8: 32, 9: 8},
     "8d97f774541876004fb4be98e1c7e39a8d365fd692d8f728e8b0a316b6134372"),
    ("p4extendible", {7: 10, 8: 64, 9: 8},
     "43ed414cbe80b90ffcaa553d5a717c4162a4226a9dc636d1a5c9c2cda9aee401"),
])
def test_22_polar_lists_to_order_9_are_pinned(class_id, per_order, digest):
    got = enumerate_minimal_obstructions(class_id, sk_polar(2, 2), 9)
    assert Counter(g.n for g in got) == per_order
    assert sha256_of("\n".join(graph6_encode(g) for g in got)) == digest
