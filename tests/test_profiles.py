"""Polarity profiles folded through the class closure, against a brute force
over every split and against the solver.

The profile of a graph is the set of Pareto-minimal (a, b) pairs over its
partitions, a the parts of A and b the cliques of B; the unipolar profile is
the same with A a cluster too, a counting its cliques. A member's value adds
the profiles of its one-vertex deletions. The brute force here counts
cliques by closed neighborhoods, so it shares no code with the solver or
with the fold.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polaritylab import classes, polarity
from polaritylab.classes import CLASS_IDS, _ext_graphs
from polaritylab.graphs import _attach_head, _co_rows, complete_graph, disjoint_union, join
from polaritylab.obstructions import OBSTRUCTION_CAP
from polaritylab.polarity import UNIPOLAR, satisfies, sk_polar
from test_classes import closure_members

BOUNDS = (0, 1, 2, 3, None)
SPECS = [sk_polar(s, k) for s in BOUNDS for k in BOUNDS]


def _cliques(rows, mask):
    """Cliques of G[mask] when it is a disjoint union of cliques, else None:
    it is one exactly when the distinct closed neighborhoods partition it."""
    hoods = set()
    rest = mask
    while rest:
        v = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        hoods.add(rows[v] & mask | 1 << v)
    return len(hoods) if sum(h.bit_count() for h in hoods) == mask.bit_count() else None


@lru_cache(maxsize=None)
def brute_profile(adj, cluster=False):
    """Pareto-minimal (parts of A, cliques of B) over all 2^n splits of the
    graph with these rows (the four closures share many members); with
    ``cluster``, (cliques of A, cliques of B) over the splits into two
    clusters."""
    full = (1 << len(adj)) - 1
    co = [full & ~row & ~(1 << v) for v, row in enumerate(adj)]
    pairs = set()
    for a in range(full + 1):
        # A is complete multipartite (its complement a cluster) or a cluster
        parts = _cliques(adj if cluster else co, a)
        cliques = _cliques(adj, full ^ a)
        if parts is not None and cliques is not None:
            pairs.add((parts, cliques))
    return tuple(p for p in sorted(pairs)
                 if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in pairs))


def deletions_satisfy(g, spec):
    """Whether every one-vertex deletion of ``g`` has the property."""
    return all(satisfies(g.delete_vertex(v), spec) for v in range(g.n))


def check_closure_values(class_id, cluster):
    for g, (profile, deletions) in closure_members(class_id, 8, cluster=cluster):
        assert profile == brute_profile(g.adj, cluster), g
        assert deletions == tuple(sorted({brute_profile(g.delete_vertex(v).adj, cluster)
                                          for v in range(g.n)})), g


@pytest.mark.parametrize("class_id", CLASS_IDS)
def test_closure_values_match_the_brute_force(class_id):
    check_closure_values(class_id, False)


@pytest.mark.parametrize("class_id", CLASS_IDS)
def test_unipolar_closure_values_match_the_brute_force(class_id):
    check_closure_values(class_id, True)


@pytest.mark.parametrize("class_id", CLASS_IDS)
def test_unipolar_verdicts_match_the_solver(class_id):
    for g, (profile, deletions) in closure_members(class_id, 8, cluster=True):
        assert polarity._meets(profile, UNIPOLAR) == satisfies(g, UNIPOLAR), g
        assert all(polarity._meets(p, UNIPOLAR) for p in deletions) == deletions_satisfy(
            g, UNIPOLAR), g


def test_profile_verdicts_match_the_solver():
    # P4-extendible holds the other three classes' members, built by the same
    # rules; the values were checked against the brute force above
    for g, (profile, deletions) in closure_members("p4extendible", 8):
        for spec in SPECS:
            assert polarity._meets(profile, spec) == satisfies(g, spec), (g, spec)


SIDES = (False, True)  # side A multipartite (P), or a cluster (Q)


def union_value(x, y, cluster=False):
    """The value of a union: the module sees none of a multipartite side
    and all of a cluster side, which is read on the complement rows."""
    return polarity._combine_value(x, y, cluster, True)


def join_value(x, y, cluster=False):
    """The value of a join: the complement of a union of the complements."""
    return polarity._combine_value(x, y, not cluster, False)


@st.composite
def built_members(draw, max_n=11, cut=lambda value: value):
    """A member built by random unions, joins and head operations, with its
    values, P's and Q's, folded by the same rules as the closure's; ``cut``
    is applied to every value the rules return."""
    bases = [complete_graph(1), *(_ext_graphs()[k] for k in ("c5", "p5", "house"))]
    # sigma_2, sigma_3, tau_3 and the five separable extension operations
    heads = [pair for op_class, n in (("p4sparse", 7), ("p4extendible", 5))
             for _order, pairs in classes._head_operations(op_class, n) for pair in pairs]

    def member(budget):
        op = draw(st.sampled_from(["base", "union", "join", "head"] if budget > 1 else ["base"]))
        if op == "base":
            g = draw(st.sampled_from([b for b in bases if b.n <= budget]))
            return g, [cut(polarity._module_rule(g, 0, c)(polarity.K0_VALUE)) for c in SIDES]
        if op == "head":
            base, attach = draw(st.sampled_from(heads))
            if base.n > budget:
                return member(budget)
            if base.n == budget or not draw(st.booleans()):
                h, hv = complete_graph(0), [polarity.K0_VALUE] * len(SIDES)
            else:
                h, hv = member(budget - base.n)
            return _attach_head(base, attach, h), [
                cut(polarity._module_rule(base, attach, c)(v)) for c, v in zip(SIDES, hv)]
        x, xv = member(budget - 1)
        y, yv = member(budget - x.n)
        build, rule = (disjoint_union, union_value) if op == "union" else (join, join_value)
        return build(x, y), [cut(rule(u, v, c)) for c, u, v in zip(SIDES, xv, yv)]

    return member(draw(st.integers(1, max_n)))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(built_members(), st.sampled_from(SPECS + [sk_polar(4, 1), sk_polar(1, 4), UNIPOLAR]))
def test_folded_verdicts_match_the_solver(member, spec):
    g, values = member
    profile, deletions = values[spec.clique_side]
    assert polarity._meets(profile, spec) == satisfies(g, spec)
    assert all(polarity._meets(p, spec) for p in deletions) == deletions_satisfy(g, spec)


CAPS = st.tuples(st.integers(2, 5), st.integers(2, 5))


def capped_value(value, caps):
    profile, deletions = value
    return polarity._capped(profile, caps), tuple(sorted({polarity._capped(d, caps)
                                                          for d in deletions}))


@st.composite
def capped_members(draw):
    """Caps of at least 2, and a member whose values are folded from capped
    values and capped after every rule."""
    caps = draw(CAPS)
    return caps, draw(built_members(cut=lambda value: capped_value(value, caps)))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(capped_members())
def test_capped_rules_give_the_capped_profiles(capped_member):
    # every cap is at least 2, so folding capped values gives the capped
    # value: a member's capped profile is a function of its parts'
    caps, (g, values) = capped_member
    for cluster, value in zip(SIDES, values):
        assert value == capped_value((brute_profile(g.adj, cluster), [
            brute_profile(g.delete_vertex(v).adj, cluster) for v in range(g.n)]), caps), cluster


@settings(derandomize=True, deadline=None, max_examples=200)
@given(built_members(), CAPS)
def test_critical_read_from_the_value_is_critical(member, caps):
    # a member is critical when every one-vertex deletion changes its
    # capped profile
    g, values = member
    for cluster, value in zip(SIDES, values):
        own = polarity._capped(brute_profile(g.adj, cluster), caps)
        want = all(polarity._capped(brute_profile(g.delete_vertex(v).adj, cluster), caps) != own
                   for v in range(g.n))
        assert polarity._critical(value, lambda p: polarity._capped(p, caps)) == want, cluster


@lru_cache(maxsize=None)
def probe_table(probe, cluster):
    """``polarity._module_table`` read off a probe, as the fold once did: the
    base, then one head vertex that sees exactly the attach mask."""
    head = probe.n - 1
    rows = probe.delete_vertex(head).adj
    attach = probe.adj[head]
    full = (1 << head) - 1
    co = _co_rows(rows, full)
    a_rows, a_attach = (co, full ^ attach) if cluster else (rows, attach)
    table = set()
    for amask in range(full + 1):
        a_side = polarity._module_side(a_rows, amask, a_attach)
        b_side = polarity._module_side(co, full ^ amask, full ^ attach)
        if a_side is not None and b_side is not None:
            table.add(a_side + b_side)
    return tuple(sorted(table))


def probe_rule(probe, cluster):
    """``polarity._module_rule`` read off a probe: a base vertex's deletion
    is the probe without it."""
    table = probe_table(probe, cluster)
    cut = [probe_table(probe.delete_vertex(u), cluster) for u in range(probe.n - 1)]
    return lambda head: polarity._attached_value(table, cut, head)


def check_pair_rule(base, attach, cluster, heads):
    """The tables and the rule of a (base, attach) pair equal those read off
    its probe, the base with a K1 head, on every head value in ``heads``."""
    probe = _attach_head(base, attach, complete_graph(1))
    full = (1 << base.n) - 1
    masks = [full] + [full ^ (1 << u) for u in range(base.n)]
    want = [probe] + [probe.delete_vertex(u) for u in range(base.n)]
    assert [polarity._module_table(base, attach, cluster, m) for m in masks] == [
        probe_table(g, cluster) for g in want]
    rule, want_rule = polarity._module_rule(base, attach, cluster), probe_rule(probe, cluster)
    assert [rule(v) for v in heads] == [want_rule(v) for v in heads]


@pytest.mark.parametrize("class_id", ["p4sparse", "p4extendible", "62"])
def test_pair_rules_equal_the_probe_rules(class_id):
    # every head operation up to the obstruction cap (spiders to j = 7),
    # on the values of the class's members to order 6, P's and Q's
    ops = classes._head_operations(class_id, OBSTRUCTION_CAP)
    pairs = [pair for _order, pairs in ops for pair in pairs]
    assert len(pairs) == (11 if class_id == "p4sparse" else 5)
    for cluster in SIDES:
        heads = [polarity.K0_VALUE] + [v for _g, v in closure_members(class_id, 6, cluster=cluster)]
        for base, attach in pairs:
            check_pair_rule(base, attach, cluster, heads)


def test_fixed_base_rules_equal_the_probe_rules():
    # K1, C5, P5 and the house are their own rules with attach mask 0,
    # applied to K0's value
    for g in [complete_graph(1), *(_ext_graphs()[k] for k in ("c5", "p5", "house"))]:
        for cluster in SIDES:
            check_pair_rule(g, 0, cluster, [polarity.K0_VALUE])


def test_caps():
    assert polarity._caps(sk_polar(3, 2), 10) == (4, 3)
    assert polarity._caps(sk_polar(0, 1), 10) == (2, 2)
    # a clique side is bound 1; unbounded sides and bounds of n_max or more
    # cap at 2
    assert polarity._caps(UNIPOLAR, 10) == (2, 2)
    assert polarity._caps(sk_polar(None, 3), 10) == (2, 4)
    assert polarity._caps(sk_polar(14, 14), 14) == (2, 2)
    assert polarity._caps(sk_polar(14, 14), 15) == (15, 15)


def test_small_profiles():
    k0 = polarity.K0_VALUE
    k1 = polarity._module_rule(complete_graph(1), 0)(k0)
    assert k1 == (((0, 1), (1, 0)), (((0, 0),),))
    assert union_value(k0, k1) == k1
    # 2K1 is one part or two cliques, K2 two parts or one clique
    assert union_value(k1, k1)[0] == ((0, 2), (1, 0))
    assert join_value(k1, k1)[0] == ((0, 1), (2, 0))
    assert polarity._pareto([(2, 0), (1, 3), (1, 1), (0, 4), (3, 0)]) == ((0, 4), (1, 1), (2, 0))


def test_small_unipolar_profiles():
    k0 = polarity.K0_VALUE
    k1 = polarity._module_rule(complete_graph(1), 0, True)(k0)
    assert k1 == (((0, 1), (1, 0)), (((0, 0),),))
    # 2K1 is two cliques on either side, or one on each; K2 one clique
    assert union_value(k1, k1, True)[0] == ((0, 2), (1, 1), (2, 0))
    assert join_value(k1, k1, True)[0] == ((0, 1), (1, 0))
    # 2P3 and K2,3 are not unipolar: every split leaves two cliques in A
    p3 = join_value(union_value(k1, k1, True), k1, True)
    two_p3 = union_value(p3, p3, True)
    assert min(a for a, b in two_p3[0]) == 2
    assert all(min(a for a, b in d) <= 1 for d in two_p3[1])
