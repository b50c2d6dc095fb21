"""Minimal-obstruction engine: verification, enumeration, recursive
construction, fixed catalogs, and a claim-checking harness.

A graph is a minimal obstruction for a hereditary property when it lacks the
property but every one-vertex deletion has it (heredity makes single
deletions sufficient). The engine is property-agnostic: anything exposed as
a PolarSpec plugs in unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, lru_cache, partial
from typing import Iterable, Optional

from . import graphs as gr
from .classes import ClassId, _attach_head, _closure, _head_operations, is_cograph, member_key
from .classes import generate_class  # noqa: F401 -- perfbench/spans.py rebinds it here
from .errors import BadParameter, CapExceeded, UnknownClaim, UnknownId
from .graphs import (
    Graph,
    catalog,
    complete_graph,
    contains_induced,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_graphs,
    graph6_encode,
    join,
    path_graph,
    union_all,
)
from .polarity import (
    POLAR,
    PolarPartition,
    PolarSpec,
    _capped,
    _caps,
    _critical,
    _meets,
    find_polar_partition,
    satisfies,
    sk_polar,
)

OBSTRUCTION_CAP = 15  # guard for the critical closure; see the README's cap table


@dataclass(frozen=True)
class ObstructionReport:
    """Minimality verdict plus per-vertex deletion witnesses.

    Witness partitions live in the deleted graph's own index space (vertex
    v removed, remaining vertices renumbered ascending).
    """

    graph: Graph
    spec: PolarSpec
    is_obstruction: bool
    is_minimal: bool
    deletion_witnesses: dict[int, PolarPartition] = field(default_factory=dict)

    def witnesses_json(self) -> dict:
        """Deletion witnesses as JSON: deleted vertex -> {"a": A, "b": B}."""
        return {
            str(v): {"a": list(w.a), "b": list(w.b)}
            for v, w in sorted(self.deletion_witnesses.items())
        }


def is_minimal_obstruction(g: Graph, spec: PolarSpec, witnesses: bool = True) -> ObstructionReport:
    """Check obstruction-ness and minimality, collecting deletion witnesses
    unless ``witnesses`` is False; the only code that deletes a vertex to
    decide minimality. One loop decides it in both modes: a first-hit
    verdict (``satisfies``) on ``g``, then one on the first vertex of each
    twin class (``graphs._twin_before``), stopping at the first deletion
    that lacks the property: swapping two twins is an automorphism, so their
    deletions are isomorphic. Only a minimal obstruction, and only with
    witnesses, then takes one bounded pass (``find_polar_partition``) per
    deletion for its witness."""
    if satisfies(g, spec):
        return ObstructionReport(g, spec, False, False)
    later = gr._twin_before(g.adj)
    if not all(satisfies(g.delete_vertex(v), spec) for v in range(g.n) if not later[v]):
        return ObstructionReport(g, spec, True, False)
    if not witnesses:
        return ObstructionReport(g, spec, True, True)
    found = {v: find_polar_partition(g.delete_vertex(v), spec) for v in range(g.n)}
    return ObstructionReport(g, spec, True, True, found)


def enumerate_minimal_obstructions(
    class_id: ClassId, spec: PolarSpec, n_max: int, workers: int = 1
) -> list[Graph]:
    """All class members of order <= n_max that are minimal obstructions,
    sorted by (order, canonical key).

    Nothing is built on a member that lacks the property or is not critical
    (``_closure``'s ``keep``). A member is critical when every one-vertex
    deletion changes its profile capped to the spec (``polarity._caps``),
    and a minimal obstruction is, since ``_meets`` reads only the capped
    profile and every deletion meets the spec where the member does not.
    Every route part of a critical member is critical (``_closure``), and
    every proper part of a minimal obstruction has the property, so each
    minimal obstruction is still reached as in the full closure, on the same
    recipe.

    All three come from the value ``_closure`` folds for each member, with no
    solver search: ``keep`` and the verdict from its profile (P for an (s,k)
    spec, the unipolar profile Q for a clique side), criticality and the
    minimality screen from its deletions' profiles. The obstructions are
    read off the values after the fold, each id whose profile fails the spec
    and whose deletions' profiles all meet it, and only they are built
    (``member``) and keyed. ``workers`` is kept for callers that pass it
    and is not read: there is no pool to size. Profiles and values are few
    and recur, so the verdict, the capped profile and ``keep`` are each
    computed once per call."""
    if n_max > OBSTRUCTION_CAP:
        raise CapExceeded(f"n_max={n_max} exceeds obstruction cap {OBSTRUCTION_CAP}")
    meets = cache(partial(_meets, spec=spec))
    capped = cache(partial(_capped, caps=_caps(spec, n_max)))
    keep = cache(lambda value: meets(value[0]) and _critical(value, capped))
    values, member = _closure(class_id, n_max, keep, spec.clique_side)
    found = [member(i) for i, (profile, deletions) in enumerate(values)
             if not meets(profile) and all(map(meets, deletions))]
    return sorted(found, key=lambda g: (g.n, g.canonical_key()))


# ---------------------------------------------------------------------------
# fixed catalogs


def _essentials(class_id: ClassId) -> tuple[Graph, ...]:
    names = ("e1", "e2", "e3", "e7")
    if class_id == "p4extendible":
        names += ("e10", "e11", "e12")
    return tuple(catalog(n) for n in names)


def s1_fixed_family(s: int) -> tuple[Graph, Graph, Graph]:
    """The three disconnected minimal (s,1)-polar obstructions that exist
    only at parameter s: 2K_{s+1}, K2 + (K_s join 2K1), K1 + (K_{s-1} join C4)."""
    if s < 2:
        raise BadParameter(f"s={s} < 2")
    return (
        disjoint_union(complete_graph(s + 1), complete_graph(s + 1)),
        disjoint_union(complete_graph(2), join(complete_graph(s), empty_graph(2))),
        disjoint_union(complete_graph(1), join(complete_graph(s - 1), cycle_graph(4))),
    )


@lru_cache(maxsize=None)
def _pool(class_id: ClassId, k: int) -> tuple[Graph, ...]:
    """Connected minimal (1,k)-polar obstructions that are (1,k+1)-polar.

    These are the complements of the disconnected minimal (k,1)-polar
    obstructions that are ((k+1),1)-polar; the seven essentials drop out
    because they obstruct every (s,1). C5 joins the P4-extendible pool at
    k=1 as the only extension-graph obstruction.
    """
    if k == 0:
        return (complete_graph(2),)
    if k == 1:
        pool = [cycle_graph(4)]
        if class_id == "p4extendible":
            pool.append(cycle_graph(5))
        return tuple(pool)
    return tuple(g.complement() for g in s1_fixed_family(k))


def _budget_walks(items, budget: int, start: int = 0):
    """Lists of ``items[start:]`` entries, repeats allowed and in item order,
    whose costs sum to ``budget``; each item is (cost, graph)."""
    if budget == 0:
        yield []
        return
    for i in range(start, len(items)):
        cost, g = items[i]
        if cost <= budget:
            for rest in _budget_walks(items, budget - cost, i):
                yield [g] + rest


def construct_s1_obstructions(class_id: ClassId, s: int) -> list[Graph]:
    """Every minimal (s,1)-polar obstruction in the class, built recursively.

    Union of the class's essential graphs, the three parametric disconnected
    families at s, and complements of disjoint unions G_1 + ... + G_t where
    each G_i is drawn from _pool(class_id, s_i) and s = t - 1 + sum(s_i):
    a component costs s_i + 1 and the costs add up to s + 1. Each is a
    class member, so it is keyed with the automorphisms its decomposition
    tree names (``member_key``).
    """
    if class_id not in ("p4sparse", "p4extendible"):
        raise BadParameter(f"no (s,1) construction for class {class_id!r}")
    if s < 2:
        raise BadParameter(f"s={s} < 2")
    found: dict[bytes, Graph] = {}

    def add(g: Graph) -> None:
        found.setdefault(member_key(g, class_id), g)

    for g in _essentials(class_id):
        add(g)
    for g in s1_fixed_family(s):
        add(g)
    items = [(v + 1, g) for v in range(s) for g in _pool(class_id, v)]
    for components in _budget_walks(items, s + 1):
        add(union_all(*components).complement())
    return [found[key] for key in sorted(found)]  # a key leads with the order


def catalog_list(list_id: str, s: Optional[int] = None) -> list[Graph]:
    """A published finite obstruction list by id.

    Ids: unipolar-sparse, unipolar-extendible, comonopolar-sparse,
    comonopolar-extendible, monopolar-sparse, monopolar-extendible,
    s1fixed (requires s), polar-sparse, polar-extendible, egraphs.
    """
    key = list_id.strip().lower().replace("-", "").replace("_", "")
    if key == "unipolarsparse":
        return [catalog("k2,3"), union_all(path_graph(3), path_graph(3))]
    if key == "unipolarextendible":
        return [cycle_graph(5), catalog("k2,3"), union_all(path_graph(3), path_graph(3))]
    if key == "comonopolarsparse":
        return list(_essentials("p4sparse"))
    if key == "comonopolarextendible":
        return list(_essentials("p4extendible"))
    if key == "monopolarsparse":
        return [g.complement() for g in _essentials("p4sparse")]
    if key == "monopolarextendible":
        return [g.complement() for g in _essentials("p4extendible")]
    if key == "s1fixed":
        if s is None:
            raise BadParameter("s1fixed needs the parameter s")
        return list(s1_fixed_family(s))
    if key in ("polarsparse", "polarextendible"):
        cls: ClassId = "p4sparse" if key == "polarsparse" else "p4extendible"
        p3 = path_graph(3)
        out = []
        for e in _essentials(cls):
            g = disjoint_union(p3, e.complement())
            out.extend((g, g.complement()))
        return sorted(out, key=lambda g: (g.n, g.canonical_key()))
    if key == "egraphs":
        return [catalog(f"e{i}") for i in range(1, 14)]
    raise UnknownId(f"unknown obstruction list {list_id!r}")


def is_antichain(graphs: Iterable[Graph]) -> tuple[bool, Optional[tuple[Graph, Graph]]]:
    """True when no member induces into another; otherwise an offending pair."""
    items = list(graphs)
    for i, a in enumerate(items):
        for b in items[i + 1:]:
            small, big = (a, b) if a.n <= b.n else (b, a)
            if small.n == big.n:  # equal orders embed only when isomorphic
                embeds = small.canonical_key() == big.canonical_key()
            else:
                embeds = contains_induced(big, small) is not None
            if embeds:
                return False, (small, big)
    return True, None


# ---------------------------------------------------------------------------
# serialization


def obstruction_record(g: Graph, spec: Optional[PolarSpec] = None) -> dict:
    """JSON-ready sidecar entry for one obstruction-list member.

    The graph6 field uses the canonical labeling, so isomorphic results are
    byte-identical however they were produced (golden-file stability). The
    witnesses are found on that printed graph, so their vertex ids are the
    printed graph's (``is_minimal_obstruction`` with witnesses).
    """
    printed = gr.canonical_form(g)
    rec = {
        "graph6": graph6_encode(printed),
        "canonical": g.canonical_key().hex(),
        "order": g.n,
    }
    if spec is not None:
        rec["property"] = spec.label()
        report = is_minimal_obstruction(printed, spec)
        rec["minimal"] = report.is_minimal
        rec["witnesses"] = report.witnesses_json()
    return rec


# ---------------------------------------------------------------------------
# claim harness


@dataclass
class ClaimReport:
    claim: str
    n_max: int
    passed: bool
    counterexamples: list[str]
    details: dict


def verify_claim(claim_id: str, n_max: int) -> ClaimReport:
    """Run one decidable theorem instance at scale n_max.

    Claims: sparse_cog (P4-sparse (s,1) obstructions are cographs, s in
    {2,3}); bound ((s+1)(k+1) order bound for P4-sparse (s,k) obstructions,
    s,k in {1,2}); disc_polar (disconnected minimal polar obstructions are
    P3 plus a monopolar obstruction that is not a polar one); spider_not_obs
    (spiders with nonempty head obstruct no (1,k), and class-restricted
    (k,1) obstructions are never connected with connected complement except
    C5).
    """
    try:
        run = _CLAIMS[claim_id.strip().lower()]
    except KeyError:
        raise UnknownClaim(f"unknown claim {claim_id!r}") from None
    return run(n_max)


def _sparse_count_claim(claim: str, specs: dict[str, PolarSpec], is_bad):
    """A claim that every minimal obstruction among P4-sparse graphs, for
    each labeled spec, passes a per-graph test; ``is_bad(g, spec)`` flags
    a counterexample."""

    def run(n_max: int) -> ClaimReport:
        bad = []
        counts = {}
        for label, spec in specs.items():
            obs = enumerate_minimal_obstructions("p4sparse", spec, n_max)
            counts[label] = len(obs)
            bad.extend(g for g in obs if is_bad(g, spec))
        return ClaimReport(
            claim, n_max, not bad, [graph6_encode(g) for g in bad],
            {"obstructions": counts},
        )

    return run


def _claim_disc_polar(n_max: int) -> ClaimReport:
    details = {}
    bad = []
    p3 = path_graph(3)
    for class_id in ("p4sparse", "p4extendible"):
        monopolar_min = [e.complement() for e in _essentials(class_id)]
        also_polar_min = [
            graph6_encode(h)
            for h in monopolar_min
            if is_minimal_obstruction(h, POLAR, witnesses=False).is_minimal
        ]
        expected = {
            disjoint_union(p3, h).canonical_key()
            for h in monopolar_min
            if h.n + 3 <= n_max
            and graph6_encode(h) not in also_polar_min
        }
        got = {
            g.canonical_key()
            for g in enumerate_minimal_obstructions(class_id, POLAR, n_max)
            if not g.is_connected()
        }
        details[class_id] = {
            "disconnected_found": len(got),
            "expected": len(expected),
            "monopolar_members_filtered_out": also_polar_min,
        }
        if got != expected:
            bad.append(class_id)
    return ClaimReport("disc_polar", n_max, not bad, bad, details)


def _claim_spider_not_obs(n_max: int) -> ClaimReport:
    bad = []
    checked = 0
    specs = [sk_polar(1, k) for k in (1, 2, 3)]
    ops = _head_operations("p4sparse", n_max) + _head_operations("p4extendible", n_max)
    for head in enumerate_graphs(max(n_max - 4, 0)):
        for g in [_attach_head(base, attach, head) for order, pairs in ops
                  if order + head.n <= n_max for base, attach in pairs]:
            for spec in specs:
                checked += 1
                if is_minimal_obstruction(g, spec, witnesses=False).is_minimal:
                    bad.append(graph6_encode(g))
    connected_bad = []
    c5_key = cycle_graph(5).canonical_key()
    for class_id in ("p4sparse", "p4extendible"):
        for k in (1, 2, 3):
            for g in enumerate_minimal_obstructions(class_id, sk_polar(k, 1), n_max):
                if (
                    g.is_connected()
                    and g.complement().is_connected()
                    and g.canonical_key() != c5_key
                ):
                    connected_bad.append(graph6_encode(g))
    bad.extend(connected_bad)
    return ClaimReport(
        "spider_not_obs", n_max, not bad, bad,
        {"spiders_checked": checked, "connected_counterexamples": connected_bad},
    )


_CLAIMS = {
    "sparse_cog": _sparse_count_claim(
        "sparse_cog", {f"s={s}": sk_polar(s, 1) for s in (2, 3)},
        lambda g, spec: not is_cograph(g)),
    "bound": _sparse_count_claim(
        "bound", {f"({s},{k})": sk_polar(s, k) for s in (1, 2) for k in (1, 2)},
        lambda g, spec: g.n > (spec.s + 1) * (spec.k + 1)),
    "disc_polar": _claim_disc_polar,
    "spider_not_obs": _claim_spider_not_obs,
}
