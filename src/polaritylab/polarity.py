"""Exact deciders and witness constructors for polar-type partitions.

An (s,k)-polar partition splits the vertices into a side A inducing a
complete multipartite graph with at most s parts and a side B inducing at
most k disjoint cliques. Unbounded s or k is written None (the CLI token is
"inf") and is replaced by the graph's order at evaluation time. A unipolar
partition instead requires A to be a clique: a cluster side with at most
one clique. So every side is complete multipartite with a bounded number
of parts on the rows it is read on, its complement rows for a cluster
side (``_sides``).

The solver is an exact depth-first search over the vertices in index
order, "into A" before "into B". Both sides are hereditary, so a prefix of
A or of B that fails cuts every extension of it. A verdict (``satisfies``)
stops at the first partition reached, and its walk carries each side's mask
and part count: a vertex enters a side when it misses none of it (a new
part, within the bound) or exactly one whole part, read off the row of the
first vertex it misses, so no step rescans the side (``_first_hit``). A
witness is the first valid split in increasing |A| and then lexicographic A
order, found by a pass bounded on |A| that tests each side prefix with
``_is_cm_mask`` (``_first_a``), so it is deterministic.

Members of the cograph superclasses need no search for their verdicts: a
polarity profile, folded over the operations that build a member, answers
every (s,k) spec at once, a second one with both sides clusters answers
unipolarity, and the profiles of its one-vertex deletions answer
minimality (see "polarity profiles" below).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Optional

from .errors import BadParameter, CapExceeded
from .graphs import Graph, _bits_to_tuple, _co_rows, _mask_of

SEARCH_CAP = 20  # exponential A-side search guard


@dataclass(frozen=True)
class PolarSpec:
    """Partition requirement: s parts on the multipartite side, k cliques on
    the cluster side; ``clique_side`` switches side A to a single clique
    (unipolarity), in which case s is ignored: A is then read as a cluster
    side with at most one clique."""

    s: Optional[int]
    k: Optional[int]
    clique_side: bool = False

    def label(self) -> str:
        if self.clique_side:
            return "unipolar"
        s = "inf" if self.s is None else str(self.s)
        k = "inf" if self.k is None else str(self.k)
        return f"sk:{s},{k}"


def sk_polar(s: Optional[int], k: Optional[int]) -> PolarSpec:
    if (s is not None and s < 0) or (k is not None and k < 0):
        raise BadParameter(f"negative polarity parameters ({s},{k})")
    return PolarSpec(s, k)


UNIPOLAR = PolarSpec(None, None, clique_side=True)
MONOPOLAR = sk_polar(1, None)
POLAR = sk_polar(None, None)
SPLIT = sk_polar(1, 1)

_NAMED_SPECS = {
    "unipolar": UNIPOLAR,
    "monopolar": MONOPOLAR,
    "polar": POLAR,
    "split": SPLIT,
}


_SK_SPEC = re.compile(r"sk:([0-9]+|inf),([0-9]+|inf)")


def parse_spec(text: str) -> PolarSpec:
    """Parse "sk:S,K" (S, K in ASCII digits or "inf"), or a named spec kind."""
    key = text.strip().lower()
    if key in _NAMED_SPECS:
        return _NAMED_SPECS[key]
    m = _SK_SPEC.fullmatch(key)
    if m:
        try:
            return sk_polar(*(None if x == "inf" else int(x) for x in m.groups()))
        except ValueError:  # more digits than int() converts
            pass
    raise BadParameter(f"bad spec {text!r}")


@dataclass(frozen=True)
class PolarPartition:
    """Witness split (A, B); A is the multipartite (or clique) side."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    def validate(self, g: Graph, spec: PolarSpec) -> bool:
        amask, bmask = _mask_of(self.a), _mask_of(self.b)
        if amask & bmask or amask | bmask != (1 << g.n) - 1:
            return False
        (a_rows, smax), (b_rows, kmax) = _sides(g, spec)
        return _is_cm_mask(a_rows, amask, smax) and _is_cm_mask(b_rows, bmask, kmax)


def _eff(bound: Optional[int], n: int) -> int:
    return n if bound is None else bound


def _a_bound(spec: PolarSpec) -> Optional[int]:
    """Part bound of side A: one clique for a clique side, else s."""
    return 1 if spec.clique_side else spec.s


def _sides(g: Graph, spec: PolarSpec) -> tuple[tuple[list, int], tuple[list, int]]:
    """(rows, part bound) of sides A and B for ``_is_cm_mask``; a cluster
    side, B or a clique side A, is read on the complement rows."""
    co = _co_rows(g.adj, (1 << g.n) - 1)
    a_rows = co if spec.clique_side else g.adj
    return (a_rows, _eff(_a_bound(spec), g.n)), (co, _eff(spec.k, g.n))


# ---------------------------------------------------------------------------
# mask predicates


def _is_cm_mask(adj, mask: int, smax: int) -> bool:
    """G[mask] is complete multipartite with at most ``smax`` parts.

    On complement rows (``_co_rows``) the same test reads "G[mask] is at most
    ``smax`` disjoint cliques": a graph is a cluster exactly when its
    complement is complete multipartite, with cliques becoming parts. So this
    one predicate checks both sides of an (s,k)-polar partition.
    """
    parts = 0
    rest = mask
    while rest:
        v = (rest & -rest).bit_length() - 1
        part = mask & ~adj[v]  # non-neighbors within the mask, v included
        sub = part
        while sub:
            u = (sub & -sub).bit_length() - 1
            sub &= sub - 1
            if mask & ~adj[u] != part:
                return False
        parts += 1
        if parts > smax:
            return False
        rest &= ~part
    return True


# ---------------------------------------------------------------------------
# public predicates


def is_cluster(g: Graph, k: Optional[int] = None) -> bool:
    """At most k disjoint cliques (P3-free with at most k components)."""
    full = (1 << g.n) - 1
    return _is_cm_mask(_co_rows(g.adj, full), full, _eff(k, g.n))


def is_complete_multipartite(g: Graph, s: Optional[int] = None) -> bool:
    """Complete multipartite with at most s parts (complement is a cluster)."""
    return _is_cm_mask(g.adj, (1 << g.n) - 1, _eff(s, g.n))


def is_split(g: Graph) -> bool:
    """Split graphs are the {2K2, C4, C5}-free graphs; the degrees alone
    decide it (Hammer and Simeone): with d_0 >= d_1 >= ... and
    m = #{i : d_i >= i}, G is split exactly when
    d_0 + ... + d_{m-1} = m(m-1) + d_m + ... + d_{n-1}."""
    d = sorted((g.degree(v) for v in range(g.n)), reverse=True)
    m = sum(1 for i, di in enumerate(d) if di >= i)
    return sum(d[:m]) == m * (m - 1) + sum(d[m:])


def _first_a(g: Graph, spec: PolarSpec) -> Optional[int]:
    """A-side mask of the first valid partition in (|A|, lexicographic A)
    order, or None.

    Vertices are decided depth-first in index order, "into A" before "into
    B", so A-sides of one size are reached in lexicographic order. Both
    sides are hereditary: a prefix of A or of B that fails cuts every
    extension. ``_is_cm_mask`` tests both sides (``_sides``). The search is a
    branch and bound on |A|: an A-branch is cut before its side test once it
    would reach ``best``, the least |A| of the leaves reached so far. No leaf
    of the least size comes before the (|A|, lex)-first one, so it is never
    cut and is the last leaf reached. With no partition the bound never
    fires: a None answer costs one pass, which reaches the nodes
    ``satisfies`` reaches.
    """
    n = g.n
    if n > SEARCH_CAP:
        raise CapExceeded(f"order {n} exceeds search cap {SEARCH_CAP}")
    (a_rows, smax), (co, kmax) = _sides(g, spec)
    best, found = n + 1, None

    def walk(v, amask, bmask, size):
        # vertices below v are decided: amask into A, bmask into B, both valid
        nonlocal best, found
        if v == n:
            best, found = size, amask
            return
        bit = 1 << v
        if size + 1 < best and _is_cm_mask(a_rows, amask | bit, smax):
            walk(v + 1, amask | bit, bmask, size + 1)
        if _is_cm_mask(co, bmask | bit, kmax):
            walk(v + 1, amask, bmask | bit, size)

    walk(0, 0, 0, 0)
    return found


def find_polar_partition(g: Graph, spec: PolarSpec) -> Optional[PolarPartition]:
    """First valid partition in (|A|, lexicographic A) order, or None."""
    amask = _first_a(g, spec)
    if amask is None:
        return None
    return PolarPartition(_bits_to_tuple(amask), _bits_to_tuple(((1 << g.n) - 1) ^ amask))


def _first_hit(sides: tuple, v: int, a: int, a_parts: int, b: int, b_parts: int) -> bool:
    """Whether the vertices from v on can join sides A and B, the valid
    splits ``a`` and ``b`` of the vertices below v, with ``a_parts`` and
    ``b_parts`` parts: one step of the first-hit walk of ``satisfies``.
    ``sides`` is (A rows, A bound, B rows, B bound, order).

    A side is complete multipartite on its rows, so v enters it when the
    vertices of the side it misses (``a & ~rows[v]``) are none, and then
    opens a new part if the side has fewer parts than its bound, or are the
    whole part of the first of them, u: ``a & ~rows[u]``, the vertices of the
    side u misses, itself included. That is ``_is_cm_mask(rows, a | bit,
    bound)`` read off two rows, so the walk reaches the nodes and leaves of
    a pass that tests each side prefix, in the same order.
    """
    a_rows, smax, b_rows, kmax, n = sides
    if v == n:
        return True
    bit = 1 << v
    miss = a & ~a_rows[v]
    if miss:
        if (miss == a & ~a_rows[(miss & -miss).bit_length() - 1]
                and _first_hit(sides, v + 1, a | bit, a_parts, b, b_parts)):
            return True
    elif a_parts < smax and _first_hit(sides, v + 1, a | bit, a_parts + 1, b, b_parts):
        return True
    miss = b & ~b_rows[v]
    if miss:
        return (miss == b & ~b_rows[(miss & -miss).bit_length() - 1]
                and _first_hit(sides, v + 1, a, a_parts, b | bit, b_parts))
    return b_parts < kmax and _first_hit(sides, v + 1, a, a_parts, b | bit, b_parts + 1)


def satisfies(g: Graph, spec: PolarSpec) -> bool:
    """Whether a partition exists: a walk that carries each side's part
    count and stops at its first leaf (``_first_hit``), with no side test."""
    if g.n > SEARCH_CAP:
        raise CapExceeded(f"order {g.n} exceeds search cap {SEARCH_CAP}")
    (a_rows, smax), (b_rows, kmax) = _sides(g, spec)
    return _first_hit((a_rows, smax, b_rows, kmax, g.n), 0, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# polarity profiles
#
# The profile P(G) is the set of Pareto-minimal pairs (a, b) over G's
# partitions (A, B), where a counts the parts of A and b the cliques of B
# (0 for an empty side). G is (s,k)-polar exactly when some pair has a <= s
# and b <= k, so one profile answers every (s,k) spec. The unipolar profile
# Q(G) is the same with A a cluster too, a counting its cliques: A is one
# clique exactly when it is a cluster with at most one clique, so G is
# unipolar exactly when some pair of Q(G) has a <= 1. A member's value is a
# profile and D, the distinct profiles of its one-vertex deletions: G is a
# minimal obstruction exactly when its profile fails the spec and every
# profile in D meets it.
#
# Values are folded over the operations that build a member
# (``classes._closure``). The empty graph K0 has {(0,0)}, and every other
# operation attaches a module H to a base and has one rule: a head sees a
# fixed mask of its base (K1, C5, P5 and the house are bases with the K0
# head), a union's second graph sees none of the first, and a join's sees
# all of it. A split of the member is a split of the base plus one of H,
# and H is a module, so the base enters only through a table: per split,
# each side's count and how H's side fits it (``_module_side``), and H only
# through its profile (``_attached``). One rule serves both profiles: a
# cluster side is read on the complement rows, where its cliques are parts
# and H sees the base outside its mask; B always is, and A is for Q (the
# ``cluster`` argument). A head's table is a brute force over its base's
# splits. A union or join module sees all or none of each side, so the
# side's fit follows from its count, and the table is read off the base's
# profile (``_sum_table``). Each rule maps a pair of every input to a pair
# of the output through counts that are monotone in each input pair, so
# Pareto-minimal inputs reach every Pareto-minimal output. Profiles are
# sorted tuples, and the rules are memoised on them; few distinct ones
# recur, so they are interned.

Profile = tuple[tuple[int, int], ...]
Value = tuple[Profile, tuple[Profile, ...]]

K0_VALUE: Value = (((0, 0),), ())
_INTERNED: dict = {}


def _interned(item):
    """The one kept copy of an equal profile or set of profiles."""
    return _INTERNED.setdefault(item, item)


def _front(pairs) -> Profile:
    """The Pareto-minimal pairs, ascending in a."""
    front: list[tuple[int, int]] = []
    for a, b in sorted(set(pairs)):
        if not front or b < front[-1][1]:
            front.append((a, b))
    return tuple(front)


def _pareto(pairs) -> Profile:
    """The Pareto-minimal pairs, interned."""
    return _interned(_front(pairs))


def _distinct(profiles) -> tuple[Profile, ...]:
    return _interned(tuple(sorted(set(profiles))))


def _meets(profile: Profile, spec: PolarSpec) -> bool:
    """Whether a graph with this profile has the property: P for an (s,k)
    spec, Q for a clique side, which is a cluster side with at most one
    clique."""
    s = _a_bound(spec)
    return any((s is None or a <= s) and (spec.k is None or b <= spec.k) for a, b in profile)


def _caps(spec: PolarSpec, n_max: int) -> tuple[int, int]:
    """The counts of a and b past which no graph of order <= ``n_max`` is
    told apart by ``_meets``: a bound plus one (at least 2), or 2 for an
    unbounded side or a bound no such graph can exceed. A clique side is
    bound 1."""

    def cap(bound: Optional[int]) -> int:
        return 2 if bound is None or bound >= n_max else max(bound, 1) + 1

    return cap(_a_bound(spec)), cap(spec.k)


def _capped(profile: Profile, caps: tuple[int, int]) -> Profile:
    """The Pareto-minimal pairs of ``profile`` with a and b cut to ``caps``.

    Every cap is at least 2, so each rule below maps capped inputs to the
    capped output: a count that adds (fit 0) caps the same from capped
    terms, fit 1 asks h == 1, and a sum table's fit is min(c, 2). The
    capped profile of a member is therefore a function of its parts'.
    """
    ca, cb = caps
    return _front((min(a, ca), min(b, cb)) for a, b in profile)


def _critical(value: Value, capped: Callable[[Profile], Profile]) -> bool:
    """Whether every one-vertex deletion changes the capped profile;
    ``capped`` is ``_capped`` with the caller's caps."""
    profile, deletions = value
    own = capped(profile)
    return all(capped(d) != own for d in deletions)


def _module_side(rows, mask: int, attach: int) -> Optional[tuple[int, int]]:
    """(parts, fit) of G[mask] on ``rows``, or None when it is not complete
    multipartite. ``fit`` says how a module H seeing exactly ``attach``
    can be added:
    - 0: H sees all of mask, so H's parts add to the parts;
    - 1: the vertices H misses are one whole part, which an edgeless H
      joins (a vertex of H misses exactly its own part);
    - 2: no nonempty H fits.
    """
    if not _is_cm_mask(rows, mask, len(rows)):
        return None
    parts = len({mask & ~rows[v] for v in _bits_to_tuple(mask)})
    missed = mask & ~attach
    if not missed:
        return parts, 0
    v = (missed & -missed).bit_length() - 1
    return parts, 1 if missed == mask & ~rows[v] else 2


def _with_module(parts: int, fit: int, h: int) -> Optional[int]:
    """Parts once the module's side with h parts (0 when empty) is added to
    a base side (``_module_side``), or None. Monotone in h."""
    if not h:
        return parts
    if fit == 0:
        return parts + h
    return parts if fit == 1 and h == 1 else None


def _module_table(base: Graph, attach: int, cluster: bool, mask: int) -> tuple:
    """The distinct (A parts, A fit, B cliques, B fit) of ``_module_side``
    over every split of ``mask``, of the base of a head operation that
    attaches a module at ``attach``: a brute force over the 2^|mask| splits,
    so a one-vertex deletion is the base restricted to the other vertices. A
    cluster side is read on the complement rows, where the module sees the
    base outside the attach mask and cliques are parts; B always is, and A
    is when ``cluster``."""
    full = (1 << base.n) - 1
    co = _co_rows(base.adj, full)
    a_rows, a_attach = (co, full ^ attach) if cluster else (base.adj, attach)
    table, amask = set(), mask
    while True:  # every submask of mask, mask first
        a_side = _module_side(a_rows, amask, a_attach)
        b_side = _module_side(co, mask ^ amask, full ^ attach)
        if a_side is not None and b_side is not None:
            table.add(a_side + b_side)
        if not amask:
            return tuple(sorted(table))
        amask = (amask - 1) & mask


def _sum_table(profile: Profile, a_adds: bool, b_adds: bool) -> tuple:
    """The ``_module_table`` of a union's or join's first graph, read off
    its profile. ``a_adds`` (``b_adds``) says the module sees all of side A
    (B) on the rows the side is read on, so their counts add (fit 0). Else
    it sees none of it, and a side with two parts or more is connected, so
    a nonempty module fits only a side of one part: fit min(c, 2) for c
    parts. Both fits are monotone in c, so the Pareto-minimal pairs stand
    for every split."""
    return tuple((a, 0 if a_adds else min(a, 2), b, 0 if b_adds else min(b, 2))
                 for a, b in profile)


def _attached(table: tuple, head: Profile) -> Profile:
    """Profile of a base with a module attached, from the base's table and
    the module's profile."""
    return _pareto(
        (a, b)
        for a_parts, a_fit, b_parts, b_fit in table
        for ha, hb in head
        if (a := _with_module(a_parts, a_fit, ha)) is not None
        and (b := _with_module(b_parts, b_fit, hb)) is not None
    )


def _attached_value(table: tuple, cut: list, head: Value) -> Value:
    """Value of a base with a module attached, from the base's table, the
    tables of its one-vertex deletions (``cut``) and the module's value: a
    deletion removes a module vertex or a base vertex."""
    hp, hd = head
    return _attached(table, hp), _distinct(
        [_attached(table, d) for d in hd] + [_attached(t, hp) for t in cut]
    )


@lru_cache(maxsize=None)
def _combine_value(x: Value, y: Value, a_adds: bool, b_adds: bool) -> Value:
    """Value of a union or join of x and y, y being the module, with the
    side flags of ``_sum_table``: (cluster, True) for a union and (not
    cluster, False) for a join, as complements swap the two side types."""
    px, dx = x
    cut = [_sum_table(d, a_adds, b_adds) for d in dx]
    return _attached_value(_sum_table(px, a_adds, b_adds), cut, y)


@lru_cache(maxsize=None)
def _module_rule(base: Graph, attach: int, cluster: bool = False) -> Callable[[Value], Value]:
    """Value rule of the head operation that attaches a module to ``base`` at
    the vertex mask ``attach``, as a function of the head's value.

    A split of the member is a split of the base plus one of the head, and
    the head is a module, so only the part and clique counts of its sides
    matter (``_module_table``). A deletion removes a head vertex (the head's
    deletion profiles) or a base vertex, whose table is that of the base
    restricted to the other vertices. A fixed base (K1, C5, P5, the house)
    is its own rule with attach mask 0, applied to the K0 head."""
    full = (1 << base.n) - 1
    table = _module_table(base, attach, cluster, full)
    cut = [_module_table(base, attach, cluster, full ^ (1 << u)) for u in range(base.n)]
    return lru_cache(maxsize=None)(partial(_attached_value, table, cut))
