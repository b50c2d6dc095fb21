"""Exact deciders and witness constructors for polar-type partitions.

An (s,k)-polar partition splits the vertices into a side A inducing a
complete multipartite graph with at most s parts and a side B inducing at
most k disjoint cliques. Unbounded s or k is written None (the CLI token is
"inf") and is replaced by the graph's order at evaluation time. A unipolar
partition instead requires A to be a clique.

The solver is an exact depth-first search over the vertices in index
order. Both sides are hereditary, so a prefix of A or of B that fails cuts
every extension of it. A size-free pass decides whether a partition exists;
only then is the witness found, the first valid split in increasing |A| and
then lexicographic A order, so witnesses are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .classes import _has_c5
from .errors import BadParameter, CapExceeded
from .graphs import Graph, _bits_to_tuple, _co_rows, _k_subsets, _mask_of

SEARCH_CAP = 20  # exponential A-side search guard


@dataclass(frozen=True)
class PolarSpec:
    """Partition requirement: s parts on the multipartite side, k cliques on
    the cluster side; ``clique_side`` switches side A to a single clique
    (unipolarity), in which case s is ignored."""

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


def parse_spec(text: str) -> PolarSpec:
    """Parse "sk:S,K" (S, K numeric or "inf"), or a named spec kind."""
    key = text.strip().lower()
    if key in _NAMED_SPECS:
        return _NAMED_SPECS[key]
    if key.startswith("sk:"):
        parts = key[3:].split(",")
        if len(parts) == 2:
            try:
                s = None if parts[0] == "inf" else int(parts[0])
                k = None if parts[1] == "inf" else int(parts[1])
            except ValueError:
                raise BadParameter(f"bad spec {text!r}") from None
            return sk_polar(s, k)
    raise BadParameter(f"bad spec {text!r}")


@dataclass(frozen=True)
class PolarPartition:
    """Witness split (A, B); A is the multipartite (or clique) side."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    def validate(self, g: Graph, spec: PolarSpec) -> bool:
        amask = _mask_of(self.a)
        bmask = _mask_of(self.b)
        full = (1 << g.n) - 1
        if amask & bmask or amask | bmask != full:
            return False
        if spec.clique_side:
            if not _is_clique_mask(g.adj, amask):
                return False
        elif not _is_cm_mask(g.adj, amask, _eff(spec.s, g.n)):
            return False
        return _is_cm_mask(_co_rows(g.adj, full), bmask, _eff(spec.k, g.n))


def _eff(bound: Optional[int], n: int) -> int:
    return n if bound is None else bound


# ---------------------------------------------------------------------------
# mask predicates


def _is_clique_mask(adj, mask: int) -> bool:
    rest = mask
    while rest:
        v = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        if adj[v] & mask != mask ^ (1 << v):
            return False
    return True


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
    """Split graphs are the {2K2, C4, C5}-free graphs."""
    adj = g.adj
    for quad, mask in _k_subsets(range(g.n), 4):
        degs = sorted((adj[v] & mask).bit_count() for v in quad)
        if degs == [1, 1, 1, 1] or degs == [2, 2, 2, 2]:  # 2K2 or C4
            return False
    return not _has_c5(g)


def _first_a(g: Graph, spec: PolarSpec, size: Optional[int]) -> Optional[int]:
    """A-side mask of the first valid partition with |A| = ``size`` (any size
    when None), or None.

    Vertices are decided depth-first in index order, "into A" before "into
    B", so fixed-size A-sides come in the order of ``_k_subsets``. Both sides
    are hereditary: a prefix of A or of B that fails cuts every extension.
    """
    n = g.n
    if n > SEARCH_CAP:
        raise CapExceeded(f"order {n} exceeds search cap {SEARCH_CAP}")
    adj = g.adj
    full = (1 << n) - 1
    co = _co_rows(adj, full)
    smax = _eff(spec.s, n)
    kmax = _eff(spec.k, n)

    def a_ok(amask):
        if spec.clique_side:
            return _is_clique_mask(adj, amask)
        return _is_cm_mask(adj, amask, smax)

    def walk(v, amask, bmask):
        # vertices below v are decided: amask into A, bmask into B, both valid
        if size is not None:
            need = size - amask.bit_count()
            if need == 0:
                return amask if _is_cm_mask(co, full ^ amask, kmax) else None
            if need > n - v:
                return None
        elif v == n:
            return amask
        bit = 1 << v
        if a_ok(amask | bit):
            hit = walk(v + 1, amask | bit, bmask)
            if hit is not None:
                return hit
        return walk(v + 1, amask, bmask | bit) if _is_cm_mask(co, bmask | bit, kmax) else None

    return walk(0, 0, 0)


def find_polar_partition(g: Graph, spec: PolarSpec) -> Optional[PolarPartition]:
    """First valid partition in (|A|, lexicographic A) order, or None."""
    if _first_a(g, spec, None) is None:
        return None
    full = (1 << g.n) - 1
    for size in range(g.n + 1):
        amask = _first_a(g, spec, size)
        if amask is not None:
            return PolarPartition(_bits_to_tuple(amask), _bits_to_tuple(full ^ amask))


def satisfies(g: Graph, spec: PolarSpec) -> bool:
    """Whether a partition exists: the size-free pass alone, no witness."""
    return _first_a(g, spec, None) is not None
