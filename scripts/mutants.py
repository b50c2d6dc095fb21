"""Mutation gate: each mutant in ``MUTANTS`` must be killed by the tests it
names.

    python scripts/mutants.py

For each mutant the script copies the tree (without ``.git`` and caches) to
a temporary directory, replaces the mutant's old text in its file by the new
text, and runs only the mutant's tests there with pytest, importing
polaritylab from the copy's ``src/``. The mutant is killed when no test it
names passes (a broken import fails them all), and survives when one does.
The old text must occur exactly once in the file, so a table gone stale is
an error, not a pass. Before the mutants, the named tests run once on an
unmutated copy and must all pass there.

Exits 0 when every mutant is killed, 1 when one survives, and 2 on a stale
entry or a named test that does not pass unmutated. ``EQUIVALENT`` lists
mutants that change no output, with the argument why; no test can kill
them, so they are listed and not run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids; each must fail


MUTANTS = (
    # the walk of the parent's trace, one mutant per condition that makes
    # it exact (enumerate_graphs)
    Mutant(
        "walk-ignores-a-new-column-below-the-own",  # (a)
        "src/polaritylab/graphs.py",
        "                reject |= differ & o  # w reads 0 where the own column reads 1\n",
        "",
        ("tests/test_graphs.py::test_enumeration_output_is_pinned",
         "tests/test_graphs.py::test_walk_answers_like_the_full_search_on_every_child_the_enumeration_admits"),
    ),
    Mutant(
        "trace-merges-states-by-key",  # (b)
        "src/polaritylab/graphs.py",
        "                nxt.append((((shifted | spread[v]) & live2) | ((placed | low) << top),\n",
        "                key2 = ((shifted | spread[v]) & live2) | ((placed | low) << top)\n"
        "                if any(key2 == s[0] for s in nxt):\n"
        "                    continue\n"
        "                nxt.append((key2,\n",
        ("tests/test_graphs.py::test_enumeration_output_is_pinned",),
    ),
    Mutant(
        "branches-open-only-from-tied-states",  # (c)
        "src/polaritylab/graphs.py",
        "        for i in ties[j].get(col, ()):\n",
        "        for i in [i for i in ties[j].get(col, ()) if _read(\n"
        "                adj, levels[j][i][0], levels[j][i][1], full & ~(levels[j][i][0] >> top) & ~new, n, j)[0] == own]:\n",
        ("tests/test_graphs.py::test_enumeration_output_is_pinned_at_order_8",),
    ),
    Mutant(
        "twin-skip-admits-every-mask",  # (d)
        "src/polaritylab/graphs.py",
        "                    todo &= ~(has[t.bit_length() - 1] & ~has[v])\n",
        "                    pass\n",
        ("tests/test_graphs.py::test_enumeration_output_is_pinned",
         "tests/test_graphs.py::test_children_searched_to_order_8_inherit_their_parents_twins"),
    ),
    Mutant(
        "walk-skips-the-leaf-level",  # (e)
        "src/polaritylab/graphs.py",
        "    for j, level in enumerate(levels):\n",
        "    for j, level in enumerate(levels[:-1]):\n",
        ("tests/test_graphs.py::test_enumeration_output_is_pinned",
         "tests/test_graphs.py::test_walk_answers_like_the_full_search_on_every_child_the_enumeration_admits"),
    ),
    Mutant(
        "walk-drops-the-sets-with-the-new-vertex",
        "src/polaritylab/graphs.py",
        "    branch = {(s | new) << top: ((s | new,), every) for s in below if not s & x}\n",
        "    branch = {}\n",
        ("tests/test_graphs.py::test_enumeration_output_is_pinned",
         "tests/test_graphs.py::test_walk_answers_like_the_full_search_on_every_child_the_enumeration_admits"),
    ),
    Mutant(
        "sweep-reads-the-leaf-own-column-reversed",
        "src/polaritylab/graphs.py",
        "        ones = has if k == m else",
        "        ones = has[::-1] if k == m else",
        ("tests/test_graphs.py::test_enumeration_output_is_pinned",
         "tests/test_graphs.py::test_sweep_decides_every_column_as_the_per_child_reads_do"),
    ),
    Mutant(
        "last-from-open-rows-only",
        "src/polaritylab/graphs.py",
        "        last[row] = last[closed] = low\n",
        "        last[row] = low\n",
        ("tests/test_graphs.py::test_twin_before_finds_each_vertex_s_previous_twin",),
    ),
    Mutant(
        "column-bound-one-higher",
        "src/polaritylab/graphs.py",
        "            bound = max((_column(row, range(k)) << (m - k) for k, row in enumerate(rows)), default=0)\n",
        "            bound = 1 + max((_column(row, range(k)) << (m - k) for k, row in enumerate(rows)), default=0)\n",
        ("tests/test_graphs.py::test_enumeration_output_is_pinned",
         "tests/test_graphs.py::test_enumeration_skips_only_children_that_fail_the_pinned_test"),
    ),
    Mutant(
        "sparse-lowest-and-highest-extra",
        "src/polaritylab/classes.py",
        "            q = triple | low | rest & -rest\n",
        "            q = triple | low | 1 << rest.bit_length() - 1\n",
        ("tests/test_classes.py::test_edge_walks_match_the_subset_scans",),
    ),
    Mutant(
        "sparse-keeps-the-later-set",
        "src/polaritylab/classes.py",
        "            if not best or (q ^ best) & -(q ^ best) & q:\n",
        "            if not best or (q ^ best) & -(q ^ best) & best:\n",
        ("tests/test_classes.py::test_edge_walks_match_the_subset_scans",),
    ),
    Mutant(
        "p4-key-drops-its-top-byte",
        "src/polaritylab/graphs.py",
        'm.to_bytes(4, "little").translate(_REVERSED)',
        'm.to_bytes(4, "little")[:3].translate(_REVERSED)',
        ("tests/test_classes.py::test_edge_walks_match_the_subset_scans_through_vertex_31",),
    ),
    Mutant(
        "pairs-highest-bit-first",
        "src/polaritylab/graphs.py",
        "    return tuple(reversed([(i, 1 << j, j, 1 << i) for j in range(1, n) for i in range(j)]))\n",
        "    return tuple([(i, 1 << j, j, 1 << i) for j in range(1, n) for i in range(j)])\n",
        ("tests/test_graphs.py::test_rows_match_the_pair_loop",),
    ),
    Mutant(
        "c5-ends-are-the-middles",
        "src/polaritylab/graphs.py",
        "            fifth &= adj[v] if (adj[v] & m).bit_count() == 1 else ~adj[v]\n",
        "            fifth &= adj[v] if (adj[v] & m).bit_count() == 2 else ~adj[v]\n",
        ("tests/test_classes.py::test_edge_walks_match_the_subset_scans",),
    ),
    # the exactness core: the caps, the fold rules, criticality and the
    # solver's bound, which decide the printed lists and their witnesses
    Mutant(
        "caps-one-lower",
        "src/polaritylab/polarity.py",
        "        return 2 if bound is None or bound >= n_max else max(bound, 1) + 1\n",
        "        return 2 if bound is None or bound >= n_max else max(bound, 1)\n",
        ("tests/test_profiles.py::test_caps",
         "tests/test_obstructions.py::test_enumerate_unipolar_small"),
    ),
    Mutant(
        "module-fit-1-admits-any-head",
        "src/polaritylab/polarity.py",
        "    return parts if fit == 1 and h == 1 else None\n",
        "    return parts if fit == 1 else None\n",
        ("tests/test_obstructions.py::test_enumerate_unipolar_small",
         "tests/test_obstructions.py::test_verify_claim_small"),
    ),
    Mutant(
        "critical-if-any-deletion-changes",
        "src/polaritylab/polarity.py",
        "    return all(capped(d) != own for d in deletions)\n",
        "    return any(capped(d) != own for d in deletions)\n",
        ("tests/test_obstructions.py::test_enumeration_builds_on_members_with_the_property_and_finds_no_witness",
         "tests/test_profiles.py::test_critical_read_from_the_value_is_critical"),
    ),
    Mutant(
        "module-side-fit-always-1",
        "src/polaritylab/polarity.py",
        "    return parts, 1 if missed == mask & ~rows[v] else 2\n",
        "    return parts, 1\n",
        ("tests/test_obstructions.py::test_p4sparse_32_list_has_four_non_cographs",),
    ),
    Mutant(
        "sum-table-fit-capped-at-1",
        "src/polaritylab/polarity.py",
        "0 if a_adds else min(a, 2)",
        "0 if a_adds else min(a, 1)",
        ("tests/test_obstructions.py::test_enumeration_builds_on_members_with_the_property_and_finds_no_witness",),
    ),
    Mutant(
        "front-keeps-equal-b",
        "src/polaritylab/polarity.py",
        "        if not front or b < front[-1][1]:\n",
        "        if not front or b <= front[-1][1]:\n",
        ("tests/test_profiles.py::test_small_profiles",
         "tests/test_obstructions.py::test_enumeration_builds_on_members_with_the_property_and_finds_no_witness"),
    ),
    Mutant(
        "join-side-a-flag-of-a-union",
        "src/polaritylab/classes.py",
        '("J", join, (not cluster, False))',
        '("J", join, (cluster, False))',
        ("tests/test_obstructions.py::test_enumerate_unipolar_small",
         "tests/test_obstructions.py::test_enumeration_labels_only_its_output"),
    ),
    Mutant(
        "witness-cut-at-equal-size",
        "src/polaritylab/polarity.py",
        "        if size + 1 < best and _is_cm_mask(",
        "        if size + 1 <= best and _is_cm_mask(",
        ("tests/test_polarity.py::test_witness_is_first_in_size_then_lex_order",),
    ),
    # the known maps a class member's tree hands the labeling search
    Mutant(
        "known-maps-unchecked",
        "src/polaritylab/graphs.py",
        "                            moved = _moved(adj, g)\n",
        "                            moved = _mask_of(v for v, w in enumerate(g) if v != w)\n",
        ("tests/test_graphs.py::test_maps_that_are_not_automorphisms_are_dropped",),
    ),
    Mutant(
        "spider-code-without-leg-count",
        "src/polaritylab/classes.py",
        '            code = ("spider", p.thin, len(p.pairing), head)\n',
        '            code = ("spider", p.thin, head)\n',
        ("tests/test_classes.py::test_tree_maps_name_leg_and_sibling_swaps",),
    ),
    # the labeling search's tie-breaks
    Mutant(
        "state-above-the-least-column-kept",
        "src/polaritylab/graphs.py",
        "            elif col > best:\n                continue\n",
        "            elif False:\n                continue\n",
        ("tests/test_graphs.py::test_two_phase_search_labels_sparse_graphs_like_the_tiered_search",
         "tests/test_graphs.py::test_enumeration_counts_vs_labeled_dedupe"),
    ),
    Mutant(
        "level-not-emptied-by-a-lower-column",
        "src/polaritylab/graphs.py",
        "                best = col\n                nxt = {}\n",
        "                best = col\n",
        ("tests/test_graphs.py::test_canonical_key_vs_exhaustive_permutations",
         "tests/test_graphs.py::test_two_phase_search_labels_sparse_graphs_like_the_tiered_search"),
    ),
    # the one minimality loop
    Mutant(
        "witnesses-for-twin-class-representatives-only",
        "src/polaritylab/obstructions.py",
        "range(g.n)}",
        "range(g.n) if not later[v]}",
        ("tests/test_obstructions.py::test_minimality_report_runs_one_size_free_pass_per_graph",
         "tests/test_obstructions.py::test_verdict_only_minimality_matches_the_witnessed_and_every_deletion"),
    ),
    # the first-hit walk of satisfies
    Mutant(
        "walk-opens-a-part-at-the-bound",
        "src/polaritylab/polarity.py",
        "a_parts < smax",
        "a_parts <= smax",
        ("tests/test_polarity.py::test_unipolar_facts",
         "tests/test_polarity.py::test_first_hit_walk_matches_the_bounded_pass_and_every_split"),
    ),
    Mutant(
        "walk-joins-a-part-its-misses-do-not-fill",
        "src/polaritylab/polarity.py",
        "        if (miss == a & ~a_rows[(miss & -miss).bit_length() - 1]\n",
        "        if (not miss & a_rows[(miss & -miss).bit_length() - 1]\n",
        ("tests/test_polarity.py::test_unipolar_facts",
         "tests/test_polarity.py::test_first_hit_walk_matches_the_bounded_pass_and_every_split"),
    ),
)

EQUIVALENT = (
    (Mutant(
        "trace-without-twin-order",
        "src/polaritylab/graphs.py",
        "                    trace = _trace(rows, lower)\n",
        "                    trace = _trace(rows, [0] * m)\n",
        (),
    ), "with no twin order the trace and the walk search every labeling of the "
       "child, more than the ones in the parent's twin order, which hold a minimal "
       "one; so every verdict is the same, read from more states"),
    (Mutant(
        "pairs-swapped",
        "src/polaritylab/graphs.py",
        "[(i, 1 << j, j, 1 << i) for j",
        "[(j, 1 << i, i, 1 << j) for j",
        (),
    ), "_rows sets both bits of each pair, row i's bit j and row j's bit i, so "
       "the rows are the same whichever end comes first"),
    (Mutant(
        "closure-ignores-keep",
        "src/polaritylab/classes.py",
        "        if keep is None or keep(values[i]):\n",
        "        if True:\n",
        (),
    ), "keeping more members is still exact, only slower: the obstructions are "
       "read off the values, which keep does not change, and every member is "
       "reached on the recipe it has without keep"),
)


def _passed(output: str) -> set[str]:
    """The node ids, without parameters, that pytest's short summary
    (``-rA``) reports passed. A test counts as failed unless it is reported
    passed, so a mutant that breaks an import or the collection fails the
    tests it names."""
    ids = set()
    for line in output.splitlines():
        tag, _, rest = line.partition(" ")
        if tag == "PASSED":
            ids.add(rest.split("[")[0])
    return ids


def _run(tests: tuple[str, ...], mutant: Mutant | None = None) -> set[str]:
    """Run ``tests`` on a copy of the tree, with ``mutant`` applied if
    given; the node ids that passed."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        if mutant is None:  # the control shows that the tests import the copy
            where = subprocess.run([sys.executable, "-c", "import polaritylab; print(polaritylab.__file__)"],
                                   cwd=tree, env=env, capture_output=True, text=True).stdout
            if not where.startswith(str(tree)):
                raise SystemExit(f"polaritylab imports from {where.strip()!r}, not the copy")
        else:
            target = tree / mutant.path
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
                               *tests], cwd=tree, env=env, capture_output=True, text=True)
    return _passed(done.stdout)


def main() -> int:
    for m in list(MUTANTS) + [m for m, _ in EQUIVALENT]:
        found = (ROOT / m.path).read_text().count(m.old)
        if found != 1:
            print(f"{m.name}: old text found {found} times in {m.path}, expected once",
                  file=sys.stderr)
            return 2
    # the control: unmutated, every test named must pass, or a broken test
    # would kill every mutant that names it
    tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    passed = _run(tests)
    broken = [t for t in tests if t not in passed]
    if broken:
        print(f"not passing without a mutant: {', '.join(broken)}", file=sys.stderr)
        return 2
    survived = []
    for m in MUTANTS:
        alive = sorted(_run(m.tests, m) & set(m.tests))
        print(f"{m.name}: " + ("SURVIVED, passed: " + ", ".join(alive) if alive else "killed"),
              flush=True)
        if alive:
            survived.append(m.name)
    print(f"{len(MUTANTS) - len(survived)} of {len(MUTANTS)} mutants killed; "
          f"{len(EQUIVALENT)} equivalent, not run")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
