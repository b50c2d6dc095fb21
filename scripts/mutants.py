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
    Mutant(
        "split-keeps-previous-twin",
        "src/polaritylab/graphs.py",
        "            if not x & t:\n                child[i] = 0\n",
        "            if not x & t:\n                pass\n",
        ("tests/test_graphs.py::test_children_start_from_their_parents_independent_sets",
         "tests/test_graphs.py::test_children_searched_to_order_8_inherit_their_parents_twins"),
    ),
    Mutant(
        "last-from-open-rows-only",
        "src/polaritylab/graphs.py",
        "        last[row] = last[closed] = low\n",
        "        last[row] = low\n",
        ("tests/test_graphs.py::test_twin_before_finds_each_vertex_s_previous_twin",),
    ),
    Mutant(
        "filter-bans-false-twins",
        "src/polaritylab/graphs.py",
        "            if t & adj[v]:\n                ban |= 1 << v\n",
        "            if t:\n                ban |= 1 << v\n",
        ("tests/test_graphs.py::test_children_start_from_their_parents_independent_sets",
         "tests/test_graphs.py::test_enumeration_output_is_pinned"),
    ),
    Mutant(
        "column-bound-one-higher",
        "src/polaritylab/graphs.py",
        "            bound = max(_column(row, range(k)) << (m - k) for k, row in enumerate(rows))\n",
        "            bound = 1 + max(_column(row, range(k)) << (m - k) for k, row in enumerate(rows))\n",
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
        "        if (size + 1 < best and _is_cm_mask(",
        "        if (size + 1 <= best and _is_cm_mask(",
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
)

EQUIVALENT = (
    (Mutant(
        "no-twin-filter-on-handed-down-sets",
        "src/polaritylab/graphs.py",
        "        if ban:\n            sets = [s for s in sets if not s & ban]\n",
        "",
        (),
    ), "a set the filter drops is the image of a kept one under swaps of true "
       "twins, automorphisms that fix the placed prefix, so the search reads the "
       "same columns from more states and returns the same bits"),
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
