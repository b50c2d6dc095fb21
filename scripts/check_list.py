"""Check a printed obstruction list with code that shares nothing with the library.

Reads the JSON lines that ``polaritylab obstructions enumerate --format json``
prints (without ``--quiet``) on stdin, and checks them with
``perfbench/oracle.py`` alone, which imports nothing from polaritylab:

- each record's ``graph6`` decodes, and ``order`` is its order;
- ``canonical`` spells a graph isomorphic to it;
- the graph is in the class named by ``--class``;
- the graph has no partition for the record's ``property``;
- ``minimal`` is true and ``witnesses`` holds one partition per vertex, each
  valid on the printed graph minus that vertex (remaining vertices
  renumbered ascending), so every one-vertex deletion has the property;
- orders ascend, and no two members are isomorphic.

    polaritylab obstructions enumerate --class p4extendible --spec sk:3,2 \\
        --max-n 13 --format json | python scripts/check_list.py --class p4extendible

Prints one line per fault on stderr and a count on stdout; exits 0 when
every record passes and 1 otherwise. The checks cover soundness only: that
the list is complete is not checked.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import oracle  # noqa: E402 -- found through the path set above

CLASSES = ("cograph", "p4sparse", "p4extendible", "62")


def record_faults(rec: dict, rows: tuple[int, ...], class_id: str) -> list[str]:
    """The faults of one record, read on its own; ``rows`` is its graph6."""
    faults = []
    if rec["order"] != len(rows):
        faults.append(f"order {rec['order']} is not the graph6 order {len(rows)}")
    if not oracle.isomorphic(rows, oracle.decode_key(rec["canonical"])):
        faults.append("canonical key spells another graph")
    if not oracle.classify(rows)[class_id]:
        faults.append(f"not in class {class_id}")
    s, k, clique_side = oracle.parse_spec(rec["property"])
    if oracle.first_partition(rows, s, k, clique_side) is not None:
        faults.append(f"has a {rec['property']} partition")
    if rec["minimal"] is not True:
        faults.append("not marked minimal")
    witnesses = rec["witnesses"]
    if set(witnesses) != {str(v) for v in range(len(rows))}:
        faults.append("witnesses do not cover every vertex")
    for v, w in sorted(witnesses.items(), key=lambda item: int(item[0])):
        rest = oracle.delete_vertex(rows, int(v))
        if not oracle.valid_partition(rest, w["a"], w["b"], s, k, clique_side):
            faults.append(f"witness for vertex {v} is not a valid partition")
    return faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--class", dest="klass", required=True, choices=CLASSES)
    args = parser.parse_args(argv)
    faults = []
    members: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    last_order, count = 0, 0
    for number, line in enumerate(sys.stdin, 1):
        if not line.strip():
            continue
        count += 1
        try:
            rec = json.loads(line)
            rows = oracle.decode_graph6(rec["graph6"])
            own = record_faults(rec, rows, args.klass)
        except (ValueError, KeyError, TypeError) as exc:  # malformed record
            faults.append(f"line {number}: unreadable record: {exc!r}")
            continue
        faults.extend(f"line {number}: {fault}" for fault in own)
        if len(rows) < last_order:
            faults.append(f"line {number}: order {len(rows)} after order {last_order}")
        last_order = max(last_order, len(rows))
        same = members.setdefault(len(rows), [])
        twin = next((other for other, seen in same if oracle.isomorphic(rows, seen)), None)
        if twin is not None:
            faults.append(f"line {number}: isomorphic to line {twin}")
        same.append((number, rows))
    for fault in faults:
        print(fault, file=sys.stderr)
    print(f"{count} records checked, {len(faults)} faults")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
