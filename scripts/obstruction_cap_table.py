"""Time and peak memory of the obstruction enumeration, one job per process.

A job is ``enumerate_minimal_obstructions(class, spec, n)`` for one class,
one spec and one order. Each job runs in a fresh Python process, which
reports the wall time of the call and its own peak RSS (``ru_maxrss``). For
each order and class the script prints the slowest job and the largest peak
as one Markdown table row; ``OBSTRUCTION_CAP`` in ``obstructions.py`` is
chosen from this table.

    PYTHONPATH=src python scripts/obstruction_cap_table.py [--orders 10-16]

The specs are s,k in {1,2,3,inf} plus unipolar (the ``polar-sweep`` set of
the benchmark) and sk:n-1,n-1, the largest bounds below the order n, which
get the largest caps (``polarity._caps``). Each job lifts ``OBSTRUCTION_CAP`` to its own order, so
orders above the cap can be measured.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

CLASSES = ("cograph", "p4sparse", "p4extendible", "62")
BOUNDS = ("1", "2", "3", "inf")

CHILD = """
import json, resource, sys, time
from polaritylab import obstructions
from polaritylab.polarity import parse_spec
class_id, spec, n = sys.argv[1], parse_spec(sys.argv[2]), int(sys.argv[3])
obstructions.OBSTRUCTION_CAP = n
t = time.perf_counter()
found = obstructions.enumerate_minimal_obstructions(class_id, spec, n)
wall = time.perf_counter() - t
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"wall_s": wall, "rss_mb": rss, "found": len(found)}))
"""


def specs(n: int) -> list[str]:
    return [f"sk:{s},{k}" for s in BOUNDS for k in BOUNDS] + ["unipolar", f"sk:{n - 1},{n - 1}"]


def job(class_id: str, spec: str, n: int) -> dict:
    done = subprocess.run([sys.executable, "-c", CHILD, class_id, spec, str(n)],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--orders", default="10-16", help="an order or a range lo-hi")
    parser.add_argument("--classes", default=",".join(CLASSES))
    args = parser.parse_args()
    lo, _, hi = args.orders.partition("-")
    print("| order | class | slowest job | wall s | largest peak | peak RSS MB |")
    print("|---|---|---|---|---|---|")
    for n in range(int(lo), int(hi or lo) + 1):
        for class_id in args.classes.split(","):
            runs = {spec: job(class_id, spec, n) for spec in specs(n)}
            slow = max(runs, key=lambda s: runs[s]["wall_s"])
            big = max(runs, key=lambda s: runs[s]["rss_mb"])
            print(f"| {n} | {class_id} | {slow} | {runs[slow]['wall_s']:.2f} | {big} | "
                  f"{runs[big]['rss_mb']:.1f} |", flush=True)


if __name__ == "__main__":
    main()
