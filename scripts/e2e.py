"""End-to-end gate: every row of ``CHECKS`` must exit, print and check as pinned.

    python scripts/e2e.py

A row runs a command, or commands joined by `` | `` through real pipes, from
the repository root: a ``.py`` path as a script, anything else as ``python -m
polaritylab.cli`` with ``src/`` first on ``PYTHONPATH``. The row's stdin lines
feed the first command. The last command must exit with the row's code and
every earlier one with 0; the output must have the row's line count and
sha256 where it pins them, and pass its checkers.

Prints the ``src/`` line count, then each row's Markdown heading and wall
time (its commands, not its checkers) for the CI job summary. Names each
failing row on stderr; exits 0 when every row passes and 1 otherwise.
"""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
PYTHON = "Python {}.{}".format(*sys.version_info)

Checker = Callable[[str], str]  # the output -> a fault, or "" when it passes


class Row(NamedTuple):
    run: str  # commands joined by " | "
    stdin: tuple[str, ...] = ()
    exit: int = 0
    lines: int | None = None
    sha256: str | None = None
    checks: tuple[Checker, ...] = ()
    name: str = ""  # the heading, if not the pipeline itself


def _pipe(run: str, stdin: str = "") -> tuple[list[int], str]:
    """Run the pipeline ``run`` on ``stdin`` through real pipes; each
    command's exit code, and the last one's output."""
    with tempfile.TemporaryFile("w+") as source:
        source.write(stdin)
        source.seek(0)
        procs: list[subprocess.Popen] = []
        for command in run.split(" | "):
            words = shlex.split(command)
            argv = words if words[0].endswith(".py") else ["-m", "polaritylab.cli", *words]
            procs.append(subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=ENV, text=True,
                                          stdin=procs[-1].stdout if procs else source,
                                          stdout=subprocess.PIPE))
            if len(procs) > 1:
                procs[-2].stdout.close()  # the next command holds it now
        out = procs[-1].stdout.read()
        return [p.wait() for p in procs], out


def check_list(klass: str) -> Checker:
    """``scripts/check_list.py --class klass``, fed the output."""
    def check(out: str) -> str:
        codes, said = _pipe(f"scripts/check_list.py --class {klass}", out)
        return "" if codes == [0] else f"check_list.py --class {klass}: {said.strip()}"
    return check


def catalog(klass: str, spec: str) -> Checker:
    """The output's sorted ``graph6`` fields equal the published list."""
    ident = f"{spec}-{klass.removeprefix('p4')}"
    def check(out: str) -> str:
        codes, want = _pipe(f"obstructions catalog --id {ident}")
        got = sorted(json.loads(line)["graph6"] for line in out.splitlines())
        same = codes == [0] and want.strip() and got == sorted(want.splitlines())
        return "" if same else f"differs from obstructions catalog --id {ident}"
    return check


def canonical(out: str) -> str:
    """Every line carries a ``canonical`` field; a line whose labeling
    passes LABEL_CAP carries an ``error`` instead."""
    bare = sum('"canonical"' not in line for line in out.splitlines())
    return f"{bare} lines without a canonical field" if bare else ""


def searches(out: str) -> str:
    """``enumerate_graphs(8)``'s canonicity searches, and how many stop at a column
    below the child's own; the shim forwards whatever arguments the search takes."""
    shim = ("from polaritylab import graphs\n"
            "search, verdicts = graphs._min_bits, []\n"
            "graphs._min_bits = lambda *a, **k: verdicts.append(search(*a, **k)) or verdicts[-1]\n"
            "sum(1 for _ in graphs.enumerate_graphs(8))\n"
            "print(len(verdicts), verdicts.count(None))")
    got = subprocess.run([sys.executable, "-c", shim], cwd=ROOT, env=ENV,
                         capture_output=True, text=True).stdout.split()
    return "" if got == ["21974", "8376"] else f"enumerate_graphs(8): {got} searches and early stops"


ORDER_20 = ("Shc?GC@@G??@?@??_@G????C??G??G??c", "ShCGGC@?G?_@?@??_?G?@??C??G??K??C",
            "S????????????????????????????????", "S~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~{",
            "S`?G?C??G??@????_???@?????G?????C")

CHECKS = (
    *(Row(f"verify --claim {claim} --max-n 9")
      for claim in ("bound", "spider_not_obs", "sparse_cog", "disc_polar")),
    Row("obstructions enumerate --class p4extendible --spec unipolar --max-n 10"),
    # past ENUM_CAP, within OBSTRUCTION_CAP: 90 members, four not cographs
    Row("obstructions enumerate --class p4sparse --spec sk:3,2 --max-n 12 --format json",
        lines=90, checks=(check_list("p4sparse"),)),
    # each list is complete at 147 members; the two are complements
    *(Row(f"obstructions enumerate --class p4extendible --spec {spec} --max-n 13 --format json",
          lines=147, checks=(check_list("p4extendible"),)) for spec in ("sk:3,2", "sk:2,3")),
    # at OBSTRUCTION_CAP, where P4-sparse builds its largest spider tables
    *(Row(f"obstructions enumerate --class {klass} --spec {spec} --max-n 15 --format json",
          checks=(catalog(klass, spec), check_list(klass)))
      for klass in ("p4sparse", "p4extendible") for spec in ("polar", "unipolar")),
    # the (s,1) construction keys its members with their trees' maps; the
    # plain search passes LABEL_CAP on a 30-vertex member at s = 14
    Row("obstructions construct --class p4sparse --s 14", lines=1762,
        sha256="3b1b04b5035bef886ceabf9e2c8d5d3c01adc0619fe28ab38a6842038d4ece62"),
    # the stream path: each P4-sparse graph's classes, P4 count and key
    Row("gen --class p4sparse --max-n 9 | recognize --format json", lines=2957,
        sha256="cfc5b9f4db66f0005e4cfbe150534f30dab9807d10213ef52d211900c83d3df7"),
    # the enumeration route of gen: one canonical form per class, in a pinned order
    Row("gen --class all --max-n 8", lines=13598,
        sha256="226d29ea28ded93d912b0b3630dca28c7bdd3dffab3a255657b8d18178486fbd",
        checks=(searches,)),
    Row("gen --class all --max-n 9", lines=288266,
        sha256="a9c7db1b5624af7e1232b5e2d68dc2612bb579440b9870ceb16c526698d9e374"),
    # decompose exits 1 on a line that does not decompose; the trees are pinned
    Row("gen --class p4sparse --max-n 9 | decompose --class p4sparse --format json",
        sha256="95cd44305b93988c3e9fc803128f78d90c57c0381bdab44c308adb4237a9f800"),
    Row("gen --class p4extendible --max-n 9 | decompose --class p4extendible --format json",
        sha256="9b85376bb377566bd4dd690745137e3684df5c916dedcd5b98c3f9060082311c"),
    # labeling blow-ups, pinned so that a wrong key on a pruned search fails
    Row("recognize --format json",
        ("M~~~{@?G?_@?@??_?", "M~~~z}}vf[]o}_~??", "O~~~~}?O@?A?A?@??O?A?",
         r"O~~~~|~nu}\w|o}o^gF{?", "Q~~~~~~^|~Z{zw|w^[Fz?~gB~??", ORDER_20[0], "MG?G?c?H??????@?_"),
        lines=7, sha256="7db727fdb9093d2900123411c0e4b4f4d1c85ba98fcfb8335a84e8633f9b5a7b",
        checks=(canonical,), name="thin7, thick7, thin8, thick8, thick9, 4C5 and "
                                  "`MG?G?c?H??????@?_` through `recognize --format json`"),
    # labeled by the sibling swaps of their cotrees
    Row("recognize --format json",
        ("[`?G?C??G??@????_???@?????G?????C??????G??????@????????_???????@",
         "_`?G?C??G??@????_???@?????G?????C??????G??????@????????_???????@?????????G?????????C",
         "]]~v~z~~v~~}~~~~^~~~}~~~~~v~~~~~z~~~~~~v~~~~~~}~~~~~~~~^~~~~~~~}~~~~~~~~~o",
         "_]~v~z~~v~~}~~~~^~~~}~~~~~v~~~~~z~~~~~~v~~~~~~}~~~~~~~~^~~~~~~~}~~~~~~~~~v~~~~~~~~~w"),
        lines=4, checks=(canonical,),
        name="14K2, 16K2, K_{2x15} and K_{2x16} through `recognize --format json`"),
    # symmetric and in no class, so only pairing (graphs._pair) labels them
    Row("recognize --format json",
        ("WhEG?C@?G?_P????_?G?@??C?AG?????C??@???G???_??P",
         "W???????????^~n~Z~f^w|~Bz{FzwF|wB~[?~z?F~g?^~??",
         "X~}AHKVB{GGPGRCJ`B{GOO`C`AW`AwO`}CGOO`AHACHaCGVACG^"),
        lines=3, sha256="cd0af7916affc70210f8a0b4542847b64cee7e96f26e03f227ab45fd3c3b52ea",
        checks=(canonical,), name="4C6, S_12^0 and the 5x5 rook graph through `recognize --format json`"),
    # 4C5, C20, the edgeless and complete graphs and 10K2: both specs
    # answer "none" on some of them, so the only passing exit code is 1
    *(Row(f"polar --spec {spec}", ORDER_20, exit=1, lines=5,
          name=f"order-20 graphs through `polar --spec {spec}`") for spec in ("unipolar", "sk:2,1")),
    *(Row(f"demos/{demo.name}") for demo in sorted((ROOT / "demos").glob("*.py"))),
)


def _faults(row: Row) -> list[str]:
    """Run ``row``, print its heading and wall time; its faults."""
    start = time.perf_counter()
    codes, out = _pipe(row.run, "".join(line + "\n" for line in row.stdin))
    print(f"### {row.name or f'`{row.run}`'} ({PYTHON})")
    print(f"wall time: {time.perf_counter() - start:.2f} s", flush=True)
    pins = (("exit codes", codes, [0] * (len(codes) - 1) + [row.exit]),
            ("lines", len(out.splitlines()), row.lines),
            ("sha256", hashlib.sha256(out.encode()).hexdigest(), row.sha256))
    return ([f"{what} {got}, expected {want}" for what, got, want in pins if want not in (None, got)]
            + [fault for check in row.checks if (fault := check(out))])


def main() -> int:
    counts = [(len(f.read_text().splitlines()), f"src/polaritylab/{f.name}")
              for f in sorted((ROOT / "src" / "polaritylab").glob("*.py"))]
    print(f"### `src/` line count ({PYTHON})\n```")
    for n, name in counts + [(sum(n for n, _ in counts), "total")]:
        print(f"{n:>5} {name}")
    print("```", flush=True)
    failed = 0
    for row in CHECKS:
        faults = _faults(row)
        for fault in faults:
            print(f"FAILED {row.name or row.run}: {fault}", file=sys.stderr, flush=True)
        failed += bool(faults)
    print(f"{len(CHECKS) - failed} of {len(CHECKS)} rows passed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
