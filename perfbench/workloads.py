"""The three workloads: inputs and reference answers are prepared before
timing, one call of ``run_pass`` is one timed pass, and ``check`` compares
a pass's outputs with the references.

Each workload is a closed loop with one client in this process: the next
call starts only after the previous one returned. polaritylab is called
through its module attributes, so a traced pass sees every call.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import nullcontext
from pathlib import Path
import inputs
import oracle
from speed import clock
from polaritylab import cli, graphs, obstructions, polarity

HERE = Path(__file__).resolve().parent


class PassResult:
    def __init__(self):
        # one (start, end) per query, on the program clock of speed.py
        self.stamps: list[tuple[float, float]] = []
        self.outputs: list = []  # one per query
        self.errors: list = []  # (query index, exception text)
        self.lines_read = 0  # graph6 lines the CLI read
        self.error_lines = 0  # CLI output lines that report a bad input line


# ---------------------------------------------------------------------------
# lists: the published obstruction lists, reproduced by the library


def _expected_lists():
    data = json.loads((HERE / "expected_lists.json").read_text())
    named = {}
    for name, spec in data["graphs"].items():
        rows = inputs.edges_to_rows(spec["n"], spec["edges"])
        named[name] = inputs.complement(rows) if spec.get("complement") else rows
    return {key: [named[m] for m in members] for key, members in data["lists"].items()}


class Lists:
    """Library batch: the eight (class, spec) enumerations at order 8 and
    the disconnected minimal (2,1)-polar sweep over all graphs of order 7."""

    def __init__(self, seed: int):
        self.jobs = inputs.lists_jobs(seed)
        self.probe_kind = "specs"
        self.probe_lines = [spec for _, spec in self.jobs]
        self.input_sha256 = inputs.digest(f"{c} {s}" for c, s in self.jobs)
        expected = _expected_lists()
        self.expected = [expected[f"{c} {s}"] for c, s in self.jobs]
        self.specs = [polarity.parse_spec(s) for _, s in self.jobs]
        self.queries_per_pass = len(self.jobs)

    def run_pass(self, tracer=None) -> PassResult:
        res = PassResult()
        for i, ((klass, _), spec) in enumerate(zip(self.jobs, self.specs)):
            t0 = clock()
            try:
                if klass == "sweep":
                    found = [
                        g
                        for g in graphs.enumerate_graphs(inputs.SWEEP_ORDER)
                        if not g.is_connected()
                        and obstructions.is_minimal_obstruction(g, spec).is_minimal
                    ]
                else:
                    found = obstructions.enumerate_minimal_obstructions(
                        klass, spec, inputs.LIST_ORDER, workers=1
                    )
            except Exception as exc:  # a raising job is a failed operation
                found = None
                res.errors.append((i, repr(exc)))
            res.stamps.append((t0, clock()))
            res.outputs.append(found)
        return res

    def check(self, res: PassResult) -> int:
        """Number of jobs that raised or whose list is not the published one."""
        failed = 0
        for found, expected in zip(res.outputs, self.expected):
            if found is None:
                failed += 1
                continue
            orders = [g.n for g in found]
            if orders != sorted(orders) or not oracle.same_graph_lists(
                [tuple(g.adj) for g in found], expected
            ):
                failed += 1
        return failed


# ---------------------------------------------------------------------------
# polar-sweep: one solver query per (graph, spec)


class PolarSweep:
    """Library per-query workload: every spec asked of every G(n,p) graph."""

    def __init__(self, seed: int):
        self.lines = inputs.polar_sweep_graphs()
        self.queries = inputs.polar_sweep_queries(seed, len(self.lines), len(inputs.POLAR_SPECS))
        self.probe_kind = "graph6"
        self.probe_lines = self.lines
        self.input_sha256 = inputs.digest(
            [f"{self.lines[g]} {inputs.POLAR_SPECS[s]}" for g, s in self.queries]
        )
        self.graphs = [graphs.graph6_decode(line) for line in self.lines]
        self.specs = [polarity.parse_spec(s) for s in inputs.POLAR_SPECS]
        self.queries_per_pass = len(self.queries)
        rows = [oracle.decode_graph6(line) for line in self.lines]
        specs = [oracle.parse_spec(s) for s in inputs.POLAR_SPECS]
        self.reference = {
            (g, s): oracle.first_partition(rows[g], *specs[s])
            for g in range(len(rows))
            for s in range(len(specs))
        }

    def run_pass(self, tracer=None) -> PassResult:
        res = PassResult()
        solve = polarity.find_polar_partition
        for g, s in self.queries:
            t0 = clock()
            try:
                w = solve(self.graphs[g], self.specs[s])
                out = None if w is None else (tuple(w.a), tuple(w.b))
            except Exception as exc:
                out = "raised"
                res.errors.append((len(res.outputs), repr(exc)))
            res.stamps.append((t0, clock()))
            res.outputs.append(out)
        return res

    def check(self, res: PassResult) -> int:
        """Number of queries whose answer is not the reference witness, or
        whose witness the benchmark's own checker rejects."""
        failed = 0
        for (g, s), out in zip(self.queries, res.outputs):
            if out != self.reference[g, s]:
                failed += 1
            elif out is not None:
                rows = oracle.decode_graph6(self.lines[g])
                spec = oracle.parse_spec(inputs.POLAR_SPECS[s])
                failed += not oracle.valid_partition(rows, *out, *spec)
        return failed


# ---------------------------------------------------------------------------
# cli-stream: graph6 lines through four subcommands, in-process

COMMANDS = (
    ("recognize", "--format", "json"),
    ("decompose", "--class", "p4extendible", "--format", "json"),
    ("polar", "--spec", "sk:2,1"),
    ("obstructions", "check", "--spec", "unipolar"),
)
# every call pins the settings that would otherwise come from the machine
PINNED = ("--workers", "1", "--max-n", "8")


class _TimedLines:
    """stdin replacement that notes when each line is read."""

    def __init__(self, lines):
        self._lines = iter(lines)
        self.read_at: list[float] = []

    def __iter__(self):
        return self

    def __next__(self) -> str:
        line = next(self._lines)
        self.read_at.append(clock())
        return line + "\n"


class _TimedSink(io.StringIO):
    """stdout replacement that notes when each line is completed."""

    def __init__(self):
        super().__init__()
        self.written_at: list[float] = []

    def write(self, text: str) -> int:
        n = super().write(text)
        for _ in range(text.count("\n")):
            self.written_at.append(clock())
        return n


def run_commands(lines, tracer=None) -> PassResult:
    """Feed ``lines`` to each command in turn; one query per (command, line),
    timed from reading the line off stdin to writing its output line."""
    res = PassResult()
    saved = sys.stdin, sys.stdout, sys.stderr
    for command in COMMANDS:
        feed, sink = _TimedLines(lines), _TimedSink()
        sys.stdin, sys.stdout, sys.stderr = feed, sink, io.StringIO()
        try:
            with tracer.span("cli.run") if tracer else nullcontext():
                code = cli.run(list(command + PINNED))
        except Exception as exc:
            code = None
            res.errors.append((len(res.outputs), repr(exc)))
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        res.lines_read += len(feed.read_at)
        res.outputs.append((code, sink.getvalue().split("\n")[:-1]))
        res.stamps.extend(zip(feed.read_at, sink.written_at))
    return res


def pool_sha256(pool) -> str:
    return inputs.digest(f"{fam} {line}" for fam, line in pool)


def load_golden() -> dict:
    return json.loads((HERE / "golden_cli.json").read_text())


def entry_digest(out_lines) -> str:
    return hashlib.sha256("\n".join(out_lines).encode()).hexdigest()[:16]


class CliStream:
    """The graph6 stream through `recognize`, `decompose`, `polar` and
    `obstructions check`, by ``cli.run`` with in-memory stdin and stdout."""

    def __init__(self, seed: int):
        pool = inputs.cli_pool()
        golden = load_golden()
        if golden["pool_sha256"] != pool_sha256(pool):
            raise SystemExit("golden_cli.json does not match the input pool")
        self.picked = inputs.cli_stream(seed, pool)
        self.lines = [pool[i][1] for i in self.picked]
        self.golden = [golden["entries"][i] for i in self.picked]
        self.probe_kind = "graph6"
        self.probe_lines = [pool[i][1] for i in self.picked if pool[i][0] != "malformed"]
        self.input_sha256 = inputs.digest(self.lines)
        self.queries_per_pass = len(self.lines) * len(COMMANDS)
        self.verified = None  # outputs of the first pass that passed every check

    def run_pass(self, tracer=None) -> PassResult:
        return run_commands(self.lines, tracer)

    def check(self, res: PassResult) -> int:
        """Number of wrong output lines, plus one per wrong exit code.

        Every line is held to the golden digest; the brute-force checks run
        on the first pass and on any pass whose output differs from it."""
        n = len(self.lines)
        res.error_lines = sum(
            "\terror: " in line or '"error": ' in line for _, out in res.outputs for line in out
        )
        if any(len(out) != n for _, out in res.outputs):
            return n * len(COMMANDS)
        bad = set()
        for j in range(n):
            if entry_digest([out[j] for _, out in res.outputs]) != self.golden[j]:
                bad.update(c * n + j for c in range(len(COMMANDS)))
        if res.outputs == self.verified:
            return len(bad)
        codes, wrong = check_against_definitions(self.lines, res.outputs)
        bad.update(wrong)
        failed = len(bad) + sum(code != want for (code, _), want in zip(res.outputs, codes))
        if not failed:
            self.verified = res.outputs
        return failed


def _json(line: str) -> dict:
    try:
        record = json.loads(line)
    except ValueError:
        return {}
    return record if isinstance(record, dict) else {}


def _key_relabels(rows, hex_key) -> bool:
    """The canonical key spells out a relabelling of ``rows``."""
    try:
        return oracle.isomorphic(rows, oracle.decode_key(hex_key))
    except (TypeError, ValueError, IndexError):
        return False


def check_against_definitions(lines, outputs):
    """Expected exit codes, and the indices (command * lines + line) of
    the outputs that brute force finds wrong."""
    n = len(lines)
    bad = set()
    failing = [False] * len(COMMANDS)
    (_, rec), (_, dec), (_, pol), (_, chk) = outputs
    for j, line in enumerate(lines):
        try:
            rows = oracle.decode_graph6(line)
        except oracle.Malformed:
            failing = [True] * len(COMMANDS)
            for c, out in enumerate((rec[j], dec[j])):
                record = _json(out)
                if "error" not in record or record.get("input") != line:
                    bad.add(c * n + j)
            for c, out in ((2, pol[j]), (3, chk[j])):
                if not out.startswith(f"{line}\terror: "):
                    bad.add(c * n + j)
            continue
        want = oracle.classify(rows)
        r = _json(rec[j])
        if (
            r.get("input") != line
            or r.get("classes") != {k: want[k] for k in ("cograph", "p4sparse", "p4extendible", "62")}
            or r.get("p4_count") != want["p4_count"]
            or not _key_relabels(rows, r.get("canonical"))
        ):
            bad.add(j)
        d = _json(dec[j])
        if d.get("verdict") != want["p4extendible"] or d.get("input") != line:
            bad.add(n + j)
        elif d["verdict"]:
            if d.get("canonical") != r.get("canonical") or not oracle.valid_p4extendible_tree(rows, d["tree"]):
                bad.add(n + j)
        else:
            failing[1] = True
            cert = d.get("certificate") or []
            if len(cert) != 3 or cert[0] != "extension_set" or not oracle.valid_extension_certificate(rows, cert[1], cert[2]):
                bad.add(n + j)
        ref = oracle.first_partition(rows, 2, 1)
        if ref is None:
            failing[2] = True
            want_polar = "none"
        else:
            want_polar = f"A={list(ref[0])} B={list(ref[1])}"
        if pol[j] != f"{line}\t{want_polar}":
            bad.add(2 * n + j)
        obstruction, minimal = oracle.unipolar_minimality(rows)
        failing[3] = failing[3] or not minimal
        if chk[j] != f"{line}\tobstruction={str(obstruction).lower()} minimal={str(minimal).lower()}":
            bad.add(3 * n + j)
    return [1 if f else 0 for f in failing], bad


WORKLOADS = {"lists": Lists, "polar-sweep": PolarSweep, "cli-stream": CliStream}
