"""Benchmark of polaritylab, run from the root of a checkout:

    python3 perfbench/run.py --workload lists|polar-sweep|cli-stream \
        --seed N --seconds S --trace 0|1

The seed makes the workload's inputs; the references they are checked
against are computed before timing. Closed-loop passes over the inputs then
run for about S seconds, every output is checked, and the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones; with --trace 1
the run times untraced passes for half of S, traced passes for the other
half, and reports the per-layer figures of the traced passes. The line
before it is a record of the run: inputs, machine, load and program.
Every reported time is in reference seconds: wall time with the machine's
drifting speed taken out, as ``speed.py`` describes; raw times are in the
record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import speed
from spans import Tracer, percentile
from speed import clock

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 11


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> None:
    """Put the checkout's polaritylab first on the path, never another copy."""
    if not (SRC / "polaritylab" / "__init__.py").is_file():
        fail(f"no polaritylab sources under {SRC}")
    os.environ.pop("POLARITYLAB_MAX_N", None)
    sys.path.insert(0, str(SRC))
    import polaritylab

    if Path(polaritylab.__file__).resolve().parent != SRC / "polaritylab":
        fail(f"imported polaritylab from {polaritylab.__file__}, not from {SRC}")


def setup_seconds(workload) -> tuple[list[float], list[float]]:
    """Fresh interpreter to 'library imported and inputs decoded', timed
    SETUP_PROBES times: (reference seconds, raw wall seconds). The probe
    meters its own speed; its slices are taken out and the rest is scaled
    by that speed."""
    cmd = [sys.executable, str(HERE / "probe.py")]
    if workload.probe_kind == "specs":
        cmd.append("specs")
    data = "\n".join(workload.probe_lines).encode()
    reference, raw = [], []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(
            cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE
        ) as proc:
            proc.stdin.write(data)
            proc.stdin.close()
            ready = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or not ready.startswith(b"ready"):
            fail(f"set-up probe exited with {code}")
        _, _, spent, factor = ready.split()
        raw.append(t1 - t0 - float(spent))
        reference.append(raw[-1] * float(factor))
    return reference, raw


class Pass:
    def __init__(self, wall, raw, latencies, errors, failed, layers):
        self.wall = wall  # reference seconds
        self.raw = raw  # program-clock seconds
        self.latencies = latencies  # reference seconds, one per query
        self.errors = errors  # the pass's outputs are dropped once checked
        self.failed = failed
        self.layers = layers


def run_passes(workload, budget: float, traced: bool) -> list[Pass]:
    """Metered passes while the next one would likely end less than half a
    pass past ``budget`` seconds of measured time; at least one."""
    passes: list[Pass] = []
    with speed.metered():
        while True:
            tracer = Tracer() if traced else None
            with tracer.installed() if traced else nullcontext():
                t0 = clock()
                result = workload.run_pass(tracer)
                t1 = clock()
            timeline = speed.Timeline()
            latencies = [timeline.seconds(a, b) for a, b in result.stamps]
            failed = workload.check(result)
            layers = None
            if traced:
                tracer.to_reference(timeline)
                layers = tracer.layer_metrics()
                layers["cli.lines"] = (result.lines_read, "count")
                layers["cli.error_lines"] = (result.error_lines, "count")
            wall = timeline.seconds(t0, t1)
            passes.append(Pass(wall, t1 - t0, latencies, result.errors, failed, layers))
            raws = [p.raw for p in passes]
            if sum(raws) + statistics.median(raws) / 2 >= budget:
                return passes


def end_to_end(passes, setup) -> dict:
    walls = [p.wall for p in passes]
    latencies = [x for p in passes for x in p.latencies]
    return {
        # the mean: with a handful of passes it varies less between runs
        "wall_s": (statistics.mean(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "queries_per_s": (len(latencies) / sum(walls), "1/s"),
        "query_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "query_p99_ms": (1000 * percentile(latencies, 99), "ms"),
    }


def per_layer(plain, traced) -> dict:
    names = traced[0].layers
    out = {}
    for name, (_, unit) in names.items():
        # median_low: a value some pass measured, so counts stay whole
        out[name] = (statistics.median_low(p.layers[name][0] for p in traced), unit)
    untraced = statistics.median(p.wall for p in plain)
    overhead = statistics.median(p.wall for p in traced) / untraced - 1
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out


# ---------------------------------------------------------------------------
# run record


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def source_record() -> dict:
    files = sorted(SRC.rglob("*.py"))
    sha = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        sha.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_sha256": sha.hexdigest(), "src_lines": lines}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_program()
    load_before = os.getloadavg()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        setup = setup_raw = []
        plain = run_passes(workload, args.seconds / 2, traced=False)
        traced = run_passes(workload, args.seconds / 2, traced=True)
        passes = plain + traced
        metrics = per_layer(plain, traced)
    else:
        setup, setup_raw = setup_seconds(workload)
        passes = run_passes(workload, args.seconds, traced=False)
        metrics = end_to_end(passes, setup)
    attempted = workload.queries_per_pass * len(passes)
    failed = sum(p.failed for p in passes)
    nproc = os.cpu_count() or 1
    load_after = os.getloadavg()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "pass_raw_s": [p.raw for p in passes],
        "query_samples": attempted,
        "failed_frac": failed / max(attempted, 1),
        "errors": [e for p in passes for e in p.errors][:5],
        "input_sha256": workload.input_sha256,
        "setup_probe_s": setup,
        "setup_probe_raw_s": setup_raw,
        "commit": git_commit(),
        **source_record(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": nproc,
        "load_before": load_before,
        "load_after": load_after,
        "busy_at_start": load_before[0] >= nproc,
        "slice_ms_quartiles": [1000 * q for q in statistics.quantiles(speed.durations(), n=4)],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
