"""Command-line front end: batch recognition, decomposition, polarity
checks, obstruction lists, and theorem verification.

Graphs travel as newline-delimited graph6 on stdin/stdout so shell
pipelines compose with external generators. Exit codes: 0 success / all
verdicts true, 1 any false verdict or per-line error, 2 usage error, 3 cap
violation. POLARITYLAB_MAX_N overrides the default enumeration bound.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import nullcontext
from typing import Iterable, Iterator

from . import classes as cl
from . import graphs as gr
from . import obstructions as ob
from . import polarity as po
from .errors import BadParameter, CapExceeded, NotInClass, PolarityLabError
from .graphs import Graph, _has_c5, graph6_decode, graph6_encode, p4_masks

DEFAULT_MAX_N = 8


def _resolve_max_n(args, cap: int = gr.ENUM_CAP) -> int:
    """--max-n, else POLARITYLAB_MAX_N, else the default, checked against
    ``cap``."""
    value = args.max_n
    if value is None:
        env = os.environ.get("POLARITYLAB_MAX_N")
        try:
            value = _int(env) if env else DEFAULT_MAX_N
        except (argparse.ArgumentTypeError, ValueError):
            raise BadParameter(f"POLARITYLAB_MAX_N={env!r} is not an integer") from None
    if not 1 <= value <= cap:
        raise CapExceeded(f"max-n {value} outside 1..{cap}")
    return value


def _int(text: str) -> int:
    """An integer in ASCII digits with an optional minus sign, the digits
    ``parse_spec`` reads; ``int()`` alone also takes spaces, underscores, a
    plus sign and other scripts' digits."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    return int(text)


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


# ---------------------------------------------------------------------------
# per-line subcommands


def _each_line(lines: Iterable[str], handle,
               records: bool) -> Iterator[tuple[bool, str, dict]]:
    """Decode each line and run ``handle`` on its graph, yielding (ok, text
    line, JSON record) per line.

    ``handle(g, records)`` returns (ok, text, fields). Without ``records``
    the fields are never printed, so the handler skips what only they show,
    such as the canonical key, which can cost more than the verdict. A
    PolarityLabError from the decoder or the handler becomes that line's
    error record instead.
    """
    for line in lines:
        try:
            ok, text, fields = handle(graph6_decode(line), records)
        except PolarityLabError as exc:
            ok, text = False, f"error: {exc}"
            fields = {"error": f"{type(exc).__name__}: {exc}"}
        yield ok, f"{line}\t{text}", {"input": line, **fields}


def _run_lines(args, handle) -> int:
    """Run ``handle`` over the non-blank stdin lines and print one text or
    JSON line each; exit 1 if any line failed or got a false verdict."""
    all_ok = True
    lines = (line for raw in sys.stdin if (line := raw.strip()))
    for ok, text, record in _each_line(lines, handle, args.format == "json"):
        all_ok &= ok
        print(json.dumps(record, sort_keys=True) if args.format == "json" else text)
    return 0 if all_ok else 1


def _classify(g: Graph, records: bool) -> tuple[bool, str, dict]:
    extendible = cl.is_p4_extendible(g)
    classes = {
        "cograph": cl.is_cograph(g),
        "p4sparse": cl.is_p4_sparse(g),
        "p4extendible": extendible,
        "62": extendible and not _has_c5(g),  # is_62_graph, with one extendibility scan
    }
    p4_count = len(p4_masks(g))
    flags = " ".join(f"{k}={str(v).lower()}" for k, v in classes.items())
    record = {"classes": classes, "p4_count": p4_count}
    if records:
        member = "p4sparse" if classes["p4sparse"] else "p4extendible" if extendible else None
        record["canonical"] = cl.member_key(g, member).hex()
    return True, f"{flags} p4_count={p4_count}", record


def classify_stream(lines: Iterable[str]) -> Iterator[dict]:
    """Per-line class membership records; malformed lines yield error records."""
    return (record for _ok, _text, record in _each_line(lines, _classify, True))


def _cmd_recognize(args) -> int:
    if args.klass is None:
        return _run_lines(args, _classify)

    def handle(g, records):
        if args.klass == "62":
            cert, verdict = None, cl.is_62_graph(g)
        else:
            cert = cl.certificate(g, args.klass)
            verdict = cert is None
        if not records:
            return verdict, str(verdict).lower(), {}
        record = {"verdict": verdict,
                  "canonical": cl.member_key(g, args.klass if verdict else None).hex()}
        if cert is not None and not args.quiet:
            record["certificate"] = cert
        return verdict, str(verdict).lower(), record

    return _run_lines(args, handle)


def _tree_json(node) -> dict:
    if isinstance(node, cl.Leaf):
        return {"kind": "leaf", "vertex": node.vertex}
    if isinstance(node, (cl.UnionNode, cl.JoinNode)):
        kind = "union" if isinstance(node, cl.UnionNode) else "join"
        return {"kind": kind, "children": [_tree_json(c) for c in node.children]}
    if isinstance(node, cl.SpiderNode):
        p = node.partition
        return {
            "kind": "spider",
            "thin": p.thin,
            "legs": list(p.legs),
            "body": list(p.body),
            "pairing": [list(pair) for pair in p.pairing],
            "head": _tree_json(node.head) if node.head else None,
        }
    if isinstance(node, cl.ExtGraphNode):
        return {"kind": "extgraph", "name": node.kind, "vertices": list(node.members)}
    return {
        "kind": "extspider",
        "name": node.kind,
        "endpoints": list(node.endpoints),
        "midpoints": list(node.midpoints),
        "head": _tree_json(node.head),
    }


def _render_tree(tree) -> str:
    """One-line text form of a decomposition tree, read off its JSON form."""

    def render(t) -> str:
        kind = t["kind"]
        if kind == "leaf":
            return str(t["vertex"])
        if kind in ("union", "join"):
            return f"{kind}(" + ",".join(map(render, t["children"])) + ")"
        if kind == "spider":
            head = render(t["head"]) if t["head"] else "-"
            thin = "thin" if t["thin"] else "thick"
            return f"spider[{thin}](S={t['legs']},K={t['body']},head={head})"
        if kind == "extgraph":
            return f"ext[{t['name']}]({','.join(map(str, t['vertices']))})"
        return (f"extspider[{t['name']}](S={t['endpoints']},"
                f"K={t['midpoints']},head={render(t['head'])})")

    return render(_tree_json(tree))


def _cmd_decompose(args) -> int:
    def handle(g, records):
        try:
            tree = cl.build_decomposition(g, args.klass)
        except NotInClass as exc:
            return (False, f"not in class: certificate={exc.certificate}",
                    {"verdict": False, "certificate": exc.certificate})
        record = {"verdict": True, "tree": _tree_json(tree)}
        if records:
            record["canonical"] = cl.member_key(g, tree=tree).hex()
        return True, _render_tree(tree), record

    return _run_lines(args, handle)


def _cmd_polar(args) -> int:
    spec = po.parse_spec(args.spec)

    def handle(g, records):
        witness = po.find_polar_partition(g, spec)
        record = {"verdict": witness is not None}
        if records:
            record["canonical"] = g.canonical_key().hex()
        if witness is None:
            return False, "none", record
        if args.quiet:
            return True, "present", record
        record["witness"] = {"a": list(witness.a), "b": list(witness.b)}
        return True, f"A={list(witness.a)} B={list(witness.b)}", record

    return _run_lines(args, handle)


# ---------------------------------------------------------------------------
# generators and the harness


def _emit_graphs(args, graphs, spec=None) -> None:
    # emit the canonical labeling so isomorphic results match byte-for-byte
    # across the enumerate / construct / catalog routes
    for g in graphs:
        if args.format == "json":
            print(json.dumps(ob.obstruction_record(g, spec), sort_keys=True))
        else:
            print(graph6_encode(gr.canonical_form(g)))


def _open_sidecar(path):
    """The sidecar file opened for writing (before any output), or a null context."""
    try:
        return open(path, "w", encoding="utf-8") if path else nullcontext()
    except OSError as exc:
        raise BadParameter(f"cannot write sidecar: {exc}") from None


def _cmd_obstructions(args) -> int:
    if args.action in ("enumerate", "check") and not args.spec:
        raise BadParameter(f"obstructions {args.action} needs --spec")
    if args.action in ("enumerate", "construct") and not args.klass:
        raise BadParameter(f"obstructions {args.action} needs --class")
    if args.action == "enumerate":
        spec = po.parse_spec(args.spec)
        n_max = _resolve_max_n(args, ob.OBSTRUCTION_CAP)
        with _open_sidecar(args.sidecar) as sidecar:
            graphs = ob.enumerate_minimal_obstructions(args.klass, spec, n_max)
            if sidecar is None:
                _emit_graphs(args, graphs, None if args.quiet else spec)
                return 0
            records = [ob.obstruction_record(g, spec) for g in graphs]
            if args.format == "json" and not args.quiet:
                for rec in records:  # the sidecar's records, witnesses computed once
                    print(json.dumps(rec, sort_keys=True))
            else:
                _emit_graphs(args, graphs)
            json.dump(records, sidecar, indent=2)
        return 0
    if args.action == "construct":
        if args.s is None:
            raise BadParameter("obstructions construct needs --s")
        _emit_graphs(args, ob.construct_s1_obstructions(args.klass, args.s))
        return 0
    if args.action == "catalog":
        if not args.id:
            raise BadParameter("obstructions catalog needs --id")
        _emit_graphs(args, ob.catalog_list(args.id, args.s))
        return 0
    spec = po.parse_spec(args.spec)

    def handle(g, records):
        # only JSON lines without --quiet print witnesses
        report = ob.is_minimal_obstruction(g, spec, witnesses=records and not args.quiet)
        record = {"verdict": report.is_minimal, "obstruction": report.is_obstruction}
        if records:
            record["canonical"] = g.canonical_key().hex()
        if report.deletion_witnesses:
            record["witness"] = report.witnesses_json()
        return report.is_minimal, (
            f"obstruction={str(report.is_obstruction).lower()} "
            f"minimal={str(report.is_minimal).lower()}"), record

    return _run_lines(args, handle)


def _cmd_verify(args) -> int:
    report = ob.verify_claim(args.claim, _resolve_max_n(args))
    if args.format == "json":
        print(json.dumps(report.__dict__, sort_keys=True))
    else:
        print(f"claim {report.claim} at n<={report.n_max}: "
              f"{'pass' if report.passed else 'FAIL'}")
        for key, value in sorted(report.details.items()):
            print(f"  {key}: {value}")
        for bad in report.counterexamples:
            print(f"  counterexample: {bad}")
    return 0 if report.passed else 1


def _cmd_gen(args) -> int:
    n_max = _resolve_max_n(args)
    if args.klass == "all":
        graphs = gr.enumerate_graphs(n_max)
    else:
        graphs = cl.generate_class(args.klass, n_max)
    _emit_graphs(args, graphs)
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--max-n", type=_int, default=None, dest="max_n")
    common.add_argument("--workers", type=_positive_int, default=1)
    common.add_argument("--quiet", action="store_true")

    parser = argparse.ArgumentParser(
        prog="polaritylab",
        description="Graph-class recognition, polar partitions, and minimal "
        "obstruction lists over graph6 streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recognize", parents=[common],
                       help="class membership per input line")
    p.add_argument("--class", dest="klass", choices=cl.CLASS_IDS, default=None)
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("decompose", parents=[common],
                       help="decomposition tree per input line")
    p.add_argument("--class", dest="klass", required=True,
                   choices=("p4sparse", "p4extendible"))
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("polar", parents=[common],
                       help="polar partition witness per input line")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=_cmd_polar)

    p = sub.add_parser("obstructions", parents=[common])
    p.add_argument("action", choices=("enumerate", "construct", "catalog", "check"))
    p.add_argument("--class", dest="klass", choices=("p4sparse", "p4extendible"))
    p.add_argument("--spec")
    p.add_argument("--s", type=_int, default=None)
    p.add_argument("--id")
    p.add_argument("--sidecar", help="also write a JSON sidecar file")
    p.set_defaults(func=_cmd_obstructions)

    p = sub.add_parser("verify", parents=[common], help="run a claim check")
    p.add_argument("--claim", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", parents=[common], help="stream class members")
    p.add_argument("--class", dest="klass", required=True,
                   choices=cl.CLASS_IDS + ("all",))
    p.set_defaults(func=_cmd_gen)
    return parser


def run(argv=None) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"cap violation: {exc}", file=sys.stderr)
        return 3
    except PolarityLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
