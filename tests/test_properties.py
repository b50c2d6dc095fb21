"""Property sweep over the library entry points: every input either works or
fails with a documented PolarityLabError. Covers graph6 round-trips,
arbitrary decoder input, spec labels, the builders at the vertex cap, and
the CLI's exit codes over a small argv grammar."""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polaritylab.cli import run
from polaritylab.errors import BadParameter, CapExceeded, PolarityLabError, VertexOutOfRange
from polaritylab.graphs import (
    VERTEX_CAP,
    _min_bits,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    empty_graph,
    from_edges,
    graph6_decode,
    graph6_encode,
    path_graph,
)
from polaritylab.obstructions import is_minimal_obstruction
from polaritylab.polarity import UNIPOLAR, find_polar_partition, parse_spec, satisfies, sk_polar
from test_classes import check_scans
from test_graphs import _check_label, _unpruned_min_bits
from test_polarity import _scan_witness

SWEEP = settings(derandomize=True, deadline=None, max_examples=300)


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    return from_edges(n, [p for i, p in enumerate(pairs) if (bits >> i) & 1])


@st.composite
def graph6_like(draw):
    """Text that reaches the body checks: a header byte, then a body of about
    the right length drawn from around the legal byte range."""
    n = draw(st.integers(0, VERTEX_CAP + 2))
    need = (n * (n - 1) // 2 + 5) // 6
    size = draw(st.integers(max(0, need - 1), need + 1))
    body = draw(st.text(st.characters(min_codepoint=60, max_codepoint=130),
                        min_size=size, max_size=size))
    return chr(63 + n) + body


@SWEEP
@given(graphs())
def test_graph6_roundtrip(g):
    text = graph6_encode(g)
    assert graph6_decode(text) == g
    assert graph6_encode(graph6_decode(text)) == text


@SWEEP
@given(st.text() | graph6_like())
@example("")
@example("~??")
def test_graph6_decode_raises_only_library_errors(text):
    try:
        g = graph6_decode(text)
    except PolarityLabError:
        return
    assert graph6_encode(g) == text  # the decoder accepts only exact encodings


@SWEEP
@given(graphs(max_n=10), st.data())
def test_labeling_matches_the_unpruned_search(g, data):
    # the bits are the unpruned search's, and the canonical form is g
    # relabeled by the unpruned search's minimal labeling
    perm = data.draw(st.permutations(range(g.n)))
    h = from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    bits = _unpruned_min_bits(g.adj)[0]
    for x in (g, h):
        _check_label(x, *_unpruned_min_bits(x.adj))
    assert _min_bits(h.adj) == bits


@SWEEP
@given(graphs(max_n=14))
def test_edge_walks_match_the_subset_scans(g):
    check_scans(g)


bounds = st.none() | st.integers(0, 10**6)


@SWEEP
@given(st.just(UNIPOLAR) | st.builds(sk_polar, bounds, bounds))
def test_spec_label_roundtrip(spec):
    assert parse_spec(spec.label()) == spec


@SWEEP
@given(st.text())
@example("sk:" + "9" * 5000 + ",1")
def test_parse_spec_raises_only_bad_parameter(text):
    try:
        spec = parse_spec(text)
    except BadParameter:
        return
    assert parse_spec(spec.label()) == spec


small_bounds = st.none() | st.integers(0, 5)


@SWEEP
@given(graphs(max_n=14), st.just(UNIPOLAR) | st.builds(sk_polar, small_bounds, small_bounds))
def test_pruned_search_matches_the_exhaustive_scan(g, spec):
    want = _scan_witness(g, spec)
    w = find_polar_partition(g, spec)
    assert (None if w is None else (w.a, w.b)) == want
    assert satisfies(g, spec) == (want is not None)


@SWEEP
@given(graphs(max_n=9), st.just(UNIPOLAR) | st.builds(sk_polar, small_bounds, small_bounds))
@example(from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]), UNIPOLAR)  # 2P3
@example(cycle_graph(5), sk_polar(1, 1))
@example(from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5)]), UNIPOLAR)  # 2P3 + K1
def test_minimality_report_follows_the_definition(g, spec):
    report = is_minimal_obstruction(g, spec)
    assert report.is_obstruction == (_scan_witness(g, spec) is None)
    deletions = {v: _scan_witness(g.delete_vertex(v), spec) for v in range(g.n)}
    minimal = report.is_obstruction and None not in deletions.values()
    assert report.is_minimal == minimal
    got = {v: (w.a, w.b) for v, w in report.deletion_witnesses.items()}
    assert got == (deletions if minimal else {})


BUILDERS = {
    "empty": (empty_graph, 0),
    "complete": (complete_graph, 0),
    "path": (path_graph, 0),
    "cycle": (cycle_graph, 3),
    "multipartite": (lambda n: complete_multipartite((n - n // 2, n // 2)), 0),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
@SWEEP
@given(st.integers(-(10**6), 10**6))
@example(VERTEX_CAP)
@example(VERTEX_CAP + 1)
@example(-1)
def test_builders_at_the_cap(name, n):
    build, least = BUILDERS[name]
    if n > VERTEX_CAP:
        with pytest.raises(CapExceeded):
            build(n)
    elif n < least:
        with pytest.raises(VertexOutOfRange):
            build(n)
    else:
        assert build(n).n == n


# The options each command takes, and the good and bad values each option
# takes in the sweep. --max-n is always given, and its good values are small,
# so no command enumerates past order 4.
COMMANDS = {
    ("recognize",): ("--class",),
    ("decompose",): ("--class",),
    ("polar",): ("--spec",),
    ("gen",): ("--class",),
    ("verify",): ("--claim",),
    ("obstructions", "enumerate"): ("--class", "--spec"),
    ("obstructions", "check"): ("--spec",),
    ("obstructions", "construct"): ("--class", "--s"),
    ("obstructions", "catalog"): ("--id", "--s"),
    ("obstructions", "bogus"): (),
    ("bogus",): (),
}
GOOD = {
    "--format": ("text", "json"),
    "--workers": ("1", "2"),
    "--spec": ("unipolar", "sk:2,1", "sk:inf,1", "polar"),
    "--class": ("p4sparse", "p4extendible", "cograph", "62", "all"),
    "--claim": ("sparse_cog", "bound", "disc_polar", "spider_not_obs"),
    "--s": ("2", "3"),
    "--id": ("polar-sparse", "s1fixed", "egraphs"),
    "--max-n": ("1", "3", "4"),
}
BAD = dict.fromkeys(GOOD, ("bogus", "-1", ""))
BAD.update({"--workers": ("0", "-1", "x"), "--spec": ("sk:x,y", "sk:-1,2", ""),
            "--s": ("1", "-1", "x"), "--max-n": ("0", "11", "x", "-3")})


@st.composite
def argvs(draw):
    def value(opt):  # a bad value one time in four
        return draw(st.sampled_from(GOOD[opt] if draw(st.integers(0, 3)) < 3 else BAD[opt]))

    head = draw(st.sampled_from(sorted(COMMANDS)))
    argv = list(head)
    for opt in ("--format", "--workers") + COMMANDS[head]:
        if draw(st.integers(0, 3)) < 3:  # given three times in four
            argv += [opt, value(opt)]
    if draw(st.integers(0, 4)) == 4:  # an option the command may not take
        opt = draw(st.sampled_from(sorted(GOOD)))
        argv += [opt, value(opt)]
    if draw(st.booleans()):
        argv.append("--quiet")
    return argv + ["--max-n", value("--max-n")]


stdin_lines = st.lists(graphs(max_n=8).map(graph6_encode) | st.text(max_size=12),
                       max_size=4)


@SWEEP
@given(argvs(), stdin_lines)
def test_cli_exit_codes(argv, lines):
    old_stdin = sys.stdin
    sys.stdin = io.StringIO("\n".join(lines) + "\n")
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = run(argv)
    finally:
        sys.stdin = old_stdin
    assert code in (0, 1, 2, 3)
