"""Property sweep over the library entry points: every input either works or
fails with a documented PolarityLabError. Covers graph6 round-trips,
arbitrary decoder input, spec labels, and the builders at the vertex cap."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polaritylab.errors import BadParameter, CapExceeded, PolarityLabError, VertexOutOfRange
from polaritylab.graphs import (
    VERTEX_CAP,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    empty_graph,
    from_edges,
    graph6_decode,
    graph6_encode,
    path_graph,
)
from polaritylab.polarity import UNIPOLAR, parse_spec, sk_polar

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
