"""CLI tests driven through run(argv) with redirected stdin/stdout."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import polaritylab
from polaritylab import graphs
from polaritylab import obstructions as ob
from polaritylab.cli import _build_parser, classify_stream, run
from polaritylab.graphs import (
    catalog,
    complete_graph,
    cycle_graph,
    graph6_decode,
    graph6_encode,
    headless_spider,
    is_isomorphic,
    path_graph,
    union_all,
)
from polaritylab.polarity import parse_spec


def cli(argv, stdin="", monkeypatch=None):
    out = io.StringIO()
    old_stdin, old_stdout = sys.stdin, sys.stdout
    sys.stdin = io.StringIO(stdin)
    sys.stdout = out
    try:
        code = run(argv)
    finally:
        sys.stdin, sys.stdout = old_stdin, old_stdout
    return code, out.getvalue()


def g6(g):
    return graph6_encode(g)


def test_recognize_predicate():
    code, out = cli(["recognize", "--class", "p4sparse"], "Ch\n")
    assert code == 0 and out == "Ch\ttrue\n"
    code, out = cli(["recognize", "--class", "p4sparse"], g6(cycle_graph(5)) + "\n")
    assert code == 1 and "false" in out
    # the structural verdict is decompose's; recognize has no --mode
    code, out = cli(
        ["decompose", "--class", "p4extendible"], g6(headless_spider(3)) + "\n"
    )
    assert code == 1 and "not in class" in out
    code, _out = cli(["recognize", "--class", "p4extendible", "--mode", "structural"],
                     g6(headless_spider(3)) + "\n")
    assert code == 2


def test_cograph_certificate_is_the_lexicographically_first_p4():
    # the net labeled so that its P4 masks run against the vertex tuples'
    # order: (0,1,4,5) has the largest mask of its three P4s
    code, out = cli(["recognize", "--class", "cograph", "--format", "json"], "E@UW\n")
    assert code == 1
    assert json.loads(out)["certificate"] == [0, 1, 4, 5]
    # C5 is not P4-sparse either, and its certificate is still a P4
    code, out = cli(["recognize", "--class", "cograph", "--format", "json"], "Dhc\n")
    assert code == 1
    assert json.loads(out)["certificate"] == [0, 1, 2, 3]


@pytest.mark.parametrize("class_id", ["cograph", "p4sparse", "p4extendible"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_recognize_class_computes_one_certificate_per_line(class_id, fmt, monkeypatch):
    # the verdict is read off the certificate the JSON record prints
    _code, lines = cli(["gen", "--class", "all", "--max-n", "6"])
    calls = []
    certificate = polaritylab.classes.certificate
    monkeypatch.setattr(polaritylab.classes, "certificate",
                        lambda g, c: calls.append(c) or certificate(g, c))
    code, out = cli(["recognize", "--class", class_id, "--format", fmt], lines)
    assert code == 1 and len(calls) == len(lines.splitlines()) == 208
    if fmt == "json":
        records = [json.loads(line) for line in out.splitlines()]
        assert all(("certificate" in r) != r["verdict"] for r in records)


def test_recognize_classify_mode():
    code, out = cli(["recognize"], "@\n")
    assert code == 0
    assert "cograph=true" in out and "62=true" in out and "p4_count=0" in out
    code, out = cli(["recognize", "--format", "json"], g6(cycle_graph(5)) + "\n")
    rec = json.loads(out)
    assert rec["classes"] == {
        "cograph": False, "p4sparse": False, "p4extendible": True, "62": False,
    }
    assert rec["p4_count"] == 5


def _relabelled(g, seed):
    p = random.Random(seed).sample(range(g.n), g.n)
    return graphs.from_edges(g.n, [(p[u], p[v]) for u, v in g.edges()])


def _key_rows(hex_key):
    """The rows of the graph a canonical key spells."""
    key = bytes.fromhex(hex_key)
    n, nbits = key[0], key[0] * (key[0] - 1) // 2
    return graphs._rows(n, int.from_bytes(key[1:], "big") >> (8 * len(key[1:]) - nbits))


def test_recognize_labels_twin_blow_ups_by_their_cotrees(monkeypatch):
    # 14*K2, 16*K2, K_{2x15} and K_{2x16} passed LABEL_CAP when their search
    # paired holders; with the swaps of their cotrees' sibling subtrees each
    # takes under 70,000 steps. A graph whose every degree is 1 (or n - 2) is
    # j*K2 (or K_{2xj}), so a key that spells one relabels the input
    monkeypatch.setattr(graphs, "LABEL_CAP", 100_000)
    blow_ups = [(_relabelled(union_all(*[complete_graph(2)] * j), j), 1) for j in (14, 16)]
    blow_ups += [(_relabelled(graphs.complete_multipartite([2] * j), j), 2 * j - 2)
                 for j in (15, 16)]
    code, out = cli(["recognize", "--format", "json"], "".join(g6(g) + "\n" for g, _ in blow_ups))
    assert code == 0
    for (g, degree), line in zip(blow_ups, out.splitlines()):
        rows = _key_rows(json.loads(line)["canonical"])
        assert len(rows) == g.n and all(row.bit_count() == degree for row in rows)


def test_twin_blow_ups_get_the_plain_search_s_key():
    # 12*K2 and K_{2x12}, which the search that pairs holders labels too
    lines = [g6(_relabelled(union_all(*[complete_graph(2)] * 12), 1)),
             g6(_relabelled(graphs.complete_multipartite([2] * 12), 2))]
    want = [graph6_decode(line).canonical_key().hex() for line in lines]
    for command in (["recognize"], ["recognize", "--class", "cograph"],
                    ["decompose", "--class", "p4sparse"]):
        code, out = cli(command + ["--format", "json"], "".join(line + "\n" for line in lines))
        assert code == 0
        assert [json.loads(record)["canonical"] for record in out.splitlines()] == want


def test_classify_stream_errors_inline():
    records = list(classify_stream(["@", "!!", "Ch"]))
    assert len(records) == 3
    assert "error" in records[1] and "classes" in records[2]
    code, _out = cli(["recognize"], "@\n!!\nCh\n")
    assert code == 1


def test_decompose():
    code, out = cli(["decompose", "--class", "p4extendible"], g6(cycle_graph(5)) + "\n")
    assert code == 0 and "ext[c5]" in out
    code, out = cli(
        ["decompose", "--class", "p4sparse", "--format", "json"],
        g6(catalog("net")) + "\n",
    )
    rec = json.loads(out)
    assert rec["tree"]["kind"] == "spider" and rec["tree"]["head"] is None
    code, out = cli(["decompose", "--class", "p4sparse"], g6(cycle_graph(5)) + "\n")
    assert code == 1 and "not in class" in out


def test_polar_witness_and_exit_codes():
    code, out = cli(["polar", "--spec", "sk:1,inf"], g6(catalog("k2,3")) + "\n")
    assert code == 0 and "A=[0, 1]" in out
    code, out = cli(["polar", "--spec", "sk:1,inf", "--quiet"], g6(catalog("k2,3")) + "\n")
    assert code == 0 and "present" in out and "A=" not in out
    code, out = cli(["polar", "--spec", "sk:1,1"], g6(cycle_graph(5)) + "\n")
    assert code == 1 and "none" in out


def test_obstructions_enumerate_and_json_roundtrip():
    code, out = cli(
        ["obstructions", "enumerate", "--class", "p4sparse", "--spec", "sk:2,1",
         "--max-n", "8", "--workers", "1"]
    )
    lines = out.strip().split("\n")
    assert code == 0 and len(lines) == 9
    want = {catalog(f"e{i}").canonical_key() for i in range(1, 10)}
    assert {graph6_decode(t).canonical_key() for t in lines} == want
    code, out = cli(
        ["obstructions", "enumerate", "--class", "p4sparse", "--spec", "sk:2,1",
         "--max-n", "8", "--workers", "1", "--format", "json"]
    )
    for line in out.strip().split("\n"):
        rec = json.loads(line)
        g = graph6_decode(rec["graph6"])
        assert g.canonical_key().hex() == rec["canonical"]
        assert rec["minimal"] is True and rec["property"] == "sk:2,1"


def test_obstructions_workers_equal(tmp_path):
    argv = ["obstructions", "enumerate", "--class", "p4extendible",
            "--spec", "unipolar", "--max-n", "6"]
    _, one = cli(argv + ["--workers", "1"])
    _, two = cli(argv + ["--workers", "2"])
    assert one == two and len(one.strip().split("\n")) == 3


def test_obstructions_sidecar(tmp_path):
    side = tmp_path / "list.json"
    code, out = cli(
        ["obstructions", "enumerate", "--class", "p4sparse", "--spec", "unipolar",
         "--max-n", "6", "--workers", "1", "--sidecar", str(side)]
    )
    assert code == 0
    data = json.loads(side.read_text())
    assert len(data) == 2
    assert all(rec["minimal"] for rec in data)
    assert {rec["graph6"] for rec in data} == set(out.strip().split("\n"))


def test_unwritable_sidecar_exits_2_before_any_output(tmp_path, capsys):
    side = tmp_path / "missing" / "list.json"
    code, out = cli(["obstructions", "enumerate", "--class", "p4sparse", "--spec",
                     "unipolar", "--max-n", "5", "--sidecar", str(side)])
    assert code == 2 and out == "" and not side.exists()
    assert capsys.readouterr().err.startswith("error: cannot write sidecar")


def test_obstructions_sidecar_screens_each_member_once(tmp_path, monkeypatch):
    # JSON stdout and the sidecar share one witness record per member
    members = [catalog("k2,3"), union_all(path_graph(3), path_graph(3))]
    monkeypatch.setattr(ob, "enumerate_minimal_obstructions", lambda *a, **kw: members)
    calls = []
    decide = ob.is_minimal_obstruction  # decides a record and finds its witnesses
    monkeypatch.setattr(ob, "is_minimal_obstruction",
                        lambda g, spec, witnesses=True: calls.append(g) or decide(g, spec, witnesses))
    side = tmp_path / "list.json"
    code, out = cli(["obstructions", "enumerate", "--class", "p4sparse", "--spec",
                     "unipolar", "--format", "json", "--sidecar", str(side)])
    assert code == 0 and len(calls) == 2
    assert [json.loads(line) for line in out.splitlines()] == json.loads(side.read_text())


def test_obstructions_construct_catalog_check():
    code, out = cli(["obstructions", "construct", "--class", "p4extendible", "--s", "2"])
    assert code == 0 and len(out.strip().split("\n")) == 13
    code, out = cli(["obstructions", "catalog", "--id", "egraphs"])
    assert code == 0 and len(out.strip().split("\n")) == 13
    code, out = cli(["obstructions", "catalog", "--id", "s1fixed", "--s", "3"])
    assert code == 0 and len(out.strip().split("\n")) == 3
    code, out = cli(["obstructions", "check", "--spec", "unipolar"],
                    g6(catalog("k2,3")) + "\n")
    assert code == 0 and "obstruction=true minimal=true" in out
    code, out = cli(["obstructions", "check", "--spec", "unipolar"],
                    g6(path_graph(3)) + "\n")
    assert code == 1 and "obstruction=false" in out


def test_obstructions_check_searches_for_witnesses_only_to_print_them(monkeypatch):
    # text and --quiet lines print verdicts alone, so no witness is searched for
    line = g6(catalog("k2,3")) + "\n"
    searches = []
    search = ob.find_polar_partition
    monkeypatch.setattr(ob, "find_polar_partition", lambda *a: searches.append(a) or search(*a))
    for extra in ([], ["--quiet"], ["--format", "json", "--quiet"]):
        code, _ = cli(["obstructions", "check", "--spec", "unipolar", *extra], line)
        assert code == 0 and searches == []
    code, out = cli(["obstructions", "check", "--spec", "unipolar", "--format", "json"], line)
    assert code == 0 and len(searches) == 5 and set(json.loads(out)["witness"]) == set("01234")


def test_verify():
    code, out = cli(["verify", "--claim", "sparse_cog", "--max-n", "6"])
    assert code == 0 and "pass" in out
    _, two = cli(["verify", "--claim", "sparse_cog", "--max-n", "6", "--workers", "2"])
    assert two == out
    code, out = cli(["verify", "--claim", "bound", "--max-n", "6", "--format", "json"])
    rec = json.loads(out)
    assert code == 0 and rec["passed"] is True
    code, _ = cli(["verify", "--claim", "bogus", "--max-n", "6"])
    assert code == 2


def test_verify_prints_each_counterexample_of_a_failing_claim(monkeypatch):
    # with every graph called no cograph, each (s,1) obstruction of
    # sparse_cog is a counterexample
    monkeypatch.setattr(ob, "is_cograph", lambda g: False)
    code, out = cli(["verify", "--claim", "sparse_cog", "--max-n", "6"])
    lines = out.splitlines()
    bad = [line.removeprefix("  counterexample: ") for line in lines if "counterexample" in line]
    want = [graph6_encode(g) for s in (2, 3)
            for g in ob.enumerate_minimal_obstructions("p4sparse", parse_spec(f"sk:{s},1"), 6)]
    assert code == 1 and lines[0] == "claim sparse_cog at n<=6: FAIL"
    assert bad and bad == want


def test_gen():
    code, out = cli(["gen", "--class", "cograph", "--max-n", "4"])
    assert code == 0 and len(out.strip().split("\n")) == 17
    code, out = cli(["gen", "--class", "all", "--max-n", "4"])
    assert code == 0 and len(out.strip().split("\n")) == 18


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_gen_labels_each_printed_graph_once(fmt, searches):
    # the search that sorts (or accepts) a graph caches the bits that
    # canonical_form spells; the enumeration's 284 searches print 208
    # graphs, and the 76 children labeled and rejected add no output
    code, out = cli(["gen", "--class", "cograph", "--max-n", "6", "--format", fmt])
    assert code == 0 and len(searches) == len(out.splitlines()) == 107
    searches.clear()
    code, out = cli(["gen", "--class", "all", "--max-n", "6", "--format", fmt])
    assert code == 0 and len(out.splitlines()) == 208
    enumerated = len(searches)
    searches.clear()
    list(graphs.enumerate_graphs(6))
    assert enumerated == len(searches) == 284


def test_gen_all_output_is_pinned():
    # the enumeration route of gen; the digest predates the column bound in
    # enumerate_graphs, which must not change a byte
    code, out = cli(["gen", "--class", "all", "--max-n", "7"])
    assert code == 0 and len(out.splitlines()) == 1252
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9701eab755be7693d0f64a5dbf0fe67ab3917e7e402028802f12a41bf542510a")


def test_cap_violations_exit_3(monkeypatch):
    code, _ = cli(["gen", "--class", "all", "--max-n", "11"])
    assert code == 3
    monkeypatch.setenv("POLARITYLAB_MAX_N", "12")
    code, _ = cli(["gen", "--class", "cograph"])
    assert code == 3
    monkeypatch.setenv("POLARITYLAB_MAX_N", "3")
    code, out = cli(["gen", "--class", "cograph"])
    assert code == 0 and len(out.strip().split("\n")) == 7


def test_obstruction_enumeration_has_its_own_cap(monkeypatch):
    # the critical closure answers past ENUM_CAP, which keeps guarding gen,
    # verify and exhaustive enumeration
    code, out = cli(["obstructions", "enumerate", "--class", "p4sparse", "--spec", "sk:3,2",
                     "--max-n", "12"])
    assert code == 0 and len(out.splitlines()) == 90
    over = str(ob.OBSTRUCTION_CAP + 1)
    code, out = cli(["obstructions", "enumerate", "--class", "p4sparse", "--spec", "sk:3,2",
                     "--max-n", over])
    assert code == 3 and out == ""
    for argv in (["gen", "--class", "cograph", "--max-n", "11"],
                 ["verify", "--claim", "bound", "--max-n", "11"]):
        assert cli(argv)[0] == 3, argv
    monkeypatch.setenv("POLARITYLAB_MAX_N", over)
    assert cli(["obstructions", "enumerate", "--class", "p4sparse", "--spec", "unipolar"])[0] == 3
    monkeypatch.setenv("POLARITYLAB_MAX_N", "11")
    code, out = cli(["obstructions", "enumerate", "--class", "p4sparse", "--spec", "unipolar"])
    assert code == 0 and len(out.splitlines()) == 2
    with pytest.raises(polaritylab.CapExceeded):
        ob.enumerate_minimal_obstructions("p4sparse", polaritylab.UNIPOLAR, ob.OBSTRUCTION_CAP + 1)
    with pytest.raises(polaritylab.CapExceeded):
        list(polaritylab.classes.generate_class("cograph", graphs.ENUM_CAP + 1))


def test_usage_errors_exit_2():
    code, _ = cli(["nope"])
    assert code == 2
    code, _ = cli(["polar", "--spec", "sk:x,y"], "@\n")
    assert code == 2
    code, _ = cli(["obstructions", "catalog", "--id", "unknown-list"])
    assert code == 2
    for argv in (
        ["obstructions", "enumerate", "--class", "p4sparse"],
        ["obstructions", "enumerate", "--spec", "sk:2,1"],
        ["obstructions", "construct", "--class", "p4sparse"],
        ["obstructions", "catalog"],
        ["obstructions", "check"],
    ):
        code, _ = cli(argv)
        assert code == 2, argv


def test_golden_corpus_exit_codes():
    """Twenty inputs with pinned per-command verdicts."""
    e2 = union_all(path_graph(3), path_graph(3))
    corpus = [
        # (argv, graph, expected exit)
        (["recognize", "--class", "cograph"], complete_graph(1), 0),
        (["recognize", "--class", "cograph"], path_graph(4), 1),
        (["recognize", "--class", "p4sparse"], path_graph(4), 0),
        (["recognize", "--class", "p4sparse"], cycle_graph(5), 1),
        (["recognize", "--class", "p4extendible"], cycle_graph(5), 0),
        (["recognize", "--class", "p4extendible"], headless_spider(3), 1),
        (["recognize", "--class", "62"], path_graph(4), 0),
        (["recognize", "--class", "62"], cycle_graph(5), 1),
        (["polar", "--spec", "sk:1,1"], path_graph(4), 0),
        (["polar", "--spec", "sk:1,1"], cycle_graph(4), 1),
        (["polar", "--spec", "sk:2,1"], cycle_graph(5), 0),
        (["polar", "--spec", "sk:2,1"], catalog("e6"), 1),
        (["polar", "--spec", "unipolar"], path_graph(3), 0),
        (["polar", "--spec", "unipolar"], e2, 1),
        (["polar", "--spec", "monopolar"], catalog("k2,3"), 0),
        (["polar", "--spec", "monopolar"], catalog("e1").complement(), 1),
        (["obstructions", "check", "--spec", "sk:2,1"], catalog("e13"), 0),
        (["obstructions", "check", "--spec", "sk:2,1"], complete_graph(3), 1),
        (["decompose", "--class", "p4sparse"], catalog("net"), 0),
        (["decompose", "--class", "p4extendible"], headless_spider(3), 1),
    ]
    assert len(corpus) == 20
    for argv, graph, expected in corpus:
        code, _ = cli(argv, g6(graph) + "\n")
        assert code == expected, (argv, g6(graph))


# a line the handler rejects gets one error line, and the lines after it still run
P4, ORDER_21 = g6(path_graph(4)), g6(path_graph(21))  # 21 > the solver's search cap


def test_decompose_order_zero_line_is_a_line_error():
    code, out = cli(["decompose", "--class", "p4sparse"], "Ch\n?\nCh\n")
    assert code == 1
    assert out == (
        "Ch\tspider[thin](S=[0, 3],K=[1, 2],head=-)\n"
        "?\terror: the empty graph has no decomposition tree\n"
        "Ch\tspider[thin](S=[0, 3],K=[1, 2],head=-)\n"
    )


def test_polar_over_search_cap_line_is_a_line_error():
    code, out = cli(["polar", "--spec", "sk:1,1"], f"{P4}\n{ORDER_21}\n{P4}\n")
    assert code == 1
    assert out == (
        f"{P4}\tA=[0, 3] B=[1, 2]\n"
        f"{ORDER_21}\terror: order 21 exceeds search cap 20\n"
        f"{P4}\tA=[0, 3] B=[1, 2]\n"
    )


def test_obstructions_check_over_search_cap_line_is_a_line_error():
    code, out = cli(["obstructions", "check", "--spec", "sk:1,1"], f"{ORDER_21}\n{P4}\n")
    assert code == 1
    assert out == (
        f"{ORDER_21}\terror: order 21 exceeds search cap 20\n"
        f"{P4}\tobstruction=false minimal=false\n"
    )
    code, out = cli(["obstructions", "check", "--spec", "sk:1,1", "--format", "json"],
                    ORDER_21 + "\n")
    assert code == 1
    assert json.loads(out) == {
        "input": ORDER_21, "error": "CapExceeded: order 21 exceeds search cap 20"}


def test_bad_max_n_environment_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("POLARITYLAB_MAX_N", "abc")
    code, _ = cli(["gen", "--class", "cograph"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: POLARITYLAB_MAX_N='abc'")


def test_integers_are_ascii_digits(monkeypatch, capsys):
    # int() alone also reads other scripts' digits, underscores, spaces and
    # a plus sign; each is a usage error, exit 2
    for bad in ("\u0663", "0_3", " 3", "+3"):
        for argv in (["gen", "--class", "cograph", "--max-n", bad],
                     ["gen", "--class", "cograph", "--max-n", "3", "--workers", bad],
                     ["obstructions", "construct", "--class", "p4sparse", "--s", bad]):
            assert cli(argv) == (2, ""), argv
        monkeypatch.setenv("POLARITYLAB_MAX_N", bad)
        assert cli(["gen", "--class", "cograph"]) == (2, "")
        assert capsys.readouterr().err.endswith("is not an integer\n")
    monkeypatch.setenv("POLARITYLAB_MAX_N", "3")
    code, out = cli(["gen", "--class", "cograph"])
    assert code == 0 and len(out.splitlines()) == 7
    # a minus sign still reads, so a negative bound stays a cap violation
    assert cli(["gen", "--class", "cograph", "--max-n", "-3"])[0] == 3


def test_workers_is_a_positive_int_defaulting_to_serial():
    assert _build_parser().parse_args(["verify", "--claim", "bound"]).workers == 1
    for bad in ("0", "-1", "x"):
        code, _ = cli(["verify", "--claim", "bound", "--max-n", "6", "--workers", bad])
        assert code == 2, bad


def test_python_dash_m_runs_the_cli():
    src = str(Path(polaritylab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-m", "polaritylab.cli", "recognize", "--class", "p4sparse"],
        input="Ch\nDhc\n", capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout) == (1, "Ch\ttrue\nDhc\tfalse\n")



def test_list_checker_passes_the_printed_list_and_flags_misplaced_witnesses():
    # scripts/check_list.py reads the records with perfbench/oracle.py alone;
    # witnesses on the member's own labels, not the printed graph's, fail it
    checker = Path(__file__).resolve().parent.parent / "scripts" / "check_list.py"
    spec = parse_spec("sk:2,1")
    code, printed = cli(["obstructions", "enumerate", "--class", "p4sparse", "--spec", "sk:2,1",
                         "--max-n", "7", "--format", "json"])
    misplaced = "".join(
        json.dumps(dict(ob.obstruction_record(g), property=spec.label(), minimal=True,
                        witnesses=ob.is_minimal_obstruction(g, spec).witnesses_json())) + "\n"
        for g in ob.enumerate_minimal_obstructions("p4sparse", spec, 7))
    assert code == 0
    for records, want in ((printed, 0), (misplaced, 1)):
        done = subprocess.run([sys.executable, str(checker), "--class", "p4sparse"],
                              input=records, capture_output=True, text=True, timeout=60)
        assert done.returncode == want and done.stdout.startswith("9 records checked")
    assert "is not a valid partition" in done.stderr


# P4, C5, the bull (a P4-spider over K1), a malformed line, and the net
GOLDEN_CORPUS = "Ch\nDhc\nDhW\n!!\nE{O_\n"
GOLDEN_OUTPUT = {
    ("recognize", "text"): (
        'Ch\tcograph=false p4sparse=true p4extendible=true 62=true p4_count=1',
        'Dhc\tcograph=false p4sparse=false p4extendible=true 62=false p4_count=5',
        'DhW\tcograph=false p4sparse=true p4extendible=true 62=true p4_count=1',
        '!!\terror: header byte 33 outside 63..125',
        'E{O_\tcograph=false p4sparse=true p4extendible=false 62=false p4_count=3',
    ),
    ("recognize", "json"): (
        '{"canonical": "0434", "classes": {"62": true, "cograph": false, "p4extendible": true, "p4sparse": true}, "input": "Ch", "p4_count": 1}',
        '{"canonical": "053700", "classes": {"62": false, "cograph": false, "p4extendible": true, "p4sparse": false}, "input": "Dhc", "p4_count": 5}',
        '{"canonical": "050ec0", "classes": {"62": true, "cograph": false, "p4extendible": true, "p4sparse": true}, "input": "DhW", "p4_count": 1}',
        '{"error": "MalformedHeader: header byte 33 outside 63..125", "input": "!!"}',
        '{"canonical": "060566", "classes": {"62": false, "cograph": false, "p4extendible": false, "p4sparse": true}, "input": "E{O_", "p4_count": 3}',
    ),
    ("recognize --class p4sparse", "text"): (
        'Ch\ttrue',
        'Dhc\tfalse',
        'DhW\ttrue',
        '!!\terror: header byte 33 outside 63..125',
        'E{O_\ttrue',
    ),
    ("recognize --class p4sparse", "json"): (
        '{"canonical": "0434", "input": "Ch", "verdict": true}',
        '{"canonical": "053700", "certificate": [0, 1, 2, 3, 4], "input": "Dhc", "verdict": false}',
        '{"canonical": "050ec0", "input": "DhW", "verdict": true}',
        '{"error": "MalformedHeader: header byte 33 outside 63..125", "input": "!!"}',
        '{"canonical": "060566", "input": "E{O_", "verdict": true}',
    ),
    ("decompose --class p4extendible", "text"): (
        'Ch\text[p4](0,1,2,3)',
        'Dhc\text[c5](0,1,2,3,4)',
        'DhW\textspider[p4](S=[0, 3],K=[1, 2],head=4)',
        '!!\terror: header byte 33 outside 63..125',
        "E{O_\tnot in class: certificate=('extension_set', (0, 1, 3, 4), (2, 5))",
    ),
    ("decompose --class p4extendible", "json"): (
        '{"canonical": "0434", "input": "Ch", "tree": {"kind": "extgraph", "name": "p4", "vertices": [0, 1, 2, 3]}, "verdict": true}',
        '{"canonical": "053700", "input": "Dhc", "tree": {"kind": "extgraph", "name": "c5", "vertices": [0, 1, 2, 3, 4]}, "verdict": true}',
        '{"canonical": "050ec0", "input": "DhW", "tree": {"endpoints": [0, 3], "head": {"kind": "leaf", "vertex": 4}, "kind": "extspider", "midpoints": [1, 2], "name": "p4"}, "verdict": true}',
        '{"error": "MalformedHeader: header byte 33 outside 63..125", "input": "!!"}',
        '{"certificate": ["extension_set", [0, 1, 3, 4], [2, 5]], "input": "E{O_", "verdict": false}',
    ),
    ("polar --spec sk:2,1", "text"): (
        'Ch\tA=[0, 1] B=[2, 3]',
        'Dhc\tA=[0, 1, 2] B=[3, 4]',
        'DhW\tA=[0, 3] B=[1, 2, 4]',
        '!!\terror: header byte 33 outside 63..125',
        'E{O_\tA=[3, 4, 5] B=[0, 1, 2]',
    ),
    ("polar --spec sk:2,1", "json"): (
        '{"canonical": "0434", "input": "Ch", "verdict": true, "witness": {"a": [0, 1], "b": [2, 3]}}',
        '{"canonical": "053700", "input": "Dhc", "verdict": true, "witness": {"a": [0, 1, 2], "b": [3, 4]}}',
        '{"canonical": "050ec0", "input": "DhW", "verdict": true, "witness": {"a": [0, 3], "b": [1, 2, 4]}}',
        '{"error": "MalformedHeader: header byte 33 outside 63..125", "input": "!!"}',
        '{"canonical": "060566", "input": "E{O_", "verdict": true, "witness": {"a": [3, 4, 5], "b": [0, 1, 2]}}',
    ),
    ("obstructions check --spec unipolar", "text"): (
        'Ch\tobstruction=false minimal=false',
        'Dhc\tobstruction=true minimal=true',
        'DhW\tobstruction=false minimal=false',
        '!!\terror: header byte 33 outside 63..125',
        'E{O_\tobstruction=false minimal=false',
    ),
    ("obstructions check --spec unipolar", "json"): (
        '{"canonical": "0434", "input": "Ch", "obstruction": false, "verdict": false}',
        '{"canonical": "053700", "input": "Dhc", "obstruction": true, "verdict": true, "witness": {"0": {"a": [1], "b": [0, 2, 3]}, "1": {"a": [2], "b": [0, 1, 3]}, "2": {"a": [0], "b": [1, 2, 3]}, "3": {"a": [0], "b": [1, 2, 3]}, "4": {"a": [1], "b": [0, 2, 3]}}}',
        '{"canonical": "050ec0", "input": "DhW", "obstruction": false, "verdict": false}',
        '{"error": "MalformedHeader: header byte 33 outside 63..125", "input": "!!"}',
        '{"canonical": "060566", "input": "E{O_", "obstruction": false, "verdict": false}',
    ),
}


@pytest.mark.parametrize("command,fmt", sorted(GOLDEN_OUTPUT))
def test_golden_output_bytes(command, fmt):
    argv = command.split() + ["--format", fmt]
    code, out = cli(argv, GOLDEN_CORPUS)
    assert code == 1
    assert out == "\n".join(GOLDEN_OUTPUT[command, fmt]) + "\n"


# 6*C5 is twin-free and symmetric: its canonical labeling passes LABEL_CAP
SIX_C5 = g6(union_all(*[cycle_graph(5)] * 6))


def test_over_budget_line_is_a_line_error():
    code, out = cli(["recognize", "--format", "json"], f"{SIX_C5}\nCh\n")
    assert code == 1
    first, second = map(json.loads, out.splitlines())
    assert first["input"] == SIX_C5
    assert first["error"].startswith("CapExceeded: canonical labeling of n=30")
    assert second["canonical"] == "0434"


def test_phase_1_cap_is_a_line_error(monkeypatch):
    # 4*C5's phase 1 would grow about 14,600 independent sets
    monkeypatch.setattr(graphs, "LABEL_CAP", 1_000)
    four_c5 = g6(union_all(*[cycle_graph(5)] * 4))
    code, out = cli(["recognize", "--format", "json"], f"{four_c5}\nCh\n")
    first, second = map(json.loads, out.splitlines())
    assert code == 1 and first["input"] == four_c5
    assert first["error"].startswith("CapExceeded: canonical labeling of n=20")
    assert second["canonical"] == "0434"


def _no_labeling(adj):
    raise AssertionError(f"labeled an order-{len(adj)} graph")


@pytest.mark.parametrize("command", [
    "recognize --class p4sparse",
    "polar --spec sk:2,1",
    "obstructions check --spec unipolar",
])
def test_text_mode_never_labels(command, monkeypatch):
    monkeypatch.setattr(graphs, "_min_bits", _no_labeling)
    code, out = cli(command.split(), GOLDEN_CORPUS)
    assert code == 1
    assert out == "\n".join(GOLDEN_OUTPUT[command, "text"]) + "\n"


def test_recognize_class_text_mode_never_labels_an_over_budget_line(monkeypatch):
    monkeypatch.setattr(graphs, "_min_bits", _no_labeling)
    code, out = cli(["recognize", "--class", "cograph"], SIX_C5 + "\n")
    assert (code, out) == (1, f"{SIX_C5}\tfalse\n")
