import gc
import json
import warnings

import pytest

from maprepair import cli
from maprepair import fault_injector as fi
from maprepair.conflict_detector import detect_all
from maprepair.errors import MapRepairError
from maprepair.graph_core import Edge, NavGraph
from maprepair.advisors import HeuristicAdvisor
from maprepair.repair_engine import ToolConfig, build_context, run_repair
from maprepair.version_store import TRIGGER_OBSERVATION, VersionChain, add


@pytest.fixture
def built_log(tmp_path, capsys):
    transcript = tmp_path / "walk.txt"
    world = fi.generate_grid(3, 3)
    corrupted, ledger = fi.inject(world, ["misdirection"], seed=1)
    transcript.write_text(corrupted.transcript(), encoding="utf-8")
    ledger_path = tmp_path / "ledger.json"
    ledger_path.write_text(json.dumps(ledger.to_json()), encoding="utf-8")
    log = tmp_path / "map.jsonl"
    assert cli.main(["build", "--transcript", str(transcript),
                     "--log", str(log)]) == 0
    capsys.readouterr()
    return log, ledger_path


def test_usage_errors_exit_1(capsys):
    assert cli.main([]) == 1
    assert cli.main(["detect"]) == 1  # missing --log
    assert cli.main(["no-such-command"]) == 1


def test_missing_input_exits_2(tmp_path, capsys):
    assert cli.main(["detect", "--log", str(tmp_path / "absent.jsonl")]) == 2
    assert cli.main(["build", "--transcript", str(tmp_path / "nope.txt"),
                     "--log", str(tmp_path / "out.jsonl")]) == 2


def test_build_refuses_an_existing_log(tmp_path, capsys):
    walk = tmp_path / "w.txt"
    log = tmp_path / "m.jsonl"
    assert cli.main(["synth", "--shape", "loopchain", "--params", "10",
                     "--fault", "misdirection", "--seed", "3",
                     "--out", str(walk)]) == 0
    build = ["build", "--transcript", str(walk), "--log", str(log)]
    assert cli.main(build) == 0
    before = log.read_bytes()
    capsys.readouterr()
    assert cli.main(build) == 2
    assert "exists" in capsys.readouterr().err
    assert log.read_bytes() == before
    assert cli.main(["detect", "--log", str(log)]) == 3


def test_malformed_transcript_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("===========\n==>STEP NUM: 0\n==>ACT: Init\n")
    assert cli.main(["build", "--transcript", str(bad),
                     "--log", str(tmp_path / "out.jsonl")]) == 2


def test_detect_exit_codes(built_log, tmp_path, capsys):
    log, _ = built_log
    assert cli.main(["detect", "--log", str(log)]) == 3
    out = capsys.readouterr().out
    assert "conflict" in out

    clean = tmp_path / "clean.jsonl"
    world = fi.generate_grid(2, 2)
    walk = tmp_path / "clean.txt"
    walk.write_text(world.transcript(), encoding="utf-8")
    assert cli.main(["build", "--transcript", str(walk),
                     "--log", str(clean)]) == 0
    capsys.readouterr()
    assert cli.main(["detect", "--log", str(clean)]) == 0


def test_detect_json_output(built_log, capsys):
    log, _ = built_log
    assert cli.main(["detect", "--log", str(log), "--json"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload and {"kind", "subkind"} <= set(payload[0])


def test_localize_ranks_candidates(built_log, capsys):
    log, _ = built_log
    assert cli.main(["localize", "--log", str(log)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lca"]
    assert payload["candidates"]
    assert {"src", "dst", "dir", "step", "score"} <= \
        set(payload["candidates"][0])
    assert cli.main(["localize", "--log", str(log), "--conflict", "99"]) == 2


@pytest.mark.parametrize("silent", [[], ["--include-silent"]],
                         ids=["suffix", "include-silent"])
def test_localize_with_no_candidate_prints_an_empty_ranking(tmp_path, capsys,
                                                           silent):
    """Every edge on this world's naming conflict has its reverse
    observation, so no edge is a candidate: that is an answer, not bad
    input."""
    walk, log = tmp_path / "walk.txt", tmp_path / "map.jsonl"
    assert cli.main(["synth", "--shape", "tree", "--params", "4", "3",
                     "--fault", "misname", "--seed", "2",
                     "--out", str(walk)]) == 0
    assert cli.main(["build", "--transcript", str(walk),
                     "--log", str(log)]) == 0
    capsys.readouterr()
    assert cli.main(["localize", "--log", str(log), *silent]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["conflict"]["kind"] == "naming"
    assert payload["candidates"] == []


def test_localize_a_conflict_the_origin_cannot_reach(tmp_path, capsys):
    """Room n1 is not reachable from the origin and has two north exits:
    the conflict has no path pair, so its ranking is empty."""
    log = tmp_path / "map.jsonl"
    chain = VersionChain(log)
    chain.commit([], TRIGGER_OBSERVATION, obs_id=0, analysis="rooms",
                  new_nodes=[("n0", "Start"), ("n1", "Island"),
                             ("n2", "Shore"), ("n3", "Reef")])
    chain.commit([add(Edge("n1", "n2", "north", 1)),
                  add(Edge("n1", "n3", "north", 2))],
                 TRIGGER_OBSERVATION, obs_id=1, analysis="exits")
    chain.close()
    assert cli.main(["detect", "--log", str(log)]) == 3
    capsys.readouterr()
    assert cli.main(["localize", "--log", str(log)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["conflict"]["kind"] == "directional"
    assert payload["conflict"]["participants"]["nodes"] == ["n1", "n2", "n3"]
    assert (payload["lca"], payload["path1"], payload["path2"],
            payload["candidates"]) == (None, [], [], [])


def test_localize_prints_the_ranking_the_advisor_gets(tmp_path, capsys):
    """Both edges of the namesakes' path pair have their reverse
    observation, but the suffix room n1 has an exit nobody walked back:
    the ranking falls back to it, in the CLI as in the repair loop."""
    log = tmp_path / "map.jsonl"
    chain = VersionChain(log)
    chain.commit([], TRIGGER_OBSERVATION, obs_id=0, analysis="rooms",
                  new_nodes=[("n0", "Foyer"), ("n1", "Hall"),
                             ("n2", "hall"), ("n3", "Attic")])
    chain.commit([add(Edge("n0", "n1", "north", 1)),
                  add(Edge("n1", "n0", "south", 2)),
                  add(Edge("n0", "n2", "east", 3)),
                  add(Edge("n2", "n0", "west", 4)),
                  add(Edge("n1", "n3", "up", 5))],
                 TRIGGER_OBSERVATION, obs_id=1, analysis="exits")
    conflicts = detect_all(chain.graph, commit=chain.head)
    ctx = build_context(chain, ToolConfig(), conflicts[0], [], conflicts)
    chain.close()
    assert cli.main(["localize", "--log", str(log)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["conflict"]["kind"] == "naming"
    assert (payload["lca"], payload["path1"], payload["path2"]) == (
        "n0", ["n0", "n1"], ["n0", "n2"])
    assert [(c["src"], c["dst"], c["dir"]) for c in payload["candidates"]] \
        == [("n1", "n3", "up")]
    assert payload["candidates"] == [
        c.to_json() for c in ctx.ranked_candidates]


def test_repair_with_oracle_then_clean(built_log, tmp_path, capsys):
    log, ledger = built_log
    out_graph = tmp_path / "repaired.json"
    assert cli.main(["repair", "--log", str(log), "--advisor", "oracle",
                     "--ledger", str(ledger), "--append",
                     "--graph", str(out_graph)]) == 0
    out = capsys.readouterr().out
    assert "repaired" in out
    assert out_graph.exists()
    # repair commits were appended to the same log; it is clean now
    assert cli.main(["detect", "--log", str(log)]) == 0


def test_repair_append_refuses_a_log_of_object_lines(built_log, tmp_path,
                                                     capsys):
    """`repair --append` on a log written as object lines, as versions
    before rows wrote it, or on a built log with one such line, exits 2,
    naming the first object line, and leaves the file as it was."""
    rows, ledger = built_log
    built = rows.read_bytes()
    objects = [json.dumps(c.to_json()).encode() + b"\n"
               for c in VersionChain.load(rows).commits]
    lines = built.splitlines(keepends=True)
    mixed = b"".join(lines[:2] + objects[2:3] + lines[3:])
    for wal, lineno in ((b"".join(objects), 1), (mixed, 3)):
        rows.write_bytes(wal)
        capsys.readouterr()
        assert cli.main(["repair", "--log", str(rows), "--advisor", "oracle",
                         "--ledger", str(ledger), "--append"]) == 2
        assert f"{rows}:{lineno}: a JSON object is not a row" in \
            capsys.readouterr().err
        assert rows.read_bytes() == wal


def test_repair_oracle_requires_ledger(built_log, capsys):
    log, _ = built_log
    assert cli.main(["repair", "--log", str(log),
                     "--advisor", "oracle"]) == 2


def _table_row(out: str, config: str) -> dict:
    """The row of `config` in a printed metrics table, by column."""
    lines = [line.split() for line in out.splitlines()]
    header = next(cols for cols in lines if cols[:1] == ["config"])
    return dict(zip(header, next(cols for cols in lines
                                 if cols[:1] == [config])))


def test_repair_reads_the_ledger_for_every_advisor(built_log, capsys):
    """`repair --ledger` scores any advisor, as `bench` does: the
    heuristic's `correct` and `accuracy_pct` are what `run_repair(...,
    ledger=...)` computes, not `n/a`."""
    log, ledger_path = built_log
    assert cli.main(["repair", "--log", str(log), "--advisor", "heuristic",
                     "--ledger", str(ledger_path)]) == 0
    row = _table_row(capsys.readouterr().out, "heuristic")
    ledger = fi.FaultLedger.from_json(json.loads(ledger_path.read_text()))
    chain = VersionChain.load(log)
    _, _, metrics = run_repair(chain, ToolConfig(), HeuristicAdvisor(),
                               ledger=ledger)
    assert metrics.correct is not None
    assert row["correct"] == str(metrics.correct)
    assert row["accuracy_pct"] == (
        "n/a" if metrics.accuracy_pct is None
        else f"{metrics.accuracy_pct:.2f}")


@pytest.mark.parametrize("advisor", ["heuristic", "llm"])
def test_a_malformed_ledger_exits_2_for_every_advisor(built_log, capsys,
                                                      advisor):
    log, ledger = built_log
    ledger.write_text(json.dumps([{"kind": "teleport", "step": 3}]),
                      encoding="utf-8")
    before = log.read_bytes()
    assert cli.main(["repair", "--log", str(log), "--advisor", advisor,
                     "--ledger", str(ledger), "--append"]) == 2
    assert "row 0: unknown kind 'teleport'" in capsys.readouterr().err
    assert log.read_bytes() == before


@pytest.mark.parametrize("rows, message", [
    ([{"kind": "misdirection", "step": 3, "colour": "red"}],
     "row 0: unknown key(s) colour"),
    ([{"kind": "phantom_edge", "step": 2}, "misname"],
     "row 1: not an object"),
    ([{"kind": "teleport", "step": 3}], "row 0: unknown kind 'teleport'"),
    ([{"kind": "misname", "step": "4", "true_name": "Room 1-1"}],
     "row 0: step not an int: '4'"),
    ([{"kind": "phantom_edge", "step": 2}, {"kind": "phantom_edge",
                                             "step": True}],
     "row 1: step not an int: True"),
    ([{"kind": "misname", "step": 4, "true_name": 5}],
     "row 0: true_name not a str: 5"),
    ([{"kind": "misdirection", "step": 3, "true_direction": "sideways"}],
     "row 0: true_direction not a direction: 'sideways'"),
    ([{"kind": "misdirection", "step": 3, "corrupted_direction": "west"}],
     "row 0: misdirection missing true_direction"),
    ([{"kind": "silent_misdirection", "step": 3}],
     "row 0: silent_misdirection missing true_direction, "
     "corrupted_direction"),
    ([{"kind": "phantom_edge", "step": 2},
      {"kind": "misname", "step": 4, "corrupted_name": "Room 1-1"}],
     "row 1: misname missing true_name"),
])
def test_repair_with_a_malformed_ledger_exits_2(built_log, capsys, rows,
                                                message):
    """A bad ledger is refused with its row before the log is touched."""
    log, ledger = built_log
    ledger.write_text(json.dumps(rows), encoding="utf-8")
    before = log.read_bytes()
    assert cli.main(["repair", "--log", str(log), "--advisor", "oracle",
                     "--ledger", str(ledger), "--append"]) == 2
    assert message in capsys.readouterr().err
    assert log.read_bytes() == before


# arrays nested deeper than `json.loads` can decode (`RecursionError`)
_DEEP = "[" * 100_000 + "]" * 100_000


def test_repair_with_a_ledger_nested_too_deep_exits_2(built_log, capsys):
    log, ledger = built_log
    ledger.write_text(_DEEP, encoding="utf-8")
    before = log.read_bytes()
    assert cli.main(["repair", "--log", str(log), "--advisor", "oracle",
                     "--ledger", str(ledger), "--append"]) == 2
    assert "ledger.json: maximum recursion depth exceeded" in \
        capsys.readouterr().err
    assert log.read_bytes() == before


@pytest.mark.parametrize("torn", [False, True], ids=["whole", "torn"])
def test_detect_on_a_log_line_nested_too_deep(built_log, capsys, torn):
    """A log line nested too deep to decode is bad input: a whole one
    exits 2 naming its line, and a torn final one is dropped with the
    torn-line warning."""
    log, _ = built_log
    lineno = log.read_bytes().count(b"\n") + 1
    with log.open("a", encoding="utf-8") as fh:
        fh.write(_DEEP[:100_000] if torn else _DEEP + "\n")
    if torn:
        with pytest.warns(UserWarning, match=f":{lineno}: dropped a torn"):
            assert cli.main(["detect", "--log", str(log)]) == 3
    else:
        assert cli.main(["detect", "--log", str(log)]) == 2
        assert f"map.jsonl:{lineno}: maximum recursion depth exceeded" in \
            capsys.readouterr().err


def _exit_code_and_resource_warnings(argv) -> tuple[int, list]:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
        gc.collect()  # an unclosed log file warns when it is collected
    return code, [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_repair_that_fails_leaves_the_log_as_it_was(built_log, monkeypatch,
                                                     capsys):
    """An advisor that cannot be set up fails before the log is opened:
    its torn final line is neither cut off nor ended, and no file is left
    open.  A repair that raises closes the log it appended to."""
    log, _ = built_log
    with log.open("ab") as fh:
        fh.write(b'{"index": 99, "torn')
    before = log.read_bytes()
    monkeypatch.delenv("MAPREPAIR_API_BASE", raising=False)
    for advisor in (["--advisor", "llm"], ["--advisor", "oracle"]):
        code, leaked = _exit_code_and_resource_warnings(
            ["repair", "--log", str(log), "--append", *advisor])
        assert (code, leaked) == (2, [])
        assert log.read_bytes() == before
    assert "error:" in capsys.readouterr().err

    def failing_repair(*args, **kwargs):
        raise MapRepairError("advisor gave up")

    monkeypatch.setattr(cli, "run_repair", failing_repair)
    code, leaked = _exit_code_and_resource_warnings(
        ["repair", "--log", str(log), "--append"])
    assert (code, leaked) == (2, [])
    assert log.read_bytes() == before[:before.rindex(b"\n") + 1]


def test_refine_command(tmp_path, capsys):
    edges = tmp_path / "edges.jsonl"
    rows = [{"src": "A", "dst": "B", "action": "north", "step": 1},
            {"src": "A", "dst": "C", "action": "north", "step": 2},
            {"src": "B", "dst": "B", "action": "look", "step": 3}]
    edges.write_text("\n".join(json.dumps(r) for r in rows))
    report = tmp_path / "report.json"
    graph = tmp_path / "graph.json"
    assert cli.main(["refine", "--edges", str(edges),
                     "--report", str(report), "--graph", str(graph)]) == 0
    payload = json.loads(report.read_text())
    assert payload["initial_edges"] == 3
    assert payload["final_edges"] == 1
    refined = NavGraph.from_json(json.loads(graph.read_text()))
    assert [(refined.nodes[e.src], refined.nodes[e.dst], e.direction,
             e.step_id) for e in refined.edges()] == [("A", "B", "north", 1)]
    assert sorted(refined.nodes.values()) == ["A", "B"]


@pytest.mark.parametrize("row, message", [
    ([1, 2], "not an object"),
    ({"src": 5, "dst": "B", "action": "north", "step": 2},
     "src not a str: 5"),
    ({"src": "B", "dst": "A", "action": "south", "step": "x"},
     "step not an int: 'x'"),
    ({"src": "B", "dst": "A", "action": "south", "step": True},
     "step not an int: True"),
    ({"src": "B", "action": "south", "step": 2}, "missing dst"),
])
def test_refine_with_a_malformed_row_exits_2(tmp_path, capsys, row,
                                             message):
    """A bad row is refused with its line, between good rows."""
    edges = tmp_path / "edges.jsonl"
    good = {"src": "A", "dst": "B", "action": "north", "step": 1}
    edges.write_text("\n".join(json.dumps(r) for r in (good, row, good)))
    assert cli.main(["refine", "--edges", str(edges)]) == 2
    assert f"edges.jsonl:2: {message}" in capsys.readouterr().err


def test_refine_with_a_row_nested_too_deep_exits_2(tmp_path, capsys):
    edges = tmp_path / "edges.jsonl"
    good = json.dumps({"src": "A", "dst": "B", "action": "north", "step": 1})
    edges.write_text("\n".join((good, _DEEP, good)))
    assert cli.main(["refine", "--edges", str(edges)]) == 2
    assert "edges.jsonl:2: maximum recursion depth exceeded" in \
        capsys.readouterr().err


def test_synth_round_trips_through_build(tmp_path, capsys):
    out = tmp_path / "walk.txt"
    ledger = tmp_path / "ledger.json"
    assert cli.main(["synth", "--shape", "loopchain", "--params", "8",
                     "--fault", "misdirection", "--seed", "3",
                     "--out", str(out), "--ledger", str(ledger)]) == 0
    assert cli.main(["build", "--transcript", str(out),
                     "--log", str(tmp_path / "m.jsonl")]) == 0
    assert json.loads(ledger.read_text())[0]["kind"] == "misdirection"


def test_synth_tree_deeper_than_the_recursion_limit(tmp_path, capsys):
    """A tree 2000 rooms deep, one child each, is walked without
    recursion, and its walk builds with no conflict."""
    out = tmp_path / "walk.txt"
    assert cli.main(["synth", "--shape", "tree", "--params", "2000", "1",
                     "--out", str(out)]) == 0
    assert "2001 rooms, 2000 moves, 0 fault(s)" in capsys.readouterr().out
    assert cli.main(["build", "--transcript", str(out),
                     "--log", str(tmp_path / "m.jsonl")]) == 0
    assert cli.main(["detect", "--log", str(tmp_path / "m.jsonl")]) == 0


def test_synth_walk_builds_without_conflict(tmp_path, capsys):
    out = tmp_path / "walk.txt"
    assert cli.main(["synth", "--shape", "walk", "--params", "6", "6", "60",
                     "7", "--out", str(out)]) == 0
    assert "60 moves, 0 fault(s)" in capsys.readouterr().out
    assert cli.main(["build", "--transcript", str(out),
                     "--log", str(tmp_path / "m.jsonl")]) == 0
    assert cli.main(["detect", "--log", str(tmp_path / "m.jsonl")]) == 0


def test_build_writes_the_graph_and_a_clean_map_has_nothing_to_localize(
        tmp_path, capsys):
    world = fi.generate_grid(3, 3)
    walk = tmp_path / "walk.txt"
    walk.write_text(world.transcript(), encoding="utf-8")
    log, graph = tmp_path / "m.jsonl", tmp_path / "graph.json"
    assert cli.main(["build", "--transcript", str(walk), "--log", str(log),
                     "--graph", str(graph)]) == 0
    built = NavGraph.from_json(json.loads(graph.read_text()))
    assert built.state_equal(world.truth)
    capsys.readouterr()
    assert cli.main(["localize", "--log", str(log)]) == 0
    assert capsys.readouterr().out == "no conflicts to localize\n"


@pytest.mark.parametrize("shape, params, usage", [
    ("grid", ["4"], "--shape grid takes 2 --params: width height"),
    ("tree", ["3", "2", "1"],
     "--shape tree takes 2 --params: depth branching"),
    ("loopchain", ["8", "2"], "--shape loopchain takes 1 --params: n"),
    ("walk", ["6", "6"],
     "--shape walk takes 4 --params: width height moves walk_seed"),
])
def test_synth_with_the_wrong_params_count_is_a_usage_error(
        tmp_path, capsys, shape, params, usage):
    out = tmp_path / "walk.txt"
    assert cli.main(["synth", "--shape", shape, "--params", *params,
                     "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"usage: {usage}\n" and captured.out == ""
    assert not out.exists()


def test_export_formats(built_log, tmp_path, capsys):
    log, _ = built_log
    assert cli.main(["export", "--log", str(log), "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")
    assert cli.main(["export", "--log", str(log), "--format", "tsv"]) == 0
    assert capsys.readouterr().out.startswith("node\tname")
    out = tmp_path / "g.json"
    assert cli.main(["export", "--log", str(log), "--format", "json",
                     "--out", str(out)]) == 0
    assert "nodes" in json.loads(out.read_text())


def test_bench_emits_table_and_csv(capsys):
    assert cli.main(["bench", "--advisor", "oracle"]) == 0
    table = capsys.readouterr().out
    assert "repair_rate_pct" in table
    assert "100.00" in table
    assert cli.main(["bench", "--advisor", "heuristic", "--csv"]) == 0
    assert capsys.readouterr().out.startswith("config,")
