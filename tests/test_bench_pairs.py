import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _line(attempted=100, **metrics):
    return {"correct": True, "attempted": attempted, "failed": 0,
            "metrics": {name: {"value": value, "unit": "u"}
                        for name, value in metrics.items()}}


def test_summary_medians_quartiles_and_wins():
    parent = [4.0, 5.0, 6.0, 7.0]
    change = [3.0, 5.0, 6.5, 1.0]  # better, tie, worse, better
    by_side = {
        "parent": {str(k): _line(item_s_p50=v, ok_pct=100.0, rooms=k)
                   for k, v in enumerate(parent)},
        "change": {str(k): _line(item_s_p50=v, ok_pct=100.0, rooms=k + 1)
                   for k, v in enumerate(change)},
    }
    by_side["parent"]["4"] = _line(item_s_p50=100.0)  # no change run: left out
    rows = {r["name"]: r for r in bench_pairs.summarize(
        by_side, {"item_s_p50": "lower", "ok_pct": "higher"})}
    assert set(rows) == {"item_s_p50", "ok_pct", "rooms"}
    p50 = rows["item_s_p50"]
    assert p50["pairs"] == 4
    assert p50["parent"] == pytest.approx((4.75, 5.5, 6.25))
    assert p50["change"] == pytest.approx((2.5, 4.0, 5.375))
    assert p50["wins"] == 2  # the tie counts for neither side
    assert rows["ok_pct"]["wins"] == 0  # all ties
    assert rows["rooms"]["wins"] is None  # direction unknown
    assert rows["rooms"]["change"] == pytest.approx((1.75, 2.5, 3.25))
    text = bench_pairs.format_rows(list(rows.values()))
    assert "2/4" in text and "-27.3%" in text


def test_item_runs_are_the_median_over_paired_runs():
    by_side = {
        "parent": {"0": _line(900), "1": _line(1000), "2": _line(5000)},
        "change": {"0": _line(1100), "1": _line(1300)},
    }
    # pair 2 has no change run, so its 5000 item runs are left out
    assert bench_pairs.item_runs(by_side) == {"parent": 950, "change": 1200}
    assert bench_pairs.item_runs({"parent": {"0": _line()}}) == {}


def test_summary_of_one_pair_and_of_none():
    by_side = {"parent": {"0": _line(x=2.0)}, "change": {"0": _line(x=1.0)}}
    (row,) = bench_pairs.summarize(by_side, {"x": "lower"})
    assert row["parent"] == (2.0, 2.0, 2.0)
    assert row["wins"] == 1
    assert bench_pairs.summarize({"parent": {"0": _line(x=1.0)}}, {}) == []


def test_run_order_alternates_and_result_is_the_last_json_line():
    assert [bench_pairs.run_order(k)[0] for k in range(4)] == [
        "parent", "change", "parent", "change"]
    out = 'table\n{"a": 1}\nnot json {\n{"a": 2}\nspeed reference\n'
    assert bench_pairs.result_line(out) == {"a": 2}
    with pytest.raises(ValueError):
        bench_pairs.result_line("no result\n")


def _fake_checkout(root: Path, value: float) -> Path:
    """A checkout whose perfbench prints two JSON lines, the result last."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        "import json\n"
        "print(json.dumps({'first': 1}))\n"
        f"print(json.dumps({_line(item_s_p50=value)!r}))\n")
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "item_s_p50", "better": "lower"}]}))
    return root


def test_pairs_merge_into_the_file_and_touch_no_checkout(tmp_path, capsys):
    parent = _fake_checkout(tmp_path / "parent", 2.0)
    change = _fake_checkout(tmp_path / "change", 1.0)
    before = {p: sorted(p.rglob("*")) for p in (parent, change)}
    out = tmp_path / "BENCH_x.json"
    args = ["--parent", str(parent), "--change", str(change),
            "--workload", "repair-mixed", "--seed", "0", "--pairs", "2",
            "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(args) == 0
    assert bench_pairs.main(args[:9] + ["1"] + args[10:]) == 0
    data = json.loads(out.read_text())
    assert data["parent"] == bench_pairs.revision(parent)
    assert set(data) == {"description", "parent", "hardware", "runs"}
    runs = data["runs"]["repair-mixed"]["0"]
    assert sorted(runs) == ["change", "parent"]
    assert sorted(runs["change"], key=int) == ["0", "1", "2"]
    assert runs["parent"]["2"]["metrics"]["item_s_p50"]["value"] == 2.0
    for side, checkout in (("parent", parent), ("change", change)):
        assert {run["source"] for run in runs[side].values()} == {
            bench_pairs.source_digest(checkout)}
    assert {p: sorted(p.rglob("*")) for p in (parent, change)} == before
    printed = capsys.readouterr().out
    assert "item_s_p50" in printed and "3/3" in printed
    assert "median item runs: parent 100, change 100" in printed


def test_a_failed_run_stops_the_series(tmp_path):
    parent = _fake_checkout(tmp_path / "parent", 2.0)
    change = tmp_path / "change"
    (change / "perfbench").mkdir(parents=True)
    (change / "perfbench" / "run.py").write_text("import sys\nsys.exit(2)\n")
    out = tmp_path / "BENCH_x.json"
    with pytest.raises(RuntimeError, match="exited 2"):
        bench_pairs.main(["--parent", str(parent), "--change", str(change),
                          "--workload", "w", "--seed", "0", "--pairs", "1",
                          "--seconds", "1", "--out", str(out)])
    # the parent's run, which came first, is kept
    assert list(json.loads(out.read_text())["runs"]["w"]["0"]) == ["parent"]


def test_a_merge_across_sources_is_refused(tmp_path, capsys):
    """A side whose src/ or perfbench/ changed since its runs in --out were
    made is refused before any run; a cache directory does not count."""
    parent = _fake_checkout(tmp_path / "parent", 2.0)
    change = _fake_checkout(tmp_path / "change", 1.0)
    out = tmp_path / "BENCH_x.json"
    args = ["--parent", str(parent), "--change", str(change),
            "--workload", "w", "--seed", "0", "--pairs", "1",
            "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(args) == 0
    cache = change / "perfbench" / "__pycache__"
    cache.mkdir()
    (cache / "run.cpython-311.pyc").write_bytes(b"\0")
    assert bench_pairs.main(args) == 0  # the same sources append
    stored = out.read_bytes()
    capsys.readouterr()

    (change / "src").mkdir()
    (change / "src" / "lib.py").write_text("faster = True\n")
    assert bench_pairs.main(args) == 2
    assert "2 change run(s) of other sources" in capsys.readouterr().err
    assert out.read_bytes() == stored
    # a new file takes the new sources
    fresh = tmp_path / "BENCH_y.json"
    assert bench_pairs.main(args[:-1] + [str(fresh)]) == 0


def test_a_checkout_without_its_own_revision_is_named_by_its_sources(
        tmp_path):
    """An export with no `.git`, even one inside another work tree, is
    labelled by its source digest, not by its directory or that tree's
    revision."""
    outer = _fake_checkout(tmp_path / "outer", 2.0)
    export = _fake_checkout(outer / "export", 1.0)
    assert bench_pairs.revision(export) == bench_pairs.source_digest(export)

    def git(*args):
        return subprocess.run(["git", "-C", str(outer), *args], check=True,
                              capture_output=True, text=True).stdout.strip()

    git("init", "-q")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q",
        "--allow-empty", "-m", "start")
    assert bench_pairs.revision(outer) == git("rev-parse", "--short", "HEAD")
    assert bench_pairs.revision(export) == bench_pairs.source_digest(export)
