"""Tests of the benchmark harness's own code.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.load_library()

import layers  # noqa: E402  (needs the library on sys.path)
import workloads  # noqa: E402
from maprepair import fault_injector, graph_core  # noqa: E402
from spans import Target, Tracer, patched  # noqa: E402
from speedref import NOMINAL_S, SpeedReference  # noqa: E402
from summary import NAME_RE, UNIT_RE, Report, beyond, percentile, tail_ok  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def fake_clock(*times):
    it = iter(times)
    return lambda: next(it)


def test_percentile_is_nearest_rank():
    values = list(range(10, 0, -1))
    assert percentile(values, 50) == 5
    assert percentile(values, 90) == 9
    assert percentile(values, 100) == 10
    assert percentile([7.5], 90) == 7.5
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile(values, 0)


def test_tail_percentile_needs_ten_samples_beyond():
    assert beyond(100, 90) == 10 and tail_ok(100, 90)
    assert beyond(99, 90) == 9 and not tail_ok(99, 90)
    assert beyond(120, 90) == 12
    assert not tail_ok(14, 90)


def test_self_time_subtracts_nested_children():
    # a [0, 10] holds b [1, 5], which holds c [2, 4]; a also holds the
    # folded leaf d [6, 9]
    tracer = Tracer(clock=fake_clock(0, 1, 2, 4, 5, 6, 9, 10), under=("b",))
    tracer.item = "x"
    a = tracer.begin("a")
    b = tracer.begin("b")
    c = tracer.begin("c")
    tracer.end(c)
    tracer.end(b)
    d = tracer.begin("d", keep=False)
    tracer.end(d)
    tracer.end(a)
    assert tracer.totals == {"c": [1, 2, 2], "b": [1, 4, 2], "d": [1, 3, 3],
                             "a": [1, 10, 3]}
    assert tracer.spans == [["a", 0, 10, None, "x", 3],
                            ["b", 1, 5, 0, "x", 2],
                            ["c", 2, 4, 1, "x", 2]]
    assert tracer.counters == {"c@b": 1}


def test_untimed_bookkeeping_is_not_self_time():
    tracer = Tracer(clock=fake_clock(0, 1, 3, 4))
    outer = tracer.begin("outer")
    tracer.untimed(lambda: None)
    tracer.end(outer)
    assert tracer.totals["outer"] == [1, 4, 2]


def test_spans_must_close_in_order():
    tracer = Tracer(clock=fake_clock(0, 1, 2))
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


class _Owner:
    @classmethod
    def make(cls, n):
        return list(range(n))

    def size(self, xs):
        return len(xs)


def test_patched_wraps_call_sites_and_restores_them():
    originals = dict(vars(_Owner))
    tracer = Tracer()
    targets = [Target(_Owner, "make", "owner.make",
                      hook=lambda result, args: tracer.counters.update(
                          made=len(result))),
               Target(_Owner, "size", "owner.size", keep=False)]
    with patched(tracer, targets):
        assert _Owner().size(_Owner.make(3)) == 3
        with tracer.paused():
            _Owner.make(5)
    assert vars(_Owner)["make"] is originals["make"]
    assert vars(_Owner)["size"] is originals["size"]
    assert tracer.totals["owner.make"][0] == 1
    assert tracer.totals["owner.size"][0] == 1
    assert tracer.counters["made"] == 3
    assert [s[0] for s in tracer.spans] == ["owner.make"]


def test_library_targets_exist_and_are_restored():
    nav = vars(graph_core.NavGraph)
    before = {t.attr: vars(t.owner)[t.attr]
              for t in layers.run_targets(Tracer(), {})
              if t.owner is graph_core.NavGraph}
    with patched(Tracer(), layers.run_targets(Tracer(), {})
                 + layers.setup_targets()):
        assert nav["copy"] is not before["copy"]
    assert all(nav[attr] is fn for attr, fn in before.items())


def test_speed_scale_uses_the_kernel_runs_around_the_work():
    ref = SpeedReference(Path("unused"), every_s=1.0,
                         clock=fake_clock(0, 2, 2.5, 4, 4, 8),
                         work=lambda path: None)
    assert ref.sample() == 0        # kernel takes 2
    assert ref.maybe_sample() == 0  # 0.5 since: no new sample
    assert ref.maybe_sample() == 1  # 2.0 since: kernel takes 4
    assert ref.samples == [2, 4]
    assert ref.scale(0) == pytest.approx(NOMINAL_S / 3)
    assert ref.scale(1) == pytest.approx(NOMINAL_S / 4)


def test_kernel_is_deterministic_and_cleans_up(tmp_path):
    from speedref import kernel
    assert kernel(tmp_path / "k.jsonl") == kernel(tmp_path / "k.jsonl")
    assert list(tmp_path.iterdir()) == []


def test_inputs_are_a_function_of_the_seed():
    a = workloads.make_items("build-tree", 3)
    assert workloads.digest(a) == workloads.digest(
        workloads.make_items("build-tree", 3))
    assert workloads.digest(a) != workloads.digest(
        workloads.make_items("build-tree", 4))
    plain = fault_injector.generate_world(
        fault_injector.WorldSpec("tree", (4, 3)))
    assert a[0].truth.edge_set() == plain.truth.edge_set()


def _tiny_items():
    grid = fault_injector.generate_world(fault_injector.WorldSpec("grid", (3, 3)))
    loop = fault_injector.generate_world(fault_injector.WorldSpec("loopchain", (8,)))
    bad, ledger = fault_injector.inject(
        loop, [fault_injector.FAULT_MISDIRECTION], seed=0)
    items = [workloads.Item("grid-3x3", "grid-3x3", grid.transcript(),
                            len(grid.steps), truth=grid.truth)]
    for advisor in workloads.ADVISORS:
        items.append(workloads.Item(f"loop/{advisor}", "loopchain-8",
                                    bad.transcript(), len(bad.steps),
                                    ledger=ledger, advisor=advisor,
                                    builds=advisor == workloads.ADVISORS[0]))
    return items, loop


def test_output_check_failure_counts_as_failed_item(tmp_path):
    items, loop = _tiny_items()
    wrong = workloads.Item("grid-3x3", "grid-3x3", items[0].transcript,
                           items[0].steps, truth=loop.truth)
    out = workloads.run_item(wrong, tmp_path / "w.jsonl", check=True)
    assert out.error.startswith("CheckFailed")
    assert not (tmp_path / "w.jsonl").exists()
    assert workloads.run_item(items[0], tmp_path / "w.jsonl", check=True).error == ""


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"),
                                           (True, "per_layer")])
def test_every_metric_is_printed_with_its_unit(tmp_path, trace, section):
    items, _ = _tiny_items()
    tracer = Tracer(under=(layers.HEURISTIC,))
    passes, traced = run.measure(items, tmp_path, 0, trace, tracer,
                                 SpeedReference(tmp_path / "k.jsonl"))
    assert not [o.error for p in passes + traced for o in p if o.error]
    report = Report()
    if trace:
        totals, counters = tracer.take_totals()
        layers.report_layers(report, totals, counters, {}, traced,
                             [1.0], [1.5])
    else:
        run.end_to_end(report, passes, [0.25])
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {n: row[1] for n, row in report.rows.items()} == expected
    table = report.table().splitlines()
    for name, unit in expected.items():
        assert any(line.split()[0] == name and line.split()[2] == unit
                   for line in table)
    line = json.loads(report.result_line(True, 3, 0))
    assert {n: m["unit"] for n, m in line["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float))
               for m in line["metrics"].values())


def test_benchmark_file_names_and_units_are_well_formed():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(n) for n in names)
    assert all(UNIT_RE.fullmatch(m["unit"])
               for m in BENCH["end_to_end"] + BENCH["per_layer"])
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               for m in BENCH["end_to_end"])


def test_without_the_library_the_run_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build-grid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
