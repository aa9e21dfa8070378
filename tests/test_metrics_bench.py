import csv
import io

from maprepair import fault_injector as fi
from maprepair.advisors import OracleAdvisor
from maprepair.metrics_bench import (
    Metrics, compute_metrics, emit_csv, emit_table,
)
from maprepair.repair_engine import ToolConfig, run_repair


def test_counts_and_rates():
    m = Metrics(6.39, 238, 179, 80)
    assert m.total_conflicts == 238
    assert round(m.repair_rate_pct, 2) == 75.21
    assert round(m.accuracy_pct, 2) == 44.69


def test_rates_undefined_not_zero():
    assert Metrics(None, 0, 0, 0).repair_rate_pct is None
    assert Metrics(None, 5, 0, 0).accuracy_pct is None
    assert Metrics(None, 5, 2, None).accuracy_pct is None
    assert Metrics(None, 0, 0, None).avg_loops is None


def test_compute_metrics_from_sessions():
    chain, ledger = fi.demo_chain(corrupted=True)
    g, sessions, _ = run_repair(chain, ToolConfig(), OracleAdvisor(ledger))
    m = compute_metrics(sessions, ledger=ledger, graph=g)
    assert m.total_conflicts == len(sessions) == 1
    assert m.repaired == 1
    assert m.correct == 1  # silent faults are not held against the repair
    assert m.avg_loops == sessions[0].loop_count


def test_compute_metrics_without_ledger_leaves_correct_unknown():
    chain, _ = fi.demo_chain(corrupted=True)
    _, sessions, _ = run_repair(chain, ToolConfig(),
                                OracleAdvisor(fi.FaultLedger()))
    m = compute_metrics(sessions)
    assert m.correct is None
    assert m.accuracy_pct is None


def test_emit_table_formats_na():
    rows = [("full", Metrics(6.39, 238, 179, 80)),
            ("none", Metrics(None, 0, 0, None))]
    table = emit_table(rows)
    lines = table.splitlines()
    assert lines[0].split() == ["config", "avg_loops", "total_conflicts",
                                "repaired", "correct", "repair_rate_pct",
                                "accuracy_pct"]
    assert "75.21" in table and "44.69" in table
    assert "n/a" in lines[3]


def test_emit_csv_round_trips():
    rows = [("oracle", Metrics(2.0, 4, 4, 4))]
    parsed = list(csv.reader(io.StringIO(emit_csv(rows))))
    assert parsed[0][0] == "config"
    assert parsed[1] == ["oracle", "2.00", "4", "4", "4", "100.00", "100.00"]


def test_metrics_json():
    payload = Metrics(1.5, 2, 1, 1).to_json()
    assert payload["repair_rate_pct"] == 50.0
    assert payload["accuracy_pct"] == 100.0
