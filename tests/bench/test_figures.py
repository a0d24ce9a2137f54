"""Tests for the figure table (``benchmarks/figures.py``) and ``repro figures``."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json

import numpy as np
import pytest

from repro import cli
from repro.cli import _load_figures, main
from repro.machine.nic import NicTimeline, trace_default
from repro.tempi.sanitizer import ClockSanitizer


@pytest.fixture
def figures():
    return _load_figures()


def test_row_ids_are_unique_and_map_onto_the_committed_report(figures):
    ids = [row.id for row in figures.FIGURES]
    assert len(set(ids)) == len(ids)
    committed = json.loads(figures.REPORT.read_text())
    assert len(committed) == len(figures.FIGURES)
    for row, record in zip(figures.FIGURES, committed):
        assert (row.experiment, row.paper) == (record["experiment"], record["paper_value"]), row.id
        if isinstance(row.quantity, str):
            assert row.quantity == record["quantity"], row.id
    fields = {"experiment", "quantity", "paper_value", "measured_value", "note"}
    assert all(set(record) == fields for record in committed)


def test_an_unknown_row_exits_2_naming_it(capsys):
    assert main(["figures", "--only", "nosuch"]) == 2
    assert "nosuch" in capsys.readouterr().err


def _only(figures, monkeypatch, tmp_path, **changes):
    """Shrink the table to ``fig09b`` (edited by ``changes``), reporting into ``tmp_path``."""
    (row,) = [row for row in figures.FIGURES if row.id == "fig09b"]
    monkeypatch.setattr(figures, "FIGURES", (dataclasses.replace(row, **changes),))
    monkeypatch.setattr(figures, "REPORT", tmp_path / "bench_report.json")
    return figures.REPORT


def test_a_failing_check_exits_1_naming_the_row_and_writes_no_report(
    figures, monkeypatch, tmp_path, capsys
):
    def planted(result):
        raise AssertionError("planted failure")

    report = _only(figures, monkeypatch, tmp_path, check=planted)
    assert main(["figures"]) == 1
    captured = capsys.readouterr()
    assert "fig09b" in captured.err
    assert "planted failure" in captured.out
    assert not report.exists()


def test_a_passing_whole_table_writes_its_rows(figures, monkeypatch, tmp_path):
    report = _only(figures, monkeypatch, tmp_path)
    assert main(["figures", "--smoke"]) == 0
    assert not report.exists(), "only a default run writes the report"
    assert main(["figures"]) == 0
    (record,) = json.loads(report.read_text())
    assert record["experiment"] == "Fig. 9b"
    assert record["measured_value"] == "no crossover"


def test_one_row_runs_end_to_end(capsys):
    assert main(["figures", "--only", "fig09b"]) == 0
    out = capsys.readouterr().out
    assert "== fig09b: Fig. 9b" in out
    assert "T_staged" in out
    assert "measured no crossover" in out


@pytest.mark.parametrize(
    "argv, sweep, writes",
    [([], "default", True), (["--smoke"], "smoke", False), (["--full"], "full", False)],
)
def test_each_grid_flag_runs_its_grid_and_only_default_writes(
    figures, monkeypatch, tmp_path, argv, sweep, writes
):
    (row,) = [row for row in figures.FIGURES if row.id == "fig09b"]
    seen = []

    def run(model, grid):
        seen.append(grid)
        return row.run(model, "smoke")

    report = _only(figures, monkeypatch, tmp_path, run=run)
    assert main(["figures", *argv]) == 0
    assert seen == [sweep]
    assert report.exists() == writes


def test_a_raising_measurement_fails_its_row(figures, monkeypatch, tmp_path, capsys):
    def broken(model, sweep):
        raise RuntimeError("no such grid")

    report = _only(figures, monkeypatch, tmp_path, run=broken)
    assert main(["figures"]) == 1
    captured = capsys.readouterr()
    assert "RuntimeError: no such grid" in captured.out
    assert "fig09b" in captured.err
    assert not report.exists()


def test_a_subset_run_writes_no_report(figures, monkeypatch, tmp_path):
    report = _only(figures, monkeypatch, tmp_path)
    assert main(["figures", "--only", "fig09b"]) == 0
    assert not report.exists(), "only a run of the whole table writes the report"


def test_smoke_and_full_are_exclusive(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["figures", "--smoke", "--full"])
    assert excinfo.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["figures", "sanitize"])
def test_outside_a_checkout_the_table_commands_exit_2(monkeypatch, capsys, command):
    monkeypatch.setattr(cli, "_repo_root", lambda: None)
    assert main([command]) == 2
    assert "source checkout" in capsys.readouterr().err


def test_a_record_evaluates_computed_strings(figures):
    (row,) = [row for row in figures.FIGURES if row.id == "fig09b"]
    row = dataclasses.replace(
        row,
        quantity=lambda result: f"q{result}",
        measured=lambda result: f"m{result}",
        note=lambda result: f"n{result}",
    )
    assert row.record(7) == {
        "experiment": "Fig. 9b",
        "quantity": "q7",
        "paper_value": row.paper,
        "measured_value": "m7",
        "note": "n7",
    }


#: ``repro sanitize``'s audit counters, one line per replay in print order.
#: They cover every timeline a replay builds: a ``World``'s, the analytic
#: twins' (``topology``'s 42 twin posts, 168 shared-cursor commits) and the
#: benches' own selectors' (``fig9``'s ``loaded_nic``, ``topology``'s
#: crossover reads and pricing brackets).
SANITIZED_REPLAYS = {
    "fig9": "posts=408 ingests=48 joins=144 barriers=0 hb_checks=0 purity_checks=192 "
    "shared_commits=0 violations=0",
    "fig15": "posts=120 ingests=20 joins=60 barriers=14 hb_checks=0 purity_checks=0 "
    "shared_commits=0 violations=0",
    "incast": "posts=84 ingests=37 joins=45 barriers=18 hb_checks=24 purity_checks=84 "
    "shared_commits=0 violations=0",
    "topology": "posts=56 ingests=56 joins=56 barriers=0 hb_checks=80 purity_checks=80 "
    "shared_commits=224 violations=0",
    "allreduce": "posts=620 ingests=620 joins=620 barriers=0 hb_checks=0 purity_checks=0 "
    "shared_commits=540 violations=0",
    "moe": "posts=315 ingests=56 joins=315 barriers=0 hb_checks=0 purity_checks=0 "
    "shared_commits=0 violations=0",
    "fig14-serial": "posts=0 ingests=0 joins=0 barriers=4 hb_checks=0 purity_checks=0 "
    "shared_commits=0 violations=0",
    "fig14-overlap": "posts=24 ingests=8 joins=24 barriers=4 hb_checks=0 purity_checks=0 "
    "shared_commits=0 violations=0",
    "fig14-isend-irecv": "posts=40 ingests=208 joins=40 barriers=4 hb_checks=0 "
    "purity_checks=0 shared_commits=0 violations=0",
}


@pytest.fixture(scope="module")
def sanitized_counters():
    """``repro sanitize``'s counter lines, keyed like :data:`SANITIZED_REPLAYS`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["sanitize"]) == 0
    prefix = "   sanitizer: "
    lines = [line[len(prefix):] for line in out.getvalue().splitlines() if line.startswith(prefix)]
    assert len(lines) == len(SANITIZED_REPLAYS)
    return dict(zip(SANITIZED_REPLAYS, lines))


@pytest.mark.parametrize("replay", list(SANITIZED_REPLAYS))
def test_sanitize_replays_keep_their_counters(sanitized_counters, replay):
    assert sanitized_counters[replay] == SANITIZED_REPLAYS[replay]


def test_explain_an_unknown_row_exits_2_listing_the_rows(figures, capsys):
    assert main(["explain", "nosuch"]) == 2
    err = capsys.readouterr().err
    assert "no figure row nosuch" in err
    assert all(row.id in err for row in figures.FIGURES)


def test_explain_refuses_what_the_batch_sweep_booked(capsys):
    """The batch sweep emits no events: beside one scalar post, one
    ``reserve_batch`` call books four reservations no account saw."""
    sanitizer = ClockSanitizer()
    with trace_default(sanitizer):
        timeline = NicTimeline()
    timeline.reserve(0, 1, 0.0, 1e-6)
    timeline.reserve_batch([0, 1], np.asarray([[1, 2], [2, 3]]), 0.0, 1e-6)
    assert cli._explain("incast", sanitizer) == 1
    captured = capsys.readouterr()
    assert "incast: 4 reservation(s) booked by the batch sweep" in captured.err
    assert not captured.out


@pytest.fixture(scope="module", params=["incast", "topology"])
def explained(request):
    """``repro explain ROW``: its exit code, its output and its sanitizer."""
    sanitizers = []
    report = cli._explain
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
        patch.setattr(cli, "_explain", lambda row_id, sanitizer: (
            sanitizers.append(sanitizer) or report(row_id, sanitizer)
        ))
        code = main(["explain", request.param])
    return request.param, code, out.getvalue(), sanitizers[0]


def test_explain_prints_both_tables_per_timeline(explained):
    _, code, out, sanitizer = explained
    assert code == 0
    timelines = len(sanitizer.audits)
    assert timelines and out.count("== timeline ") == timelines
    assert out.count("busy s") == out.count("rank stall s") == timelines


def test_the_event_stream_counts_what_the_nic_counted(explained):
    """On every traced timeline the accounts equal the NIC's own books:
    posts, stalled posts, stalled ingests, fabric-bound posts, and the
    event-order left fold of ``start - max(ready, port, link)`` as
    ``fabric_stalled_s``, by ``float.hex()``."""
    row_id, _, _, sanitizer = explained
    for timeline, audit in sanitizer.audits.items():
        assert (audit.posts, audit.stalls, audit.ingest_stalls, audit.fabric_stalls,
                audit.fabric_stalled_s.hex()) == (
            timeline.reservations, timeline.stalls, timeline.ingest_stalls,
            timeline.fabric_stalls, timeline.fabric_stalled_s.hex(),
        )
    # Neither row is vacuous: incast queues at ingestion ports, topology
    # on shared uplink bundles.
    audits = sanitizer.audits.values()
    if row_id == "incast":
        assert sum(audit.ingest_stalls for audit in audits) > 0
    else:
        assert sum(audit.fabric_stalls for audit in audits) > 0
