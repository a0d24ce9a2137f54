"""Tests for the figure table (``benchmarks/figures.py``) and ``repro figures``."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json

import numpy as np
import pytest

from repro import cli
from repro.cli import _load_figures, _write_report, main
from repro.machine.nic import NicTimeline, trace_default
from repro.tempi.sanitizer import ClockSanitizer


@pytest.fixture
def figures():
    return _load_figures()


#: Rows whose claims only CI's figure smoke step evaluates, the slowest two
#: at smoke: ``fig13`` (about 8 s) and ``fig12-functional`` (about 2 s).
SMOKE_SKIPPED = ("fig13", "fig12-functional")
SMOKE_ROWS = [row.id for row in _load_figures().FIGURES if row.id not in SMOKE_SKIPPED]


def test_row_ids_are_unique_and_map_onto_the_committed_report(figures):
    ids = [row.id for row in figures.FIGURES]
    assert len(set(ids)) == len(ids)
    committed = json.loads(figures.REPORT.read_text())
    assert len(committed) == len(figures.FIGURES)
    for row, record in zip(figures.FIGURES, committed):
        assert (row.experiment, row.paper) == (record["experiment"], record["paper_value"]), row.id
        if isinstance(row.quantity, str):
            assert row.quantity == record["quantity"], row.id
    assert set(SMOKE_SKIPPED) <= set(ids)
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


#: One failing claim of each kind, planted on ``fig09b``'s rows.
PLANTED = {
    "band": lambda f: f.Band("planted-band", lambda rows: len(rows), lt=0),
    "order": lambda f: f.Order("planted-order", lambda rows: {"sizes": [size for size, *_ in rows]}, ">"),
    "crossover": lambda f: f.Crossover("planted-crossover", lambda rows: []),
    "same": lambda f: f.Same("planted-same", lambda rows: (1.0, 1.0 + 2e-6), rel_tol=1e-6, abs_tol=1e-12),
}


@pytest.mark.parametrize("kind", list(PLANTED))
def test_a_failing_claim_exits_1_naming_the_row_and_the_claim(
    figures, monkeypatch, tmp_path, capsys, kind
):
    claim = PLANTED[kind](figures)
    report = _only(figures, monkeypatch, tmp_path, claims=(claim,))
    assert main(["figures"]) == 1
    captured = capsys.readouterr()
    assert "fig09b" in captured.err
    assert f"FAILED: fig09b: claim {claim.name} ({type(claim).__name__}) fails" in captured.out
    assert not report.exists()


def test_a_deviation_prints_under_its_row(figures, monkeypatch, tmp_path, capsys):
    _only(figures, monkeypatch, tmp_path, deviates="planted cause")
    assert main(["figures", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "   measured no crossover (paper: no crossover)\n   deviates: planted cause\n" in out


@pytest.mark.parametrize("expected, value, rel", [
    (1.0, 1.0 + 0.9e-6, 1e-6), (1.0, 1.0 + 1.1e-6, 1e-6), (0.0, 0.9e-12, 1e-6), (0.0, 1.1e-12, 1e-6),
    (2e-3, 2e-3 * (1 + 0.9e-9), 1e-9), (2e-3, 2e-3 * (1 + 1.1e-9), 1e-9),
])
def test_a_tolerant_same_is_pytest_approx(figures, expected, value, rel):
    """``Same``'s tolerance is ``pytest.approx``'s rule, with its default
    ``abs=1e-12`` spelled out, on both sides of each bound."""
    same = figures.Same("approx", lambda case: case, rel_tol=rel, abs_tol=1e-12)
    assert same.holds((expected, value)) == (value == pytest.approx(expected, rel=rel))


def test_every_row_names_its_claims(figures):
    for row in figures.FIGURES:
        names = [claim.name for claim in row.claims]
        assert names and len(set(names)) == len(names), row.id


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


def test_a_subset_run_rewrites_its_rows_alone(figures, monkeypatch, tmp_path):
    """``fig09b`` runs; the other rows of the table keep their committed records."""
    (row,) = [row for row in figures.FIGURES if row.id == "fig09b"]
    others = [dataclasses.replace(row, id=f"other{i}") for i in range(2)]
    monkeypatch.setattr(figures, "FIGURES", (others[0], row, others[1]))
    report = tmp_path / "bench_report.json"
    monkeypatch.setattr(figures, "REPORT", report)
    report.write_text(json.dumps([{"measured_value": f"committed {i}"} for i in range(3)]))
    assert main(["figures", "--only", "fig09b"]) == 0
    assert [record["measured_value"] for record in json.loads(report.read_text())] == [
        "committed 0", "no crossover", "committed 2",
    ]


def test_the_report_keeps_the_host_timed_row_unless_only_names_it(tmp_path):
    """The writer on stub records: the wall-clock ``fig07`` row keeps its
    committed record when ``--only`` does not name it, every other row that
    ran is rewritten, and without a committed report the fresh rows are it."""
    report = tmp_path / "bench_report.json"
    ids = ["fig07", "fig09b", "fig12b"]

    def stub(tag: str) -> dict:
        return {row_id: {"measured_value": f"{tag} {row_id}"} for row_id in ids}

    def measured() -> list[str]:
        return [record["measured_value"] for record in json.loads(report.read_text())]

    _write_report(report, ids, stub("first"), ())
    assert measured() == ["first fig07", "first fig09b", "first fig12b"]
    _write_report(report, ids, stub("second"), ())
    assert measured() == ["first fig07", "second fig09b", "second fig12b"]
    _write_report(report, ids, {"fig07": stub("third")["fig07"]}, ("fig07",))
    assert measured() == ["third fig07", "second fig09b", "second fig12b"]


@pytest.mark.parametrize("row_id", SMOKE_ROWS)
def test_every_claim_holds_at_the_smoke_grid(figures, row_id):
    (row,) = [row for row in figures.FIGURES if row.id == row_id]
    _, record, failure = cli._run_figure(row, "smoke")
    assert failure is None, failure
    assert record is not None


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
#: crossover reads and pricing brackets).  The serial engine books on the NIC
#: too: while it charged a discounted wire sum instead, ``fig14-serial``
#: counted no post and ``fig15`` 120 posts, 20 ingests and 60 joins.
SANITIZED_REPLAYS = {
    "fig9": "posts=408 ingests=48 joins=144 barriers=0 hb_checks=0 purity_checks=192 "
    "shared_commits=0 violations=0",
    "fig15": "posts=180 ingests=40 joins=120 barriers=14 hb_checks=0 purity_checks=0 "
    "shared_commits=0 violations=0",
    "incast": "posts=84 ingests=37 joins=45 barriers=18 hb_checks=24 purity_checks=84 "
    "shared_commits=0 violations=0",
    "topology": "posts=56 ingests=56 joins=56 barriers=0 hb_checks=80 purity_checks=80 "
    "shared_commits=224 violations=0",
    "allreduce": "posts=620 ingests=620 joins=620 barriers=0 hb_checks=0 purity_checks=0 "
    "shared_commits=540 violations=0",
    "moe": "posts=315 ingests=56 joins=315 barriers=0 hb_checks=0 purity_checks=0 "
    "shared_commits=0 violations=0",
    "fig14-serial": "posts=24 ingests=8 joins=24 barriers=4 hb_checks=0 purity_checks=0 "
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


def test_explain_accounts_for_what_a_batch_booked(capsys):
    """A traced timeline books a ``reserve_batch`` through its scalar rules:
    its four reservations reach the accounts, beside one scalar post or on
    a timeline nothing else booked on."""
    for scalar_posts in (1, 0):
        sanitizer = ClockSanitizer()
        with trace_default(sanitizer):
            timeline = NicTimeline()
        for _ in range(scalar_posts):
            timeline.reserve(0, 1, 0.0, 1e-6)
        timeline.reserve_batch([0, 1], np.asarray([[1, 2], [2, 3]]), 0.0, 1e-6)
        assert cli._explain(sanitizer) == 0
        captured = capsys.readouterr()
        assert not captured.err
        assert captured.out.startswith(f"== timeline 1 of 1: {4 + scalar_posts} posts, ")
        assert "rank stall s" in captured.out
        (audit,) = sanitizer.audits.values()
        assert (audit.posts, audit.stalls) == (timeline.reservations, timeline.stalls)
        assert audit.posts == 4 + scalar_posts


def test_explain_charges_a_batch_ingest_to_the_port(capsys):
    """Three 10 s posts converge on rank 9 and one ``ingest_batch_vec``
    serves them: the landings queue on its ingestion port, and the audit
    counts and charges the waits the NIC clamped."""
    sanitizer = ClockSanitizer()
    with trace_default(sanitizer):
        timeline = NicTimeline()
    booked = [timeline.reserve(source, 9, 0.0, 10.0) for source in (1, 2, 3)]
    landings = timeline.ingest_batch_vec(
        [9], np.asarray([[r.start for r in booked]]), np.asarray([[1, 2, 3]]),
        np.asarray([[r.seq for r in booked]]), np.full((1, 3), 10.0),
        np.asarray([[r.arrival for r in booked]]),
    )
    assert landings.tolist() == [[10.0, 16.5, 23.0]]
    (audit,) = sanitizer.audits.values()
    assert audit.ingest_stalls == timeline.ingest_stalls == 2
    assert audit.rank_stall[9]["ingestion port"] == 19.5
    assert cli._explain(sanitizer) == 0
    out = capsys.readouterr().out
    assert "2 landings stalled" in out
    assert any(line.split()[:1] == ["9"] and line.split()[-1] == "19.5" for line in out.splitlines())


#: SHA-256 of ``repro explain ROW``'s stdout: the row's tables and every
#: timeline's accounts, byte for byte.
EXPLAINED_DIGESTS = {
    "incast": "2aea8fd9d23df461d8d5ebfcedbd2d7dd5fc77f29fac7faf658425fc961605b0",
    "topology": "bf16da426ba591e138dbe33cb7f116fff4cddf24d01f2ca6b8f14b96760ae7eb",
}


@pytest.fixture(scope="module", params=["incast", "topology"])
def explained(request):
    """``repro explain ROW``: its exit code, its output and its sanitizer."""
    sanitizers = []
    report = cli._explain
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
        patch.setattr(cli, "_explain", lambda sanitizer: (
            sanitizers.append(sanitizer) or report(sanitizer)
        ))
        code = main(["explain", request.param])
    return request.param, code, out.getvalue(), sanitizers[0]


def test_explain_prints_both_tables_per_timeline(explained):
    _, code, out, sanitizer = explained
    assert code == 0
    timelines = len(sanitizer.audits)
    assert timelines and out.count("== timeline ") == timelines
    assert out.count("busy s") == out.count("rank stall s") == timelines


def test_explain_prints_the_pinned_accounts(explained):
    row_id, _, out, _ = explained
    assert hashlib.sha256(out.encode()).hexdigest() == EXPLAINED_DIGESTS[row_id]


def test_the_event_stream_counts_what_the_nic_counted(explained):
    """On every traced timeline the accounts equal the NIC's own books:
    posts, stalled posts, stalled ingests, fabric-bound posts, and the
    event-order left fold of ``start - base`` as ``fabric_stalled_s``, by
    ``float.hex()``."""
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
