"""Trace replay: determinism and malformed-trace diagnostics.

The replay front-end's contract has two halves: the same trace under the
same config must reproduce **bit-identical** priced clocks, interposer
counters and receive digests on every run; and a malformed trace must be
rejected with a :class:`~repro.apps.replay.TraceError` that names the
offending record (``ops[i]``) rather than failing mid-replay.

The receive digests are computed off the rank threads, on the kernels'
helper (:func:`repro.gpu.kernels.digest_jobs`); they must equal the
schema-derived reference the ``ml_replay`` benchmark checks, with or
without a helper, and a failed replay must leave no digest job behind.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.apps import replay
from repro.apps.moe import MoESpec, moe_trace
from repro.apps.pipeline import PipelineSpec, pipeline_trace
from repro.apps.replay import TraceError, load_trace, replay_trace
from repro.mpi.world import WorldError
from repro.tempi.config import TempiConfig

WORKLOADS = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "workloads.py"


@pytest.fixture(scope="module")
def e2e_workloads():
    """``benchmarks/e2e/workloads.py``, loaded read-only, ``sys.path`` left as found."""
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("_e2e_workloads", WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def _moe_trace(moe_seed):
    return moe_trace(
        MoESpec(tokens_per_rank=8, token_bytes=4096, skew=4.0, seed=moe_seed), 4
    )


def _pipeline_trace():
    return pipeline_trace(PipelineSpec(microbatches=3, activation_bytes=8192), 4)


def _mixed_trace(moe_seed):
    """All three record kinds in one schedule."""
    trace = _moe_trace(moe_seed)
    trace["ops"].append({"op": "allreduce", "count": 512, "dtype": "float32", "reduce": "sum"})
    trace["ops"].extend(_pipeline_trace()["ops"])
    return trace


class TestDeterminism:
    def test_moe_trace_replays_bit_identically(self, summit_model, moe_seed):
        trace = _moe_trace(moe_seed)
        first = replay_trace(trace, model=summit_model)
        second = replay_trace(trace, model=summit_model)
        assert first.clocks == second.clocks
        assert first.stats == second.stats
        assert first.digests == second.digests

    def test_pipeline_trace_replays_bit_identically(self, summit_model):
        trace = _pipeline_trace()
        first = replay_trace(trace, model=summit_model)
        second = replay_trace(trace, model=summit_model)
        assert first.clocks == second.clocks
        assert first.stats == second.stats
        assert first.digests == second.digests

    def test_mixed_trace_replays_bit_identically(self, summit_model, moe_seed):
        trace = _mixed_trace(moe_seed)
        first = replay_trace(trace, model=summit_model)
        second = replay_trace(trace, model=summit_model)
        assert first.ops == len(trace["ops"])
        assert first.clocks == second.clocks
        assert first.stats == second.stats
        assert first.digests == second.digests

    def test_two_alltoallv_records_of_different_counts(self, summit_model):
        """Per-peer staging is re-acquired when the second record needs more.

        Seeds 1 and 2 put 43 008 then 45 056 packed bytes on one peer: the
        pooled first buffer shares the second's size bucket but cannot hold it.
        """
        spec = dict(tokens_per_rank=64, skew=4.0)
        trace = moe_trace(MoESpec(seed=1, **spec), 8)
        trace["ops"].extend(moe_trace(MoESpec(seed=2, **spec), 8)["ops"])
        first = replay_trace(trace, model=summit_model)
        second = replay_trace(trace, model=summit_model)
        assert first.ops == 2
        assert first.clocks == second.clocks
        assert first.digests == second.digests

    def test_round_trip_through_json_file(self, summit_model, moe_seed, tmp_path):
        trace = _moe_trace(moe_seed)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace))
        from_dict = replay_trace(trace, model=summit_model)
        from_file = replay_trace(path, model=summit_model)
        assert from_file.clocks == from_dict.clocks
        assert from_file.digests == from_dict.digests

    def test_config_moves_clocks_but_stays_deterministic(self, summit_model, moe_seed):
        """A different engine config is a different (still deterministic) run."""
        trace = _moe_trace(moe_seed)
        duplex = replay_trace(trace, model=summit_model)
        inject = replay_trace(trace, model=summit_model, config=TempiConfig(nic="inject_only"))
        inject_again = replay_trace(
            trace, model=summit_model, config=TempiConfig(nic="inject_only")
        )
        assert inject.clocks == inject_again.clocks
        assert inject.digests == duplex.digests  # bytes never depend on the NIC model

    def test_replay_runs_on_accelerated_path(self, summit_model, moe_seed):
        stats = replay_trace(_mixed_trace(moe_seed), model=summit_model).stats
        assert all(snapshot["collective_fallbacks"] == 0 for snapshot in stats)
        assert all(snapshot["plans_built"] > 0 for snapshot in stats)


class TestMalformedTraces:
    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(TraceError, match="not valid JSON"):
            load_trace(path)

    def test_non_object_document(self):
        with pytest.raises(TraceError, match="trace: document must be an object"):
            load_trace([1, 2, 3])

    def test_unsupported_version(self):
        with pytest.raises(TraceError, match="unsupported version 2"):
            load_trace({"version": 2, "nranks": 2, "ops": []})

    def test_bad_nranks(self):
        with pytest.raises(TraceError, match="nranks must be a positive integer"):
            load_trace({"version": 1, "nranks": 0, "ops": []})

    def test_unknown_op_names_record(self):
        trace = {"version": 1, "nranks": 2, "ops": [{"op": "allgather"}]}
        with pytest.raises(TraceError, match=r"ops\[0\]: unknown op 'allgather'"):
            load_trace(trace)

    def test_bad_counts_shape_names_record(self, moe_seed):
        trace = _moe_trace(moe_seed)
        trace["ops"][0]["counts"] = [[1, 2], [3, 4]]  # 2x2 matrix for 4 ranks
        with pytest.raises(TraceError, match=r"ops\[0\]: counts must be a 4x4 matrix"):
            load_trace(trace)

    def test_negative_counts_names_record(self, moe_seed):
        trace = _moe_trace(moe_seed)
        trace["ops"][0]["counts"][1][2] = -1
        with pytest.raises(TraceError, match=r"ops\[0\]: counts entries must be non-negative"):
            load_trace(trace)

    def test_odd_item_bytes_names_record(self, moe_seed):
        trace = _moe_trace(moe_seed)
        trace["ops"][0]["item_bytes"] = 4097
        with pytest.raises(TraceError, match=r"ops\[0\]: item_bytes must be a positive even"):
            load_trace(trace)

    def test_bad_allreduce_dtype_names_record(self):
        trace = {
            "version": 1, "nranks": 2,
            "ops": [{"op": "allreduce", "count": 4, "dtype": "complex64"}],
        }
        with pytest.raises(TraceError, match=r"ops\[0\]: dtype must be one of"):
            load_trace(trace)

    def test_bad_reduce_op_names_record(self):
        trace = {
            "version": 1, "nranks": 2,
            "ops": [{"op": "allreduce", "count": 4, "dtype": "float32", "reduce": "xor"}],
        }
        with pytest.raises(TraceError, match=r"ops\[0\]: reduce must be sum/prod/min/max"):
            load_trace(trace)

    def test_out_of_range_edge_names_record_and_edge(self):
        trace = {
            "version": 1, "nranks": 2,
            "ops": [
                {"op": "p2p", "edges": [[0, 1, 1], [1, 5, 1]],
                 "item_bytes": 64, "item_pad": 2},
            ],
        }
        with pytest.raises(TraceError, match=r"ops\[0\]: edges\[1\] endpoints \(1, 5\)"):
            load_trace(trace)

    def test_self_edge_rejected(self):
        trace = {
            "version": 1, "nranks": 2,
            "ops": [{"op": "p2p", "edges": [[1, 1, 1]], "item_bytes": 64, "item_pad": 2}],
        }
        with pytest.raises(TraceError, match=r"ops\[0\]: edges\[0\] endpoints \(1, 1\)"):
            load_trace(trace)

    def test_second_record_index_reported(self, moe_seed):
        trace = _moe_trace(moe_seed)
        trace["ops"].append({"op": "allreduce", "count": -3, "dtype": "float32"})
        with pytest.raises(TraceError, match=r"ops\[1\]: count must be a positive integer"):
            load_trace(trace)


class TestReceiveDigests:
    """The digests leave the run token but not the bytes they hash."""

    @pytest.mark.parametrize("step", [0, 1])
    def test_an_ml_replay_step_hashes_to_the_schema_reference(self, summit_model, e2e_workloads, step):
        trace = e2e_workloads.step_trace(1, step)
        result = replay_trace(trace, model=summit_model)
        assert result.digests == e2e_workloads.expected_digests(trace)

    def test_digests_without_a_helper_are_the_same(self, summit_model, e2e_workloads, monkeypatch):
        from repro.gpu import kernels

        trace = e2e_workloads.step_trace(1, 0)
        pooled = replay_trace(trace, model=summit_model).digests
        monkeypatch.setattr(kernels, "_helpers", [])  # as on a one-core host
        assert kernels.digest_jobs() is kernels._INLINE_DIGESTS
        assert replay_trace(trace, model=summit_model).digests == pooled

    def test_a_failed_replay_drains_its_digest_jobs(self, summit_model, host_cores, monkeypatch):
        kernels = host_cores(2)
        jobs = kernels.digest_jobs()
        assert kernels._helpers == [jobs]
        finished = threading.Event()

        class SlowDigest:
            def update(self, data):
                time.sleep(0.05)  # still running when the world has failed
                finished.set()

        p2p = replay._REPLAYERS["p2p"]

        def failing(ctx, comm, record, index, put, digest):
            p2p(ctx, comm, record, index, put, digest)
            if ctx.rank == 3:
                put((None, SlowDigest(), None))
                raise RuntimeError("planted failure")

        monkeypatch.setitem(replay._REPLAYERS, "p2p", failing)
        with pytest.raises(WorldError, match="planted failure"):
            replay_trace(_mixed_trace(7), model=summit_model)
        assert finished.is_set() and jobs.empty()
