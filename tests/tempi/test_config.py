"""Tests for TempiConfig."""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.mpi.world import World
from repro.tempi.config import MODEL_CACHED_QUERY_S, MODEL_QUERY_S, PackMethod, TempiConfig
from repro.tempi.interposer import interpose
from repro.tempi.selection import SelectionError


class TestDefaults:
    def test_enabled_by_default(self):
        config = TempiConfig()
        assert config.enabled
        assert config.datatype_handling
        assert config.send_handling
        assert config.method is PackMethod.AUTO
        assert config.use_cache

    def test_model_query_overheads_ordered(self):
        assert MODEL_CACHED_QUERY_S < MODEL_QUERY_S
        # the paper's measured model-selection overhead
        assert MODEL_CACHED_QUERY_S == 277e-9


class TestVariants:
    def test_replace_makes_a_changed_copy(self):
        base = TempiConfig()
        config = dataclasses.replace(base, method=PackMethod.DEVICE, use_cache=False)
        assert config.method is PackMethod.DEVICE
        assert not config.use_cache
        assert base.method is PackMethod.AUTO and base.use_cache
        with pytest.raises(dataclasses.FrozenInstanceError):
            base.use_cache = False

    def test_replace_is_validated(self):
        with pytest.raises(ValueError, match="unknown nic mode 'nosuch'"):
            dataclasses.replace(TempiConfig(), nic="nosuch")

    def test_disabled_factory(self):
        config = TempiConfig.disabled()
        assert not config.enabled
        assert not config.datatype_handling
        assert not config.send_handling

    def test_contended_selection_needs_the_shared_timeline(self):
        """``selection="contended"`` reads the backlog of the shared NIC
        timeline, which ``progress="per_plan"`` never books: the pair used to
        be silently inert, now it is refused with both fields named."""
        with pytest.raises(ValueError, match="selection='contended'.*progress='per_plan'"):
            TempiConfig(selection="contended", progress="per_plan")
        with pytest.raises(ValueError, match="selection='contended'.*progress='per_plan'"):
            dataclasses.replace(TempiConfig(selection="contended"), progress="per_plan")
        with pytest.raises(ValueError, match="selection='contended'.*progress='per_plan'"):
            dataclasses.replace(TempiConfig(progress="per_plan"), selection="contended")
        assert TempiConfig(selection="contended").progress == "shared"

    def test_trace_must_be_callable(self):
        with pytest.raises(ValueError, match="trace must be a sink"):
            TempiConfig(trace="events.json")
        assert TempiConfig(trace=print).trace is print

    def test_measurement_path_accepted(self):
        config = TempiConfig(measurement_path=Path("/tmp/m.json"))
        assert config.measurement_path == Path("/tmp/m.json")


@pytest.mark.parametrize(
    "machine_name, loads",
    [("other-machine", False), ("summit-like", True), ("unknown", True)],
)
def test_measurement_file_must_be_for_this_machine(
    machine_name, loads, summit_measurement, tmp_path
):
    """``measurement_path`` loads a file recorded on this machine, or on an
    unnamed one; a file for another machine is refused with the file and
    both machine names, not silently adopted."""
    path = tmp_path / "m.json"
    dataclasses.replace(summit_measurement, machine_name=machine_name).save(path)
    comm = interpose(World(1).contexts[0], TempiConfig(measurement_path=path))
    if loads:
        assert comm.tempi.model.measurement.machine_name == machine_name
    else:
        with pytest.raises(SelectionError) as refused:
            comm.tempi.model
        message = str(refused.value)
        assert str(path) in message
        assert "'other-machine'" in message and "'summit-like'" in message


class TestPackMethod:
    def test_values(self):
        assert PackMethod.DEVICE.value == "device"
        assert PackMethod.ONESHOT.value == "oneshot"
        assert PackMethod.STAGED.value == "staged"
        assert PackMethod.AUTO.value == "auto"


#: Knobs no shipped file sets, and the reason each is a field all the same.
KNOBS_WITHOUT_A_CALLER = {
    "enabled": "the real library's master disable switch (TempiConfig.disabled())",
    "datatype_handling": "the real library's per-feature disable switch: Pack/Unpack, collectives",
    "send_handling": "the real library's per-feature disable switch: Send/Recv",
    "batch_eager_sends": "reference switch of tests/property/test_property_batching.py",
    "plan_cache": "reference switch of tests/property/test_property_fastpath.py",
    "measurement_path": "deployment path",
}
#: ``repro sanitize`` sets ``trace`` for every config a replayed benchmark
#: builds through the ambient default, not by keyword.
AMBIENT_SETTERS = {"trace_default": "trace"}


def _knobs_set_outside_tests() -> set[str]:
    """Fields some shipped ``.py`` passes to ``TempiConfig`` or ``dataclasses.replace``."""
    repo = Path(__file__).resolve().parents[2]
    knobs = {field.name for field in dataclasses.fields(TempiConfig)}
    found = set()
    for top in ("src", "benchmarks", "examples", "tools"):
        for path in sorted((repo / top).rglob("*.py")):
            if path == repo / "src" / "repro" / "tempi" / "config.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if callee in ("TempiConfig", "replace"):
                    found.update(kw.arg for kw in node.keywords if kw.arg in knobs)
                elif callee in AMBIENT_SETTERS:
                    found.add(AMBIENT_SETTERS[callee])
    return found


def test_every_knob_has_a_caller():
    """The two-callers rule as a gate: a ``TempiConfig`` field exists because a
    file outside ``tests/`` gives it a second value, or for a reason written
    down here.  Adding a knob only tests would set fails this test."""
    knobs = [field.name for field in dataclasses.fields(TempiConfig)]
    assert len(knobs) == 15
    called = _knobs_set_outside_tests()
    assert not called & set(KNOBS_WITHOUT_A_CALLER), "drop the allowlist entry: it has a caller now"
    orphans = [name for name in knobs if name not in called and name not in KNOBS_WITHOUT_A_CALLER]
    assert not orphans, f"no file outside tests/ sets {orphans}: make them constants"
    assert set(KNOBS_WITHOUT_A_CALLER) <= set(knobs)
