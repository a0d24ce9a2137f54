"""Tests for TempiConfig."""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.tempi.config import MODEL_CACHED_QUERY_S, MODEL_QUERY_S, PackMethod, TempiConfig


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
    def test_with_overrides(self):
        config = TempiConfig().with_overrides(method=PackMethod.DEVICE, use_cache=False)
        assert config.method is PackMethod.DEVICE
        assert not config.use_cache
        # original untouched (frozen dataclass semantics)
        assert TempiConfig().method is PackMethod.AUTO

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
            TempiConfig(selection="contended").with_overrides(progress="per_plan")
        with pytest.raises(ValueError, match="selection='contended'.*progress='per_plan'"):
            TempiConfig(progress="per_plan").with_overrides(selection="contended")
        assert TempiConfig(selection="contended").progress == "shared"

    def test_trace_must_be_callable(self):
        with pytest.raises(ValueError, match="trace must be a sink"):
            TempiConfig(trace="events.json")
        assert TempiConfig(trace=print).trace is print

    def test_measurement_path_accepted(self):
        config = TempiConfig(measurement_path=Path("/tmp/m.json"))
        assert config.measurement_path == Path("/tmp/m.json")


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
    "measurement_path": "deployment path",
}
#: ``repro sanitize`` sets ``trace`` for every config a replayed benchmark
#: builds through the ambient default, not by keyword.
AMBIENT_SETTERS = {"trace_default": "trace"}


def _knobs_set_outside_tests() -> set[str]:
    """Fields some shipped ``.py`` passes to ``TempiConfig``/``with_overrides``."""
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
                if callee in ("TempiConfig", "with_overrides"):
                    found.update(kw.arg for kw in node.keywords if kw.arg in knobs)
                elif callee in AMBIENT_SETTERS:
                    found.add(AMBIENT_SETTERS[callee])
    return found


def test_every_knob_has_a_caller():
    """The two-callers rule as a gate: a ``TempiConfig`` field exists because a
    file outside ``tests/`` gives it a second value, or for a reason written
    down here.  Adding a knob only tests would set fails this test."""
    knobs = [field.name for field in dataclasses.fields(TempiConfig)]
    assert len(knobs) == 16
    called = _knobs_set_outside_tests()
    assert not called & set(KNOBS_WITHOUT_A_CALLER), "drop the allowlist entry: it has a caller now"
    orphans = [name for name in knobs if name not in called and name not in KNOBS_WITHOUT_A_CALLER]
    assert not orphans, f"no file outside tests/ sets {orphans}: make them constants"
    assert set(KNOBS_WITHOUT_A_CALLER) <= set(knobs)
