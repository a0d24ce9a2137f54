"""Tests for TempiConfig."""

from pathlib import Path

import pytest

from repro.tempi.config import PackMethod, TempiConfig


class TestDefaults:
    def test_enabled_by_default(self):
        config = TempiConfig()
        assert config.enabled
        assert config.datatype_handling
        assert config.send_handling
        assert config.method is PackMethod.AUTO
        assert config.use_cache

    def test_model_query_overheads_ordered(self):
        config = TempiConfig()
        assert config.model_cached_query_s < config.model_query_s
        # the paper's measured model-selection overhead
        assert config.model_cached_query_s == 277e-9


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

    def test_measurement_path_accepted(self):
        config = TempiConfig(measurement_path=Path("/tmp/m.json"))
        assert config.measurement_path == Path("/tmp/m.json")


class TestPackMethod:
    def test_values(self):
        assert PackMethod.DEVICE.value == "device"
        assert PackMethod.ONESHOT.value == "oneshot"
        assert PackMethod.STAGED.value == "staged"
        assert PackMethod.AUTO.value == "auto"
