"""Tests for TempiConfig."""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

from repro.machine.nic import trace_default
from repro.machine.topology import TopologySpec
from repro.mpi.world import World
from repro.tempi.config import MODEL_CACHED_QUERY_S, MODEL_QUERY_S, PackMethod, TempiConfig
from repro.tempi.interposer import interpose
from repro.tempi.selection import ContendedSelector, FixedSelector, ModelSelector, SelectionError


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

    def test_inject_only_needs_the_shared_timeline(self):
        """``nic`` picks which ends of the shared timeline are priced, and
        ``progress="per_plan"`` books none: the pair is refused, both named."""
        pattern = "nic='inject_only'.*progress='per_plan'"
        with pytest.raises(ValueError, match=pattern):
            TempiConfig(nic="inject_only", progress="per_plan")
        with pytest.raises(ValueError, match=pattern):
            dataclasses.replace(TempiConfig(nic="inject_only"), progress="per_plan")
        with pytest.raises(ValueError, match=pattern):
            dataclasses.replace(TempiConfig(progress="per_plan"), nic="inject_only")

    @pytest.mark.parametrize("algorithm", ["ring", "tree", "hierarchical"])
    def test_a_pinned_allreduce_needs_send_handling(self, algorithm):
        """``send_handling=False`` returns ``Allreduce`` to the system fan-in
        before the schedule is read, so a pinned ``allreduce_algorithm``
        beside it is refused, both fields named."""
        pattern = f"send_handling=False.*allreduce_algorithm='{algorithm}'"
        with pytest.raises(ValueError, match=pattern):
            TempiConfig(send_handling=False, allreduce_algorithm=algorithm)
        with pytest.raises(ValueError, match=pattern):
            dataclasses.replace(TempiConfig(allreduce_algorithm=algorithm), send_handling=False)
        with pytest.raises(ValueError, match=pattern):
            dataclasses.replace(TempiConfig(send_handling=False), allreduce_algorithm=algorithm)
        assert TempiConfig(send_handling=False).allreduce_algorithm == "auto"

    @pytest.mark.parametrize("off", [{"progress": "per_plan"}, {"overlap": False}],
                             ids=["per_plan", "serial"])
    def test_unbatching_what_is_never_batched_is_refused(self, off):
        """Batching is already off under ``progress="per_plan"`` and under
        ``overlap=False``: ``batch_eager_sends=False`` there is refused."""
        (name, value), = off.items()
        pattern = f"batch_eager_sends=False.*{name}={value!r}"
        with pytest.raises(ValueError, match=pattern):
            TempiConfig(batch_eager_sends=False, **off)
        with pytest.raises(ValueError, match=pattern):
            dataclasses.replace(TempiConfig(batch_eager_sends=False), **off)
        with pytest.raises(ValueError, match=pattern):
            dataclasses.replace(TempiConfig(**off), batch_eager_sends=False)
        assert TempiConfig(**off).batch_eager_sends

    @pytest.mark.parametrize("field", [
        {"datatype_handling": True}, {"send_handling": True},
        {"method": PackMethod.DEVICE}, {"selection": "contended"},
        {"allreduce_algorithm": "ring"}, {"overlap": False}, {"progress": "per_plan"},
        {"nic": "inject_only"}, {"batch_eager_sends": False}, {"use_cache": False},
        {"plan_cache": False}, {"measurement_path": Path("m.json")},
    ], ids=lambda field: next(iter(field)))
    def test_a_disabled_config_refuses_every_other_value(self, field):
        """``enabled=False`` makes every other field inert: a value other than
        ``disabled()``'s is refused, named, at construction and through
        ``dataclasses.replace``."""
        (name, value), = field.items()
        pattern = f"enabled=False.*{re.escape(f'{name}={value!r}')}"
        with pytest.raises(ValueError, match=pattern):
            dataclasses.replace(TempiConfig.disabled(), **field)
        with pytest.raises(ValueError, match=pattern):
            TempiConfig(enabled=False, **{"datatype_handling": False, "send_handling": False, **field})
        if name not in ("datatype_handling", "send_handling"):
            assert getattr(TempiConfig(**field), name) == value  # refused only beside enabled=False

    def test_trace_must_be_callable(self):
        with pytest.raises(ValueError, match="trace sink must be called as sink"):
            with trace_default("events.json"):
                pass

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


#: The committed fat-tree example (two 4-rank nodes per leaf, 2-rank islands).
FATTREE = TopologySpec.load(Path(__file__).resolve().parents[2] / "examples" / "topology_fattree.json")


class TestOneTopology:
    """A run has one topology, the world's: the interposer prices the
    machine the communicator it wraps prices."""

    def test_topology_is_not_a_config_field(self):
        with pytest.raises(TypeError, match="topology"):
            TempiConfig(topology=FATTREE)


#: Each config the engine reads, with the engine flags ``(shared, duplex,
#: batching)`` and the selector class it wires.
WIRINGS = {
    "default": (TempiConfig(), (True, True, True), ModelSelector),
    "serial": (TempiConfig(overlap=False), (True, True, False), ModelSelector),
    "per_plan": (TempiConfig(progress="per_plan"), (False, False, False), ModelSelector),
    "inject_only": (TempiConfig(nic="inject_only"), (True, False, True), ModelSelector),
    "unbatched": (TempiConfig(batch_eager_sends=False), (True, True, False), ModelSelector),
    "contended": (TempiConfig(selection="contended"), (True, True, True), ContendedSelector),
    "device": (TempiConfig(method=PackMethod.DEVICE), (True, True, True), FixedSelector),
}


class TestOneWiring:
    """A rank's executor, engine and selector follow from the config and the
    communicator the interposer wraps: its world's NIC, its rank, and its
    topology when that is hierarchical."""

    @pytest.mark.parametrize("spec", [FATTREE, None], ids=["fattree", "flat"])
    @pytest.mark.parametrize("name", list(WIRINGS))
    def test_interpose_wires_from_config_and_communicator(self, name, spec, summit_model):
        config, flags, selector_type = WIRINGS[name]
        world = World(8, ranks_per_node=4, topology=spec)
        topology = world.topology if spec is not None else None

        def program(ctx):
            comm = interpose(ctx, config, model=summit_model)
            engine, selector = comm.progress_engine, comm._selector
            assert comm.executor.engine is engine and comm.executor.overlap is config.overlap
            assert (engine.shared, engine.duplex, engine.batching) == flags
            assert engine.nic is world.nic and engine.topology is topology
            assert type(selector) is selector_type
            contended = selector_type is ContendedSelector
            assert getattr(selector, "nic", None) is (world.nic if contended else None)
            assert getattr(selector, "rank", None) == (ctx.rank if contended else None)
            assert getattr(selector, "topology", None) is (topology if contended else None)
            return True

        assert all(world.run(program))


#: Knobs no shipped file sets, and the reason each is a field all the same.
KNOBS_WITHOUT_A_CALLER = {
    "enabled": "the real library's master disable switch (TempiConfig.disabled())",
    "datatype_handling": "the real library's per-feature disable switch: Pack/Unpack, collectives",
    "send_handling": "the real library's per-feature disable switch: Send/Recv",
    "batch_eager_sends": "reference switch of tests/property/test_property_batching.py",
    "plan_cache": "reference switch of tests/property/test_property_fastpath.py",
    "measurement_path": "deployment path",
}


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
    return found


def test_every_knob_has_a_caller():
    """The two-callers rule as a gate: a ``TempiConfig`` field exists because a
    file outside ``tests/`` gives it a second value, or for a reason written
    down here.  Adding a knob only tests would set fails this test."""
    knobs = [field.name for field in dataclasses.fields(TempiConfig)]
    assert len(knobs) == 13
    called = _knobs_set_outside_tests()
    assert not called & set(KNOBS_WITHOUT_A_CALLER), "drop the allowlist entry: it has a caller now"
    orphans = [name for name in knobs if name not in called and name not in KNOBS_WITHOUT_A_CALLER]
    assert not orphans, f"no file outside tests/ sets {orphans}: make them constants"
    assert set(KNOBS_WITHOUT_A_CALLER) <= set(knobs)
