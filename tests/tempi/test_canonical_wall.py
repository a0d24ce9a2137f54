"""Equivalence wall of the commit pipeline: ``translate → simplify → to_strided_block``.

``tests/fixtures/canonical_forms.json`` holds the canonical ``structure()``
and the :class:`StridedBlock` of every datatype a benchmark workload commits
(Fig. 7/8, the 26 halo send and receive slabs, the replay's pitched items,
the MoE token and the pipeline activation) and of 500 datatypes drawn with a
fixed seed from ``strided_datatypes()``.  Each entry carries its constructor
recipe, so the wall replays without Hypothesis.  A rewrite of the
canonicaliser or the lowering must replay it exactly.

``tests/fixtures/commit_stages.json`` holds, for the same entries in the same
order, the stages either side of the canonical form: the raw ``translate``
``structure()`` (which the canonicalisation ablation prices) and the launch
the :class:`Packer` that commit builds plans at object counts 1 and 3.  A
rewrite of the translator, the packer or the launch layout must replay it
exactly.

Regenerate both (only for an intended change of a recorded form)::

    PYTHONPATH=src:. python tests/tempi/test_canonical_wall.py

and the wall checks that this regenerates both files byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.apps.halo import DIRECTIONS, HaloSpec
from repro.apps.moe import MoESpec, token_datatype
from repro.apps.pipeline import PipelineSpec, activation_datatype
from repro.apps.replay import _pitched_datatype
from repro.bench.workloads import fig7_configurations, fig8_configurations
from repro.gpu.runtime import CudaRuntime
from repro.mpi.constructors import (
    ContiguousDatatype,
    HvectorDatatype,
    ResizedDatatype,
    SubarrayDatatype,
    Type_contiguous,
    Type_create_hvector,
    Type_create_resized,
    Type_create_subarray,
    Type_vector,
    VectorDatatype,
)
from repro.mpi.datatype import NAMED_TYPES, NamedDatatype
from repro.tempi.canonicalize import simplify
from repro.tempi.packer import Packer
from repro.tempi.strided_block import to_strided_block
from repro.tempi.translate import translate

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "canonical_forms.json"
STAGES = FIXTURE.with_name("commit_stages.json")
#: Object counts each entry's launch is planned for (3 puts the extent in the view).
LAUNCH_COUNTS = (1, 3)
#: Hypothesis seed and size of the drawn half of the wall.
DRAW_SEED, DRAWN = 20261016, 500
#: Entries replayed per test case.
CHUNK = 100


def encode(datatype) -> list:
    """The constructor recipe of a strided datatype, as plain JSON."""
    if isinstance(datatype, NamedDatatype):
        return ["named", datatype.name]
    if isinstance(datatype, ContiguousDatatype):
        return ["contiguous", datatype.count, encode(datatype.oldtype)]
    if isinstance(datatype, VectorDatatype):
        return ["vector", datatype.count, datatype.blocklength, datatype.stride,
                encode(datatype.oldtype)]
    if isinstance(datatype, HvectorDatatype):
        return ["hvector", datatype.count, datatype.blocklength, datatype.stride_bytes,
                encode(datatype.oldtype)]
    if isinstance(datatype, SubarrayDatatype):
        return ["subarray", list(datatype.sizes), list(datatype.subsizes),
                list(datatype.starts), datatype.order, encode(datatype.oldtype)]
    if isinstance(datatype, ResizedDatatype):
        return ["resized", datatype.lb, datatype.extent, encode(datatype.oldtype)]
    raise TypeError(f"no recipe for {type(datatype).__name__}")


def decode(recipe: list):
    """Rebuild the datatype :func:`encode` described."""
    kind, *args = recipe
    if kind == "named":
        return NAMED_TYPES[args[0]]
    child = decode(args[-1])
    if kind == "contiguous":
        return Type_contiguous(args[0], child)
    if kind == "vector":
        return Type_vector(*args[:3], child)
    if kind == "hvector":
        return Type_create_hvector(*args[:3], child)
    if kind == "subarray":
        return Type_create_subarray(*args[:4], child)
    if kind == "resized":
        return Type_create_resized(child, args[0], args[1])
    raise ValueError(f"unknown recipe kind {kind!r}")


def workload_datatypes() -> list[tuple[str, object]]:
    """``(name, datatype)`` of every datatype a benchmark workload commits."""
    named = [(f"fig7 {c.label}", c.build()) for c in fig7_configurations()]
    named += [(f"fig8 {c.label}", c.build()) for c in fig8_configurations()]
    spec = HaloSpec()
    for direction in DIRECTIONS:
        named.append((f"halo send {direction}", spec.send_datatype(direction)))
        named.append((f"halo recv {direction}", spec.recv_datatype(direction)))
    moe, pipeline = MoESpec(), PipelineSpec()
    named.append(("replay pitched", _pitched_datatype(moe.token_bytes, moe.token_pad)))
    named.append(("moe token", token_datatype(moe)))
    named.append(("pipeline activation", activation_datatype(pipeline)))
    return named


def drawn_datatypes() -> list:
    """:data:`DRAWN` datatypes from ``strided_datatypes()`` at :data:`DRAW_SEED`."""
    from hypothesis import HealthCheck, Phase, given, seed, settings

    from tests.property.test_property_canonicalize import strided_datatypes

    drawn: list = []

    @seed(DRAW_SEED)
    @settings(max_examples=DRAWN, database=None, phases=[Phase.generate], deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(strided_datatypes())
    def collect(datatype) -> None:
        drawn.append(datatype)

    collect()
    return drawn[:DRAWN]


def canonical_form(datatype) -> dict:
    """What the commit pipeline makes of ``datatype``, as plain JSON."""
    canonical = simplify(translate(datatype))
    block = to_strided_block(canonical)
    return {
        "structure": [list(level) for level in canonical.structure()],
        "block": [block.start, list(block.counts), list(block.strides)],
    }


def stage_forms(datatype) -> dict:
    """The raw translation of ``datatype`` and its launches, as plain JSON.

    A launch is what the :class:`Packer` that commit builds plans for
    ``count`` objects ``datatype.extent`` bytes apart: ``"memcpy"``, or the launch
    layout's word, view shape, view strides, cell and split axis.
    """
    raw = translate(datatype)
    block = to_strided_block(simplify(raw))
    packer, runtime, launches = Packer(block, object_extent=datatype.extent), CudaRuntime(), []
    for count in LAUNCH_COUNTS:
        launch = packer._plan(runtime, count).launch
        if launch is None:
            launches.append("memcpy")
        else:
            layout = launch.layout
            launches.append([layout.word, list(layout.shape), list(layout.strides),
                             layout.cell, layout.split])
    return {"translation": [list(level) for level in raw.structure()], "launch": launches}


def record() -> list[dict]:
    entries = [{"name": name, "recipe": encode(datatype)} for name, datatype in workload_datatypes()]
    entries += [{"name": f"drawn {i}", "recipe": encode(datatype)}
                for i, datatype in enumerate(drawn_datatypes())]
    for entry in entries:
        entry.update(canonical_form(decode(entry["recipe"])))
    return entries


def render() -> tuple[str, str]:
    """The text of both fixture files, regenerated from the recipes."""
    entries = record()
    stages = [{"name": entry["name"], **stage_forms(decode(entry["recipe"]))} for entry in entries]
    return tuple(json.dumps(forms, separators=(",", ":")) + "\n" for forms in (entries, stages))


ENTRIES = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else []
STAGE_ENTRIES = json.loads(STAGES.read_text()) if STAGES.exists() else []


def test_the_wall_holds_every_workload_datatype_and_the_drawn_ones():
    names = [entry["name"] for entry in ENTRIES]
    assert sum(name.startswith("drawn ") for name in names) == DRAWN
    recorded = {entry["name"]: entry["recipe"] for entry in ENTRIES}
    for name, datatype in workload_datatypes():
        assert recorded[name] == encode(datatype), name


@pytest.mark.parametrize("first", range(0, max(1, len(ENTRIES)), CHUNK))
def test_commit_pipeline_replays_the_recorded_canonical_forms(first):
    for entry in ENTRIES[first : first + CHUNK]:
        got = canonical_form(decode(entry["recipe"]))
        assert got == {"structure": entry["structure"], "block": entry["block"]}, entry["name"]


def test_the_stage_wall_names_the_canonical_entries_in_order():
    assert [entry["name"] for entry in STAGE_ENTRIES] == [entry["name"] for entry in ENTRIES]


@pytest.mark.parametrize("first", range(0, max(1, len(ENTRIES)), CHUNK))
def test_translation_and_the_packers_launches_replay_the_recorded_stages(first):
    for entry, stages in zip(ENTRIES[first : first + CHUNK], STAGE_ENTRIES[first : first + CHUNK]):
        got = stage_forms(decode(entry["recipe"]))
        assert got == {"translation": stages["translation"], "launch": stages["launch"]}, entry["name"]


def test_the_regenerator_writes_both_fixtures_byte_for_byte():
    assert render() == (FIXTURE.read_text(), STAGES.read_text())


if __name__ == "__main__":
    for path, text in zip((FIXTURE, STAGES), render()):
        path.write_text(text)
    print(f"wrote {FIXTURE} and {STAGES}")


def _assert_views_read(ty, structure: list, name: str) -> None:
    """Every read-only view of the flat ``ty`` agrees with its recorded ``structure``."""
    assert [list(level) for level in ty.structure()] == structure, name
    assert ty.depth() == len(structure), name
    node, levels = ty, list(ty.levels())
    for depth, (kind, *data) in enumerate(structure):
        for level in (node, levels[depth]):
            assert level.structure() == tuple(tuple(part) for part in structure[depth:]), name
            assert (level.is_stream, level.is_dense) == (kind == "stream", kind == "dense"), name
            assert list(level.data) == data, name
        node = node.child
    assert node is None, name
    assert ty.leaf().structure() == (tuple(structure[-1]),), name
    assert ty.footprint() == 24 * len(structure), name
    assert str(ty).count(" -> ") == len(structure) - 1, name


def test_the_views_read_what_structure_records():
    """The level-by-level views of the paper's hierarchy, on every canonical
    form and raw translation of the wall."""
    for entry, stages in zip(ENTRIES, STAGE_ENTRIES):
        datatype = decode(entry["recipe"])
        raw = translate(datatype)
        _assert_views_read(simplify(raw), entry["structure"], entry["name"])
        _assert_views_read(raw, stages["translation"], entry["name"])
        assert raw.total_bytes() == simplify(raw).total_bytes() == datatype.size, entry["name"]
