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
``structure()`` (which the canonicalisation ablation prices) and the full
:class:`KernelSpec` that ``select_kernel`` picks for the block at object
counts 1 and 3.  A rewrite of the translator or of kernel selection must
replay it exactly.

Regenerate both (only for an intended change of a recorded form)::

    PYTHONPATH=src:. python tests/tempi/test_canonical_wall.py
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
from repro.tempi.kernels import select_kernel
from repro.tempi.strided_block import to_strided_block
from repro.tempi.translate import translate

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "canonical_forms.json"
STAGES = FIXTURE.with_name("commit_stages.json")
#: Object counts each block's kernel is selected for (2-D kernels put it on grid z).
KERNEL_COUNTS = (1, 3)
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
        "block": None if block is None else [block.start, list(block.counts), list(block.strides)],
    }


def stage_forms(datatype) -> dict:
    """The raw translation of ``datatype`` and its block's kernels, as plain JSON."""
    raw = translate(datatype)
    block = to_strided_block(simplify(raw))
    kernels = None
    if block is not None:
        kernels = []
        for count in KERNEL_COUNTS:
            spec = select_kernel(block, count=count)
            kernels.append([spec.dimensions, spec.word_size, list(spec.block_dim),
                            list(spec.grid_dim), spec.count_strategy])
    return {"translation": [list(level) for level in raw.structure()], "kernels": kernels}


def record() -> list[dict]:
    entries = [{"name": name, "recipe": encode(datatype)} for name, datatype in workload_datatypes()]
    entries += [{"name": f"drawn {i}", "recipe": encode(datatype)}
                for i, datatype in enumerate(drawn_datatypes())]
    for entry in entries:
        entry.update(canonical_form(decode(entry["recipe"])))
    return entries


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
def test_translation_and_kernel_selection_replay_the_recorded_stages(first):
    for entry, stages in zip(ENTRIES[first : first + CHUNK], STAGE_ENTRIES[first : first + CHUNK]):
        got = stage_forms(decode(entry["recipe"]))
        assert got == {"translation": stages["translation"], "kernels": stages["kernels"]}, entry["name"]
        for kernel in got["kernels"] or ():
            assert all(type(v) is int for v in kernel[2] + kernel[3]), entry["name"]


if __name__ == "__main__":
    entries = record()
    FIXTURE.write_text(json.dumps(entries, separators=(",", ":")) + "\n")
    stages = [{"name": entry["name"], **stage_forms(decode(entry["recipe"]))} for entry in entries]
    STAGES.write_text(json.dumps(stages, separators=(",", ":")) + "\n")
    print(f"wrote {FIXTURE} and {STAGES}")
