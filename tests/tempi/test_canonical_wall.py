"""Equivalence wall of the commit pipeline: ``translate → simplify → to_strided_block``.

``tests/fixtures/canonical_forms.json`` holds the canonical ``structure()``
and the :class:`StridedBlock` of every datatype a benchmark workload commits
(Fig. 7/8, the 26 halo send and receive slabs, the replay's pitched items,
the MoE token and the pipeline activation) and of 500 datatypes drawn with a
fixed seed from ``strided_datatypes()``.  Each entry carries its constructor
recipe, so the wall replays without Hypothesis.  A rewrite of the
canonicaliser or the lowering must replay it exactly.

Regenerate (only for an intended change of the canonical form)::

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
from repro.tempi.strided_block import to_strided_block
from repro.tempi.translate import translate

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "canonical_forms.json"
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


def record() -> list[dict]:
    entries = [{"name": name, "recipe": encode(datatype)} for name, datatype in workload_datatypes()]
    entries += [{"name": f"drawn {i}", "recipe": encode(datatype)}
                for i, datatype in enumerate(drawn_datatypes())]
    for entry in entries:
        entry.update(canonical_form(decode(entry["recipe"])))
    return entries


ENTRIES = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else []


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


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(record(), separators=(",", ":")) + "\n")
    print(f"wrote {FIXTURE}")
