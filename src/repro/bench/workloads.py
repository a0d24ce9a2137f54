"""The datatype configurations swept by the paper's figures.

Figure 7 sweeps fifteen different *constructions* of 3-D objects (subarray;
hvector of vector; hvector of hvector of vector; subarray of vector) to show
that commit-time canonicalisation handles all of them.  Figures 8, 10 and 11
sweep 2-D objects parameterised by total size, contiguous-block length and
object count, with a 512 B pitch between blocks.

These builders produce *uncommitted* datatypes so each benchmark can time the
commit itself (Fig. 7) or commit through whichever communicator (baseline or
TEMPI) it is measuring.

One practical deviation: for very small blocks the paper's fixed 512 B pitch
makes the described allocation thousands of times larger than the payload
(a 4 MiB object of 1 B blocks spans 2 GiB).  The simulated kernels' cost does
not depend on the pitch, so when the 512 B pitch would push an allocation
past ``MAX_EXTENT_BYTES`` the workload shrinks the pitch to twice the block
length and records that in the configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.mpi.constructors import (
    Type_contiguous,
    Type_create_hvector,
    Type_create_resized,
    Type_create_subarray,
    Type_vector,
)
from repro.mpi.datatype import BYTE, FLOAT, ORDER_C, Datatype

KIB = 1024
MIB = 1024 * 1024

#: Pitch between contiguous blocks in the 2-D sweeps (Fig. 8).
DEFAULT_PITCH = 512
#: Cap on the extent of a single described object in the functional benchmarks.
MAX_EXTENT_BYTES = 256 * MIB


# --------------------------------------------------------------------------- #
# Figure 7: fifteen 3-D object constructions
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class Geometry3D:
    """A 3-D object of ``e0 × e1 × e2`` floats in an ``a0 × a1 × a2``-byte allocation."""

    e0: int
    e1: int
    e2: int
    a0: int
    a1: int
    a2: int

    def __post_init__(self) -> None:
        if self.e0 * 4 > self.a0:
            raise ValueError("object rows must fit in the allocation rows")
        if self.e1 > self.a1 or self.e2 > self.a2:
            raise ValueError("object must fit in the allocation")

    @property
    def object_bytes(self) -> int:
        return 4 * self.e0 * self.e1 * self.e2

    @property
    def alloc_bytes(self) -> int:
        return self.a0 * self.a1 * self.a2


#: Three object geometries, in the spirit of Fig. 2 (the paper's A0 of 256 B
#: cannot hold 100 floats; the allocation rows here are widened to 512 B).
GEOMETRIES = (
    Geometry3D(e0=100, e1=13, e2=47, a0=512, a1=512, a2=1024),
    Geometry3D(e0=64, e1=16, e2=16, a0=256, a1=64, a2=64),
    Geometry3D(e0=12, e1=40, e2=30, a0=64, a1=128, a2=128),
)


@dataclass(frozen=True)
class Fig7Config:
    """One bar of Fig. 7: a named way of constructing a 3-D object datatype."""

    index: int
    family: str
    geometry: Geometry3D
    build: Callable[[], Datatype]

    @property
    def label(self) -> str:
        return f"{self.index}:{self.family}"


def _subarray_3d(g: Geometry3D) -> Datatype:
    return Type_create_subarray(
        sizes=(g.a2, g.a1, g.a0),
        subsizes=(g.e2, g.e1, g.e0 * 4),
        starts=(0, 0, 0),
        order=ORDER_C,
        oldtype=BYTE,
    )


def _hvector_of_vector(g: Geometry3D) -> Datatype:
    plane = Type_vector(g.e1, g.e0, g.a0 // 4, FLOAT)
    return Type_create_hvector(g.e2, 1, g.a0 * g.a1, plane)


def _hvector_of_hvector_of_vector_float(g: Geometry3D) -> Datatype:
    row = Type_vector(1, g.e0, g.e0, FLOAT)
    plane = Type_create_hvector(g.e1, 1, g.a0, row)
    return Type_create_hvector(g.e2, 1, g.a0 * g.a1, plane)


def _hvector_of_hvector_of_contiguous_byte(g: Geometry3D) -> Datatype:
    row = Type_contiguous(g.e0 * 4, BYTE)
    plane = Type_create_hvector(g.e1, 1, g.a0, row)
    return Type_create_hvector(g.e2, 1, g.a0 * g.a1, plane)


def _subarray_of_vector(g: Geometry3D) -> Datatype:
    # The plane vector's natural extent is smaller than the allocation's plane
    # pitch, so it is resized (as real MPI codes do) before being tiled by the
    # enclosing 1-D subarray.
    plane = Type_vector(g.e1, g.e0, g.a0 // 4, FLOAT)
    tiled = Type_create_resized(plane, 0, g.a0 * g.a1)
    return Type_create_subarray(
        sizes=(g.a2,),
        subsizes=(g.e2,),
        starts=(0,),
        order=ORDER_C,
        oldtype=tiled,
    )


def fig7_configurations() -> list[Fig7Config]:
    """The fifteen constructions of Fig. 7 (indices 0-14)."""
    configs: list[Fig7Config] = []
    index = 0
    for geometry in GEOMETRIES:  # 0-2: subarray
        configs.append(Fig7Config(index, "subarray", geometry, lambda g=geometry: _subarray_3d(g)))
        index += 1
    for geometry in GEOMETRIES:  # 3-5: hvector of vector
        configs.append(
            Fig7Config(index, "hvector(vector)", geometry, lambda g=geometry: _hvector_of_vector(g))
        )
        index += 1
    for geometry in GEOMETRIES:  # 6-8: hvector of hvector of vector (float base)
        configs.append(
            Fig7Config(
                index,
                "hvector(hvector(vector))",
                geometry,
                lambda g=geometry: _hvector_of_hvector_of_vector_float(g),
            )
        )
        index += 1
    for geometry in GEOMETRIES:  # 9-11: hvector of hvector of contiguous bytes
        configs.append(
            Fig7Config(
                index,
                "hvector(hvector(contiguous))",
                geometry,
                lambda g=geometry: _hvector_of_hvector_of_contiguous_byte(g),
            )
        )
        index += 1
    for geometry in GEOMETRIES:  # 12-14: subarray of vector
        configs.append(
            Fig7Config(
                index, "subarray(vector)", geometry, lambda g=geometry: _subarray_of_vector(g)
            )
        )
        index += 1
    return configs


# --------------------------------------------------------------------------- #
# Figures 8, 10 and 11: 2-D objects (size, block length, count)
# --------------------------------------------------------------------------- #

def _pitch_for(object_bytes: int, block_bytes: int) -> int:
    """512 B pitch unless that makes the allocation unreasonably large."""
    nblocks = max(1, object_bytes // block_bytes)
    if nblocks * DEFAULT_PITCH <= MAX_EXTENT_BYTES:
        return DEFAULT_PITCH
    return 2 * block_bytes


@dataclass(frozen=True)
class Fig8Config:
    """One group of Fig. 8: a 2-D object packed ``count`` times."""

    label: str
    kind: str  # "vector" or "subarray"
    object_bytes: int
    count: int
    block_bytes: int

    @property
    def pitch(self) -> int:
        return _pitch_for(self.object_bytes, self.block_bytes)

    @property
    def nblocks(self) -> int:
        return max(1, self.object_bytes // self.block_bytes)

    def build(self) -> Datatype:
        """The datatype describing one object."""
        if self.kind == "vector":
            if self.nblocks == 1:
                return Type_contiguous(self.object_bytes, BYTE)
            return Type_vector(self.nblocks, self.block_bytes, self.pitch, BYTE)
        if self.kind == "subarray":
            return Type_create_subarray(
                sizes=(self.nblocks, self.pitch),
                subsizes=(self.nblocks, self.block_bytes),
                starts=(0, 0),
                order=ORDER_C,
                oldtype=BYTE,
            )
        raise ValueError(f"unknown 2-D datatype kind {self.kind!r}")

    @property
    def extent_bytes(self) -> int:
        """Bytes of allocation needed for ``count`` objects."""
        per_object = (self.nblocks - 1) * self.pitch + self.block_bytes
        return per_object * self.count if self.nblocks > 1 else self.object_bytes * self.count


def fig8_configurations() -> list[Fig8Config]:
    """The seven bar groups of Fig. 8."""
    return [
        Fig8Config("vec 1KiB 1/1", "vector", KIB, 1, 1),
        Fig8Config("vec 1KiB 1/8", "vector", KIB, 1, 8),
        Fig8Config("sub 1KiB 1/8", "subarray", KIB, 1, 8),
        Fig8Config("vec 1KiB 1/128", "vector", KIB, 1, 128),
        Fig8Config("vec 1KiB 1/256", "vector", KIB, 1, 256),
        Fig8Config("vec 1KiB 2/8", "vector", KIB, 2, 8),
        Fig8Config("vec 4MiB 2/1", "vector", 4 * MIB, 2, 1),
    ]


#: Object sizes and contiguous-block lengths of Fig. 10's four panels.
FIG10_OBJECT_SIZES = (64, 64 * KIB, 256 * KIB, MIB, 4 * MIB)
FIG10_BLOCK_SIZES = (1, 2, 4, 8, 16, 32, 64, 128)


@dataclass(frozen=True)
class Fig11Config:
    """One bar group of Fig. 11: a 2-D object sent between two ranks."""

    object_bytes: int
    block_bytes: int

    @property
    def label(self) -> str:
        size = (
            f"{self.object_bytes // MIB}MiB"
            if self.object_bytes >= MIB
            else f"{self.object_bytes // KIB}KiB"
        )
        return f"{size}/{self.block_bytes}B"

    @property
    def pitch(self) -> int:
        return _pitch_for(self.object_bytes, self.block_bytes)

    @property
    def nblocks(self) -> int:
        return max(1, self.object_bytes // self.block_bytes)

    def build(self) -> Datatype:
        if self.nblocks == 1:
            return Type_contiguous(self.object_bytes, BYTE)
        return Type_vector(self.nblocks, self.block_bytes, self.pitch, BYTE)

    @property
    def extent_bytes(self) -> int:
        return (self.nblocks - 1) * self.pitch + self.block_bytes


FIG11_OBJECT_SIZES = (KIB, MIB, 4 * MIB)
FIG11_BLOCK_SIZES = (1, 2, 4, 8, 16, 32, 64, 128, 256)


def fig11_configurations() -> list[Fig11Config]:
    """The 27 bar groups of Fig. 11 (3 object sizes × 9 block lengths)."""
    configs = []
    for object_bytes in FIG11_OBJECT_SIZES:
        for block_bytes in FIG11_BLOCK_SIZES:
            configs.append(Fig11Config(object_bytes, block_bytes))
    return configs
