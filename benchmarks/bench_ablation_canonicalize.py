"""Ablation: what the canonicalisation passes buy (DESIGN.md §5).

The paper's argument for the middle ground between specialised kernels and
generic block lists is that canonicalisation turns *every* strided
construction into the same small StridedBlock, so one generic kernel family
covers them all with negligible metadata.  This ablation disables the
canonicalisation passes (lowering the *raw* translated Type instead) and
measures what is lost:

* how many distinct kernel configurations are needed per object;
* the metadata footprint compared with a block-list representation.
"""

from __future__ import annotations

from repro.bench.workloads import fig7_configurations
from repro.mpi import typemap
from repro.tempi.canonicalize import simplify
from repro.tempi.strided_block import to_strided_block
from repro.tempi.translate import translate


def _lower(datatype, *, canonicalize: bool):
    ir = translate(datatype)
    if canonicalize:
        ir = simplify(ir)
    return to_strided_block(ir), ir


def run_sweep():
    rows = []
    for config in fig7_configurations():
        datatype = config.build()
        with_passes, canonical_ir = _lower(datatype, canonicalize=True)
        without_passes, raw_ir = _lower(datatype, canonicalize=False)
        rows.append(
            {
                "config": config,
                "canonical_block": with_passes,
                "raw_block": without_passes,
                "canonical_depth": canonical_ir.depth(),
                "raw_depth": raw_ir.depth(),
                "blocklist_bytes": 16 * typemap.block_count(datatype),
            }
        )
    return rows


def kernel_shapes(rows):
    """Distinct ``(counts, strides)`` per geometry: ``(with passes, without)``."""
    canonical: dict = {}
    raw: dict = {}
    for row in rows:
        config, block, raw_block = row["config"], row["canonical_block"], row["raw_block"]
        canonical.setdefault(config.geometry, set()).add((block.counts, block.strides))
        raw.setdefault(config.geometry, set()).add((raw_block.counts, raw_block.strides))
    return canonical, raw
