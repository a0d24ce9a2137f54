"""Tests for the figure workload definitions."""

import pytest

from repro.bench.workloads import (
    DEFAULT_PITCH,
    GEOMETRIES,
    MAX_EXTENT_BYTES,
    Fig8Config,
    fig7_configurations,
    fig8_configurations,
    fig11_configurations,
)
from repro.tempi.canonicalize import simplify
from repro.tempi.strided_block import to_strided_block
from repro.tempi.translate import translate


class TestFig7:
    def test_fifteen_configurations(self):
        configs = fig7_configurations()
        assert len(configs) == 15
        assert [c.index for c in configs] == list(range(15))

    def test_five_construction_families(self):
        families = {c.family for c in fig7_configurations()}
        assert len(families) == 5

    def test_all_constructions_describe_their_geometry(self):
        for config in fig7_configurations():
            datatype = config.build()
            assert datatype.size == config.geometry.object_bytes

    def test_equivalent_constructions_share_canonical_form(self):
        by_geometry = {}
        for config in fig7_configurations():
            block = to_strided_block(simplify(translate(config.build())))
            by_geometry.setdefault(config.geometry, set()).add(
                (block.start, block.counts, block.strides)
            )
        assert all(len(forms) == 1 for forms in by_geometry.values())

    def test_geometries_are_consistent(self):
        for geometry in GEOMETRIES:
            assert geometry.e0 * 4 <= geometry.a0
            assert geometry.object_bytes < geometry.alloc_bytes

    def test_labels_unique(self):
        labels = [c.label for c in fig7_configurations()]
        assert len(set(labels)) == len(labels)


class TestFig8:
    def test_seven_bar_groups(self):
        assert len(fig8_configurations()) == 7

    def test_sizes_and_counts_match_figure(self):
        configs = {c.label: c for c in fig8_configurations()}
        assert configs["vec 1KiB 1/8"].object_bytes == 1024
        assert configs["vec 1KiB 1/8"].block_bytes == 8
        assert configs["vec 4MiB 2/1"].count == 2
        assert configs["sub 1KiB 1/8"].kind == "subarray"

    def test_pitch_is_512_for_small_objects(self):
        config = Fig8Config("x", "vector", 1024, 1, 8)
        assert config.pitch == DEFAULT_PITCH

    def test_pitch_shrinks_for_huge_block_counts(self):
        config = Fig8Config("x", "vector", 4 * 1024 * 1024, 1, 1)
        assert config.pitch == 2
        assert config.extent_bytes <= MAX_EXTENT_BYTES

    def test_datatypes_build_and_have_expected_size(self):
        for config in fig8_configurations():
            datatype = config.build()
            assert datatype.size == config.object_bytes

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Fig8Config("x", "indexed", 1024, 1, 8).build()

    def test_extent_accounts_for_count(self):
        config = Fig8Config("x", "vector", 1024, 2, 8)
        assert config.extent_bytes >= 2 * (config.nblocks - 1) * config.pitch


class TestFig10And11:
    def test_fig11_group_count(self):
        configs = fig11_configurations()
        assert len(configs) == 27

    def test_fig11_labels(self):
        labels = {c.label for c in fig11_configurations()}
        assert "1KiB/8B" in labels
        assert "4MiB/256B" in labels

    def test_fig11_datatypes_translatable(self):
        for config in fig11_configurations():
            block = to_strided_block(simplify(translate(config.build())))
            assert block is not None
            assert block.packed_bytes == config.object_bytes
