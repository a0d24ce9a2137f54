"""Tests for the TEMPI Type IR."""

import pytest

from repro.tempi.ir import DenseData, StreamData, Type, dense, stream


class TestTypeData:
    def test_dense_validation(self):
        DenseData(offset=0, extent=4).validate()
        with pytest.raises(ValueError):
            DenseData(offset=-1, extent=4).validate()
        with pytest.raises(ValueError):
            DenseData(offset=0, extent=0).validate()

    def test_stream_validation(self):
        StreamData(offset=0, stride=4, count=2).validate()
        with pytest.raises(ValueError):
            StreamData(offset=0, stride=0, count=2).validate()
        with pytest.raises(ValueError):
            StreamData(offset=0, stride=4, count=0).validate()
        with pytest.raises(ValueError):
            StreamData(offset=-1, stride=4, count=1).validate()


class TestTypeChain:
    def chain(self) -> Type:
        return stream(4, 64, stream(8, 8, dense(4)))

    def test_depth_and_levels(self):
        ty = self.chain()
        assert ty.depth() == 3
        kinds = [level.is_stream for level in ty.levels()]
        assert kinds == [True, True, False]

    def test_leaf(self):
        assert self.chain().leaf().is_dense

    def test_total_bytes(self):
        assert self.chain().total_bytes() == 4 * 8 * 4

    def test_footprint_is_tiny(self):
        # Three levels of at most three integers each: the Sec. 2 argument.
        assert self.chain().footprint() == 72

    def test_structure_summary(self):
        assert self.chain().structure() == (
            ("stream", 0, 64, 4),
            ("stream", 0, 8, 8),
            ("dense", 0, 4),
        )

    def test_str_rendering(self):
        text = str(self.chain())
        assert "Stream" in text and "Dense" in text and "->" in text

    def test_validate_accepts_well_formed(self):
        self.chain().validate()

    def test_validate_rejects_dense_with_child(self):
        bad = Type(DenseData(0, 4), dense(4))
        with pytest.raises(ValueError):
            bad.validate()

    def test_validate_rejects_stream_without_child(self):
        bad = Type(StreamData(0, 4, 2))
        with pytest.raises(ValueError):
            bad.validate()

    def test_dense_helper(self):
        ty = dense(16, offset=2)
        assert ty.is_dense
        assert ty.data.extent == 16
        assert ty.data.offset == 2

    def test_stream_helper(self):
        ty = stream(3, 12, dense(4), offset=1)
        assert ty.is_stream
        assert ty.data.count == 3
        assert ty.child.is_dense
