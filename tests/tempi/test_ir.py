"""Tests for the TEMPI Type IR."""

import pytest

from repro.tempi.ir import DenseData, StreamData, Type, dense, stream


class TestTypeData:
    """The flat Type rejects each level that is not self-consistent, naming it."""

    def test_dense_validation(self):
        dense(4).validate()
        for base, message in [
            ((-1, 4), "DenseData offset must be non-negative, got -1"),
            ((0, 0), "DenseData extent must be positive, got 0"),
            ((0, -4), "DenseData extent must be positive, got -4"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                Type(((0, 8, 2),), base).validate()

    def test_stream_validation(self):
        stream(2, 4, dense(4)).validate()
        for rows, message in [
            (((0, 0, 2),), "StreamData stride must be positive, got 0"),
            (((0, -8, 2),), "StreamData stride must be positive, got -8"),
            (((0, 4, 0),), "StreamData count must be positive, got 0"),
            (((-1, 4, 1),), "StreamData offset must be non-negative, got -1"),
            (((0, 16, 2), (0, 4, -3)), "StreamData count must be positive, got -3"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                Type(rows, (0, 4)).validate()


class TestTypeChain:
    def chain(self) -> Type:
        return stream(4, 64, stream(8, 8, dense(4)))

    def test_is_stored_flat(self):
        ty = stream(4, 64, stream(8, 8, dense(4, offset=2)), offset=1)
        assert ty == Type(((1, 64, 4), (0, 8, 8)), (2, 4))

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

    def test_dense_helper(self):
        ty = dense(16, offset=2)
        assert ty.is_dense
        assert ty.data == DenseData(offset=2, extent=16)

    def test_stream_helper(self):
        ty = stream(3, 12, dense(4), offset=1)
        assert ty.is_stream
        assert ty.data == StreamData(offset=1, stride=12, count=3)
        assert ty.child.is_dense
