"""Tests for the MessagePlan IR and its compilers."""

import pytest

from repro.gpu.memory import MemoryKind
from repro.gpu.runtime import CudaRuntime
from repro.tempi.config import PackMethod
from repro.tempi.packer import Packer
from repro.tempi.plan import (
    PlanError,
    PlanSection,
    compile_exchange,
    compile_recv,
    compile_send,
    staging_kind,
)
from repro.tempi.strided_block import StridedBlock


def make_packer(block=16, count=32, pitch=64) -> Packer:
    shape = StridedBlock(start=0, counts=(block, count), strides=(1, pitch))
    return Packer(shape, object_extent=(count - 1) * pitch + block)


def make_buffer(nbytes):
    return CudaRuntime().malloc(nbytes)


class TestStagingKind:
    def test_concrete_methods(self):
        assert staging_kind(PackMethod.DEVICE) is MemoryKind.DEVICE
        assert staging_kind(PackMethod.ONESHOT) is MemoryKind.HOST_MAPPED
        assert staging_kind(PackMethod.STAGED) is MemoryKind.DEVICE

    def test_auto_rejected(self):
        with pytest.raises(PlanError):
            staging_kind(PackMethod.AUTO)


class TestCompileSend:
    def test_one_pack_one_post(self):
        packer = make_packer()
        buf = make_buffer(packer.required_input(1))
        plan = compile_send(packer, buf, 1, dest=3, tag=7, method=PackMethod.DEVICE)
        assert plan.op == "send"
        assert plan.tag == 7
        assert not plan.nonblocking
        assert len(plan.pack_stages) == 1 and len(plan.post_stages) == 1
        assert not plan.unpack_stages and plan.local is None
        stage = plan.pack_stages[0]
        assert stage.peer == 3
        assert stage.nbytes == packer.packed_size(1)
        assert stage.staging_key is None  # p2p staging checks out of the pool
        assert plan.post_stages[0].pack is stage
        assert plan.method_counts() == {"device": 1}

    def test_nonblocking_flag_carried(self):
        packer = make_packer()
        buf = make_buffer(packer.required_input(1))
        plan = compile_send(packer, buf, 1, 0, 0, PackMethod.ONESHOT, nonblocking=True)
        assert plan.nonblocking


class TestCompileRecv:
    def test_one_unpack_stage(self):
        packer = make_packer()
        buf = make_buffer(packer.required_input(2))
        plan = compile_recv(packer, buf, 2, source=1, tag=5, method=PackMethod.ONESHOT)
        assert plan.op == "recv"
        assert len(plan.unpack_stages) == 1
        assert not plan.pack_stages and not plan.post_stages
        stage = plan.unpack_stages[0]
        assert stage.peer == 1
        assert stage.nbytes == packer.packed_size(2)
        assert plan.method_counts() == {}  # no wire sends on the receive side


class TestCompileExchange:
    def _sections(self, packer, peers):
        return [
            PlanSection(peer, 1, index * packer.object_extent, packer)
            for index, peer in enumerate(peers)
        ]

    def test_one_stage_triple_per_wire_peer(self):
        packer = make_packer()
        buf = make_buffer(packer.object_extent * 4)
        sections = self._sections(packer, [0, 1, 2, 3])
        selections = []

        def select(p, nbytes, peer=None):
            selections.append(nbytes)
            return PackMethod.DEVICE

        plan = compile_exchange(0, buf, sections, buf, sections, select)
        # rank 0: peers 1..3 on the wire, peer 0 is the local stage pair
        assert [s.peer for s in plan.pack_stages] == [1, 2, 3]
        assert [s.peer for s in plan.unpack_stages] == [1, 2, 3]
        assert plan.local is not None
        local_pack, local_unpack = plan.local
        assert local_pack.peer == 0 and local_unpack.peer == 0
        # one selection per wire peer per side
        assert len(selections) == 6
        assert plan.method_counts() == {"device": 3}
        assert len(plan.post_stages) == 3 and not plan.reduce_stages

    def test_staging_keys_follow_role_peer_kind(self):
        packer = make_packer()
        buf = make_buffer(packer.object_extent * 2)
        sections = self._sections(packer, [0, 1])
        plan = compile_exchange(0, buf, sections, buf, sections, lambda p, n, peer=None: PackMethod.ONESHOT)
        assert plan.pack_stages[0].staging_key == (
            "collective", "send", 1, MemoryKind.HOST_MAPPED
        )
        assert plan.unpack_stages[0].staging_key == (
            "collective", "recv", 1, MemoryKind.HOST_MAPPED
        )
        local_pack, local_unpack = plan.local
        assert local_pack.staging_key == ("collective", "send", 0, MemoryKind.DEVICE)
        assert local_unpack.staging_key == ("collective", "recv", 0, MemoryKind.DEVICE)

    def test_zero_count_sections_dropped(self):
        packer = make_packer()
        buf = make_buffer(packer.object_extent * 2)
        sections = [PlanSection(1, 0, 0, packer)]
        plan = compile_exchange(0, buf, sections, buf, sections, lambda p, n, peer=None: PackMethod.DEVICE)
        assert not plan.pack_stages and not plan.unpack_stages and plan.local is None

    def test_duplicate_peers_concatenate_in_order(self):
        packer = make_packer()
        buf = make_buffer(packer.object_extent * 2)
        sections = [
            PlanSection(1, 1, 0, packer),
            PlanSection(1, 1, packer.object_extent, packer),
        ]
        plan = compile_exchange(0, buf, sections, buf, sections, lambda p, n, peer=None: PackMethod.DEVICE)
        assert len(plan.pack_stages) == 1
        stage = plan.pack_stages[0]
        assert len(stage.sections) == 2
        assert stage.nbytes == 2 * packer.packed_size(1)
        assert [s.displ for s in stage.sections] == [0, packer.object_extent]

    def test_mismatched_self_sections_rejected(self):
        packer = make_packer()
        buf = make_buffer(packer.object_extent)
        send = [PlanSection(0, 1, 0, packer)]
        with pytest.raises(PlanError):
            compile_exchange(0, buf, send, buf, [], lambda p, n, peer=None: PackMethod.DEVICE)
