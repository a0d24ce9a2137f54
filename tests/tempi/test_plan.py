"""Tests for the MessagePlan IR and its compilers."""

import pytest

from repro.gpu.memory import MemoryKind
from repro.gpu.runtime import CudaRuntime
from repro.tempi.config import PackMethod
from repro.tempi.packer import Packer
from repro.tempi.plan import (
    PlanError,
    PlanSection,
    PlanTemplate,
    _chunk_layout,
    compile_exchange,
    compile_recv,
    compile_send,
    ring_allreduce_schedule,
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
        assert [post.pack.method for post in plan.post_stages] == [PackMethod.DEVICE]
        assert stage.kind is MemoryKind.DEVICE

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
        assert not plan.post_stages  # no wire sends on the receive side
        assert stage.kind is MemoryKind.HOST_MAPPED


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
        assert [post.pack.method for post in plan.post_stages] == [PackMethod.DEVICE] * 3
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


def _stage_rows(stages):
    """Each stage as literals: peer, its ``(peer, count, displ)`` sections,
    method, packed bytes, staging kind and staging key."""
    return [
        (
            stage.peer,
            [(s.peer, s.count, s.displ) for s in stage.sections],
            stage.method,
            stage.nbytes,
            stage.kind,
            stage.staging_key,
        )
        for stage in stages
    ]


class TestCompileOutputsPinned:
    """What the one-pass compile produces, pinned by value: 512 packed bytes
    per object of :func:`make_packer`'s type."""

    DEVICE, ONESHOT = PackMethod.DEVICE, PackMethod.ONESHOT
    D, H = MemoryKind.DEVICE, MemoryKind.HOST_MAPPED

    def _compile(self, rank, send, recv, method=PackMethod.ONESHOT):
        calls = []

        def select(packer, nbytes, peer=None):
            calls.append((nbytes, peer))
            return method

        buf = make_buffer(1 << 16)
        return compile_exchange(rank, buf, send, buf, recv, select, op="neighbor_alltoallv"), calls

    def test_two_sections_to_one_peer_keep_their_order(self):
        packer = make_packer()
        sections = [
            PlanSection(1, 1, 0, packer),
            PlanSection(2, 2, 4096, packer),
            PlanSection(1, 3, 8192, packer),
        ]
        plan, calls = self._compile(0, sections, sections)
        assert calls == [(2048, 1), (1024, 2), (2048, None), (1024, None)]
        assert _stage_rows(plan.pack_stages) == [
            (1, [(1, 1, 0), (1, 3, 8192)], self.ONESHOT, 2048, self.H, ("collective", "send", 1, self.H)),
            (2, [(2, 2, 4096)], self.ONESHOT, 1024, self.H, ("collective", "send", 2, self.H)),
        ]
        assert _stage_rows(plan.unpack_stages) == [
            (1, [(1, 1, 0), (1, 3, 8192)], self.ONESHOT, 2048, self.H, ("collective", "recv", 1, self.H)),
            (2, [(2, 2, 4096)], self.ONESHOT, 1024, self.H, ("collective", "recv", 2, self.H)),
        ]
        assert [(post.peer, post.nbytes) for post in plan.post_stages] == [(1, 2048), (2, 1024)]
        assert [post.pack for post in plan.post_stages] == plan.pack_stages
        assert plan.local is None and plan.op == "neighbor_alltoallv"

    def test_a_zero_count_section_is_dropped_and_selects_nothing(self):
        packer = make_packer()
        send = [PlanSection(1, 0, 0, packer), PlanSection(2, 1, 512, packer), PlanSection(2, 0, 0, packer)]
        recv = [PlanSection(3, 0, 0, packer)]
        plan, calls = self._compile(0, send, recv, PackMethod.DEVICE)
        assert calls == [(512, 2)]
        assert _stage_rows(plan.pack_stages) == [
            (2, [(2, 1, 512)], self.DEVICE, 512, self.D, ("collective", "send", 2, self.D)),
        ]
        assert plan.unpack_stages == [] and plan.local is None

    def test_a_self_section_pair_bounces_through_device_staging(self):
        packer = make_packer()
        send = [PlanSection(0, 2, 0, packer), PlanSection(1, 1, 4096, packer)]
        recv = [PlanSection(0, 1, 0, packer), PlanSection(1, 1, 2048, packer), PlanSection(0, 1, 8192, packer)]
        plan, calls = self._compile(0, send, recv)
        assert calls == [(512, 1), (512, None)]  # the self pair selects nothing
        local_pack, local_unpack = plan.local
        assert _stage_rows([local_pack, local_unpack]) == [
            (0, [(0, 2, 0)], self.DEVICE, 1024, self.D, ("collective", "send", 0, self.D)),
            (0, [(0, 1, 0), (0, 1, 8192)], self.DEVICE, 1024, self.D, ("collective", "recv", 0, self.D)),
        ]
        assert [stage.peer for stage in plan.pack_stages + plan.unpack_stages] == [1, 1]

    @pytest.mark.parametrize("send_count, recv_count", [(2, 1), (0, 1), (1, 0)])
    def test_self_sections_of_different_sizes_are_rejected(self, send_count, recv_count):
        packer = make_packer()
        with pytest.raises(PlanError, match="self send/recv sections disagree on packed size"):
            self._compile(0, [PlanSection(0, send_count, 0, packer)], [PlanSection(0, recv_count, 0, packer)])

    def test_a_chunk_layout_gives_the_first_parts_the_extra_elements(self):
        assert _chunk_layout(10, 4, 4) == [(0, 12), (12, 12), (24, 8), (32, 8)]
        assert _chunk_layout(3, 4, 8) == [(0, 8), (8, 8), (16, 8), (24, 0)]

    def test_rank_3_walks_fourteen_ring_rounds(self):
        # 10 floats over 8 ranks: chunks 0 and 1 carry two elements.
        stages = ring_allreduce_schedule(3, list(range(8)), 10, 4, "sum")
        rows = [
            (s.round, s.dest, s.send_offset, s.send_nbytes, s.source, s.recv_offset, s.recv_nbytes, s.combine)
            for s in stages
        ]
        assert rows == [
            (0, 4, 20, 4, 2, 16, 4, True),
            (1, 4, 16, 4, 2, 8, 8, True),
            (2, 4, 8, 8, 2, 0, 8, True),
            (3, 4, 0, 8, 2, 36, 4, True),
            (4, 4, 36, 4, 2, 32, 4, True),
            (5, 4, 32, 4, 2, 28, 4, True),
            (6, 4, 28, 4, 2, 24, 4, True),
            (7, 4, 24, 4, 2, 20, 4, False),
            (8, 4, 20, 4, 2, 16, 4, False),
            (9, 4, 16, 4, 2, 8, 8, False),
            (10, 4, 8, 8, 2, 0, 8, False),
            (11, 4, 0, 8, 2, 36, 4, False),
            (12, 4, 36, 4, 2, 32, 4, False),
            (13, 4, 32, 4, 2, 28, 4, False),
        ]
        assert {s.op for s in stages} == {"sum"}

    def test_a_rebound_stage_takes_the_new_methods_staging_kind(self):
        packer = make_packer()
        sections = [PlanSection(1, 1, 0, packer)]
        plan, _ = self._compile(0, sections, sections, PackMethod.DEVICE)
        rebound = PlanTemplate._rebind(plan.pack_stages[0], PackMethod.ONESHOT)
        assert _stage_rows([rebound]) == [
            (1, [(1, 1, 0)], self.ONESHOT, 512, self.H, ("collective", "send", 1, self.H)),
        ]
