"""Smoke test of ``tools/ab.py``, the paired-block wall-clock A/B.

The statistics on synthetic ratios, a few real ``halo_pricing`` pairs of the
repository against itself (``--null``, which must read "unresolved"), and
two trees whose digests differ, which must exit non-zero naming the
workload.  The worker processes must be gone afterwards.
"""

from __future__ import annotations

import importlib.util
import math
import os
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_ab():
    spec = importlib.util.spec_from_file_location("_ab", ROOT / "tools" / "ab.py")
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = _load_ab()


class TestStatistics:
    def test_too_few_pairs_give_no_interval(self):
        assert ab.median_interval([0.9] * 5) == (-math.inf, math.inf)

    def test_six_pairs_give_the_extremes(self):
        # P(no heads in 6 flips) = 1/64 <= 0.025 < P(at most one) = 7/64.
        assert ab.median_interval([0.93, 0.91, 0.97, 0.95, 0.9, 0.99]) == (0.9, 0.99)

    def test_forty_pairs_give_the_fourteenth_order_statistics(self):
        ratios = [1 + i / 100 for i in range(40)]
        assert ab.median_interval(list(reversed(ratios))) == (ratios[13], ratios[26])

    def test_sign_test(self):
        assert ab.sign_test_p(10, 0) == pytest.approx(2 / 1024)
        assert ab.sign_test_p(5, 5) == 1.0
        assert ab.sign_test_p(0, 0) == 1.0

    @pytest.mark.parametrize("ratios, expected", [
        ([0.95 + i / 1000 for i in range(20)], "faster"),
        ([1.05 + i / 1000 for i in range(20)], "slower"),
        # Every pair faster, but by less than the margin: a null-sized bias.
        ([0.99 + i / 10000 for i in range(20)], "unresolved"),
        # The median is past the margin, but the interval reaches into it.
        ([0.9] * 12 + [0.99] * 8, "unresolved"),
        ([0.9, 1.1] * 10, "unresolved"),
        ([0.5] * 5, "unresolved"),  # no interval from five pairs
    ])
    def test_verdicts(self, ratios, expected):
        report = ab.summarize(ratios)
        assert report["verdict"] == expected
        assert report["pairs"] == len(ratios)
        assert report["b_faster"] + report["b_slower"] <= len(ratios)


def _children() -> set[int]:
    """Pids of this process's live children (Linux ``/proc``)."""
    path = Path(f"/proc/self/task/{os.getpid()}/children")
    return {int(pid) for pid in path.read_text().split()} if path.exists() else set()


def test_null_pairs_on_halo_pricing_are_unresolved(capsys):
    before = _children()
    code = ab.main([str(ROOT), "--null", "--workload", "halo_pricing", "--pairs", "3"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "3 pairs" in out and "virtual_digest" in out
    (calls,) = re.findall(r"calls per op: A (\S+), B (\S+)", out)
    assert calls[0] == calls[1] and float(calls[0]) > 0
    assert out.splitlines()[-1] == "verdict: unresolved"
    assert _children() == before


_STUB = '''
class Stub:
    name = "stub"
    block_rounds = 1
    warmup_rounds = 1
    counted_rounds = 1

    def __init__(self, model, seed):
        self.failed_ops = 0

    def block(self, rounds):
        return rounds

    def virtual_digest(self):
        return {digest!r}


WORKLOADS = {{"stub": Stub}}
'''


def _stub_tree(root: Path, digest: str) -> Path:
    (root / "benchmarks" / "e2e").mkdir(parents=True)
    (root / "src").symlink_to(ROOT / "src")
    (root / "benchmarks" / "e2e" / "measure.py").symlink_to(ROOT / "benchmarks" / "e2e" / "measure.py")
    (root / "benchmarks" / "e2e" / "workloads.py").write_text(_STUB.format(digest=digest))
    return root


def test_a_digest_mismatch_exits_non_zero_naming_the_workload(tmp_path, capsys):
    before = _children()
    parent = _stub_tree(tmp_path / "parent", "0123")
    change = _stub_tree(tmp_path / "change", "4567")
    code = ab.main([str(parent), str(change), "--workload", "stub", "--pairs", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "stub" in err and "virtual_digest differs" in err
    assert _children() == before
