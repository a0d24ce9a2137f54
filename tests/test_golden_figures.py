"""Golden replay: the figure benchmarks price bit-identically, forever.

``tests/fixtures/golden_figures.json`` freezes small sweeps of the Fig. 9
burst selection, the Fig. 14 overlap latencies, the Fig. 15 contention
efficiency, the incast receiver-side pricing, the allreduce schedule
clocks and the skewed MoE dispatch round (see
``tools/make_golden_fixtures.py``).  This tier-1 test
reruns the exact same sweeps and compares under **exact equality** — the
simulated figures are pure virtual-clock arithmetic, so even a one-ulp
drift means a change leaked into the priced model.  The fast-path caches
in particular must be invisible here.

If a figure value moved *deliberately*, regenerate the fixture with
``PYTHONPATH=src python tools/make_golden_fixtures.py`` and commit it with
the change that moved it; ``--diff`` lists the leaves that moved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TOOLS = REPO / "tools"
FIXTURE = REPO / "tests" / "fixtures" / "golden_figures.json"


def _golden():
    sys.path.insert(0, str(TOOLS))
    try:
        import make_golden_fixtures as golden
    finally:
        sys.path.remove(str(TOOLS))
    return golden


def test_golden_figures_replay_exactly(summit_model):
    golden = _golden()
    committed = json.loads(FIXTURE.read_text())
    # The JSON round-trip canonicalizes types (tuples to lists, keys to
    # strings); float round-trip is exact, so equality stays bit-level.
    fresh = json.loads(json.dumps(golden.build_fixture(summit_model)))
    changed = golden.changed_leaves(committed, fresh)
    assert not changed, (
        f"{len(changed)} leaves of the committed golden fixture no longer replay, "
        f"first 20: {', '.join(changed[:20])}; if the change is deliberate, "
        "regenerate with `PYTHONPATH=src python tools/make_golden_fixtures.py`"
    )


def test_changed_leaves_names_every_differing_path():
    old = {"a": {"b": [1, 2, 3], "c": "x"}, "d": 1.0, "gone": {"e": 0}}
    new = {"a": {"b": [1, 5, 3, 4], "c": "x"}, "d": 1.0, "added": 7}
    assert _golden().changed_leaves(old, new) == ["a.b.1", "a.b.3", "added", "gone"]
    assert _golden().changed_leaves(new, new) == []
