"""simlint: determinism-oriented static analysis for the TEMPI reproduction.

The simulator's core contract — knobs, caches and fast paths may change
*wall-clock* speed but must never move a *priced* (virtual-time) result — is
pinned dynamically by the Hypothesis bit-identity suites, which catch a
violation only after the fact, one fuzz seed at a time.  This package checks
the same invariants at the *source* level, as an AST/call-graph lint pass
with repo-specific rules:

========  ==================================================================
SIM001    no wall-clock (``time.time``/``perf_counter``/``datetime.now``) or
          ``random`` calls on priced paths (whitelist: ``repro/bench/*``)
SIM002    selector/pricing code (the ``tempi/selection.py`` reachable set)
          may not call mutating ``NicTimeline``/``ProgressEngine`` APIs —
          pricing must be a pure read
SIM003    no iteration over unordered ``set``s or insertion-ordered
          rank-keyed dicts feeding clock arithmetic (determinism requires
          explicit ``(post_time, source, seq)``-style ordering)
SIM004    every ``TempiConfig`` field documented in ``docs/CONFIG.md`` and
          every ``InterposerStats`` counter in ``docs/ARCHITECTURE.md``
SIM005    float accumulation via ``+=`` inside ledger/port loops in
          ``machine/nic.py``/``tempi/progress.py`` must use the ledger
          helpers (ordering-stable summation)
SIM006    no private blocking primitive (``threading.Condition``/``Event``/
          ``Barrier``/``Semaphore``, ``queue.Queue``, ``time.sleep``) in
          ``src/repro`` outside ``mpi/p2p.py``/``mpi/world.py``: one rank
          runs at a time, and a wait the run token cannot see stalls all
SIM007    a pricing rule is written down once: a product with a name
          ending in ``overlap`` or a cursor recurrence ``x = max(..., x) +
          ...`` (whatever ``x`` is called) appears in ``src/repro`` only
          in the rules' homes (``machine/nic.py``, ``gpu/stream.py``,
          ``machine/network.py``, ``tempi/progress.py``); everything else
          drives those objects
SIM008    no ``threading.Thread``/``Timer`` or ``concurrent.futures``
          executor in ``src/repro`` outside ``mpi/world.py`` (the rank
          threads, ordered by the run token) and ``gpu/kernels.py`` (the
          fan-out, whose chunks write disjoint bytes)
========  ==================================================================

Each rule carries an escape hatch: a ``# simlint: disable=SIMxxx -- reason``
comment on the offending line suppresses that rule there; the justification
after ``--`` is **required** (a bare disable is itself reported as SIM000).

Run it as ``python -m tools.analyze`` (from the repository root) or
``repro lint``; output is ``file:line: SIMxxx message`` with a nonzero exit
when anything fires, so CI can gate on it.
"""

from __future__ import annotations

from tools.analyze.core import Violation, run_lint

__all__ = ["Violation", "run_lint"]
