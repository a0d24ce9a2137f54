"""MoE dispatch skew: the hot expert's incast onset under typed Alltoallv.

Expert-parallel Mixture-of-Experts dispatch routes every rank's tokens to
the experts that scored them.  With a uniform gate the exchange is a
balanced all-to-all; once one expert goes *hot* — its routing weight
``skew`` times the others' — the exchange degenerates into a
many-senders/one-receiver incast at the hot rank's ingestion port.  The
sweep drives :func:`repro.apps.moe.run_moe` (pitched token datatype, so the
traffic lands on TEMPI's plan path and the shared NIC ledgers) across the
skew axis and pins the onset:

* at ``skew=1`` the hot expert's ingest stalls sit at the uniform
  all-to-all background (``hot_excess_stalls`` < 2);
* at ``skew >= 4`` the hot port queues visibly deeper than that background
  (``hot_excess_stalls`` >= 2) — the CI leg the incast claim rides on;
* the analytic twin (:func:`repro.apps.exchange_model.model_moe_exchange`)
  agrees: its hot-port stalled-seconds overtake the cold ranks' at the same
  onset;
* the exchange itself stays on the accelerated path (zero collective
  fallbacks), delivers every token's stamp intact (``verify=True``), and
  replays bit-identically run to run.

Run through the figure table (``--smoke`` is the CI sweep, ``--full`` the
larger one):

    PYTHONPATH=src python -m repro.cli figures --only moe
"""

from __future__ import annotations

from repro.apps.exchange_model import model_moe_exchange
from repro.apps.moe import MoESpec, moe_counts, run_moe

#: Eight experts, one per rank — small enough for CI, wide enough that the
#: hot port sees seven concurrent senders.
NRANKS = 8

#: Routing volume and payload chosen so the hot-expert signal separates
#: cleanly from the uniform background at this seed (see ``moe_seed``).
TOKENS_PER_RANK = 16
TOKEN_BYTES = 16384
SEED = 3

#: The onset claims' boundary: below-background at skew 1, queued beyond
#: it at skew >= 4.  Skew 2 is the unclaimed transition zone.
EXCESS_STALL_ONSET = 2.0

SKEW_SWEEPS = {
    "smoke": (1.0, 4.0, 16.0),
    "default": (1.0, 4.0, 16.0),
    "full": (1.0, 2.0, 4.0, 8.0, 16.0),
}


def moe_spec(skew: float) -> MoESpec:
    """The sweep's dispatch spec at one skew point."""
    return MoESpec(
        tokens_per_rank=TOKENS_PER_RANK,
        token_bytes=TOKEN_BYTES,
        skew=skew,
        hot_expert=0,
        seed=SEED,
    )


def measure_moe(skew: float, model):
    """One skew point: the simulated round plus its analytic twin."""
    spec = moe_spec(skew)
    result = run_moe(NRANKS, spec, model=model, verify=True)
    twin = model_moe_exchange(
        moe_counts(spec, NRANKS), spec.token_bytes, hot_expert=spec.hot_expert
    )
    return dict(
        skew=skew,
        result=result,
        twin=twin,
        excess=result.hot_excess_stalls(spec.hot_expert),
    )


def run_moes(skews, model):
    """The skew sweep, plus a second run at the first point (determinism)."""
    table = {skew: measure_moe(skew, model) for skew in skews}
    rerun = run_moe(NRANKS, moe_spec(skews[0]), model=model, verify=True)
    table[skews[0]]["rerun"] = rerun
    return table
