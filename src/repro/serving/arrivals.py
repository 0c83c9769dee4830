"""Open-loop session arrivals on the simulated clock.

The closed-loop streams harness (:mod:`repro.workloads.streams`) models a
fixed number of benchmark streams that each wait for their previous query
— throughput is bounded by the stream count.  A serving system faces the
opposite regime: an **open loop**, where sessions arrive whether or not
the system keeps up, at rates far beyond what closed-loop streams can
express.  This module generates those arrivals deterministically:

* inter-arrival gaps are **heavy-tailed** (lognormal): web dashboards
  produce bursts and lulls, not Poisson smoothness — the tail is what
  stresses admission control;
* the query mix is drawn from :class:`repro.workloads.customer`
  conventions — a hot set of short operational lookups hit with Zipf
  popularity (the dashboard-repeat pattern the result cache exploits)
  plus a long tail of heavy analytics;
* everything derives from :func:`repro.util.rng.derive_rng`, so a run is
  a pure function of its seed.

Generation is vectorized (numpy arrays, ~20 bytes/session), so 10⁶
sessions are cheap; the event-driven admission simulator consumes the
arrays directly.  :func:`stream_orders` holds the stream-permutation
logic shared with the closed-loop harness so both paths use one
generator (and one measured :class:`~repro.workloads.streams.PoolMeasurement`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.rng import derive_rng


def stream_orders(n_queries: int, n_streams: int, seed: int) -> list[list[int]]:
    """Per-stream query permutations (the TPC multi-stream convention).

    Extracted from the closed-loop harness so open- and closed-loop runs
    share one generator; the RNG scope (``seed, "streams"``) and the
    draw order are kept byte-identical to the original
    ``run_multistream`` implementation.
    """
    rng = derive_rng(seed, "streams")
    return [list(rng.permutation(n_queries)) for _ in range(n_streams)]


def zipf_weights(n: int, s: float = 1.1) -> np.ndarray:
    """Normalized Zipf popularity over ``n`` ranked items."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** -s
    return weights / weights.sum()


@dataclass
class ArrivalBatch:
    """One deterministic open-loop trace.

    Arrays are parallel, one element per session, sorted by arrival
    time.  ``query_index`` points into ``query_ids``; ``tenant_index``
    into ``tenants``.
    """

    times: np.ndarray  # float64 sim seconds, non-decreasing
    query_index: np.ndarray  # int32
    tenant_index: np.ndarray  # int8
    query_ids: list[str]
    tenants: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.times)

    @property
    def span_seconds(self) -> float:
        return float(self.times[-1]) if len(self.times) else 0.0

    @property
    def offered_qps(self) -> float:
        span = self.span_seconds
        return len(self.times) / span if span > 0 else 0.0

    def tenant(self, i: int) -> str:
        return self.tenants[int(self.tenant_index[i])]


def open_loop_arrivals(
    query_ids: list[str],
    n_sessions: int,
    offered_qps: float,
    seed: int = 23,
    sigma: float = 1.0,
    zipf_s: float = 1.1,
    tenants: tuple[str, ...] = ("dashboard",),
    tenant_shares: tuple[float, ...] | None = None,
    tenant_pools: dict[str, list[int]] | None = None,
) -> ArrivalBatch:
    """Generate ``n_sessions`` open-loop arrivals at ``offered_qps``.

    Inter-arrival gaps are lognormal with shape ``sigma`` scaled so the
    *mean* rate is ``offered_qps`` (sigma=0 degenerates to a uniform
    pacing; sigma≈1 gives realistic burstiness with a long quiet tail).
    Query popularity within each tenant's pool is Zipf(``zipf_s``) over
    the pool order — put the hot dashboard queries first.

    ``tenant_pools`` optionally restricts each tenant to a subset of
    ``query_ids`` (by index); tenants default to sharing the whole pool.
    """
    if n_sessions < 1:
        raise ValueError("need at least one session")
    if offered_qps <= 0:
        raise ValueError("offered_qps must be positive")
    rng = derive_rng(seed, "serving", "arrivals")
    # Lognormal with mean 1/qps: mean = exp(mu + sigma^2/2).
    mu = -np.log(offered_qps) - sigma * sigma / 2.0
    gaps = rng.lognormal(mean=mu, sigma=sigma, size=n_sessions)
    times = np.cumsum(gaps)
    times[0] = 0.0  # the trace starts at the first arrival
    shares = (
        np.asarray(tenant_shares, dtype=np.float64)
        if tenant_shares is not None
        else np.full(len(tenants), 1.0 / len(tenants))
    )
    shares = shares / shares.sum()
    tenant_index = rng.choice(
        len(tenants), size=n_sessions, p=shares
    ).astype(np.int8)
    query_index = np.zeros(n_sessions, dtype=np.int32)
    for t, tenant in enumerate(tenants):
        mask = tenant_index == t
        count = int(mask.sum())
        if count == 0:
            continue
        pool = (
            tenant_pools.get(tenant) if tenant_pools is not None else None
        )
        if pool is None:
            pool = list(range(len(query_ids)))
        picks = rng.choice(
            len(pool), size=count, p=zipf_weights(len(pool), zipf_s)
        )
        query_index[mask] = np.asarray(pool, dtype=np.int32)[picks]
    return ArrivalBatch(
        times=times.astype(np.float64),
        query_index=query_index,
        tenant_index=tenant_index,
        query_ids=list(query_ids),
        tenants=tuple(tenants),
    )
