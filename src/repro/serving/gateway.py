"""The serving front door: caches + admission in front of one database.

:class:`ServingGateway` composes the serving stack for the *live* path —
every statement passes the per-tenant admission gate, then the result
cache (validated against the MVCC commit clock) and only reaches the
engine on a miss, where the engine's own plan cache
(``database.plan_cache``) spares it the planning.  Attaching a gateway
wires one engine hook, the commit listener that invalidates cached
results; :meth:`ServingGateway.close` unwires it.

For *scale* — the 10⁵–10⁶ session open-loop runs — the module follows
the repo's standard factoring (real engine speed × simulated
concurrency): :func:`measure_serving_pool` measures each distinct
query's miss and hit cost on the real engine through the real cache,
:func:`cache_service_profile` replays the arrival trace against a
deterministic model of the cache (first reference per invalidation epoch
misses, the rest hit), and :func:`run_open_loop` feeds the resulting
per-session service times to the event-driven
:class:`~repro.serving.admission.AdmissionSimulator`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.serving.admission import (
    AdmissionSimulator,
    LiveAdmission,
    ServiceClass,
    ServingResult,
)
from repro.serving.cache import ResultCache


def default_service_classes(concurrency: int = 16) -> dict[str, ServiceClass]:
    """A generous single-tenant default for interactive use."""
    return {
        "dashboard": ServiceClass(
            name="dashboard",
            concurrency=concurrency,
            queue_limit=4 * concurrency,
            timeout_seconds=None,
        )
    }


class ServingGateway:
    """Live serving stack attached to one :class:`~repro.database.database.Database`."""

    def __init__(
        self,
        database,
        classes: dict[str, ServiceClass] | None = None,
        result_capacity: int = 2048,
        default_tenant: str | None = None,
    ):
        self.database = database
        self.result_cache = ResultCache(database, capacity=result_capacity)
        self.classes = classes or default_service_classes()
        self.default_tenant = default_tenant or next(iter(self.classes))
        self.admission = LiveAdmission(self.classes, name=database.name)
        #: Most recent simulated open-loop outcome (monreport surface).
        self.last_open_loop: OpenLoopOutcome | None = None
        # Wire the engine hook.
        database.add_commit_listener(self.result_cache.on_commit)
        database.serving = self

    def execute(self, sql: str, session=None, tenant: str | None = None):
        """Serve one statement: admission gate, then cache, then engine."""
        tenant = tenant or self.default_tenant
        self.admission.acquire(tenant)
        completed = False
        try:
            fetched = self.result_cache.fetch(sql, session)
            completed = True
            return fetched.result
        finally:
            self.admission.release(tenant, completed=completed)

    def open_loop(
        self,
        batch,
        profile: "ServingPoolProfile",
        cache_enabled: bool = True,
        invalidation_period: float | None = None,
        classes: dict[str, ServiceClass] | None = None,
    ) -> "OpenLoopOutcome":
        """Run a simulated open-loop serving pass and record it for
        monreport (:func:`repro.monitor.report.serving_report`)."""
        outcome = run_open_loop(
            batch,
            profile,
            classes or self.classes,
            cache_enabled=cache_enabled,
            invalidation_period=invalidation_period,
        )
        self.last_open_loop = outcome
        return outcome

    def close(self) -> None:
        """Detach from the database, restoring the plain engine path."""
        db = self.database
        db.remove_commit_listener(self.result_cache.on_commit)
        if getattr(db, "serving", None) is self:
            db.serving = None

    def report(self) -> dict:
        from repro.monitor.report import serving_report

        return serving_report(self)


# -- scale path: measured costs + simulated million-session timeline ----------


@dataclass
class ServingPoolProfile:
    """Measured serving costs for one query pool.

    ``measurement`` holds per-query **miss** service times (engine
    execution under a pinned snapshot); ``hit_seconds`` is the measured
    cost of answering from the result cache (normalize + validate +
    replay), which is what repeats cost.
    """

    measurement: object  # repro.workloads.streams.PoolMeasurement
    hit_seconds: float


def measure_serving_pool(
    gateway: ServingGateway,
    pool: list[tuple[str, str]],
    repeats: int = 3,
    session=None,
) -> ServingPoolProfile:
    """Measure miss and hit costs of *pool* through the live gateway.

    Uses the shared closed-loop measurement path
    (:func:`repro.workloads.streams.measure_pool`): the first pass runs
    with the result cache cleared (miss costs), the second pass measures
    the same pool again when every query answers from cache.
    """
    from repro.workloads.streams import measure_pool

    def execute(sql):
        return gateway.execute(sql, session=session)

    gateway.result_cache.clear()
    misses = measure_pool(execute, pool, repeats=1)
    # Hit pass: every query is now cached; best-of-N for a stable floor.
    hits = measure_pool(execute, pool, repeats=repeats)
    hit_seconds = hits.total / max(1, len(hits.query_ids))
    return ServingPoolProfile(measurement=misses, hit_seconds=hit_seconds)


def cache_service_profile(
    batch,
    profile: ServingPoolProfile,
    cache_enabled: bool = True,
    invalidation_period: float | None = None,
) -> tuple[np.ndarray, float]:
    """Per-session service times under the cache model.

    Deterministic replay of the arrival trace: within each invalidation
    epoch (``invalidation_period`` sim seconds; None = never invalidated)
    the first session asking a distinct query pays the measured miss
    cost, every later one pays the hit cost.  Returns
    ``(service_seconds, modeled_hit_rate)``.
    """
    miss = np.array(
        [profile.measurement.seconds[q] for q in batch.query_ids],
        dtype=np.float64,
    )
    service = miss[batch.query_index]
    if not cache_enabled:
        return service, 0.0
    if invalidation_period is None:
        epoch = np.zeros(len(batch), dtype=np.int64)
    else:
        epoch = (batch.times / invalidation_period).astype(np.int64)
    # First arrival of each (query, epoch) pair is the miss; arrivals are
    # time-sorted, so "first index" is "earliest".
    key = batch.query_index.astype(np.int64) * (epoch.max() + 1) + epoch
    _, first_index = np.unique(key, return_index=True)
    hit_mask = np.ones(len(batch), dtype=bool)
    hit_mask[first_index] = False
    service = np.where(hit_mask, profile.hit_seconds, service)
    return service, float(hit_mask.mean())


@dataclass
class OpenLoopOutcome:
    """One simulated open-loop run plus its cache model."""

    result: ServingResult
    hit_rate: float
    cache_enabled: bool

    def report(self) -> dict:
        return {
            **self.result.report(),
            "cache_enabled": self.cache_enabled,
            "cache_hit_rate": self.hit_rate,
        }


def run_open_loop(
    batch,
    profile: ServingPoolProfile,
    classes: dict[str, ServiceClass],
    cache_enabled: bool = True,
    invalidation_period: float | None = None,
) -> OpenLoopOutcome:
    """Play *batch* through admission control with measured service times."""
    service, hit_rate = cache_service_profile(
        batch, profile, cache_enabled, invalidation_period
    )
    result = AdmissionSimulator(classes).run(batch, service)
    return OpenLoopOutcome(
        result=result, hit_rate=hit_rate, cache_enabled=cache_enabled
    )
