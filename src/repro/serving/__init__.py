"""Million-session serving layer (ROADMAP: "Million-user serving layer").

Open-loop arrival generation (:mod:`~repro.serving.arrivals`), per-tenant
admission control with timeout shedding (:mod:`~repro.serving.admission`),
an MVCC-correct result cache keyed on normalized SQL
(:mod:`~repro.serving.cache`, :mod:`~repro.serving.normalize`), a capacity
sizer (:mod:`~repro.serving.sizer`), and the gateway composing the live
stack (:mod:`~repro.serving.gateway`).
"""

from repro.serving.admission import (
    SHED_SQLSTATE,
    AdmissionSimulator,
    LiveAdmission,
    ServiceClass,
    ServingResult,
    TenantStats,
    shed_error,
)
from repro.serving.arrivals import (
    ArrivalBatch,
    open_loop_arrivals,
    stream_orders,
    zipf_weights,
)
from repro.serving.cache import CacheStats, ResultCache
from repro.serving.gateway import (
    OpenLoopOutcome,
    ServingGateway,
    ServingPoolProfile,
    cache_service_profile,
    default_service_classes,
    measure_serving_pool,
    run_open_loop,
)
from repro.serving.normalize import (
    StatementKey,
    normalize,
    parameterize,
    statement_key,
)
from repro.serving.sizer import SizingRecommendation, erlang_c, recommend

__all__ = [
    "SHED_SQLSTATE",
    "AdmissionSimulator",
    "ArrivalBatch",
    "CacheStats",
    "LiveAdmission",
    "OpenLoopOutcome",
    "ResultCache",
    "ServiceClass",
    "ServingGateway",
    "ServingPoolProfile",
    "ServingResult",
    "SizingRecommendation",
    "StatementKey",
    "TenantStats",
    "cache_service_profile",
    "default_service_classes",
    "erlang_c",
    "measure_serving_pool",
    "normalize",
    "open_loop_arrivals",
    "parameterize",
    "recommend",
    "run_open_loop",
    "shed_error",
    "statement_key",
    "stream_orders",
    "zipf_weights",
]
