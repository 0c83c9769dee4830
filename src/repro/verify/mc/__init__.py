"""CHESS-style explicit-state model checking for the engine's concurrency.

``repro-verify mc --all`` replays the scenario registry
(:mod:`repro.verify.mc.scenarios`) under every thread interleaving up to a
preemption bound, using the engine's existing sanitizer instrumentation as
the scheduling points, and runs the static + runtime lock-order analysis
(:mod:`repro.verify.mc.lockorder`).  See the README's "Model checking &
lock order" section.
"""

from repro.verify.mc.explorer import (
    BUDGET_ENV_VAR,
    DEFAULT_PREEMPTION_BOUND,
    Counterexample,
    ExplorationReport,
    OracleViolation,
    default_budget,
    explore,
    replay,
)
from repro.verify.mc.lockorder import DECLARED_ORDER, LockOrderReport
from repro.verify.mc.scenarios import SCENARIOS, Scenario, by_name
from repro.verify.mc.scheduler import (
    MCInternalError,
    Op,
    RunOutcome,
    Scheduler,
    dependent,
    yield_point,
)

__all__ = [
    "BUDGET_ENV_VAR",
    "DEFAULT_PREEMPTION_BOUND",
    "Counterexample",
    "DECLARED_ORDER",
    "ExplorationReport",
    "LockOrderReport",
    "MCInternalError",
    "Op",
    "OracleViolation",
    "RunOutcome",
    "SCENARIOS",
    "Scenario",
    "Scheduler",
    "by_name",
    "default_budget",
    "dependent",
    "explore",
    "replay",
    "yield_point",
]
