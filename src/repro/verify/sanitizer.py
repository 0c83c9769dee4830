"""Eraser-style lockset race sanitizer for concurrent sessions.

Sessions share one engine, and the engine relies on a lock discipline
that is documented but — until this module — never checked at runtime: shared
structures (buffer pool, metrics registry, statement counters, WAL
buffers, worker-pool accumulators) may only be mutated while holding
their declared lock, and everything else must stay confined to the thread
that owns it.  This module implements the classic Eraser algorithm
(Savage et al., 1997): for every shared field it tracks the intersection
of locks held across all accessing threads, and reports a **candidate
race** the moment a field has been touched by two threads with no common
lock.

Design constraints:

* **zero overhead off** — every hook is behind the module-level
  :data:`ENABLED` flag (initialised from ``REPRO_SANITIZE``); disabled,
  the instrumentation is one attribute read per call site;
* **no engine imports** — this module depends only on the standard
  library, so the lowest engine layers (``parallel``, ``bufferpool``,
  ``durability``) can import it without cycles;
* **explicit instrumentation points** — Python cannot transparently
  intercept attribute traffic, so shared structures call
  :func:`access` at their mutation/read points and create their locks
  through :func:`make_lock`, which returns a :class:`TrackedLock` while
  sanitizing (and a plain ``threading.Lock`` otherwise).

The per-field state machine follows Eraser's refinement: a field starts
*virgin*, is *exclusive* to its first accessing thread (initialisation
without locks is fine), becomes *shared* on a read from a second thread
and *shared-modified* on any write once shared.  Locksets are refined
only in the shared states; an empty lockset in shared-modified reports a
race (once per field, with both access sites).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

ENV_VAR = "REPRO_SANITIZE"

#: Master switch.  Reading it is the only cost when the sanitizer is off.
ENABLED = os.environ.get(ENV_VAR, "") not in ("", "0")

_tls = threading.local()

#: The model-checker hook (:mod:`repro.verify.mc.scheduler`).  When set,
#: every :class:`TrackedLock` acquire/release and every :func:`access` on a
#: *governed* thread first yields to the checker's deterministic scheduler,
#: which owns the interleaving.  Threads the checker does not govern (the
#: test driver, scenario setup) pass straight through.
_MC_HOOK = None


def set_mc_hook(hook) -> None:
    """Install (or, with ``None``, remove) the model-checker hook."""
    global _MC_HOOK
    _MC_HOOK = hook


def mc_hook():
    return _MC_HOOK


def _held() -> set[str]:
    locks = getattr(_tls, "locks", None)
    if locks is None:
        locks = _tls.locks = []
    return set(locks)


def _push_lock(name: str) -> None:
    locks = getattr(_tls, "locks", None)
    if locks is None:
        locks = _tls.locks = []
    locks.append(name)


def _pop_lock(name: str) -> None:
    locks = getattr(_tls, "locks", None)
    if locks:
        # Remove the innermost matching acquisition (RLock re-entry safe).
        for i in range(len(locks) - 1, -1, -1):
            if locks[i] == name:
                del locks[i]
                return


# -- runtime lock-acquisition graph ------------------------------------------
#
# Whenever a tracked lock is acquired while others are held, the (held ->
# acquired) edges are recorded here.  repro.verify.mc.lockorder merges this
# observed graph with the statically extracted one and checks both for
# cycles and for violations of the declared global lock order.

_graph_lock = threading.Lock()
_lock_graph: dict[tuple[str, str], int] = {}


def _note_acquisition(name: str) -> None:
    held = getattr(_tls, "locks", None)
    if not held or name in held:
        # First lock, or a reentrant re-acquisition: no new ordering edge.
        return
    with _graph_lock:
        for outer in set(held):
            key = (outer, name)
            _lock_graph[key] = _lock_graph.get(key, 0) + 1


def lock_graph() -> dict[tuple[str, str], int]:
    """Observed (outer -> inner) lock-acquisition edges with counts."""
    with _graph_lock:
        return dict(_lock_graph)


def reset_lock_graph() -> None:
    with _graph_lock:
        _lock_graph.clear()


class TrackedLock:
    """A lock proxy that records acquisition in the thread's lockset."""

    def __init__(self, name: str, reentrant: bool = False):
        self.name = name
        self.reentrant = reentrant
        self._inner = threading.RLock() if reentrant else threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        hook = _MC_HOOK
        if hook is not None and hook.governs_current_thread():
            # The scheduler parks this thread until the model says the lock
            # is free, so the real acquire below can never block.
            hook.before_acquire(self, blocking)
        got = self._inner.acquire(blocking, timeout)
        if got:
            _note_acquisition(self.name)
            _push_lock(self.name)
        return got

    def release(self) -> None:
        hook = _MC_HOOK
        if hook is not None and hook.governs_current_thread():
            hook.before_release(self)
        _pop_lock(self.name)
        self._inner.release()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:
        return "TrackedLock(%r)" % self.name


def make_lock(name: str, reentrant: bool = False):
    """The engine's lock factory.

    Sanitizing: a named :class:`TrackedLock` feeding the lockset machine.
    Otherwise: a plain ``threading.Lock`` / ``RLock`` — identical to what
    the engine allocated before this module existed.
    """
    if ENABLED:
        return TrackedLock(name, reentrant=reentrant)
    return threading.RLock() if reentrant else threading.Lock()


# -- Eraser state machine ----------------------------------------------------

_VIRGIN = 0
_EXCLUSIVE = 1
_SHARED = 2
_SHARED_MODIFIED = 3

_STATE_NAMES = {
    _VIRGIN: "virgin",
    _EXCLUSIVE: "exclusive",
    _SHARED: "shared",
    _SHARED_MODIFIED: "shared-modified",
}


@dataclass
class FieldState:
    state: int = _VIRGIN
    owner: int | None = None          # first accessing thread id
    lockset: set[str] | None = None   # candidate locks (None = all locks)
    threads: set[str] = field(default_factory=set)
    sites: list[str] = field(default_factory=list)
    reported: bool = False


@dataclass(frozen=True)
class Race:
    """One candidate race: a shared-modified field with an empty lockset."""

    owner: str
    fld: str
    threads: tuple[str, ...]
    sites: tuple[str, ...]

    def render(self) -> str:
        return (
            "candidate race on %s.%s: threads %s share no lock "
            "(access sites: %s)"
            % (
                self.owner,
                self.fld,
                ", ".join(self.threads),
                "; ".join(self.sites),
            )
        )


class _Sanitizer:
    def __init__(self):
        self._lock = threading.Lock()
        self.fields: dict[tuple[str, str], FieldState] = {}
        self.races: list[Race] = []
        self.accesses = 0

    def access(self, owner: str, fld: str, write: bool, site: str) -> None:
        thread = threading.current_thread()
        ident, tname = thread.ident, thread.name
        held = _held()
        key = (owner, fld)
        with self._lock:
            self.accesses += 1
            state = self.fields.get(key)
            if state is None:
                state = self.fields[key] = FieldState()
            state.threads.add(tname)
            if len(state.sites) < 8 and site not in state.sites:
                state.sites.append(site)
            if state.state == _VIRGIN:
                state.state = _EXCLUSIVE
                state.owner = ident
                return
            if state.state == _EXCLUSIVE:
                if ident == state.owner:
                    return
                # Second thread: field is now genuinely shared.
                state.state = _SHARED_MODIFIED if write else _SHARED
                state.lockset = set(held)
            else:
                if write:
                    state.state = _SHARED_MODIFIED
                state.lockset &= held
            if (
                state.state == _SHARED_MODIFIED
                and not state.lockset
                and not state.reported
            ):
                state.reported = True
                self.races.append(
                    Race(
                        owner=owner,
                        fld=fld,
                        threads=tuple(sorted(state.threads)),
                        sites=tuple(state.sites),
                    )
                )


_sanitizer: _Sanitizer | None = _Sanitizer() if ENABLED else None


def enable() -> None:
    """Turn the sanitizer on (tests call this; CI uses REPRO_SANITIZE=1).

    Locks created *before* enabling are plain locks and stay untracked —
    construct engines after enabling.
    """
    global ENABLED, _sanitizer
    ENABLED = True
    _sanitizer = _Sanitizer()


def disable() -> None:
    global ENABLED, _sanitizer
    ENABLED = False
    _sanitizer = None


def reset() -> None:
    """Clear collected Eraser state (races/locksets) but stay enabled.

    The lock-acquisition graph deliberately survives: it accumulates
    ordering evidence across many runs (the model checker resets between
    interleavings but merges the whole graph at the end); clear it
    explicitly with :func:`reset_lock_graph`.
    """
    global _sanitizer
    if ENABLED:
        _sanitizer = _Sanitizer()


def access(owner: str, fld: str, write: bool = True, site: str = "") -> None:
    """Record one access to a shared field (no-op when disabled).

    ``owner`` names the structure instance (e.g. ``"bufferpool"`` or
    ``"wal:shard3"``), ``fld`` the logical field.  Call sites pass a
    short ``site`` label instead of paying for stack introspection.
    """
    hook = _MC_HOOK
    if hook is not None and hook.governs_current_thread():
        hook.on_access(owner, fld, write, site)
    san = _sanitizer
    if san is not None:
        san.access(owner, fld, write, site)


def protocol_access(owner: str, fld: str, write: bool = True, site: str = "") -> None:
    """One access to a field that is ordered by a protocol, not by a lock.

    The catalog is the case: readers take no lock; a reader takes a name's
    DDL stamp and then its object, DDL changes the object and then moves
    the stamp.  The model checker is told (it then explores both orders
    against every conflicting access); the lockset analysis, which could
    only call it a race, is not.  One global read when no checker runs.
    """
    hook = _MC_HOOK
    if hook is not None and hook.governs_current_thread():
        hook.on_access(owner, fld, write, site)


class VectorInvariantError(AssertionError):
    """A dictionary-coded vector broke a representation invariant."""


def check_vectors(columns) -> None:
    """Check the coded-vector invariants over a batch's columns.

    Called at batch boundaries (``Batch.from_columns``) behind
    :data:`ENABLED`.  A dictionary-coded ``ColumnVector`` must keep
    ``0 <= codes < len(dictionary)`` (NULL slots included — they are
    gathered too), a null mask as long as its codes, and a dictionary
    nobody can write into, since the codec and other vectors share it.
    Duck-typed, so this module still imports nothing of the engine.
    """
    for name, vector in columns.items():
        codes = getattr(vector, "codes", None)
        if codes is None:
            continue
        size = vector.dictionary.size
        if codes.size and not (0 <= int(codes.min()) and int(codes.max()) < size):
            problem = "code outside [0, %d)" % size
        elif vector.nulls is not None and vector.nulls.size != codes.size:
            problem = "%d null flags for %d codes" % (vector.nulls.size, codes.size)
        elif vector.dictionary.flags.writeable:
            problem = "dictionary is writeable"
        else:
            continue
        raise VectorInvariantError("coded column %s: %s" % (name, problem))


def check_positions(ids, n_rows: int, emitted: int) -> None:
    """Check a scan's positional selection at the batch boundary (behind
    :data:`ENABLED`): row ids are ``int64``, strictly increasing — batches
    keep scan order and no row is emitted twice — and inside
    ``[0, n_rows)``, and the batch holds exactly one row per id."""
    if ids.dtype != "int64":  # duck-typed: no numpy import down here
        problem = "dtype %s, not int64" % ids.dtype
    elif ids.size and not (0 <= int(ids[0]) and int(ids[-1]) < n_rows):
        problem = "row id outside [0, %d)" % n_rows
    elif ids.size > 1 and not bool((ids[1:] > ids[:-1]).all()):
        problem = "row ids not strictly increasing"
    elif emitted != ids.size:
        problem = "%d rows emitted for %d row ids" % (emitted, ids.size)
    else:
        return
    raise VectorInvariantError("positional selection: %s" % problem)


class SpareError(AssertionError):
    """The result cache kept an entry across a commit whose delta has a row
    passing one of the entry's filters on the written table."""


class SharedPlanError(AssertionError):
    """Per-execution state is reachable from a plan the cache shares."""


#: What belongs to one execution and must never be reachable from a cached
#: plan: the MVCC snapshot, a scan's captured table state and statistics,
#: the EXPLAIN ANALYZE / tracer wrapper.
_PER_EXECUTION = frozenset({"Snapshot", "TableCapture", "ScanStats", "InstrumentedOp"})


def check_shared_plan(plan) -> None:
    """Check that a plan about to be cached holds nothing of an execution.

    Walks what the plan is made of — operators, expressions, predicates,
    sort keys and aggregate specs (objects of the ``repro.engine`` and
    ``repro.sql`` packages, and a planned UPDATE or DELETE) and the lists,
    tuples and dicts between them —
    and looks at the class of everything they reference, without entering
    storage, pools or catalog objects.  Duck-typed by class name, so this
    module still imports nothing of the engine.
    """
    seen: set[int] = set()
    stack = [(plan, "plan")]
    while stack:
        obj, path = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        cls = type(obj)
        if cls.__name__ in _PER_EXECUTION:
            raise SharedPlanError("cached %s holds a %s" % (path, cls.__name__))
        if isinstance(obj, (list, tuple)):
            stack.extend((item, path) for item in obj)
        elif isinstance(obj, dict):
            stack.extend((item, path) for item in obj.values())
        elif cls.__module__.startswith(
            ("repro.engine", "repro.sql", "repro.database.plancache")
        ):
            stack.extend(
                (value, "%s.%s" % (cls.__name__, attr))
                for attr, value in getattr(obj, "__dict__", {}).items()
            )


def held_locks() -> set[str]:
    """The current thread's lockset (debugging / tests)."""
    return _held()


def report() -> list[Race]:
    """All candidate races observed since enable()/reset()."""
    san = _sanitizer
    return list(san.races) if san is not None else []


def stats() -> dict:
    san = _sanitizer
    if san is None:
        return {"enabled": False}
    with san._lock:
        return {
            "enabled": True,
            "fields_tracked": len(san.fields),
            "accesses": san.accesses,
            "races": len(san.races),
            "states": {
                "%s.%s" % key: _STATE_NAMES[st.state]
                for key, st in san.fields.items()
            },
        }
