"""The cooperative deterministic scheduler under the model checker.

CHESS-style explicit-state model checking (Musuvathi & Qadeer, 2007) needs
one thing above all: *the checker, not the OS, owns the interleaving*.
This module provides that substrate for the engine's real code.  Each
scenario thread runs as an ordinary Python thread, but is gated by a
per-thread semaphore so that **at most one model thread executes at any
moment**; a thread runs exactly from one instrumentation point to the
next, then parks and hands control back to the scheduler, which picks the
next thread according to the schedule under exploration.

The instrumentation points are the ones the engine already has:

* :class:`~repro.verify.sanitizer.TrackedLock` acquire/release (every
  engine lock is created through ``sanitizer.make_lock``);
* :func:`repro.verify.sanitizer.access` calls on shared fields (buffer
  pool frames, WAL append/commit/flush, metrics counters, worker-pool
  accumulators, statement counters);
* an explicit ``crash`` operation, modelled as a pseudo-thread whose
  single step is enabled in every state — exploring it at every depth is
  exactly "inject a crash at any explored state".

Blocking never really happens: a thread announcing ``acquire`` is simply
*not schedulable* while the model says another thread holds the lock.
When every live thread is unschedulable the scheduler has proven a
deadlock and reports the wait-for edges.  A watchdog guards against the
one failure mode this design cannot rule out — a model thread blocking on
something the checker cannot see (an untracked raw lock) — and turns it
into a diagnosable :class:`MCInternalError` instead of a hang.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.verify import sanitizer


class MCInternalError(Exception):
    """The checker itself lost control (untracked blocking, bad replay)."""


class _Abort(BaseException):
    """Raised inside a model thread to unwind it (run teardown / crash).

    Derives from ``BaseException`` so engine ``except Exception`` handlers
    cannot swallow it mid-unwind.
    """


class PruneRun(Exception):
    """Raised by a chooser to cut the current run short (redundant state)."""


_mc_tls = threading.local()


#: Operation kinds whose pairwise dependence is lock identity.
_LOCK_KINDS = ("acquire", "release")


@dataclass(frozen=True)
class Op:
    """One visible operation a model thread is about to perform."""

    kind: str           # "start" | "acquire" | "release" | "access" | "crash"
    target: str = ""    # lock name, or "owner.field" for accesses
    write: bool = False
    site: str = ""
    obj: object = None  # the TrackedLock; not part of identity

    @property
    def key(self) -> tuple:
        return (self.kind, self.target, self.write)

    def render(self) -> str:
        if self.kind == "access":
            return "%s %s%s" % (
                "write" if self.write else "read",
                self.target,
                " @%s" % self.site if self.site else "",
            )
        if self.kind in _LOCK_KINDS:
            return "%s %s" % (self.kind, self.target)
        return self.kind


def dependent(a: Op, b: Op) -> bool:
    """Can reordering ``a`` and ``b`` change the outcome?

    Crash is dependent with everything (it ends the world); lock ops
    conflict on the same lock; accesses conflict on the same field when at
    least one writes.  ``start`` is thread-internal.
    """
    if a.kind == "crash" or b.kind == "crash":
        return True
    if a.kind in _LOCK_KINDS and b.kind in _LOCK_KINDS:
        return a.target == b.target
    if a.kind == "access" and b.kind == "access":
        return a.target == b.target and (a.write or b.write)
    return False


class ModelThread:
    """One scenario thread under the scheduler's control."""

    def __init__(self, sched: "Scheduler", tid: int, name: str, fn,
                 is_crash: bool = False):
        self.sched = sched
        self.tid = tid
        self.name = name
        self.fn = fn
        self.is_crash = is_crash
        self.sem = threading.Semaphore(0)
        self.status = "new"       # new -> waiting <-> running -> done
        self.pending: Op | None = None
        self.abort = False
        self.aborted = False
        self.error: BaseException | None = None
        self.steps = 0
        self.thread = threading.Thread(
            target=self._main, name="mc:%s" % name, daemon=True
        )

    def _main(self) -> None:
        _mc_tls.current = self
        try:
            # Park immediately: a model thread performs no work before the
            # scheduler grants its first step.
            self.sched._yield(self, Op("start", "t%d" % self.tid))
            self.fn()
        except _Abort:
            self.aborted = True
        except BaseException as exc:  # lint-ok: broad-except (not a swallow: the exception is stored as the thread's outcome and re-surfaces as a counterexample)
            self.error = exc
        finally:
            _mc_tls.current = None
            self.sched._finish(self)

    def __repr__(self) -> str:
        return "ModelThread(%d, %r, %s)" % (self.tid, self.name, self.status)


@dataclass
class RunOutcome:
    """What one scheduled execution of a scenario did."""

    status: str                       # "ok" | "deadlock" | "pruned" | "error"
    steps: int = 0
    crashed: bool = False
    trace: list = field(default_factory=list)          # [(thread, op render)]
    schedule: list = field(default_factory=list)       # chosen tids, in order
    errors: list = field(default_factory=list)         # (thread name, exc)
    deadlock_detail: str = ""


class Scheduler:
    """Runs one scenario execution under one explicit schedule.

    The scheduler is single-use: construct, :meth:`run`, discard.  The
    ``chooser`` callback makes every scheduling decision; it receives the
    enabled threads (schedulable now) and all waiting threads (for sleep
    set bookkeeping) and returns the thread to step, or raises
    :class:`PruneRun`.
    """

    def __init__(self, watchdog: float = 20.0):
        self._mx = threading.Lock()
        self._wake = threading.Semaphore(0)
        self.threads: list[ModelThread] = []
        self._next_tid = 0
        # id(TrackedLock) -> [holder ModelThread, depth]
        self.locks: dict[int, list] = {}
        self.trace: list[tuple[str, str]] = []
        self.schedule: list[int] = []
        self.watchdog = watchdog
        self.crashed = False
        self._free_thread: ModelThread | None = None
        self._aborting = False
        self.on_step = None   # optional callback(thread, op) after each grant

    # -- hook interface (called from model threads via the sanitizer) -------

    def current(self) -> ModelThread | None:
        t = getattr(_mc_tls, "current", None)
        return t if t is not None and t.sched is self else None

    def governs_current_thread(self) -> bool:
        return self.current() is not None

    def before_acquire(self, lock, blocking: bool = True) -> None:
        t = self.current()
        self._yield(t, Op("acquire", lock.name, True, obj=lock))

    def before_release(self, lock) -> None:
        t = self.current()
        if t.abort or self._aborting:
            # The thread is unwinding (crash/teardown): never park or
            # re-raise here — the real lock below MUST be released, or the
            # post-crash free-run would block on it forever.
            return
        self._yield(t, Op("release", lock.name, True, obj=lock))

    def on_access(self, owner: str, fld: str, write: bool, site: str) -> None:
        t = self.current()
        self._yield(t, Op("access", "%s.%s" % (owner, fld), write, site))

    # -- thread lifecycle ----------------------------------------------------

    def spawn(self, name: str, fn, is_crash: bool = False) -> ModelThread:
        with self._mx:
            tid = self._next_tid
            self._next_tid += 1
            t = ModelThread(self, tid, name, fn, is_crash=is_crash)
            self.threads.append(t)
        t.thread.start()
        return t

    def _yield(self, t: ModelThread, op: Op) -> None:
        if self._free_thread is t:
            return  # crash body runs to completion without scheduling
        if self._aborting or t.abort:
            raise _Abort()
        with self._mx:
            t.pending = op
            t.status = "waiting"
        self._wake.release()
        t.sem.acquire()
        if self._aborting or t.abort:
            if op.kind == "release":
                # The thread parked at a release and was then aborted: let
                # the real release complete (leaking it would block the
                # post-crash free-run forever); the abort lands at the
                # thread's next instrumentation point instead.
                return
            raise _Abort()

    def _finish(self, t: ModelThread) -> None:
        with self._mx:
            t.status = "done"
        self._wake.release()

    # -- model state ---------------------------------------------------------

    def enabled(self, t: ModelThread) -> bool:
        op = t.pending
        if op is None:
            return False
        if op.kind == "acquire":
            entry = self.locks.get(id(op.obj))
            return entry is None or (
                entry[0] is t and getattr(op.obj, "reentrant", False)
            )
        return True

    def _apply(self, t: ModelThread, op: Op) -> None:
        if op.kind == "acquire":
            entry = self.locks.get(id(op.obj))
            if entry is None:
                self.locks[id(op.obj)] = [t, 1]
            else:
                entry[1] += 1
        elif op.kind == "release":
            entry = self.locks.get(id(op.obj))
            if entry is not None:
                entry[1] -= 1
                if entry[1] <= 0:
                    del self.locks[id(op.obj)]

    def _grant(self, t: ModelThread) -> None:
        op = t.pending
        self.trace.append((t.name, op.render()))
        self.schedule.append(t.tid)
        t.steps += 1
        self._apply(t, op)
        if self.on_step is not None:
            self.on_step(t, op)
        if op.kind == "crash":
            self._begin_crash(t)
        with self._mx:
            t.pending = None
            # The scheduler flips the status before waking the thread so a
            # quiescence check can never observe a scheduled-but-not-yet-
            # running thread as parked.
            t.status = "running"
        t.sem.release()

    def _begin_crash(self, crash_thread: ModelThread) -> None:
        """The crash step: every other thread dies mid-flight, then the
        crash body (recover + oracle) runs to completion unscheduled."""
        for other in self.threads:
            if other is crash_thread:
                continue
            with self._mx:
                parked = other.status == "waiting"
                other.abort = True
            if parked:
                other.sem.release()
        self._await(lambda: all(
            o is crash_thread or o.status == "done" for o in self.threads
        ))
        self.locks.clear()
        self.crashed = True
        self._free_thread = crash_thread

    def _await(self, predicate) -> None:
        while True:
            with self._mx:
                if predicate():
                    return
                detail = ", ".join(
                    "%s=%s" % (t.name, t.status) for t in self.threads
                )
            if not self._wake.acquire(timeout=self.watchdog):
                self._aborting = True
                for t in self.threads:
                    t.sem.release()
                raise MCInternalError(
                    "model threads stuck (blocking outside tracked "
                    "instrumentation?): %s" % detail
                )

    def _quiescent(self) -> bool:
        return all(t.status in ("waiting", "done") for t in self.threads)

    def _abort_all(self) -> None:
        self._aborting = True
        for t in self.threads:
            with self._mx:
                parked = t.status == "waiting"
            if parked:
                t.sem.release()
        self._await(lambda: all(t.status == "done" for t in self.threads))

    def _deadlock_detail(self, waiting) -> str:
        lines = []
        for t in waiting:
            op = t.pending
            if op.kind == "acquire":
                entry = self.locks.get(id(op.obj))
                held_by = entry[0].name if entry is not None else "?"
                lines.append(
                    "%s waits for %s (held by %s)" % (t.name, op.target, held_by)
                )
            else:
                lines.append("%s waits at %s" % (t.name, op.render()))
        return "; ".join(lines)

    # -- driver --------------------------------------------------------------

    def run(self, thread_specs, chooser, crash_fn=None) -> RunOutcome:
        """Execute the scenario once under ``chooser``'s schedule.

        ``thread_specs`` is ``[(name, fn), ...]``; ``crash_fn``, when
        given, adds the crash pseudo-thread whose single explored step
        aborts every other thread and then runs ``crash_fn`` (recovery +
        oracle) in free-run mode.
        """
        hook_before = sanitizer.mc_hook()
        sanitizer.set_mc_hook(self)
        try:
            for name, fn in thread_specs:
                self.spawn(name, fn)
            if crash_fn is not None:
                def crash_body():
                    t = self.current()
                    self._yield(t, Op("crash", "crash"))
                    crash_fn()
                self.spawn("crash", crash_body, is_crash=True)
            steps = 0
            pruned = False
            while True:
                self._await(self._quiescent)
                waiting = [t for t in self.threads if t.status == "waiting"]
                if not waiting:
                    break
                enabled = [t for t in waiting if self.enabled(t)]
                if not enabled:
                    detail = self._deadlock_detail(waiting)
                    self._abort_all()
                    return RunOutcome(
                        status="deadlock", steps=steps, trace=list(self.trace),
                        schedule=list(self.schedule), deadlock_detail=detail,
                    )
                try:
                    t = chooser(enabled, waiting)
                except PruneRun:
                    pruned = True
                    self._abort_all()
                    break
                steps += 1
                self._grant(t)
            errors = [
                (t.name, t.error) for t in self.threads if t.error is not None
            ]
            status = "pruned" if pruned else ("error" if errors else "ok")
            return RunOutcome(
                status=status, steps=steps, crashed=self.crashed,
                trace=list(self.trace), schedule=list(self.schedule),
                errors=errors,
            )
        finally:
            sanitizer.set_mc_hook(hook_before)


def yield_point(label: str = "", write: bool = True) -> None:
    """Explicit preemption point for scenario/test harness code.

    Outside the checker this is a no-op, so harness objects can pepper
    their critical sections with named interleaving points.
    """
    hook = sanitizer.mc_hook()
    if hook is not None and hook.governs_current_thread():
        hook.on_access("harness", label or "yield", write, "yield_point")
