"""reproflow — the interprocedural half of reprolint.

The engine's cross-cutting protocols — every mutation must reach the WAL,
bump the per-table commit-version clock, and notify the serving cache;
every pinned snapshot must stay statement-scoped; every manually managed
resource must be released on exception paths; every engine error crossing
the public API must carry a SQLSTATE — hold *by convention*, enforced at a
handful of choke points (``Database._execute_write_node``, the planner's
snapshot plumbing, ``try/finally`` blocks).  A per-function check goes
blind the moment an obligation moves into a helper, so these are checked
over the whole project:

* :mod:`repro.verify.flow.callgraph` indexes the parsed files into a
  :class:`~repro.verify.flow.callgraph.ProjectIndex` — every function and
  method (nested ones included), a name-resolved over-approximate call
  graph, pool-submitted callables (``pool.map(fn, ...)`` /
  ``executor.submit(fn, ...)``) and registered commit listeners;
* :mod:`repro.verify.flow.effects` infers per-function *effect sets*
  (mutates-table-storage, appends-WAL-redo, bumps-version-clock,
  records-touched-tables, pins-snapshot, raises-exception-class, ...) and
  closes them transitively over the call graph;
* :mod:`repro.verify.flow.protocols` registers the four protocol rules as
  reprolint *project* rules: ``write-protocol``, ``snapshot-scope``,
  ``resource-pairing`` and ``sqlstate``.

They run with every other rule under ``python -m repro.verify.cli lint``
and share its ``# lint-ok: rule (why)`` suppressions and report.
"""
