"""Static analysis, runtime sanitizers and checkers for the engine's glue
invariants.

Six tools live here, all behind one front door, ``repro-verify``
(:mod:`repro.verify.cli`, also ``python -m repro.verify.cli``):

* :mod:`repro.verify.lint` — **reprolint**, one static checker over one
  parse: per-file rules (:mod:`repro.verify.rules`: sim-clock discipline,
  seeded randomness, lock discipline in pool-submitted callables, no
  silent broad excepts, no raw locks) and interprocedural project rules
  (:mod:`repro.verify.flow`: write protocol, snapshot scope, resource
  pairing, SQLSTATE coverage; and ``unreferenced``: no def or class that
  nothing names), with one ``# lint-ok: rule (why)`` suppression
  grammar.  ``repro-verify lint src tests benchmarks examples``.
* :mod:`repro.verify.plan` — a static **plan verifier** that walks a
  compiled physical operator tree and re-derives schema, arity, and type
  propagation operator by operator, plus the ``parallel_safe()`` gate and
  cost-charge coverage.  Enabled before every SELECT when
  ``REPRO_VERIFY_PLANS=1``; ``repro-verify plan`` sweeps a demo corpus.
* :mod:`repro.verify.sanitizer` — an Eraser-style **lockset race
  sanitizer** that instruments worker-pool task spans and shared engine
  structures to report candidate data races.  Enabled via
  ``REPRO_SANITIZE=1``.
* :mod:`repro.verify.mc` — an explicit-state **model checker** over real
  engine scenarios plus the static + runtime **lock-order** check.
  ``repro-verify mc --all``.
* :mod:`repro.verify.mutate` — **repromutate**, callgraph-guided mutation
  analysis scoring the test battery's kill rate.  ``repro-verify mutate``
  and ``repro-verify impact <module>::<symbol>``.

This package deliberately keeps its import surface lazy: the sanitizer
must be importable from the lowest engine layers (it depends only on the
standard library), while the plan verifier imports the engine — importing
``repro.verify`` itself must not create a cycle.
"""

from __future__ import annotations

__all__ = ["lint", "plan", "sanitizer"]
