"""``repro.lint``: static analysis for this repo's determinism contracts.

The reproduction rests on invariants the test suite can only
spot-check: simulated time must never leak wall-clock into a result
(the paper's delay attribution is computed from trace timestamps, so
one stray ``time.time()`` in a sim path silently corrupts every factor
of the T-DAT breakdown), parallel campaigns must stay byte-identical
to serial runs, and everything crossing the
:class:`~repro.exec.pool.WorkPool` boundary must be picklable.  This
package machine-enforces them: an AST-based visitor engine with a rule
registry, per-rule severities, inline ``# repro: noqa[RULE]``
suppressions (with an unused-suppression check), a machine-readable
baseline so pre-existing findings don't block a gate, and an initial
ruleset encoding the repo's contracts:

* **RL001** — no wall-clock (``time.time``/``time.monotonic``/
  ``datetime.now``) or unseeded ``random`` reachable from the
  deterministic packages (``repro.netsim``, ``repro.tcp``,
  ``repro.bgp``, ``repro.analysis``), call-graph aware;
* **RL002** — no builtin-``set`` ordering-dependent iteration feeding
  output in deterministic paths;
* **RL003** — task functions submitted to a work pool must be
  module-level (picklable) callables, and no classes defined inside
  functions in pool-submitting modules;
* **RL004** — every :class:`~repro.core.health.IngestIssue` kind
  string appears in the central ``ISSUE_KINDS`` registry, and vice
  versa;
* **RL005** — exit codes used in ``repro.tools.tdat_cli`` match its
  ``EXIT_CODE_TABLE``;
* **RL006** — metric and span names recorded via ``repro.obs`` appear
  in the ``docs/observability.md`` catalog;
* **RL007** — chaos injection points (``POINT_*`` constants at the
  seams) match the ``INJECTION_POINTS`` registry in
  ``repro.chaos.plan`` and the ``docs/robustness.md`` catalog;
* **RL008** — no blocking call (sleep, sync I/O, subprocess, un-timed
  wait/join/acquire) reachable from an ``async def`` body in
  ``repro.serve``, with ``run_in_executor``/``to_thread`` boundaries
  allowlisted (effect-inference over the call graph);
* **RL009** — every access to a ``# guarded-by: <lock-attr>``
  annotated attribute comes from a method whose effect set acquires
  that lock;
* **RL010** — allocations in the long-running modules (``repro.serve``,
  ``repro.exec``, ``repro.workloads.checkpoint``) are dominated by
  ``with`` or released in a ``finally`` block;
* **RL011** — the project-wide acquires-while-holding lock graph is
  acyclic (a cycle is a potential deadlock, reported with both
  witness chains).

Run it as ``tdat lint``; see
``docs/static-analysis.md`` for the rule catalog and how to add a
rule.
"""

from __future__ import annotations

# PEP 562 lazy exports: ``tdat`` imports ``repro.lint.cli`` at startup
# for the subcommand's options, which executes this package __init__ —
# so the engine, the call-graph builder and the rule modules must not
# load until something actually lints.  First attribute access imports
# everything (rule modules included, which registers the ruleset) and
# caches the names in module globals.
_EXPORTS = {
    "load_baseline": "repro.lint.baseline",
    "render_baseline": "repro.lint.baseline",
    "RULES": "repro.lint.engine",
    "Finding": "repro.lint.engine",
    "run_lint": "repro.lint.engine",
}


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    # Importing the rule modules registers the ruleset.
    importlib.import_module("repro.lint.rules_contracts")
    importlib.import_module("repro.lint.rules_determinism")
    importlib.import_module("repro.lint.rules_concurrency")
    for export, module_name in _EXPORTS.items():
        globals()[export] = getattr(
            importlib.import_module(module_name), export
        )
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "Finding",
    "RULES",
    "load_baseline",
    "render_baseline",
    "run_lint",
]
