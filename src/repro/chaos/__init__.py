"""Deterministic chaos engineering for the execution stack.

``repro.chaos`` turns the hardening claims of the campaign runner —
checkpoint journaling survives torn writes, the work pool contains
worker crashes and stalls, interruptions are typed and resumable —
into a continuously verified contract.  One seed compiles to one
reproducible :class:`~repro.chaos.plan.ChaosPlan` (which injection
point, which episode, which failure mode), the plan runs against a
micro campaign, and a differential verifier diffs the outcome against
a clean run: every fault must end either byte-identical (absorbed) or
typed-and-resumable — never silent divergence, never a leaked worker.

Entry point: ``tdat chaos``; the library surface is
:func:`~repro.chaos.runner.run_chaos` /
:func:`~repro.chaos.runner.run_plan` plus the plan compiler
(:func:`~repro.chaos.plan.draw_plan`).  See the fault taxonomy and
injection-point catalog in ``docs/robustness.md``.
"""
