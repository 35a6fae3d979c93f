"""Parallel execution substrate: the work pool behind campaigns."""

from repro.exec.pool import (
    CRASH_KIND,
    MULTIPROCESSING,
    SERIAL,
    STALL_KIND,
    TIMEOUT_KIND,
    PoolInterrupted,
    TaskError,
    TaskOutcome,
    TransientTaskError,
    WorkPool,
    available_parallelism,
    derive_seed,
    task_attempt,
    task_context,
)

__all__ = [
    "CRASH_KIND",
    "MULTIPROCESSING",
    "SERIAL",
    "STALL_KIND",
    "TIMEOUT_KIND",
    "PoolInterrupted",
    "TaskError",
    "TaskOutcome",
    "TransientTaskError",
    "WorkPool",
    "available_parallelism",
    "derive_seed",
    "task_attempt",
    "task_context",
]
