"""Deterministic fault injection: plans, the injector, the watchdog.

Quick tour::

    from repro.faults import FaultPlan, LinkDown, RandomLoss

    plan = FaultPlan(
        faults=(
            RandomLoss(start=0, link="switch-switch", data_rate=0.05),
            LinkDown(at=200_000, duration=100_000, link="tor0<->spine0"),
        ),
        stall_window=100_000,
    )
    config = ScenarioConfig(..., fault_plan=plan)
    result = run_scenario(config)   # or any parallel sweep

Embedding the plan in the :class:`ScenarioConfig` is all it takes:
the scenario builder installs a :class:`FaultInjector` on the built
topology, the plan hashes into the sweep runner's cache key, and the
same ``(seed, plan)`` replays byte-identically everywhere.  A plan is
plain data: building one loads neither the injector nor the watchdog.
"""

from repro.lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "injector": ("FaultInjector", "LinkFaultState", "match_links"),
        "plan": (
            "CLASS_CTRL",
            "CLASS_DATA",
            "Corruption",
            "FaultPlan",
            "FaultSpec",
            "LinkDown",
            "RandomLoss",
            "plan_of",
        ),
        "watchdog": ("StallWatchdog",),
    },
)
