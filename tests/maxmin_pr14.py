"""The PR-14 max-min allocator, kept verbatim as the test oracle.

``repro.flowsim.maxmin`` was rebuilt to fill only the resources that
can bind and to work straight off an incidence index; its contract is
that the rates did not move by a bit.  This is the body it replaced —
every resource scanned three times a round, nested ``freeze`` — and
``tests/test_maxmin_kernel.py`` holds the new kernel ``==`` to it.  Do
not "improve" this file: it is a reference, not code under test.
"""
from __future__ import annotations

from typing import List, Sequence, Tuple

#: a resource is "saturated" when its remaining capacity falls below
#: this fraction of the original — guards float residue from repeated
#: ``remaining -= delta * count`` updates
_SATURATION_EPS = 1e-9


def max_min_rates(
    paths: Sequence[Tuple[int, ...]],
    ceilings: Sequence[float],
    capacities: Sequence[float],
) -> List[float]:
    """Max-min fair rates for ``paths`` over ``capacities``.

    ``paths[i]`` lists the resource indices flow ``i`` crosses (a flow
    may cross a resource at most once); ``ceilings[i]`` is flow ``i``'s
    own rate cap (``float("inf")`` for none); ``capacities[r]`` is
    resource ``r``'s capacity.  All rates/capacities share one unit
    (bits per second here, but the algorithm is unit-agnostic).
    """
    n = len(paths)
    if n == 0:
        return []
    m = len(capacities)
    rates = [0.0] * n
    remaining = [float(c) for c in capacities]
    count = [0] * m
    members: List[List[int]] = [[] for _ in range(m)]
    for i, path in enumerate(paths):
        for r in path:
            count[r] += 1
            members[r].append(i)
    # flows freeze at their ceiling in ascending-ceiling order
    by_ceiling = sorted(range(n), key=lambda i: ceilings[i])
    cursor = 0
    active = [True] * n
    unfrozen = n
    level = 0.0
    saturation = [c * _SATURATION_EPS for c in remaining]

    def freeze(i: int, rate: float) -> None:
        nonlocal unfrozen
        active[i] = False
        unfrozen -= 1
        rates[i] = rate
        for r in paths[i]:
            count[r] -= 1

    while unfrozen:
        # how far can the water rise before the next constraint binds?
        delta_res = min(
            (remaining[r] / count[r] for r in range(m) if count[r]),
            default=float("inf"),
        )
        while cursor < n and not active[by_ceiling[cursor]]:
            cursor += 1
        delta_cap = (
            ceilings[by_ceiling[cursor]] - level if cursor < n else float("inf")
        )
        delta = min(delta_res, delta_cap)
        if delta == float("inf"):  # pragma: no cover - defensive
            break
        if delta > 0.0:
            level += delta
            for r in range(m):
                if count[r]:
                    remaining[r] -= delta * count[r]
        frozen_this_round = 0
        # ceiling-limited flows freeze exactly at their ceiling
        while cursor < n:
            i = by_ceiling[cursor]
            if not active[i]:
                cursor += 1
                continue
            if ceilings[i] <= level:
                freeze(i, ceilings[i])
                frozen_this_round += 1
                cursor += 1
                continue
            break
        # flows on saturated resources freeze at the fill level
        for r in range(m):
            if count[r] and remaining[r] <= saturation[r]:
                for i in members[r]:
                    if active[i]:
                        freeze(i, level)
                        frozen_this_round += 1
        if frozen_this_round == 0:
            # float residue left every constraint epsilon-open: freeze
            # the binding resource's flows rather than looping forever
            r_min = min(
                (r for r in range(m) if count[r]),
                key=lambda r: remaining[r] / count[r],
                default=-1,
            )
            if r_min < 0:
                # only ceiling-free flows with no resources remain
                for i in range(n):
                    if active[i]:
                        freeze(i, level)
                continue
            for i in members[r_min]:
                if active[i]:
                    freeze(i, level)
    return rates
