"""Max-min fair rate allocation by progressive filling.

The classic waterfilling algorithm over generic capacitated resources:
every unfrozen flow's rate rises at the same pace; when a resource
saturates, the flows crossing it freeze at the current fill level; when
a flow reaches its own rate ceiling (sending-window cap, Floodgate VOQ
cap expressed as a single-member resource would also work, but a
per-flow ceiling is cheaper), it freezes at the ceiling.  The result is
the unique max-min fair allocation.

The kernel works on an *incidence index* — ``members[r]`` is the
collection of flows crossing resource ``r`` — and never on resource
numbers: :func:`max_min_rates` builds the index from ``paths`` when the
caller has none, and the fluid model hands over the buckets of its
persistent index as they are, so a reallocation compresses nothing and
rebuilds nothing.

**Only resources that can bind are filled.**  With ``Cmax`` the largest
ceiling in the call, a resource of capacity ``c`` crossed by ``k``
flows is kept only if ``c <= k * Cmax`` (times ``1 + 1e-6``).  A
resource that fails the test can neither set the fill step nor
saturate:

1. the fill level never passes the lowest unfrozen ceiling, so
   ``level <= Cmax``, and every frozen flow froze at a rate
   ``<= level``;
2. hence with ``u <= k`` flows still unfrozen on the resource,
   ``remaining >= c - k * level > k * (Cmax - level) >= u * (Cmax -
   level)``;
3. so its fair share ``remaining / u`` exceeds ``Cmax - level``, which
   is at least the next ceiling step — it is never the strict minimum
   that sets ``delta`` — and ``remaining`` stays above ``c - k * Cmax``,
   about ``1e-6 * c`` or more: a thousand times the ``1e-9 * c``
   saturation mark.

**The rates are bit-identical to filling every resource.**  Each kept
resource sees the same ``remaining -= delta * count`` sequence (same
``delta`` by point 3, same ``count`` because the same flows freeze in
the same round), ``min`` does not depend on visiting order, and a
round's freezes all use one ``level``, so neither dropping the other
resources nor the order of flows inside a bucket can change a bit.  The
one step that reads *every* resource's running remainder is the
float-residue branch (a ceiling step ``level + (c - level)`` that lands
an ulp short of ``c`` and freezes nothing): a pruned fill that reaches
it gives up and the call is refilled over all resources, where ties
break toward the resource listed first in ``members`` — resource-number
order for an index built here, which is the order the previous
list-based allocator used.
"""

from __future__ import annotations

from typing import Any, Collection, Dict, List, Mapping, Optional, Sequence

_INF = float("inf")

#: a resource is "saturated" when its remaining capacity falls below
#: this fraction of the original — guards float residue from repeated
#: ``remaining -= delta * count`` updates
_SATURATION_EPS = 1e-9

#: slack on the bind rule ``capacity <= flows * largest ceiling``: far
#: above the few ulps the running remainders can drift, and three orders
#: above :data:`_SATURATION_EPS` so a dropped resource never reads as
#: saturated
_BIND_SLACK = 1.0 + 1e-6


def max_min_rates(
    paths: Any,
    ceilings: Any,
    capacities: Any,
    members: Optional[Mapping[int, Collection[Any]]] = None,
) -> List[float]:
    """Max-min fair rates for ``paths`` over ``capacities``.

    ``paths[i]`` lists the resource indices flow ``i`` crosses (a flow
    may cross a resource at most once); ``ceilings[i]`` is flow ``i``'s
    own rate cap (``float("inf")`` for none); ``capacities[r]`` is
    resource ``r``'s capacity.  All rates/capacities share one unit
    (bits per second here, but the algorithm is unit-agnostic).

    A caller that already keeps an incidence index passes it as
    ``members``: resource -> the flows crossing it, covering every
    resource in ``paths`` and no flow outside it.  ``paths`` and
    ``ceilings`` are then mappings keyed by the same (hashable) flows
    the buckets hold, and the rates come back in ``paths`` order.

    Raises :class:`ValueError` for a flow with no resources and no
    ceiling: nothing bounds its rate.
    """
    if members is None:
        flows: Sequence[Any] = range(len(paths))
        index: Dict[int, List[int]] = {}
        for i, path in enumerate(paths):
            for r in path:
                bucket = index.get(r)
                if bucket is None:
                    index[r] = [i]
                else:
                    bucket.append(i)
        members = dict(sorted(index.items()))
    else:
        flows = list(paths)
    if not flows:
        return []
    if len(flows) == 1:
        # a lone flow runs at its ceiling or its narrowest resource
        (flow,) = flows
        ceiling = ceilings[flow]
        narrowest = min([capacities[r] for r in paths[flow]], default=_INF)
        if ceiling <= narrowest:
            if ceiling == _INF:
                raise _unbounded(flow)
            return [ceiling]
        return [float(narrowest)]
    rates = _fill(flows, paths, ceilings, capacities, members, True)
    if rates is None:
        rates = _fill(flows, paths, ceilings, capacities, members, False)
    return rates


def _unbounded(flow: Any) -> ValueError:
    return ValueError(
        f"max-min flow {flow!r} has no ceiling and crosses no finite "
        f"resource: nothing bounds its rate"
    )


def _fill(
    flows: Sequence[Any],
    paths: Any,
    ceilings: Any,
    capacities: Any,
    members: Mapping[int, Collection[Any]],
    prune: bool,
) -> Optional[List[float]]:
    """One progressive filling; ``None`` if a pruned fill must restart."""
    n = len(flows)
    # flows freeze at their ceiling in ascending-ceiling order
    by_ceiling = sorted(flows, key=ceilings.__getitem__)
    bind_limit = ceilings[by_ceiling[-1]] * _BIND_SLACK if prune else _INF
    # per kept resource [remaining, unfrozen flows, saturation mark,
    # bucket], in members order; state finds it by resource
    live: List[list] = []
    state: Dict[int, list] = {}
    for r, bucket in members.items():
        crossing = len(bucket)
        cap = capacities[r]
        if cap <= crossing * bind_limit:
            cap = float(cap)
            state[r] = res = [cap, crossing, cap * _SATURATION_EPS, bucket]
            live.append(res)
    pruned = len(live) < len(members)
    # flow -> rate, filled as flows freeze; a flow is unfrozen while absent
    rates: Dict[Any, float] = {}
    cursor = 0
    level = 0.0
    while len(rates) < n:
        # how far can the water rise before the next constraint binds?
        while by_ceiling[cursor] in rates:
            cursor += 1
        delta = ceilings[by_ceiling[cursor]] - level
        for res in live:
            unfrozen = res[1]
            if unfrozen:
                share = res[0] / unfrozen
                if share < delta:
                    delta = share
        if delta == _INF:
            raise _unbounded(by_ceiling[cursor])
        saturated: List[list] = []
        if delta > 0.0:
            level += delta
            for res in live:
                unfrozen = res[1]
                if unfrozen:
                    res[0] = left = res[0] - delta * unfrozen
                    if left <= res[2]:
                        saturated.append(res)
        else:
            for res in live:
                if res[1] and res[0] <= res[2]:
                    saturated.append(res)
        frozen: List[Any] = []
        # ceiling-limited flows freeze exactly at their ceiling
        while cursor < n:
            flow = by_ceiling[cursor]
            if flow not in rates:
                if ceilings[flow] > level:
                    break
                rates[flow] = ceilings[flow]
                frozen.append(flow)
            cursor += 1
        # flows on saturated resources freeze at the fill level
        for res in saturated:
            for flow in res[3]:
                if flow not in rates:
                    rates[flow] = level
                    frozen.append(flow)
        if not frozen:
            # float residue left every constraint epsilon-open: freeze
            # the binding resource's flows rather than looping forever.
            # That choice reads every resource's remainder, so a fill
            # that dropped some starts over without pruning
            if pruned:
                return None
            binding = None
            lowest = _INF
            for res in live:
                unfrozen = res[1]
                if unfrozen:
                    share = res[0] / unfrozen
                    if binding is None or share < lowest:
                        binding, lowest = res, share
            # no resource left: only resource-free flows remain
            for flow in flows if binding is None else binding[3]:
                if flow not in rates:
                    rates[flow] = level
                    frozen.append(flow)
        for flow in frozen:
            for r in paths[flow]:
                res = state.get(r)
                if res is not None:
                    res[1] -= 1
    return [rates[flow] for flow in flows]
