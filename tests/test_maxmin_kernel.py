"""The rebuilt max-min kernel vs the PR-14 allocator it replaced.

``tests/maxmin_pr14.py`` is the old body verbatim.  Everything here
compares with ``==``: the kernel's contract is bit-identical rates, not
close ones.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.flowsim.maxmin as kernel
from maxmin_pr14 import max_min_rates as oracle
from repro.flowsim import max_min_rates

INF = float("inf")

#: ceilings drawn per instance class; "two-step" is chosen so that the
#: second ceiling step ``level + (1.3 - level)`` lands an ulp short of
#: 1.3 every few hundred instances
CEILINGS = {
    "uniform": (1.3,),
    "two-step": (0.1, 1.3),
    "mixed": (0.1, 0.2, 0.3, 0.7, 1.1, 1.3),
    "infinite": (INF,),
    "mixed-infinite": (0.1, 0.7, 1.3, INF),
}
CAPACITIES = (0.0, 0.5, 1.0, 1.3, 2.6, 3.0, 3.9, 100.0)


def random_instance(rng: random.Random, kind: str):
    """A small instance: shared bottlenecks, zero capacities, fat pipes."""
    n = rng.randint(1, 6)
    m = rng.randint(1, 5)
    ceilings = [rng.choice(CEILINGS[kind]) for _ in range(n)]
    paths = []
    for ceiling in ceilings:
        # an empty path needs a ceiling, or nothing bounds the flow
        fewest = 1 if ceiling == INF else 0
        hops = rng.randint(fewest, m)
        paths.append(tuple(sorted(rng.sample(range(m), hops))))
    # 2.6 and 3.9 are exact prune boundaries (2 and 3 flows at 1.3);
    # spare resources no flow crosses keep the index sparse
    capacities = [rng.choice(CAPACITIES) for _ in range(m + rng.randint(0, 2))]
    return paths, ceilings, capacities


def via_index(paths, ceilings, capacities):
    """The same instance through the prebuilt-``members`` entry."""
    names = [f"flow-{i}" for i in range(len(paths))]
    members = {}
    for name, path in zip(names, paths, strict=True):
        for r in path:
            members.setdefault(r, {})[name] = None
    return max_min_rates(
        dict(zip(names, paths, strict=True)),
        dict(zip(names, ceilings, strict=True)),
        capacities,
        dict(sorted(members.items())),
    )


@pytest.fixture
def fills(monkeypatch):
    """Record each ``_fill``: True where a pruned fill gave up."""
    fill = kernel._fill
    gave_up = []

    def spy(*args):
        rates = fill(*args)
        gave_up.append(rates is None)
        return rates

    monkeypatch.setattr(kernel, "_fill", spy)
    return gave_up


@pytest.mark.parametrize("kind", sorted(CEILINGS))
def test_kernel_equals_pr14_on_seeded_random_instances(kind, fills):
    rng = random.Random(f"maxmin-{kind}")
    for _ in range(3000):
        paths, ceilings, capacities = random_instance(rng, kind)
        expected = oracle(paths, ceilings, capacities)
        assert max_min_rates(paths, ceilings, capacities) == expected
        assert via_index(paths, ceilings, capacities) == expected
    if kind == "two-step":
        # the class exists to reach the residue restart: make sure it does
        assert any(fills)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda m: st.tuples(
            st.lists(
                st.tuples(
                    st.sets(st.integers(0, m - 1), min_size=1).map(
                        lambda hops: tuple(sorted(hops))
                    ),
                    st.one_of(st.just(INF), st.floats(0.0, 1e12)),
                ),
                max_size=8,
            ),
            st.lists(st.floats(0.0, 1e12), min_size=m, max_size=m),
        )
    )
)
def test_kernel_equals_pr14_on_arbitrary_floats(instance):
    flows, capacities = instance
    paths = [path for path, _ in flows]
    ceilings = [ceiling for _, ceiling in flows]
    expected = oracle(paths, ceilings, capacities)
    assert max_min_rates(paths, ceilings, capacities) == expected
    assert via_index(paths, ceilings, capacities) == expected


def test_prune_boundary_capacity_equals_count_times_ceiling(fills):
    ceiling = 1.3
    for crossing in (2, 3, 7):
        edge = crossing * ceiling
        for cap in (
            math.nextafter(edge, 0.0),
            edge,
            math.nextafter(edge, INF),
            edge * (1.0 + 1e-6),
            math.nextafter(edge * (1.0 + 1e-6), INF),
            edge * 2,
        ):
            # resource 0 sits on the boundary, resource 1 binds first
            paths = [(0, 1)] + [(0,)] * (crossing - 1)
            ceilings = [ceiling] * crossing
            capacities = [cap, 0.4]
            expected = oracle(paths, ceilings, capacities)
            assert max_min_rates(paths, ceilings, capacities) == expected
            assert via_index(paths, ceilings, capacities) == expected
    assert not any(fills)


def test_residue_branch_restarts_unpruned_and_equals_pr14(fills):
    # flow 2 rides only the fat resource 1, which the bind rule drops;
    # its ceiling step 0.3 + (1.3 - 0.3) lands an ulp short of 1.3, so
    # the round freezes nothing and PR 14 froze the flows of the
    # resource with the lowest fair share — resource 1, the dropped one
    paths = [(0,), (0, 1), (1,), (0, 1)]
    ceilings = [0.1, 0.1, 1.3, 1.3]
    capacities = [0.5, 100.0]
    expected = oracle(paths, ceilings, capacities)
    assert expected[2] == math.nextafter(1.3, 0.0)
    assert max_min_rates(paths, ceilings, capacities) == expected
    assert fills == [True, False]
    del fills[:]
    assert via_index(paths, ceilings, capacities) == expected
    assert fills == [True, False]


def test_lone_flow_takes_the_closed_form(fills):
    assert max_min_rates([(0, 1)], [5.0], [3.0, 4]) == [3.0]
    assert max_min_rates([(0, 1)], [2.0], [3.0, 4.0]) == [2.0]
    assert max_min_rates([()], [2.0], []) == [2.0]
    assert max_min_rates([(0,)], [INF], [0.0]) == [0.0]
    assert fills == []


def test_unbounded_flow_is_rejected_by_index():
    # PR 14 fell out of the loop here with rate 0.0, and the fluid model
    # then never completed the flow
    with pytest.raises(ValueError, match="flow 0 "):
        max_min_rates([()], [INF], [10.0])
    with pytest.raises(ValueError, match="flow 1 "):
        max_min_rates([(0,), (), (0,)], [INF, INF, 1.0], [10.0])
    with pytest.raises(ValueError, match="flow 'b' "):
        max_min_rates({"a": (0,), "b": ()}, {"a": 1.0, "b": INF}, [9.0], {0: ["a"]})
