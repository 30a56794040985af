"""Skewed destination matrices for shard placement.

Server popularity in real clusters is far from uniform: a few racks
hold the hot shards.  :class:`DestinationMatrix` models that with a
Zipf distribution over *racks* — rack popularity ranks are a
seed-determined permutation, so different seeds put the hot rack in
different places.

All sampling goes through caller-provided ``random.Random`` streams
(the driver passes per-client ``RngRegistry`` children), so the matrix
itself holds no mutable random state after construction.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import Dict, List

from repro.rpc.spec import RpcWorkloadSpec


class DestinationMatrix:
    """Deterministic server sampler over a rack-grouped host set."""

    def __init__(
        self,
        spec: RpcWorkloadSpec,
        rack_of: Dict[int, int],
        rng: random.Random,
    ) -> None:
        self._all_hosts: List[int] = sorted(rack_of)
        if len(self._all_hosts) < 2:
            raise ValueError("rpc workloads need at least two hosts")
        racks = sorted({rack for rack in rack_of.values()})
        by_rack: Dict[int, List[int]] = {rack: [] for rack in racks}
        for host in self._all_hosts:
            by_rack[rack_of[host]].append(host)
        self._rack_hosts = by_rack
        # popularity ranking: a seed-determined shuffle of the racks,
        # then Zipf weight 1/(k+1)^alpha by rank
        ranked = list(racks)
        rng.shuffle(ranked)
        self._ranked_racks = ranked
        cum: List[float] = []
        total = 0.0
        for k in range(len(ranked)):
            total += 1.0 / (k + 1) ** spec.zipf_alpha
            cum.append(total)
        self._cum_weights = cum
        self._total_weight = total

    def sample_servers(
        self, rng: random.Random, client: int, fan_out: int
    ) -> List[int]:
        """Pick ``fan_out`` servers for one request.

        Servers are distinct where the fabric allows it (distinct
        senders make the fan-in a true N-way incast); when ``fan_out``
        exceeds the eligible host count the chosen set wraps around,
        mirroring ``Scenario.incast_senders`` semantics.
        """
        chosen: List[int] = []
        seen = set()
        attempts = 0
        limit = 8 * fan_out
        while len(chosen) < fan_out and attempts < limit:
            attempts += 1
            host = self._sample_one(rng, client)
            if host in seen:
                continue
            seen.add(host)
            chosen.append(host)
        if len(chosen) < fan_out:
            # rejection sampling stalled (tiny fabric or extreme skew):
            # fill deterministically from the eligible hosts in id order
            for host in self._all_hosts:
                if host != client and host not in seen:
                    seen.add(host)
                    chosen.append(host)
                    if len(chosen) == fan_out:
                        break
        while len(chosen) < fan_out:
            # fan_out > hosts - 1: several shards share a server
            chosen.append(chosen[len(chosen) % max(len(seen), 1)])
        return chosen

    def _sample_one(self, rng: random.Random, client: int) -> int:
        for _ in range(16):
            u = rng.random() * self._total_weight
            rack = self._ranked_racks[bisect_left(self._cum_weights, u)]
            hosts = self._rack_hosts[rack]
            idx = rng.randrange(len(hosts))
            if hosts[idx] == client:
                idx = (idx + 1) % len(hosts)
            if hosts[idx] != client:
                return hosts[idx]
        # every draw landed on a rack whose only host is the client
        for host in self._all_hosts:
            if host != client:
                return host
        raise AssertionError("unreachable: >= 2 hosts checked at init")
