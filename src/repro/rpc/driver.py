"""Reactive flow injection: the closed loop itself.

The driver wraps every host's ``on_flow_done`` callback — the same
hook both fidelity tiers fire when a flow's last byte reaches its
destination — and turns flow completions into application progress:

* a **request** flow completing at a server schedules that shard's
  response at the delivery instant;
* a **response** flow completing back at the client decrements the
  request's fan-in count; when the last response lands, the request
  latency is recorded and the client schedules its next request after
  a think-time draw.

Every random draw comes from per-client ``RngRegistry`` child streams
(``rpc:client:<host>``) plus one matrix stream (``rpc:matrix``), so
the workload is deterministic per seed and independent of how client
events interleave with the rest of the run.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.rpc.matrix import DestinationMatrix
from repro.rpc.spec import RpcWorkloadSpec
from repro.stats.collector import FlowClass
from repro.stats.rpc import RpcRecord

#: shard query size, bytes (small — the response carries the data)
REQUEST_SIZE = 300

#: pending-flow roles (identity-compared in the dispatch hot path)
_REQUEST = "request"
_RESPONSE = "response"


class _Client:
    """One closed-loop client's mutable state."""

    __slots__ = ("host_id", "index", "rng", "requests_done")

    def __init__(self, host_id: int, index: int, rng: random.Random) -> None:
        self.host_id = host_id
        #: dense client rank (0..n_clients-1) in host-id order; the
        #: client-interleaved request-id allocation keys off it
        self.index = index
        self.rng = rng
        self.requests_done = 0


class _Request:
    """One in-flight request: fan-in bookkeeping."""

    __slots__ = ("request_id", "client", "start", "remaining", "finish")

    def __init__(
        self, request_id: int, client: int, start: int, fan_out: int
    ) -> None:
        self.request_id = request_id
        self.client = client
        self.start = start
        self.remaining = fan_out
        self.finish = start


class ClosedLoopDriver:
    """Injects request/response flows reactively on either fidelity tier."""

    def __init__(self, scenario, spec: RpcWorkloadSpec) -> None:
        self.scenario = scenario
        self.sim = scenario.sim
        self.topology = scenario.topology
        self.stats = scenario.stats
        self.spec = spec
        self.gen_end = scenario.config.duration
        host_ids = [h.node_id for h in self.topology.hosts]
        # (Scenario's _check_fabric caps n_clients at the host count)
        n = spec.n_clients or len(host_ids)
        # spread clients evenly over the host id space -> across racks
        picked = [host_ids[i * len(host_ids) // n] for i in range(n)]
        self.clients: Dict[int, _Client] = {
            host: _Client(host, i, scenario.rng.stream(f"rpc:client:{host}"))
            for i, host in enumerate(picked)
        }
        self.matrix = DestinationMatrix(
            spec, scenario.rack_of(), scenario.rng.stream("rpc:matrix")
        )
        #: request and flow ids are allocated per client (interleaved by
        #: client rank) instead of from global next-id counters: global
        #: counters hand out ids in *execution* order, which differs
        #: between a serial run and a sharded run even when every
        #: client's behavior is identical
        self._n_clients = len(picked)
        #: flow id -> (role, request, response_size, slot) for flows we
        #: own; ``slot`` is the shard index within the request's fan-out
        self._pending_flow: Dict[int, Tuple[str, _Request, int, int]] = {}
        self._chain_flow_done = None
        self._fluid = None
        self._live_clients = len(picked)
        self._open_requests = 0
        self.requests_issued = 0

    # -- lifecycle ---------------------------------------------------------

    def attach(self) -> None:
        """Interpose on every host's completion callback (chains the
        topology's completed-flow counter installed by ``finalize``)."""
        hosts = self.topology.hosts
        self._chain_flow_done = hosts[0].on_flow_done
        for host in hosts:
            host.on_flow_done = self._flow_done

    def start(self, fluid=None) -> None:
        """Arm each client's first think timer (call after scheduling).

        Each client's events live on its own host's simulator — the
        same object as ``self.sim`` in a serial run, the host's domain
        simulator in a sharded one — so the closed loop runs entirely
        inside the domains that own its endpoints.
        """
        self._fluid = fluid
        hosts = self.topology.hosts
        for host in sorted(self.clients):
            client = self.clients[host]
            sim = hosts[host].sim
            sim.schedule_call_at(
                sim.now + self._think(client), self._issue, client
            )

    @property
    def finished(self) -> bool:
        """No client will issue again and no request is in flight."""
        return self._live_clients == 0 and self._open_requests == 0

    # -- the loop ----------------------------------------------------------

    def _think(self, client: _Client) -> int:
        """One exponential think-time draw, ns (relative delay)."""
        mean = self.spec.think_time
        if mean <= 0:
            return 0
        return int(client.rng.expovariate(1.0 / mean))

    def _issue(self, client: _Client) -> None:
        spec = self.spec
        now = self.topology.hosts[client.host_id].sim.now
        if now >= self.gen_end:
            self._live_clients -= 1
            return
        client.requests_done += 1
        self.requests_issued += 1
        request_id = (client.requests_done - 1) * self._n_clients + client.index
        request = _Request(request_id, client.host_id, now, spec.fan_out)
        self._open_requests += 1
        rng = client.rng
        servers = self.matrix.sample_servers(rng, client.host_id, spec.fan_out)
        flows = []
        for slot, server in enumerate(servers):
            resp_size = rng.randint(spec.response_size_min, spec.response_size_max)
            flow = self.topology.make_flow(
                self._flow_id(request_id, slot),
                client.host_id,
                server,
                REQUEST_SIZE,
                now,
            )
            self._pending_flow[flow.flow_id] = (_REQUEST, request, resp_size, slot)
            flows.append(flow)
        self._start_flows(flows)

    def _flow_id(self, request_id: int, slot: int) -> int:
        """Deterministic flow id: 2*fan_out ids per request.

        Slots ``[0, fan_out)`` are the shard queries, ``[fan_out,
        2*fan_out)`` the responses — a pure function of the request, so
        ids agree between serial and sharded execution orders.
        """
        return request_id * 2 * self.spec.fan_out + slot

    def _start_flows(self, flows: List) -> None:
        if self._fluid is not None:
            self._fluid.inject_flows(flows)
        else:
            hosts = self.topology.hosts
            for flow in flows:
                hosts[flow.src].start_flow(flow)

    # -- completion dispatch ----------------------------------------------

    def _flow_done(self, flow) -> None:
        chain = self._chain_flow_done
        if chain is not None:
            chain(flow)
        entry = self._pending_flow.pop(flow.flow_id, None)
        if entry is None:
            return
        role, request, resp_size, slot = entry
        # in the fluid tier this callback fires at the rate-completion
        # instant while finish_time includes the unloaded tail latency;
        # application progress keys off the delivery time in both tiers
        done_at = flow.finish_time
        hosts = self.topology.hosts
        if role is _REQUEST:
            # shard query arrived at the server: schedule the response
            # (a fresh event — the fluid tier must not admit flows from
            # inside its own callback)
            hosts[flow.dst].sim.schedule_call_at(
                done_at,
                self._respond,
                request,
                flow.dst,
                resp_size,
                slot,
            )
            return
        if done_at > request.finish:
            request.finish = done_at
        request.remaining -= 1
        if request.remaining:
            return
        self._open_requests -= 1
        self.stats.record_rpc(
            RpcRecord(
                request.request_id,
                request.client,
                self.spec.fan_out,
                request.start,
                request.finish,
            )
        )
        client = self.clients[request.client]
        # the think clock starts when the data is in hand (finish >= now)
        hosts[request.client].sim.schedule_call_at(
            request.finish + self._think(client), self._issue, client
        )

    def _respond(
        self, request: _Request, server: int, resp_size: int, slot: int
    ) -> None:
        flow = self.topology.make_flow(
            self._flow_id(request.request_id, self.spec.fan_out + slot),
            server,
            request.client,
            resp_size,
            self.topology.hosts[server].sim.now,
        )
        # the fan-in responses are the incast: classify them so FCT
        # breakdowns and rx-byte accounting see them as the paper does
        self.stats.register_flow_class(flow.flow_id, FlowClass.INCAST)
        self._pending_flow[flow.flow_id] = (_RESPONSE, request, 0, slot)
        self._start_flows([flow])


def rpc_traffic(scenario) -> list:
    """``pattern="rpc"``: the closed loop; no flow exists before the run."""
    scenario.rpc_driver = ClosedLoopDriver(scenario, scenario.config.rpc)
    scenario.rpc_driver.attach()
    return []
