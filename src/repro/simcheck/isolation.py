"""Runtime shard-isolation sanitizer: who mutated whose objects.

The static side of shard safety lives in :mod:`repro.simcheck.rules`
(SIM005..SIM008) and :mod:`repro.simcheck.ownership`; this module is
the dynamic complement.  ``ShardIsolationSanitizer`` tags the hot
objects of every execution domain — ports, links, VOQ state, credit
tables — with a domain id at partition time (a VOQ slot when its pool
creates it), then observes each domain
engine: every executed callback bound to a tagged
object (``fn.__self__``) is checked against the domain it ran under.
A callback owned by domain 1 firing on domain 0's engine is exactly
the cross-domain mutation the conservative-parallel executors must
never produce, and exactly what SIM007 flags statically.

Boundary traffic stays silent by construction: inter-domain packets
cross via channel objects whose delivery callbacks re-enter through
the *receiving* domain's own nodes, so the executing domain and the
owner agree.  Enable per run via ``check --sharded --isolate``.

Zero cost when off: tagging and probing only happen when the sharded
runner is asked to isolate, and the probe is one more observer on the
domain's engine (``Simulator.add_observer``), after the digest.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

#: cap on collected violations, mirroring the sanitizer's default (a
#: mis-bound callback would otherwise report once per event)
MAX_VIOLATIONS = 100


class ShardIsolationSanitizer:
    """Domain-ownership tags plus per-domain execution probes."""

    def __init__(self, max_violations: int = MAX_VIOLATIONS) -> None:
        #: id(obj) -> (owning domain, human label)
        self._owner: Dict[int, Tuple[int, str]] = {}
        self.violations: List[str] = []
        self.truncated = 0
        self.max_violations = max_violations

    # -- tagging (partition time) ------------------------------------------

    def tag(self, obj: Any, domain: int, label: str) -> None:
        """Record ``obj`` as owned by ``domain`` (idempotent per object)."""
        if obj is not None:
            self._owner[id(obj)] = (domain, label)

    def tag_scenario(self, scenario, domain_of: Dict[int, int]) -> None:
        """Tag every hot object after domain binding and fault install.

        Covers nodes and their ports, intra-domain links (boundary
        links are deliberately untagged: both sides legitimately touch
        them), link fault states, and switch extensions with their VOQ
        pools and credit schedulers.
        """
        topo = scenario.topology
        for node in (*topo.hosts, *topo.switches):
            d = domain_of[node.node_id]
            self.tag(node, d, node.name)
            for port in node.ports:
                self.tag(port, d, f"{node.name}.port[{port.index}]")
        for link in topo.links:
            d_a = domain_of[link.node_a.node_id]
            d_b = domain_of[link.node_b.node_id]
            if d_a != d_b:
                continue
            self.tag(link, d_a, f"link {link.node_a.name}<->{link.node_b.name}")
            if link.fault is not None:
                self.tag(
                    link.fault, d_a,
                    f"fault[{link.node_a.name}<->{link.node_b.name}]",
                )
        for ext in scenario.extensions:
            d = domain_of[ext.switch.node_id]
            self.tag(ext, d, f"{ext.switch.name}.extension")
            voq_pool = getattr(ext, "pool", None)
            if voq_pool is not None:
                self.tag(voq_pool, d, f"{ext.switch.name}.voqs")
                # slots are created on first use: tag them as they appear
                label = f"{ext.switch.name}.voq"
                for voq in voq_pool.voqs:
                    self.tag(voq, d, label)
                voq_pool.on_new_voq.append(
                    lambda voq, d=d, label=label: self.tag(voq, d, label)
                )
            credits = getattr(ext, "credits", None)
            if credits is not None:
                self.tag(credits, d, f"{ext.switch.name}.credits")
            windows = getattr(ext, "windows", None)
            if windows is not None:
                self.tag(windows, d, f"{ext.switch.name}.windows")

    # -- probing (run time) ------------------------------------------------

    def probe(self, domain: int, clock) -> "_DomainProbe":
        """An engine observer asserting callbacks run under ``domain``."""
        return _DomainProbe(self, domain, clock)

    def record(self, domain: int, owner: int, label: str, name: str, now) -> None:
        if len(self.violations) < self.max_violations:
            self.violations.append(
                f"t={now}ns: domain {domain} executed {name} bound to "
                f"{label} owned by domain {owner} (cross-domain mutation)"
            )
        else:
            self.truncated += 1

    def summary(self) -> Dict[str, int]:
        return {
            "isolation_violations": len(self.violations),
            "isolation_truncated": self.truncated,
        }


class _DomainProbe:
    """Per-domain engine observer (installed after the digest, if any)."""

    __slots__ = ("iso", "domain", "clock")

    def __init__(self, iso: ShardIsolationSanitizer, domain: int, clock) -> None:
        self.iso = iso
        self.domain = domain
        self.clock = clock

    def note(self, fn: Callable[..., Any], dt: float, heap_depth: int) -> None:
        owner = self.iso._owner.get(id(getattr(fn, "__self__", None)))
        if owner is not None and owner[0] != self.domain:
            name = getattr(fn, "__qualname__", repr(fn))
            self.iso.record(
                self.domain, owner[0], owner[1], name, self.clock.now
            )
