"""Bench: Table 2 — PFC triggered time under DCQCN."""

from benchmarks.conftest import show
from repro.experiments.figures import tab02_pfc


def test_tab02_pfc_pause_time(once):
    result = once(tab02_pfc.run, quick=True)
    lines = [f"{'variant':18s} {'workload':10s} {'host us':>9s} "
             f"{'tor us':>9s} {'core us':>9s} {'events':>7s}"]
    for variant, by_workload in result.items():
        for workload, row in by_workload.items():
            lines.append(
                f"{variant:18s} {workload:10s} {row['host_us']:9.1f}"
                f" {row['tor_us']:9.1f} {row['core_us']:9.1f}"
                f" {row['events']:7d}"
            )
    show("Table 2: PFC pause time", "\n".join(lines))

    for workload, row in result["dcqcn"].items():
        total = row["host_us"] + row["tor_us"] + row["core_us"]
        assert total > 0, f"DCQCN triggered no PFC under {workload}"
    for workload, row in result["dcqcn+floodgate"].items():
        total = row["host_us"] + row["tor_us"] + row["core_us"]
        base = result["dcqcn"][workload]
        base_total = base["host_us"] + base["tor_us"] + base["core_us"]
        # Floodgate (nearly) eliminates PFC
        assert total < 0.05 * base_total
