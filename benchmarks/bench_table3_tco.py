"""Table 3 — Cluster TCO and alignment costs (§6.1).

Paper result:

    Compute Server   $8,450 x 60  = $507K
    Storage server   $7,575 x  7  = $53K
    Fabric ports     $792   x 67  = $53K
    Total                          $613K
    TCO(5yr)                       $943K
    Cost/Alignment (100% util)     6.07 cents
    Storage cost per genome        $8.83
    Glacier (5 yr, cold)           $6.72
    Single server                  4.1 cents/alignment

The TCO model is pure arithmetic over the paper's unit costs, so this is
an exact reproduction, not a calibrated simulation.
"""

from __future__ import annotations

from models.tco import (
    CostInputs,
    cluster_tco,
    glacier_cost_per_genome,
    national_scale_tco,
    single_server_tco,
    table3_rows,
)


def test_table3_tco(benchmark, report):
    rep = report("table3_tco", "Table 3 — Cluster TCO and alignment costs")
    result = cluster_tco()
    rep.row("Compute server CAPEX", "$507K",
            f"${result.compute_capex / 1e3:.0f}K")
    rep.row("Storage server CAPEX", "$53K",
            f"${result.storage_capex / 1e3:.1f}K")
    rep.row("Fabric CAPEX", "$53K", f"${result.fabric_capex / 1e3:.1f}K")
    rep.row("Total CAPEX", "$613K", f"${result.total_capex / 1e3:.0f}K")
    rep.row("TCO (5 yr)", "$943K", f"${result.tco / 1e3:.0f}K")
    rep.row("Cost per alignment", "6.07 c",
            f"{result.cost_per_alignment * 100:.2f} c",
            "(60 nodes x 144 alignments/day)")
    rep.row("Storage cost per genome", "$8.83",
            f"${result.storage_cost_per_genome:.2f}")
    rep.row("Genome capacity", "~6,000",
            f"{result.genomes_capacity:.0f}")
    single = single_server_tco()
    rep.row("Single server cost/alignment", "4.1 c",
            f"{single.cost_per_alignment * 100:.2f} c")
    rep.row("Glacier 5-yr per genome", "$6.72",
            f"${glacier_cost_per_genome():.2f}")
    national = national_scale_tco(genomes_per_day=100_000 / 365.0)
    rep.add()
    rep.add(
        f"nation-scale sizing (100,000 Genomes/yr): "
        f"{national.compute_capex / CostInputs().compute_server_cost:.0f} "
        f"compute + "
        f"{national.storage_capex / CostInputs().storage_server_cost:.0f} "
        f"storage servers, TCO ${national.tco / 1e3:.0f}K"
    )
    rep.add()
    rep.add("shape checks:")
    rep.check("CAPEX matches Table 3 ($613K +-1%)",
              abs(result.total_capex - 613_089) < 6_500)
    rep.check("TCO ~= $943K", abs(result.tco - 943_000) < 10_000)
    rep.check("cost/alignment within 5% of 6.07c",
              abs(result.cost_per_alignment - 0.0607) < 0.006)
    rep.check("storage $/genome ~= $8.83",
              abs(result.storage_cost_per_genome - 8.83) < 0.10)
    rep.check("storage per genome >> alignment cost (2 orders)",
              result.storage_cost_per_genome
              > 100 * result.cost_per_alignment)
    rep.check("server cost dominates CAPEX (>80%)",
              result.compute_capex / result.total_capex > 0.8)
    rep.finish()

    benchmark.pedantic(cluster_tco, rounds=5, iterations=10)


def test_table3_rows_printable(benchmark):
    rows = benchmark(table3_rows)
    assert [r["item"] for r in rows][:3] == [
        "Compute Server", "Storage server", "Fabric ports"
    ]
