"""One-shot reproduction report: every artifact in a single document.

:func:`generate_report` regenerates the paper's tables, the implied
design-space curves, the blocking study and the reproduction findings,
and renders them as a markdown document.  The CLI exposes it as
``wdm-repro report`` -- useful for checking a fresh checkout end to end
or regenerating the data behind EXPERIMENTS.md.
"""

from __future__ import annotations

import io

from repro.analysis.figures import bound_vs_x, capacity_growth, find_crossover
from repro import api
from repro.analysis.tables import render_table1, render_table2
from repro.core.corrected import min_middle_switches_corrected
from repro.core.models import Construction, MulticastModel
from repro.core.multistage import min_middle_switches_msw_dominant
from repro.fabric.power import analyze_power
from repro.fabric.wdm_crossbar import build_crossbar
from repro.multistage.adversary import demonstrate_theorem1_gap, fig10_scenario
from repro.multistage.fabric_backed import FabricBackedThreeStage
from repro.multistage.recursive import best_recursive_design

__all__ = ["generate_report"]


def generate_report(
    *,
    n_ports: int = 256,
    k: int = 4,
    fast: bool = False,
) -> str:
    """Regenerate every artifact and render a markdown report.

    Args:
        n_ports: network size for the Table 2 / crossover sections.
        k: wavelength count used throughout.
        fast: trim the Monte-Carlo sweep for quick smoke runs.
    """
    out = io.StringIO()
    w = out.write

    w("# WDM multicast reproduction report\n\n")
    w(f"Parameters: N={n_ports}, k={k}.\n\n")

    # -- Table 1 ------------------------------------------------------
    w("## Table 1 (capacity & crossbar cost)\n\n```\n")
    w(render_table1(min(n_ports, 8), k))
    w("\n```\n\n")

    # -- Table 2 ------------------------------------------------------
    w("## Table 2 (crossbar vs multistage)\n\n```\n")
    w(render_table2(n_ports, k))
    w("\n```\n\n")

    # -- crossover ------------------------------------------------------
    w("## Crossbar/multistage crossover\n\n")
    for model in MulticastModel:
        crossover = find_crossover(k, model)
        where = f"N = {crossover.n_ports}" if crossover else "not found"
        w(f"- {model.value}: multistage wins from {where}\n")
    w("\n")

    # -- bounds ---------------------------------------------------------
    w("## Theorem 1/2 bound profiles (n = r = 16)\n\n")
    for construction in Construction:
        profile = bound_vs_x(16, 16, k, construction)
        series = "  ".join(f"x={x}:{m}" for x, m in profile[:8])
        w(f"- {construction.value}: {series} ...\n")
    w("\n")

    # -- capacity growth -------------------------------------------------
    w("## Capacity growth (log10, N = 8)\n\n")
    for point in capacity_growth(8, [1, 2, k]):
        values = ", ".join(
            f"{model.value}={point.log10_full[model.value]:.1f}"
            for model in MulticastModel
        )
        w(f"- k={point.k}: {values}\n")
    w("\n")

    # -- blocking curve ---------------------------------------------------
    w("## Blocking probability vs m (n = r = 3, k = 1, x = 1)\n\n")
    bound = min_middle_switches_msw_dominant(3, 3, 1, x=1)
    steps = 200 if fast else 800
    estimates = api.sweep(
        3, 3, 1, list(range(1, bound + 1)), x=1,
        traffic=api.UniformConfig(steps=steps, seeds=(0,)),
    )
    for estimate in estimates:
        w(f"- m={estimate.m}: P(block) = {estimate.probability:.4f}\n")
    w(f"\nTheorem-1 bound: m = {bound}.\n\n")

    # -- Fig. 10 -----------------------------------------------------------
    outcome = fig10_scenario()
    w("## Fig. 10 scenario\n\n")
    w(
        f"MSW-dominant: {'BLOCKED' if outcome.msw_dominant_blocked else 'routed'}; "
        f"MAW-dominant: {'BLOCKED' if outcome.maw_dominant_blocked else 'routed'}.\n\n"
    )

    # -- the finding ---------------------------------------------------------
    w("## Theorem-1 gap (reproduction finding)\n\n")
    gap = demonstrate_theorem1_gap(2, 3, 2, MulticastModel.MAW)
    w(
        f"v(2,3,m,2), MAW model, x=1: paper m_min={gap.m_paper} -> "
        f"{'BLOCKED' if gap.blocked_at_paper_bound else 'routed'}; "
        f"corrected m_min={gap.m_corrected} -> "
        f"{'routed' if gap.routed_at_corrected_bound else 'BLOCKED'}.\n\n"
    )
    w("Corrected condition: `m > (n-1)x + (nk-1) r^(1/x)`. Scaling (n=8, r=16):\n\n")
    for kk in (1, 2, 4, 8):
        paper = min_middle_switches_msw_dominant(8, 16, kk)
        corrected = min_middle_switches_corrected(
            8, 16, kk, Construction.MSW_DOMINANT, MulticastModel.MAW
        )
        w(f"- k={kk}: paper {paper}, corrected {corrected}\n")
    w("\n")

    # -- recursive -------------------------------------------------------------
    w("## Recursive construction\n\n")
    design = best_recursive_design(max(n_ports, 4096), 2)
    w(
        f"best recursive MSW design for N={max(n_ports, 4096)}, k=2: "
        f"{design.crosspoints} crosspoints, {design.stages} stages.\n\n"
    )

    # -- power ----------------------------------------------------------------
    w("## Power / crosstalk (the §2.3 remark)\n\n")
    crossbar = build_crossbar(MulticastModel.MAW, 6, 2)
    physical = FabricBackedThreeStage(2, 3, 5, 2, model=MulticastModel.MAW)
    cb = analyze_power(crossbar.fabric)
    ms = analyze_power(physical.fabric)
    w(f"- crossbar 6x6 (k=2): {cb.worst_loss_db:.1f} dB worst path, "
      f"{cb.max_gate_cascade} gate stage(s)\n")
    w(f"- three-stage v(2,3,5,2): {ms.worst_loss_db:.1f} dB worst path, "
      f"{ms.max_gate_cascade} gate stage(s)\n\n")

    # -- offered load ----------------------------------------------------------
    w("## Offered-load study (v(3,3,m,2), MAW, x=1)\n\n")
    steps = 300 if fast else 1200
    for m in (2, 4):
        series = []
        for load in (1.0, 8.0):
            estimate = api.blocking(
                3, 3, m, 2, model=MulticastModel.MAW, x=1,
                traffic=api.PoissonErlangConfig(
                    offered_erlangs=load, steps=steps
                ),
            )
            series.append(
                f"rho={load:.0f}: {estimate.probability:.3f} "
                f"+/- {estimate.half_width():.3f}"
            )
        w(f"- m={m}: P(block) {', '.join(series)}\n")
    w("\n")

    # -- scheduling (the §1 motivation) -----------------------------------------
    from repro.scheduling.demands import random_demand_batch
    from repro.scheduling.electronic import electronic_rounds
    from repro.scheduling.wdm import wdm_rounds

    w("## WDM vs electronic scheduling (the §1 motivation)\n\n")
    demands = random_demand_batch(16, 40, seed=0)
    electronic, _ = electronic_rounds(demands)
    for kk in (1, 2, 4, 8):
        rounds, _ = wdm_rounds(demands, kk)
        w(f"- k={kk}: {rounds} rounds (electronic: {electronic})\n")

    return out.getvalue()
