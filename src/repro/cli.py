"""Command-line interface: regenerate the paper's tables and demos.

Usage (installed as ``wdm-repro``, or ``python -m repro``)::

    wdm-repro table1 --n-ports 8 --k 4
    wdm-repro table2 --n-ports 256 --k 4
    wdm-repro bounds --n 16 --r 16 --k 4
    wdm-repro crossover --k 4
    wdm-repro capacity --n-ports 8 --k-max 6
    wdm-repro blocking --n 3 --r 3 --k 2 --m-max 10
    wdm-repro blocking --n 3 --r 3 --k 2 --m-max 10 --kernel batched
    wdm-repro sweep --n 3 --r 3 --k 2 --m-max 10 --ci-halfwidth 0.01
    wdm-repro sweep --n 3 --r 3 --k 2 --m-max 10 --resume
    wdm-repro blocking --n 3 --r 3 --k 2 --m-max 10 --workload hotspot \\
        --workload-param zipf_s=1.5
    wdm-repro workloads
    wdm-repro trace-gen --out burst.jsonl --workload heavytail_fanout \\
        --n 3 --r 3 --k 2 --steps 500
    wdm-repro blocking --n 3 --r 3 --k 2 --m-max 10 --fabric crossbar
    wdm-repro fabrics
    wdm-repro fig10
    wdm-repro trace fig10 --trace-out -
    wdm-repro kernels
    wdm-repro design --n-ports 1024 --k 4 --model MAW
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Sequence

from repro import api, obs
from repro.analysis.rendering import render_table
from repro.core.models import (
    Construction,
    MulticastModel,
    parse_construction,
    parse_multicast_model,
)
from repro.core.multistage import optimal_design, valid_x_range

__all__ = ["main"]


def _model(value: str) -> MulticastModel:
    try:
        return parse_multicast_model(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _construction(value: str) -> Construction:
    try:
        return parse_construction(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _fabric(value: str) -> str:
    from repro.engine.fabrics import get_fabric

    lowered = value.lower()
    try:
        get_fabric(lowered)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return lowered


def _jobs(value: str) -> int | str:
    if value.lower() == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"jobs must be an integer or 'auto', got {value!r}"
        ) from exc


def _positive_int(value: str, minimum: int = 1) -> int:
    """A size flag (``--n``, ``--k``, ``--n-ports``, ``--steps``, ...)."""
    try:
        size = int(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"must be an integer, got {value!r}"
        ) from exc
    if size < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {size}")
    return size


def _network_ports(value: str) -> int:
    """The ``--n-ports`` of a command that designs a three-stage network."""
    return _positive_int(value, minimum=2)


def _loads(value: str) -> tuple[float, ...]:
    """A ``--loads`` list such as ``1,4,12``: offered Erlangs, each > 0."""
    loads = []
    for item in value.split(","):
        try:
            load = float(item)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"loads are comma-separated numbers, got {item!r}"
            ) from exc
        if not (load > 0 and math.isfinite(load)):
            raise argparse.ArgumentTypeError(
                f"each load must be a finite number > 0, got {item!r}"
            )
        loads.append(load)
    return tuple(loads)


def _kernel(value: str) -> str:
    from repro.multistage.routing import _KERNELS

    lowered = value.lower()
    if lowered not in _KERNELS:
        raise argparse.ArgumentTypeError(
            f"unknown kernel {value!r}; choose from "
            + ", ".join(sorted(_KERNELS))
        )
    return lowered


def _workload(value: str) -> str:
    from repro.workloads import workload_names

    lowered = value.lower()
    if lowered not in workload_names():
        raise argparse.ArgumentTypeError(
            f"unknown workload {value!r}; choose from "
            + ", ".join(workload_names())
        )
    return lowered


def _workload_param(value: str) -> tuple[str, str]:
    key, sep, raw = value.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"workload parameters are key=value pairs, got {value!r}"
        )
    return key, raw


def _traffic(
    args: argparse.Namespace,
    *,
    replay: bool = False,
    **base: object,
) -> api.WorkloadConfig:
    """The workload config the --workload/--workload-param flags ask for.

    ``base`` holds the fields the command sets from its own flags
    (``steps=args.steps`` for ``--steps``, ...); a ``--workload-param``
    naming one of them is refused, so each value has one source.
    Commands without the workload flags get uniform traffic from
    ``base``.  A command that replays a trace at
    ``--n/--r/--k/--model`` passes ``replay``, so the trace is walked
    once here, at the config's step count and fanout cap, and every
    check its replay makes runs before the first cell.
    """
    params = dict(getattr(args, "workload_param", None) or ())
    for key in sorted(params.keys() & base.keys()):
        flag = "--" + key.replace("_", "-")
        raise SystemExit(
            f"wdm-repro: error: {key} is set by {flag}; drop "
            f"--workload-param {key}={params[key]}"
        )
    try:
        traffic = api.make_workload(
            getattr(args, "workload", "uniform"), **params, **base
        )
        if isinstance(traffic, api.TraceConfig):
            # Read the recording now, so a missing, malformed or empty
            # file (or, with ``replay``, one that does not fit the run)
            # is one error line rather than a traceback mid-run.
            if replay:
                # ``steps=None`` walks the whole recording.
                for _ in traffic.ops(
                    args.model, args.n * args.r, args.k,
                    steps=traffic.resolved_steps(0), rng=None,
                    max_fanout=traffic.max_fanout,
                ):
                    pass
            else:
                from repro.workloads.trace import load_trace

                load_trace(traffic.path)
    except (OSError, TypeError, ValueError) as exc:
        raise SystemExit(f"wdm-repro: error: {exc}") from exc
    return traffic


def _seeds(value: str) -> tuple[int, ...]:
    """A ``--seeds`` list such as ``0,1,2``, or the one-line error."""
    try:
        return tuple(int(seed) for seed in value.split(","))
    except ValueError:
        raise SystemExit(
            "wdm-repro: error: --seeds takes comma-separated integers, "
            f"got {value!r}"
        ) from None


def _check_x(args: argparse.Namespace) -> None:
    """Refuse an ``--x`` outside ``valid_x_range(n, r)`` before any run."""
    legal = valid_x_range(args.n, args.r)
    if args.x not in legal:
        raise SystemExit(
            f"wdm-repro: error: --x {args.x} is outside the legal range "
            f"[{legal[0]}, {legal[-1]}] for n={args.n}, r={args.r}"
        )


def _exec_config(
    args: argparse.Namespace,
    precision: api.PrecisionConfig | None = None,
) -> api.ExecConfig:
    """The execution config the flags ask for."""
    try:
        return api.ExecConfig(
            jobs=args.jobs,
            cache_dir=args.cache_dir if args.cache else None,
            precision=precision,
        )
    except ValueError as exc:
        raise SystemExit(f"wdm-repro: error: {exc}") from exc


def _search_config(args: argparse.Namespace) -> api.SearchConfig:
    """The search config the flags ask for, checked against --fabric."""
    try:
        search = api.SearchConfig(
            kernel=args.kernel, debug_checks=args.debug_checks
        )
        search.check_fabric(args.fabric)
    except ValueError as exc:
        raise SystemExit(f"wdm-repro: error: {exc}") from exc
    return search


def _ci_cell(estimate: api.BlockingEstimate) -> str:
    """The +/- half-width column of one estimate (95% Wilson)."""
    half = estimate.half_width()
    return f"+/-{half:.4f}" if half == half and half != float("inf") else "-"


def _cache_summary(args: argparse.Namespace, counters: dict) -> list[str]:
    """Cache-traffic footer, read from the run's obs counters."""
    if not args.cache:
        return []
    return [
        f"cache: {counters.get('cache.hits', 0)} hits, "
        f"{counters.get('cache.misses', 0)} misses, "
        f"{counters.get('cache.stores', 0)} stored ({args.cache_dir})"
    ]


def _add_cache_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="persist per-cell results so repeated/interrupted runs are "
        "incremental (content-addressed by config, seed, kernel and "
        "code version)",
    )
    p.add_argument(
        "--cache-dir",
        type=str,
        default=".wdm-repro-cache",
        help="directory for --cache entries",
    )


def _add_debug_checks_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--debug-checks",
        action="store_true",
        help="re-verify the network invariants after every connect and "
        "disconnect (slow; never changes the numbers); needs the "
        "bitmask kernel on the clos fabric",
    )


def _add_fabric_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--fabric",
        type=_fabric,
        default="clos",
        metavar="NAME",
        help="fabric model simulated: 'clos' (the paper's three-stage "
        "network, default) or 'crossbar' (single-stage nonblocking WDM "
        "crossbar -- blocking is exactly zero) -- see 'wdm-repro fabrics'",
    )


def _add_workload_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--workload",
        type=_workload,
        default="uniform",
        metavar="NAME",
        help="traffic model drawn per replication: 'uniform' (the "
        "paper's i.i.d. requests, default), 'hotspot' (Zipf-skewed "
        "destinations), 'heavytail_fanout' (truncated-Pareto group "
        "sizes), 'poisson_erlang' (Poisson arrivals, exponential "
        "holding), or 'trace' (replay a recorded file) -- see "
        "'wdm-repro workloads'",
    )
    p.add_argument(
        "--workload-param",
        type=_workload_param,
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="shape parameter for --workload (repeatable), e.g. "
        "--workload hotspot --workload-param zipf_s=1.5; unknown keys "
        "list the model's parameters",
    )


def _cmd_table1(args: argparse.Namespace) -> str:
    from repro.analysis.tables import render_table1

    return render_table1(args.n_ports, args.k)


def _cmd_table2(args: argparse.Namespace) -> str:
    from repro.analysis.tables import render_table2

    return render_table2(args.n_ports, args.k, args.construction)


def _cmd_bounds(args: argparse.Namespace) -> str:
    from repro.analysis.figures import bound_vs_x

    rows = []
    for construction in Construction:
        for x, m in bound_vs_x(args.n, args.r, args.k, construction):
            rows.append([construction.value, x, m])
    return render_table(
        ["construction", "x", "minimal m"],
        rows,
        title=f"Nonblocking bounds -- n={args.n}, r={args.r}, k={args.k}",
    )


def _cmd_crossover(args: argparse.Namespace) -> str:
    from repro.analysis.figures import find_crossover

    lines = []
    for model in MulticastModel:
        crossover = find_crossover(args.k, model)
        where = f"N = {crossover.n_ports}" if crossover else "not found"
        lines.append(
            f"{model.value}: multistage beats crossbar from {where} (k={args.k})"
        )
    return "\n".join(lines)


def _cmd_capacity(args: argparse.Namespace) -> str:
    from repro.analysis.figures import capacity_growth

    points = capacity_growth(args.n_ports, list(range(1, args.k_max + 1)))
    rows = []
    for point in points:
        rows.append(
            [
                point.k,
                *(f"{point.log10_full[m.value]:.1f}" for m in MulticastModel),
                *(f"{point.log10_any[m.value]:.1f}" for m in MulticastModel),
            ]
        )
    return render_table(
        ["k", "MSW full", "MSDW full", "MAW full", "MSW any", "MSDW any", "MAW any"],
        rows,
        title=f"log10 multicast capacity -- N={args.n_ports}",
    )


def _cmd_blocking(args: argparse.Namespace) -> str:
    _check_x(args)
    traffic = _traffic(args, replay=True)
    if args.adversarial and args.fabric != "clos":
        raise SystemExit(
            "wdm-repro: error: adversarial probing is defined for the Clos "
            "fabric only (the adversary constructs three-stage worst-case "
            f"states); got fabric {args.fabric!r}"
        )
    execution = _exec_config(args)
    with obs.capture() as run:
        estimates = api.sweep(
            args.n,
            args.r,
            args.k,
            list(range(1, args.m_max + 1)),
            model=args.model,
            construction=args.construction,
            x=args.x,
            traffic=traffic,
            fabric=args.fabric,
            execution=execution,
            search=_search_config(args),
        )
        # A search for a blocking state where traffic blocked nothing:
        # its answer is a column of its own, never a count.
        restarts = 20
        witnesses = None
        if args.adversarial:
            from repro.multistage.adversary import scan_witnesses

            witnesses = scan_witnesses(
                args.n, args.r, args.k,
                [e.m for e in estimates if not e.blocked],
                construction=args.construction, model=args.model, x=args.x,
                restarts=restarts, jobs=args.jobs, cache=execution.cache(),
            )
    headers = ["m", "attempts", "blocked", "P(block)", "CI95"]
    rows = [
        [e.m, e.attempts, e.blocked, f"{e.probability:.4f}", _ci_cell(e)]
        for e in estimates
    ]
    footer = []
    if witnesses is not None:
        headers.append("witness")
        for row, e in zip(rows, estimates):
            row.append(
                "traffic" if e.blocked
                else "adversary" if witnesses[e.m] is not None
                else f"none in {restarts}"
            )
        footer.append(
            f"witness: 'none in {restarts}' is no proof of nonblocking; "
            f"for one, run wdm-repro exact --n {args.n} --r {args.r} "
            f"--k {args.k} --x {args.x} --model {args.model.value} "
            f"--construction {args.construction.value}"
        )
    fabric_note = "" if args.fabric == "clos" else f", {args.fabric} fabric"
    table = render_table(
        headers,
        rows,
        title=(
            f"Blocking probability -- n={args.n}, r={args.r}, k={args.k}, "
            f"x={args.x}, {args.model.value}, {args.construction.value}, "
            f"{traffic.workload} traffic{fabric_note}"
        ),
    )
    plan = estimates[0].meta.plan if estimates and estimates[0].meta else None
    if plan is not None and args.jobs != 1:
        note = f" ({plan['reason']})" if plan["reason"] else ""
        footer.append(
            f"executor: {plan['executor']}, jobs={plan['resolved_jobs']}{note}"
        )
    footer.extend(_cache_summary(args, run.metrics.snapshot()["counters"]))
    return "\n".join([table, *footer])


def _cmd_sweep(args: argparse.Namespace) -> str:
    if args.resume:
        args.cache = True
    _check_x(args)
    traffic = _traffic(args, steps=args.steps)
    try:
        precision = api.PrecisionConfig(
            half_width=args.ci_halfwidth,
            relative=args.ci_relative,
            level=args.ci_level,
            min_rounds=args.min_rounds,
            max_rounds=args.max_rounds,
        )
        traffic.validate_precision(precision, args.steps)
    except ValueError as exc:
        raise SystemExit(f"wdm-repro: error: {exc}") from exc
    with obs.capture() as run:
        estimates = api.sweep(
            args.n,
            args.r,
            args.k,
            list(range(1, args.m_max + 1)),
            model=args.model,
            construction=args.construction,
            x=args.x,
            traffic=traffic,
            fabric=args.fabric,
            execution=_exec_config(args, precision),
            search=_search_config(args),
        )
    rows = []
    for e in estimates:
        info = e.adaptive
        rows.append(
            [
                e.m,
                e.attempts,
                e.blocked,
                f"{e.probability:.4f}",
                _ci_cell(e),
                info.rounds,
                info.events,
                "yes" if info.converged else "NO",
            ]
        )
    percent = f"{args.ci_level:.0%}"
    target = (
        f"{args.ci_halfwidth:.0%} relative"
        if args.ci_relative
        else f"{args.ci_halfwidth:g} absolute"
    )
    fabric_note = "" if args.fabric == "clos" else f", {args.fabric} fabric"
    table = render_table(
        ["m", "attempts", "blocked", "P(block)", f"CI{percent[:-1]}", "rounds",
         "events", "converged"],
        rows,
        title=(
            f"Adaptive blocking sweep -- n={args.n}, r={args.r}, k={args.k}, "
            f"x={args.x}, {args.model.value}, {args.construction.value}, "
            f"{traffic.workload} traffic{fabric_note}; "
            f"target half-width {target} at {percent}"
        ),
    )
    footer = [
        f"events: {sum(e.adaptive.events for e in estimates)} total "
        f"(fixed budget at the widest cell would need "
        f"{max(e.adaptive.events for e in estimates) * len(estimates)})"
    ]
    unconverged = [e.m for e in estimates if not e.adaptive.converged]
    if unconverged:
        footer.append(
            f"warning: m={unconverged} hit --max-rounds before the target; "
            "raise --max-rounds or loosen --ci-halfwidth"
        )
    footer.extend(_cache_summary(args, run.metrics.snapshot()["counters"]))
    return "\n".join([table, *footer])


def _cmd_fig10(args: argparse.Namespace) -> str:
    from repro.multistage.adversary import fig10_scenario

    outcome = fig10_scenario()
    lines = [
        "Fig. 10 scenario -- v(n=2, r=2, m=2, k=2), MAW model, x=1",
        "prior connections:",
        *(f"  {connection}" for connection in outcome.connections),
        f"contested request: {outcome.contested}",
        f"MSW-dominant construction: "
        f"{'BLOCKED' if outcome.msw_dominant_blocked else 'routed'}",
        f"MAW-dominant construction: "
        f"{'BLOCKED' if outcome.maw_dominant_blocked else 'routed'}",
    ]
    return "\n".join(lines)


def _cmd_trace(args: argparse.Namespace) -> str:
    import io
    import json

    traffic = None
    if args.scenario == "blocking":
        _check_x(args)
        traffic = _traffic(args, steps=args.steps, seeds=_seeds(args.seeds))
    sink = io.StringIO()
    tracer = obs.Tracer(sink)
    with obs.capture(tracer=tracer):
        if args.scenario == "fig10":
            from repro.multistage.adversary import fig10_scenario

            fig10_scenario()
        else:
            api.blocking(
                args.n, args.r, args.m, args.k,
                model=args.model,
                construction=args.construction,
                x=args.x,
                traffic=traffic,
            )
    tracer.close()
    payload = sink.getvalue()
    records = [json.loads(line) for line in payload.splitlines()]
    for record in records:
        obs.validate_record(record)
    if args.trace_out == "-":
        return payload.rstrip("\n")
    with open(args.trace_out, "w", encoding="utf-8") as handle:
        handle.write(payload)
    summary = records[-1]
    return (
        f"trace written to {args.trace_out} ({len(records)} records; "
        f"{summary['admitted']} admitted, {summary['blocked']} blocked)"
    )


def _cmd_gap(args: argparse.Namespace) -> str:
    from repro.core.corrected import min_middle_switches_corrected
    from repro.core.multistage import min_middle_switches_msw_dominant
    from repro.multistage.adversary import demonstrate_theorem1_gap

    if args.model is MulticastModel.MSW:
        raise SystemExit(
            "wdm-repro: error: the gap only exists for the MSDW and MAW "
            "models; pass --model MSDW or --model MAW"
        )
    if args.k < 2 or args.r <= args.n:
        raise SystemExit(
            "wdm-repro: error: the demonstration needs --k >= 2 and "
            f"--r > --n, got --k {args.k}, --n {args.n}, --r {args.r}"
        )
    result = demonstrate_theorem1_gap(args.n, args.r, args.k, args.model)
    lines = [
        "Theorem-1 gap demonstration (reproduction finding)",
        f"  network: v(n={args.n}, r={args.r}, m, k={args.k}), "
        f"{args.model.value} model, MSW-dominant construction, x=1",
        f"  paper Theorem 1 minimum:      m = {result.m_paper}  -> "
        f"{'BLOCKED by adversarial legal traffic' if result.blocked_at_paper_bound else 'routed'}",
        f"  corrected model-aware bound:  m = {result.m_corrected}  -> "
        f"{'routed' if result.routed_at_corrected_bound else 'BLOCKED'}",
        "",
        "  corrected sufficient condition: m > (n-1)x + (nk-1) r^(1/x)",
        "  (the paper's reduction to one wavelength misses that MSDW/MAW",
        "   output stages let nk-1 lambda-sourced connections terminate at",
        "   one output module, each through a different middle switch).",
    ]
    # Scaling table.
    lines.append("")
    lines.append("  paper vs corrected minima at n=8, r=16 (MAW model):")
    for k in (1, 2, 4, 8):
        paper = min_middle_switches_msw_dominant(8, 16, k)
        corrected = min_middle_switches_corrected(
            8, 16, k, Construction.MSW_DOMINANT, MulticastModel.MAW
        )
        lines.append(f"    k={k}: paper m={paper}, corrected m={corrected}")
    return "\n".join(lines)


def _cmd_kernels(args: argparse.Namespace) -> str:
    from repro.multistage.routing import _KERNELS

    runs = {
        "bitmask": "each seed's stream replayed on one serial network per m",
        "batched": "each seed's stream replayed against every m in lockstep",
    }
    table = render_table(
        ["kernel", "Monte-Carlo cells"],
        [[kernel, runs[kernel]] for kernel in _KERNELS],
        title="Routing kernels",
    )
    return "\n".join([
        table,
        "select with --kernel NAME (blocking/sweep); both kernels give "
        "identical numbers.",
    ])


def _cmd_fabrics(args: argparse.Namespace) -> str:
    from repro.engine.fabrics import fabric_status, get_fabric

    status = fabric_status()
    rows = []
    for name in status:
        spec = get_fabric(name)
        # The nonblocking fast path counts setup ops without replaying
        # any middle-stage state.
        replay = "n/a (no replay)" if spec.nonblocking else "lockstep"
        rows.append([name, replay])
    table = render_table(
        ["fabric", "batched replay"],
        rows,
        title="Fabric models",
    )
    lines = [
        table,
        "fabric notes:",
        *(f"  {name}: {status[name]}" for name in status),
        "select with --fabric NAME (blocking/sweep); 'clos' is the "
        "paper's three-stage network and the default.",
    ]
    return "\n".join(lines)


def _cmd_workloads(args: argparse.Namespace) -> str:
    from repro.workloads import workload_class, workload_names
    from repro.workloads.base import WorkloadConfig as WorkloadConfigBase

    rows = []
    for name in workload_names():
        cls = workload_class(name)
        fields = cls.shape_fields()
        params = (
            ", ".join(f"{f.name}={f.default!r}" for f in fields)
            if fields
            else "-"
        )
        overrides_precision = (
            cls.validate_precision is not WorkloadConfigBase.validate_precision
        )
        adaptive = "no (fixed recording)" if overrides_precision else "yes"
        rows.append([name, params, adaptive])
    table = render_table(
        ["workload", "shape parameters (defaults)", "adaptive"],
        rows,
        title="Registered traffic workloads",
    )
    lines = [
        table,
        "workload notes:",
        *(
            f"  {name}: {workload_class(name).describe()}"
            for name in workload_names()
        ),
        "select with --workload NAME --workload-param key=value "
        "(blocking/sweep);",
        "record any workload to a replayable file with "
        "'wdm-repro trace-gen'.",
    ]
    return "\n".join(lines)


def _cmd_trace_gen(args: argparse.Namespace) -> str:
    from repro.workloads import generate_trace

    traffic = _traffic(
        args, replay=True, steps=args.steps, max_fanout=args.max_fanout
    )
    n_ports = args.n * args.r
    try:
        count = generate_trace(
            traffic, args.out, args.model, n_ports, args.k, seed=args.seed
        )
    except OSError as exc:
        raise SystemExit(
            f"wdm-repro: error: cannot write {args.out}: {exc.strerror}"
        ) from exc
    return (
        f"trace written to {args.out} ({count} events; workload "
        f"{traffic.workload}, {args.model.value}, N={n_ports}, k={args.k}, "
        f"seed {args.seed}); replay with --workload trace "
        f"--workload-param path={args.out}"
    )


def _cmd_design(args: argparse.Namespace) -> str:
    from repro.multistage.recursive import best_recursive_design

    design = optimal_design(args.n_ports, args.k, args.model, args.construction)
    recursive = best_recursive_design(args.n_ports, args.k, args.model)
    lines = [
        f"Optimal three-stage design for N={args.n_ports}, k={args.k}, "
        f"model {args.model.value} ({args.construction.value}):",
        f"  n={design.n} r={design.r} m={design.m} x={design.x}",
        f"  crosspoints: {design.cost.crosspoints}"
        f"  (crossbar: {args.k * args.n_ports**2 if args.model is MulticastModel.MSW else args.k**2 * args.n_ports**2})",
        f"  converters:  {design.cost.converters}",
        f"Best recursive design ({recursive.stages} stages): "
        f"{recursive.crosspoints} crosspoints, {recursive.converters} converters",
        recursive.describe(indent=1),
    ]
    return "\n".join(lines)


def _cmd_exact(args: argparse.Namespace) -> str:
    from repro.core.corrected import min_middle_switches_corrected
    from repro.multistage.offline import minimal_rearrangeable_m

    _check_x(args)
    with obs.capture() as run:
        result = api.exact_m(
            args.n, args.r, args.k,
            model=args.model, construction=args.construction, x=args.x,
            state_budget=args.budget,
            execution=_exec_config(args),
            search=api.SearchConfig(canonicalize=not args.no_canonicalize),
        )
    lines = [
        f"exact thresholds for v(n={args.n}, r={args.r}, m, k={args.k}), "
        f"{args.model.value}, {args.construction.value}, x={args.x}:",
    ]
    for per_m in result.per_m:
        verdict = {True: "blockable", False: "nonblocking", None: "budget exceeded"}[
            per_m.blockable
        ]
        lines.append(
            f"  m={per_m.m}: {verdict} ({per_m.states_explored} states explored)"
        )
    sufficient = min_middle_switches_corrected(
        args.n, args.r, args.k, args.construction, args.model, x=args.x
    )
    lines.append(f"  sufficient (corrected) bound: m = {sufficient}")
    if result.m_exact is not None:
        lines.append(f"  exact strict-sense threshold: m = {result.m_exact}")
        if args.rearrangeable:
            m_rearr, _ = minimal_rearrangeable_m(
                args.n, args.r, args.k,
                model=args.model, construction=args.construction, x=args.x,
            )
            lines.append(f"  exact rearrangeable threshold: m = {m_rearr}")
    else:
        lines.append("  exact threshold: inconclusive within the state budget")
    lines.extend(_cache_summary(args, run.metrics.snapshot()["counters"]))
    return "\n".join(lines)


def _cmd_load(args: argparse.Namespace) -> str:
    _check_x(args)
    rows = []
    for load in args.loads:
        estimate = api.blocking(
            args.n, args.r, args.m, args.k,
            model=args.model, construction=args.construction, x=args.x,
            traffic=api.PoissonErlangConfig(
                offered_erlangs=load, steps=args.steps
            ),
        )
        rows.append(
            [
                f"{load:g}",
                estimate.attempts,
                estimate.blocked,
                f"{estimate.probability:.4f}",
                _ci_cell(estimate),
            ]
        )
    return render_table(
        ["offered (Erl)", "attempts", "blocked", "P(block)", "CI95"],
        rows,
        title=(
            f"Offered-load study -- v({args.n},{args.r},{args.m},{args.k}), "
            f"{args.model.value}, {args.construction.value}, x={args.x}, "
            "poisson_erlang traffic"
        ),
    )


def _cmd_report(args: argparse.Namespace) -> str:
    from repro.analysis.report import generate_report

    report = generate_report(n_ports=args.n_ports, k=args.k, fast=args.fast)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
        return f"report written to {args.output}"
    return report


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="wdm-repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="Table 1: capacity and cost per model")
    p.add_argument("--n-ports", type=_positive_int, default=4)
    p.add_argument("--k", type=_positive_int, default=2)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("table2", help="Table 2: crossbar vs multistage cost")
    p.add_argument("--n-ports", type=_network_ports, default=256)
    p.add_argument("--k", type=_positive_int, default=4)
    p.add_argument("--construction", type=_construction, default=Construction.MSW_DOMINANT)
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("bounds", help="Theorem 1/2 m(x) profiles")
    p.add_argument("--n", type=_positive_int, default=8)
    p.add_argument("--r", type=_positive_int, default=8)
    p.add_argument("--k", type=_positive_int, default=4)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("crossover", help="where multistage beats crossbar")
    p.add_argument("--k", type=_positive_int, default=4)
    p.set_defaults(func=_cmd_crossover)

    p = sub.add_parser("capacity", help="capacity growth with k")
    p.add_argument("--n-ports", type=_positive_int, default=8)
    p.add_argument("--k-max", type=_positive_int, default=6)
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("blocking", help="Monte-Carlo blocking vs m")
    p.add_argument("--n", type=_positive_int, default=3)
    p.add_argument("--r", type=_positive_int, default=3)
    p.add_argument("--k", type=_positive_int, default=1)
    p.add_argument("--m-max", type=_positive_int, default=9)
    p.add_argument("--x", type=int, default=1)
    p.add_argument("--model", type=_model, default=MulticastModel.MSW)
    p.add_argument("--construction", type=_construction, default=Construction.MSW_DOMINANT)
    p.add_argument(
        "--adversarial",
        action="store_true",
        help="also search for a blocking state at each m where random "
        "traffic blocked nothing (20 randomized adversary restarts), "
        "shown in a witness column; the estimates are unchanged",
    )
    _add_fabric_flag(p)
    _add_workload_flags(p)
    p.add_argument(
        "--kernel",
        type=_kernel,
        default="bitmask",
        metavar="{bitmask,batched}",
        help="simulation kernel: 'bitmask' (default) replays each seed's "
        "traffic on one serial network per m, 'batched' replays it "
        "against every m in lockstep (same numbers, fastest); results "
        "are bit-identical across both",
    )
    p.add_argument(
        "--jobs",
        type=_jobs,
        default=1,
        help="worker processes for the sweep ('auto' or 0 = adapt to the "
        "host); results are identical for any value",
    )
    _add_cache_flags(p)
    _add_debug_checks_flag(p)
    p.set_defaults(func=_cmd_blocking)

    p = sub.add_parser(
        "sweep",
        help="adaptive blocking-vs-m sweep: sample each m until its "
        "confidence interval meets a precision target",
    )
    p.add_argument("--n", type=_positive_int, default=3)
    p.add_argument("--r", type=_positive_int, default=3)
    p.add_argument("--k", type=_positive_int, default=1)
    p.add_argument("--m-max", type=_positive_int, default=9)
    p.add_argument("--x", type=int, default=1)
    p.add_argument("--steps", type=int, default=1500)
    p.add_argument("--model", type=_model, default=MulticastModel.MSW)
    p.add_argument("--construction", type=_construction, default=Construction.MSW_DOMINANT)
    _add_fabric_flag(p)
    _add_workload_flags(p)
    p.add_argument(
        "--ci-halfwidth",
        type=float,
        default=0.01,
        metavar="H",
        help="target 95%% (see --ci-level) confidence half-width per "
        "curve point; absolute unless --ci-relative",
    )
    p.add_argument(
        "--ci-relative",
        action="store_true",
        help="interpret --ci-halfwidth relative to each point estimate "
        "(0.1 = 10%% relative precision)",
    )
    p.add_argument(
        "--ci-level",
        type=float,
        default=0.95,
        metavar="L",
        help="confidence level of the Wilson interval the stopping rule "
        "tests",
    )
    p.add_argument("--min-rounds", type=int, default=2)
    p.add_argument("--max-rounds", type=int, default=64)
    p.add_argument(
        "--kernel",
        type=_kernel,
        default="bitmask",
        metavar="{bitmask,batched}",
        help="simulation kernel (see 'wdm-repro blocking --help'); "
        "bit-identical across both",
    )
    p.add_argument(
        "--jobs",
        type=_jobs,
        default=1,
        help="worker processes per round ('auto' or 0 = adapt to the "
        "host); results are identical for any value",
    )
    _add_cache_flags(p)
    p.add_argument(
        "--resume",
        action="store_true",
        help="shorthand for --cache: completed rounds persist in "
        "--cache-dir, so re-running an interrupted sweep replays warm "
        "rounds and continues bit-identically",
    )
    _add_debug_checks_flag(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fig10", help="the Fig. 10 blocking scenario")
    p.set_defaults(func=_cmd_fig10)

    p = sub.add_parser(
        "trace",
        help="JSONL event trace (admit/block/release + blocking cause)",
    )
    p.add_argument(
        "scenario",
        choices=("fig10", "blocking"),
        help="'fig10' replays the Fig. 10 contested request; 'blocking' "
        "traces a Monte-Carlo run of v(n,r,m,k)",
    )
    p.add_argument("--n", type=_positive_int, default=2)
    p.add_argument("--r", type=_positive_int, default=2)
    p.add_argument("--m", type=_positive_int, default=2)
    p.add_argument("--k", type=_positive_int, default=1)
    p.add_argument("--x", type=int, default=1)
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--seeds", type=str, default="0")
    p.add_argument("--model", type=_model, default=MulticastModel.MSW)
    p.add_argument("--construction", type=_construction, default=Construction.MSW_DOMINANT)
    p.add_argument(
        "--trace-out",
        type=str,
        default="-",
        help="output path for the JSONL trace, '-' for stdout",
    )
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "exact", help="model-check the exact nonblocking threshold (tiny nets)"
    )
    p.add_argument("--n", type=_positive_int, default=2)
    p.add_argument("--r", type=_positive_int, default=2)
    p.add_argument("--k", type=_positive_int, default=1)
    p.add_argument("--x", type=int, default=1)
    p.add_argument("--model", type=_model, default=MulticastModel.MSW)
    p.add_argument("--construction", type=_construction, default=Construction.MSW_DOMINANT)
    p.add_argument("--budget", type=_positive_int, default=200_000)
    p.add_argument("--rearrangeable", action="store_true")
    p.add_argument(
        "--jobs",
        type=_jobs,
        default=1,
        help="worker processes for the m-candidate scan ('auto' or 0 = "
        "adapt to the host)",
    )
    p.add_argument(
        "--no-canonicalize",
        action="store_true",
        help="disable symmetry canonicalization (the slow reference "
        "search; verdicts are identical either way)",
    )
    _add_cache_flags(p)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("load", help="loss vs offered Erlang load")
    p.add_argument("--n", type=_positive_int, default=3)
    p.add_argument("--r", type=_positive_int, default=3)
    p.add_argument("--m", type=_positive_int, default=4)
    p.add_argument("--k", type=_positive_int, default=2)
    p.add_argument("--x", type=int, default=1)
    p.add_argument("--loads", type=_loads, default="1,4,12")
    p.add_argument(
        "--steps",
        type=_positive_int,
        default=1500,
        help="traffic events per replication at each load",
    )
    p.add_argument("--model", type=_model, default=MulticastModel.MAW)
    p.add_argument("--construction", type=_construction, default=Construction.MSW_DOMINANT)
    p.set_defaults(func=_cmd_load)

    p = sub.add_parser("report", help="regenerate every artifact as markdown")
    p.add_argument("--n-ports", type=_network_ports, default=256)
    p.add_argument("--k", type=_positive_int, default=4)
    p.add_argument("--output", type=str, default=None)
    p.add_argument("--fast", action="store_true")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "gap", help="the Theorem-1 gap for MSDW/MAW models (finding)"
    )
    p.add_argument("--n", type=_positive_int, default=2)
    p.add_argument("--r", type=_positive_int, default=3)
    p.add_argument("--k", type=_positive_int, default=2)
    p.add_argument("--model", type=_model, default=MulticastModel.MAW)
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser(
        "kernels",
        help="the routing kernels and what each runs per cell",
    )
    p.set_defaults(func=_cmd_kernels)

    p = sub.add_parser(
        "fabrics",
        help="the fabric models: the Clos and the crossbar oracle",
    )
    p.set_defaults(func=_cmd_fabrics)

    p = sub.add_parser(
        "workloads",
        help="registered traffic workloads and their shape parameters",
    )
    p.set_defaults(func=_cmd_workloads)

    p = sub.add_parser(
        "trace-gen",
        help="record a workload replication as a replayable trace file",
    )
    p.add_argument(
        "--out",
        type=str,
        required=True,
        help="output path; '.csv' writes CSV, anything else JSONL",
    )
    p.add_argument("--n", type=_positive_int, default=3)
    p.add_argument("--r", type=_positive_int, default=3)
    p.add_argument("--k", type=_positive_int, default=1)
    p.add_argument("--steps", type=_positive_int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-fanout", type=_positive_int, default=None)
    p.add_argument("--model", type=_model, default=MulticastModel.MSW)
    _add_workload_flags(p)
    p.set_defaults(func=_cmd_trace_gen)

    p = sub.add_parser("design", help="optimal multistage + recursive design")
    p.add_argument("--n-ports", type=_network_ports, default=1024)
    p.add_argument("--k", type=_positive_int, default=4)
    p.add_argument("--model", type=_model, default=MulticastModel.MSW)
    p.add_argument("--construction", type=_construction, default=Construction.MSW_DOMINANT)
    p.set_defaults(func=_cmd_design)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    print(args.func(args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
