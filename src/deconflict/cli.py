"""Command-line surface: solve-pair, schedule, optimize, montecarlo, fit, casestudy.

Outputs are deterministic: identical flags (for any --workers value) produce
byte-identical CSV/JSON. Exit codes: 0 success, 2 parse/validation error,
3 infeasible instance, 4 internal failure.
"""

import argparse
import json
import math
import sys
from pathlib import Path

from . import atlanta
from .errors import (DegenerateSamples, ScenarioFormatError, TooManyAgents,
                     TopologyRejectionExhausted, UnknownId)
from .kinematics import (IntervalKind, SeparationConfig, forbidden_interval,
                         min_separation_sq)
from .optimizer import optimize_order
from .scenario import run_monte_carlo
from .scenario_io import read_scenario
from .scheduler import greedy_schedule, order_ids
from .statfit import DEFAULT_BINS, fit_report

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


def _load(args):
    missions, h = read_scenario(args.scenario)
    return missions, SeparationConfig(h=h if args.h is None else args.h)


def _outdir(args) -> Path | None:
    if args.out is None:
        return None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


def cmd_solve_pair(args) -> int:
    missions, cfg = _load(args)
    by_id = {m.id: m for m in missions}
    for mid in (args.first_id, args.second_id):
        if mid not in by_id:
            raise UnknownId(f"mission {mid!r} not in scenario "
                            f"(have {sorted(by_id)})")
    if args.first_id == args.second_id:
        raise ValueError(f"solve-pair needs two different missions, got "
                         f"{args.first_id!r} twice")
    first = by_id[args.first_id]
    second = by_id[args.second_id]
    fi = forbidden_interval(first, second, cfg)
    print(f"pair: {first.id} first, {second.id} second (h = {cfg.h} m)")
    # the gap R(t) = U t + P is least at t = -(U.P)/|U|^2, with P first's
    # position at second's departure less second's origin; the zero-scaled
    # velocity fixes the sign of a zero in P, and so the sign of a zero t
    u = first.velocity - second.velocity
    p = first.origin + first.velocity.scaled(0.0) - second.origin
    uu = u.norm_sq()
    if uu == 0.0:
        print("closest approach at zero delay: degenerate (identical velocities)")
    else:
        t_cpa = -(u.x * p.x + u.y * p.y) / uu
        print(f"closest approach at zero delay: t = {t_cpa:.6f} s")
    if fi.kind is IntervalKind.EMPTY:
        print("forbidden delays: none (pair is separation-safe at any delay)")
    else:
        print(f"forbidden delays: ({fi.lo:.6f}, {fi.hi:.6f}) s")
        sep_lo = math.sqrt(min_separation_sq(first, 0.0, second, fi.lo))
        sep_hi = math.sqrt(min_separation_sq(first, 0.0, second, fi.hi))
        print(f"min separation when scheduled at lo: {sep_lo:.6f} m")
        print(f"min separation when scheduled at hi: {sep_hi:.6f} m")
    return EXIT_OK


def cmd_schedule(args) -> int:
    missions, cfg = _load(args)
    schedule = greedy_schedule(missions, cfg)
    print(f"greedy schedule in file order (h = {cfg.h} m):")
    for mid, dep, bound in zip(schedule.order, schedule.departures,
                               schedule.bindings):
        note = f"  constrained by {', '.join(bound)}" if bound else ""
        print(f"  {mid}: departs {dep:.6f} s{note}")
    print(f"total delay: {schedule.total_delay:.6f} s")
    out = _outdir(args)
    if out is not None:
        _write_json(out / "schedule.json", {
            "h_m": cfg.h,
            "order": list(schedule.order),
            "departures_s": dict(zip(schedule.order, schedule.departures)),
            "bindings": {mid: list(b)
                         for mid, b in zip(schedule.order, schedule.bindings)},
            "total_delay_s": schedule.total_delay,
        })
        print(f"wrote {out / 'schedule.json'}")
    return EXIT_OK


def cmd_optimize(args) -> int:
    missions, cfg = _load(args)
    search = optimize_order(missions, cfg)
    best = search.best
    print(f"evaluated {len(search.totals)} orders (h = {cfg.h} m)")
    print(f"optimal order: {' > '.join(best.order)}")
    for mid, dep in zip(best.order, best.departures):
        print(f"  {mid}: departs {dep:.6f} s")
    print(f"total delay: {best.total_delay:.6f} s")
    print(f"average delay: {best.average_delay:.6f} s")
    print(f"worst order: {' > '.join(search.worst.order)} "
          f"(total {search.worst.total_delay:.6f} s)")
    print(f"efficiency gain over worst: {100.0 * search.efficiency_gain:.2f} %")
    out = _outdir(args)
    if out is not None:
        lines = ["order,total_delay_s,average_delay_s"]
        n = len(search.ids)
        lines += [f"{'>'.join(order)},{total!r},{total / n!r}"
                  for order, total in zip(order_ids(search.ids, search.orders),
                                          search.totals.tolist())]
        (out / "orders.csv").write_text("\n".join(lines) + "\n")
        _write_json(out / "optimize.json", {
            "h_m": cfg.h,
            "orders_evaluated": len(search.totals),
            "best_order": list(best.order),
            "departures_s": dict(zip(best.order, best.departures)),
            "total_delay_s": best.total_delay,
            "average_delay_s": best.average_delay,
            "worst_order": list(search.worst.order),
            "worst_total_delay_s": search.worst.total_delay,
            "efficiency_gain": search.efficiency_gain,
            "tied_optimal_orders": [list(o) for o in search.optimal_orders],
        })
        print(f"wrote {out / 'orders.csv'} and {out / 'optimize.json'}")
    return EXIT_OK


def _samples_csv(result) -> str:
    n = result.n_agents
    topologies = result.topology_index.tolist()
    delays = result.delays.tolist()
    if result.order_rank is None:
        lines = ["n_agents,topology_index,average_delay_s"]
        lines += [f"{n},{k},{d!r}" for k, d in zip(topologies, delays)]
    else:
        lines = ["n_agents,topology_index,order_rank,average_delay_s"]
        lines += [f"{n},{k},{r},{d!r}"
                  for k, r, d in zip(topologies, result.order_rank.tolist(), delays)]
    return "\n".join(lines) + "\n"


def cmd_montecarlo(args) -> int:
    result = run_monte_carlo(args.n_agents, args.topologies, args.seed,
                             mode=args.mode, h=args.h, workers=args.workers)
    delays = result.delays
    if not delays.size:
        raise TopologyRejectionExhausted(
            f"all {args.topologies} topologies rejected: no {args.n_agents}-agent "
            f"topology with vertiport spacing {args.h} m was drawn")
    print(f"{delays.size} samples from {args.topologies} topologies "
          f"({len(result.rejected_topologies)} rejected), mode={result.mode}")
    print(f"mean average delay: {float(delays.mean()):.4f} s, "
          f"std: {float(delays.std()):.4f} s")
    if args.out is not None:
        # fit first: a fit error must leave no output behind
        report = fit_report(delays, bins=args.bins)
        report["n_agents"] = result.n_agents
        report["mode"] = result.mode
        report["seed"] = result.base_seed
        report["rejected_topologies"] = list(result.rejected_topologies)
        out = _outdir(args)
        (out / "samples.csv").write_text(_samples_csv(result))
        _write_json(out / "fit.json", report)
        print(f"selected distribution: {report['selected']}")
        print(f"wrote {out / 'samples.csv'} and {out / 'fit.json'}")
    return EXIT_OK


def cmd_fit(args) -> int:
    try:
        text = Path(args.samples_csv).read_text().strip().splitlines()
    except OSError as exc:
        raise ScenarioFormatError(f"cannot read {args.samples_csv}: {exc}") from exc
    if not text:
        raise ScenarioFormatError("samples CSV is empty")
    header = text[0].split(",")
    if "average_delay_s" not in header:
        raise ScenarioFormatError("samples CSV needs an average_delay_s column")
    col = header.index("average_delay_s")
    try:
        samples = [float(line.split(",")[col]) for line in text[1:]]
    except (ValueError, IndexError) as exc:
        raise ScenarioFormatError(f"bad CSV row: {exc}") from exc
    report = fit_report(samples, bins=args.bins)
    for r in report["fits"]:
        print(f"{r['family']}: ssr = {r['ssr']:.6g}")
    print(f"selected: {report['selected']}")
    out = _outdir(args)
    if out is not None:
        _write_json(out / "fit.json", report)
        print(f"wrote {out / 'fit.json'}")
    return EXIT_OK


def cmd_casestudy(args) -> int:
    report = atlanta.case_study(args.h)
    best = report["best"]
    print(f"Atlanta case study at h = {args.h} m "
          f"({report['orders_evaluated']} orders evaluated)")
    print(f"optimal order: {' > '.join(best['order'])}")
    for mid in best["order"]:
        print(f"  flight {mid} ({atlanta.ROUTES[mid]}): "
              f"departs {best['departures_min'][mid]:.4f} min")
    print(f"total delay: {best['total_delay_min']:.4f} min")
    print(f"average delay: {best['average_delay_min']:.4f} min")
    print(f"worst-order total delay: {report['worst']['total_delay_min']:.4f} min")
    print(f"efficiency gain over worst: {100.0 * report['efficiency_gain']:.2f} %")
    ties = report["tied_optimal_orders"]
    print(f"orders tied at the optimum: "
          f"{'; '.join(' > '.join(o) for o in ties)}")
    out = _outdir(args)
    if out is not None:
        _write_json(out / "casestudy.json", report)
        print(f"wrote {out / 'casestudy.json'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deconflict",
        description="Conflict-free departure scheduling for planar constant-velocity flights")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument("--h", type=float, default=None,
                       help="separation radius in meters (overrides the scenario)")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("solve-pair", help="forbidden delays for one ordered pair")
    add_common(p)
    p.add_argument("first_id")
    p.add_argument("second_id")
    p.set_defaults(func=cmd_solve_pair)

    p = sub.add_parser("schedule", help="greedy schedule in scenario file order")
    add_common(p)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("optimize", help="exhaustive flight-order optimization")
    add_common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("montecarlo", help="random-topology delay statistics")
    p.add_argument("--n-agents", type=int, required=True)
    p.add_argument("--topologies", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("pooled", "optimal"), default="pooled")
    p.add_argument("--h", type=float, default=1.5)
    p.add_argument("--bins", type=int, default=DEFAULT_BINS)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("fit", help="fit delay distributions to a samples CSV")
    p.add_argument("samples_csv")
    p.add_argument("--bins", type=int, default=DEFAULT_BINS)
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("casestudy", help="bundled Atlanta four-flight study")
    p.add_argument("--h", type=float, required=True,
                   help="separation radius in meters")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_casestudy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioFormatError, UnknownId, TooManyAgents, DegenerateSamples,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except TopologyRejectionExhausted as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except Exception as exc:  # noqa: BLE001 - exit-code contract is total
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
