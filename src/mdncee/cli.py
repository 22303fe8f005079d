"""Batch front-end: scenario in, CSV/JSON results and plot-ready data out.

Subcommands:

* sweep        -- Pareto sweep of EE versus target outage (goa/brute/mc rows)
* energy-curve -- transmit-energy share versus achieved outage along the sweep
* relay-shift  -- EE versus relay displacement for a fixed relay subset
* verify       -- Monte Carlo check of the analytic outage/EE at one point

Exit codes: 0 success, 2 invalid argument, scenario or point, 3 no
requested target solved, 4 verification failure. A sweep target whose solve
fails becomes a row with status "failed" and the error as its reason.
Output files start with a schema line; numbers are written with 12
significant digits, so identical inputs and seeds reproduce byte-identical
files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .model import ScenarioError, apply_relay_shift, build_link_coefficients, load_scenario, validate_scenario
from .energy import energy_efficiency, total_energy
from .optimizer import dinkelbach_fixed_schedule, dinkelbach_solve, exact_outage
from .outage import PowerAllocation, RelaySchedule
from .simulate import MAX_SAMPLES, McConfig, brute_force_optimize, monte_carlo_outage

SWEEP_SCHEMA = "# mdncee-sweep-v1"
ENERGY_SCHEMA = "# mdncee-energy-curve-v1"
SHIFT_SCHEMA = "# mdncee-relay-shift-v1"
VERIFY_SCHEMA = "mdncee-verify-v1"
# Fewest expected outage events per tested indicator (samples * analytic
# outage) at which verify's binomial z-test is trusted; below it the report
# sets few_events. The benchmark sizes its Monte Carlo runs to the same floor.
MIN_EXPECTED_EVENTS = 1000

SWEEP_HEADER = ("target,scheme,mode,relays,count,p_users,p_relays,ee,pr_out_exact,"
                "pr_out_approx,pr_out_mc,mc_stderr,e_tot,e_data,q_star,dinkelbach_iters,"
                "goa_iters,cuts,newton_iters,status,reason")
ENERGY_HEADER = "target,scheme,achieved_pr_out,e_data,e_tot,relays,count,max_user_power,status,reason"
SHIFT_HEADER = "delta,target,relays,ee,pr_out_exact,status,reason"

DEFAULT_TARGETS = tuple(np.geomspace(1e-2, 5e-6, 14))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def _fmt_list(values) -> str:
    if values is None:
        return ""
    return ";".join(_fmt(v) for v in np.atleast_1d(values))


def _scalar_outage(value) -> float | None:
    """Scalar outage for CSV cells: the network outage for MDNC, the user
    average for NoNC (so EE = M*alpha0*T*(1-value)/E_tot holds for both)."""
    if value is None:
        return None
    arr = np.atleast_1d(value)
    return float(np.mean(arr))


def _finite_or_none(value: float) -> float | None:
    """A z-score for strict JSON: an unbounded one becomes null."""
    return value if math.isfinite(value) else None


def _load(path):
    s = load_scenario(path)
    violations = validate_scenario(s)
    if violations:
        raise ScenarioError("invalid scenario:\n  " + "\n  ".join(violations))
    return s, build_link_coefficients(s)


# Argument types: argparse turns their errors into exit code 2 with the
# message, before any solve starts.


def _target(text: str) -> float:
    """One target outage: a number strictly between 0 and 1."""
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"target outage {text} is not in (0, 1)")
    return value


def _target_list(text: str) -> list[float]:
    """Target outages: a comma list."""
    return [_target(t) for t in text.split(",")]


def _parse_targets(spec_text: str) -> list[float]:
    """Target outages: a comma list or logrange:start,stop,count."""
    if spec_text.startswith("logrange:"):
        start, stop, count = spec_text[len("logrange:"):].split(",")
        if int(count) < 1:
            raise argparse.ArgumentTypeError(f"logrange count {count} is below 1")
        return [float(t) for t in np.geomspace(_target(start), _target(stop), int(count))]
    return _target_list(spec_text)


def _shift_list(text: str) -> list[float]:
    """Relay shifts in meters: a comma list of numbers."""
    try:
        return [float(d) for d in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"shifts {text!r} are not a comma list of numbers") from None


def _index_list(text: str) -> tuple[int, ...]:
    """Relay indices: a comma list of integers, checked against N after loading."""
    try:
        return tuple(int(j) for j in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"relays {text!r} are not a comma list of integers") from None


def _parse_modes(text: str) -> list[str]:
    """Sweep modes: a comma list from goa, brute and mc."""
    modes = text.split(",")
    for mode in modes:
        if mode not in ("goa", "brute", "mc"):
            raise argparse.ArgumentTypeError(f"unknown mode {mode!r} (choose from goa, brute, mc)")
    return modes


def _sample_count(text: str) -> int:
    """Monte Carlo sample count: an integer from 1 to MAX_SAMPLES."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"sample count {text} is below 1")
    if value > MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"sample count {text} is above {MAX_SAMPLES}")
    return value


def _seed(text: str) -> int:
    """Monte Carlo seed: an integer in [0, 2^64), the Philox key's first word."""
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed {text} is not in [0, 2^64)")
    return value


def _job_count(text: str) -> int:
    """Sweep worker count: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"job count {text} is below 1")
    return value


def _solve_row(args):
    """One sweep cell; top-level so process pools can dispatch it."""
    scenario_path, target, scheme, mode, samples, seed, include_user = args
    s, coeffs = _load(scenario_path)
    row = {
        "target": target, "scheme": scheme, "mode": mode, "status": "ok", "reason": "",
        "relays": None, "count": None, "p_users": None, "p_relays": None, "ee": None,
        "pr_out_exact": None, "pr_out_approx": None, "pr_out_mc": None, "mc_stderr": None,
        "e_tot": None, "e_data": None, "q_star": None, "dinkelbach_iters": None,
        "goa_iters": None, "cuts": None, "newton_iters": None,
    }
    solver = brute_force_optimize if mode == "brute" else dinkelbach_solve
    try:
        sol = solver(s, coeffs, target, scheme=scheme, include_user_energy=include_user)
    except (RuntimeError, ValueError) as exc:
        row["status"] = "failed"
        row["reason"] = str(exc)
        return row
    if not sol.feasible:
        row["status"] = "infeasible"
        row["reason"] = sol.reason or "infeasible"
        return row
    diag = sol.diagnostics
    row.update({
        "relays": sol.schedule.theta,
        "count": sol.schedule.count,
        "p_users": sol.powers.p,
        "p_relays": sol.powers.p_relay,
        "ee": sol.ee,
        "pr_out_exact": _scalar_outage(sol.pr_out_exact),
        "pr_out_approx": _scalar_outage(sol.pr_out_approx),
        "e_tot": sol.energy.e_tot,
        "e_data": sol.energy.e_data,
        "q_star": sol.q_star,
        "dinkelbach_iters": diag.get("dinkelbach_iterations"),
        "goa_iters": sum(i.get("goa_iterations", 0) for i in diag.get("inner", [])),
        "cuts": diag.get("cuts_total"),
        "newton_iters": diag.get("newton_total"),
    })
    if mode == "mc":
        mc = monte_carlo_outage(s, coeffs, sol.schedule, sol.powers,
                                McConfig(samples=samples, seed=seed), scheme=scheme)
        row["pr_out_mc"] = _scalar_outage(mc.outage)
        row["mc_stderr"] = _scalar_outage(mc.stderr)
        row["ee"] = mc.ee
    return row


def _write_lines(path, lines):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_plotdata(outdir, name, pairs):
    lines = [f"# mdncee-plotdata-v1 {name}"]
    lines += [f"{_fmt(x)} {_fmt(y)}" for x, y in pairs]
    _write_lines(os.path.join(outdir, "plotdata", f"{name}.dat"), lines)


def _sweep_rows(scenario_path, targets, schemes, modes, samples, seed, include_user, jobs):
    tasks = [(scenario_path, t, sch, mode, samples, seed, include_user)
             for t in targets for sch in schemes for mode in modes]
    # the pool forks all its workers up front: never more than there are tasks
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_solve_row, tasks))
    else:
        rows = [_solve_row(t) for t in tasks]
    rows.sort(key=lambda r: (-r["target"], r["scheme"], r["mode"]))
    return rows


def cmd_sweep(args) -> int:
    schemes = ["mdnc", "nonc"] if args.scheme == "both" else [args.scheme]
    rows = _sweep_rows(args.scenario, args.targets, schemes, args.mode, args.samples, args.seed,
                       args.include_user_energy_in_budget, args.jobs)
    lines = [SWEEP_SCHEMA, SWEEP_HEADER]
    for r in rows:
        lines.append(",".join([
            _fmt(r["target"]), r["scheme"], r["mode"], _fmt_list(r["relays"]),
            _fmt(r["count"]), _fmt_list(r["p_users"]), _fmt_list(r["p_relays"]),
            _fmt(r["ee"]), _fmt(r["pr_out_exact"]), _fmt(r["pr_out_approx"]),
            _fmt(r["pr_out_mc"]), _fmt(r["mc_stderr"]), _fmt(r["e_tot"]), _fmt(r["e_data"]),
            _fmt(r["q_star"]), _fmt(r["dinkelbach_iters"]), _fmt(r["goa_iters"]),
            _fmt(r["cuts"]), _fmt(r["newton_iters"]), r["status"], r["reason"].replace(",", ";"),
        ]))
    _write_lines(os.path.join(args.out, "sweep.csv"), lines)
    for sch in schemes:
        for mode in args.mode:
            pairs = [(r["target"], r["ee"]) for r in rows
                     if r["scheme"] == sch and r["mode"] == mode and r["status"] == "ok"]
            if pairs:
                _write_plotdata(args.out, f"ee_vs_target_{sch}_{mode}", pairs)
    ok = [r for r in rows if r["status"] == "ok"]
    return 0 if ok else 3


def cmd_energy_curve(args) -> int:
    rows = _sweep_rows(args.scenario, args.targets, [args.scheme], ["goa"], 0, 0,
                       args.include_user_energy_in_budget, args.jobs)
    lines = [ENERGY_SCHEMA, ENERGY_HEADER]
    pairs = []
    for r in rows:
        max_p = None if r["p_users"] is None else float(np.max(r["p_users"]))
        lines.append(",".join([
            _fmt(r["target"]), r["scheme"], _fmt(r["pr_out_exact"]), _fmt(r["e_data"]),
            _fmt(r["e_tot"]), _fmt_list(r["relays"]), _fmt(r["count"]), _fmt(max_p),
            r["status"], r["reason"].replace(",", ";"),
        ]))
        if r["status"] == "ok":
            pairs.append((r["pr_out_exact"], r["e_data"]))
    _write_lines(os.path.join(args.out, "energy_curve.csv"), lines)
    if pairs:
        _write_plotdata(args.out, f"edata_vs_outage_{args.scheme}", pairs)
    return 0 if pairs else 3


def relay_location_study(s, coeffs, target: float, deltas, subset=None,
                         include_user_energy: bool = False):
    """EE versus relay displacement for a fixed selection-plus-power design.

    The design (relay subset and transmit powers) is the optimizer's solution
    at delta = 0; each delta then shifts every relay that far from the users
    toward the BS and re-evaluates the exact outage at the unchanged powers.
    Row fields: delta, relays, ee, achieved exact outage, status, reason.
    """
    if subset is None:
        base = dinkelbach_solve(s, coeffs, target, include_user_energy=include_user_energy)
        if not base.feasible:
            return [{"delta": d, "relays": None, "ee": None, "pr_out_exact": None,
                     "status": "infeasible", "reason": "no feasible base selection"}
                    for d in deltas]
        schedule, powers = base.schedule, base.powers
    else:
        schedule = RelaySchedule.from_indices(subset, s.N)
        fixed = dinkelbach_fixed_schedule(s, coeffs, schedule, target,
                                          include_user_energy=include_user_energy)
        if fixed is None:
            return [{"delta": d, "relays": schedule.theta, "ee": None, "pr_out_exact": None,
                     "status": "infeasible", "reason": "no admissible power allocation at delta 0"}
                    for d in deltas]
        powers = fixed.powers
    e = total_energy(s, schedule, powers)
    rows = []
    for delta in deltas:
        try:
            shifted = apply_relay_shift(s, delta)
        except ScenarioError as exc:
            rows.append({"delta": delta, "relays": schedule.theta, "ee": None,
                         "pr_out_exact": None, "status": "invalid", "reason": str(exc)})
            continue
        co = build_link_coefficients(shifted)
        pout = exact_outage(shifted, co, "mdnc", schedule, powers)
        rows.append({"delta": delta, "relays": schedule.theta,
                     "ee": energy_efficiency(s, pout, e), "pr_out_exact": pout,
                     "status": "ok", "reason": ""})
    return rows


def cmd_relay_shift(args) -> int:
    s, coeffs = _load(args.scenario)
    if args.relays is not None:
        try:
            RelaySchedule.from_indices(args.relays, s.N)
        except ValueError as exc:
            print(f"invalid relays: {exc}", file=sys.stderr)
            return 2
    lines = [SHIFT_SCHEMA, SHIFT_HEADER]
    any_ok = False
    for target in args.targets:
        rows = relay_location_study(s, coeffs, target, args.deltas, subset=args.relays,
                                    include_user_energy=args.include_user_energy_in_budget)
        pairs = []
        for r in rows:
            lines.append(",".join([
                _fmt(r["delta"]), _fmt(target), _fmt_list(r["relays"]), _fmt(r["ee"]),
                _fmt(r["pr_out_exact"]), r["status"], r["reason"].replace(",", ";")]))
            if r["status"] == "ok":
                any_ok = True
                pairs.append((r["delta"], r["ee"]))
        if pairs:
            _write_plotdata(args.out, f"ee_vs_delta_target{target:g}", pairs)
    _write_lines(os.path.join(args.out, "relay_shift.csv"), lines)
    return 0 if any_ok else 3


def _explicit_point(s, args):
    """Schedule and powers from --relays, --user-powers and --relay-powers.

    Raises ValueError when a list is missing, has the wrong length, names a
    relay outside 0..N-1 or holds a power outside its cap.
    """
    if not (args.user_powers and args.relay_powers):
        raise ValueError("--relays needs --user-powers and --relay-powers")
    schedule = RelaySchedule.from_indices([int(j) for j in args.relays.split(",")], s.N)
    p = [float(v) for v in args.user_powers.split(",")]
    relay_p = [float(v) for v in args.relay_powers.split(",")]
    if len(p) != s.M:
        raise ValueError(f"{len(p)} user powers given for M = {s.M} users")
    if len(relay_p) != schedule.count:
        raise ValueError(f"{len(relay_p)} relay powers given for {schedule.count} selected relays")
    pr = np.zeros(s.N)
    pr[list(schedule.theta)] = relay_p
    powers = PowerAllocation(p=p, p_relay=pr)
    powers.check(s, schedule)
    return schedule, powers


def cmd_verify(args) -> int:
    s, coeffs = _load(args.scenario)
    if args.relays:
        try:
            schedule, powers = _explicit_point(s, args)
        except ValueError as exc:
            print(f"invalid point: {exc}", file=sys.stderr)
            return 2
    else:
        sol = dinkelbach_solve(s, coeffs, args.target, scheme=args.scheme,
                               include_user_energy=args.include_user_energy_in_budget)
        if not sol.feasible:
            print(json.dumps({"schema": VERIFY_SCHEMA, "status": "infeasible",
                              "reason": sol.reason}, indent=2))
            return 3
        schedule, powers = sol.schedule, sol.powers

    expected = np.atleast_1d(exact_outage(s, coeffs, args.scheme, schedule, powers))
    analytic = float(np.mean(expected))
    analytic_ee = energy_efficiency(s, expected, total_energy(s, schedule, powers, args.scheme),
                                    args.scheme)

    mc = monte_carlo_outage(s, coeffs, schedule, powers,
                            McConfig(samples=args.samples, seed=args.seed), scheme=args.scheme)
    emp = _scalar_outage(mc.outage)
    # One binomial z-test per indicator: the NoNC users share relay->BS
    # links, so their mean has no simple variance; test each user instead.
    # An analytic outage of exactly 0 or 1 admits only that outcome: any
    # other observed count is infinitely many sigmas away, which the report
    # writes as null.
    z_scores = []
    for p, observed in zip(expected, np.atleast_1d(mc.outage)):
        sigma = math.sqrt(p * (1.0 - p) / args.samples)
        gap = float(observed) - p
        if sigma > 0:
            z_scores.append(gap / sigma)
        else:
            z_scores.append(math.copysign(math.inf, gap) if gap else 0.0)
    z = max(z_scores, key=abs)
    # Bonferroni: the two-sided level of |z| <= 3 is split over the tests,
    # so one test (MDNC) passes exactly when |z| <= 3.
    passed = len(z_scores) * math.erfc(abs(z) / math.sqrt(2.0)) >= math.erfc(3.0 / math.sqrt(2.0))
    expected_events = [args.samples * float(p) for p in expected]
    report = {
        "schema": VERIFY_SCHEMA,
        "scheme": args.scheme,
        "relays": list(schedule.theta),
        "user_powers": powers.p.tolist(),
        "relay_powers": powers.p_relay.tolist(),
        "samples": args.samples,
        "seed": args.seed,
        "analytic": {"outage": analytic, "ee": analytic_ee},
        "empirical": {"outage": emp, "stderr": _scalar_outage(mc.stderr), "ee": mc.ee},
        "z_score": _finite_or_none(z),
        "pass": bool(passed),
        "expected_events": expected_events,
        "few_events": min(expected_events) < MIN_EXPECTED_EVENTS,
    }
    if args.scheme == "nonc":
        report["z_scores"] = [_finite_or_none(v) for v in z_scores]
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    if args.out:
        _write_lines(os.path.join(args.out, "verify.json"), [text])
    print(text)
    return 0 if passed else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdncee",
        description="Energy-efficiency optimization of network-coded relay networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("scenario", help="scenario file (key = value lines)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--include-user-energy-in-budget", action="store_true",
                       help="count user transmit energy against the E0 budget")
        p.add_argument("--jobs", type=_job_count, default=1,
                       help="parallel sweep workers (at most one per sweep point)")

    p = sub.add_parser("sweep", help="Pareto sweep: EE versus target outage")
    common(p)
    p.add_argument("--scheme", choices=["mdnc", "nonc", "both"], default="mdnc")
    p.add_argument("--mode", type=_parse_modes, default="goa",
                   help="comma list from goa,brute,mc (mc verifies the goa point)")
    p.add_argument("--targets", type=_parse_targets, default=list(DEFAULT_TARGETS),
                   help="comma list or logrange:start,stop,count")
    p.add_argument("--samples", type=_sample_count, default=1_000_000)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("energy-curve", help="transmit-energy share versus achieved outage")
    common(p)
    p.add_argument("--scheme", choices=["mdnc", "nonc"], default="mdnc")
    p.add_argument("--targets", type=_parse_targets, default=list(DEFAULT_TARGETS),
                   help="comma list or logrange:start,stop,count")
    p.set_defaults(func=cmd_energy_curve)

    p = sub.add_parser("relay-shift", help="EE versus relay displacement, fixed subset")
    common(p)
    p.add_argument("--deltas", type=_shift_list, required=True,
                   help="comma list of shifts in meters (use --deltas=-150,... for negatives)")
    p.add_argument("--targets", type=_target_list, default=[1e-3],
                   help="comma list of target outages (default 1e-3)")
    p.add_argument("--relays", type=_index_list,
                   help="comma list of relay indices (default: optimizer pick at delta 0)")
    p.set_defaults(func=cmd_relay_shift)

    p = sub.add_parser("verify", help="Monte Carlo check at one operating point")
    common(p)
    p.add_argument("--scheme", choices=["mdnc", "nonc"], default="mdnc")
    p.add_argument("--relays", help="comma list of relay indices")
    p.add_argument("--user-powers", help="comma list, W")
    p.add_argument("--relay-powers", help="comma list for the selected relays, W")
    p.add_argument("--target", type=_target, default=1e-3,
                   help="optimize at this target when no explicit point is given")
    p.add_argument("--samples", type=_sample_count, default=1_000_000)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
