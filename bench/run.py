#!/usr/bin/env python3
"""Benchmark of mdncee: one command, three workloads, correctness checked.

Run from the repository root:

    python3 bench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0

Workloads are paper_sweep, scale_random and mc_verify (see bench/README.md).
One process drives the library as a closed loop: the next call starts only
after the previous one returned. After set-up, the run measures whole
rounds (the same fixed set of points each round) and starts another round
only while it is expected to end within --seconds; there is always at least
one round. Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. The exit code is 0 when every check
passed, 1 when one failed and 2 when the run could not start.

With --trace 1, every op runs twice from the same state, untraced and then
traced; the per-layer metrics come from the traced calls and the tracing
overhead compares the two.

Every run writes a record under bench/results/ (machine, versions, seed,
sample counts, per-op times and counters; spans of a traced run).

    python3 bench/run.py --write-reference       # regenerate bench/reference.json
    python3 bench/run.py --compare-counters A B  # exact counters of two records agree
"""

import time

T_START = time.perf_counter()   # set-up time counts from here, imports included

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
# Set-up runs once here and again in fresh child interpreters: at least
# SETUP_MIN_RUNS times in all, more while set-up has taken under
# SETUP_BUDGET_S, never more than SETUP_MAX_RUNS.
SETUP_MIN_RUNS, SETUP_MAX_RUNS, SETUP_BUDGET_S = 3, 7, 3.0
MAX_MEASURE_S = 120.0       # start no round after this, whatever --seconds says
CHILD_TIMEOUT_S = 170.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


class StartError(Exception):
    """The benchmark cannot run here (program or inputs missing)."""


def import_program(need_reference: bool = True):
    """Import the workloads against the checkout's own src/ tree."""
    if not (SRC / "mdncee" / "__init__.py").is_file():
        raise StartError(f"no program source at {SRC / 'mdncee'}")
    sys.path.insert(0, str(SRC))
    import mdncee
    if Path(mdncee.__file__).resolve().parent != SRC / "mdncee":
        raise StartError(f"imported mdncee from {mdncee.__file__}, not from {SRC}")
    import workloads
    if not workloads.PAPER_CFG.is_file():
        raise StartError(f"missing scenario file {workloads.PAPER_CFG}")
    if need_reference and not workloads.REFERENCE_PATH.is_file():
        raise StartError(f"missing reference table {workloads.REFERENCE_PATH}")
    return workloads


def set_up(wl, name: str, seed: int):
    return wl.WORKLOADS[name](seed, wl.load_reference())


def child_setup_seconds(name: str, seed: int) -> float:
    """Set-up time of the same workload in a fresh interpreter."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise StartError(f"set-up child ran over {CHILD_TIMEOUT_S:.0f} s") from exc
    if proc.returncode != 0:
        raise StartError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# Tracing


def install_layer_wrappers(tracer) -> list[str]:
    """Rebind the names each layer looks up; returns the names not found."""
    from mdncee import convex_solver, optimizer, posynomial, simulate

    def primal_note(sol, args):
        return {"newton": sol.newton_iterations, "converged": bool(sol.converged)}

    def lp_note(res, args):
        return {"status": res.status, "rows": int(len(args[1]))}

    def terms_note(pos, args):
        return {"terms": sum(p.n_terms for p in pos) if isinstance(pos, list) else pos.n_terms}

    def bounds_note(b, args):
        return {"low": b.low, "up": b.up, "n": int(args[0].N)}

    table = [
        (optimizer, "goa_solve", "optimizer.goa_solve", None),
        (optimizer, "solve_master", "optimizer.solve_master", None),
        (optimizer, "solve_lp", "lp.solve_lp", lp_note),
        (optimizer, "relay_count_bounds", "optimizer.relay_count_bounds", bounds_note),
        (simulate, "relay_count_bounds", "optimizer.relay_count_bounds", bounds_note),
        (optimizer, "assemble_primal", "convex_solver.assemble_primal", None),
        (optimizer, "solve_primal", "convex_solver.solve_primal", primal_note),
        (optimizer, "outage_posynomial", "outage.outage_posynomial", terms_note),
        (optimizer, "nonc_outage_posynomials", "outage.outage_posynomial", terms_note),
        (convex_solver, "outage_posynomial", "outage.outage_posynomial", terms_note),
        (convex_solver, "nonc_outage_posynomials", "outage.outage_posynomial", terms_note),
        (optimizer, "outage_exact", "outage.outage_exact", None),
        (optimizer, "nonc_outage", "outage.outage_exact", None),
        (simulate, "dinkelbach_fixed_schedule", "simulate.dinkelbach_fixed_schedule", None),
        (optimizer, "total_energy", "energy", None),
        (optimizer, "nonc_energy", "energy", None),
        (simulate, "total_energy", "energy", None),
        (simulate, "nonc_energy", "energy", None),
    ]
    missing = [f"{owner.__name__}.{attr}" for owner, attr, name, note in table
               if not tracer.wrap(owner, attr, name, note)]
    for method in ("value", "grad", "hess", "logvalue", "loggrad", "loghess"):
        if not tracer.wrap_leaf(posynomial.Posynomial, method, "posynomial.eval"):
            missing.append(f"Posynomial.{method}")
    return missing


def layer_metrics(tracer, op_spans, n_rounds: int, overhead: float) -> dict:
    """Per-layer counts and seconds per traced round, plus ratios."""
    selfs = tracer.self_times()
    n = defaultdict(int)
    self_s = defaultdict(float)
    dur_s = defaultdict(float)
    infos = defaultdict(list)
    children = defaultdict(list)
    for (sid, parent, name, t0, t1, info), st in zip(tracer.spans, selfs):
        n[name] += 1
        self_s[name] += st
        dur_s[name] += t1 - t0
        infos[name].append(info)
        children[parent].append(sid)

    def ratio(a, b):
        return a / b if b else 0.0

    R = n_rounds
    primal = infos["convex_solver.solve_primal"]
    newton = sum(i["newton"] for i in primal)
    lps = infos["lp.solve_lp"]
    posy = infos["outage.outage_posynomial"]

    goa_ops = [(sid, info) for sid, info in op_spans if info and "goa_states" in info]
    visited = admissible = 0
    for sid, info in goa_ops:
        bounds = [tracer.spans[c][5] for c in children[sid]
                  if tracer.spans[c][2] == "optimizer.relay_count_bounds"]
        if bounds and bounds[0]["low"] is not None:
            b = bounds[0]
            per_state = sum(math.comb(b["n"], k) for k in range(b["low"], b["up"] + 1))
            visited += info["visited"]
            admissible += info["goa_states"] * per_state
    goa_infos = [info for _, info in goa_ops]
    mc_work = [info for _, info in op_spans if info and "samples" in info]
    opt_names = ("optimizer.dinkelbach_solve", "optimizer.nonc_solve", "optimizer.goa_solve")

    return {
        "convex_solver.calls": ("count", len(primal) / R),
        "convex_solver.self_s": ("s", self_s["convex_solver.solve_primal"] / R),
        "convex_solver.newton_steps": ("count", newton / R),
        "convex_solver.newton_per_call": ("count", ratio(newton, len(primal))),
        "convex_solver.unconverged": ("count", sum(not i["converged"] for i in primal) / R),
        "convex_solver.assemble_s": ("s", self_s["convex_solver.assemble_primal"] / R),
        "lp.calls": ("count", len(lps) / R),
        "lp.self_s": ("s", self_s["lp.solve_lp"] / R),
        "lp.infeasible_frac": ("ratio", ratio(sum(i["status"] != "optimal" for i in lps), len(lps))),
        "lp.rows_mean": ("count", ratio(sum(i["rows"] for i in lps), len(lps))),
        "optimizer.master_calls": ("count", n["optimizer.solve_master"] / R),
        "optimizer.master_self_s": ("s", self_s["optimizer.solve_master"] / R),
        "optimizer.lp_per_master": ("count", ratio(len(lps), n["optimizer.solve_master"])),
        "optimizer.goa_iters": ("count", sum(i["goa_iterations"] for i in goa_infos) / R),
        "optimizer.dinkelbach_iters": ("count",
                                       sum(i["dinkelbach_iterations"] for i in goa_infos) / R),
        "optimizer.cuts": ("count", sum(i["cuts_total"] for i in goa_infos) / R),
        "optimizer.count_bounds_s": ("s", dur_s["optimizer.relay_count_bounds"] / R),
        "optimizer.visited_frac": ("ratio", ratio(visited, admissible)),
        "optimizer.self_s": ("s", sum(self_s[k] for k in opt_names) / R),
        "outage.posynomial_calls": ("count", len(posy) / R),
        "outage.posynomial_s": ("s", self_s["outage.outage_posynomial"] / R),
        "outage.posynomial_terms": ("count", ratio(sum(i["terms"] for i in posy), len(posy))),
        "outage.exact_calls": ("count", n["outage.outage_exact"] / R),
        "outage.exact_s": ("s", self_s["outage.outage_exact"] / R),
        "posynomial.evals": ("count", tracer.leaf.get("posynomial.eval", [0, 0.0])[0] / R),
        "posynomial.self_s": ("s", tracer.leaf.get("posynomial.eval", [0, 0.0])[1] / R),
        "simulate.samples": ("count", sum(i["samples"] for i in mc_work) / R),
        "simulate.self_s": ("s", self_s["simulate.monte_carlo_outage"] / R),
        "simulate.bytes_drawn": ("bytes", sum(i["bytes_drawn"] for i in mc_work) / R),
        "simulate.brute_subsets": ("count", n["simulate.dinkelbach_fixed_schedule"] / R),
        "simulate.brute_self_s": ("s", (self_s["simulate.brute_force_optimize"]
                                        + self_s["simulate.dinkelbach_fixed_schedule"]) / R),
        "energy.calls": ("count", n["energy"] / R),
        "energy.self_s": ("s", self_s["energy"] / R),
        "trace.overhead_frac": ("ratio", overhead),
    }


# ---------------------------------------------------------------------------
# Measurement


def run_op(op, r: int, tracer=None) -> dict:
    """Call one op, time it, check it; a raising call is a failed op."""
    rec = {"key": op.key, "kind": op.kind, "round": r, "traced": tracer is not None}
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = op.call()
        else:
            result = tracer.call(op.span, op.call,
                                 note=lambda res, args: {**op.counters(res), **op.work})
    except Exception as exc:     # one bad point must not abort the run
        rec["seconds"] = time.perf_counter() - t0
        rec["failures"] = [f"raised {type(exc).__name__}: {exc}"]
        return rec
    rec["seconds"] = time.perf_counter() - t0
    try:
        rec["counters"] = op.counters(result)
        rec["failures"] = op.check(result)
    except Exception as exc:
        rec["failures"] = [f"check raised {type(exc).__name__}: {exc}"]
    rec.update(op.work)
    return rec


def program_memo() -> dict | None:
    """The program's posynomial memo, if it still has one."""
    from mdncee import outage
    memo = getattr(outage, "_POSY_CACHE", None)
    return memo if isinstance(memo, dict) else None


def run_pair(op, r: int, tracer, op_spans: list, missing: set) -> list[dict]:
    """Run the op untraced, then traced from the same memo state.

    Pairing each op with itself keeps both timings close in time, so the
    tracing overhead is not swamped by the machine's slow phases. The two
    calls must give identical exact counters.
    """
    memo = program_memo()
    before = dict(memo) if memo is not None else None
    plain = run_op(op, r)
    if memo is not None:
        memo.clear()
        memo.update(before)
    missing.update(install_layer_wrappers(tracer))
    first = len(tracer.spans)
    try:
        traced = run_op(op, r, tracer)
    finally:
        tracer.uninstall()
    op_spans.append((first, tracer.spans[first][5]))
    if plain.get("counters") != traced.get("counters"):
        traced["failures"] = traced["failures"] + [
            f"exact counters differ: {plain.get('counters')} untraced vs "
            f"{traced.get('counters')} traced"]
    return [plain, traced]


def measure(workload, seconds: float, tracer=None):
    """Whole rounds while the next one should end within `seconds`.

    Every round starts from an empty memo, as cold as a fresh interpreter
    (a CLI run) is. With a tracer, every op runs as a pair (run_pair).
    Returns (op records, rounds, op spans, names the tracer did not find).
    """
    records, op_spans, missing = [], [], set()
    begin = time.perf_counter()
    r = 0
    while True:
        memo = program_memo()
        if memo is not None:
            memo.clear()
        t0 = time.perf_counter()
        for op in workload.round_ops(r):
            if tracer is None:
                records.append(run_op(op, r))
            else:
                records += run_pair(op, r, tracer, op_spans, missing)
        wall = time.perf_counter() - t0
        r += 1
        elapsed = time.perf_counter() - begin
        if elapsed + wall > seconds or elapsed > MAX_MEASURE_S:
            return records, r, op_spans, sorted(missing)


def end_to_end(records, setup_times) -> dict:
    times = [rec["seconds"] for rec in records]
    ok = sum(1 for rec in records if not rec["failures"])
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ok / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def named_extras(records) -> dict:
    """Median op time and the per-kind figures: GOA and brute-force solves,
    Monte Carlo samples."""
    out = {"op_s_p50": ("s", statistics.median(rec["seconds"] for rec in records)),
           "ops": ("count", len(records))}
    for kind in ("goa", "brute"):
        recs = [rec for rec in records if rec["kind"] == kind]
        if recs:
            times = [rec["seconds"] for rec in recs]
            ok = sum(1 for rec in recs if not rec["failures"])
            out[f"{kind}_solves_per_s"] = ("1/s", ok / sum(times))
            out[f"{kind}_solve_s_p50"] = ("s", statistics.median(times))
            out[f"{kind}_solves_samples"] = ("count", len(recs))
    mc = [rec for rec in records if rec["kind"] == "mc"]
    if mc:
        ok_samples = sum(rec["samples"] for rec in mc if not rec["failures"])
        out["mc_samples_per_s"] = ("1/s", ok_samples / sum(rec["seconds"] for rec in mc))
        out["mc_calls"] = ("count", len(mc))
    failed = sum(1 for rec in records if rec["failures"])
    out["failed_frac"] = ("ratio", failed / len(records))
    return out


def machine_info() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version,
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def write_record(record: dict, stem: str) -> Path:
    path = RESULTS_DIR / f"{stem}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    return path


def bench(args) -> int:
    wl = import_program()
    workload = set_up(wl, args.workload, args.seed)
    setup_times = [time.perf_counter() - T_START]
    while len(setup_times) < SETUP_MAX_RUNS and (
            len(setup_times) < SETUP_MIN_RUNS or sum(setup_times) < SETUP_BUDGET_S):
        setup_times.append(child_setup_seconds(args.workload, args.seed))

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    records, rounds, op_spans, missing = measure(workload, args.seconds, tracer)

    failed = [rec for rec in records if rec["failures"]]
    untraced = [rec for rec in records if not rec["traced"]]
    e2e = end_to_end(untraced, setup_times)
    extras = named_extras(untraced)
    result = {"correct": not failed, "attempted": len(records), "failed": len(failed)}
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    RESULTS_DIR.mkdir(exist_ok=True)
    if tracer is None:
        metrics = {k: (END_TO_END_UNITS[k], v) for k, v in e2e.items()}
    else:
        overhead = (sum(rec["seconds"] for rec in records if rec["traced"])
                    / sum(rec["seconds"] for rec in untraced) - 1.0)
        metrics = layer_metrics(tracer, op_spans, rounds, overhead)
        tracer.write(RESULTS_DIR / f"{stem}.spans.jsonl")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_info(),
        "setup_times_s": setup_times,
        "rounds": rounds, "names_not_traced": missing,
        "end_to_end": e2e, "by_kind": {k: v for k, (u, v) in extras.items()},
        "result": result, "ops": records,
    }
    if hasattr(workload, "describe"):
        record["points"] = workload.describe()
    path = write_record(record, stem)

    for rec in failed:
        print(f"FAILED {rec['key']} (round {rec['round']}): {'; '.join(rec['failures'])}")
    if missing:
        print(f"names not found, not traced: {', '.join(missing)}")
    print(f"workload {args.workload}, seed {args.seed}: {rounds} round(s), "
          f"{len(records)} ops, record {path.relative_to(ROOT)}")
    for k, v in e2e.items():
        print(f"{k}: {v:.6g} {END_TO_END_UNITS[k]}")
    for k, (u, v) in extras.items():
        print(f"{k}: {v:.6g} {u}")
    if tracer is not None:
        for k, (u, v) in metrics.items():
            print(f"{k}: {v:.6g} {u}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def compare_counters(path_a, path_b) -> int:
    """Exact counters of ops present in both records must be identical."""
    recs = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        recs.append({(op["round"], op["key"]): op.get("counters") for op in rec["ops"]})
    common = sorted(set(recs[0]) & set(recs[1]))
    diffs = [k for k in common if recs[0][k] != recs[1][k]]
    for k in diffs:
        print(f"counters differ at round {k[0]} {k[1]}: {recs[0][k]} vs {recs[1][k]}")
    print(f"{len(common)} common ops, {len(diffs)} with different counters")
    return 1 if diffs or not common else 0


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception, so a running set-up child is killed
    # and waited for before the benchmark exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=("paper_sweep", "scale_random", "mc_verify"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--write-reference", action="store_true")
    p.add_argument("--compare-counters", nargs=2, metavar="RECORD")
    args = p.parse_args(argv)
    try:
        if args.compare_counters:
            return compare_counters(*args.compare_counters)
        if args.write_reference:
            wl = import_program(need_reference=False)
            ref = wl.make_reference()
            with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as fh:
                json.dump(ref, fh, indent=1)
                fh.write("\n")
            return 0
        if not args.workload:
            p.error("--workload is required")
        if args.setup_only:
            set_up(import_program(), args.workload, args.seed)
            print(json.dumps({"setup_s": time.perf_counter() - T_START}))
            return 0
        return bench(args)
    except (StartError, ImportError, OSError) as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
