"""The benchmark's three workloads: their inputs, operations and checks.

A workload is set up once per run and then yields rounds. A round is a
fixed list of operations (ops); every round of a workload holds the same
points, so per-op costs do not depend on how many rounds fit in the
measured time. The workload seed sets each round's op order; for
mc_verify it also draws the random N = 8 operating point and keys the
Monte Carlo streams. The solver workloads keep their inputs fixed:
relabelling the relays of the same network changed the work of one solve
up to fivefold, which would make runs with different seeds incomparable.

Every op calls one public entry point of the program and nothing else;
each op's check compares the result with the reference table or, for
Monte Carlo, with the analytic outage.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mdncee import optimizer, outage, simulate
from mdncee.energy import energy_budget_ok
from mdncee.model import ScenarioConfig, build_link_coefficients, load_scenario
from mdncee.outage import PowerAllocation, RelaySchedule

BENCH_DIR = Path(__file__).resolve().parent
PAPER_CFG = BENCH_DIR.parent / "scenarios" / "paper.cfg"
REFERENCE_PATH = BENCH_DIR / "reference.json"

SCHEMES = ("mdnc", "nonc")
EE_REL_TOL = 1e-6           # a warm start may move trailing digits, not the answer
GOA_VS_BRUTE_TOL = 1e-3     # GOA EE >= brute EE * (1 - tol)

# paper_sweep: GOA at four log-spaced targets, brute force at the paper's
# default target (NoNC brute force costs 5-14 s per point, so one target
# per scheme keeps a round near 20 s).
PAPER_TARGETS = (1e-2, 1e-3, 1e-4, 1e-5)
BRUTE_TARGETS = (1e-3,)

# scale_random: the first POOL_SIZE scenarios of a fixed seeded pool that
# are feasible for both schemes (M alternates 2, 3), N = 6, target 1e-3.
POOL_SEED = 1608
POOL_SIZE = 3
SCALE_N = 6
SCALE_TARGET = 1e-3

# mc_verify: paper.cfg GOA solutions with 2 and 3 relays (MDNC) and 1 and
# 2 relays (NoNC), on the quarter-decade target grid, plus one seeded
# random N = 8 all-relay MDNC point scaled into [OUT_LO, OUT_HI].
MC_PAPER_POINTS = (("mdnc", 10.0 ** -2.75), ("mdnc", 10.0 ** -3.25),
                   ("nonc", 1e-3), ("nonc", 10.0 ** -3.5))
MC_RANDOM_N = 8
OUT_LO, OUT_HI = 2e-3, 5e-3
MIN_EVENTS = 1000           # expected outage events per test (see README)
MIN_SAMPLES = 1 << 20
SAMPLE_QUANTUM = 1 << 17    # sample counts are whole multiples of this
FAMILY_ALPHA = 1e-6         # false-alarm probability of one Monte Carlo check


@dataclass
class Op:
    """One call into the program, with how to check and count its result."""

    key: str            # names the point; the reference table is keyed by it
    kind: str           # "goa", "brute" or "mc"
    span: str           # name of the entry point, used as the op's trace span
    call: object        # () -> result
    check: object       # result -> list of failure reasons (empty when correct)
    counters: object    # result -> dict of exact counters
    work: dict = dataclasses.field(default_factory=dict)   # sizes known before the call


def random_scenario(rng, M: int, N: int) -> ScenarioConfig:
    """Parameter ranges of the property tests' random small scenarios."""
    return ScenarioConfig(
        M=M, N=N,
        sigma_h=rng.uniform(0.5, 8.0, (M, N)), d_h=rng.uniform(200.0, 1200.0, (M, N)),
        n_h=rng.uniform(2.2, 3.2, (M, N)), N0_h=rng.uniform(0.01, 0.6, (M, N)) * 1e-14,
        sigma_g=rng.uniform(0.5, 8.0, N), d_g=rng.uniform(200.0, 1200.0, N),
        n_g=rng.uniform(2.2, 3.2, N), N0_g=rng.uniform(0.01, 0.6, N) * 1e-14,
        alpha0=300e3, B=125e3, T=125.0 / 300.0, beta=0.1,
        P_S_max=10.0, P_R_max=20.0, P0_R=56.0, P_sleep_R=39.0,
        P0_BS=130.0, P_sleep_BS=75.0, delta_P=2.6, E0=900.0, pr_out_target=1e-3,
    )


def pool_scenario(k: int) -> ScenarioConfig:
    return random_scenario(np.random.default_rng([POOL_SEED, k]), 2 + k % 2, SCALE_N)


def shuffled(ops: list, seed: int, r: int) -> list:
    """The round's ops in the order the workload seed gives round r."""
    return [ops[i] for i in np.random.default_rng([seed, r]).permutation(len(ops))]


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Solver ops


def solve(s, coeffs, target, scheme, method):
    if method == "brute":
        return simulate.brute_force_optimize(s, coeffs, target, scheme=scheme)
    if scheme == "nonc":
        return optimizer.nonc_solve(s, coeffs, target)
    return optimizer.dinkelbach_solve(s, coeffs, target, scheme="mdnc")


def solution_counters(sol) -> dict:
    """Exact counters from the Solution's public diagnostics."""
    d = sol.diagnostics
    inner = d.get("inner", [])
    counters = {
        "feasible": sol.feasible,
        "dinkelbach_iterations": d.get("dinkelbach_iterations"),
        "newton_total": d.get("newton_total"),
    }
    if "subsets_tried" in d:
        counters["subsets_tried"] = d["subsets_tried"]
    else:
        counters.update({
            "goa_states": d.get("goa_states"),
            "cuts_total": d.get("cuts_total"),
            "goa_iterations": sum(i.get("goa_iterations", 0) for i in inner),
            "visited": sum(len(i.get("visited", ())) for i in inner),
        })
    return counters


def check_solution(sol, s, target, ref, brute_ee=None) -> list[str]:
    """Compare with the reference point and the problem's constraints."""
    if not sol.feasible:
        return [f"infeasible ({sol.reason}) where the reference is feasible"]
    reasons = []
    schedule = list(sol.schedule.theta)
    if schedule != ref["schedule"]:
        reasons.append(f"schedule {schedule} != reference {ref['schedule']}")
    if abs(sol.ee - ref["ee"]) > EE_REL_TOL * abs(ref["ee"]):
        reasons.append(f"EE {sol.ee!r} differs from reference {ref['ee']!r} by more than "
                       f"{EE_REL_TOL:g} relative")
    if np.any(np.asarray(sol.pr_out_approx) > target):
        reasons.append(f"pr_out_approx {sol.pr_out_approx} above target {target:g}")
    if not energy_budget_ok(sol.energy, s.E0):
        reasons.append("energy budget violated")
    if brute_ee is not None and sol.ee < brute_ee * (1.0 - GOA_VS_BRUTE_TOL):
        reasons.append(f"GOA EE {sol.ee!r} below brute-force EE {brute_ee!r}")
    return reasons


def solver_op(key, s, coeffs, target, scheme, method, ref, brute_ee=None) -> Op:
    span = ("simulate.brute_force_optimize" if method == "brute"
            else "optimizer.nonc_solve" if scheme == "nonc" else "optimizer.dinkelbach_solve")
    return Op(key=key, kind=method, span=span,
              call=lambda: solve(s, coeffs, target, scheme, method),
              check=lambda sol: check_solution(sol, s, target, ref, brute_ee),
              counters=solution_counters)


def paper_key(method, scheme, target) -> str:
    return f"{method}/{scheme}/{target:.0e}"


def scale_key(scheme, k) -> str:
    return f"goa/{scheme}/s{k}"


class PaperSweep:
    """scenarios/paper.cfg: GOA and brute force across 1e-2..1e-5."""

    name = "paper_sweep"

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.ref = reference[self.name]
        self.scenario = load_scenario(PAPER_CFG)
        self.coeffs = build_link_coefficients(self.scenario)
        self.points = [("goa", scheme, t) for t in PAPER_TARGETS for scheme in SCHEMES]
        self.points += [("brute", scheme, t) for t in BRUTE_TARGETS for scheme in SCHEMES]

    def round_ops(self, r: int) -> list[Op]:
        ops = []
        for method, scheme, target in self.points:
            key = paper_key(method, scheme, target)
            brute_ee = self.ref[paper_key("brute", scheme, target)]["ee"] if method == "goa" else None
            ops.append(solver_op(key, self.scenario, self.coeffs, target, scheme, method,
                                 self.ref[key], brute_ee))
        return shuffled(ops, self.seed, r)


class ScaleRandom:
    """Seeded random N = 6 scenarios, M = 2 and 3, target 1e-3, GOA only."""

    name = "scale_random"

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.ref = reference[self.name]
        self.scenarios = {k: pool_scenario(k) for k in self.ref["pool"]}
        self.coeffs = {k: build_link_coefficients(s) for k, s in self.scenarios.items()}

    def round_ops(self, r: int) -> list[Op]:
        ops = [solver_op(scale_key(scheme, k), s, self.coeffs[k], SCALE_TARGET, scheme, "goa",
                         self.ref[scale_key(scheme, k)])
               for k, s in self.scenarios.items() for scheme in SCHEMES]
        return shuffled(ops, self.seed, r)


# ---------------------------------------------------------------------------
# Monte Carlo ops


def z_critical(alpha: float) -> float:
    """Two-sided standard-normal critical value: P(|Z| > z) = alpha."""
    lo, hi = 0.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.erfc(mid / math.sqrt(2.0)) > alpha:
            lo = mid
        else:
            hi = mid
    return hi


@dataclass
class McPoint:
    """A fixed operating point with its analytic outage per tested event."""

    label: str
    scheme: str
    s: ScenarioConfig
    coeffs: object
    schedule: RelaySchedule
    powers: PowerAllocation
    p_exact: np.ndarray     # [total] for MDNC, per user for NoNC
    samples: int

    @property
    def expected_events(self) -> list[float]:
        return (self.samples * self.p_exact).tolist()

    @property
    def values_per_sample(self) -> int:
        """Exponential draws per sample: M first-hop and one second-hop gain per relay."""
        return (self.s.M + 1) * self.schedule.count


def analytic_outage(s, coeffs, schedule, powers, scheme) -> np.ndarray:
    if scheme == "mdnc":
        return np.array([outage.outage_exact(s, coeffs, schedule, powers).total])
    return np.asarray(outage.nonc_outage(coeffs, schedule, powers), dtype=float)


def samples_for(p_exact: np.ndarray) -> int:
    """Enough samples for MIN_EVENTS expected events of the rarest tested
    indicator, rounded up to whole quanta."""
    need = max(MIN_SAMPLES, math.ceil(MIN_EVENTS / float(np.min(p_exact))))
    return SAMPLE_QUANTUM * math.ceil(need / SAMPLE_QUANTUM)


def mc_point(label, scheme, s, coeffs, schedule, powers) -> McPoint:
    p = analytic_outage(s, coeffs, schedule, powers, scheme)
    return McPoint(label, scheme, s, coeffs, schedule, powers, p, samples_for(p))


def scaled_all_relay_point(label, s, coeffs) -> McPoint | None:
    """All relays on, every power scaled by one factor 10^x chosen by
    bisection so the exact MDNC outage lies in [OUT_LO, OUT_HI]; None when
    full power already misses that band."""
    schedule = RelaySchedule(np.ones(s.N, dtype=int))

    def powers_at(x):
        scale = 10.0 ** x
        return PowerAllocation(p=np.full(s.M, s.P_S_max * scale),
                               p_relay=np.full(s.N, s.P_R_max * scale))

    def exact(x):
        return outage.outage_exact(s, coeffs, schedule, powers_at(x)).total

    lo, hi = -12.0, 0.0      # outage falls as x grows
    if exact(hi) > OUT_HI:
        return None
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        p = exact(mid)
        if p > OUT_HI:
            lo = mid
        elif p < OUT_LO:
            hi = mid
        else:
            return mc_point(label, "mdnc", s, coeffs, schedule, powers_at(mid))
    return None


def check_mc(point: McPoint, mc) -> list[str]:
    """Binomial z-test of each outage indicator against the analytic value.

    MDNC has one indicator per sample. NoNC is tested per user with a
    Bonferroni split of FAMILY_ALPHA: the users' indicators share the
    relay->BS links, so pooling them with p(1-p)/n would understate the
    variance.
    """
    n = point.samples
    counts = np.rint(np.atleast_1d(mc.outage) * n)
    z_crit = z_critical(FAMILY_ALPHA / len(point.p_exact))
    reasons = []
    for i, (k, p) in enumerate(zip(counts, point.p_exact)):
        z = (k - n * p) / math.sqrt(n * p * (1.0 - p))
        if abs(z) > z_crit:
            reasons.append(f"{point.label} indicator {i}: {int(k)} events vs {n * p:.1f} "
                           f"expected, |z| = {abs(z):.2f} > {z_crit:.2f}")
    return reasons


class McVerify:
    """Monte Carlo outage at fixed operating points built during setup."""

    name = "mc_verify"

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        s = load_scenario(PAPER_CFG)
        coeffs = build_link_coefficients(s)
        self.points: list[McPoint] = []
        for scheme, target in MC_PAPER_POINTS:
            sol = solve(s, coeffs, target, scheme, "goa")
            if not sol.feasible:
                raise RuntimeError(f"paper point {scheme} {target:g} infeasible: {sol.reason}")
            self.points.append(mc_point(f"paper/{scheme}/{target:.2e}", scheme, s, coeffs,
                                        sol.schedule, sol.powers))
        rng = np.random.default_rng([seed, MC_RANDOM_N])
        extra = None
        while extra is None:
            s8 = random_scenario(rng, 2, MC_RANDOM_N)
            extra = scaled_all_relay_point(f"random{MC_RANDOM_N}/mdnc", s8,
                                           build_link_coefficients(s8))
        self.points.append(extra)

    def round_ops(self, r: int) -> list[Op]:
        ops = []
        for i, pt in enumerate(self.points):
            cfg = simulate.McConfig(samples=pt.samples, seed=self.seed, stream=r * 64 + i)
            ops.append(Op(
                key=pt.label, kind="mc", span="simulate.monte_carlo_outage",
                call=lambda pt=pt, cfg=cfg: simulate.monte_carlo_outage(
                    pt.s, pt.coeffs, pt.schedule, pt.powers, cfg, scheme=pt.scheme),
                check=lambda mc, pt=pt: check_mc(pt, mc),
                counters=lambda mc, pt=pt: {
                    "events": np.rint(np.atleast_1d(mc.outage) * pt.samples).astype(int).tolist()},
                # bytes_drawn is computed from the draw shapes, not measured
                work={"samples": pt.samples,
                      "bytes_drawn": pt.samples * pt.values_per_sample * 8},
            ))
        return shuffled(ops, self.seed, r)

    def describe(self) -> list[dict]:
        return [{"label": p.label, "relays": list(p.schedule.theta), "samples": p.samples,
                 "p_exact": p.p_exact.tolist(), "expected_events": p.expected_events}
                for p in self.points]


WORKLOADS = {w.name: w for w in (PaperSweep, ScaleRandom, McVerify)}


# ---------------------------------------------------------------------------
# Reference table


def _reference_entry(sol) -> dict:
    if not sol.feasible:
        raise RuntimeError(f"reference point infeasible: {sol.reason}")
    return {"schedule": list(sol.schedule.theta), "ee": sol.ee}


def make_reference(log=print) -> dict:
    """Solve every reference point once, in the original labels.

    paper_sweep gets GOA and brute force at every target, so each GOA point
    can be checked against brute force. scale_random takes the first
    POOL_SIZE pool scenarios feasible for both schemes.
    """
    paper = {}
    s = load_scenario(PAPER_CFG)
    coeffs = build_link_coefficients(s)
    for target in PAPER_TARGETS:
        for scheme in SCHEMES:
            for method in ("goa", "brute"):
                key = paper_key(method, scheme, target)
                paper[key] = _reference_entry(solve(s, coeffs, target, scheme, method))
                log(f"{key}: {paper[key]}")
            goa, brute = (paper[paper_key(m, scheme, target)]["ee"] for m in ("goa", "brute"))
            if goa < brute * (1.0 - GOA_VS_BRUTE_TOL):
                raise RuntimeError(f"GOA below brute force at {scheme} {target:g}")
    scale = {"pool": []}
    k = 0
    while len(scale["pool"]) < POOL_SIZE:
        s = pool_scenario(k)
        coeffs = build_link_coefficients(s)
        sols = {scheme: solve(s, coeffs, SCALE_TARGET, scheme, "goa") for scheme in SCHEMES}
        if all(sol.feasible for sol in sols.values()):
            scale["pool"].append(k)
            for scheme, sol in sols.items():
                scale[scale_key(scheme, k)] = _reference_entry(sol)
                log(f"{scale_key(scheme, k)} (M={s.M}): {scale[scale_key(scheme, k)]}")
        k += 1
    return {"paper_sweep": paper, "scale_random": scale}
