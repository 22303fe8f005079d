"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Expensive artifacts (the Pareto sweeps, the brute-force
comparisons) are session fixtures shared across criteria.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from conftest import SCENARIO_PATH, random_coeffs
from oracles import (log_gradient, outage_approx_power, prob_varsigma_given_zeta, prob_zeta_K,
                     value_grad)
from test_outage import enumerate_outage, outage_exact_toy
from test_optimizer import grid_maximize_toy_ratio

from mdncee import cli
from mdncee.convex_solver import assemble_primal
from mdncee.optimizer import dinkelbach_fixed_schedule, dinkelbach_solve, nonc_solve
from mdncee.outage import PowerAllocation, RelaySchedule, outage_exact
from mdncee.simulate import McConfig, brute_force_optimize, monte_carlo_outage


def record(number, ok, detail=""):
    print(f"\nACCEPTANCE {number:>2}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {number} failed: {detail}"


SWEEP_TARGETS = np.geomspace(1e-2, 1e-6, 17)


@pytest.fixture(scope="session")
def sweep(paper_scenario, paper_coeffs):
    """Optimized MDNC and NoNC solutions over the sweep grid (tightening order)."""
    mdnc = [dinkelbach_solve(paper_scenario, paper_coeffs, float(t)) for t in SWEEP_TARGETS]
    nonc = [nonc_solve(paper_scenario, paper_coeffs, float(t)) for t in SWEEP_TARGETS]
    return mdnc, nonc


@pytest.fixture(scope="session")
def goa_vs_brute(paper_scenario, paper_coeffs):
    out = {}
    for target in (1e-2, 1e-3, 1e-4, 1e-5):
        out[target] = (dinkelbach_solve(paper_scenario, paper_coeffs, target),
                       brute_force_optimize(paper_scenario, paper_coeffs, target))
    return out


def test_criterion_01_probability_normalization():
    rng = np.random.default_rng(101)
    start = time.time()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        sched = RelaySchedule.from_indices(range(n), n)
        rho = rng.uniform(0, 1, n)
        pe = rng.uniform(0, 1, n)
        z = math.fsum(prob_zeta_K(sched, rho, K) for K in range(n + 1))
        v = math.fsum(prob_varsigma_given_zeta(tuple(range(n)), pe, tau) for tau in range(n + 1))
        worst = max(worst, abs(z - 1.0), abs(v - 1.0))
    elapsed = time.time() - start
    record(1, worst <= 1e-12 and elapsed < 1.0,
           f"worst normalization error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_exact_outage_equals_enumeration():
    rng = np.random.default_rng(202)
    start = time.time()
    worst = 0.0
    cases = 0
    for M in (1, 2):
        for n in range(1, 5):
            for _ in range(10):
                co = random_coeffs(rng, M, n, scale=10 ** rng.uniform(-4, 0))
                sched = RelaySchedule.from_indices(range(n), n)
                powers = PowerAllocation(p=rng.uniform(0.3, 4.0, M),
                                         p_relay=rng.uniform(0.3, 4.0, n))
                ours = outage_exact_toy(co, sched, powers).total
                brute = enumerate_outage(co.c_h, co.c_g, range(n), powers.p, powers.p_relay, M)
                worst = max(worst, abs(ours - brute))
                cases += 1
    elapsed = time.time() - start
    record(2, worst <= 1e-12 and elapsed < 10.0,
           f"{cases} instances, worst |diff| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_monte_carlo_agreement(paper_scenario, paper_coeffs):
    start = time.time()
    sched = RelaySchedule.from_indices(range(4), 4)
    powers = PowerAllocation(p=[10.0, 10.0], p_relay=np.full(4, 20.0))
    exact = outage_exact(paper_scenario, paper_coeffs, sched, powers).total
    sigma = math.sqrt(exact * (1 - exact) / 1_000_000)
    passes = 0
    for seed in range(20):
        res = monte_carlo_outage(paper_scenario, paper_coeffs, sched, powers,
                                 McConfig(1_000_000, seed=seed))
        if abs(res.outage - exact) <= 3 * sigma:
            passes += 1
    elapsed = time.time() - start
    record(3, passes >= 18 and elapsed < 120.0,
           f"{passes}/20 seeds within 3 sigma of {exact:.3e}, {elapsed:.1f}s")


def test_criterion_04_approximation_tightness(paper_scenario, paper_coeffs, sweep):
    start = time.time()
    mdnc, _ = sweep
    ratios = []
    for sol in mdnc:
        if sol.feasible and sol.pr_out_exact <= 1e-3:
            ratios.append(sol.pr_out_approx / sol.pr_out_exact)
    in_band = all(0.8 <= r <= 1.2 for r in ratios)

    base = next(s for s in mdnc if s.feasible and s.pr_out_exact <= 1e-3)
    seq = []
    for scale in (1.0, 3.0, 10.0, 30.0):
        powers = PowerAllocation(p=np.asarray(base.powers.p) * scale,
                                 p_relay=np.asarray(base.powers.p_relay) * scale)
        exact = outage_exact(paper_scenario, paper_coeffs, base.schedule, powers).total
        seq.append(outage_approx_power(paper_coeffs, base.schedule, powers) / exact)
    monotone = all(abs(b - 1.0) <= abs(a - 1.0) + 1e-12 for a, b in zip(seq, seq[1:]))
    elapsed = time.time() - start
    record(4, in_band and monotone and len(ratios) >= 4 and elapsed < 60.0,
           f"{len(ratios)} solutions, ratio range [{min(ratios):.4f}, {max(ratios):.4f}], "
           f"scaling ratios {['%.5f' % r for r in seq]}, {elapsed:.1f}s")


def _fd_hessian(grad_fn, x, h=1e-5):
    d = len(x)
    H = np.zeros((d, d))
    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        H[:, k] = (grad_fn(x + e) - grad_fn(x - e)) / (2 * h)
    return 0.5 * (H + H.T)


def test_criterion_05_convexity_certificates(paper_scenario, paper_coeffs):
    start = time.time()
    sched = RelaySchedule.from_indices([0, 1, 2], 4)
    pp = assemble_primal(paper_scenario, paper_coeffs, sched, target=1e-3)
    rng = np.random.default_rng(505)
    span = pp.hi - pp.lo
    min_eig = np.inf
    for _ in range(100):
        x = rng.uniform(pp.lo + 0.02 * span, pp.hi - 0.02 * span)
        h_tv = _fd_hessian(lambda z: log_gradient(pp.vprime(1300.0), z), x)
        h_out = _fd_hessian(lambda z: log_gradient(pp.outage_pos[0], z), x)
        min_eig = min(min_eig, np.linalg.eigvalsh(h_tv).min(), np.linalg.eigvalsh(h_out).min())
    elapsed = time.time() - start
    record(5, min_eig >= -1e-8 and elapsed < 60.0,
           f"min finite-difference Hessian eigenvalue {min_eig:.2e}, {elapsed:.1f}s")


def test_criterion_06_gradient_correctness(paper_scenario, paper_coeffs):
    start = time.time()
    sched = RelaySchedule.from_indices([0, 1, 2], 4)
    pp = assemble_primal(paper_scenario, paper_coeffs, sched, target=1e-3)
    vprime = pp.vprime(1300.0)
    rng = np.random.default_rng(606)
    span = pp.hi - pp.lo
    worst = 0.0
    h = 1e-6
    for _ in range(100):
        x = rng.uniform(pp.lo + 0.02 * span, pp.hi - 0.02 * span)
        gtv = log_gradient(vprime, x)
        gg = [value_grad(pos, x)[1] for pos in pp.outage_pos]
        fd_tv = np.zeros(pp.dim)
        fd_g = np.zeros(pp.dim)
        for k in range(pp.dim):
            e = np.zeros(pp.dim)
            e[k] = h
            fd_tv[k] = (vprime.logvalue(x + e) - vprime.logvalue(x - e)) / (2 * h)
            fd_g[k] = (pp.outage_pos[0].value(x + e) - pp.outage_pos[0].value(x - e)) / (2 * h)
        worst = max(worst,
                    np.linalg.norm(fd_tv - gtv) / np.linalg.norm(gtv),
                    np.linalg.norm(fd_g - gg[0]) / np.linalg.norm(gg[0]))
    elapsed = time.time() - start
    record(6, worst <= 1e-5 and elapsed < 30.0,
           f"worst relative gradient error {worst:.2e} over 100 points, {elapsed:.1f}s")


def test_criterion_07_dinkelbach_correctness(paper_scenario, paper_coeffs, toy_scenario,
                                             toy_coeffs, sweep, goa_vs_brute):
    start = time.time()
    tol = 1e-6 * paper_scenario.M * paper_scenario.alpha0
    runs = [s for s in sweep[0] + sweep[1] if s.feasible]
    runs += [pair[0] for pair in goa_vs_brute.values()]
    residual_ok = all(abs(s.diagnostics["v_history"][-1]) <= tol for s in runs)
    monotone_ok = all(
        all(b >= a for a, b in zip(s.diagnostics["q_history"], s.diagnostics["q_history"][1:]))
        for s in runs)

    sched = RelaySchedule.from_indices([0], 1)
    toy = dinkelbach_fixed_schedule(assemble_primal(toy_scenario, toy_coeffs, sched, 1e-3))
    best = grid_maximize_toy_ratio(toy_scenario, toy_coeffs, sched, 1e-3)
    grid_ok = abs(toy.q_star - best) <= 1e-4 * best
    elapsed = time.time() - start
    record(7, residual_ok and monotone_ok and grid_ok and elapsed < 60.0,
           f"{len(runs)} recorded runs, toy q* {toy.q_star:.4f} vs grid {best:.4f}, {elapsed:.1f}s")


def test_criterion_08_goa_equals_brute_force(goa_vs_brute):
    start = time.time()
    ok = True
    details = []
    for target, (goa, brute) in goa_vs_brute.items():
        rel = abs(goa.ee - brute.ee) / brute.ee
        details.append(f"{target:g}: {rel:.1e}")
        ok &= rel <= 1e-3
        for inner in goa.diagnostics["inner"]:
            ubd = inner["ubd_history"]
            lbd = inner["lbd_history"]
            ok &= all(b <= a + 1e-12 for a, b in zip(ubd, ubd[1:]))
            ok &= all(b >= a - 1e-12 for a, b in zip(lbd, lbd[1:]))
            visited = [tuple(v) for v in inner["visited"]]
            ok &= len(set(visited)) == len(visited)
    elapsed = time.time() - start
    record(8, ok and elapsed < 300.0,
           f"relative EE gaps {{{', '.join(details)}}}, traces monotone, no revisits, {elapsed:.1f}s")


def _jumps(solutions):
    """(index, drop, count_before, count_after) for consecutive feasible rows."""
    out = []
    for k in range(len(solutions) - 1):
        a, b = solutions[k], solutions[k + 1]
        if a.feasible and b.feasible:
            drop = (a.ee - b.ee) / a.ee
            out.append((k, drop, a.schedule.count, b.schedule.count))
    return out


def test_criterion_09_pareto_sweep_structure(sweep):
    start = time.time()
    mdnc, nonc = sweep
    feasible = [s for s in mdnc if s.feasible]
    nonincreasing = all(a.ee >= b.ee - 1e-9 * a.ee for a, b in zip(feasible, feasible[1:]))

    steps = _jumps(mdnc)
    big_drops = [s for s in steps if s[1] > 0.05]
    jumps_are_count_changes = all(s[3] > s[2] for s in big_drops)
    count_changes_are_jumps = all(s[1] > 0.05 for s in steps if s[3] > s[2])
    counts_seen = sorted({s.schedule.count for s in feasible})

    fewer = all(n.schedule.count <= m.schedule.count
                for m, n in zip(mdnc, nonc) if m.feasible and n.feasible)
    elapsed = time.time() - start
    record(9, nonincreasing and len(big_drops) >= 2 and jumps_are_count_changes
           and count_changes_are_jumps and counts_seen == [2, 3, 4] and fewer,
           f"counts {counts_seen}, {len(big_drops)} downward jumps at count increments, "
           f"NoNC never needs more relays, {elapsed:.1f}s")


def _bisect_transition(s, coeffs, t_hi, t_lo):
    """Shrink the (count k feasible) -> (count k') transition bracket.

    t_hi is the loosest target (count k optimal), t_lo the tighter one with
    more relays. Returns the refined bracket.
    """
    hi, lo = t_hi, t_lo
    count_hi = dinkelbach_solve(s, coeffs, hi).schedule.count
    for _ in range(10):
        if hi / lo < 1.02:
            break
        mid = math.sqrt(hi * lo)
        sol = dinkelbach_solve(s, coeffs, mid)
        if sol.feasible and sol.schedule.count == count_hi:
            hi = mid
        else:
            lo = mid
    return hi, lo


def test_criterion_10_energy_peaks_at_power_cap(paper_scenario, paper_coeffs, sweep):
    start = time.time()
    mdnc, _ = sweep
    steps = _jumps(mdnc)
    transitions = [s for s in steps if s[3] > s[2]]
    ok = len(transitions) >= 2
    details = []
    for k, _, c_before, c_after in transitions:
        t_hi, t_lo = float(SWEEP_TARGETS[k]), float(SWEEP_TARGETS[k + 1])
        hi, lo = _bisect_transition(paper_scenario, paper_coeffs, t_hi, t_lo)
        before = dinkelbach_solve(paper_scenario, paper_coeffs, hi)
        after = dinkelbach_solve(paper_scenario, paper_coeffs, lo)
        max_p = float(np.max(before.powers.p))
        saturated = max_p >= 0.99 * paper_scenario.P_S_max
        dropped = after.energy.e_data < before.energy.e_data
        ok &= saturated and dropped and (after.schedule.count > before.schedule.count)
        details.append(f"{c_before}->{c_after}: user power {max_p:.3f} W, "
                       f"E_data {before.energy.e_data:.2f} -> {after.energy.e_data:.2f} J")
    elapsed = time.time() - start
    record(10, ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_11_relay_location_optimum(paper_scenario, paper_coeffs):
    start = time.time()
    deltas = list(range(-150, 201, 25))
    rows = cli.relay_location_study(paper_scenario, paper_coeffs, 1e-3, deltas)
    assert all(r["status"] == "ok" for r in rows)
    assert rows[deltas.index(0)]["relays"] == (0, 1, 2)
    ees = np.array([r["ee"] for r in rows])
    k = int(np.argmax(ees))
    interior = 0 < k < len(deltas) - 1
    single_peak = (all(ees[i] < ees[i + 1] + 1e-15 for i in range(k)) and
                   all(ees[i] > ees[i + 1] - 1e-15 for i in range(k, len(ees) - 1)))
    near_fifty = abs(deltas[k] - 50) <= 25
    elapsed = time.time() - start
    record(11, interior and single_peak and near_fifty,
           f"EE peak at delta {deltas[k]} m (grid step 25), unimodal={single_peak}, {elapsed:.1f}s")


def test_criterion_12_mdnc_vs_nonc_ordering(paper_scenario, paper_coeffs, sweep):
    start = time.time()
    mdnc, nonc = sweep
    same_count_ok = True
    for m, n in zip(mdnc, nonc):
        if m.feasible and n.feasible and m.schedule.count == n.schedule.count:
            same_count_ok &= m.ee >= n.ee

    # the substantive same-relay-count comparison: best fixed-size subsets
    def best_k(k, target, scheme):
        best = None
        for subset in combinations(range(4), k):
            r = dinkelbach_fixed_schedule(assemble_primal(
                paper_scenario, paper_coeffs, RelaySchedule.from_indices(subset, 4),
                target, scheme=scheme))
            if r is not None and (best is None or r.ee > best.ee):
                best = r
        return best

    fixed_ok = True
    fixed_details = []
    for k, target in ((2, 3e-3), (3, 1e-3), (4, 1e-4)):
        m = best_k(k, target, "mdnc")
        n = best_k(k, target, "nonc")
        fixed_ok &= m is not None and n is not None and m.ee >= n.ee
        fixed_details.append(f"k={k}: {m.ee:.1f} vs {n.ee:.1f}")

    reversal = any(
        m.feasible and n.feasible and m.schedule.count >= n.schedule.count + 2 and n.ee > m.ee
        for m, n in zip(mdnc, nonc))
    elapsed = time.time() - start
    record(12, same_count_ok and fixed_ok and reversal,
           f"equal-count EE (MDNC vs NoNC): {'; '.join(fixed_details)}; "
           f"reversal with >=2 extra MDNC relays observed, {elapsed:.1f}s")


def test_criterion_13_determinism(tmp_path):
    start = time.time()
    argv = ["sweep", SCENARIO_PATH, "--scheme", "both", "--mode", "goa,mc",
            "--targets", "logrange:1e-2,5e-6,6", "--samples", "200000", "--seed", "7", "--out"]
    assert cli.main(argv + [str(tmp_path / "r1")]) == 0
    assert cli.main(argv + [str(tmp_path / "r2")]) == 0
    b1 = (tmp_path / "r1" / "sweep.csv").read_bytes()
    b2 = (tmp_path / "r2" / "sweep.csv").read_bytes()
    elapsed = time.time() - start
    record(13, b1 == b2 and elapsed < 600.0,
           f"two runs byte-identical ({len(b1)} bytes), {elapsed:.1f}s")
