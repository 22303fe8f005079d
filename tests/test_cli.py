import dataclasses
import json
import os

import numpy as np
import pytest

from conftest import SCENARIO_PATH
from mdncee import cli
from mdncee.optimizer import Solution
from mdncee.simulate import MAX_SAMPLES, McResult


def run_cli(argv):
    return cli.main(argv)


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def strict_json(text):
    """Parse JSON as RFC 8259 does: no NaN, Infinity or -Infinity."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def parse_sweep(text):
    lines = text.strip().split("\n")
    assert lines[0] == cli.SWEEP_SCHEMA
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


def test_sweep_runs_and_is_byte_stable(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    argv = ["sweep", SCENARIO_PATH, "--scheme", "both", "--targets", "1e-2,1e-3", "--out"]
    assert run_cli(argv + [str(out1)]) == 0
    assert run_cli(argv + [str(out2)]) == 0
    assert read(out1 / "sweep.csv") == read(out2 / "sweep.csv")
    rows = parse_sweep(read(out1 / "sweep.csv"))
    assert len(rows) == 4
    assert (out1 / "plotdata" / "ee_vs_target_mdnc_goa.dat").exists()


def test_sweep_rows_are_self_consistent(paper_scenario, tmp_path):
    out = tmp_path / "o"
    assert run_cli(["sweep", SCENARIO_PATH, "--scheme", "both",
                    "--targets", "1e-2,1e-3", "--out", str(out)]) == 0
    s = paper_scenario
    for row in parse_sweep(read(out / "sweep.csv")):
        assert row["status"] == "ok"
        ee = float(row["ee"])
        pr = float(row["pr_out_exact"])
        e_tot = float(row["e_tot"])
        recomputed = s.M * s.alpha0 * s.T * (1.0 - pr) / e_tot
        assert ee == pytest.approx(recomputed, rel=1e-9)
        assert float(row["pr_out_approx"]) <= float(row["target"]) * (1 + 1e-6)


def test_sweep_brute_and_goa_agree(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["sweep", SCENARIO_PATH, "--mode", "goa,brute",
                    "--targets", "1e-3", "--out", str(out)]) == 0
    rows = parse_sweep(read(out / "sweep.csv"))
    by_mode = {r["mode"]: r for r in rows}
    assert by_mode["goa"]["relays"] == by_mode["brute"]["relays"]
    assert float(by_mode["goa"]["ee"]) == pytest.approx(float(by_mode["brute"]["ee"]), rel=1e-3)


def test_invalid_scenario_exits_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    base = read(SCENARIO_PATH)
    bad.write_text(base.replace("beta = 0.1", "beta = 1.5"))
    assert run_cli(["sweep", str(bad), "--targets", "1e-3", "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("line, malformed", [
    ("N = 4", "N = 4.5"),
    ("P_S_max = 10.0", 'P_S_max = "ten"'),
    ("sigma_g = [5.0213, 4.6821, 3.4823, 0.8667]", 'sigma_g = "abc"'),
], ids=["N", "P_S_max", "sigma_g"])
@pytest.mark.parametrize("command", ["sweep", "verify"])
def test_malformed_scenario_value_exits_2_naming_the_field(tmp_path, capsys, line, malformed,
                                                           command):
    # int() once loaded N = 4.5 as N = 4, and a string where a number
    # belongs escaped as a bare ValueError with exit code 1
    from mdncee.model import ScenarioError, load_scenario

    field = line.split(" = ")[0]
    lines = read(SCENARIO_PATH).split("\n")
    bad = tmp_path / "bad.cfg"
    bad.write_text("\n".join(malformed if x.split("#")[0].strip() == line else x for x in lines))
    with pytest.raises(ScenarioError, match=f"for '{field}'"):
        load_scenario(bad)
    assert run_cli([command, str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario error:") and f"for '{field}'" in err


@pytest.mark.parametrize("command", ["sweep", "verify"])
def test_zero_alpha0_without_slot_exits_2_naming_alpha0(tmp_path, capsys, command):
    # with X_bits and no T, the default slot T = X_bits/alpha0 once divided
    # by zero: a bare ZeroDivisionError with exit code 1
    from mdncee.model import ScenarioError, load_scenario

    text = read(SCENARIO_PATH)
    assert "alpha0 = 300e3" in text and "\nT = " not in text
    bad = tmp_path / "bad.cfg"
    bad.write_text(text.replace("alpha0 = 300e3", "alpha0 = 0"))
    with pytest.raises(ScenarioError, match="for 'alpha0'"):
        load_scenario(bad)
    assert run_cli([command, str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario error:") and "for 'alpha0'" in err


def test_all_targets_infeasible_exits_3(tmp_path):
    assert run_cli(["sweep", SCENARIO_PATH, "--targets", "1e-12",
                    "--out", str(tmp_path / "o")]) == 3


def test_infeasible_target_keeps_reason_and_run_continues(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["sweep", SCENARIO_PATH, "--targets", "1e-3,1e-12", "--out", str(out)]) == 0
    rows = parse_sweep(read(out / "sweep.csv"))
    status = {r["target"]: r["status"] for r in rows}
    assert status["0.001"] == "ok"
    assert status["1e-12"] == "infeasible"
    bad = [r for r in rows if r["status"] == "infeasible"][0]
    assert bad["reason"] != ""


def test_mc_mode_populates_empirical_columns(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["sweep", SCENARIO_PATH, "--mode", "mc", "--targets", "1e-3",
                    "--samples", "200000", "--seed", "4", "--out", str(out)]) == 0
    row = parse_sweep(read(out / "sweep.csv"))[0]
    assert row["pr_out_mc"] != "" and row["mc_stderr"] != ""


def test_energy_curve_output(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["energy-curve", SCENARIO_PATH, "--targets", "3e-3,1e-3",
                    "--out", str(out)]) == 0
    text = read(out / "energy_curve.csv")
    assert text.startswith(cli.ENERGY_SCHEMA)
    assert (out / "plotdata" / "edata_vs_outage_mdnc.dat").exists()


def test_relay_shift_identity_row(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["relay-shift", SCENARIO_PATH, "--deltas=-25,0,25",
                    "--targets", "1e-3", "--out", str(out)]) == 0
    lines = read(out / "relay_shift.csv").strip().split("\n")
    assert lines[0] == cli.SHIFT_SCHEMA
    rows = [dict(zip(lines[1].split(","), ln.split(","))) for ln in lines[2:]]
    zero = [r for r in rows if float(r["delta"]) == 0.0][0]
    assert zero["status"] == "ok"
    # delta = 0 reproduces the unshifted optimum
    from mdncee.model import build_link_coefficients, load_scenario
    from mdncee.optimizer import dinkelbach_solve
    s = load_scenario(SCENARIO_PATH)
    base = dinkelbach_solve(s, build_link_coefficients(s), 1e-3)
    assert float(zero["ee"]) == pytest.approx(base.ee, rel=1e-9)


def test_relay_shift_invalid_delta_row(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["relay-shift", SCENARIO_PATH, "--deltas=-1000,0",
                    "--targets", "1e-3", "--out", str(out)]) == 0
    text = read(out / "relay_shift.csv")
    assert "invalid" in text


def test_relay_shift_circuit_energy_over_budget_exits_3(tmp_path):
    # at E0 = 450 J the four relays' circuit energy alone (564 J) overspends
    cfg = tmp_path / "e450.cfg"
    cfg.write_text(read(SCENARIO_PATH).replace("E0 = 900.0", "E0 = 450.0"))
    assert "E0 = 450.0" in read(cfg)
    out = tmp_path / "o"
    assert run_cli(["relay-shift", str(cfg), "--relays", "0,1,2,3", "--deltas=0",
                    "--out", str(out)]) == 3
    lines = read(out / "relay_shift.csv").strip().split("\n")
    rows = [dict(zip(lines[1].split(","), ln.split(","))) for ln in lines[2:]]
    assert len(rows) == 1 and rows[0]["status"] == "infeasible"


def test_relay_shift_rejects_relay_index_outside_n(tmp_path, capsys):
    code = run_cli(["relay-shift", SCENARIO_PATH, "--deltas=0", "--relays", "0,9",
                    "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == "invalid relays: relay index 9 outside 0..3\n"
    assert not (tmp_path / "o").exists()


def test_verify_passes_at_optimizer_point(tmp_path, capsys):
    out = tmp_path / "o"
    code = run_cli(["verify", SCENARIO_PATH, "--target", "1e-3",
                    "--samples", "300000", "--seed", "1", "--out", str(out)])
    assert code == 0
    report = json.loads(read(out / "verify.json"))
    assert report["pass"] is True
    assert abs(report["z_score"]) <= 3.0


def test_verify_explicit_point_deterministic(tmp_path, capsys):
    argv = ["verify", SCENARIO_PATH, "--relays", "0,1,2,3",
            "--user-powers", "0.7,0.7", "--relay-powers", "1.5,1.5,1.5,1.5",
            "--samples", "200000", "--seed", "3", "--out", str(tmp_path)]
    assert run_cli(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert run_cli(argv) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second


def test_verify_failure_exit_code(tmp_path, monkeypatch, capsys):
    # force a 5-sigma discrepancy through the simulation hook: the exit-code
    # plumbing must translate a failed 3-sigma band into code 4
    def shifted(s, coeffs, schedule, powers, mc, scheme="mdnc"):
        from mdncee.outage import outage_exact
        exact = outage_exact(s, coeffs, schedule, powers).total
        sigma = np.sqrt(exact * (1 - exact) / mc.samples)
        return McResult(outage=exact + 5 * sigma, stderr=sigma, ee=0.0,
                        samples=mc.samples, scheme=scheme)

    monkeypatch.setattr(cli, "monte_carlo_outage", shifted)
    code = run_cli(["verify", SCENARIO_PATH, "--relays", "0,1,2,3",
                    "--user-powers", "0.7,0.7", "--relay-powers", "1.5,1.5,1.5,1.5",
                    "--samples", "100000", "--seed", "3", "--out", str(tmp_path)])
    assert code == 4


def test_verify_fails_a_certain_analytic_value_that_the_simulation_contradicts(
        tmp_path, monkeypatch):
    # an analytic outage of exactly 0 has no binomial spread: the thousands
    # of outages simulated at this point must fail it, not pass with z = 0
    monkeypatch.setattr(cli, "exact_outage", lambda *args: 0.0)
    code = run_cli(["verify", SCENARIO_PATH, "--relays", "0,1,2,3",
                    "--user-powers", "0.05,0.05", "--relay-powers", "0.1,0.1,0.1,0.1",
                    "--samples", "100000", "--seed", "3", "--out", str(tmp_path)])
    report = strict_json(read(tmp_path / "verify.json"))
    assert code == 4
    assert report["pass"] is False
    assert report["empirical"]["outage"] > 0.01 and report["z_score"] is None


def test_verify_writes_unbounded_user_z_scores_as_null(tmp_path, monkeypatch):
    # NoNC lists one z-score per user; each unbounded one is null too
    monkeypatch.setattr(cli, "exact_outage", lambda *args: np.zeros(2))
    code = run_cli(["verify", SCENARIO_PATH, "--scheme", "nonc", "--relays", "0,1,2,3",
                    "--user-powers", "0.05,0.05", "--relay-powers", "0.1,0.1,0.1,0.1",
                    "--samples", "100000", "--seed", "3", "--out", str(tmp_path)])
    report = strict_json(read(tmp_path / "verify.json"))
    assert code == 4
    assert report["z_score"] is None and report["z_scores"] == [None, None]


def test_verify_passes_a_certain_outage_that_the_simulation_confirms(tmp_path):
    # zero relay power: outage is 1 on both sides, with no spread to test
    code = run_cli(["verify", SCENARIO_PATH, "--relays", "0,1",
                    "--user-powers", "0.7,0.7", "--relay-powers", "0,0",
                    "--samples", "1000", "--out", str(tmp_path)])
    report = json.loads(read(tmp_path / "verify.json"))
    assert code == 0
    assert report["analytic"]["outage"] == report["empirical"]["outage"] == 1.0
    assert report["z_score"] == 0.0


def test_verify_passes_budget_switch_to_solver(monkeypatch, tmp_path):
    seen = {}

    def solver(s, coeffs, target, scheme="mdnc", include_user_energy=False):
        seen["include_user_energy"] = include_user_energy
        return Solution(feasible=False, scheme=scheme, target=target, reason="stub")

    monkeypatch.setattr(cli, "dinkelbach_solve", solver)
    code = run_cli(["verify", SCENARIO_PATH, "--target", "1e-3",
                    "--include-user-energy-in-budget", "--out", str(tmp_path)])
    assert code == 3
    assert seen == {"include_user_energy": True}


def test_failed_solve_becomes_row_and_sweep_continues(monkeypatch, tmp_path):
    real = cli.dinkelbach_solve

    def solver(s, coeffs, target, scheme="mdnc", include_user_energy=False):
        if target < 5e-3:
            raise RuntimeError("parametric q-iteration did not converge in 60 rounds")
        return real(s, coeffs, target, scheme=scheme, include_user_energy=include_user_energy)

    monkeypatch.setattr(cli, "dinkelbach_solve", solver)
    out = tmp_path / "o"
    assert run_cli(["sweep", SCENARIO_PATH, "--targets", "1e-2,1e-3", "--out", str(out)]) == 0
    rows = {r["target"]: r for r in parse_sweep(read(out / "sweep.csv"))}
    assert rows["0.01"]["status"] == "ok"
    assert rows["0.001"]["status"] == "failed"
    assert rows["0.001"]["reason"] == "parametric q-iteration did not converge in 60 rounds"


def test_brute_force_guard_becomes_a_failed_row(paper_scenario, tmp_path):
    # brute force refuses N > 12 with a ValueError: the sweep writes a
    # failed row quoting it instead of dying without a sweep.csv
    from mdncee.model import dump_scenario

    cols = [j % paper_scenario.N for j in range(13)]
    big = dataclasses.replace(
        paper_scenario, N=13,
        **{name: getattr(paper_scenario, name)[:, cols] for name in ("sigma_h", "d_h", "n_h", "N0_h")},
        **{name: getattr(paper_scenario, name)[cols] for name in ("sigma_g", "d_g", "n_g", "N0_g")})
    path = tmp_path / "n13.cfg"
    dump_scenario(big, path)
    out = tmp_path / "o"
    code = run_cli(["sweep", str(path), "--mode", "brute", "--targets", "1e-3", "--out", str(out)])
    rows = parse_sweep(read(out / "sweep.csv"))
    assert code == 3
    assert [(r["mode"], r["status"]) for r in rows] == [("brute", "failed")]
    assert rows[0]["reason"] == "brute force enumerates subsets; N = 13 exceeds 12"


@pytest.mark.parametrize("point", [
    ["--relays", "0,1"],                                                    # no powers
    ["--relays", "0,1", "--user-powers", "0.7,0.7", "--relay-powers", "1.5"],
    ["--relays", "0,1", "--user-powers", "0.7", "--relay-powers", "1.5,1.5"],
    ["--relays", "0,4", "--user-powers", "0.7,0.7", "--relay-powers", "1.5,1.5"],
    ["--relays", "0,1", "--user-powers", "0.7,70", "--relay-powers", "1.5,1.5"],
    ["--relays", "0,1", "--user-powers", "0.7,0.7", "--relay-powers", "1.5,-1"],
])
def test_verify_rejects_invalid_point(point, tmp_path, capsys):
    code = run_cli(["verify", SCENARIO_PATH, *point, "--samples", "1000", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("invalid point: ") and err.count("\n") == 1
    assert not (tmp_path / "verify.json").exists()


NONC_POINT = ["--scheme", "nonc", "--relays", "0", "--user-powers", "0.7,0.7",
              "--relay-powers", "1.5"]


def test_verify_nonc_reports_each_user(tmp_path):
    assert run_cli(["verify", SCENARIO_PATH, *NONC_POINT, "--samples", "200000",
                    "--seed", "2", "--out", str(tmp_path)]) == 0
    report = json.loads(read(tmp_path / "verify.json"))
    assert len(report["z_scores"]) == 2
    assert report["z_score"] == max(report["z_scores"], key=abs)


def test_verify_flags_few_expected_events_at_rare_target(tmp_path):
    # about 10 outage events expected: the z-test still runs, but is flagged
    out = tmp_path / "o"
    code = run_cli(["verify", SCENARIO_PATH, "--target", "1e-4", "--samples", "100000",
                    "--seed", "1", "--out", str(out)])
    report = json.loads(read(out / "verify.json"))
    assert code == (0 if report["pass"] else 4)
    assert report["expected_events"] == [pytest.approx(1e5 * report["analytic"]["outage"],
                                                       rel=1e-12)]
    assert report["expected_events"][0] < cli.MIN_EXPECTED_EVENTS
    assert report["few_events"] is True


@pytest.mark.parametrize("samples,flagged", [(200_000, True), (300_000, False)])
def test_verify_few_events_follows_the_rarest_user(samples, flagged, tmp_path):
    # user 0 expects about 876 events per 200,000 samples, user 1 about 1052
    assert run_cli(["verify", SCENARIO_PATH, *NONC_POINT, "--samples", str(samples),
                    "--seed", "2", "--out", str(tmp_path)]) == 0
    report = json.loads(read(tmp_path / "verify.json"))
    events = report["expected_events"]
    assert len(events) == 2 and events[0] < events[1]
    assert (events[1] >= cli.MIN_EXPECTED_EVENTS) and report["few_events"] is flagged


def test_verify_nonc_fails_on_one_user_with_mean_unchanged(tmp_path, monkeypatch):
    # user 0 far above its analytic outage, user 1 as far below: the mean
    # over users is right, so only a per-user test can catch it
    def opposite(s, coeffs, schedule, powers, mc, scheme="mdnc"):
        from mdncee.outage import nonc_outage
        exact = nonc_outage(coeffs, schedule, powers)
        shift = 6.0 * np.sqrt(np.max(exact * (1 - exact)) / mc.samples)
        outage = exact + np.array([shift, -shift])
        return McResult(outage=outage, stderr=np.sqrt(outage * (1 - outage) / mc.samples),
                        ee=0.0, samples=mc.samples, scheme=scheme)

    monkeypatch.setattr(cli, "monte_carlo_outage", opposite)
    code = run_cli(["verify", SCENARIO_PATH, *NONC_POINT, "--samples", "100000",
                    "--out", str(tmp_path)])
    report = json.loads(read(tmp_path / "verify.json"))
    assert code == 4
    assert report["pass"] is False
    assert report["empirical"]["outage"] == pytest.approx(report["analytic"]["outage"], rel=1e-12)
    assert report["z_scores"][0] > 5.0 and report["z_scores"][1] < -5.0


GOLDEN_SWEEP = os.path.join(os.path.dirname(__file__), "data", "paper_sweep_golden.csv")
GOLDEN_EXACT = ("target", "scheme", "mode", "relays", "count", "status", "dinkelbach_iters",
                "goa_iters", "cuts")
GOLDEN_FLOAT = ("p_users", "p_relays", "ee", "pr_out_exact", "pr_out_approx", "pr_out_mc",
                "mc_stderr", "e_tot", "e_data", "q_star")


def test_paper_sweep_matches_golden(tmp_path):
    # the paper's numbers are pinned: exact counters must not move and every
    # float stays within 1e-9 relative; newton_iters is left free because
    # BLAS round-off can move it between machines
    argv = ["sweep", SCENARIO_PATH, "--scheme", "both", "--mode", "goa",
            "--targets", "1e-2,1e-3,1e-5", "--out", str(tmp_path)]
    assert run_cli(argv) == 0
    text = read(tmp_path / "sweep.csv")
    golden = read(GOLDEN_SWEEP)
    assert text.split("\n")[:2] == golden.split("\n")[:2]
    rows, expected = parse_sweep(text), parse_sweep(golden)
    assert len(rows) == len(expected) == 6
    for row, want in zip(rows, expected):
        assert set(row) == set(GOLDEN_EXACT) | set(GOLDEN_FLOAT) | {"newton_iters", "reason"}
        for col in GOLDEN_EXACT + ("reason",):
            assert row[col] == want[col], (col, want["target"], want["scheme"])
        for col in GOLDEN_FLOAT:
            got = [float(v) for v in row[col].split(";") if v]
            ref = [float(v) for v in want[col].split(";") if v]
            assert got == pytest.approx(ref, rel=1e-9, abs=0.0), (col, want["target"], want["scheme"])


@pytest.mark.parametrize("argv, message", [
    (["sweep", SCENARIO_PATH, "--targets", "0"], "target outage 0 is not in (0, 1)"),
    (["sweep", SCENARIO_PATH, "--targets=-1e-3"], "target outage -1e-3 is not in (0, 1)"),
    (["sweep", SCENARIO_PATH, "--targets", "1e-3", "--mode", "goa,bogus"], "unknown mode 'bogus'"),
    (["energy-curve", SCENARIO_PATH, "--targets", "1e-3,1.5"], "target outage 1.5 is not in (0, 1)"),
    (["relay-shift", SCENARIO_PATH, "--deltas=0", "--targets", "0"],
     "target outage 0 is not in (0, 1)"),
    (["verify", SCENARIO_PATH, "--target", "0"], "target outage 0 is not in (0, 1)"),
    (["verify", SCENARIO_PATH, "--samples", "0"], "sample count 0 is below 1"),
    (["sweep", SCENARIO_PATH, "--targets", "logrange:1e-2,1e-3,0"], "logrange count 0 is below 1"),
    (["relay-shift", SCENARIO_PATH, "--deltas=abc"],
     "shifts 'abc' are not a comma list of numbers"),
    (["relay-shift", SCENARIO_PATH, "--deltas=0", "--relays", "0,x"],
     "relays '0,x' are not a comma list of integers"),
    (["sweep", SCENARIO_PATH, "--targets", "1e-3", "--jobs", "0"], "job count 0 is below 1"),
    (["verify", SCENARIO_PATH, "--seed=-1"], "seed -1 is not in [0, 2^64)"),
    (["sweep", SCENARIO_PATH, "--targets", "1e-3", "--seed", str(1 << 64)],
     f"seed {1 << 64} is not in [0, 2^64)"),
    (["verify", SCENARIO_PATH, "--samples", str(MAX_SAMPLES + 1)],
     f"sample count {MAX_SAMPLES + 1} is above {MAX_SAMPLES}"),
], ids=["sweep-zero-target", "sweep-negative-target", "sweep-unknown-mode",
        "energy-curve-target-above-1", "relay-shift-zero-target", "verify-zero-target",
        "verify-zero-samples", "sweep-logrange-zero-count", "relay-shift-nonnumeric-delta",
        "relay-shift-nonnumeric-relay", "sweep-zero-jobs", "verify-negative-seed",
        "sweep-seed-2^64", "verify-samples-above-max"])
def test_bad_argument_exits_2_naming_the_value(argv, message, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("jobs, workers", [(1, None), (2, 2), (10000, 4)])
def test_sweep_pool_never_exceeds_the_task_count(jobs, workers, tmp_path, monkeypatch):
    # a recorder in place of the pool: it maps in this process and forks nothing
    created = []

    class RecordingPool:
        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    argv = ["sweep", SCENARIO_PATH, "--scheme", "both", "--mode", "goa,brute",
            "--targets", "1e-2", "--jobs", str(jobs), "--out", str(tmp_path)]
    assert run_cli(argv) == 0
    assert created == ([] if workers is None else [workers])
    assert len(parse_sweep(read(tmp_path / "sweep.csv"))) == 4
