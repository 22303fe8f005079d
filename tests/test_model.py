import dataclasses

import numpy as np
import pytest

from mdncee.model import (
    ScenarioConfig,
    ScenarioError,
    apply_relay_shift,
    build_link_coefficients,
    dump_scenario,
    load_scenario,
    validate_scenario,
)

# c11 for the reference scenario, recomputed independently at 40-digit
# precision: (2^2.4 - 1) * 0.063e-14 * 125e3 * 857.5^2.557 / 5.1291
C11_REFERENCE = 0.0020784187696383187
CG0_REFERENCE = 0.0021303888400790466


def test_paper_scenario_validates(paper_scenario):
    assert validate_scenario(paper_scenario) == []


def test_default_slot_duration(paper_scenario):
    assert paper_scenario.T == pytest.approx(125000.0 / 300000.0, rel=1e-15)


def test_c11_against_high_precision_reference(paper_coeffs):
    assert paper_coeffs.c_h[0, 0] == pytest.approx(C11_REFERENCE, rel=1e-16 * 100)
    assert paper_coeffs.c_g[0] == pytest.approx(CG0_REFERENCE, rel=1e-16 * 100)


def test_unit_link_coefficient():
    # gap = 2^(alpha0/B) - 1 = 1, N0*B = 1, d = 1, sigma = 1  =>  c = 1
    s = ScenarioConfig(
        M=1, N=1, sigma_h=[[1.0]], d_h=[[1.0]], n_h=[[7.3]], N0_h=[[1.0 / 125e3]],
        sigma_g=[1.0], d_g=[1.0], n_g=[2.0], N0_g=[1.0 / 125e3],
        alpha0=125e3, B=125e3, T=1.0, beta=0.5, P_S_max=1.0, P_R_max=1.0,
        P0_R=2.0, P_sleep_R=1.0, P0_BS=2.0, P_sleep_BS=1.0, delta_P=1.0,
        E0=10.0, pr_out_target=0.5,
    )
    co = build_link_coefficients(s)
    assert co.c_h[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert co.c_g[0] == pytest.approx(1.0, rel=1e-12)


def test_doubling_variance_halves_every_coefficient(paper_scenario, paper_coeffs):
    s2 = dataclasses.replace(paper_scenario, sigma_h=2.0 * paper_scenario.sigma_h,
                             sigma_g=2.0 * paper_scenario.sigma_g)
    co2 = build_link_coefficients(s2)
    np.testing.assert_allclose(co2.c_h, 0.5 * paper_coeffs.c_h, rtol=1e-14)
    np.testing.assert_allclose(co2.c_g, 0.5 * paper_coeffs.c_g, rtol=1e-14)


def test_coefficients_scale_linearly_in_noise(paper_scenario, paper_coeffs):
    s2 = dataclasses.replace(paper_scenario, N0_h=3.0 * paper_scenario.N0_h)
    np.testing.assert_allclose(build_link_coefficients(s2).c_h, 3.0 * paper_coeffs.c_h, rtol=1e-14)


def test_monotonicity_in_distance_and_noise(paper_scenario, paper_coeffs):
    bump = np.zeros_like(paper_scenario.d_h)
    bump[1, 2] = 10.0
    s2 = dataclasses.replace(paper_scenario, d_h=paper_scenario.d_h + bump)
    co2 = build_link_coefficients(s2)
    assert co2.c_h[1, 2] > paper_coeffs.c_h[1, 2]
    unchanged = np.ones_like(bump, dtype=bool)
    unchanged[1, 2] = False
    np.testing.assert_array_equal(co2.c_h[unchanged], paper_coeffs.c_h[unchanged])


def test_nonfinite_coefficient_rejected(paper_scenario):
    d = paper_scenario.d_h.copy()
    d[0, 1] = 1e300
    s2 = dataclasses.replace(paper_scenario, d_h=d)
    with pytest.raises(ScenarioError, match=r"c_h\[0\]\[1\]"):
        build_link_coefficients(s2)


def test_relay_shift_identity(paper_scenario):
    shifted = apply_relay_shift(paper_scenario, 0.0)
    np.testing.assert_array_equal(shifted.d_h, paper_scenario.d_h)
    np.testing.assert_array_equal(shifted.d_g, paper_scenario.d_g)


def test_relay_shift_fifty_meters(paper_scenario):
    shifted = apply_relay_shift(paper_scenario, 50.0)
    assert shifted.d_h[0, 0] == pytest.approx(907.5)
    assert shifted.d_g[0] == pytest.approx(271.7)
    np.testing.assert_array_equal(shifted.sigma_h, paper_scenario.sigma_h)


def test_relay_shift_roundtrip_exact(paper_scenario):
    back = apply_relay_shift(apply_relay_shift(paper_scenario, 37.5), -37.5)
    np.testing.assert_array_equal(back.d_h, paper_scenario.d_h)
    np.testing.assert_array_equal(back.d_g, paper_scenario.d_g)


def test_relay_shift_rejects_nonpositive_distance(paper_scenario):
    with pytest.raises(ScenarioError, match="d_h"):
        apply_relay_shift(paper_scenario, -1000.0)
    with pytest.raises(ScenarioError, match="d_g"):
        apply_relay_shift(paper_scenario, 400.0)   # d_g[0] = 321.7


def test_validate_flags_user_excess(paper_scenario):
    s2 = dataclasses.replace(paper_scenario, M=5,
                             sigma_h=np.ones((5, 4)), d_h=np.full((5, 4), 100.0),
                             n_h=np.full((5, 4), 2.0), N0_h=np.full((5, 4), 1e-15))
    assert any("M" in v and "<=" in v for v in validate_scenario(s2))


def test_validate_flags_beta_range(paper_scenario):
    s2 = dataclasses.replace(paper_scenario, beta=1.5)
    assert any(v.startswith("beta") for v in validate_scenario(s2))


def test_validate_flags_circuit_ordering(paper_scenario):
    s2 = dataclasses.replace(paper_scenario, P_sleep_R=paper_scenario.P0_R)
    assert any("P0_R" in v for v in validate_scenario(s2))


def test_scenario_dump_load_roundtrip(paper_scenario, tmp_path):
    path = tmp_path / "roundtrip.cfg"
    dump_scenario(paper_scenario, path)
    again = load_scenario(path)
    for name in ("sigma_h", "d_h", "n_h", "N0_h", "sigma_g", "d_g", "n_g", "N0_g"):
        np.testing.assert_array_equal(getattr(again, name), getattr(paper_scenario, name))
    assert again.T == paper_scenario.T
    assert again.E0 == paper_scenario.E0


def test_load_rejects_unknown_and_missing_fields(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("M = 1\nN = 1\nbogus_field = 3\n")
    with pytest.raises(ScenarioError, match="bogus_field"):
        load_scenario(bad)
    missing = tmp_path / "missing.cfg"
    missing.write_text("M = 1\nN = 1\n")
    with pytest.raises(ScenarioError, match="missing"):
        load_scenario(missing)


@pytest.mark.parametrize("changes,violation", [
    ({"M": 0}, "M: must be >= 1"),
    ({"N": 0}, "N: must be >= 1"),
    ({"sigma_h": np.ones((2, 3))}, "sigma_h: shape (2, 3) != (2, 4)"),
    ({"d_g": np.ones(3)}, "d_g: shape (3,) != (4,)"),
    ({"n_g": np.array([2.0, 0.0, 2.0, 2.0])}, "n_g: all entries must be finite and > 0"),
    ({"N0_h": np.full((2, 4), np.nan)}, "N0_h: all entries must be finite and > 0"),
    ({"E0": 0.0}, "E0: must be finite and > 0"),
    ({"delta_P": np.inf}, "delta_P: must be finite and > 0"),
    ({"pr_out_target": 1.0}, "pr_out_target: must lie in (0,1)"),
    ({"pr_out_target": 0.0}, "pr_out_target: must lie in (0,1)"),
    ({"P_sleep_BS": 130.0}, "P0_BS: must exceed P_sleep_BS"),
], ids=["M", "N", "h-shape", "g-shape", "array-zero", "array-nan", "scalar-zero",
        "scalar-inf", "target-one", "target-zero", "bs-ordering"])
def test_validate_names_each_violated_rule(paper_scenario, changes, violation):
    assert violation in validate_scenario(dataclasses.replace(paper_scenario, **changes))


@pytest.mark.parametrize("changes", [{"d_g": [1e300, 321.7, 321.7, 321.7]},
                                     {"sigma_g": [np.inf, 1.0, 1.0, 1.0]}],
                         ids=["overflow", "zero"])
def test_relay_to_bs_coefficient_rejected(paper_scenario, changes):
    # c_g[0] overflows to inf, or an infinite variance drives it to 0
    with pytest.raises(ScenarioError, match=r"c_g\[0\] is not a positive finite number"):
        build_link_coefficients(dataclasses.replace(paper_scenario, **changes))


@pytest.mark.parametrize("field,line,message", [
    ("N", "N 4\n", r"bad\.cfg:2: expected 'name = value', got 'N 4'"),
    ("N", "N = [4,\n", r"bad\.cfg:2: cannot parse value for 'N'"),
    ("T", "", r"bad\.cfg: give either T or X_bits"),
], ids=["no-equals", "no-literal", "no-slot"])
def test_load_rejects_an_unreadable_line_or_a_missing_slot(paper_scenario, tmp_path, field,
                                                           line, message):
    # paper.cfg as dump_scenario writes it (M first, then N), with one line
    # replaced: every other field is valid, so this error is the one raised
    path = tmp_path / "bad.cfg"
    dump_scenario(paper_scenario, path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line if old.startswith(f"{field} =") else old for old in lines))
    with pytest.raises(ScenarioError, match=message):
        load_scenario(path)
