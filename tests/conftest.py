import os
import tempfile

import pytest

from mdncee.model import ScenarioConfig, build_link_coefficients, load_scenario

SCENARIO_PATH = os.path.join(os.path.dirname(__file__), "..", "scenarios", "paper.cfg")

# Hypothesis keeps its example database and constants cache in a temporary
# home that is removed at exit, so a test run writes nothing into the checkout
try:
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:     # only the property tests need hypothesis
    pass
else:
    _HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="mdncee-hypothesis-")
    set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


@pytest.fixture(scope="session")
def paper_scenario() -> ScenarioConfig:
    return load_scenario(SCENARIO_PATH)


@pytest.fixture(scope="session")
def paper_coeffs(paper_scenario):
    return build_link_coefficients(paper_scenario)


@pytest.fixture(scope="session")
def toy_scenario() -> ScenarioConfig:
    """One user, one relay; small circuit powers so the transmit share matters."""
    return ScenarioConfig(
        M=1, N=1,
        sigma_h=[[2.0]], d_h=[[500.0]], n_h=[[2.6]], N0_h=[[0.05e-14]],
        sigma_g=[1.5], d_g=[400.0], n_g=[2.4], N0_g=[0.08e-14],
        alpha0=300e3, B=125e3, T=125.0 / 300.0, beta=0.1,
        P_S_max=10.0, P_R_max=20.0,
        P0_R=5.0, P_sleep_R=1.0, P0_BS=12.0, P_sleep_BS=4.0,
        delta_P=2.6, E0=500.0, pr_out_target=1e-3,
    )


@pytest.fixture(scope="session")
def toy_coeffs(toy_scenario):
    return build_link_coefficients(toy_scenario)


def random_coeffs(rng, M, N, scale=1e-3):
    """Random positive link coefficients shaped like build_link_coefficients output."""
    from mdncee.model import LinkCoefficients
    return LinkCoefficients(
        c_h=scale * rng.lognormal(0.0, 0.7, size=(M, N)),
        c_g=scale * rng.lognormal(0.0, 0.7, size=N),
    )


def master_for(s, coeffs, target, scheme="mdnc"):
    """The master of one (scheme, target) solve over its relay-count window."""
    from mdncee.optimizer import MasterModel, relay_count_bounds
    return MasterModel(s, coeffs, scheme, target, relay_count_bounds(s, coeffs, target, scheme))
