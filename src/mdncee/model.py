"""Network scenario description and derived per-link constants.

A scenario is an M-user, N-relay, one-BS two-hop network. Channels are
Rayleigh with distance path loss: the squared gain of the user i -> relay j
link is exponential with mean d_ij^(-n_ij) * sigma2_h_ij, and similarly for
relay j -> BS. A link at transmit power p succeeds iff the achievable rate
B*log2(1 + |h|^2 p / (N0*B)) reaches the fixed rate alpha0, which compresses
each link into one positive constant

    c = (2^(alpha0/B) - 1) * N0 * B / (d^(-n) * sigma2)

so that the per-link failure probability is 1 - exp(-c/p).
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "ScenarioConfig",
    "ScenarioError",
    "LinkCoefficients",
    "build_link_coefficients",
    "apply_relay_shift",
    "validate_scenario",
    "load_scenario",
    "dump_scenario",
    "P_MIN",
]

# Lower transmit-power bound (W). Keeps log-domain variables in a compact box;
# far below any power the optimizer would ever return.
P_MIN = 1e-6


class ScenarioError(ValueError):
    """Raised for scenarios that violate the model's validity domain."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Full parameterization of one network scenario.

    Matrices are user-major: element [i][j] describes the user i -> relay j
    link; relay->BS vectors are indexed by relay. Units: distances in meters,
    PSDs in W/Hz, powers in W, energies in J, rate in bits/s, bandwidth in Hz,
    times in s. Values are taken literally from the scenario file; no unit
    conversion is applied.
    """

    M: int
    N: int
    sigma_h: np.ndarray      # M x N Rayleigh variances (dimensionless)
    d_h: np.ndarray          # M x N distances (m)
    n_h: np.ndarray          # M x N path-loss exponents
    N0_h: np.ndarray         # M x N noise PSDs (W/Hz)
    sigma_g: np.ndarray      # length-N Rayleigh variances
    d_g: np.ndarray          # length-N distances (m)
    n_g: np.ndarray          # length-N path-loss exponents
    N0_g: np.ndarray         # length-N noise PSDs (W/Hz)
    alpha0: float            # fixed transmission rate (bits/s)
    B: float                 # bandwidth (Hz)
    T: float                 # slot duration (s); codewords carry alpha0*T bits
    beta: float              # sleep-handover fraction of a slot, in (0,1)
    P_S_max: float           # user transmit power cap (W)
    P_R_max: float           # relay transmit power cap (W)
    P0_R: float              # relay circuit power, receive/transmit base (W)
    P_sleep_R: float         # relay sleep power (W)
    P0_BS: float             # BS receive power (W)
    P_sleep_BS: float        # BS sleep power (W)
    delta_P: float           # load-dependent power slope (dimensionless)
    E0: float                # relay+BS energy budget per round (J)
    pr_out_target: float     # default target outage probability, in (0,1)
    # E0 also bounds the users' transmit energy: a run option, not a
    # scenario-file key (read by log_power_model and relay_count_bounds)
    user_energy_in_budget: bool = False

    def __post_init__(self):
        for name in ("sigma_h", "d_h", "n_h", "N0_h"):
            object.__setattr__(self, name, np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
        for name in ("sigma_g", "d_g", "n_g", "N0_g"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))


@dataclass(frozen=True)
class LinkCoefficients:
    """Per-link outage constants: c_h[i][j] for user->relay, c_g[j] for relay->BS (W)."""

    c_h: np.ndarray
    c_g: np.ndarray


def _positive(x) -> bool:
    arr = np.asarray(x, dtype=float)
    return bool(np.all(np.isfinite(arr)) and np.all(arr > 0))


def validate_scenario(s: ScenarioConfig) -> list[str]:
    """Return a list of invariant violations; empty means the scenario is usable.

    Each entry names the offending field and the constraint it breaks.
    Diagnostics are the return value; nothing is raised.
    """
    v = []
    if s.M < 1:
        v.append("M: must be >= 1")
    if s.N < 1:
        v.append("N: must be >= 1")
    if s.M > s.N:
        v.append("M: assumption M <= N violated (every transmission round needs at least M relays)")
    for name, want in (("sigma_h", (s.M, s.N)), ("d_h", (s.M, s.N)), ("n_h", (s.M, s.N)), ("N0_h", (s.M, s.N))):
        if getattr(s, name).shape != want:
            v.append(f"{name}: shape {getattr(s, name).shape} != {want}")
    for name, want in (("sigma_g", (s.N,)), ("d_g", (s.N,)), ("n_g", (s.N,)), ("N0_g", (s.N,))):
        if getattr(s, name).shape != want:
            v.append(f"{name}: shape {getattr(s, name).shape} != {want}")
    for name in ("sigma_h", "d_h", "n_h", "N0_h", "sigma_g", "d_g", "n_g", "N0_g"):
        if not _positive(getattr(s, name)):
            v.append(f"{name}: all entries must be finite and > 0")
    for name in ("alpha0", "B", "T", "P_S_max", "P_R_max", "P0_R", "P_sleep_R", "P0_BS", "P_sleep_BS", "delta_P", "E0"):
        if not _positive(getattr(s, name)):
            v.append(f"{name}: must be finite and > 0")
    if not (0.0 < s.beta < 1.0):
        v.append("beta: must lie in (0,1)")
    if not (0.0 < s.pr_out_target < 1.0):
        v.append("pr_out_target: must lie in (0,1)")
    if s.P0_R <= s.P_sleep_R:
        v.append("P0_R: must exceed P_sleep_R")
    if s.P0_BS <= s.P_sleep_BS:
        v.append("P0_BS: must exceed P_sleep_BS")
    return v


def build_link_coefficients(s: ScenarioConfig) -> LinkCoefficients:
    """Fold each link's statistics into its outage constant c > 0 (W).

    c_ij = (2^(alpha0/B) - 1) * N0_ij * B / (d_ij^(-n_ij) * sigma2_h_ij) and
    analogously c_j for the relay->BS links. Rejects scenarios whose extreme
    d^n products overflow, naming the offending link.
    """
    rate_gap = math.pow(2.0, s.alpha0 / s.B) - 1.0
    with np.errstate(over="ignore"):  # overflow surfaces as the diagnostic below
        c_h = rate_gap * s.N0_h * s.B * np.power(s.d_h, s.n_h) / s.sigma_h
        c_g = rate_gap * s.N0_g * s.B * np.power(s.d_g, s.n_g) / s.sigma_g
    bad = np.argwhere(~np.isfinite(c_h) | (c_h <= 0))
    if bad.size:
        i, j = bad[0]
        raise ScenarioError(
            f"link coefficient c_h[{i}][{j}] is not a positive finite number "
            f"(d={s.d_h[i, j]!r}, n={s.n_h[i, j]!r}); scenario rejected"
        )
    badg = np.argwhere(~np.isfinite(c_g) | (c_g <= 0))
    if badg.size:
        j = badg[0][0]
        raise ScenarioError(
            f"link coefficient c_g[{j}] is not a positive finite number "
            f"(d={s.d_g[j]!r}, n={s.n_g[j]!r}); scenario rejected"
        )
    return LinkCoefficients(c_h=c_h, c_g=c_g)


def apply_relay_shift(s: ScenarioConfig, delta: float) -> ScenarioConfig:
    """Move every relay `delta` meters away from the users and toward the BS.

    User->relay distances become d_ij + delta, relay->BS distances d_j - delta;
    everything else is untouched. Any resulting distance <= 0 is rejected.
    """
    d_h = s.d_h + delta
    d_g = s.d_g - delta
    if np.any(d_h <= 0):
        i, j = np.argwhere(d_h <= 0)[0]
        raise ScenarioError(f"relay shift delta={delta} drives d_h[{i}][{j}] to {d_h[i, j]} <= 0 m")
    if np.any(d_g <= 0):
        j = np.argwhere(d_g <= 0)[0][0]
        raise ScenarioError(f"relay shift delta={delta} drives d_g[{j}] to {d_g[j]} <= 0 m")
    return replace(s, d_h=d_h, d_g=d_g)


# ---------------------------------------------------------------------------
# Scenario files: "name = value" lines, matrices as (nested) Python literals,
# field names identical to ScenarioConfig. '#' starts a comment. T may be
# omitted, in which case one slot carries X_bits bits at rate alpha0.

_SCALARS_INT = ("M", "N")
_SCALARS = (
    "alpha0", "B", "T", "beta", "P_S_max", "P_R_max", "P0_R", "P_sleep_R",
    "P0_BS", "P_sleep_BS", "delta_P", "E0", "pr_out_target",
)
_ARRAYS = ("sigma_h", "d_h", "n_h", "N0_h", "sigma_g", "d_g", "n_g", "N0_g")


def load_scenario(path) -> ScenarioConfig:
    """Parse a scenario file into a ScenarioConfig (no validation beyond types)."""
    raw = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ScenarioError(f"{path}:{lineno}: expected 'name = value', got {line!r}")
            name, _, value = line.partition("=")
            name = name.strip()
            try:
                raw[name] = ast.literal_eval(value.strip())
            except (ValueError, SyntaxError) as exc:
                raise ScenarioError(f"{path}:{lineno}: cannot parse value for {name!r}: {exc}") from exc

    known = set(_SCALARS_INT) | set(_SCALARS) | set(_ARRAYS) | {"X_bits"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ScenarioError(f"{path}: unknown field(s) {', '.join(unknown)}")
    missing = [n for n in (*_SCALARS_INT, *_ARRAYS) if n not in raw]
    missing += [n for n in _SCALARS if n not in raw and n != "T"]
    if missing:
        raise ScenarioError(f"{path}: missing field(s) {', '.join(missing)}")

    def convert(name, kind):
        # M and N must be integer literals: int() would truncate N = 4.5
        try:
            if kind is int and type(raw[name]) is not int:
                raise ValueError("not an integer literal")
            return np.asarray(raw[name], dtype=float) if kind is np.ndarray else kind(raw[name])
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{path}: bad value {raw[name]!r} for {name!r}: {exc}") from exc

    if "T" not in raw:
        # Default slot length: one codeword of X_bits bits at rate alpha0.
        if "X_bits" not in raw:
            raise ScenarioError(f"{path}: give either T or X_bits (slot = X_bits/alpha0 seconds)")
        alpha0 = convert("alpha0", float)
        if not alpha0 > 0:
            raise ScenarioError(f"{path}: bad value {raw['alpha0']!r} for 'alpha0': "
                                "the slot T = X_bits/alpha0 needs a positive rate")
        raw["T"] = convert("X_bits", float) / alpha0

    kwargs = {n: convert(n, int) for n in _SCALARS_INT}
    kwargs.update({n: convert(n, float) for n in _SCALARS})
    kwargs.update({n: convert(n, np.ndarray) for n in _ARRAYS})
    return ScenarioConfig(**kwargs)


def dump_scenario(s: ScenarioConfig, path) -> None:
    """Write a scenario back out in the load_scenario format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"M = {s.M}\nN = {s.N}\n")
        for name in _ARRAYS:
            fh.write(f"{name} = {np.asarray(getattr(s, name)).tolist()!r}\n")
        for name in _SCALARS:
            fh.write(f"{name} = {getattr(s, name)!r}\n")
