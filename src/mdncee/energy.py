"""Energy accounting, energy efficiency, and the fractional-programming objective.

One transmission round: in the first hop every user broadcasts for one slot
(T seconds) while the selected relays listen for M slots and the BS sleeps;
in the second hop the selected relays transmit one slot each in round-robin
(M slots each for NoNC), every handover costs one beta*T sleep window at the
next relay in the queue, and the BS receives throughout. Unselected relays
are off and free.

The ratio objective EE = M*alpha0*T*(1 - Pr_out) / E_tot is handled by the
standard parametric transform: V(q) = M*alpha0*(1 - Pr_out) - q*E_tot has its
root exactly at the optimal ratio (up to the constant factor T, which shifts
q's scale but not the argmax). Adding M*alpha0 + q*T*delta_P*sum(c_j) to -V
yields V' > 0, a positive sum of exponentials in the log-domain variables, so
the working objective is its logarithm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LinkCoefficients, ScenarioConfig
from .outage import PowerAllocation, RelaySchedule, outage_approx_logdomain, powers_from_log

__all__ = [
    "EnergyBreakdown",
    "scheme_constants",
    "total_energy",
    "energy_budget_ok",
    "delivered_rate",
    "energy_efficiency",
    "subtractive_value",
    "tilde_v",
]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-phase energy (J): users, relays hop 1, BS hop 1, relays hop 2, BS hop 2.

    e_data is the transmit-power share (user power plus the load-dependent
    relay slope), the quantity the energy-vs-outage curves track.
    """

    e_s: float
    e_r1: float
    e_bs1: float
    e_r2: float
    e_bs2: float
    e_tot: float
    e_data: float


def scheme_constants(s: ScenarioConfig, scheme: str) -> tuple[float, float, float, float]:
    """Per-scheme energy structure (gamma, delta0, m_slots, obj_coef).

    The second hop occupies m_slots slots per relay (1 for MDNC, M for
    NoNC), so the circuit energy of n selected relays is gamma*n + delta0;
    obj_coef weighs each outage in the delivered rate (M*alpha0 for the
    single MDNC outage, alpha0 for each per-user NoNC outage). Every energy
    and EE entry point rejects an unknown scheme through it.
    """
    if scheme == "mdnc":
        m = 1.0
        obj_coef = s.M * s.alpha0
    elif scheme == "nonc":
        m = float(s.M)
        obj_coef = s.alpha0
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    gamma = s.T * (s.M * s.P0_R + m * s.P0_R + s.beta * s.P_sleep_R + m * s.P0_BS)
    delta0 = s.P_sleep_BS * s.M * s.T - s.beta * s.T * s.P_sleep_R
    return gamma, delta0, m, obj_coef


def total_energy(s: ScenarioConfig, schedule: RelaySchedule, powers: PowerAllocation,
                 scheme: str = "mdnc") -> EnergyBreakdown:
    """Energy of one round of the scheme. Requires a nonempty schedule.

    Each selected relay forwards for m_slots second-hop slots (one for MDNC,
    M for NoNC). All selected relays are charged full transmit power in
    their second-hop slots whether or not they decoded; failed relays stay
    in transmit mode.
    """
    _, _, m, _ = scheme_constants(s, scheme)
    n = schedule.count
    if n == 0:
        raise ValueError("schedule selects no relays (the sleep chain needs at least one)")
    T = s.T
    e_s = float(np.sum(powers.p)) * T
    e_r1 = n * s.P0_R * s.M * T
    e_bs1 = s.P_sleep_BS * s.M * T
    p_rel = float(np.sum(schedule.u * powers.p_relay))
    e_r2 = n * s.P0_R * m * T + s.delta_P * p_rel * m * T + (n - 1) * s.P_sleep_R * s.beta * T
    e_bs2 = s.P0_BS * n * m * T
    e_tot = e_s + e_r1 + e_bs1 + e_r2 + e_bs2
    e_data = e_s + s.delta_P * p_rel * m * T
    return EnergyBreakdown(e_s, e_r1, e_bs1, e_r2, e_bs2, e_tot, e_data)


def energy_budget_ok(e: EnergyBreakdown, E0: float, include_user_energy: bool = False) -> bool:
    """Check the relay+BS energy budget. User energy is excluded by default;
    the switch folds it in for sensitivity studies."""
    drawn = e.e_bs1 + e.e_bs2 + e.e_r1 + e.e_r2
    if include_user_energy:
        drawn += e.e_s
    return drawn <= E0


def delivered_rate(s: ScenarioConfig, outage, scheme: str = "mdnc") -> float:
    """Parametric numerator obj_coef*sum(1 - outage): M*alpha0*(1 - Pr_out)
    for MDNC, alpha0*sum_i(1 - Pr_out,i) over the per-user outages for NoNC."""
    _, _, _, obj_coef = scheme_constants(s, scheme)
    return obj_coef * float(np.sum(1.0 - np.asarray(outage)))


def energy_efficiency(s: ScenarioConfig, outage, e: EnergyBreakdown, scheme: str = "mdnc") -> float:
    """Delivered bits per joule, obj_coef*T*sum(1 - outage)/E_tot.

    outage is the scalar network outage (MDNC) or the per-user outages (NoNC).
    """
    _, _, _, obj_coef = scheme_constants(s, scheme)
    if e.e_tot <= 0:
        raise ValueError("total energy must be positive")
    # not delivered_rate(...) * T: (obj_coef*T)*sum keeps every reported EE's last bit
    return obj_coef * s.T * float(np.sum(1.0 - np.asarray(outage))) / e.e_tot


def subtractive_value(q: float, s: ScenarioConfig, outage_total: float, e: EnergyBreakdown) -> float:
    """Parametric objective V = M*alpha0*(1 - Pr_out) - q*E_tot.

    Zero exactly at q = M*alpha0*(1 - Pr_out)/E_tot; the reported bits-per-
    joule EE is that root times T.
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    return delivered_rate(s, outage_total) - q * e.e_tot


def tilde_v(q: float, s: ScenarioConfig, coeffs: LinkCoefficients, schedule: RelaySchedule,
            ptilde, ptilde_relay) -> float:
    """Working objective log(V') at a log-domain operating point.

    `ptilde_relay` holds the selected relays' variables in schedule order.
    V' = -V + M*alpha0 + q*T*delta_P*sum_j c_j, evaluated with the
    approximate outage and the substituted relay powers; the added constant
    absorbs the negative -c_j offsets of u_j p'_j = c_j e^(ptilde'_j) - c_j,
    leaving a positive sum of exponential terms. At a root of V this reduces
    to log(M*alpha0 + q*T*delta_P*sum_j c_j).
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    ptilde_relay = np.asarray(ptilde_relay, dtype=float)
    full = np.zeros(s.N)
    full[list(schedule.theta)] = ptilde_relay
    powers = powers_from_log(coeffs, schedule, ptilde, full)
    pr = outage_approx_logdomain(coeffs, schedule, ptilde, ptilde_relay)
    e = total_energy(s, schedule, powers)
    v = subtractive_value(q, s, pr, e)
    v_prime = -v + s.M * s.alpha0 + q * s.T * s.delta_P * float(np.sum(coeffs.c_g))
    if v_prime <= 0:
        raise RuntimeError(
            f"V' = {v_prime} <= 0 at q={q}, ptilde={np.asarray(ptilde).tolist()}, "
            f"ptilde_relay={np.asarray(ptilde_relay).tolist()}; cannot take log"
        )
    return float(np.log(v_prime))
