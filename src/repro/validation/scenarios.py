"""Validation scenario registries.

Two scenario families live here:

* **Matched differential scenarios** — one per paper virus.  The SAN
  composition expresses only the core propagation process (contact-list
  sends paced by the virus's interval, consent decay, instantaneous
  reads), so each virus's differential variant keeps its *pacing* while
  stripping the features the SAN cannot represent (budgets, dormancy,
  random dialing, multi-recipient sends, read delay).  All three engines
  then describe the same stochastic process and must agree statistically:
  the plateau is ``patient zero + susceptible x P(ever accept) ~ 0.40``.

* **Golden scenarios** — small but feature-complete configs (budgets,
  clock-anchored windows, dormancy, random dialing, gateways, response
  mechanisms) whose deterministic seeded runs are recorded as golden
  traces.  These exercise the production hot paths the differential
  variants deliberately avoid, so together the two families cover both
  "same process" and "same code" regressions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

from ..core.parameters import (
    BlacklistConfig,
    GatewayScanConfig,
    ImmunizationConfig,
    LimitPeriod,
    MonitoringConfig,
    NetworkParameters,
    ScenarioConfig,
    Targeting,
    UserParameters,
)
from ..core.scenarios import virus_parameters
from ..xl.presets import density_matched_mobility, hybrid_scenario

#: Shared seed for every validation run (the paper's publication year).
VALIDATION_SEED = 2007


@dataclass(frozen=True)
class DifferentialScenario:
    """One cross-engine comparison: a matched config plus its shape knobs."""

    name: str
    #: The paper virus the pacing derives from.
    virus_number: int
    #: SAN-expressible scenario (contact-list, no budgets, zero read delay).
    config: ScenarioConfig
    #: Replications per engine.
    replications: int = 10


def matched_scenario(
    virus_number: int,
    population: int = 40,
    mean_degree: float = 8.0,
    horizon_intervals: float = 60.0,
) -> DifferentialScenario:
    """SAN-expressible variant of one paper virus.

    The virus's send pacing (minimum interval + exponential slack) is kept;
    budgets, dormancy, random dialing, and multi-recipient sends are
    stripped; the read delay is zeroed; every phone is susceptible so the
    ``random`` topology's degree draw is the only population heterogeneity.
    The horizon is ``horizon_intervals`` mean send intervals — enough for
    the consent series to resolve and the infection curve to plateau.
    """
    virus = virus_parameters(virus_number)
    matched_virus = replace(
        virus,
        name=f"{virus.name}-matched",
        targeting=Targeting.CONTACT_LIST,
        recipients_per_message=1,
        message_limit=None,
        limit_counts_recipients=False,
        limit_period=LimitPeriod.NONE,
        global_limit_windows=False,
        dormancy=0.0,
        valid_number_fraction=1.0,
    )
    mean_interval = matched_virus.send_interval_distribution().mean
    horizon = max(1.0, horizon_intervals * mean_interval)
    config = ScenarioConfig(
        name=f"virus{virus_number}-matched",
        virus=matched_virus,
        network=NetworkParameters(
            population=population,
            susceptible_fraction=1.0,
            topology_model="random",
            mean_contact_list_size=mean_degree,
            gateway_delay_mean=0.0,
        ),
        user=UserParameters(read_delay_mean=0.0),
        duration=horizon,
    )
    return DifferentialScenario(
        name=config.name, virus_number=virus_number, config=config
    )


def baseline_differential_scenarios() -> List[DifferentialScenario]:
    """The four matched baseline virus scenarios, in paper order."""
    return [matched_scenario(number) for number in (1, 2, 3, 4)]


def bluetooth_differential_scenario(
    population: int = 60,
    bluetooth_rate: float = 2.0,
    horizon: float = 24.0,
    replications: int = 12,
) -> DifferentialScenario:
    """BT-only matched scenario: core's random-mixing channel vs xl's.

    The MMS channel is silenced by pushing dormancy past the horizon (the
    first send never lands), so every infection travels over Bluetooth.
    Random dialing targeting skips contact-list generation entirely — the
    proximity channel never consults the topology — and the read delay is
    zeroed so the consent decay is the only stochastic slack.  The SAN
    and mean-field engines cannot express the channel; the gates for this
    scenario compare core vs xl only (see
    :func:`repro.validation.differential.run_bluetooth_differential`).
    """
    virus = virus_parameters(1)
    bt_virus = replace(
        virus,
        name=f"{virus.name}-bt-only",
        targeting=Targeting.RANDOM_DIALING,
        message_limit=None,
        limit_counts_recipients=False,
        limit_period=LimitPeriod.NONE,
        global_limit_windows=False,
        dormancy=10.0 * horizon,
        valid_number_fraction=1.0,
        bluetooth_rate=bluetooth_rate,
    )
    config = ScenarioConfig(
        name="bluetooth-matched",
        virus=bt_virus,
        network=NetworkParameters(
            population=population,
            susceptible_fraction=1.0,
            mean_contact_list_size=8.0,
            gateway_delay_mean=0.0,
        ),
        user=UserParameters(read_delay_mean=0.0),
        duration=horizon,
    )
    return DifferentialScenario(
        name=config.name,
        virus_number=1,
        config=config,
        replications=replications,
    )


def frontier_matched_scenario(
    virus_number: int,
    response,
    population: int = 1000,
    horizon_intervals: float = 100.0,
    replications: int = 3,
) -> DifferentialScenario:
    """Well-mixed variant of one paper virus for frontier cross-checks.

    The frontier's analytic gate compares a simulated critical latency
    against the delayed-response mean-field ODE — which is only exact
    when the simulation is itself well mixed.  This factory keeps the
    virus's send pacing and attaches the response under test, but
    switches targeting to random dialing with every number valid (each
    send is a uniform draw over the population — the mean-field's
    homogeneous-mixing assumption, exactly), makes every phone
    susceptible, and zeroes read and gateway delays.  Contact-list
    production scenarios saturate their neighborhoods in ways the
    well-mixed ODE cannot express, so the gate runs here and the
    production frontier is reported ungated.
    """
    virus = virus_parameters(virus_number)
    matched_virus = replace(
        virus,
        name=f"{virus.name}-frontier-matched",
        targeting=Targeting.RANDOM_DIALING,
        recipients_per_message=1,
        message_limit=None,
        limit_counts_recipients=False,
        limit_period=LimitPeriod.NONE,
        global_limit_windows=False,
        dormancy=0.0,
        valid_number_fraction=1.0,
    )
    mean_interval = matched_virus.send_interval_distribution().mean
    horizon = max(1.0, horizon_intervals * mean_interval)
    config = ScenarioConfig(
        name=f"virus{virus_number}-frontier-matched",
        virus=matched_virus,
        network=NetworkParameters(
            population=population,
            susceptible_fraction=1.0,
            gateway_delay_mean=0.0,
        ),
        user=UserParameters(read_delay_mean=0.0),
        responses=(response,),
        duration=horizon,
    )
    return DifferentialScenario(
        name=config.name,
        virus_number=virus_number,
        config=config,
        replications=replications,
    )


def _small_network(population: int = 100) -> NetworkParameters:
    """A fast golden-trace network: small power-law population."""
    return NetworkParameters(
        population=population,
        mean_contact_list_size=16.0,
    )


def golden_scenarios() -> Dict[str, ScenarioConfig]:
    """Scenarios recorded as golden traces, keyed by fixture name.

    Each uses the real virus definition (budgets, windows, dormancy,
    random dialing) at a reduced population and horizon so the whole set
    replays in seconds while still driving the production hot paths —
    including the gateway filter chain and two provider-side responses.
    """
    scenarios: Dict[str, ScenarioConfig] = {}
    horizons = {1: 72.0, 2: 48.0, 3: 12.0, 4: 72.0}
    for number in (1, 2, 3, 4):
        scenarios[f"virus{number}"] = ScenarioConfig(
            name=f"virus{number}-golden",
            virus=virus_parameters(number),
            network=_small_network(),
            duration=horizons[number],
        )
    scenarios["virus1-responses"] = ScenarioConfig(
        name="virus1-responses-golden",
        virus=virus_parameters(1),
        network=_small_network(),
        responses=(
            GatewayScanConfig(activation_delay=12.0),
            MonitoringConfig(),
            BlacklistConfig(threshold=10),
        ),
        duration=72.0,
    )
    # xl-engine fixtures at the paper population: the scenario documents
    # embed engine="xl", so replay dispatches to the array engine and any
    # drift in its batched-round dynamics is caught byte-for-byte, same as
    # the core fixtures above.
    xl_network = NetworkParameters(population=1000)
    scenarios["xl-virus1"] = ScenarioConfig(
        name="xl-virus1-golden",
        virus=virus_parameters(1),
        network=xl_network,
        duration=96.0,
        engine="xl",
    )
    scenarios["xl-virus3"] = ScenarioConfig(
        name="xl-virus3-golden",
        virus=virus_parameters(3),
        network=xl_network,
        duration=6.0,
        engine="xl",
    )
    scenarios["xl-virus1-responses"] = ScenarioConfig(
        name="xl-virus1-responses-golden",
        virus=virus_parameters(1),
        network=xl_network,
        responses=(
            ImmunizationConfig(development_time=12.0, deployment_window=6.0),
            MonitoringConfig(),
        ),
        duration=96.0,
        engine="xl",
    )
    # Hybrid MMS + Bluetooth at the paper population, once with random
    # mixing and once with partners drawn from the random-waypoint grid,
    # so both proximity channels are pinned byte-for-byte.
    scenarios["xl-hybrid"] = hybrid_scenario(1, "paper", bluetooth_rate=1.0)
    scenarios["xl-hybrid-grid"] = hybrid_scenario(
        1, "paper", bluetooth_rate=1.0, mobility=density_matched_mobility(1000)
    )
    return scenarios


__all__ = [
    "VALIDATION_SEED",
    "DifferentialScenario",
    "baseline_differential_scenarios",
    "bluetooth_differential_scenario",
    "frontier_matched_scenario",
    "golden_scenarios",
    "matched_scenario",
]
