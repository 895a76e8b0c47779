"""The benchmark's workloads: scenario configurations run through `frfkit run`.

Each workload is a tuple of scenario runs. A run names the config document
(seeds are added from the benchmark's ``--seed``), the estimate of record
whose error against the analytic oracle is checked and reported, and the
layers that the traced run must see on the workload.
"""

from __future__ import annotations

from dataclasses import dataclass

TRANSIENT = "transient_study"
BIAS = "closed_loop_siso_bias"
MIMO = "mimo_full_vs_equivalent"


@dataclass(frozen=True)
class ScenarioRun:
    """One scenario configuration and what its outputs are checked against.

    ``record`` is the ``band_statistics`` key of the estimate of record,
    ``record_file`` the CSV that holds it and ``series`` the ``curves.csv``
    series that reports its bins. ``tolerance`` caps its mean in-band
    absolute error against the oracle. It is about three times the largest
    value seen over seeds 1-20, so noise never trips it and a real loss of
    accuracy does; the noise-free MIMO SA run, whose error is round-off,
    gets 1e-9.
    """

    label: str
    doc: dict
    record: str
    record_file: str
    series: str
    tolerance: float

    @property
    def scenario(self) -> str:
        return self.doc["scenario"]

    def config(self, seed: int) -> dict:
        """The config document with the seed mapping of ``--seed-override``."""
        return {**self.doc, "seeds": {"phase": seed, "noise": seed + 1}}


@dataclass(frozen=True)
class Workload:
    name: str
    runs: tuple
    expected_layers: tuple


_COMMON_LAYERS = ("cli.parse_config", "cli.run_scenario", "cli.export_report",
                  "signals.generate_multisine", "signals.spectrum_set",
                  "sim.simulate_closed_loop", "sim.true_frf",
                  "estimators.write_frf_csv")
_SA_LAYERS = ("estimators.power_spectra", "estimators.spectral_analysis")

# The bias runs of config_matrix are shortened to 22 periods (20 used) so
# the matrix stays a set of short runs dominated by fixed per-call costs.
_SHORT_BIAS = {"n_periods_total": 22, "n_periods_used": 20}


def _transient(estimator: str, tolerance: float) -> ScenarioRun:
    return ScenarioRun(f"transient_{estimator}",
                       {"scenario": TRANSIENT, "estimators": [estimator]},
                       estimator, f"frf_{estimator}.csv", estimator, tolerance)


def _bias(estimator: str, tolerance: float) -> ScenarioRun:
    return ScenarioRun(f"bias_{estimator}",
                       {"scenario": BIAS, "estimators": [estimator], **_SHORT_BIAS},
                       estimator, f"frf_{estimator}.csv", estimator, tolerance)


def _mimo(estimator: str, tolerance: float) -> ScenarioRun:
    return ScenarioRun(f"mimo_{estimator}",
                       {"scenario": MIMO, "estimators": [estimator]},
                       "g_full", "g_full.csv", "g_full_11", tolerance)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        "bias_long_record",
        (ScenarioRun("bias_default", {"scenario": BIAS}, "indirect_sa",
                     "frf_indirect_sa.csv", "indirect_sa", 0.01),),
        _COMMON_LAYERS + _SA_LAYERS + ("closedloop.direct_estimate",
                                       "closedloop.indirect_estimate"),
    ),
    Workload(
        "transient_wideband",
        (ScenarioRun("transient_wideband",
                     {"scenario": TRANSIENT, "multisine": {"period_seconds": 50.0}},
                     "lpm", "frf_lpm.csv", "lpm", 0.01),),
        _COMMON_LAYERS + _SA_LAYERS + ("estimators.lpm_fit",
                                       "closedloop.true_sensitivity"),
    ),
    Workload(
        "mimo_lpm",
        (ScenarioRun("mimo_lpm",
                     {"scenario": MIMO, "estimators": ["lpm"], "noise_std": 1e-3,
                      "multisine": {"period_seconds": 10.0}},
                     "g_full", "g_full.csv", "g_full_11", 0.002),),
        _COMMON_LAYERS + ("estimators.lpm_fit", "sim.closed_loop_steady_state",
                          "closedloop.run_mimo_experiments", "closedloop.full_plant",
                          "closedloop.equivalent_plant"),
    ),
    Workload(
        "config_matrix",
        (_transient("sa_rect", 0.02), _transient("sa_hann", 0.03),
         _transient("lpm", 0.01), _bias("direct_sa", 0.06), _bias("indirect_sa", 0.04),
         _bias("indirect_lpm", 0.04),  # never yet gave an estimate; indirect_sa's bound
         _mimo("sa_rect", 1e-9), _mimo("lpm", 6e-4)),
        _COMMON_LAYERS + _SA_LAYERS + (
            "estimators.lpm_fit", "sim.closed_loop_steady_state",
            "closedloop.true_sensitivity", "closedloop.direct_estimate",
            "closedloop.indirect_estimate", "closedloop.run_mimo_experiments",
            "closedloop.full_plant", "closedloop.equivalent_plant"),
    ),
)}
