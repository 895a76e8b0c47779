import json

import numpy as np
import pytest

from frfkit.cli import (
    ConfigError,
    export_report,
    main,
    parse_config,
    run_scenario,
)
from frfkit.sim import benchmark_plant, write_statespace_json


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


MINIMAL_TRANSIENT = {"scenario": "transient_study", "seeds": {"phase": 1, "noise": 2}}

FAST_TRANSIENT = {
    "scenario": "transient_study",
    "multisine": {"period_seconds": 0.5},
    "seeds": {"phase": 1, "noise": 2},
}

FAST_BIAS = {
    "scenario": "closed_loop_siso_bias",
    "multisine": {"period_seconds": 0.5},
    "n_periods_total": 30,
    "n_periods_used": 25,
    "seeds": {"phase": 3, "noise": 4},
}

FAST_MIMO = {
    "scenario": "mimo_full_vs_equivalent",
    "multisine": {"period_seconds": 0.5},
    "seeds": {"phase": 5},
}


class TestParseConfig:
    def test_minimal_transient_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, MINIMAL_TRANSIENT))
        assert cfg.fs_hz == 1000.0
        assert cfg.period_seconds == 5.0
        assert cfg.period_samples == 5000
        assert cfg.lpm_poly_order == 2
        assert cfg.n_periods_total == 2
        assert cfg.n_periods_used == 2
        assert cfg.estimators == ("sa_rect", "sa_hann", "lpm")

    def test_unknown_key_named(self, tmp_path):
        doc = dict(MINIMAL_TRANSIENT)
        doc["windwo"] = 5
        with pytest.raises(ConfigError, match="windwo"):
            parse_config(write_config(tmp_path, doc))

    def test_nested_unknown_key_has_path(self, tmp_path):
        doc = {**MINIMAL_TRANSIENT, "multisine": {"period_secods": 5.0}}
        with pytest.raises(ConfigError, match=r"period_secods.*\$\.multisine"):
            parse_config(write_config(tmp_path, doc))

    def test_periods_used_exceeding_total(self, tmp_path):
        doc = {**MINIMAL_TRANSIENT, "n_periods_total": 2, "n_periods_used": 3}
        with pytest.raises(ConfigError, match="n_periods_used"):
            parse_config(write_config(tmp_path, doc))

    def test_seeds_required(self, tmp_path):
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(write_config(tmp_path, {"scenario": "transient_study"}))

    def test_noise_seed_required_with_noise(self, tmp_path):
        doc = {"scenario": "transient_study", "seeds": {"phase": 1},
               "noise_std": 0.1}
        with pytest.raises(ConfigError, match="seeds.noise"):
            parse_config(write_config(tmp_path, doc))

    def test_noise_seed_optional_without_noise(self, tmp_path):
        doc = {"scenario": "transient_study", "seeds": {"phase": 1},
               "noise_std": 0.0}
        cfg = parse_config(write_config(tmp_path, doc))
        assert cfg.noise_std == (0.0,)

    def test_custom_requires_geometry(self, tmp_path):
        doc = {"scenario": "custom", "seeds": {"phase": 1}}
        with pytest.raises(ConfigError, match="required for a custom scenario"):
            parse_config(write_config(tmp_path, doc))

    def test_estimator_scenario_mismatch(self, tmp_path):
        doc = {**MINIMAL_TRANSIENT, "estimators": ["direct_sa"]}
        with pytest.raises(ConfigError, match="direct_sa"):
            parse_config(write_config(tmp_path, doc))

    def test_band_excitation(self, tmp_path):
        doc = {**FAST_TRANSIENT,
               "multisine": {"period_seconds": 0.5,
                             "excited_bins": {"min_hz": 2.0, "max_hz": 50.0}}}
        cfg = parse_config(write_config(tmp_path, doc))
        assert cfg.excited_bins == (2.0, 50.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            parse_config(path)

    def test_period_shorter_than_four_samples(self, tmp_path):
        for seconds in (0.002, 0.0005):
            doc = {**MINIMAL_TRANSIENT, "multisine": {"period_seconds": seconds}}
            with pytest.raises(ConfigError, match=r"\$\.multisine\.period_seconds"):
                parse_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize("bins", [[10, 400], [10, 50, 10]])
    def test_excited_bin_outside_period_or_repeated(self, tmp_path, bins):
        doc = {**FAST_TRANSIENT,
               "multisine": {"period_seconds": 0.5, "excited_bins": bins}}
        with pytest.raises(ConfigError, match=r"\$\.multisine\.excited_bins"):
            parse_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize("half_width", [1, 2])
    def test_lpm_window_too_narrow_for_its_parameters(self, tmp_path, half_width):
        doc = {**FAST_TRANSIENT, "estimators": ["lpm"],
               "lpm": {"half_width": half_width}}
        with pytest.raises(ConfigError, match=r"\$\.lpm\.half_width"):
            parse_config(write_config(tmp_path, doc))

    def test_narrow_lpm_window_accepted_without_lpm(self, tmp_path):
        doc = {**FAST_TRANSIENT, "estimators": ["sa_rect"], "lpm": {"half_width": 1}}
        assert parse_config(write_config(tmp_path, doc)).lpm_half_width == 1

    def test_lpm_record_shorter_than_its_window(self, tmp_path):
        doc = {**MINIMAL_TRANSIENT, "multisine": {"period_seconds": 0.006},
               "n_periods_total": 1, "estimators": ["lpm"]}
        with pytest.raises(ConfigError, match=r"\$\.multisine\.period_seconds"):
            parse_config(write_config(tmp_path, doc))

    def test_rejected_geometry_exits_2(self, tmp_path, capsys):
        doc = {**MINIMAL_TRANSIENT, "multisine": {"period_seconds": 0.002},
               "output_dir": str(tmp_path / "out")}
        assert main(["run", str(write_config(tmp_path, doc))]) == 2
        assert "$.multisine.period_seconds" in capsys.readouterr().err


class TestRunScenario:
    def test_transient_study_report(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, FAST_TRANSIENT))
        report = run_scenario(cfg)
        assert set(report.estimates) == {"sa_rect", "sa_hann", "lpm"}
        assert "oracle" in report.oracles
        for name in report.estimates:
            stats = report.band_stats[name]
            assert stats["n_bins"] > 0
            assert np.isfinite(stats["max_error_abs"])
        # the ordering claim (local method beating the windowed estimates)
        # needs the full 5 s resolution and lives in the acceptance suite
        kinds = {kind for _, kind, _, _ in report.curves}
        assert kinds == {"magnitude_db", "error_db"}

    def test_transient_with_discarded_periods(self, tmp_path):
        doc = {**FAST_TRANSIENT, "n_periods_total": 8, "n_periods_used": 2}
        cfg = parse_config(write_config(tmp_path, doc))
        report = run_scenario(cfg)
        # steady data: the windowed estimate loses its transient handicap
        # and lands within 20 dB of the local method
        gap = report.band_stats["sa_rect"]["max_error_db"] \
            - report.band_stats["lpm"]["max_error_db"]
        assert gap < 20.0

    def test_bias_report(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, FAST_BIAS))
        report = run_scenario(cfg)
        assert set(report.estimates) == {"direct_sa", "indirect_sa"}
        assert "bias_asymptote" in report.oracles
        assert report.extra_stats["direct_within_3se_of_asymptote"] > 0.8
        assert report.band_stats["indirect_sa"]["mean_error_abs"] < \
            report.band_stats["direct_sa"]["mean_error_abs"]

    def test_mimo_report_gap_identity(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, FAST_MIMO))
        report = run_scenario(cfg)
        assert set(report.estimates) == {"gs", "s", "g_full", "g_equiv"}
        assert report.extra_stats["max_gap_vs_interaction_dev"] < 1e-6
        assert report.extra_stats["max_interaction_magnitude"] > 0.01

    def test_defect_fraction_counts_each_bin_once(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, FAST_BIAS))
        report = run_scenario(cfg)
        # the indirect estimate logs its one bad bin twice: once from the
        # open-loop fit, once as sensitivity_floored
        assert len(report.defect_log) == 2
        assert round(report.defect_fraction(), 6) == 0.001992

    def test_custom_scenario_runs(self, tmp_path):
        doc = {
            "scenario": "custom",
            "fs_hz": 500.0,
            "multisine": {"period_seconds": 1.0, "rms": 0.5},
            "n_periods_total": 2,
            "noise_std": 0.0,
            "estimators": ["sa_rect", "lpm"],
            "seeds": {"phase": 11},
        }
        cfg = parse_config(write_config(tmp_path, doc))
        report = run_scenario(cfg)
        assert set(report.estimates) == {"sa_rect", "lpm"}


class TestExportReport:
    def test_transient_files(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, FAST_TRANSIENT))
        report = run_scenario(cfg)
        out = tmp_path / "out"
        export_report(report, out)
        for name in ("frf_sa_rect.csv", "frf_sa_hann.csv", "frf_lpm.csv",
                     "oracle.csv", "summary.json", "curves.csv", "run_meta.json"):
            assert (out / name).exists(), name

    def test_mimo_files(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, FAST_MIMO))
        report = run_scenario(cfg)
        out = tmp_path / "out"
        export_report(report, out)
        for name in ("gs.csv", "s.csv", "g_full.csv", "g_equiv.csv", "summary.json"):
            assert (out / name).exists(), name

    def test_summary_echoes_config(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, FAST_TRANSIENT))
        report = run_scenario(cfg)
        out = tmp_path / "out"
        export_report(report, out)
        summary = json.loads((out / "summary.json").read_text())
        echo = summary["config"]
        assert echo["fs_hz"] == 1000.0
        assert echo["seeds"] == {"phase": 1, "noise": 2}
        assert echo["multisine"]["period_samples"] == 500
        assert echo["controller"]["gain"] == 50.0
        assert echo["lpm"]["poly_order"] == 2

    def test_rerun_byte_identical(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, FAST_TRANSIENT))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        export_report(run_scenario(cfg), out_a)
        export_report(run_scenario(cfg), out_b)
        for name in ("frf_sa_rect.csv", "frf_sa_hann.csv", "frf_lpm.csv",
                     "oracle.csv", "curves.csv", "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


class TestCliMain:
    def test_run_success_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {**FAST_TRANSIENT,
                                       "output_dir": str(tmp_path / "out")})
        assert main(["run", str(path)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert any("summary.json" in line for line in printed)

    def test_validation_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario": "transient_study"})
        assert main(["run", str(path)]) == 2
        assert "seeds" in capsys.readouterr().err

    def test_out_override(self, tmp_path):
        path = write_config(tmp_path, FAST_TRANSIENT)
        out = tmp_path / "elsewhere"
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert (out / "summary.json").exists()

    def test_seed_override_changes_output(self, tmp_path):
        path = write_config(tmp_path, FAST_TRANSIENT)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(path), "--out", str(out_a)]) == 0
        assert main(["run", str(path), "--out", str(out_b),
                     "--seed-override", "99"]) == 0
        assert (out_a / "frf_sa_rect.csv").read_bytes() != \
            (out_b / "frf_sa_rect.csv").read_bytes()
        summary = json.loads((out_b / "summary.json").read_text())
        assert summary["config"]["seeds"] == {"phase": 99, "noise": 100}

    def test_defect_threshold_exit_code(self, tmp_path, capsys):
        doc = {
            "scenario": "transient_study",
            "multisine": {"period_seconds": 0.5,
                          "excited_bins": [10, 50, 100, 150, 200]},
            "estimators": ["lpm"],
            "noise_std": 0.0,
            "seeds": {"phase": 9},
            "max_defect_fraction": 0.01,
            "output_dir": str(tmp_path / "out"),
        }
        path = write_config(tmp_path, doc)
        assert main(["run", str(path)]) == 3
        assert "defect fraction" in capsys.readouterr().err

    def test_oracle_subcommand(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        write_statespace_json(benchmark_plant(), model_path)
        out = tmp_path / "oracle.csv"
        assert main(["oracle", str(model_path), "--fs", "1000", "--bins", "64",
                     "--zoh", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("frequency_hz,g11_re")
        assert len(lines) == 65

    def test_oracle_continuous_without_zoh(self, tmp_path):
        model_path = tmp_path / "model.json"
        write_statespace_json(benchmark_plant(), model_path)
        out = tmp_path / "oracle_c.csv"
        assert main(["oracle", str(model_path), "--fs", "1000", "--bins", "16",
                     "--out", str(out)]) == 0
        assert out.exists()

    def test_oracle_bad_model_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["oracle", str(bad), "--fs", "1000", "--bins", "8"]) == 2


ACCEPTED_PAIRS = (
    [(s, e) for s in ("transient_study", "custom") for e in ("sa_rect", "sa_hann", "lpm")]
    + [("closed_loop_siso_bias", e) for e in ("direct_sa", "indirect_sa", "indirect_lpm")]
    + [("mimo_full_vs_equivalent", e) for e in ("sa_rect", "lpm")]
)


class TestEveryAcceptedPair:
    @pytest.mark.parametrize("scenario,estimator", ACCEPTED_PAIRS)
    def test_runs_and_writes_finite_statistics(self, tmp_path, scenario, estimator):
        doc = {"scenario": scenario, "estimators": [estimator],
               "multisine": {"period_seconds": 0.5},
               "n_periods_total": 3, "n_periods_used": 2,
               "seeds": {"phase": 1, "noise": 2}}
        if scenario == "custom":
            doc.update(fs_hz=1000.0, noise_std=1e-4)
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        for name in summary["files"]:
            assert (out / name).is_file(), name
        stats = summary["band_statistics"]
        record = "g_full" if scenario == "mimo_full_vs_equivalent" else estimator
        assert record in stats
        for entry in stats.values():
            assert entry["n_bins"] > 0
            assert np.isfinite(entry["max_error_abs"])
            assert np.isfinite(entry["mean_error_abs"])


class TestPlantFromJson:
    def test_run_with_external_plant(self, tmp_path):
        model_path = tmp_path / "plant.json"
        write_statespace_json(benchmark_plant(), model_path)
        doc = {**FAST_TRANSIENT,
               "plant": {"source": "json", "path": str(model_path)},
               "output_dir": str(tmp_path / "out")}
        path = write_config(tmp_path, doc)
        assert main(["run", str(path)]) == 0

    def test_unknown_plant_source(self, tmp_path):
        doc = {**MINIMAL_TRANSIENT, "plant": {"source": "matlab"}}
        with pytest.raises(ConfigError, match="source"):
            parse_config(write_config(tmp_path, doc))
