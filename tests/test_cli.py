import copy
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frfkit.cli import (
    _ESTIMATORS,
    _FIELDS,
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

FAST_CUSTOM = {
    "scenario": "custom",
    "fs_hz": 500.0,
    "multisine": {"period_seconds": 1.0, "rms": 0.5},
    "n_periods_total": 2,
    "noise_std": 0.0,
    "estimators": ["sa_rect", "lpm"],
    "seeds": {"phase": 11},
}

LEFT_OUT = object()  # a field value that removes the field from the config


def with_value(doc, path, value):
    """A copy of ``doc`` with ``value`` at the dotted ``path``."""
    doc = copy.deepcopy(doc)
    *sections, key = path.split(".")
    node = doc
    for name in sections:
        node = node.setdefault(name, {})
    if value is LEFT_OUT:
        node.pop(key, None)
    else:
        node[key] = value
    return doc


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

    @pytest.mark.parametrize("text", [b"\xff\xfe{}", b'{"fs_hz": 1' + b"0" * 5000 + b"}"],
                             ids=["not_utf8", "int_over_digit_limit"])
    def test_undecodable_file(self, tmp_path, text):
        path = tmp_path / "config.json"
        path.write_bytes(text)
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

    def test_duplicate_estimator_rejected(self, tmp_path):
        doc = {**FAST_BIAS, "estimators": ["direct_sa", "indirect_sa", "direct_sa"]}
        with pytest.raises(ConfigError, match=r"\$\.estimators\[2\]"):
            parse_config(write_config(tmp_path, doc))

    def test_more_than_one_mimo_estimator_rejected(self, tmp_path):
        doc = {**FAST_MIMO, "estimators": ["sa_rect", "lpm"]}
        with pytest.raises(ConfigError, match=r"\$\.estimators\[1\]"):
            parse_config(write_config(tmp_path, doc))


    def test_band_without_excited_bin_rejected(self, tmp_path, capsys):
        # 0.05 s periods at 1 kHz excite 440 and 480 Hz, both above the
        # default band's 400 Hz edge, so no band statistic could be formed
        doc = {"scenario": "custom", "fs_hz": 1000.0,
               "multisine": {"period_seconds": 0.05, "excited_bins": [22, 24]},
               "n_periods_total": 2, "noise_std": 0.0, "estimators": ["sa_rect"],
               "seeds": {"phase": 1}, "output_dir": str(tmp_path / "out")}
        assert main(["run", str(write_config(tmp_path, doc))]) == 2
        assert "$.band_hz" in capsys.readouterr().err

    @pytest.mark.parametrize("path,value", [("seeds.phase", -1), ("seeds.noise", -2)])
    def test_negative_seed_rejected_by_path(self, tmp_path, capsys, path, value):
        doc = with_value({**FAST_TRANSIENT, "output_dir": str(tmp_path / "out")},
                         path, value)
        config = write_config(tmp_path, doc)
        with pytest.raises(ConfigError, match=rf"\$\.{path}: must be >= 0"):
            parse_config(config)
        assert main(["run", str(config)]) == 2
        assert f"$.{path}" in capsys.readouterr().err

    @pytest.mark.parametrize("path,value", [("fs_hz", 1e308), ("n_periods_total", 10**5)])
    def test_record_too_long_rejected(self, tmp_path, capsys, path, value):
        # 1e308 Hz overflows the period's sample count to inf; 10**5 periods
        # of 500 samples are a finite record of 5e7 samples
        doc = with_value({**FAST_TRANSIENT, "output_dir": str(tmp_path / "out")},
                         path, value)
        config = write_config(tmp_path, doc)
        with pytest.raises(ConfigError, match=r"\$\.multisine\.period_seconds: a record of"):
            parse_config(config)
        assert main(["run", str(config)]) == 2
        assert "$.multisine.period_seconds" in capsys.readouterr().err

    @pytest.mark.parametrize("path,value", [
        ("fs_hz", math.inf),
        ("multisine.period_seconds", math.inf),
        ("multisine.rms", math.inf),
        ("controller.gain", math.nan),
        ("controller.zero", math.inf),
        ("controller.pole", -math.inf),
        ("noise_std", math.inf),
        ("noise_std", [1e-4, math.nan]),
        ("band_hz", [math.nan, 100.0]),
        ("band_hz", [0.4, math.inf]),
        ("multisine.excited_bins.min_hz", math.nan),
        ("multisine.excited_bins.max_hz", math.inf),
        pytest.param("fs_hz", 10**400, id="fs_hz-int_beyond_float"),
        pytest.param("n_periods_total", 10**400, id="n_periods_total-int_beyond_float"),
    ])
    def test_non_finite_number_rejected_by_path(self, tmp_path, capsys, path, value):
        # json writes NaN and Infinity, and json reads them back
        doc = with_value({**FAST_TRANSIENT, "output_dir": str(tmp_path / "out")},
                         path, value)
        config = write_config(tmp_path, doc)
        with pytest.raises(ConfigError, match=rf"\$\.{path}"):
            parse_config(config)
        assert main(["run", str(config)]) == 2
        assert f"$.{path}" in capsys.readouterr().err


class TestConfigSchema:
    """The one table of config fields: the validator built on it, and the
    README's copy of it."""

    @staticmethod
    def candidates(field, base) -> list:
        """Values to try at ``field.path``, from the row's kind and bound:
        left out, on, just inside and just outside each bound, non-finite
        and of a wrong type. A bound that names an attribute reads it from
        ``base``, the parsed config being mutated."""
        def near(limit):
            if field.kind == "int":
                return [limit, limit + 1, limit - 1]
            return [limit, math.nextafter(limit, math.inf), math.nextafter(limit, -math.inf)]

        edges = near(0.0) + [math.nan, math.inf]
        out = [LEFT_OUT, math.nan, math.inf, -math.inf]
        out += [1] if field.kind in ("str", "plant") else [True, "x"]
        if field.kind in ("number", "int", "number-or-list"):
            rules = (field.bound,) if isinstance(field.bound, str) else field.bound or ()
            for rule in rules:
                limit = rule.split()[1]
                out += near(getattr(base, limit) if hasattr(base, limit) else float(limit))
            if field.kind == "number-or-list":
                out += [[value] for value in out[1:]]
        elif field.kind == "choice":
            out += list(field.bound)
        elif field.kind == "band":
            lo, hi = base.band_hz
            out += [[x, hi] for x in edges] + [[lo, x] for x in edges + [lo]]
        elif field.kind == "excitation":
            out += ["full", [1], [0], [1, 1]] + [{"min_hz": x} for x in edges] \
                + [{"max_hz": x} for x in edges]
        elif field.kind == "estimators":
            names = sorted({name for table in _ESTIMATORS.values() for name in table})
            out += [[], ["lpm", "lpm"], ["sa_rect", "lpm"]] + [[name] for name in names]
        elif field.kind == "bool":
            out += [False]
        else:
            out += ["x", ""]
        return out

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(data=st.data())
    def test_one_mutated_field_parses_or_names_a_path(self, tmp_path_factory, data):
        base = data.draw(st.sampled_from([FAST_TRANSIENT, FAST_BIAS, FAST_MIMO, FAST_CUSTOM]))
        field = data.draw(st.sampled_from(_FIELDS))
        workdir = tmp_path_factory.mktemp("schema")
        parsed = parse_config(write_config(workdir, base))
        value = data.draw(st.sampled_from(self.candidates(field, parsed)))
        try:
            cfg = parse_config(write_config(workdir, with_value(base, field.path, value)))
        except ConfigError as exc:
            assert "$." in str(exc)
        else:
            json.dumps(cfg.echo(), allow_nan=False)

    def test_readme_lists_every_field_with_its_kind(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        rows = [line.split("|") for line in readme.read_text(encoding="utf-8").splitlines()
                if line.startswith("| `")]
        kinds = {cells[1].strip(): cells[2].strip() for cells in rows}
        for field in _FIELDS:
            assert kinds.get(f"`{field.path}`") == field.kind, field.path


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

    def test_steady_state_start_removes_the_transient(self, tmp_path):
        # noise-free: from rest the first period carries the transient;
        # from the periodic steady state the estimate is exact
        doc = {**MINIMAL_TRANSIENT, "multisine": {"period_seconds": 1.0},
               "estimators": ["sa_rect"], "noise_std": 0.0}
        errors = {}
        for steady in (False, True):
            cfg = parse_config(write_config(tmp_path, {**doc, "steady_state_start": steady}))
            errors[steady] = run_scenario(cfg).band_stats["sa_rect"]["mean_error_abs"]
        assert errors[False] > 1e-4
        assert errors[True] < 1e-12

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

    def test_mimo_statistics_over_no_finite_bin_are_null(self, tmp_path):
        # three excited bins on a 20-sample period: every 9-bin LPM window
        # holds too few excited bins, so no excited bin gets an estimate
        doc = {"scenario": "mimo_full_vs_equivalent", "fs_hz": 200.0,
               "multisine": {"period_seconds": 0.1, "excited_bins": [3, 6, 8]},
               "n_periods_total": 3, "estimators": ["lpm"], "seeds": {"phase": 1}}
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, doc)), "--out", str(out)]) == 3
        extra = json.loads((out / "summary.json").read_text())["extra_statistics"]
        assert extra["max_gap_vs_interaction_dev"] is None
        assert extra["max_interaction_magnitude"] > 0

    def test_noise_free_bias_asymptote_is_nan_where_undriven(self, tmp_path):
        # no excitation and no noise at DC: the asymptote's denominator is 0
        doc = {"scenario": "closed_loop_siso_bias", "fs_hz": 200.0,
               "multisine": {"period_seconds": 0.1}, "n_periods_total": 3,
               "n_periods_used": 2, "noise_std": 0.0, "estimators": ["direct_sa"],
               "seeds": {"phase": 1}}
        report = run_scenario(parse_config(write_config(tmp_path, doc)))
        asymptote = report.oracles["bias_asymptote"].g[:, 0, 0]
        assert np.isnan(asymptote[0])
        assert np.all(np.isfinite(asymptote[1:-1]))

    def test_defect_fraction_counts_each_bin_once(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, FAST_BIAS))
        report = run_scenario(cfg)
        # the indirect estimate logs its one bad bin twice: once from the
        # open-loop fit, once as sensitivity_not_finite
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

    @pytest.mark.parametrize("base,noise_std", [
        (FAST_TRANSIENT, [0.0, 0.0, 5.0]),
        (FAST_BIAS, [0.05, 0.05]),
        ({**FAST_MIMO, "seeds": {"phase": 5, "noise": 6}}, [1e-3, 1e-3, 1e-3]),
    ], ids=["transient", "bias", "mimo"])
    def test_noise_std_must_match_plant_outputs(self, tmp_path, capsys, base, noise_std):
        doc = {**base, "noise_std": noise_std, "output_dir": str(tmp_path / "out")}
        assert main(["run", str(write_config(tmp_path, doc))]) == 2
        assert "$.noise_std" in capsys.readouterr().err

    def test_one_noise_std_applies_to_every_output(self, tmp_path):
        reports = [run_scenario(parse_config(write_config(
            tmp_path, {**FAST_MIMO, "noise_std": noise, "seeds": {"phase": 5, "noise": 6}})))
            for noise in (1e-3, [1e-3])]
        assert np.array_equal(reports[0].estimates["gs"].g, reports[1].estimates["gs"].g)


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

    @pytest.mark.parametrize("doc", [FAST_TRANSIENT, FAST_MIMO],
                             ids=["transient", "mimo"])
    def test_curves_view_equals_curves_csv(self, tmp_path, doc):
        # perfbench counts the reported bins from this per-point view
        report = run_scenario(parse_config(write_config(tmp_path, doc)))
        out = tmp_path / "out"
        export_report(report, out)
        with (out / "curves.csv").open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            assert next(reader) == ["series", "kind", "frequency_hz", "value_db"]
            rows = [(series, kind, float(f), float(v)) for series, kind, f, v in reader]
        assert rows
        assert list(report.curves) == rows

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

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {**FAST_TRANSIENT,
                                       "output_dir": str(tmp_path / "out")})
        assert main(["run", str(path), "--seed-override", "-3"]) == 2
        assert "--seed-override" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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


REFERENCE_OUTPUTS = Path(__file__).with_name("reference_outputs.npz")
PAIR_PERIOD = 500  # samples per period of the accepted pairs; bins 1..249 excited


def accepted_pair_arrays(scenario, estimator, workdir) -> dict:
    """Every estimate of one accepted pair at the geometry of
    ``TestEveryAcceptedPair``, keyed ``scenario/estimator/estimate/field``.

    ``g`` and ``variance`` are kept at the bins the run reports on (the
    excited bins on the estimate's grid); elsewhere an SA value is a ratio
    of round-off. Over all bins come the NaN mask of ``g`` (``nan``) and
    the sorted ``(bin, reason)`` defect set (``bins``, ``reasons``).
    """
    doc = {"scenario": scenario, "estimators": [estimator],
           "multisine": {"period_seconds": 0.5},
           "n_periods_total": 3, "n_periods_used": 2,
           "seeds": {"phase": 1, "noise": 2}}
    if scenario == "custom":
        doc.update(fs_hz=1000.0, noise_std=1e-4)
    report = run_scenario(parse_config(write_config(workdir, doc)))
    half = PAIR_PERIOD // 2
    arrays = {}
    for name, est in report.estimates.items():
        key = f"{scenario}/{estimator}/{name}"
        reported = (est.n_bins - 1) // half * np.arange(1, half)
        arrays[f"{key}/g"] = est.g[reported]
        if est.variance is not None:
            arrays[f"{key}/variance"] = est.variance[reported]
        arrays[f"{key}/nan"] = np.isnan(est.g)
        defects = sorted({(d.bin_index, d.reason) for d in est.defects})
        arrays[f"{key}/bins"] = np.array([b for b, _ in defects], dtype=np.int64)
        arrays[f"{key}/reasons"] = np.array([r for _, r in defects], dtype=str)
    return arrays


class TestReferenceOutputs:
    """Reruns every accepted pair against ``reference_outputs.npz``, so a
    numerical rewrite that moves more than round-off shows in Tier-1.

    Values agree to 1e-10 of the largest finite reference magnitude of
    their array; a variance is measured against the larger of its own
    scale and ``|g|**2``, because a noise-free run's variance is
    round-off. NaN masks and defect sets must be identical. Regenerate
    the file with ``PYTHONPATH=src python tests/test_cli.py`` only for an
    intended change of the outputs.
    """

    @pytest.mark.parametrize("scenario,estimator", ACCEPTED_PAIRS)
    def test_matches_committed_reference(self, tmp_path, scenario, estimator):
        prefix = f"{scenario}/{estimator}/"
        with np.load(REFERENCE_OUTPUTS) as ref:
            expected = {k: ref[k] for k in ref.files if k.startswith(prefix)}
        actual = accepted_pair_arrays(scenario, estimator, tmp_path)
        assert actual.keys() == expected.keys()
        for key, want in expected.items():
            got = actual[key]
            if want.dtype.kind not in "fc":
                assert np.array_equal(got, want), key
                continue
            assert np.array_equal(np.isnan(got), np.isnan(want)), key
            finite = np.isfinite(want)
            scale = np.max(np.abs(want[finite]), initial=0.0)
            if key.endswith("/variance"):
                g = expected[key.replace("/variance", "/g")]
                scale = max(scale, np.max(np.abs(g[np.isfinite(g)]), initial=0.0) ** 2)
            assert np.max(np.abs(got[finite] - want[finite]), initial=0.0) \
                <= 1e-10 * scale, key


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

    @pytest.mark.parametrize("content", [None, "{not json", "5", '{"A": [[0.5]]}'],
                             ids=["missing_file", "invalid_json", "not_an_object",
                                  "missing_matrices"])
    def test_unreadable_plant_file_exits_2(self, tmp_path, capsys, content):
        model_path = tmp_path / "plant.json"
        if content is not None:
            model_path.write_text(content, encoding="utf-8")
        doc = {**FAST_TRANSIENT, "plant": {"source": "json", "path": str(model_path)},
               "output_dir": str(tmp_path / "out")}
        assert main(["run", str(write_config(tmp_path, doc))]) == 2
        assert "$.plant.path" in capsys.readouterr().err

    def test_plant_path_must_be_a_string(self, tmp_path, capsys):
        doc = {**FAST_TRANSIENT, "plant": {"source": "json", "path": 5},
               "output_dir": str(tmp_path / "out")}
        with pytest.raises(ConfigError, match=r"\$\.plant\.path"):
            parse_config(write_config(tmp_path, doc))
        assert main(["run", str(write_config(tmp_path, doc))]) == 2
        assert "$.plant.path" in capsys.readouterr().err


if __name__ == "__main__":
    # writes the reference file that TestReferenceOutputs compares against
    reference = {}
    with tempfile.TemporaryDirectory() as workdir:
        for scenario, estimator in ACCEPTED_PAIRS:
            reference.update(accepted_pair_arrays(scenario, estimator, Path(workdir)))
    np.savez_compressed(REFERENCE_OUTPUTS, **reference)


class TestImport:
    def test_cli_loads_no_scipy(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        code = ("import sys, frfkit.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "[]"

