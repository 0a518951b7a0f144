import numpy as np
import pytest

from genalpha.cli import main
from genalpha.config import ExperimentConfig, parse_config
from genalpha.errors import ConfigurationError


MINIMAL_SWEEP = """
[experiment]
name = amplification-sweep
"""


class TestParseConfig:
    def test_minimal_config_gets_defaults(self):
        config = parse_config(MINIMAL_SWEEP)
        assert config.experiment == "amplification-sweep"
        assert config.rho_inf == 0.5
        assert config.n_steps == 100
        assert config.out_dir == "out"
        assert config.write_csv

    def test_rho_inf_and_gamma_mutually_exclusive(self):
        text = MINIMAL_SWEEP + "[integrator]\nrho_inf = 0.5\ngamma = 0.6\n"
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            parse_config(text)

    def test_dt_schedule_with_repeat(self):
        text = ("[experiment]\nname = conslaw-balance\n"
                "[integrator]\ndt_schedule = 0.001,0.002,repeat\nn_steps = 5\n")
        config = parse_config(text)
        assert config.dt_schedule == (0.001, 0.002)
        assert config.schedule_repeats
        assert config.step_sizes() == [0.001, 0.002, 0.001, 0.002, 0.001]

    def test_explicit_schedule_sets_n_steps(self):
        text = ("[experiment]\nname = conslaw-balance\n"
                "[integrator]\ndt_schedule = 0.001,0.002,0.001\n")
        config = parse_config(text)
        assert config.step_sizes() == [0.001, 0.002, 0.001]

    def test_unknown_key_reports_line(self):
        text = "[experiment]\nname = amplification-sweep\nwaffles = 7\n"
        with pytest.raises(ConfigurationError, match="line 3"):
            parse_config(text)

    def test_unknown_section_reports_line(self):
        with pytest.raises(ConfigurationError, match="line 1"):
            parse_config("[wormhole]\n")

    def test_type_mismatch_reports_line(self):
        text = "[experiment]\nname = amplification-sweep\n[integrator]\ndt = soup\n"
        with pytest.raises(ConfigurationError, match="line 4"):
            parse_config(text)

    def test_missing_name(self):
        with pytest.raises(ConfigurationError, match="name"):
            parse_config("[integrator]\ndt = 0.001\n")

    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            parse_config("[experiment]\nname = tea-ceremony\n")

    def test_partial_triple_rejected(self):
        text = MINIMAL_SWEEP + "[integrator]\nalpha_m = 0.9\nalpha_f = 0.7\n"
        with pytest.raises(ConfigurationError, match="missing"):
            parse_config(text)

    def test_duplicate_key_rejected(self):
        text = MINIMAL_SWEEP + "[integrator]\ndt = 0.1\ndt = 0.2\n"
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_config(text)

    def test_two_dt_forms_rejected(self):
        text = MINIMAL_SWEEP + "[integrator]\ndt = 0.1\ndt_list = 0.1,0.05,0.025\n"
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            parse_config(text)

    def test_comments_and_blanks_ignored(self):
        text = ("# leading comment\n\n[experiment]\n"
                "name = amplification-sweep  # trailing\n")
        assert parse_config(text).experiment == "amplification-sweep"

    def test_convergence_default_dt_list(self):
        config = parse_config("[experiment]\nname = ode-convergence\n")
        assert config.dt_list == (0.1, 0.05, 0.025, 0.0125)

    def test_explicit_triple_params_with_beta(self):
        text = ("[experiment]\nname = second-order-identity\n"
                "[integrator]\nalpha_m = 0.9\nalpha_f = 0.7\ngamma = 0.7\n")
        params = parse_config(text).params()
        assert params.rho_inf is None
        assert params.beta == pytest.approx(0.25 * 1.2 ** 2)


    @pytest.mark.parametrize("section, key, value", [
        ("spatial", "n_elements", "0"),
        ("integrator", "t_final", "0"),
    ])
    def test_zero_is_rejected_not_defaulted(self, section, key, value):
        text = ("[experiment]\nname = ode-convergence\n"
                f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigurationError, match=f"line 4: {key} must be"):
            parse_config(text)


# a value the user gives must be rejected, never swapped for the default
ZERO_VALUE_CONFIGS = [
    "[experiment]\nname = conslaw-balance\n[spatial]\nn_elements = 0\n",
    "[experiment]\nname = ode-convergence\n[integrator]\nt_final = 0\n",
]

# out-of-range values that `run` would reject: (config, line named)
OUT_OF_RANGE_CONFIGS = {
    "rho_inf-nan": ("[experiment]\nname = amplification-sweep\n"
                    "[integrator]\nrho_inf = nan\n", 4),
    "dt-negative": ("[experiment]\nname = conslaw-balance\n"
                    "[integrator]\ndt = -1\n", 4),
    "dt-inf": ("[experiment]\nname = conslaw-balance\n"
               "[integrator]\ndt = inf\n", 4),
    "dt_schedule-negative": ("[experiment]\nname = conslaw-balance\n"
                             "[integrator]\ndt_schedule = 0.001,-0.002\n", 4),
    "kappa-zero": ("[experiment]\nname = advdiff-balance\n"
                   "[spatial]\nkappa = 0\n", 4),
    "euler-amplitude": ("[experiment]\nname = conslaw-balance\nmodel = euler\n"
                        "[spatial]\namplitude = 5\n", 5),
    "kappa-inf": ("[experiment]\nname = advdiff-balance\n"
                  "[spatial]\nkappa = inf\n", 4),
    "a-nan": ("[experiment]\nname = advdiff-balance\n[spatial]\na = nan\n", 4),
    "a-inf": ("[experiment]\nname = advdiff-balance\n[spatial]\na = inf\n", 4),
    "euler-gamma_gas": ("[experiment]\nname = conslaw-balance\nmodel = euler\n"
                        "[spatial]\ngamma_gas = 1.0\n", 5),
    "compare-gamma_gas": ("[experiment]\nname = nonconservative-compare\n"
                          "[spatial]\ngamma_gas = 0.5\n", 4),
    "dt_list-repeated": ("[experiment]\nname = ode-convergence\n[integrator]\n"
                         "dt_list = 0.1,0.1,0.05,0.025\n", 4),
    # an empty value is rejected, not swapped for the default
    "model-empty": ("[experiment]\nname = conslaw-balance\nmodel =\n", 3),
    "stabilization-empty": ("[experiment]\nname = advdiff-balance\n"
                            "[spatial]\nstabilization = \n", 4),
    "forcing-empty": ("[experiment]\nname = advdiff-balance\n"
                      "[spatial]\nforcing =\n", 4),
    "directory-empty": ("[experiment]\nname = conslaw-balance\n"
                        "[output]\ndirectory =\n", 4),
}


class TestCli:
    def _write(self, tmp_path, text):
        path = tmp_path / "exp.ini"
        path.write_text(text)
        return path

    def test_validate_ok(self, tmp_path, capsys):
        path = self._write(tmp_path, MINIMAL_SWEEP)
        assert main(["validate", str(path)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_reports_error_with_line(self, tmp_path, capsys):
        path = self._write(tmp_path, "[experiment]\nname = amplification-sweep\n"
                                     "zap = 1\n")
        assert main(["validate", str(path)]) == 1
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ZERO_VALUE_CONFIGS,
                             ids=["n_elements", "t_final"])
    def test_validate_rejects_zero_values(self, tmp_path, capsys, text):
        path = self._write(tmp_path, text)
        assert main(["validate", str(path)]) == 1
        assert "line 4" in capsys.readouterr().err

    @pytest.mark.parametrize("text, line", OUT_OF_RANGE_CONFIGS.values(),
                             ids=OUT_OF_RANGE_CONFIGS)
    def test_validate_rejects_what_run_rejects(self, tmp_path, capsys, text,
                                               line):
        with pytest.raises(ConfigurationError, match=f"line {line}: "):
            parse_config(text)
        assert main(["validate", str(self._write(tmp_path, text))]) == 1
        assert f"line {line}: " in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.ini")]) == 1

    def test_run_writes_outputs(self, tmp_path, capsys):
        path = self._write(tmp_path, MINIMAL_SWEEP)
        out = tmp_path / "results"
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert (out / "summary.txt").exists()
        assert (out / "amplification-sweep-amplification.csv").exists()

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        path = self._write(tmp_path, MINIMAL_SWEEP)
        main(["run", str(path), "--out", str(tmp_path / "o"), "--quiet"])
        assert capsys.readouterr().out == ""

    def test_tolerance_failure_exits_2(self, tmp_path):
        # gamma violated by 0.25: observed order collapses to one
        text = ("[experiment]\nname = ode-convergence\n"
                "[integrator]\nalpha_m = 0.8333333333333334\n"
                "alpha_f = 0.6666666666666666\ngamma = 0.9166666666666667\n")
        path = self._write(tmp_path, text)
        assert main(["run", str(path), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 2

    def test_runtime_error_exits_1(self, tmp_path, capsys):
        text = ("[experiment]\nname = advdiff-balance\n"
                "[integrator]\nn_steps = 1\n[spatial]\nkappa = -1.0\n")
        path = self._write(tmp_path, text)
        assert main(["run", str(path), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 1
        assert "kappa" in capsys.readouterr().err

    def test_runtime_failure_exits_1(self, tmp_path, capsys):
        # admissible initial data whose large steps make the density negative
        text = ("[experiment]\nname = conslaw-balance\nmodel = euler\n"
                "[integrator]\ndt = 0.5\nn_steps = 3\n"
                "[spatial]\nn_elements = 8\namplitude = 0.9\n")
        path = self._write(tmp_path, text)
        assert main(["validate", str(path)]) == 0
        assert main(["run", str(path), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 1
        assert "AdmissibilityError" in capsys.readouterr().err

    def test_csv_byte_identical_across_runs(self, tmp_path):
        text = ("[experiment]\nname = second-order-identity\n"
                "[integrator]\ndt = 0.01\nn_steps = 20\n")
        path = self._write(tmp_path, text)
        main(["run", str(path), "--out", str(tmp_path / "a"), "--quiet"])
        main(["run", str(path), "--out", str(tmp_path / "b"), "--quiet"])
        a = (tmp_path / "a" / "second-order-identity-identity.csv").read_bytes()
        b = (tmp_path / "b" / "second-order-identity-identity.csv").read_bytes()
        assert a == b

    def test_ode_convergence_passes_with_defaults(self, tmp_path):
        path = self._write(tmp_path, "[experiment]\nname = ode-convergence\n")
        assert main(["run", str(path), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 0
        summary = (tmp_path / "o" / "summary.txt").read_text()
        assert "PASS: observed order" in summary

    def test_burgers_balance_certified(self, tmp_path):
        text = ("[experiment]\nname = conslaw-balance\nmodel = burgers\n"
                "[integrator]\ndt = 0.001\nn_steps = 20\n"
                "[spatial]\nn_elements = 32\n")
        path = self._write(tmp_path, text)
        assert main(["run", str(path), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 0
        summary = (tmp_path / "o" / "summary.txt").read_text()
        assert "certified = True" in summary
        assert (tmp_path / "o" / "conslaw-balance-balance.csv").exists()

    def test_nonconservative_compare_passes(self, tmp_path):
        text = ("[experiment]\nname = nonconservative-compare\n"
                "[integrator]\ndt = 0.002\nn_steps = 20\n"
                "[spatial]\nn_elements = 32\n")
        path = self._write(tmp_path, text)
        assert main(["run", str(path), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 0
        summary = (tmp_path / "o" / "summary.txt").read_text()
        assert "PASS: standard scheme drifts" in summary
        assert "PASS: modified scheme conserves" in summary

    def test_summary_contains_pass_lines(self, tmp_path):
        text = ("[experiment]\nname = second-order-identity\n"
                "[integrator]\ndt = 0.01\nn_steps = 100\n")
        path = self._write(tmp_path, text)
        assert main(["run", str(path), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 0
        summary = (tmp_path / "o" / "summary.txt").read_text()
        assert "PASS: identity residual" in summary
        assert "PASS: solution error" in summary
