import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from mamab.cli import (
    SCHEMA,
    ConfigError,
    SUMMARY_HEADER,
    TRIALS_HEADER,
    _owned,
    emit_csv,
    main,
    parse_config,
    read_summary_csv,
    render_svg,
)
from mamab.environments import chain_env
from mamab.harness import ExperimentSpec, run_experiment
from mamab.policies import PolicyConfig

MINIMAL = """
env = bernoulli_chain
m = 10
d = 2
policy = eps_mats
epsilon = 0.1
c = ln_T
T = 10000
trials = 50
seed = 7
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestParseConfig:
    def test_minimal_config(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL))
        assert cfg.env.name == "bernoulli_chain_m10_d2"
        assert cfg.policy.kind == "eps_mats"
        assert cfg.horizon == 10000
        assert cfg.trials == 50
        assert cfg.base_seed == 7
        assert abs(cfg.policy.c - 9.21034037) < 1e-6

    def test_default_out_is_config_stem(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL, name="bern.cfg"))
        assert cfg.out_prefix == "bern"

    def test_epsilon_zero_rejected(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL.replace("epsilon = 0.1",
                                                   "epsilon = 0"))
        with pytest.raises(ConfigError, match="epsilon"):
            parse_config(path)

    def test_epsilon_above_one_rejected(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL.replace("epsilon = 0.1",
                                                   "epsilon = 1.5"))
        with pytest.raises(ConfigError, match="epsilon"):
            parse_config(path)

    def test_unknown_key_named(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "epsilonn = 0.2\n")
        with pytest.raises(ConfigError, match="epsilonn"):
            parse_config(path)

    def test_missing_key_named(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL.replace("T = 10000", ""))
        with pytest.raises(ConfigError, match="'T'"):
            parse_config(path)

    def test_type_mismatch_reports_location(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL.replace("T = 10000", "T = soon"))
        with pytest.raises(ConfigError, match=r"'T'.*line"):
            parse_config(path)

    def test_numeric_c(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL.replace("c = ln_T", "c = 2.5"))
        assert parse_config(path).policy.c == 2.5

    def test_bad_c_rejected(self, tmp_path):
        for bad in ("c = -1", "c = lnT"):
            path = write_cfg(tmp_path, MINIMAL.replace("c = ln_T", bad))
            with pytest.raises(ConfigError, match="'c'"):
                parse_config(path)

    def test_ln_T_at_one_round_names_the_resolution(self, tmp_path):
        # ln 1 = 0, so a one-round run with the default c must say why c is 0
        one_round = MINIMAL.replace("T = 10000", "T = 1")
        with pytest.raises(ConfigError, match=r"'c' \(line 7, ln_T at T = 1\).*got 0\.0"):
            parse_config(write_cfg(tmp_path, one_round))
        default_c = one_round.replace("c = ln_T\n", "")
        with pytest.raises(ConfigError, match=r"'c' \(default, ln_T at T = 1\)"):
            parse_config(write_cfg(tmp_path, default_c))
        assert parse_config(write_cfg(tmp_path, one_round.replace(
            "c = ln_T", "c = 1"))).policy.c == 1.0

    def test_inline_assignments_override_file(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL),
                           assignments=["epsilon=0.5", "trials=3"])
        assert cfg.policy.epsilon == 0.5
        assert cfg.trials == 3

    def test_pure_inline_mode(self):
        cfg = parse_config(None, assignments=[
            "env=lower_bound", "rho=2", "policy=random", "T=100",
            "trials=2", "seed=0"])
        assert cfg.env.name == "lower_bound_rho2_L66"
        assert min(cfg.env.means) == 3.5

    def test_env_specific_key_rejected_elsewhere(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "villages = 5\n")
        with pytest.raises(ConfigError, match="villages"):
            parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "T = 20\n")
        with pytest.raises(ConfigError, match="duplicate key 'T'"):
            parse_config(path)

    def test_line_without_equals_rejected(self, tmp_path):
        # `key value` separated by whitespace is not a config line
        path = write_cfg(tmp_path, MINIMAL + "log_every 100\n")
        with pytest.raises(ConfigError, match="line 11: expected 'key = value'"):
            parse_config(path)

    def test_oracle_mode_policy_optional(self, tmp_path):
        text = "env = bernoulli_chain\nm = 4\nd = 2\nT = 10\ntrials = 1\nseed = 0\n"
        cfg = parse_config(write_cfg(tmp_path, text), need_policy=False)
        assert cfg.policy is None
        with pytest.raises(ConfigError, match="policy"):
            parse_config(write_cfg(tmp_path, text), need_policy=True)

    def test_log_every_default(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL))
        assert cfg.log_every == 100


def test_readme_config_table_lists_schema_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config format", 1)[1].split("\n#", 1)[0]
    keys = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            keys.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    assert keys == set(SCHEMA)


def small_experiment(trials=2, horizon=60):
    env = chain_env(3, 2, "bernoulli")
    cfg = PolicyConfig("eps_mats", epsilon=0.5, c=1.0)
    return run_experiment(ExperimentSpec(env, cfg, horizon, trials, 5,
                                         log_every=30))


class TestEmitCsv:
    def test_row_counts_and_headers(self, tmp_path):
        result = small_experiment(trials=1, horizon=60)
        trials_path, summary_path = emit_csv(result.traces, result.summary,
                                             str(tmp_path / "exp"))
        trial_lines = open(trials_path).read().splitlines()
        assert trial_lines[0] == TRIALS_HEADER
        assert len(trial_lines) == 1 + 2  # two checkpoints, one trial
        summary_lines = open(summary_path).read().splitlines()
        assert summary_lines[0] == SUMMARY_HEADER
        assert len(summary_lines) == 1 + 2

    def test_float_rendering(self, tmp_path):
        result = small_experiment()
        _, summary_path = emit_csv(result.traces, result.summary,
                                   str(tmp_path / "exp"))
        for ln in open(summary_path).read().splitlines()[1:]:
            cells = ln.split(",")
            for cell in cells[1:]:
                whole, frac = cell.split(".")
                assert len(frac) == 6

    def test_specific_value_format(self, tmp_path):
        assert f"{0.275:.6f}" == "0.275000"

    def test_byte_identical_reruns(self, tmp_path):
        a = small_experiment()
        b = small_experiment()
        pa = emit_csv(a.traces, a.summary, str(tmp_path / "a"))
        pb = emit_csv(b.traces, b.summary, str(tmp_path / "b"))
        for x, y in zip(pa, pb):
            assert open(x, "rb").read() == open(y, "rb").read()

    def test_rows_sorted(self, tmp_path):
        result = small_experiment(trials=3, horizon=90)
        trials_path, _ = emit_csv(result.traces, result.summary,
                                  str(tmp_path / "exp"))
        rows = [tuple(map(float, ln.split(",")[:2]))
                for ln in open(trials_path).read().splitlines()[1:]]
        assert rows == sorted(rows)

    def test_round_trip_six_decimals(self, tmp_path):
        result = small_experiment(trials=4, horizon=120)
        _, summary_path = emit_csv(result.traces, result.summary,
                                   str(tmp_path / "exp"), record_timing=True)
        back = read_summary_csv(summary_path)
        assert back.ts == result.summary.ts
        for got, want in zip(back.mean_cum_regret,
                             result.summary.mean_cum_regret):
            assert abs(got - want) <= 5e-7
        for got, want in zip(back.std_cum_regret,
                             result.summary.std_cum_regret):
            assert abs(got - want) <= 5e-7
        assert abs(back.mean_gaussian_draws
                   - result.summary.mean_gaussian_draws) <= 5e-7
        assert abs(back.mean_wall_ns - result.summary.mean_wall_ns) <= 5e-7

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        path = tmp_path / "bad.summary.csv"
        for column in range(1, 5):
            row = ["5", "1.0", "0.5", "0", "0"]
            row[column] = bad
            path.write_text(f"{SUMMARY_HEADER}\n1,0.5,0.1,0,0\n{','.join(row)}\n")
            with pytest.raises(ConfigError, match=rf"bad\.summary\.csv: row 2 .*non-finite"):
                read_summary_csv(str(path))

    @pytest.mark.parametrize("bad", ["x,1.0,0.5,0,0", "5,1.0,0.5,0", "5,1.0,0.5,0,0,0", "5,a,0.5,0,0"])
    def test_malformed_row_named(self, tmp_path, bad):
        path = tmp_path / "bad.summary.csv"
        path.write_text(f"{SUMMARY_HEADER}\n{bad}\n")
        with pytest.raises(ConfigError, match=r"bad\.summary\.csv: row 1 .* is malformed"):
            read_summary_csv(str(path))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.summary.csv"
        path.write_text(f"{TRIALS_HEADER}\n0,1,0.5\n")
        with pytest.raises(ConfigError, match=r"bad\.summary\.csv: not a summary CSV \(bad header\)"):
            read_summary_csv(str(path))

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "empty.summary.csv"
        path.write_text(SUMMARY_HEADER + "\n")
        with pytest.raises(ConfigError, match=r"empty\.summary\.csv: summary CSV has no rows"):
            read_summary_csv(str(path))

    def test_timing_zeroed_by_default(self, tmp_path):
        result = small_experiment()
        _, summary_path = emit_csv(result.traces, result.summary,
                                   str(tmp_path / "exp"))
        for ln in open(summary_path).read().splitlines()[1:]:
            assert ln.split(",")[3] == "0.000000"


class TestRenderSvg:
    def _series(self, n=1):
        out = []
        for i in range(n):
            ts = [100, 200, 300]
            means = [10.0 * (i + 1), 20.0 * (i + 1), 25.0 * (i + 1)]
            stds = [1.0, 2.0, 2.5]
            out.append((f"series {i}", ts, means, stds))
        return out

    def test_single_series(self, tmp_path):
        path = render_svg(self._series(1), str(tmp_path / "plot.svg"))
        root = ET.parse(path).getroot()
        tag = root.tag.split("}")[-1]
        assert tag == "svg"
        body = open(path).read()
        assert body.count("<polyline") == 1
        assert body.count("<polygon") == 1

    def test_five_series_legend(self, tmp_path):
        labels = [f"epsilon={v}" for v in (1.0, 0.5, 0.1, 0.05, 0.01)]
        series = [(lab,) + s[1:] for lab, s in zip(labels, self._series(5))]
        path = render_svg(series, str(tmp_path / "plot.svg"))
        body = open(path).read()
        assert body.count("<polyline") == 5
        for lab in labels:
            assert lab in body
        ET.parse(path)  # well-formed XML

    def test_empty_input_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            render_svg([], str(tmp_path / "plot.svg"))

    def test_label_escaping(self, tmp_path):
        series = [("a<b&c", [1, 2], [1.0, 2.0], [0.1, 0.1])]
        path = render_svg(series, str(tmp_path / "plot.svg"))
        ET.parse(path)


KIND_BASE = {
    "chain": {"env": "bernoulli_chain", "m": "3", "d": "2", "policy": "random"},
    "gem": {"env": "gem_mining", "villages": "3", "env_seed": "0", "policy": "random"},
    "lower_bound": {"env": "lower_bound", "rho": "1", "policy": "random"},
    "eps_mats": {"env": "bernoulli_chain", "m": "3", "d": "2",
                 "policy": "eps_mats", "epsilon": "0.5"},
    "ucb": {"env": "bernoulli_chain", "m": "3", "d": "2",
            "policy": "ucb_baseline", "ucb_range": "1"},
    # 2 x 67 means at the default L = 66
    "lower_bound_rho2": {"env": "lower_bound", "rho": "2", "policy": "random"},
    "lower_bound_big_delta": {"env": "lower_bound", "rho": "2", "delta": "1e308",
                              "policy": "random"},
}

OWNER_ERRORS = [
    ("chain", "d", "4"), ("chain", "m", "1"), ("gem", "villages", "1"),
    ("lower_bound", "rho", "0"), ("lower_bound", "L", "-1"),
    ("lower_bound", "X", "3"), ("lower_bound", "delta", "0"),
    ("eps_mats", "epsilon", "1.5"), ("eps_mats", "c", "-1"),
    ("ucb", "ucb_range", "0"),
    ("eps_mats", "epsilon", "inf"), ("eps_mats", "c", "inf"),
    ("ucb", "ucb_range", "inf"),
    # finite X and delta whose means overflow: X + delta, then their sum
    ("lower_bound_big_delta", "X", "1e308"), ("lower_bound_rho2", "X", "1e307"),
]


@pytest.mark.parametrize("kind,key,value", OWNER_ERRORS)
def test_range_error_names_key_and_location(tmp_path, capsys, kind, key, value):
    settings = dict(KIND_BASE[kind], T="10", trials="1", seed="0")
    settings[key] = value
    argv = ["run", "--out", str(tmp_path / "exp")]
    for k, v in settings.items():
        argv += ["--set", f"{k}={v}"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"'{key}'" in err
    assert f"--set '{key}={value}'" in err


def test_owner_error_naming_no_key_is_reraised():
    # only an error that starts with a config key is a config error
    error = ValueError("no key here")

    def owner(*args, **kwargs):
        assert (args, kwargs) == ((1,), {"rho": 2})
        raise error

    with pytest.raises(ValueError) as caught:
        _owned(owner, {"rho": "--set 'rho=2'"}, 1, rho=2)
    assert caught.value is error          # not wrapped in a ConfigError


class TestMainCommands:
    BASE = ("--set env=bernoulli_chain --set m=3 --set d=2 "
            "--set policy=eps_mats --set epsilon=0.5 --set T=50 "
            "--set trials=2 --set seed=1 --set log_every=25").split()

    def test_run_writes_files(self, tmp_path, capsys):
        out = str(tmp_path / "exp")
        assert main(["run"] + self.BASE + ["--out", out]) == 0
        captured = capsys.readouterr()
        assert f"wrote {out}.trials.csv" in captured.out
        assert f"wrote {out}.summary.csv" in captured.out
        assert "final mean cumulative regret" in captured.out
        assert (tmp_path / "exp.trials.csv").exists()
        assert (tmp_path / "exp.summary.csv").exists()

    def test_run_deterministic_files(self, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert main(["run"] + self.BASE + ["--out", out_a]) == 0
        assert main(["run"] + self.BASE + ["--out", out_b]) == 0
        for suffix in (".trials.csv", ".summary.csv"):
            assert (open(out_a + suffix, "rb").read()
                    == open(out_b + suffix, "rb").read())

    def test_run_rejects_bad_config(self, tmp_path, capsys):
        rc = main(["run", "--set", "env=bernoulli_chain", "--set", "T=10"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("change, message", [
        (["--set", "env=ring"], "unknown env 'ring' (flag --set 'env=ring'); choose from "
                                "bernoulli_chain, poisson_chain"),
        (["--set", "T"], "bad --set argument 'T': expected key=value"),
        (["--set", "T=0"], "'T' must be >= 1 (flag --set 'T=0')"),
    ])
    def test_run_names_the_bad_assignment(self, tmp_path, capsys, change, message):
        out = str(tmp_path / "exp")
        assert main(["run"] + self.BASE + change + ["--out", out]) == 1
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_run_missing_file(self, capsys):
        rc = main(["run", "/nonexistent/path.cfg"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_seed_and_trials_overrides(self, tmp_path):
        out = str(tmp_path / "o")
        assert main(["run"] + self.BASE
                    + ["--out", out, "--seed", "9", "--trials", "1"]) == 0
        lines = open(out + ".trials.csv").read().splitlines()
        assert {ln.split(",")[0] for ln in lines[1:]} == {"0"}

    def test_sweep_one_file_pair_per_value(self, tmp_path, capsys):
        out = str(tmp_path / "sw")
        rc = main(["sweep"] + self.BASE
                  + ["--out", out, "--param", "epsilon", "--values", "1.0,0.5"])
        assert rc == 0
        for v in ("1.0", "0.5"):
            assert (tmp_path / f"sw.epsilon_{v}.trials.csv").exists()
            assert (tmp_path / f"sw.epsilon_{v}.summary.csv").exists()

    SWEEP_FAILURES = [
        ("epsilon", "0.5,,1.0", "empty value in --values"),
        ("epsilon", "0.5,7", "epsilon"),
        ("epsilon", "0.5,0.5", "duplicate value '0.5' in --values"),
        ("m", "6,1", "m must be at least d = 2"),
    ]

    @pytest.mark.parametrize("param, values, message", SWEEP_FAILURES,
                             ids=[f"{values}-{message}" for _, values, message in SWEEP_FAILURES])
    def test_failing_sweep_writes_no_file(self, tmp_path, capsys, param, values, message):
        # the bad value comes after a good one, which must not run either
        rc = main(["sweep"] + self.BASE
                  + ["--out", str(tmp_path / "sw"), "--param", param, "--values", values])
        assert rc == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert "[sweep]" not in captured.out
        assert list(tmp_path.iterdir()) == []

    def test_plot_from_run_output(self, tmp_path, capsys):
        out = str(tmp_path / "exp")
        main(["run"] + self.BASE + ["--out", out])
        svg = str(tmp_path / "chart.svg")
        rc = main(["plot", out + ".summary.csv", "--out", svg,
                   "--labels", "demo"])
        assert rc == 0
        ET.parse(svg)

    def test_plot_rejects_label_mismatch(self, tmp_path, capsys):
        out = str(tmp_path / "exp")
        main(["run"] + self.BASE + ["--out", out])
        rc = main(["plot", out + ".summary.csv", "--out",
                   str(tmp_path / "c.svg"), "--labels", "a,b"])
        assert rc == 1

    @pytest.mark.parametrize("rows", ["", "5,1.0,nan,0,0\n"])
    def test_plot_rejects_empty_or_non_finite_summary(self, tmp_path, capsys, rows):
        path = tmp_path / "s.summary.csv"
        path.write_text(SUMMARY_HEADER + "\n" + rows)
        svg = tmp_path / "c.svg"
        assert main(["plot", str(path), "--out", str(svg)]) == 1
        assert f"error: {path}: " in capsys.readouterr().err
        assert not svg.exists()

    def test_oracle_bernoulli_m10(self, capsys):
        rc = main(["oracle", "--set", "env=bernoulli_chain", "--set", "m=10",
                   "--set", "d=2", "--set", "T=1", "--set", "trials=1",
                   "--set", "seed=0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mu_star: 9.000000" in out
        assert "optimal_arm: 0 1 0 1 0 1 0 1 0 1" in out
        delta_min = float(next(ln for ln in out.splitlines()
                               if ln.startswith("delta_min:")).split()[1])
        assert delta_min > 0
        # gap table has one row per joint assignment
        rows = out.split("arm,delta\n", 1)[1].strip().splitlines()
        assert len(rows) == 1024

    def test_oracle_lists_restricted_candidates(self, capsys):
        args = ["oracle", "--set", "env=lower_bound", "--set", "rho=2", "--set", "L=2",
                "--set", "T=1", "--set", "trials=1", "--set", "seed=0"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "joint_arms: 5\n" in out
        # every decoy combination gives up delta = 0.5 in each of 2 groups
        assert "delta_min: 1.000000\n" in out
        rows = out.split("arm,delta\n", 1)[1].strip().splitlines()
        assert rows == ["0 0,0.000000", "1 1,1.000000", "1 2,1.000000",
                        "2 1,1.000000", "2 2,1.000000"]
        # L^rho + 1 = 1,048,577 candidates, one over the oracle cap
        assert main(["oracle", "--set", "env=lower_bound", "--set", "rho=2",
                     "--set", "L=1024"]) == 1
        assert "candidate set has 1048577 assignments" in capsys.readouterr().err

    def test_oracle_needs_no_run_keys(self, capsys):
        # nothing runs, so T, trials and seed may be left out
        args = ["oracle", "--set", "env=lower_bound", "--set", "rho=2", "--set", "L=2"]
        assert main(args) == 0
        rows = capsys.readouterr().out.split("arm,delta\n", 1)[1].strip().splitlines()
        assert rows == ["0 0,0.000000", "1 1,1.000000", "1 2,1.000000",
                        "2 1,1.000000", "2 2,1.000000"]
        cfg = parse_config(None, ["env=lower_bound", "rho=2", "L=2"], need_policy=False)
        assert (cfg.horizon, cfg.trials, cfg.base_seed, cfg.log_every) == (None,) * 4
        # a run key that is given is still checked
        assert main(args + ["--set", "T=ten"]) == 1
        assert "invalid value for 'T'" in capsys.readouterr().err
        assert main(args + ["--trials", "0"]) == 1
        assert "'trials' must be >= 1" in capsys.readouterr().err

    def test_oracle_all_assignments_optimal(self, tmp_path, capsys):
        table = tmp_path / "flat.txt"
        table.write_text("arms 2 2\ngroup 0 1\nfamily gaussian\n"
                         + "".join(f"mean {j} 0.5\n" for j in range(4)))
        assert main(["oracle", "--set", "env=table", "--set", f"table_file={table}"]) == 0
        out = capsys.readouterr().out
        assert "delta_min: none (all assignments optimal)\n" in out
        assert "delta_max: 0.000000\n" in out

    def test_table_file_error_names_the_file(self, tmp_path, capsys):
        # line 4 of the table file is bad; line 4 of the config is fine
        table = tmp_path / "bad_table.txt"
        table.write_text("arms 2\ngroup 0\nfamily bernoulli\nbogus 1\n")
        cfg = write_cfg(tmp_path, f"env = table\ntable_file = {table}\npolicy = random\n"
                                  "T = 10\ntrials = 1\nseed = 0\n")
        assert main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert f"error: table file {table}: line 4: unknown directive 'bogus'" in err

    def test_broken_pipe_exits_quietly(self, capsys, monkeypatch):
        # capsys first, so monkeypatch restores sys.stdout before capsys
        # closes the stream it captured into
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError

            def close(self):
                raise BrokenPipeError

        monkeypatch.setattr("sys.stdout", ClosedPipe())
        assert main(["oracle", "--set", "env=bernoulli_chain", "--set", "m=2",
                     "--set", "d=2"]) == 1
        assert capsys.readouterr().err == ""

    def test_oracle_respects_cap(self, capsys):
        # 2^21 joint arms, twice the oracle cap
        rc = main(["oracle", "--set", "env=bernoulli_chain", "--set", "m=21",
                   "--set", "d=2", "--set", "T=1", "--set", "trials=1",
                   "--set", "seed=0"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_oracle_refuses_a_2_40_arm_chain_cleanly(self, capsys):
        # the environment is built through VE; the oracle listing must be
        # refused by the cap, not by an 8 TiB allocation
        rc = main(["oracle", "--set", "env=bernoulli_chain", "--set", "m=40",
                   "--set", "d=2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "cap" in err

    def test_sample_config_parses(self):
        cfg = parse_config("sample_configs/bernoulli_m10.cfg")
        assert cfg.horizon == 10000
        assert cfg.trials == 50
        assert abs(cfg.policy.c - math.log(10000)) < 1e-12
