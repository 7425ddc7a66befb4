import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import becsteer
from becsteer import correlators
from becsteer.cli import main
from becsteer.config import ConfigError, load_config, parse_config
from becsteer.meanfield import NORM_TOL

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TINY = """\
# quick protocol for CLI tests
n_a     = 20
n_b     = 20
dz_max  = 3 a0
t_ramp  = 1.5 /omega
t_int   = 0, 0.5 /omega
n_r     = 8
dr      = 0.45 a0
dz      = 0.45 a0
z_margin = 2.5 a0
dt      = 0.05 /omega
"""


def test_parse_shipped_fig2a():
    cfg = load_config(os.path.join(HERE, "configs", "fig2a.cfg"))
    v = cfg.values
    assert v["n_a"] == 100 and v["n_b"] == 100
    assert v["omega"] == pytest.approx(2 * math.pi * 20)
    assert v["dz_max"] == pytest.approx(10.0)
    assert v["t_ramp"] == pytest.approx(10.0)
    assert len(v["t_int"]) == 13 and v["t_int"][-1] == pytest.approx(24.0)
    assert cfg.params.a_00 == pytest.approx(100.4)


def test_parse_shipped_fig3():
    cfg = load_config(os.path.join(HERE, "configs", "fig3.cfg"))
    v = cfg.values
    assert v["n_a"] == 500
    assert v["dz_max"] == pytest.approx(6.0)
    assert v["tau_1"] == pytest.approx(60.0)
    assert v["kappa_11"] == pytest.approx(81e-21)
    # t_loss = 0.2 s, in 1/omega like every time
    assert v["t_loss"] == pytest.approx(0.2 * v["omega"])


def test_seconds_converted_with_omega():
    text = TINY + "t_ramp = 0.25 s\n"
    cfg = parse_config(text)
    assert cfg.values["t_ramp"] == pytest.approx(0.25 * 2 * math.pi * 20)


def test_expressions_and_pi():
    cfg = parse_config(TINY + "omega = 2*pi*10 Hz\npulse_phase_a = pi/2\n"
                       "pulse_phase_b = 2 * pi\n")
    assert cfg.values["omega"] == pytest.approx(20 * math.pi)
    assert cfg.values["pulse_phase_a"] == pytest.approx(math.pi / 2)
    assert cfg.values["pulse_phase_b"] == pytest.approx(2 * math.pi)


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 2.*banana"):
        parse_config("n_a = 10\nbanana = 3\n")


def test_malformed_value_reports_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("n_a = ten\n")


def test_constraint_violation_reports_line():
    bad = TINY.replace("dz_max  = 3 a0", "dz_max  = -3 a0")
    with pytest.raises(ConfigError, match="dz_max"):
        parse_config(bad)


def test_missing_required_key():
    with pytest.raises(ConfigError, match="t_ramp"):
        parse_config("n_a = 10\nn_b = 10\ndz_max = 3 a0\n")


def test_wrong_unit_rejected():
    with pytest.raises(ConfigError, match="unit"):
        parse_config(TINY + "dz_max = 3 meters\n")


def test_trailing_unit_applies_to_whole_list():
    cfg = parse_config(TINY + "t_int = 0, 0.05, 0.1 s\n")
    omega = 2 * math.pi * 20
    assert cfg.values["t_int"] == pytest.approx([0.0, 0.05 * omega, 0.1 * omega])


def test_mixed_units_in_list_rejected():
    with pytest.raises(ConfigError, match="line 12.*mixes units"):
        parse_config(TINY + "t_int = 0.05 s, 2 /omega\n")


@pytest.mark.parametrize("expr", [
    "10**400", "1e999", "9**9**9", "(-8)**0.5",
    pytest.param("-" * 5000 + "1", id="deep_nesting")])
def test_numeric_overflow_reports_line(expr):
    with pytest.raises(ConfigError, match="line 12"):
        parse_config(TINY + f"n_a = {expr}\n")


@pytest.mark.parametrize("line", [
    "sweep_n = 0, 20", "sweep_n = 20, 10", "sweep_dz_max = 3, -1 a0",
    "sweep_t_ramp = -1 /omega"])
def test_sweep_axis_validated_at_parse_time(line):
    key = line.split()[0]
    with pytest.raises(ConfigError, match=f"line 12: {key} value"):
        parse_config(TINY + line + "\n")


def test_set_overrides_win():
    cfg = parse_config(TINY, overrides=("n_a = 30",))
    assert cfg.values["n_a"] == 30
    with pytest.raises(ConfigError, match="--set"):
        parse_config(TINY, overrides=("n_a = -2",))


def test_echo_round_trips():
    cfg = parse_config(TINY)
    cfg2 = parse_config(cfg.echo())
    for key in ("n_a", "dz_max", "t_ramp", "omega", "t_loss"):
        assert cfg2.values[key] == pytest.approx(cfg.values[key])
    assert list(cfg2.values["t_int"]) == pytest.approx(list(cfg.values["t_int"]))


def write_tiny(tmp_path, extra=""):
    p = tmp_path / "tiny.cfg"
    p.write_text(TINY + extra)
    return str(p)


def test_cli_run_writes_results(tmp_path):
    cfgp = write_tiny(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", cfgp, "--out", str(out)]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0].startswith("t_total_s,t_int_s,E_EPR,")
    assert len(lines) == 3
    man = json.loads((out / "manifest.json").read_text())
    assert man["command"] == "run"
    assert all(p["status"] == "ok" for p in man["points"])
    # each point's step diagnostics: finite (a nan fails every comparison)
    # and inside the norm check's and the unwrap's margins
    for p in man["points"]:
        assert 0.0 <= p["norm_drift"] < NORM_TOL
        assert 0.0 < p["unwrap_step"] < math.pi / 2
        # an rms about the mean is at most half the range (Popoviciu)
        assert 0.0 < p["reach_rms"] <= p["reach_max"]


def test_cli_missing_config_is_fatal(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path)]) == 1
    assert "becsteer:" in capsys.readouterr().err


def test_cli_bad_config_is_fatal(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("n_a = 10\nwhat = 3\n")
    assert main(["run", "--config", str(p), "--out", str(tmp_path)]) == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    "dt = -0.05 /omega", "oracle_samples = 1",
    "oracle_phi_ab = 0, 0.01, 0.02\noracle_phi_a = 0, 0.1", "gs_tol = 0",
    "beta = 0", "beta = 2", "n_a = 10", "n_r = 3",
    "dr = 0 a0", "dz = 2 a0", "dz = 1e-320 a0", "n_b = 0", "a_00 = -1 bohr"],
    ids=lambda extra: extra.splitlines()[-1])
def test_cli_bad_value_reports_its_line(tmp_path, capsys, extra):
    # the offending key opens the config's last line; nothing runs
    lines = (TINY + extra).splitlines()
    key = lines[-1].split()[0]
    command = "oracle" if key.startswith("oracle") else "run"
    out = tmp_path / "out"
    assert main([command, "--config", write_tiny(tmp_path, extra + "\n"),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        f"becsteer: line {len(lines)}: {key} ")
    assert not out.exists()


def test_cli_failed_point_gives_exit_2(tmp_path, monkeypatch):
    # a contrast floor above 1 leaves every witness undefined, so the
    # measurement fails at runtime
    monkeypatch.setattr(correlators, "MIN_CONTRAST", 2.0)
    cfgp = write_tiny(tmp_path)
    out = tmp_path / "out2"
    code = main(["run", "--config", cfgp, "--out", str(out)])
    assert code == 2
    man = json.loads((out / "manifest.json").read_text())
    assert any(p["status"] == "failed" for p in man["points"])


def scan_tiny(tmp_path, t_int):
    """(exit code, result rows as bytes, manifest) of TINY at these hold times."""
    cfgp = write_tiny(tmp_path, f"t_int = {t_int} /omega\n")
    out = tmp_path / ("t" + t_int.replace(", ", "_"))
    code = main(["run", "--config", cfgp, "--out", str(out)])
    man = json.loads((out / "manifest.json").read_text())
    return code, (out / "results.csv").read_bytes().splitlines()[1:], man


@pytest.mark.parametrize("t_ints, dts, prefixes", [
    ("0.5, 0, 0.25", [0.05] * 3, [[0.0, 0.25, 0.5]]),
    # T = 3.33 is 66.6 steps of 0.05: that point runs alone at 3.33 / 67
    ("0, 0.33, 0.5", [0.05, 3.33 / 67, 0.05], [[0.0, 0.5], [0.33]]),
], ids=["lattice", "off-lattice"])
def test_cli_forked_rows_equal_single_hold_runs(tmp_path, t_ints, dts,
                                                prefixes):
    # hold times on the dt lattice fork from one shared prefix, in order of
    # hold time; rows stay in config order and equal each hold time's own run
    code, rows, man = scan_tiny(tmp_path, t_ints)
    assert code == 0
    assert rows == [scan_tiny(tmp_path, t)[1][0] for t in t_ints.split(", ")]
    assert [p["dt"] for p in man["points"]] == dts
    assert [p["t_int"] for p in man["prefixes"]] == prefixes


@pytest.mark.parametrize("t_ints", [
    "0, 0.2, 0.7", "0, 0.5, 1",
    ", ".join(f"{k / 20:g}" for k in range(1, 11))])
def test_cli_manifest_counts_every_step(tmp_path, monkeypatch, t_ints):
    # one forward ramp, the hold up to the longest t_int and one backward
    # ramp per point, every fork taken at its own step, also where the
    # accumulated time passes the end of the hold by roundoff (0.5 here, and
    # most of the ten holds)
    from becsteer.meanfield import SplitStepEvolver
    calls = []
    real = SplitStepEvolver.step

    def counted(self, *args):
        calls.append(1)
        return real(self, *args)
    monkeypatch.setattr(SplitStepEvolver, "step", counted)
    code, _, man = scan_tiny(tmp_path, t_ints)
    ts = [float(t) for t in t_ints.split(",")]
    shared = round((1.5 + max(ts) + len(ts) * 1.5) / 0.05)
    steps = (sum(p["steps"] for p in man["prefixes"])
             + sum(p["steps"] for p in man["points"]))
    assert code == 0 and steps == len(calls) == shared


def test_cli_manifest_splits_point_seconds_into_layers(tmp_path):
    code, _, man = scan_tiny(tmp_path, "0, 0.25")
    assert code == 0
    for p in man["points"]:
        layers = [p[k] for k in ("ramp_s", "moments_s", "witness_s")]
        assert all(x >= 0.0 for x in layers)
        assert sum(layers) <= p["seconds"]


def test_cli_worker_count_determinism(tmp_path):
    cfgp = write_tiny(tmp_path)
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["run", "--config", cfgp, "--out", str(out1),
                 "--workers", "1"]) == 0
    assert main(["run", "--config", cfgp, "--out", str(out2),
                 "--workers", "2"]) == 0
    b1 = (out1 / "results.csv").read_bytes()
    b2 = (out2 / "results.csv").read_bytes()
    assert b1 == b2


def test_cli_oracle_direct_mode(tmp_path):
    cfgp = write_tiny(tmp_path, "oracle_phi_ab = 0, 0.01, 0.02\n")
    out = tmp_path / "orc"
    assert main(["oracle", "--config", cfgp, "--out", str(out)]) == 0
    lines = (out / "oracle.csv").read_text().splitlines()
    assert lines[0].startswith("phi_a,phi_b,phi_ab,oracle_E_EPR")
    assert len(lines) == 4
    es = [float(l.split(",")[3]) for l in lines[1:]]
    assert es[0] == pytest.approx(1.0, abs=1e-8)
    assert es[2] < es[1] < es[0] + 1e-12



def test_cli_oracle_direct_mode_at_800_atoms_per_well(tmp_path):
    cfgp = write_tiny(tmp_path, "n_a = 800\nn_b = 800\noracle_phi_ab = 0.002\n")
    out = tmp_path / "orc"
    assert main(["oracle", "--config", cfgp, "--out", str(out)]) == 0
    es = read_columns(out / "oracle.csv")["oracle_E_EPR"]
    assert len(es) == 1 and math.isfinite(es[0])


def read_columns(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return {name: [float(l.split(",")[i]) for l in lines[1:]]
            for i, name in enumerate(header)}


def test_cli_oracle_spatial_mode(tmp_path):
    # no oracle_phi_ab: the twisting phases come from integrated chi rates
    cfgp = write_tiny(tmp_path, "oracle_samples = 3\n")
    out = tmp_path / "orc_spatial"
    assert main(["oracle", "--config", cfgp, "--out", str(out)]) == 0
    cols = read_columns(out / "oracle.csv")
    for name in ("oracle_E_EPR", "phi_a", "phi_b", "phi_ab"):
        assert len(cols[name]) == 2
        assert all(math.isfinite(v) for v in cols[name])


def test_cli_run_with_oracle(tmp_path):
    cfgp = write_tiny(tmp_path, "with_oracle = true\noracle_samples = 3\n")
    out = tmp_path / "run_orc"
    assert main(["run", "--config", cfgp, "--out", str(out)]) == 0
    cols = read_columns(out / "results.csv")
    assert len(cols["oracle_E_EPR"]) == 2
    assert all(math.isfinite(v) for v in cols["oracle_E_EPR"])
    man = json.loads((out / "manifest.json").read_text())
    assert set(man["timings_s"]) == {"prepare", "oracle", "total"}


@pytest.mark.parametrize("command", ["oracle", "run"])
def test_cli_chi_solves_independent_of_hold_times(tmp_path, monkeypatch,
                                                  command):
    # chi is sampled on the ramp only, once per grid point: 5 ground states
    # per sample, however many hold times the config scans, each solved to
    # the config's gs_tol
    import becsteer.oracle4mode
    calls = []
    original = becsteer.oracle4mode.ground_state

    def counted(*args, **kwargs):
        calls.append(kwargs.get("tol"))
        return original(*args, **kwargs)
    monkeypatch.setattr(becsteer.oracle4mode, "ground_state", counted)
    counts = []
    for t_int in ("0", "0, 0.25, 0.5"):
        calls.clear()
        cfgp = write_tiny(tmp_path, "with_oracle = true\noracle_samples = 3\n"
                          f"t_int = {t_int} /omega\ngs_tol = 1e-7\n")
        assert main([command, "--config", cfgp,
                     "--out", str(tmp_path / f"out{len(counts)}")]) == 0
        counts.append(len(calls))
        assert calls == [1e-7] * len(calls)
    assert counts == [15, 15]


def test_cli_oracle_rows_independent_of_other_hold_times(tmp_path):
    def rows(t_int):
        cfgp = write_tiny(tmp_path, f"oracle_samples = 3\nt_int = {t_int}\n")
        out = tmp_path / t_int.replace(" ", "").replace("/", "_")
        assert main(["oracle", "--config", cfgp, "--out", str(out)]) == 0
        return (out / "oracle.csv").read_bytes().splitlines()[1:]
    singles = [row for t in ("0", "0.25", "0.5") for row in rows(f"{t} /omega")]
    assert rows("0, 0.25, 0.5 /omega") == singles


@pytest.mark.parametrize("extra", ["oracle_phi_ab = 0, 0.01\n",
                                   "oracle_samples = 2\n"],
                         ids=["direct", "spatial"])
def test_cli_oracle_runs_below_the_beta_bound(tmp_path, extra):
    # beta = 1 exceeds a tenth of the central occupation 5, but the oracle
    # builds no Fock trajectories, so only run and sweep refuse it
    cfgp = write_tiny(tmp_path, "n_a = 10\nn_b = 10\n" + extra)
    out = tmp_path / "orc10"
    assert main(["oracle", "--config", cfgp, "--out", str(out)]) == 0
    assert len((out / "oracle.csv").read_text().splitlines()) > 2
    assert main(["run", "--config", cfgp, "--out", str(tmp_path / "r")]) == 1


@pytest.mark.parametrize("module, name", [
    ("oracle4mode", "adiabatic_rates"), ("cli", "prepare_initial")],
    ids=["adiabatic_rates", "prepare_initial"])
def test_cli_oracle_fault_marks_point_failed(tmp_path, monkeypatch, module,
                                             name):
    # a grid point's set-up fault fails its own rows; the others are written
    mod = getattr(becsteer, module)
    original = getattr(mod, name)

    def broken(proto, *args, **kwargs):
        if proto.n_a == 30:
            raise RuntimeError("set-up fault")
        return original(proto, *args, **kwargs)
    monkeypatch.setattr(mod, name, broken)
    cfgp = write_tiny(tmp_path, "with_oracle = true\nsweep_n = 20, 30\n")
    out = tmp_path / "run_fault"
    assert main(["run", "--config", cfgp, "--out", str(out)]) == 2
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["20", "20"]
    assert all(r.split(",")[-1] != "nan" for r in rows)    # oracle E_EPR
    man = json.loads((out / "manifest.json").read_text())
    assert [(p["n_a"], p["status"]) for p in man["points"]] == [
        (20, "ok"), (20, "ok"), (30, "failed"), (30, "failed")]
    assert all("set-up fault" in p["error"] for p in man["points"][2:])


@pytest.mark.parametrize("command, flag", [
    ("losses", ["--workers", "2"]), ("losses", ["--snapshot"]),
    ("oracle", ["--snapshot"]), ("run", ["--format", "json"]),
    # a worker count below 1 means nothing: refused, not run in one process
    ("run", ["--workers", "0"]), ("run", ["--workers", "-1"]),
    ("oracle", ["--workers", "0"]), ("oracle", ["--workers", "-1"])],
    ids=["losses-workers", "losses-snapshot", "oracle-snapshot", "run-format",
         "run-workers-0", "run-workers--1", "oracle-workers-0",
         "oracle-workers--1"])
def test_cli_refuses_flags_it_would_ignore(tmp_path, command, flag):
    cfgp = write_tiny(tmp_path)
    with pytest.raises(SystemExit):
        main([command, "--config", cfgp, "--out", str(tmp_path / "o")] + flag)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["oracle", "losses"])
def test_cli_refuses_sweep_keys_it_would_drop(tmp_path, capsys, command):
    # only run scans a sweep grid; refused before the output directory
    cfgp = write_tiny(tmp_path, "oracle_phi_ab = 0, 0.01\nsweep_n = 20, 30\n")
    out = tmp_path / "o"
    assert main([command, "--config", cfgp, "--out", str(out)]) == 1
    assert "becsteer: line 13: sweep_n " in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_subcommand_is_gone(tmp_path):
    cfgp = write_tiny(tmp_path, "sweep_n = 20, 30\n")
    with pytest.raises(SystemExit):
        main(["sweep", "--config", cfgp, "--out", str(tmp_path / "o")])
    assert not (tmp_path / "o").exists()


def test_cli_losses(tmp_path, capsys):
    cfgp = write_tiny(tmp_path, "tau_1 = 60 s\nt_loss = 0.2 s\n")
    out = tmp_path / "los"
    assert main(["losses", "--config", cfgp, "--out", str(out)]) == 0
    doc = json.loads((out / "losses.json").read_text())
    assert doc["t_hold_s"] == pytest.approx(0.2)
    assert doc["n_lost"] > 0.0
    assert "fraction" in capsys.readouterr().out


def test_cli_sweep(tmp_path):
    cfgp = write_tiny(tmp_path, "sweep_n = 20, 30\nt_int = 0 /omega\n")
    out = tmp_path / "swp"
    assert main(["run", "--config", cfgp, "--out", str(out)]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0].startswith("n_a,n_b,dz_max,t_ramp,t_total_s")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "20"
    assert lines[2].split(",")[0] == "30"


def test_cli_bad_sweep_axis_reports_set_line(tmp_path, capsys):
    cfgp = write_tiny(tmp_path)
    assert main(["run", "--config", cfgp, "--out", str(tmp_path / "bad"),
                 "--set", "sweep_n = 0, 20"]) == 1
    err = capsys.readouterr().err
    assert "line --set #1: sweep_n value 0" in err and "fatal" not in err


def test_cli_sweep_is_run_over_grid(tmp_path, monkeypatch):
    # a sweep point is the run of its config: same ground-state tolerance,
    # same snapshots, one ground state per grid point
    import becsteer.cli
    import becsteer.sequence
    calls = []
    original = becsteer.sequence.prepare_initial

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(becsteer.cli, "prepare_initial", counted)
    monkeypatch.setattr(becsteer.sequence, "prepare_initial", counted)
    cfgp = write_tiny(tmp_path, "gs_tol = 1e-3\n")
    run_out, sweep_out = tmp_path / "run", tmp_path / "sweep"
    assert main(["run", "--config", cfgp, "--out", str(run_out),
                 "--snapshot"]) == 0
    calls.clear()
    assert main(["run", "--config", cfgp, "--out", str(sweep_out),
                 "--snapshot", "--set", "sweep_n = 20"]) == 0
    assert len(calls) == 1
    run_lines = (run_out / "results.csv").read_text().splitlines()
    sweep_lines = (sweep_out / "results.csv").read_text().splitlines()
    assert [l.split(",", 4)[4] for l in sweep_lines] == run_lines
    for i in (0, 1):
        # .npz bytes carry zip timestamps: compare the arrays
        name = f"snapshot_point{i}.npz"
        with np.load(sweep_out / name) as a, np.load(run_out / name) as b:
            assert a.files == b.files
            assert all(np.array_equal(a[k], b[k]) for k in a.files)
    man = json.loads((sweep_out / "manifest.json").read_text())
    assert set(man["timings_s"]) == {"prepare", "total"}


def test_cli_sweep_unswept_axes_keep_config(tmp_path):
    cfgp = write_tiny(tmp_path, "n_b = 24\nt_int = 0 /omega\n")
    run_out, sweep_out = tmp_path / "run", tmp_path / "sweep"
    assert main(["run", "--config", cfgp, "--out", str(run_out)]) == 0
    assert main(["run", "--config", cfgp, "--out", str(sweep_out),
                 "--set", "sweep_t_ramp = 1.5 /omega"]) == 0
    run_row = (run_out / "results.csv").read_text().splitlines()[1]
    sweep_row = (sweep_out / "results.csv").read_text().splitlines()[1]
    assert sweep_row == "20,24,3,1.5," + run_row


def test_cli_import_loads_no_scipy():
    # the package runs on NumPy alone; SciPy serves the tests only
    code = ("import sys, becsteer.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    src = os.path.dirname(os.path.dirname(becsteer.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_cli_check(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5 and "FAIL" not in out


def test_cli_check_covers_the_exact_tail(capsys, monkeypatch):
    # with the tail block of a two-slot contraction dropped, the check's
    # brute-force comparison on a table with an exact tail fails
    def tailless(middle, g):
        core, tail = middle
        return np.concatenate([core @ g[:core.shape[1]],
                               np.zeros((tail.size,) + g.shape[1:], g.dtype)])
    monkeypatch.setattr(correlators, "_middle_times", tailless)
    assert main(["check"]) == 1
    out = capsys.readouterr().out
    assert out.count("FAIL") == 1
    assert "FAIL: slot table with an exact tail" in out
