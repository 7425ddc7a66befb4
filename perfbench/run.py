"""Benchmark of `becsteer` protocol scans, measurement and the four-mode oracle.

    python3 perfbench/run.py --workload scan_fig2a --seed 1 --seconds 18 --trace 0

Each workload is a real `becsteer` CLI command (`run` or `oracle`) run in a
fresh process through probe.py, one command at a time (a closed loop with one
client) and `--workers 1`, with BLAS pinned to one thread.  The seed picks
the command's input (hold times or the phi_ab grid offset); the command only
sees the generated config file.  Every result row is checked; for the inputs
stored under reference/ all CSV columns are compared with the stored rows.

--trace 0 prints the end-to-end metrics (median over the commands of the
run); --trace 1 runs the command once plain and once with every public
function of the traced layers wrapped in a span, and prints the per-layer
metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A human-readable table with
quartiles and sample counts, the seed, the inputs and the machine precedes
it, and the same data is written to perfbench/out/.

--write-reference regenerates reference/<workload>.json for every input the
seed can select; run it only after a deliberate change of the physics.
"""

import argparse
import csv
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field

from tracing import clock, summarise

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKERS = "1"
# set-up samples per run: scan workloads stop extra commands right after the
# ground state to reach this many without paying for more full scans
SETUP_SAMPLES = 3
COMMAND_TIMEOUT_S = 160.0

# A 1e-10 relative drift (the bound promised by numerically equivalent
# propagator rewrites) passes; any change of the physics, grid or step moves
# E_EPR and the moments by far more than 1e-5.  The witness angles come out
# of a golden-section search with tolerance 1e-6 rad and are defined modulo
# pi, so they are compared modulo pi within 1e-5 rad.  A row may also match
# the reference at the witness's other, degenerate minimum (witness_partner).
RTOL = 1e-5
ATOL = 1e-9
ANGLE_TOL = 1e-5
ANGLE_COLUMNS = ("alpha_opt", "beta_opt")
TABLES = {"run": "results.csv", "oracle": "oracle.csv"}      # CSV per subcommand

# Physics of configs/fig2a.cfg and configs/fig3.cfg, carried here so that the
# workload stays fixed when those files change.  The configs step with
# dt = 0.004/omega; a coarser step keeps one scan command under a minute on a
# 2-core machine.  fig2a holds up at dt = 0.1 (E_EPR 6.44 at t_int = 0 against
# 5.61 in artifacts/fig2a); fig3 at N = 4000 needs dt = 0.05, at 0.1 its
# witness comes out at 60-170 and erratic in t_int.
PHYSICS = {
    "omega": "2*pi*20 Hz",
    "a_00": "100.4 bohr",
    "a_11": "95.0 bohr",
    "a_01": "98.0 bohr",
    "t_ramp": "10 /omega",
    "dr": "0.142857142857 a0",
    "dz": "0.142857142857 a0",
    "z_margin": "4.5 a0",
    "dt": "0.1 /omega",
}
# grid of the size of `becsteer check`, for the smoke test
TOY = {"n_a": "20", "n_b": "20", "n_r": "10", "dr": "0.45 a0", "dz": "0.45 a0",
       "z_margin": "2 a0", "dz_max": "2 a0", "t_ramp": "0.5 /omega"}


def fig2a_hold_times(i):
    # a pair symmetric about 1.0/omega on the 0.1/omega step lattice: every
    # seed runs the same number of steps, and both points share the ramp
    d = i + 1
    return {"t_int": f"{(10 - d) / 10:g}, {(10 + d) / 10:g}"}


def fig3_hold_time(i):
    return {"t_int": f"{i / 10:g}"}


def oracle_grid(i):
    # 16 phi_ab values 0.0025 apart across the steering dip near 0.02 for
    # N = 1000; the seed shifts the grid by 0.0005 .. 0.005
    off = 5 * (i + 1)
    return {"oracle_phi_ab": ", ".join(f"{(off + 25 * k) / 1e4:g}" for k in range(16))}


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str          # becsteer CLI subcommand
    config: dict             # fixed config keys
    inputs: object           # index -> config keys drawn by the seed
    n_inputs: int
    setup_end: str           # function whose return ends set-up

    def draw(self, seed):
        return random.Random(seed).randrange(self.n_inputs)

    def input_key(self, index):
        """The drawn config value that names an input in the reference file."""
        return next(iter(self.inputs(index).values()))

    def config_text(self, index, toy=False):
        keys = dict(self.config)
        if toy:
            keys.update({k: v for k, v in TOY.items() if k in keys})
        keys.update(self.inputs(index))
        return "".join(f"{k} = {v}\n" for k, v in keys.items())


# Why each workload exists and which layers it stresses or bypasses is
# recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("scan_fig2a", "run",
             {"n_a": "100", "n_b": "100", "dz_max": "10 a0", "n_r": "28", **PHYSICS},
             fig2a_hold_times, 10, "prepare_initial"),
    Workload("measure_fig3", "run",
             {"n_a": "4000", "n_b": "4000", "dz_max": "6 a0", "n_r": "32", **PHYSICS,
              "dt": "0.05 /omega"},
             fig3_hold_time, 10, "prepare_initial"),
    Workload("oracle_direct", "oracle",
             {"n_a": "1000", "n_b": "1000", "dz_max": "10 a0", "t_ramp": "10 /omega",
              "omega": "2*pi*20 Hz"},
             oracle_grid, 10, "load_config"),
)}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "points_per_min": "1/min",
                    "peak_rss_mb": "MB"}

# (metric, unit): per-layer metrics reported by --trace 1
PER_LAYER = [
    ("config.load_config.s", "s"),
    ("sequence.prepare_initial.s", "s"),
    ("sequence.run_point.calls", "count"),
    ("sequence.run_point.s", "s"),
    ("sequence.component_potentials.calls", "count"),
    ("sequence.component_potentials.s", "s"),
    ("sequence.step_reuse", "ratio"),
    ("meanfield.SplitStepEvolver.step.calls", "count"),
    ("meanfield.SplitStepEvolver.step.s", "s"),
    ("meanfield.step.cell_updates_per_s", "1/s"),
    ("meanfield.SplitStepEvolver.check_norms.s", "s"),
    ("meanfield.ground_state.calls", "count"),
    ("meanfield.ground_state.s", "s"),
    ("fockflow.TrajectorySet.advance.calls", "count"),
    ("fockflow.TrajectorySet.advance.self_s", "s"),
    ("fockflow.TrajectorySet.correlator_inputs.s", "s"),
    ("correlators.spin_moments.calls", "count"),
    ("correlators.spin_moments.s", "s"),
    ("correlators.fock_sum_average.calls", "count"),
    ("correlators.epr_witness.calls", "count"),
    ("correlators.epr_witness.s", "s"),
    ("oracle4mode.pulse_state.s", "s"),
    ("oracle4mode.evolve_exact.s", "s"),
    ("oracle4mode.oracle_moments.s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
]


class BenchError(Exception):
    """The benchmark cannot run at all (no program to run)."""


# -- running one command ---------------------------------------------------

@dataclass
class Sample:
    mode: str
    exit: int
    wall_s: float
    setup_s: float = math.nan
    rows: int = 0
    rows_ok: int = 0
    max_rss_mb: float = math.nan
    problems: list = field(default_factory=list)
    spans: list = field(default_factory=list)


def child_env():
    env = dict(os.environ)
    for k in BLAS_ENV:
        env[k] = BLAS_THREADS
    env.pop("PYTHONPATH", None)          # the probe puts the checkout's src first
    return env


def run_command(wl, work, cfg_path, mode, deadline):
    """Run one becsteer command through the probe.

    Returns (Sample, output directory), the directory None when the command
    left no record."""
    out_dir = os.path.join(work, f"out{len(os.listdir(work))}")
    record = out_dir + ".json"
    argv = [wl.subcommand, "--config", cfg_path, "--out", out_dir,
            "--workers", WORKERS]
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), "--mode", mode,
           "--record", record, "--"] + argv
    start = clock()
    try:
        proc = subprocess.run(cmd, cwd=work, env=child_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        return Sample(mode, -1, clock() - start, problems=["timed out"]), None
    wall = clock() - start
    if not os.path.exists(record):
        tail = (proc.stderr or "").strip().splitlines()[-3:]
        return Sample(mode, proc.returncode, wall,
                      problems=[f"exit {proc.returncode}: {' | '.join(tail)}"]), None
    with open(record, encoding="utf-8") as fh:
        rec = json.load(fh)
    mark = rec["marks"].get(wl.setup_end)
    s = Sample(mode, rec["exit"], wall,
               setup_s=(mark - start) if mark is not None else math.nan,
               max_rss_mb=rec["max_rss_kb"] / 1024.0,
               spans=rec["spans"])
    if rec["exit"] != 0:
        s.problems.append(f"becsteer exited with {rec['exit']}: {proc.stderr.strip()[-300:]}")
    return s, out_dir


# -- output checks ---------------------------------------------------------

def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def close(col, got, want):
    a, b = float(got), float(want)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if col in ANGLE_COLUMNS:
        d = abs(a - b) % math.pi
        return min(d, math.pi - d) <= ANGLE_TOL
    return abs(a - b) <= RTOL * abs(b) + ATOL


def witness_partner(columns, row):
    """The same row at the other minimum of the witness.

    Shifting both quadrature angles by pi/2 swaps var_a with var_a90 and
    var_b with var_b90 in correlators._witness_sq, so E_EPR is unchanged and
    the two inferred variances trade places.  The grid search picks one of
    the pair by rounding, so either is a correct result."""
    v = dict(zip(columns, row))
    for c in ANGLE_COLUMNS:
        v[c] = repr(float(v[c]) + math.pi / 2)
    if "inferred_var_1" in v:
        v["inferred_var_1"], v["inferred_var_2"] = v["inferred_var_2"], v["inferred_var_1"]
    return [v[c] for c in columns]


def reference_mismatches(columns, got, want):
    """Columns of `got` that match neither the reference row nor its
    witness partner; [] when the row matches one of them."""
    bad = [f"{c}={g} vs reference {w}" for c, g, w in zip(columns, got, want)
           if not close(c, g, w)]
    partner = witness_partner(columns, want)
    if bad and all(close(c, g, w) for c, g, w in zip(columns, got, partner)):
        return []
    return bad


def check_output(wl, out_dir, keys, reference):
    """(rows passing, problems) for one finished command."""
    n = int(keys["n_a"])
    scan = wl.subcommand == "run"
    table = TABLES[wl.subcommand]
    e_col = "E_EPR" if scan else "oracle_E_EPR"
    expected = expected_rows(wl, keys)
    path = os.path.join(out_dir, table)
    if not os.path.exists(path):
        return 0, [f"{table} missing"]
    columns, rows = read_csv(path)
    problems = []
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    if scan:
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
            notes = json.load(fh)["points"]
        bad = [p for p in notes if p.get("status") != "ok"]
        problems += [f"point t_int={p['t_int']} {p.get('status')}: {p.get('error')}"
                     for p in bad]
    ok_rows = 0
    for i, row in enumerate(rows):
        v = dict(zip(columns, (float(x) for x in row)))
        errs = []
        if not (math.isfinite(v[e_col]) and v[e_col] > 0):
            errs.append(f"{e_col}={v[e_col]}")
        if scan:
            for w in ("a", "b"):
                if not 0.0 <= v[f"overlap_{w}"] <= 1.0:
                    errs.append(f"overlap_{w}={v[f'overlap_{w}']}")
                # N/2 with a relative 1e-12 allowance for the last digit
                if not v[f"spin_len_{w}"] <= 0.5 * n * (1 + 1e-12):
                    errs.append(f"spin_len_{w}={v[f'spin_len_{w}']} > N/2")
        else:
            phi = float(keys["oracle_phi_ab"].split(",")[i])
            if abs(v["phi_ab"] - phi) > 1e-12:
                errs.append(f"phi_ab={v['phi_ab']} expected {phi}")
        if reference is not None:
            ref_cols, ref_rows = reference
            if ref_cols != columns or i >= len(ref_rows):
                errs.append("columns or row count differ from the reference")
            else:
                errs += reference_mismatches(columns, row, ref_rows[i])
        if errs:
            problems.append(f"row {i}: " + "; ".join(errs))
        else:
            ok_rows += 1
    return ok_rows, problems


def load_reference(wl, key):
    path = os.path.join(HERE, "reference", f"{wl.name}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    rows = ref["inputs"].get(key)
    return None if rows is None else (ref["columns"], rows)


# -- metrics ---------------------------------------------------------------

def stats(values):
    vals = sorted(v for v in values if not math.isnan(v))
    if not vals:
        return {"median": math.nan, "q1": math.nan, "q3": math.nan, "n": 0}
    if len(vals) == 1:
        q1 = q3 = vals[0]
    else:
        q1, _, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


def end_to_end(samples):
    full = [s for s in samples if s.mode == "plain"]
    per_min = [60.0 * s.rows / (s.wall_s - s.setup_s) for s in full
               if s.rows and not math.isnan(s.setup_s)]
    return {
        "wall_s": stats(s.wall_s for s in full),
        "setup_s": stats(s.setup_s for s in samples),
        "points_per_min": stats(per_min),
        "peak_rss_mb": stats(s.max_rss_mb for s in full),
    }


def min_distinct_steps(keys):
    """Steps a scan needs when the hold times share the forward ramp and hold:
    one forward ramp, the hold up to the longest t_int, one backward ramp per
    point.  Lengths are whole multiples of dt on the workloads' lattice."""
    dt = float(keys["dt"].split()[0])
    t_ramp = float(keys["t_ramp"].split()[0])
    t_int = [float(t) for t in keys["t_int"].split(",")]
    return round((t_ramp + max(t_int) + len(t_int) * t_ramp) / dt)


def per_layer(wl, keys, traced, plain):
    spans = [tuple(s) for s in traced.spans]
    layer, top = summarise(spans)

    def get(name, stat):
        return layer.get(name, {}).get(stat, 0)
    out = {}
    for metric, _ in PER_LAYER:
        name, stat = metric.rsplit(".", 1)
        if stat in ("calls", "s", "self_s") and not metric.startswith("cli."):
            out[metric] = get(name, stat)
    steps = get("meanfield.SplitStepEvolver.step", "calls")
    step_s = get("meanfield.SplitStepEvolver.step", "s")
    if wl.subcommand == "run":
        n_r = int(keys["n_r"])
        n_z = grid_cells_z(keys)
        out["meanfield.step.cell_updates_per_s"] = \
            36 * n_r * n_z * steps / step_s if step_s else 0.0
        out["sequence.step_reuse"] = min_distinct_steps(keys) / steps if steps else 0.0
    else:
        out["meanfield.step.cell_updates_per_s"] = 0.0
        out["sequence.step_reuse"] = 1.0      # nothing to propagate, nothing redone
    out["cli.self_s"] = traced.wall_s - top
    out["trace.overhead_s"] = traced.wall_s - plain.wall_s
    return {m: out[m] for m, _ in PER_LAYER}


def grid_cells_z(keys):
    """n_z of the grid the config builds, from becsteer's own grid rule."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from becsteer.config import parse_config
    text = "".join(f"{k} = {v}\n" for k, v in keys.items())
    return parse_config(text).protocol().build_grid().n_z


# -- environment -----------------------------------------------------------

def environment():
    import numpy as np
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        # the ceiling keeps git from reporting an enclosing repository's commit
        # when the checkout is not a git repository itself
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
                                capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "workers": WORKERS,
        "clients": 1,
        "git_commit": commit,
    }


# -- one benchmark run -----------------------------------------------------

def config_keys(cfg_text):
    return dict(line.split(" = ", 1) for line in cfg_text.splitlines())


def expected_rows(wl, keys):
    return len(keys["t_int" if wl.subcommand == "run" else "oracle_phi_ab"].split(","))


def finite(value):
    """Metric value for the JSON line: a failed run still prints valid JSON."""
    return value if isinstance(value, (int, float)) and math.isfinite(value) else 0.0


def bench(wl, seed, seconds, trace, toy=False):
    """Run one workload; returns the result document (see the module doc)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "becsteer", "cli.py")):
        raise BenchError(f"no becsteer sources under {ROOT}/src")
    index = wl.draw(seed)
    cfg_text = wl.config_text(index, toy=toy)
    keys = config_keys(cfg_text)
    reference = None if toy else load_reference(wl, wl.input_key(index))

    work = os.path.join(OUT, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cfg_path = os.path.join(work, f"{wl.name}.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(cfg_text)

    t0 = clock()
    deadline = t0 + COMMAND_TIMEOUT_S
    samples, problems = [], []

    def one(mode):
        s, out_dir = run_command(wl, work, cfg_path, mode, deadline)
        if mode != "setup":
            s.rows = expected_rows(wl, keys)
            if out_dir is not None:
                s.rows_ok, probs = check_output(wl, out_dir, keys, reference)
                s.problems += probs
        elif s.exit != 0 or math.isnan(s.setup_s):
            s.problems.append("set-up probe did not reach the end of set-up")
        problems.extend(f"{mode}: {p}" for p in s.problems)
        samples.append(s)
        return s

    try:
        if trace:
            plain = one("plain")
            traced = one("trace")
            metrics = per_layer(wl, keys, traced, plain)
            units = dict(PER_LAYER)
        else:
            # commands start until `seconds` have passed, so a run measures
            # at least that long; a scan command alone outlasts the default 18 s
            while True:
                s = one("plain")
                if s.problems or clock() - t0 >= seconds:
                    break
            while (not problems and wl.setup_end == "prepare_initial"
                   and len(samples) < SETUP_SAMPLES):
                one("setup")
            metrics = {k: v["median"] for k, v in end_to_end(samples).items()}
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(s.rows for s in samples)
    failed = attempted - sum(s.rows_ok for s in samples)
    correct = not problems and failed == 0 and all(
        math.isfinite(v) for v in metrics.values())
    return {
        "workload": wl.name,
        "seed": seed,
        "input_index": index,
        "input": wl.inputs(index),
        "toy": toy,
        "trace": trace,
        "seconds": seconds,
        "environment": environment(),
        "stats": {} if trace else end_to_end(samples),
        "problems": problems,
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": finite(metrics[k]), "unit": u}
                        for k, u in units.items()},
        },
    }


def report(doc, stream=sys.stdout):
    """Human-readable lines, then the one-line JSON result."""
    p = lambda *a: print(*a, file=stream)    # noqa: E731
    p(f"workload {doc['workload']}  seed {doc['seed']}  input #{doc['input_index']} "
      f"{doc['input']}  trace {doc['trace']}")
    p("environment " + json.dumps(doc["environment"]))
    if doc["stats"]:
        p(f"{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}  unit")
        for k, st in doc["stats"].items():
            p(f"{k:<16}{st['median']:>12.4f}{st['q1']:>12.4f}{st['q3']:>12.4f}"
              f"{st['n']:>4}  {END_TO_END_UNITS[k]}")
    else:
        for k, m in doc["result"]["metrics"].items():
            p(f"{k:<48}{m['value']:>16.6g}  {m['unit']}")
    r = doc["result"]
    p(f"failed_frac {r['failed'] / r['attempted']:.4f} "
      f"({r['failed']} of {r['attempted']} rows)")
    for prob in doc["problems"]:
        p(f"problem: {prob}")
    p(json.dumps(r))


def write_reference(wl):
    """Run every input once and store its rows as the reference."""
    ref = {"workload": wl.name, "config": wl.config, "columns": None, "inputs": {}}
    for index in range(wl.n_inputs):
        work = os.path.join(OUT, f"ref-{wl.name}-{index}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        cfg_path = os.path.join(work, "ref.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(wl.config_text(index))
        sample, out_dir = run_command(wl, work, cfg_path, "plain", clock() + 600.0)
        if out_dir is None or sample.problems:
            raise BenchError(f"{wl.name} input {index}: {sample.problems}")
        keys = config_keys(wl.config_text(index))
        _, probs = check_output(wl, out_dir, keys, None)
        if probs:
            raise BenchError(f"{wl.name} input {index}: {probs}")
        columns, rows = read_csv(os.path.join(out_dir, TABLES[wl.subcommand]))
        ref["columns"] = columns
        ref["inputs"][wl.input_key(index)] = rows
        shutil.rmtree(work)
        print(f"{wl.name} input {index}: {len(rows)} rows", flush=True)
    with open(os.path.join(HERE, "reference", f"{wl.name}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    for k in BLAS_ENV:
        os.environ[k] = BLAS_THREADS
    wl = WORKLOADS[args.workload]
    try:
        if args.write_reference:
            write_reference(wl)
            return 0
        doc = bench(wl, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    report(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
