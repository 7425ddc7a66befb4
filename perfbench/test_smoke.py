"""Toy-size smoke test of the benchmark: python3 -m pytest perfbench

Every workload runs its real code path (probe, becsteer CLI, output checks,
metrics) on a grid the size of `becsteer check`, in a few seconds.
"""

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracing import summarise  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_toy_run(name, trace):
    doc = run.bench(run.WORKLOADS[name], seed=3, seconds=0.1, trace=trace, toy=True)
    res = doc["result"]
    assert doc["problems"] == []
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in res["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in res["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_named_counts_repeat():
    wl = run.WORKLOADS["scan_fig2a"]
    counts = ("meanfield.SplitStepEvolver.step.calls",
              "correlators.fock_sum_average.calls", "meanfield.ground_state.calls")
    got = [run.bench(wl, seed=5, seconds=0.1, trace=1, toy=True)["result"]["metrics"]
           for _ in range(2)]
    for c in counts:
        assert got[0][c]["value"] == got[1][c]["value"] > 0


def test_self_times_cover_spans():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1),
             ("b", 5.0, 6.0, 0), ("a", 11.0, 12.0, -1)]
    layer, top = summarise(spans)
    assert top == 11.0
    assert layer["a"] == {"calls": 2, "s": 11.0, "self_s": 7.0}
    assert layer["b"] == {"calls": 2, "s": 4.0, "self_s": 3.0}
    assert sum(v["self_s"] for v in layer.values()) == pytest.approx(top)


def test_reference_tolerance():
    assert run.close("E_EPR", "0.8416000001", "0.8416")          # 1e-10 drift
    assert not run.close("E_EPR", "0.8417", "0.8416")            # physics change
    assert run.close("alpha_opt", "3.14159265358", "1e-12")      # same angle mod pi
    assert not run.close("alpha_opt", "0.5001", "0.5")
    assert run.close("oracle_E_EPR", "nan", "nan")
    assert not run.close("E_EPR", "nan", "0.8")
    # a row at the witness's other minimum matches; half of that change does not
    with open(os.path.join(HERE, "reference", "measure_fig3.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    cols, want = ref["columns"], ref["inputs"]["0.6"][0]
    partner = run.witness_partner(cols, want)
    assert run.reference_mismatches(cols, want, want) == []
    assert run.reference_mismatches(cols, partner, want) == []
    assert run.reference_mismatches(cols, run.witness_partner(cols, partner), want) == []
    half = list(partner)
    half[cols.index("inferred_var_1")] = want[cols.index("inferred_var_1")]
    half[cols.index("inferred_var_2")] = want[cols.index("inferred_var_2")]
    assert run.reference_mismatches(cols, half, want)
    drifted = list(partner)
    i = cols.index("E_EPR")
    drifted[i] = repr(float(want[i]) * (1 + 1e-3))
    assert run.reference_mismatches(cols, drifted, want)


def test_references_cover_every_input():
    for wl in run.WORKLOADS.values():
        for i in range(wl.n_inputs):
            assert run.load_reference(wl, next(iter(wl.inputs(i).values())))


def test_stops_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    with pytest.raises(run.BenchError):
        run.bench(run.WORKLOADS["oracle_direct"], seed=1, seconds=0.1, trace=0)
