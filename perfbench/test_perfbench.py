"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json

import pytest

import run
import worker

TINY = {
    "fs-ieee14": {"case": "ieee14", "n_train": 60, "n_test": 30,
                  "bcs": [4, 1], "bpso": [4, 1], "ga": [4, 1]},
    "detect-ieee57": {"case": "ieee57", "n_train": 60, "n_test": 30, "pool": [0]},
    # the small case keeps it fast; 8000 rows keep the 2-point stealth check reliable
    "simulate-ieee118": {"case": "ieee14", "n": 8000, "attack_ratio": 0.5, "noise_sigma": 0.01},
}


def listed_metrics(trace):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_prints_every_listed_metric_with_its_unit(monkeypatch, capsys, workload, trace):
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    listed = listed_metrics(trace)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 2
    assert result["failed"] == 0 and result["correct"] is True
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    for m in listed:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float))
        assert any(line.startswith(f"  {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    assert any(line.startswith("  failed_frac = ") for line in lines)
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert {"nproc", "python", "numpy", "blas", "git_commit", "seed"} <= set(env)


def test_flipped_label_in_round_trip_raises_failed_frac(monkeypatch, tmp_path):
    from fdilab import attack

    inst = {"workload": "simulate-ieee118", "params": TINY["simulate-ieee118"],
            "seed": 3, "trace": False, "out_dir": str(tmp_path)}
    good = worker.run_instance(inst)

    load = attack.load_dataset

    def load_flipped(path):
        ds = load(path)
        ds.y[0] ^= 1
        return ds

    monkeypatch.setattr(attack, "load_dataset", load_flipped)
    bad = worker.run_instance(inst)

    roundtrip = "reloaded CSV differs from the generated dataset"
    assert good["failures"] == []
    assert roundtrip in bad["failures"]

    def failed(result):
        passes = [{"instances": [{"seed": 3}], "results": [result]}]
        out, failures = run.outcome(passes, listed_metrics(0), trace=False)
        return out["failed"], out["attempted"]

    # one instance plus the pooled stealth check
    assert failed(good) == (0, 2)
    assert failed(bad) == (1, 2)


def test_stealth_check_pools_distinct_datasets():
    def passes(*flags):
        return [{"instances": [{"seed": seed}], "results": [{"flags": f, "failures": []}]}
                for seed, f in flags]

    # 0.0475 vs 0.0535 pooled: within 2 points
    assert run.stealth_check(passes((1, [50, 1000, 55, 1000]), (2, [45, 1000, 52, 1000]))) == []
    # attacked rows flagged ten times as often: not stealthy
    assert run.stealth_check(passes((1, [50, 1000, 500, 1000])))
    # a traced repeat of the same dataset is counted once; counted twice,
    # dataset 1 would pull the pooled gap to 2 points
    assert run.stealth_check(passes((1, [50, 1000, 80, 1000]), (1, [50, 1000, 80, 1000]),
                                    (2, [50, 1000, 50, 1000]))) == []
    assert run.stealth_check(passes()) is None
