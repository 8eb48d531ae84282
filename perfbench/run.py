"""fdilab performance benchmark: three closed-loop workloads, timed end to end
and per layer.

    python3 perfbench/run.py --workload fs-ieee14 --seed 1 --seconds 20 --trace 0

One caller runs passes back to back until --seconds have passed (at least
two). A pass is one or more instances; each instance runs in a fresh
worker process (worker.py) on one BLAS thread and is checked after its
timed region. With --trace 0 the last line of output reports the end-to-end
metrics of BENCHMARK.json; with --trace 1 every untraced pass is followed by
a traced pass over the same instances, and the last line reports the
per-layer metrics. See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import add_totals, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Sizes are small enough that a pass takes 1-9 s on one core and a 30 s run
# holds several passes, and large enough to keep each workload's mix.
WORKLOADS = {
    "fs-ieee14": {"case": "ieee14", "n_train": 400, "n_test": 200,
                  "bcs": [15, 5], "bpso": [15, 5], "ga": [20, 10]},
    # SMO's cost differs up to tenfold between training sets drawn from one
    # distribution, so every pass trains on the same pool of matrix seeds;
    # the run seed draws the ANN initialisation and batch order.
    "detect-ieee57": {"case": "ieee57", "n_train": 600, "n_test": 300, "pool": [0, 1]},
    "simulate-ieee118": {"case": "ieee118", "n": 4000, "attack_ratio": 0.5,
                         "noise_sigma": 0.01},
}

MIN_PASSES = 2
DEADLINE_S = 160.0   # workers still running then are killed; no pass starts that would end later


def derive(seed: int, *tokens) -> int:
    text = "|".join(str(t) for t in (seed, *tokens))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little")


def pass_instances(workload: str, seed: int, k: int) -> list:
    params = WORKLOADS[workload]
    if "pool" in params:
        return [{"seed": s, "ann_seed": derive(seed, "ann")} for s in params["pool"]]
    return [{"seed": derive(seed, k)}]


def run_worker(inst: dict, out_root: Path, deadline: float) -> dict:
    out_dir = Path(tempfile.mkdtemp(dir=out_root))
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"),
                               json.dumps({**inst, "out_dir": str(out_dir)})],
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"failures": [f"worker still running after {timeout:.0f} s; killed"]}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return {"failures": [f"worker exited with code {proc.returncode}: {tail}"]}
    return json.loads(lines[-1])


def run_pass(workload: str, instances: list, traced: bool, out_root: Path,
             deadline: float) -> dict:
    results = [run_worker({"workload": workload, "params": WORKLOADS[workload],
                           "trace": traced, **inst}, out_root, deadline) for inst in instances]
    return {"instances": instances, "results": results}


def run_passes(workload: str, seed: int, seconds: float, trace: bool, out_root: Path) -> list:
    passes = []
    t0 = time.monotonic()
    deadline = t0 + DEADLINE_S
    longest = 0.0
    k = 0
    while True:
        start = time.monotonic()
        instances = pass_instances(workload, seed, k)
        passes.append(run_pass(workload, instances, False, out_root, deadline))
        if trace:
            passes.append(run_pass(workload, instances, True, out_root, deadline))
        k += 1
        longest = max(longest, time.monotonic() - start)
        elapsed = time.monotonic() - t0
        if (elapsed >= seconds and len(passes) >= MIN_PASSES) or elapsed + longest > DEADLINE_S:
            return passes


def check_repeats(passes: list) -> None:
    """Equal instances must give identical accuracy columns in every pass."""
    first = {}
    for p in passes:
        for inst, res in zip(p["instances"], p["results"]):
            if "columns" not in res:
                continue
            key = json.dumps(inst, sort_keys=True)
            if key not in first:
                first[key] = res["columns"]
            elif res["columns"] != first[key]:
                res["failures"].append("accuracy columns differ from an earlier run "
                                       "of the same instance")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _pass_wall(p):
    walls = [r.get("wall_s") for r in p["results"]]
    return None if None in walls else sum(walls)


def end_to_end(passes: list) -> dict:
    results = [r for p in passes for r in p["results"]]
    walls = [w for w in map(_pass_wall, passes) if w is not None]
    return {
        "wall_s": _median(walls),
        "setup_s": _median([r["setup_s"] for r in results if "setup_s" in r]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in results if "peak_rss_mb" in r]),
        "accuracy_mean": _mean([a for r in results for a in r.get("accuracies", [])]),
        "features_kept_frac": _mean([f for r in results for f in r.get("kept", [])]),
    }


def per_layer(passes: list) -> dict:
    per_pass = []
    overheads = []
    for plain, traced in zip(passes[::2], passes[1::2]):
        totals = {}
        for r in traced["results"]:
            add_totals(totals, r.get("totals", {}))
        m = layer_metrics(totals)
        m["featsel.wrapper_fitness_mean"] = _mean(
            [f for r in traced["results"] for f in r.get("wrapper_fitness", [])])
        per_pass.append(m)
        u, t = _pass_wall(plain), _pass_wall(traced)
        if u and t:
            overheads.append((t - u) / u)
    out = {name: _median([m[name] for m in per_pass]) for name in per_pass[0]}
    out["trace.overhead_frac"] = _median(overheads)
    return out


def stealth_check(passes: list):
    """Failures of the residual test's 2-point stealth check, or None.

    The check pools the flag counts of the run's distinct datasets: on one
    dataset of 2000 rows per class, sampling noise alone breaks 2 points
    about once in 300.
    """
    counts = {}
    for p in passes:
        for inst, res in zip(p["instances"], p["results"]):
            if "flags" in res:
                counts[json.dumps(inst, sort_keys=True)] = res["flags"]
    if not counts:
        return None
    clean_flagged, clean, attacked_flagged, attacked = map(sum, zip(*counts.values()))
    clean_rate, attacked_rate = clean_flagged / clean, attacked_flagged / attacked
    if abs(clean_rate - attacked_rate) < 0.02:
        return []
    return [f"residual test separates the classes over {len(counts)} datasets: clean flag "
            f"rate {clean_rate:.4f}, attacked {attacked_rate:.4f}"]


def outcome(passes: list, listed: list, trace: bool):
    """The result line (operations attempted and failed, and the listed
    metrics) and the failure messages.

    Each instance is an operation. It fails if it raised, if an output check
    failed, if an SVM fit in it did not converge, or if it disagrees with an
    earlier run of itself. The pooled stealth check, where there is one, is
    one more operation.
    """
    check_repeats(passes)
    results = [r for p in passes for r in p["results"]]
    attempted = len(results)
    failed = sum(1 for r in results if r["failures"])
    stealth = stealth_check(passes)
    if stealth is not None:
        attempted += 1
        failed += bool(stealth)
    values = per_layer(passes) if trace else end_to_end(passes)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in listed}}
    return result, [f for r in results for f in r["failures"]] + (stealth or [])


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fdilab").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".csv"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    bench_json = ROOT / "BENCHMARK.json"
    if not (SRC / "fdilab" / "__init__.py").is_file() or not bench_json.is_file():
        print(f"perfbench: no fdilab sources under {SRC} or no {bench_json.name}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    listed = json.loads(bench_json.read_text())["per_layer" if args.trace else "end_to_end"]

    out_root = ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    run_root = Path(tempfile.mkdtemp(dir=out_root))
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace), run_root)
    finally:
        shutil.rmtree(run_root, ignore_errors=True)
    result, failures = outcome(passes, listed, bool(args.trace))

    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{result['attempted']} operations, {result['failed']} failed")
    for failure in failures:
        print(f"  FAILED: {failure}")
    print(f"  failed_frac = {result['failed'] / result['attempted']:.6g} fraction")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    results = [r for p in passes for r in p["results"]]
    env = next((r["env"] for r in results if "env" in r), {})
    print("env " + json.dumps({**env, "workload": args.workload, "seed": args.seed,
                               "seconds": args.seconds, "trace": args.trace,
                               "git_commit": _git_commit(), "src_sha256": _source_digest()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
