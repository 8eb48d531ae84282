"""One instance of a benchmark workload, run in a fresh interpreter.

    python3 perfbench/worker.py '<instance as JSON>'

prints one JSON line: set-up and work time, peak resident memory, the
output-check failures, the quality figures and, for a traced instance, the
summed span totals. run.py starts one worker per instance, so set-up really
repeats and an earlier instance cannot hide the memory peak of a later one.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

from spans import Probes, Tracer, dataset_digest, layer_totals, patched, span_patches

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads() -> None:
    """One BLAS thread and no fdilab pool; only effective before numpy loads."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("FDI_LAB_THREADS", None)


def set_up(case: str):
    """Import fdilab from this checkout, load the case and build its Jacobian."""
    t0 = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fdilab
    from fdilab import attack, bench, classify, cli, featsel, powergrid

    if Path(fdilab.__file__).resolve().parent != SRC / "fdilab":
        raise RuntimeError(f"imported fdilab from {fdilab.__file__}, not from {SRC}")
    system = powergrid.load_builtin(case)
    jac = powergrid.build_jacobian(system)
    modules = {"attack": attack, "bench": bench, "classify": classify, "cli": cli,
               "featsel": featsel, "powergrid": powergrid}
    return time.perf_counter() - t0, modules, system, jac


# ------------------------------------------------------------ the workloads
#
# Each work function is the timed region; it returns what its check needs.
# Each check runs after the timed region and returns (failures, quality).

def _matrix_spec(inst, modules, **fields):
    p = inst["params"]
    return modules["bench"].ExperimentSpec(
        systems=(p["case"],), n_train=p["n_train"], n_test=p["n_test"], seed=inst["seed"],
        threads=1, **fields)


def work_fs(inst, modules, system, jac):
    from fdilab.featsel import BcsParams, BpsoParams, GaParams

    p = inst["params"]
    spec = _matrix_spec(
        inst, modules, fs_methods=("bcs", "bpso", "ga"), classifiers=("knn",),
        bcs=BcsParams(population=p["bcs"][0], iterations=p["bcs"][1]),
        bpso=BpsoParams(population=p["bpso"][0], iterations=p["bpso"][1]),
        ga=GaParams(population=p["ga"][0], iterations=p["ga"][1]))
    fs_log = {}
    rows = modules["bench"].run_matrix(spec, fs_log=fs_log)
    return {"rows": rows, "fs_log": fs_log}


def work_detect(inst, modules, system, jac):
    from fdilab.classify import AnnConfig

    spec = _matrix_spec(inst, modules, fs_methods=("none",), classifiers=("svm", "knn", "ann"),
                        ann=AnnConfig(seed=inst["ann_seed"]))
    return {"rows": modules["bench"].run_matrix(spec)}


def work_simulate(inst, modules, system, jac):
    attack, bench, cli = modules["attack"], modules["bench"], modules["cli"]
    p = inst["params"]
    path = Path(inst["out_dir"]) / f"{p['case']}_seed{inst['seed']}.csv"
    code = cli.main(["generate", "--case", p["case"], "--n", str(p["n"]),
                     "--seed", str(inst["seed"]), "--attack-ratio", str(p["attack_ratio"]),
                     "--noise-sigma", str(p["noise_sigma"]),
                     "--out", str(path), "--out-dir", inst["out_dir"]])
    if code != 0:
        raise RuntimeError(f"fdilab generate exited with code {code}")
    ds = attack.load_dataset(path)
    noise = attack.NoiseModel(p["noise_sigma"])
    threshold = bench.calibrate_threshold(system, noise, seed=inst["seed"])
    rates = attack.stealthiness_report(ds, jac, noise.sigma ** 2, threshold)
    return {"dataset": ds, "rates": rates}


def _matrix_quality(rows, jac):
    accuracies = [r.accuracy for r in rows]
    failures = [f"{r.fs_method}/{r.classifier}: accuracy {r.accuracy!r} outside [0, 1]"
                for r in rows if not 0.0 <= r.accuracy <= 1.0]
    return failures, {"accuracies": accuracies,
                      "kept": [r.n_features / jac.n_measurements for r in rows]}


def check_fs(out, probes, modules, jac):
    featsel = modules["featsel"]
    failures, quality = _matrix_quality(out["rows"], jac)
    (ctx_args, ctx_kwargs), = probes.fitness_context_calls
    best = []
    for (_system, method), (res, _seconds) in sorted(out["fs_log"].items()):
        mask = res.best_mask.astype(bool)
        best.append(res.best_fitness)
        if not mask.any():
            failures.append(f"{method}: empty best mask")
            continue
        if any(b < a for a, b in zip(res.trace, res.trace[1:])):
            failures.append(f"{method}: best-fitness trace decreases")
        fresh = featsel.make_fitness_context(*ctx_args, **ctx_kwargs)
        again = featsel.fitness(mask, fresh)
        if again != res.best_fitness:
            failures.append(f"{method}: best mask rescores to {again!r} on an empty cache, "
                            f"search reported {res.best_fitness!r}")
    quality["wrapper_fitness"] = best
    return failures, quality


def check_detect(out, probes, modules, jac):
    return _matrix_quality(out["rows"], jac)


def check_simulate(out, probes, modules, jac):
    p = out["params"]
    ds = out["dataset"]
    failures = []
    if probes.generated_digests != [dataset_digest(ds)]:
        failures.append("reloaded CSV differs from the generated dataset")
    want = math.floor(p["n"] * p["attack_ratio"])
    if int(ds.y.sum()) != want or ds.n_samples != p["n"]:
        failures.append(f"reloaded {ds.n_samples} rows with {int(ds.y.sum())} attacked, "
                        f"expected {p['n']} with {want}")
    # the 2-point stealth test runs in run.py on the flag counts of all the
    # run's datasets: one dataset alone is too small for it
    clean_rate, attacked_rate = out["rates"]
    n_attacked = int(ds.y.sum())
    n_clean = ds.n_samples - n_attacked
    flags = [round(clean_rate * n_clean), n_clean, round(attacked_rate * n_attacked), n_attacked]
    # the accuracy of the residual bad-data test as a detector of these attacks
    accuracy = (n_clean * (1.0 - clean_rate) + n_attacked * attacked_rate) / ds.n_samples
    return failures, {"accuracies": [accuracy], "kept": [1.0], "flags": flags}


STEPS = {
    "fs-ieee14": (work_fs, check_fs),
    "detect-ieee57": (work_detect, check_detect),
    "simulate-ieee118": (work_simulate, check_simulate),
}


# --------------------------------------------------------------- instance

def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = " ".join(str(blas.get(k, "")) for k in ("name", "version", "openblas configuration"))
    except TypeError:  # numpy before 1.26 has no mode argument
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            numpy.show_config()
        blas = buf.getvalue()
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": " ".join(blas.split()),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}


def run_instance(inst: dict) -> dict:
    """Set up, run the timed work, then check its outputs outside the clock."""
    setup_s, modules, system, jac = set_up(inst["params"]["case"])
    work, check = STEPS[inst["workload"]]
    probes = Probes()
    tracer = Tracer() if inst["trace"] else None
    result = {"setup_s": setup_s, "failures": []}
    try:
        with patched(probes.patches(modules)), \
                patched(span_patches(tracer, modules) if tracer else []):
            t0 = time.perf_counter()
            out = work(inst, modules, system, jac)
            result["wall_s"] = time.perf_counter() - t0
    except Exception as exc:  # an instance that raises is a failed operation
        result["failures"].append(f"raised {type(exc).__name__}: {exc}")
        out = None
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if out is not None:
        out["params"] = inst["params"]
        try:
            failures, quality = check(out, probes, modules, jac)
        except Exception as exc:  # a check that cannot run fails the instance
            failures, quality = [f"check raised {type(exc).__name__}: {exc}"], {}
        result["failures"] += failures
        result.update(quality)
        if "rows" in out:
            result["columns"] = [[r.fs_method, r.classifier, r.accuracy] for r in out["rows"]]
    if probes.svm_unconverged:
        result["failures"].append(f"{probes.svm_unconverged} of {probes.svm_fits} "
                                  "SVM fits did not converge")
    if tracer is not None:
        result["totals"] = layer_totals(tracer.spans)
    result["env"] = environment()
    return result


def main(argv) -> int:
    pin_threads()
    inst = json.loads(argv[1])
    print(json.dumps(run_instance(inst)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
