"""Experiment harness: hyperparameter grid search, the feature-selection by
classifier by system matrix, detector threshold calibration, and result
export/reporting.

Everything is reproducible from one master seed. Sub-seeds for datasets and
searches are derived by hashing string tokens, so adding systems or methods
never shifts the randomness of the others, and worker-pool scheduling cannot
affect results. A system's token is its case name, so one case file seeds
alike by whatever path it is named.
"""

from __future__ import annotations

import functools
import hashlib
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import attack, classify, featsel, powergrid
from .attack import AttackConfig, NoiseModel, generate_dataset
from .classify import AnnConfig, KnnConfig, SvmConfig
from .featsel import BcsParams, BpsoParams, GaParams
from .powergrid import BusSystem


def subseed(master: int, *tokens) -> int:
    """Stable 63-bit seed derived from the master seed and string tokens."""
    text = "|".join([str(int(master))] + [str(t) for t in tokens])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


# --------------------------------------------------------------- grid search

@dataclass(frozen=True)
class GridSearchResult:
    best_config: object
    best_accuracy: float
    rows: tuple          # (config, accuracy or None, error or None) per grid point


def default_grid(classifier: str, base=None) -> tuple:
    """Grids spanning the usual winning region for each classifier family.

    A grid sweeps its own axes only: SVM C and gamma, KNN k, ANN alpha. Every
    other field comes from base, the classifier's default config when None.
    """
    if classifier == "svm":
        axes = [{"C": c, "gamma": g} for c in (1.0, 10.0, 100.0, 1000.0, 10000.0)
                for g in (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)]
    elif classifier == "knn":
        axes = [{"k": k} for k in range(1, 21)]
    elif classifier == "ann":
        axes = [{"alpha": a} for a in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)]
    else:
        raise ValueError(f"unknown classifier {classifier!r}")
    base = classify.CONFIGS[classifier]() if base is None else base
    return tuple(replace(base, **point) for point in axes)


def grid_search(ctx: featsel.FitnessContext, grid) -> GridSearchResult:
    """Score every grid point on ctx's holdout split; argmax wins.

    Each grid point is featsel.holdout_accuracies under that point's config
    over all features, so the split is scaled once, by the caller, for any
    number of grids. Ties go to the earliest grid point.
    """
    if len(grid) == 0:
        raise ValueError("grid must be non-empty")
    rows = []
    for cfg in grid:
        acc = err = None
        try:
            acc = featsel.holdout_accuracies(ctx, cfg, np.ones((1, ctx.n_features), bool))[0]
        except (ValueError, FloatingPointError) as exc:
            err = str(exc)
        rows.append((cfg, acc, err))
    scored = [idx for idx, (_, acc, _) in enumerate(rows) if acc is not None]
    if not scored:
        errors = "; ".join(dict.fromkeys(err for _, _, err in rows))
        raise ValueError(f"every grid point failed: {errors}")
    best_idx = max(scored, key=lambda idx: rows[idx][1])  # the first of equal accuracies
    return GridSearchResult(best_config=grid[best_idx], best_accuracy=rows[best_idx][1],
                            rows=tuple(rows))


# ------------------------------------------------------- threshold calibration

def calibrate_threshold(sys: BusSystem, noise: NoiseModel = NoiseModel(),
                        n_samples: int = 500, quantile: float = 0.95,
                        seed: int = 0, load_var: float = 0.1) -> float:
    """Empirical quantile of clean-sample WLS residuals as the detector threshold."""
    if not 0.0 < quantile < 1.0:
        raise ValueError("quantile must be in (0, 1)")
    ds = generate_dataset(sys, n_samples, 0.0, noise, load_var, None, seed)
    jac = powergrid.build_jacobian(sys)
    res = attack.batch_residuals(ds.X, jac, noise.sigma ** 2)
    return float(np.quantile(res, quantile))


# ------------------------------------------------------------- the experiment

@dataclass(frozen=True)
class ExperimentSpec:
    """Resolved configuration of one benchmark run."""

    systems: tuple = ("ieee14",)
    fs_methods: tuple = ("none", "bcs", "bpso", "ga")
    classifiers: tuple = ("svm", "knn", "ann")
    n_train: int = 2000
    n_test: int = 500
    seed: int = 0
    noise: NoiseModel = NoiseModel()
    load_var: float = 0.1
    attack_ratio: float = 0.5
    attack: AttackConfig = AttackConfig()
    standardize: bool = True
    svm: SvmConfig = SvmConfig()
    knn: KnnConfig = KnnConfig()
    ann: AnnConfig = AnnConfig()
    bcs: BcsParams = BcsParams()
    bpso: BpsoParams = BpsoParams()
    ga: GaParams = GaParams()
    val_fraction: float = 0.2
    threads: int = 1

    def __post_init__(self):
        if min(self.n_train, self.n_test) < 2:
            raise ValueError("n_train and n_test must be at least 2")
        if not 0 <= self.attack_ratio <= 1:
            raise ValueError("attack_ratio must be in [0, 1]")
        if not 0 <= self.load_var < 1:
            raise ValueError("load_var must be in [0, 1)")
        if not 0 < self.val_fraction < 1:
            raise ValueError("val_fraction must be in (0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.threads < 1:
            raise ValueError(f"threads must be a positive integer, got {self.threads}")
        for fs in self.fs_methods:
            if fs != "none" and fs not in featsel.SEARCHERS:
                raise ValueError(f"unknown FS method {fs!r} (use none, bcs, bpso, ga)")
        for kind in self.classifiers:
            if kind not in classify.CONFIGS:
                raise ValueError(f"unknown classifier {kind!r} (use {', '.join(classify.CONFIGS)})")
        for what, names in (("system", self.systems), ("FS method", self.fs_methods),
                            ("classifier", self.classifiers)):
            if not names:
                raise ValueError(f"no {what} given")
            if len(set(names)) < len(names):
                raise ValueError(f"repeated {what}: {','.join(names)}")


@dataclass(frozen=True)
class ExperimentResult:
    system: str
    fs_method: str
    classifier: str
    n_features: int
    accuracy: float
    seed: int
    converged: bool = True    # False when the SVM solver hit its iteration cap


def check_spec(spec: ExperimentSpec, systems) -> None:
    """Raise ValueError, naming the config key, for sizes run_matrix would
    reject part-way through: one-class training rows for svm or ann (knn
    trains on one class), knn_k above the fewest rows a KNN trains on (the
    wrapper's training rows when a search runs, else n_train when knn is a
    classifier) and max_targets above a system's state count."""
    n_attacked = math.floor(spec.n_train * spec.attack_ratio)
    if n_attacked in (0, spec.n_train) and {"svm", "ann"} & set(spec.classifiers):
        raise ValueError(f"attack_ratio = {spec.attack_ratio} gives {n_attacked} attacked of "
                         f"the {spec.n_train} training rows (n_train): svm and ann need both "
                         "classes")
    labels = np.arange(spec.n_train) < n_attacked  # split sizes depend on no seed or order
    wrapper_rows = len(classify.stratified_split(labels, spec.val_fraction, 0)[0])
    searches = set(spec.fs_methods) - {"none"}
    if searches or "knn" in spec.classifiers:
        rows, what = ((wrapper_rows, "wrapper training rows") if searches
                      else (spec.n_train, "training rows"))
        if spec.knn.k > rows:
            raise ValueError(f"knn_k = {spec.knn.k} exceeds the {rows} {what}")
    for sys in systems:  # whether or not any row is attacked
        spec.attack.on(sys.n_states, sys.name)


def _experiment_datasets(spec: ExperimentSpec, sys: BusSystem):
    train = generate_dataset(sys, spec.n_train, spec.attack_ratio, spec.noise,
                             spec.load_var, spec.attack, subseed(spec.seed, sys.name, "train"))
    test = generate_dataset(sys, spec.n_test, spec.attack_ratio, spec.noise,
                            spec.load_var, spec.attack, subseed(spec.seed, sys.name, "test"))
    return train, test


def wrapper_searches(spec: ExperimentSpec, system: str, X, y):
    """search(method) -> (FsResult, seconds) on one KNN wrapper context of a
    system's training rows; the methods share its mask cache, as fitness is
    a pure function of the mask. A knn_k above the wrapper's training rows
    is a ValueError before any search."""
    ctx = featsel.make_fitness_context(
        X, y, config=spec.knn,
        val_fraction=spec.val_fraction, seed=subseed(spec.seed, system, "wrapper-split"),
        standardize=spec.standardize)
    if spec.knn.k > len(ctx.y_train):
        raise ValueError(f"knn_k={spec.knn.k} exceeds the {len(ctx.y_train)} wrapper training rows")

    def search(method: str):
        t0 = time.perf_counter()
        res = featsel.run_search(method, ctx, getattr(spec, method),
                                 subseed(spec.seed, system, method, "search"))
        return res, time.perf_counter() - t0
    return search


def _fs_job(spec: ExperimentSpec, system: str):
    """One (system, fs ...) unit: select features once, then score every classifier."""
    sys = powergrid.resolve_case(system)
    train, test = _experiment_datasets(spec, sys)
    out_rows = []
    fs_runs = {}
    search = None
    for fs in spec.fs_methods:
        if fs == "none":
            mask = np.ones(train.n_features, dtype=bool)
        else:
            search = search or wrapper_searches(spec, sys.name, train.X, train.y)
            fs_runs[(system, fs)] = search(fs)
            mask = np.asarray(fs_runs[(system, fs)][0].best_mask, dtype=bool)
        n_features = int(mask.sum())
        for kind in spec.classifiers:
            model = classify.train_model(train.X, train.y, kind, getattr(spec, kind),
                                         mask=mask, standardize=spec.standardize)
            acc = classify.accuracy(classify.predict(model, test.X), test.y)
            out_rows.append(ExperimentResult(
                system=system, fs_method=fs, classifier=kind, n_features=n_features,
                accuracy=acc, seed=spec.seed, converged=model.converged))
    return out_rows, fs_runs


def run_matrix(spec: ExperimentSpec, fs_log: dict | None = None) -> list:
    """Run the full systems x FS x classifiers grid.

    Feature selection runs once per (system, FS method) and its mask is shared
    by all classifiers, mirroring a select-then-retrain protocol. Jobs are
    independent per system; `threads` bounds the pool.
    fs_log, when given, collects {(system, fs): (FsResult, seconds)}.
    """
    job = functools.partial(_fs_job, spec)
    if spec.threads > 1 and len(spec.systems) > 1:
        # imported here, so a serial run never loads concurrent.futures and logging
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=spec.threads) as pool:
            jobs = list(pool.map(job, spec.systems))
    else:
        jobs = map(job, spec.systems)
    rows = []
    for out_rows, fs_runs in jobs:  # in spec.systems order, as map keeps it
        rows += out_rows
        if fs_log is not None:
            fs_log.update(fs_runs)
    return rows


# ----------------------------------------------------------- export / report

RESULTS_HEADER = "system,fs_method,classifier,n_features,accuracy,seed,converged"


def export_results(results, path) -> Path:
    """Write the results CSV; identical results give identical bytes."""
    if not results:
        raise ValueError("no results to export")
    path = Path(path)
    with path.open("w") as fh:
        fh.write(RESULTS_HEADER + "\n")
        for r in results:
            fh.write(f"{r.system},{r.fs_method},{r.classifier},{r.n_features},"
                     f"{r.accuracy!r},{r.seed},{int(r.converged)}\n")
    return path


def load_results(path) -> list:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"results file not found: {path}")
    lines = path.read_text().splitlines()
    if len(lines) < 2 or lines[0] != RESULTS_HEADER:  # export_results writes a row at least
        raise ValueError(f"{path}: not a results CSV")
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        try:
            if len(fields) != 7:
                raise ValueError("expected 7 fields")
            sysname, fs, kind, nf, acc, seed, converged = fields
            if converged not in ("0", "1"):
                raise ValueError(f"converged must be 0 or 1, got {converged!r}")
            row = ExperimentResult(system=sysname, fs_method=fs, classifier=kind,
                                   n_features=powergrid._number(nf, int),
                                   accuracy=powergrid._number(acc),
                                   seed=powergrid._number(seed, int),
                                   converged=converged == "1")
            if not sysname:
                raise ValueError("system must not be empty")
            if fs != "none" and fs not in featsel.SEARCHERS:
                raise ValueError(f"unknown FS method {fs!r}")
            if kind not in classify.CONFIGS:
                raise ValueError(f"unknown classifier {kind!r}")
            if not 0 <= row.accuracy <= 1:  # NaN fails too
                raise ValueError(f"accuracy must be in [0, 1], got {acc!r}")
            if row.n_features < 1:
                raise ValueError(f"n_features must be at least 1, got {nf!r}")
            if row.seed < 0:
                raise ValueError(f"seed must be non-negative, got {seed!r}")
            out.append(row)
        except ValueError as exc:
            raise ValueError(f"{path} line {lineno}: {exc}") from None
    return out


def render_report(results) -> str:
    """Per-system table: one row per FS method, one accuracy column per classifier.

    An accuracy whose model did not converge is marked with a `*`. A system
    whose rows mix seeds or repeat a cell is a ValueError.
    """
    if not results:
        raise ValueError("no results to report")
    classifiers = dict.fromkeys(r.classifier for r in results)
    lines = []
    for system in dict.fromkeys(r.system for r in results):
        sys_rows = [r for r in results if r.system == system]
        seeds = sorted({r.seed for r in sys_rows})
        if len(seeds) > 1:
            raise ValueError(f"{system}: rows from more than one seed {seeds}")
        if len({(r.fs_method, r.classifier) for r in sys_rows}) < len(sys_rows):
            raise ValueError(f"{system}: an (FS method, classifier) cell appears twice")
        fs_order = dict.fromkeys(r.fs_method for r in sys_rows)
        lines.append(f"=== {system} (seed {sys_rows[0].seed}) ===")
        header = f"{'FS':<8}{'features':>9}" + "".join(f"{c.upper():>10}" for c in classifiers)
        lines.append(header)
        for fs in fs_order:
            cells = {r.classifier: r for r in sys_rows if r.fs_method == fs}
            nf = next(iter(cells.values())).n_features
            row = f"{fs:<8}{nf:>9}"
            for c in classifiers:
                cell = cells.get(c)
                if cell is None:
                    row += "-".rjust(10)
                else:
                    row += (f"{cell.accuracy:.4f}" + ("" if cell.converged else "*")).rjust(10)
            lines.append(row)
        lines.append("")
    if not all(r.converged for r in results):
        lines.append("* the solver stopped at its iteration cap before converging")
    return "\n".join(lines).rstrip() + "\n"
