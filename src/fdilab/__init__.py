"""Stealthy false-data-injection benchmark on DC state estimation.

Simulates measurement snapshots for IEEE test systems, injects attacks that
are invisible to the weighted-least-squares residual test, and benchmarks
SVM / KNN / ANN detectors with binary cuckoo search, binary PSO, and genetic
algorithm feature selection.
"""

from .attack import (
    AttackConfig,
    AttackVector,
    Dataset,
    craft_attack,
    generate_dataset,
    inject,
    load_dataset,
    save_dataset,
    stealthiness_report,
)
from .bench import (
    ExperimentResult,
    ExperimentSpec,
    GridSearchResult,
    calibrate_threshold,
    default_grid,
    export_results,
    grid_search,
    load_results,
    render_report,
    run_matrix,
)
from .classify import (
    AnnConfig,
    KnnConfig,
    SvmConfig,
    TrainedModel,
    accuracy,
    predict,
    train_model,
)
from .featsel import (
    BcsParams,
    BpsoParams,
    FsResult,
    GaParams,
    bcs_search,
    bpso_search,
    export_fs_result,
    fitness,
    fitness_batch,
    ga_search,
    make_fitness_context,
    run_search,
)
from .powergrid import (
    BusSystem,
    DcJacobian,
    NoiseModel,
    bad_data_test,
    build_jacobian,
    load_builtin,
    load_case,
    measure,
    residual_norm,
    resolve_case,
    solve_dc_state,
    wls_estimate,
)

__version__ = "0.1.0"

__all__ = [
    "AttackConfig", "AttackVector", "Dataset", "craft_attack",
    "generate_dataset", "inject", "load_dataset", "save_dataset",
    "stealthiness_report",
    "ExperimentResult", "ExperimentSpec", "GridSearchResult",
    "calibrate_threshold", "default_grid", "export_results", "grid_search",
    "load_results", "render_report", "run_matrix",
    "AnnConfig", "KnnConfig", "SvmConfig", "TrainedModel", "accuracy",
    "predict", "train_model",
    "BcsParams", "BpsoParams", "FsResult", "GaParams", "bcs_search",
    "bpso_search", "export_fs_result", "fitness", "fitness_batch", "ga_search",
    "make_fitness_context", "run_search",
    "BusSystem", "DcJacobian", "NoiseModel", "bad_data_test",
    "build_jacobian", "load_builtin", "load_case", "measure", "residual_norm",
    "resolve_case", "solve_dc_state", "wls_estimate",
    "__version__",
]
