"""Command-line front end.

Subcommands: generate (datasets), gridsearch (hyperparameters), select
(standalone feature selection), benchmark (the full matrix), report
(pretty-print a results CSV).

Configuration comes from defaults, then an optional flat `key = value` file
(--config), then flags; later layers win. A setting's flag is its config key
with dashes (--n-train sets n_train), cast like the same value in a config
file. Every run writes its resolved configuration to a manifest to reproduce
it. Exit codes: 0 success, 1 usage or configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import math
import sys as _sys
from pathlib import Path

from . import __version__, attack, bench, featsel, powergrid


class ConfigError(Exception):
    """Bad user-supplied configuration or usage; reported with exit code 1."""


@contextlib.contextmanager
def _config_errors():
    """Report a ValueError or FileNotFoundError of the block as a ConfigError."""
    try:
        yield
    except (FileNotFoundError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage problems; the contract here is 1
    def error(self, message):
        raise ConfigError(message)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_list(text: str) -> tuple:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_int(text: str) -> int:
    return powergrid._number(text, int)


def _parse_float(text: str) -> float:
    val = powergrid._number(text)
    if not math.isfinite(val):  # nan and inf pass every range check
        raise ValueError(f"not a finite number: {text!r}")
    return val


def _caster(default):
    if isinstance(default, tuple):
        return _parse_list
    if isinstance(default, bool):  # before int: bool is an int
        return _parse_bool
    if isinstance(default, int):
        return _parse_int
    if isinstance(default, float):
        return _parse_float
    return type(default)


# A top-level ExperimentSpec field's key is its name and a nested config's
# field's key is <section>_<field>; these eight keys keep their older names.
_ALIASES = {"fs_methods": "fs", "classifiers": "classifier", "svm_C": "svm_c",
            "bcs_lam": "bcs_lambda", "bpso_v_max": "bpso_vmax",
            "attack_max_targets": "max_targets", "attack_magnitude_low": "magnitude_low",
            "attack_magnitude_high": "magnitude_high"}
_DEFAULT_SPEC = bench.ExperimentSpec()


def _spec_keys():
    """(config key, section or None, field, default) for every ExperimentSpec field."""
    for f in dataclasses.fields(_DEFAULT_SPEC):
        value = getattr(_DEFAULT_SPEC, f.name)
        if not dataclasses.is_dataclass(value):
            yield _ALIASES.get(f.name, f.name), None, f.name, value
            continue
        for sub in dataclasses.fields(value):
            key = f"{f.name}_{sub.name}"
            yield _ALIASES.get(key, key), f.name, sub.name, getattr(value, sub.name)


# every known config key: name -> (caster, default); the last three are CLI-only
CONFIG_KEYS = {key: (_caster(default), default) for key, _, _, default in _spec_keys()}
CONFIG_KEYS.update({key: (_caster(default), default)
                    for key, default in (("case", ""), ("n", 1000), ("out_dir", "runs"))})


def _read_config_file(path: Path) -> dict:
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    out = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path} line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path} line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"{path} line {lineno}: repeated key {key!r}")
        caster, _default = CONFIG_KEYS[key]
        try:
            out[key] = caster(val.strip())
        except ValueError as exc:
            raise ConfigError(f"{path} line {lineno}: {exc}") from None
    return out


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _resolve(args) -> dict:
    """defaults <- config file <- explicit flags."""
    cfg = {key: default for key, (_, default) in CONFIG_KEYS.items()}
    if getattr(args, "config", None):
        cfg.update(_read_config_file(Path(args.config)))
    for key, (caster, _default) in CONFIG_KEYS.items():
        val = getattr(args, key, None)
        if val is not None:
            try:
                cfg[key] = caster(val)
            except ValueError as exc:
                raise ConfigError(f"{_flag(key)}: {exc}") from None
    return cfg


def _experiment_spec(cfg: dict) -> bench.ExperimentSpec:
    fields, sections, changed = {}, {}, {}
    for key, section, name, default in _spec_keys():
        if section is None:
            fields[name] = cfg[key]
            continue
        sections.setdefault(section, {})[name] = cfg[key]
        if cfg[key] != default:
            changed.setdefault(section, []).append(f"{key} = {_text(cfg[key])}")
    for section, kwargs in sections.items():
        try:
            fields[section] = type(getattr(_DEFAULT_SPEC, section))(**kwargs)
        except ValueError as exc:  # its message names the field, so name the section's keys
            raise ConfigError(f"{', '.join(changed[section])}: {exc}") from None
    with _config_errors():
        return bench.ExperimentSpec(**fields)


def _case(name: str) -> powergrid.BusSystem:
    with _config_errors():
        return powergrid.resolve_case(name)


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _text(val) -> str:
    """A config value as a config file or the manifest writes it."""
    return ",".join(val) if isinstance(val, tuple) else f"{val}"


# ---------------------------------------------------------------- subcommands

def cmd_generate(args) -> int:
    cfg = _resolve(args)
    spec = _experiment_spec(cfg)  # no check_spec: a clean-only dataset is a valid one
    if not cfg["case"]:
        raise ConfigError("--case is required")
    sys_ = _case(cfg["case"])
    if args.out and (Path(args.out).is_dir() or not Path(args.out).parent.is_dir()):
        raise ConfigError(f"--out: {args.out} is not a file in an existing directory")
    with _config_errors():
        ds = attack.generate_dataset(sys_, cfg["n"], spec.attack_ratio, spec.noise,
                                     spec.load_var, spec.attack, spec.seed)
    dest = (Path(args.out) if args.out
            else _out_dir(cfg) / f"{sys_.name}_n{cfg['n']}_seed{spec.seed}.csv")
    ds.meta["case"] = cfg["case"]  # `system` holds only the stem of a case CSV
    attack.save_dataset(ds, dest)
    n_attacked = int(ds.y.sum())
    print(f"wrote {dest} ({ds.n_samples} samples, {ds.n_features} features, "
          f"{n_attacked} attacked / {ds.n_samples - n_attacked} clean)")
    return 0


def cmd_gridsearch(args) -> int:
    cfg = _resolve(args)
    spec = _experiment_spec(cfg)
    ds = _load_dataset_arg(args)
    try:  # every grid point failed: the dataset cannot train this classifier
        ctx = featsel.make_fitness_context(ds.X, ds.y, val_fraction=spec.val_fraction,
                                           seed=spec.seed, standardize=spec.standardize)
        results = [bench.grid_search(ctx, bench.default_grid(kind, getattr(spec, kind)))
                   for kind in spec.classifiers]
    except ValueError as exc:
        raise ConfigError(f"{args.dataset}: {exc}") from None
    out = _out_dir(cfg)
    for kind, res in zip(spec.classifiers, results):
        grid_csv = out / f"grid_{kind}.csv"
        with grid_csv.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["config", "accuracy", "error"])
            for config, acc, err in res.rows:
                writer.writerow([repr(config), "" if acc is None else repr(acc), err or ""])
        best_path = out / f"best_{kind}.txt"
        with best_path.open("w") as fh:
            fh.write(f"classifier = {kind}\n")
            for fld, val in dataclasses.asdict(res.best_config).items():
                fh.write(f"{fld} = {val}\n")
            fh.write(f"holdout_accuracy = {res.best_accuracy!r}\n")
        print(f"{kind}: best {res.best_config} holdout accuracy {res.best_accuracy:.4f}")
    return 0


def cmd_select(args) -> int:
    cfg = _resolve(args)
    spec = _experiment_spec(cfg)
    methods = [m for m in spec.fs_methods if m != "none"]
    if not methods:
        raise ConfigError("nothing to do: --fs selects no search method")
    ds = _load_dataset_arg(args)
    with _config_errors():
        search = bench.wrapper_searches(spec, ds.meta.get("system", "dataset"), ds.X, ds.y)
    out = _out_dir(cfg)
    labels = _row_labels_for(ds)
    for method in methods:
        res, _seconds = search(method)
        txt, trace = featsel.export_fs_result(res, labels, out / f"fs_{method}")
        print(f"{method}: {res.n_selected}/{ds.n_features} features, "
              f"fitness {res.best_fitness:.4f}, {res.evaluations} evaluations -> {txt}")
    return 0


def cmd_benchmark(args) -> int:
    cfg = _resolve(args)
    spec = _experiment_spec(cfg)
    cases = {name: _case(name) for name in spec.systems}
    with _config_errors():
        bench.check_spec(spec, cases.values())
    # the FS exports are named by case name, so two systems must not share one
    by_name = {}
    for system, case in cases.items():
        if case.name in by_name:
            raise ConfigError(f"systems {by_name[case.name]} and {system} both have case name "
                              f"{case.name!r}, so their FS exports would overwrite each other")
        by_name[case.name] = system
    out = _out_dir(cfg)
    # the manifest is a config file: the code line is a comment
    manifest = [f"# code = {_code_fingerprint()}"]
    manifest += [f"{key} = {_text(cfg[key])}" for key in sorted(CONFIG_KEYS)]
    (out / "manifest.txt").write_text("\n".join(manifest) + "\n")
    fs_log = {}
    results = bench.run_matrix(spec, fs_log=fs_log)
    for (system, method), (fs_res, seconds) in sorted(fs_log.items()):
        txt, _trace = featsel.export_fs_result(
            fs_res, powergrid.build_jacobian(cases[system]).row_labels,
            out / f"fs_{cases[system].name}_{method}")
        with Path(txt).open("a") as fh:
            fh.write(f"search_seconds = {seconds:.3f}\n")
    results_path = bench.export_results(results, out / "results.csv")
    report = bench.render_report(results)
    (out / "report.txt").write_text(report)
    print(report, end="")
    print(f"results: {results_path}")
    return 0


def cmd_report(args) -> int:
    with _config_errors():
        results = bench.load_results(Path(args.results))
    print(bench.render_report(results), end="")
    return 0


def _code_fingerprint() -> str:
    """Digest of the package version, sources and bundled cases; heads the manifest."""
    h = hashlib.sha256(__version__.encode())
    root = Path(__file__).parent
    for path in sorted([*root.glob("*.py"), *root.glob("cases/*.csv")]):
        h.update(path.relative_to(root).as_posix().encode() + path.read_bytes())
    return h.hexdigest()


def _load_dataset_arg(args):
    with _config_errors():
        return attack.load_dataset(Path(args.dataset))


def _row_labels_for(ds) -> list:
    case = ds.meta.get("case", ds.meta.get("system", ""))
    try:
        jac = powergrid.build_jacobian(powergrid.resolve_case(str(case)))
        if len(jac.row_labels) == ds.n_features:
            return list(jac.row_labels)
    except (FileNotFoundError, ValueError):
        pass
    return [f"f{j + 1}" for j in range(ds.n_features)]


# -------------------------------------------------------------------- parser

_COMMON = ("seed", "out_dir")
_SIMULATION = ("noise_sigma", "load_var", "attack_ratio")
# subcommand -> (help, the config keys it reads and takes as flags besides _COMMON)
_SUBCOMMANDS = {
    "generate": ("simulate a labeled dataset", ("case", "n", "max_targets", *_SIMULATION)),
    "gridsearch": ("hyperparameter search on a dataset",
                   ("classifier", "val_fraction", "standardize")),
    "select": ("run feature selection on a dataset", ("fs", "knn_k", "standardize")),
    "benchmark": ("full FS x classifier x system matrix",
                  ("systems", "fs", "classifier", "n_train", "n_test", "threads", *_SIMULATION,
                   "standardize")),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="fdilab", allow_abbrev=False,
                     description="Stealthy false-data-injection benchmark on DC state estimation")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_, keys) in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=help_, allow_abbrev=False)
        sub.set_defaults(func=globals()[f"cmd_{name}"])
        sub.add_argument("--config", help="flat key = value configuration file")
        for key in _COMMON + keys:  # a string, cast by _resolve as the config file is
            sub.add_argument(_flag(key), dest=key,
                             help=f"default: {_text(CONFIG_KEYS[key][1]) or '-'}")
    subs.choices["generate"].add_argument("--out", help="dataset CSV destination")
    for name in ("gridsearch", "select"):
        subs.choices[name].add_argument("--dataset", required=True,
                                        help="dataset CSV from `generate`")

    rep = subs.add_parser("report", help="render a results CSV as tables", allow_abbrev=False)
    rep.add_argument("--results", required=True)
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"fdilab: {exc}", file=_sys.stderr)
        return 1
    except Exception as exc:  # runtime failure contract
        print(f"fdilab: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
