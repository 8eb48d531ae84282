"""Command-line interface: exit codes, subcommand behavior, config layering,
and byte-identical benchmark reruns."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fdilab import bench, cli, load_dataset, powergrid, save_dataset
from fdilab.bench import RESULTS_HEADER, load_results
from fdilab.cli import CONFIG_KEYS, ConfigError, _read_config_file, main


ROOT = Path(__file__).resolve().parent.parent
TRIANGLE = ("BUS,1,1.5\nBUS,2,-0.5\nBUS,3,-1\n"
            "BRANCH,1,2,0.1\nBRANCH,2,3,0.1\nBRANCH,1,3,0.1\n")


def run(argv):
    return main(argv)


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert run(["generate", "--no-such-flag"]) == 1
        assert "fdilab:" in capsys.readouterr().err

    def test_missing_subcommand_is_1(self, capsys):
        assert run([]) == 1

    def test_config_error_is_1(self, tmp_path, capsys):
        assert run(["generate", "--case", "nonexistent", "--n", "10",
                    "--out-dir", str(tmp_path)]) == 1
        assert "no bundled case" in capsys.readouterr().err
        malformed = tmp_path / "bad.csv"
        malformed.write_text("BUS,1,0\nBUS,2,0\nBRANCH,1,two,0.1\n")
        assert run(["generate", "--case", str(malformed), "--out-dir", str(tmp_path)]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_runtime_error_is_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert run(["report", "--results", str(missing)]) == 2
        assert "fdilab:" in capsys.readouterr().err

    def test_success_is_0(self, tmp_path, capsys):
        assert run(["generate", "--case", "ieee14", "--n", "30", "--seed", "1",
                    "--out", str(tmp_path / "d.csv"), "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "30 samples" in out and "34 features" in out

    def test_module_entry_point(self, tmp_path):
        # `python -m fdilab` from a checkout, with only src/ on the path
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-m", "fdilab", "generate", "--case", "ieee14",
                               "--n", "20", "--seed", "1", "--out", str(tmp_path / "d.csv"),
                               "--out-dir", str(tmp_path)],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "20 samples" in proc.stdout
        assert load_dataset(tmp_path / "d.csv").n_samples == 20


class TestGenerate:
    def test_writes_dataset_with_expected_counts(self, tmp_path):
        dest = tmp_path / "ds.csv"
        assert run(["generate", "--case", "ieee14", "--n", "40",
                    "--attack-ratio", "0.25", "--seed", "2",
                    "--out", str(dest), "--out-dir", str(tmp_path)]) == 0
        ds = load_dataset(dest)
        assert ds.n_samples == 40
        assert int(ds.y.sum()) == 10
        assert ds.meta["system"] == "ieee14"

    def test_custom_case_file(self, tmp_path):
        case = tmp_path / "tri.csv"
        case.write_text(TRIANGLE)
        dest = tmp_path / "ds.csv"
        assert run(["generate", "--case", str(case), "--n", "20", "--seed", "0",
                    "--out", str(dest), "--out-dir", str(tmp_path)]) == 0
        assert load_dataset(dest).n_features == 6

    def test_out_makes_no_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["generate", "--case", "ieee14", "--n", "20", "--out", "x.csv"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv", "x.csv.meta"]

    def test_out_not_a_file_in_an_existing_directory_is_config_error(self, tmp_path, capsys, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("dataset built before --out was checked")

        monkeypatch.setattr(cli.attack, "generate_dataset", build)
        dest = tmp_path / "nodir" / "x.csv"
        for out in (dest, tmp_path):  # a missing parent, a directory
            assert run(["generate", "--case", "ieee14", "--n", "30", "--out", str(out)]) == 1
            assert f"--out: {out} is not a file" in capsys.readouterr().err
        assert not dest.parent.exists()

    def test_bad_attack_ratio_is_config_error(self, tmp_path, capsys):
        assert run(["generate", "--case", "ieee14", "--n", "20",
                    "--attack-ratio", "1.5", "--out-dir", str(tmp_path)]) == 1

    def test_config_magnitudes_reach_the_dataset(self, tmp_path):
        # max_targets = 0 (the default) still takes the configured magnitudes
        cfg = tmp_path / "run.cfg"
        cfg.write_text("magnitude_low = 0.5\nmagnitude_high = 0.6\n")
        dest = tmp_path / "ds.csv"
        assert run(["generate", "--case", "ieee14", "--n", "20", "--config", str(cfg),
                    "--out", str(dest), "--out-dir", str(tmp_path)]) == 0
        sidecar = (tmp_path / "ds.csv.meta").read_text().splitlines()
        assert "magnitude_low = 0.5" in sidecar and "magnitude_high = 0.6" in sidecar
        assert "max_targets = 5" in sidecar  # ceil(13 / 3)


class TestConfigFile:
    def test_layering_flags_over_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nn = 25\nseed = 9\n")
        dest = tmp_path / "ds.csv"
        assert run(["generate", "--case", "ieee14", "--config", str(cfg),
                    "--seed", "4", "--out", str(dest), "--out-dir", str(tmp_path)]) == 0
        ds = load_dataset(dest)
        assert ds.n_samples == 25       # from file
        assert ds.meta["seed"] == 4     # flag wins over file

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            _read_config_file(cfg)

    def test_removed_svm_max_passes_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("svm_max_passes = 3\n")
        assert run(["benchmark", "--config", str(cfg), "--out-dir", str(tmp_path / "b")]) == 1
        assert "unknown key 'svm_max_passes'" in capsys.readouterr().err

    def test_bad_value_reports_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 7\nn_train = many\n")
        with pytest.raises(ConfigError, match="line 2"):
            _read_config_file(cfg)

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            _read_config_file(tmp_path / "nope.cfg")

    def test_every_key_has_caster_and_default(self):
        for key, (caster, default) in CONFIG_KEYS.items():
            assert callable(caster)
            if not isinstance(default, (str, tuple)):
                caster(str(default))  # defaults survive their own caster


class TestGridsearchCmd:
    def test_outputs_and_cache_reuse(self, tmp_path, capsys):
        ds_path = tmp_path / "ds.csv"
        assert run(["generate", "--case", "ieee14", "--n", "120", "--seed", "5",
                    "--out", str(ds_path), "--out-dir", str(tmp_path)]) == 0
        out_dir = tmp_path / "gs"
        assert run(["gridsearch", "--dataset", str(ds_path), "--classifier", "knn",
                    "--out-dir", str(out_dir)]) == 0
        first = capsys.readouterr().out
        assert "0 of 20 cells from cache" in first
        assert (out_dir / "grid_knn.csv").exists()
        assert (out_dir / "best_knn.txt").exists()
        assert "k = " in (out_dir / "best_knn.txt").read_text()
        assert run(["gridsearch", "--dataset", str(ds_path), "--classifier", "knn",
                    "--out-dir", str(out_dir)]) == 0
        assert "20 of 20 cells from cache" in capsys.readouterr().out

    def test_code_change_invalidates_cached_cells(self, tmp_path, capsys, monkeypatch):
        ds_path = tmp_path / "ds.csv"
        assert run(["generate", "--case", "ieee14", "--n", "120", "--seed", "5",
                    "--out", str(ds_path), "--out-dir", str(tmp_path)]) == 0
        argv = ["gridsearch", "--dataset", str(ds_path), "--classifier", "knn",
                "--out-dir", str(tmp_path / "gs")]
        assert run(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "_code_fingerprint", lambda: "other code")
        assert run(argv) == 0
        assert "(0 of 20 cells from cache)" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ['{"truncated": ', None],
                             ids=["not JSON", "entry not a mapping"])
    def test_corrupt_cache_is_recomputed(self, tmp_path, capsys, text):
        ds_path = tmp_path / "ds.csv"
        assert run(["generate", "--case", "ieee14", "--n", "120", "--seed", "5",
                    "--out", str(ds_path), "--out-dir", str(tmp_path)]) == 0
        argv = ["gridsearch", "--dataset", str(ds_path), "--classifier", "knn",
                "--out-dir", str(tmp_path / "gs")]
        assert run(argv) == 0
        first = (tmp_path / "gs" / "grid_knn.csv").read_bytes()
        capsys.readouterr()
        cache_path = tmp_path / "gs" / "gridsearch_cache.json"
        cache_path.write_text(text or json.dumps({cli._code_fingerprint(): [0.5]}))
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert "(0 of 20 cells from cache)" in captured.out
        assert captured.err.count("\n") == 1
        assert "warning: ignoring corrupt cache" in captured.err
        assert (tmp_path / "gs" / "grid_knn.csv").read_bytes() == first
        assert run(argv) == 0
        assert "20 of 20 cells from cache" in capsys.readouterr().out

    def test_missing_dataset_is_config_error(self, tmp_path):
        assert run(["gridsearch", "--dataset", str(tmp_path / "no.csv"),
                    "--classifier", "knn", "--out-dir", str(tmp_path)]) == 1
        bad_label = tmp_path / "bad.csv"
        bad_label.write_text("f1,f2,label\n0.1,0.2,1\n0.3,0.4,5\n")
        assert run(["gridsearch", "--dataset", str(bad_label),
                    "--classifier", "knn", "--out-dir", str(tmp_path)]) == 1

    def test_one_class_dataset_is_config_error(self, tmp_path, capsys):
        ds_path = tmp_path / "ds.csv"
        assert run(["generate", "--case", "ieee14", "--n", "40", "--attack-ratio", "0",
                    "--out", str(ds_path), "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "gs"
        assert run(["gridsearch", "--dataset", str(ds_path), "--classifier", "knn,svm",
                    "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err == (f"fdilab: {ds_path}: every grid point failed: "
                                           "training data must contain both classes\n")
        assert not out_dir.exists()   # the KNN grid succeeded, but nothing is written

    def test_unknown_classifier_rejected(self, tmp_path):
        ds_path = tmp_path / "ds.csv"
        run(["generate", "--case", "ieee14", "--n", "30", "--seed", "0",
             "--out", str(ds_path), "--out-dir", str(tmp_path)])
        assert run(["gridsearch", "--dataset", str(ds_path),
                    "--classifier", "forest", "--out-dir", str(tmp_path)]) == 1


class TestSelectCmd:
    def test_exports_mask_with_row_labels(self, tmp_path, capsys):
        ds_path = tmp_path / "ds.csv"
        assert run(["generate", "--case", "ieee14", "--n", "120", "--seed", "6",
                    "--out", str(ds_path), "--out-dir", str(tmp_path)]) == 0
        out_dir = tmp_path / "sel"
        assert run(["select", "--dataset", str(ds_path), "--fs", "ga",
                    "--seed", "6", "--out-dir", str(out_dir)]) == 0
        txt = (out_dir / "fs_ga.txt").read_text()
        assert "selected:" in txt
        assert "flow" in txt or "inj:" in txt  # labels resolved from the case
        assert (out_dir / "fs_ga_trace.csv").exists()

    def test_case_csv_dataset_gets_row_labels(self, tmp_path):
        case = tmp_path / "tri.csv"
        case.write_text(TRIANGLE)
        ds_path = tmp_path / "ds.csv"
        assert run(["generate", "--case", str(case), "--n", "60", "--seed", "0",
                    "--out", str(ds_path), "--out-dir", str(tmp_path)]) == 0
        out_dir = tmp_path / "sel"
        assert run(["select", "--dataset", str(ds_path), "--fs", "ga",
                    "--seed", "0", "--out-dir", str(out_dir)]) == 0
        selected = (out_dir / "fs_ga.txt").read_text().split("selected:\n", 1)[1]
        labels = [line.split()[1] for line in selected.splitlines()]
        assert labels and all(label.startswith(("flow", "inj:")) for label in labels)

    def test_methods_share_one_context_without_changing_exports(self, tmp_path):
        ds_path = tmp_path / "ds.csv"
        assert run(["generate", "--case", "ieee14", "--n", "120", "--seed", "3",
                    "--out", str(ds_path), "--out-dir", str(tmp_path)]) == 0
        base = ["select", "--dataset", str(ds_path), "--seed", "3"]
        assert run(base + ["--fs", "bcs,bpso,ga", "--out-dir", str(tmp_path / "all")]) == 0
        for method in ("bcs", "bpso", "ga"):
            alone = tmp_path / method
            assert run(base + ["--fs", method, "--out-dir", str(alone)]) == 0
            for name in (f"fs_{method}.txt", f"fs_{method}_trace.csv"):
                assert (alone / name).read_bytes() == (tmp_path / "all" / name).read_bytes()

    def test_wrapper_k_above_training_rows_is_config_error(self, tmp_path, capsys):
        ds_path = tmp_path / "ds.csv"
        assert run(["generate", "--case", "ieee14", "--n", "40", "--seed", "0",
                    "--out", str(ds_path), "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert run(["select", "--dataset", str(ds_path), "--fs", "ga", "--wrapper-k", "50",
                    "--out-dir", str(tmp_path)]) == 1
        assert "k=50 exceeds the 32 wrapper training rows" in capsys.readouterr().err

    def test_reproduces_the_benchmark_export_on_its_training_rows(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ga_population = 8\nga_iterations = 3\n")
        common = ["--seed", "5", "--config", str(cfg)]
        assert run(["benchmark", "--systems", "ieee14", "--fs", "ga", "--classifier", "knn",
                    "--n-train", "120", "--n-test", "40", *common,
                    "--out-dir", str(tmp_path / "bench")]) == 0
        spec = bench.ExperimentSpec(n_train=120, n_test=40, seed=5)
        train = bench._experiment_datasets(spec, powergrid.load_builtin("ieee14"))[0]
        train.meta["system"] = "ieee14"
        save_dataset(train, tmp_path / "train.csv")
        assert run(["select", "--dataset", str(tmp_path / "train.csv"), "--fs", "ga", *common,
                    "--out-dir", str(tmp_path / "sel")]) == 0

        def lines(path):  # the benchmark adds its search time
            return [line for line in path.read_text().splitlines()
                    if not line.startswith("search_seconds")]

        assert lines(tmp_path / "sel" / "fs_ga.txt") == \
            lines(tmp_path / "bench" / "fs_ieee14_ga.txt")
        assert (tmp_path / "sel" / "fs_ga_trace.csv").read_bytes() == \
            (tmp_path / "bench" / "fs_ieee14_ga_trace.csv").read_bytes()

    def test_header_without_rows_is_config_error(self, tmp_path, capsys):
        ds_path = tmp_path / "empty.csv"
        ds_path.write_text("f1,f2,label\n")
        assert run(["select", "--dataset", str(ds_path), "--fs", "ga",
                    "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"fdilab: {ds_path}: no data rows\n"

    def test_equal_budget_config(self, tmp_path):
        # the committed config gives every searcher about 400 evaluations
        ds_path = tmp_path / "ds.csv"
        assert run(["generate", "--case", "ieee14", "--n", "60", "--seed", "2",
                    "--out", str(ds_path), "--out-dir", str(tmp_path)]) == 0
        assert run(["select", "--dataset", str(ds_path), "--fs", "bcs,bpso,ga",
                    "--config", str(ROOT / "demos" / "equal_budget.conf"),
                    "--out-dir", str(tmp_path)]) == 0
        for method, evals in (("bcs", 400), ("bpso", 390), ("ga", 400)):
            assert f"evaluations = {evals}\n" in (tmp_path / f"fs_{method}.txt").read_text()

    def test_fs_none_only_is_config_error(self, tmp_path):
        ds_path = tmp_path / "ds.csv"
        run(["generate", "--case", "ieee14", "--n", "30", "--seed", "0",
             "--out", str(ds_path), "--out-dir", str(tmp_path)])
        assert run(["select", "--dataset", str(ds_path), "--fs", "none",
                    "--out-dir", str(tmp_path)]) == 1


class TestBenchmarkCmd:
    def _run_bench(self, out_dir, seed="7"):
        return run(["benchmark", "--systems", "ieee14", "--fs", "none,ga",
                    "--classifier", "knn", "--n-train", "120", "--n-test", "60",
                    "--seed", seed, "--out-dir", str(out_dir)])

    def test_outputs_and_byte_identical_rerun(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        assert self._run_bench(out_dir) == 0
        report1 = capsys.readouterr().out
        assert "ieee14" in report1
        results = out_dir / "results.csv"
        first = results.read_bytes()
        assert (out_dir / "report.txt").exists()
        assert (out_dir / "manifest.txt").exists()
        assert (out_dir / "fs_ieee14_ga.txt").exists()
        # rerun with the same seed: byte-identical results
        assert self._run_bench(out_dir) == 0
        assert results.read_bytes() == first

    def test_different_seed_is_a_different_run(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        assert self._run_bench(out_dir, seed="7") == 0
        first = (out_dir / "results.csv").read_bytes()
        assert self._run_bench(out_dir, seed="8") == 0
        assert (out_dir / "results.csv").read_bytes() != first

    def test_manifest_records_resolved_config(self, tmp_path):
        out_dir = tmp_path / "bench"
        assert self._run_bench(out_dir) == 0
        manifest = (out_dir / "manifest.txt").read_text()
        assert "seed = 7" in manifest
        assert "n_train = 120" in manifest
        assert "systems = ieee14" in manifest

    def test_manifest_reruns_the_benchmark(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ga_population = 6\nga_iterations = 2\n")
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert run(["benchmark", "--systems", "ieee14", "--fs", "none,ga", "--classifier",
                    "knn", "--n-train", "120", "--n-test", "60", "--seed", "4",
                    "--config", str(cfg), "--out-dir", str(dir_a)]) == 0
        manifest = dir_a / "manifest.txt"
        assert manifest.read_text().splitlines()[0] == f"# code = {cli._code_fingerprint()}"
        assert run(["benchmark", "--config", str(manifest), "--out-dir", str(dir_b)]) == 0
        for name in ("results.csv", "report.txt"):
            assert (dir_b / name).read_bytes() == (dir_a / name).read_bytes()

    @pytest.mark.parametrize("key, value, message", [
        ("knn_k", 50, "knn_k = 50 exceeds the 40 training rows"),
        ("wrapper_k", 50, "wrapper_k = 50 exceeds the 32 wrapper training rows"),
        ("max_targets", 500, "max_targets = 500 exceeds the 13 states of ieee14"),
    ])
    def test_size_above_its_limit_is_config_error(self, tmp_path, capsys, key, value, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        out_dir = tmp_path / "bench"
        assert run(["benchmark", "--systems", "ieee14", "--fs", "none,ga",
                    "--classifier", "knn", "--n-train", "40", "--n-test", "30",
                    "--config", str(cfg), "--out-dir", str(out_dir)]) == 1
        assert message in capsys.readouterr().err
        assert not out_dir.exists()  # rejected before any work

    def test_fs_none_skips_the_wrapper(self, tmp_path, monkeypatch):
        # no search runs, so neither the wrapper context nor its wrapper_k check applies
        def no_context(*args, **kwargs):
            raise AssertionError("wrapper context built without a search")

        monkeypatch.setattr(cli.featsel, "make_fitness_context", no_context)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wrapper_k = 50\n")
        assert run(["benchmark", "--systems", "ieee14", "--fs", "none", "--classifier", "knn",
                    "--n-train", "40", "--n-test", "30", "--config", str(cfg),
                    "--out-dir", str(tmp_path / "bench")]) == 0

    def test_knn_trains_on_one_class(self, tmp_path):
        # svm and ann need both classes (TestOutOfRange); knn alone does not
        out_dir = tmp_path / "bench"
        assert run(["benchmark", "--systems", "ieee14", "--fs", "none", "--classifier", "knn",
                    "--n-train", "40", "--n-test", "20", "--attack-ratio", "0",
                    "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "results.csv").exists()

    def test_edited_case_csv_is_a_different_run(self, tmp_path):
        case = tmp_path / "tri.csv"
        argv = ["benchmark", "--systems", str(case), "--fs", "none", "--classifier", "knn",
                "--n-train", "80", "--n-test", "40", "--seed", "1"]
        case.write_text(TRIANGLE)
        assert run(argv + ["--out-dir", str(tmp_path / "bench")]) == 0
        case.write_text(TRIANGLE.replace("BRANCH,1,3,0.1", "BRANCH,1,3,0.4"))
        assert run(argv + ["--out-dir", str(tmp_path / "bench")]) == 0
        assert run(argv + ["--out-dir", str(tmp_path / "fresh")]) == 0
        rows, fresh = (load_results(tmp_path / d / "results.csv") for d in ("bench", "fresh"))
        assert [r.accuracy for r in rows] == [r.accuracy for r in fresh]

    def test_dotted_case_name_keeps_each_methods_export(self, tmp_path, monkeypatch):
        # case grid.v2.csv is named grid.v2: each method's fs_grid.v2_<method>.txt
        # must keep its own selection, not overwrite one fs_grid.txt
        found = {}
        search = cli.featsel.run_search

        def recorded(method, *args):
            found[method] = search(method, *args)
            return found[method]

        monkeypatch.setattr(cli.featsel, "run_search", recorded)
        case = tmp_path / "grid.v2.csv"
        case.write_text(TRIANGLE)
        out_dir = tmp_path / "bench"
        assert run(["benchmark", "--systems", str(case), "--fs", "ga,bpso", "--classifier",
                    "knn", "--n-train", "80", "--n-test", "40", "--seed", "2",
                    "--out-dir", str(out_dir)]) == 0
        assert sorted(found) == ["bpso", "ga"]
        for method, res in found.items():
            txt = (out_dir / f"fs_grid.v2_{method}.txt").read_text()
            assert txt.startswith(f"best_fitness = {res.best_fitness!r}\n")
            selected = [line.split()[0] for line in txt.split("selected:\n", 1)[1].splitlines()
                        if line.startswith("  ")]
            assert selected == [str(i) for i in np.flatnonzero(res.best_mask)]
            assert (out_dir / f"fs_grid.v2_{method}_trace.csv").exists()

    def test_systems_sharing_a_case_name_are_config_error(self, tmp_path, capsys):
        # FS exports are named fs_<case name>_<method>, so a/tri.csv and b/tri.csv would
        # overwrite each other's
        paths = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            paths.append(tmp_path / sub / "tri.csv")
            paths[-1].write_text(TRIANGLE)
        out_dir = tmp_path / "bench"
        assert run(["benchmark", "--systems", ",".join(map(str, paths)), "--fs", "none,ga",
                    "--classifier", "knn", "--n-train", "80", "--n-test", "40",
                    "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert str(paths[0]) in err and str(paths[1]) in err and "'tri'" in err
        assert not (out_dir / "manifest.txt").exists()

    def test_unknown_system_is_config_error(self, tmp_path, capsys):
        assert run(["benchmark", "--systems", "ieee99", "--out-dir", str(tmp_path)]) == 1
        assert "no bundled case" in capsys.readouterr().err
        missing = tmp_path / "x.csv"
        assert run(["benchmark", "--systems", str(missing), "--out-dir", str(tmp_path)]) == 1
        assert "case file not found" in capsys.readouterr().err


class TestOutOfRange:
    BENCH = ["benchmark", "--systems", "ieee14", "--fs", "none", "--classifier", "knn",
             "--n-train", "40", "--n-test", "30"]

    @pytest.mark.parametrize("argv, config, name", [
        (["generate", "--case", "ieee14", "--n", "20", "--standardize", "maybe"], "",
         "--standardize"),
        (["generate", "--case", "ieee14", "--n", "20", "--seed", "abc"], "", "--seed"),
        (["generate", "--case", "ieee14", "--n", "20", "--attack-ratio", "2"], "",
         "attack_ratio"),
        (["select", "--fs", "ga", "--wrapper-k", "50"], "", "k=50"),
        (["gridsearch", "--holdout", "1.5"], "", "holdout"),
        (BENCH + ["--attack-ratio", "2"], "", "attack_ratio"),
        (BENCH + ["--noise-sigma", "-1"], "", "noise_sigma"),
        (BENCH + ["--load-var", "1.5"], "", "load_var"),
        (BENCH + ["--n-test", "1"], "", "n_test"),
        (BENCH, "magnitude_low = 0.5\nmagnitude_high = 0.1\n", "magnitude_low"),
        (BENCH, "val_fraction = 1.5\n", "val_fraction"),
        (BENCH, "wrapper_k = 0\n", "wrapper_k"),
        (BENCH + ["--classifier", "knn,svm,knn"], "", "repeated classifier: knn,svm,knn"),
        # floor(n_train * attack_ratio) of 0 or n_train leaves svm and ann one class
        (BENCH + ["--classifier", "svm", "--attack-ratio", "0"], "",
         "attack_ratio = 0.0 gives 0 attacked of the 40 training rows (n_train)"),
        (BENCH + ["--classifier", "ann", "--attack-ratio", "0.01"], "",
         "attack_ratio = 0.01 gives 0 attacked of the 40 training rows (n_train)"),
        (BENCH + ["--classifier", "knn,svm", "--attack-ratio", "1"], "",
         "attack_ratio = 1.0 gives 40 attacked of the 40 training rows (n_train)"),
    ], ids=["standardize", "seed", "generate attack_ratio", "select wrapper_k", "holdout",
            "attack_ratio", "noise_sigma", "load_var", "n_test", "magnitudes", "val_fraction",
            "wrapper_k", "repeated classifier", "one-class svm", "one-class ann",
            "all-attacked svm"])
    def test_setting_is_config_error_before_any_work(self, tmp_path, capsys, argv, config,
                                                     name):
        argv = list(argv)
        if argv[0] in ("gridsearch", "select"):
            data = tmp_path / "d.csv"
            assert run(["generate", "--case", "ieee14", "--n", "40", "--out", str(data),
                        "--out-dir", str(tmp_path / "gen")]) == 0
            argv += ["--dataset", str(data)]
        if config:
            (tmp_path / "run.cfg").write_text(config)
            argv += ["--config", str(tmp_path / "run.cfg")]
        capsys.readouterr()
        out_dir = tmp_path / "out"
        assert run(argv + ["--out-dir", str(out_dir)]) == 1
        assert name in capsys.readouterr().err
        assert not out_dir.exists()


class TestParser:
    COMMON = ["seed", "out_dir", "noise_sigma", "load_var", "attack_ratio", "standardize"]
    # subcommand -> (the config keys it takes as flags, its other options)
    FLAGS = {
        "generate": (COMMON + ["case", "n", "max_targets"], ["--config", "--out"]),
        "gridsearch": (COMMON + ["classifier", "holdout"], ["--config", "--dataset"]),
        "select": (COMMON + ["fs", "wrapper_k"], ["--config", "--dataset"]),
        "benchmark": (COMMON + ["systems", "fs", "classifier", "n_train", "n_test", "threads"],
                      ["--config"]),
        "report": ([], ["--results"]),
    }
    TEXT = {tuple: "a,b", bool: "no", int: "7", float: "0.5", str: "x"}

    @pytest.mark.parametrize("command, key", [(command, key) for command, (keys, _) in
                                              FLAGS.items() for key in keys])
    def test_flag_resolves_to_the_cast_value(self, monkeypatch, command, key):
        monkeypatch.delenv("FDI_LAB_THREADS", raising=False)
        caster, default = CONFIG_KEYS[key]
        text = self.TEXT[type(default)]
        argv = [command, "--" + key.replace("_", "-"), text]
        if command in ("gridsearch", "select"):
            argv += ["--dataset", "d.csv"]
        assert cli._resolve(cli.build_parser().parse_args(argv))[key] == caster(text)

    @pytest.mark.parametrize("argv, flag", [
        (["select", "--dataset", "d.csv", "--fs", "ga", "--n", "5"], "--n"),
        (["benchmark", "--n-tr", "40"], "--n-tr"),
    ])
    def test_abbreviated_flag_is_usage_error(self, capsys, argv, flag):
        # no prefix matching: --n is not read as --noise-sigma
        assert run(argv) == 1
        assert f"unrecognized arguments: {flag} " in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(FLAGS))
    def test_help_lists_exactly_the_flags(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run([command, "--help"])
        assert exc.value.code == 0
        keys, others = self.FLAGS[command]
        listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == {"--help", *others, *("--" + key.replace("_", "-") for key in keys)}


class TestThreads:
    SMALL = ["benchmark", "--systems", "ieee14", "--fs", "none", "--classifier", "knn",
             "--n-train", "60", "--n-test", "30"]

    def _manifest_threads(self, out_dir, *extra):
        assert run(self.SMALL + ["--out-dir", str(out_dir), *extra]) == 0
        return [line for line in (out_dir / "manifest.txt").read_text().splitlines()
                if line.startswith("threads = ")]

    @pytest.mark.parametrize("value", ["abc", "0", "1.5"])
    def test_bad_env_value_is_config_error(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("FDI_LAB_THREADS", value)
        assert run(self.SMALL + ["--out-dir", str(tmp_path)]) == 1
        assert "FDI_LAB_THREADS" in capsys.readouterr().err

    def test_zero_threads_is_config_error(self, tmp_path, capsys):
        assert run(self.SMALL + ["--out-dir", str(tmp_path / "a"), "--threads", "0"]) == 1
        assert "threads" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads = 0\n")
        assert run(self.SMALL + ["--out-dir", str(tmp_path / "b"), "--config", str(cfg)]) == 1
        assert "threads" in capsys.readouterr().err

    def test_flag_over_env_over_config_file(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads = 4\n")
        assert self._manifest_threads(tmp_path / "a", "--config", str(cfg)) == ["threads = 4"]
        monkeypatch.setenv("FDI_LAB_THREADS", "3")
        assert self._manifest_threads(tmp_path / "b", "--config", str(cfg)) == ["threads = 3"]
        assert self._manifest_threads(tmp_path / "c", "--config", str(cfg),
                                      "--threads", "2") == ["threads = 2"]


class TestReportCmd:
    def test_renders_existing_results(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        assert run(["benchmark", "--systems", "ieee14", "--fs", "none",
                    "--classifier", "knn", "--n-train", "100", "--n-test", "50",
                    "--seed", "1", "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        assert run(["report", "--results", str(out_dir / "results.csv")]) == 0
        out = capsys.readouterr().out
        assert "=== ieee14" in out and "KNN" in out

    def test_rows_from_two_seeds_are_a_runtime_error(self, tmp_path, capsys):
        # the same exit code as for any other malformed results file
        results = tmp_path / "results.csv"
        results.write_text(f"{RESULTS_HEADER}\nieee14,none,knn,34,0.9,0,1\n"
                           "ieee14,none,knn,34,0.8,1,1\n")
        assert run(["report", "--results", str(results)]) == 2
        captured = capsys.readouterr()
        assert "ieee14: rows from more than one seed" in captured.err
        assert captured.out == ""
