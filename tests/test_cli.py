"""Command-line interface: exit codes, subcommand behavior, config layering,
and byte-identical benchmark reruns."""

import csv
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fdilab import bench, cli, load_dataset, powergrid, save_dataset
from fdilab.bench import RESULTS_HEADER, load_results
from fdilab.classify import AnnConfig, SvmConfig
from fdilab.cli import CONFIG_KEYS, ConfigError, _read_config_file, main

from oracles import grid_search_oracle


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
        # an output directory that cannot be made: a file stands in its place
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run(["generate", "--case", "ieee14", "--n", "20", "--out-dir", str(taken)]) == 2
        assert "fdilab: FileExistsError:" in capsys.readouterr().err

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


    @pytest.mark.parametrize("argv, message", [
        (["report", "--results", "{d}"], "results file not found: {d}"),
        (["select", "--dataset", "{d}", "--out-dir", "{out}"], "dataset file not found: {d}"),
        (["gridsearch", "--dataset", "{d}", "--out-dir", "{out}"],
         "dataset file not found: {d}"),
        (["benchmark", "--config", "{d}", "--out-dir", "{out}"], "config file not found: {d}"),
        (["benchmark", "--systems", "{d}", "--out-dir", "{out}"], "case file not found: {d}"),
        (["generate", "--case", "{d}", "--out-dir", "{out}"], "case file not found: {d}"),
    ], ids=["report", "select", "gridsearch", "benchmark --config", "benchmark --systems",
            "generate"])
    def test_path_that_is_a_directory_is_config_error(self, tmp_path, capsys, argv, message):
        # a case path names a CSV by its suffix, so the directory has one
        d, out = tmp_path / "dir.csv", tmp_path / "out"
        d.mkdir()
        assert run([arg.format(d=d, out=out) for arg in argv]) == 1
        assert capsys.readouterr().err == f"fdilab: {message.format(d=d)}\n"
        assert not out.exists()


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

    @pytest.mark.parametrize("stem", ["01", "1e3"])
    def test_case_stem_that_spells_a_number_stays_text(self, tmp_path, stem):
        # system and case are names: 01.csv is system "01", not the int 1
        case = tmp_path / f"{stem}.csv"
        case.write_text(TRIANGLE)
        dest = tmp_path / "ds.csv"
        assert run(["generate", "--case", str(case), "--n", "20",
                    "--out", str(dest), "--out-dir", str(tmp_path)]) == 0
        meta = load_dataset(dest).meta
        assert (meta["system"], meta["case"], meta["n"]) == (stem, str(case), 20)

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

    def test_clean_only_dataset(self, tmp_path):
        # generate checks its settings without check_spec, which wants both classes
        dest = tmp_path / "ds.csv"
        assert run(["generate", "--case", "ieee14", "--n", "20", "--attack-ratio", "0",
                    "--out", str(dest)]) == 0
        assert int(load_dataset(dest).y.sum()) == 0

    @pytest.mark.parametrize("ratio", ["0", "0.5"])
    def test_max_targets_above_the_states_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                          ratio):
        # checked against the case before any draw, whether or not a row is attacked
        monkeypatch.chdir(tmp_path)
        assert run(["generate", "--case", "ieee14", "--n", "20", "--max-targets", "50",
                    "--attack-ratio", ratio, "--out", "x.csv"]) == 1
        assert "max_targets = 50 exceeds the 13 states of ieee14" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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

    def test_repeated_key_reports_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("knn_k = 3\nseed = 1\nknn_k = 5\n")
        with pytest.raises(ConfigError, match=r"run\.cfg line 3: repeated key 'knn_k'$"):
            _read_config_file(cfg)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_float_reports_line(self, tmp_path, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = 7\nnoise_sigma = {text}\n")
        with pytest.raises(ConfigError, match=r"run\.cfg line 2: not a finite number"):
            _read_config_file(cfg)

    @pytest.mark.parametrize("key, text, message", [
        ("noise_sigma", "0_01", "not a decimal number: '0_01'"),
        ("n_train", "2_000", "not a decimal integer: '2_000'"),
        ("seed", "\u0663", "not a decimal integer: '\u0663'"),
        ("svm_gamma", "\u0660.5", "not a decimal number: '\u0660.5'"),
        ("n", "1.0", "not a decimal integer: '1.0'"),
    ])
    def test_numbers_are_ascii_decimals(self, tmp_path, key, text, message):
        # int() and float() alone read the first four as 1.0, 2000, 3 and 0.5
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {text}\n")
        with pytest.raises(ConfigError, match=f"run\\.cfg line 1: {re.escape(message)}$"):
            _read_config_file(cfg)

    @pytest.mark.parametrize("key, text, value", [
        ("seed", "+3", 3), ("n", "007", 7), ("noise_sigma", "1E-2", 0.01),
        ("val_fraction", ".25", 0.25), ("svm_c", "10.", 10.0), ("load_var", "-0", 0.0),
    ])
    def test_every_decimal_spelling_casts(self, key, text, value):
        got = CONFIG_KEYS[key][0](text)
        assert got == value and type(got) is type(value)

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            _read_config_file(tmp_path / "nope.cfg")

    def test_every_key_is_a_spec_field_or_cli_only(self):
        # a key no code reads cannot sit in the table unnoticed
        spec_keys = {key for key, *_ in cli._spec_keys()}
        assert set(CONFIG_KEYS) == spec_keys | {"case", "n", "out_dir"}

    def test_every_key_names_one_setting(self):
        # two fields on one key would pass the set test above
        keys = [key for key, *_ in cli._spec_keys()]
        assert len(keys) == len(set(keys))

    def test_every_key_has_caster_and_default(self):
        for key, (caster, default) in CONFIG_KEYS.items():
            assert callable(caster)
            if not isinstance(default, (str, tuple)):
                caster(str(default))  # defaults survive their own caster


class TestGridsearchCmd:
    def test_outputs_and_byte_identical_rerun(self, tmp_path, capsys):
        ds_path = tmp_path / "ds.csv"
        assert run(["generate", "--case", "ieee14", "--n", "120", "--seed", "5",
                    "--out", str(ds_path), "--out-dir", str(tmp_path)]) == 0
        out_dir = tmp_path / "gs"
        argv = ["gridsearch", "--dataset", str(ds_path), "--classifier", "knn,svm",
                "--out-dir", str(out_dir)]
        capsys.readouterr()
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert "cache" not in first
        names = {f"{stem}_{kind}.{ext}" for kind in ("knn", "svm")
                 for stem, ext in (("grid", "csv"), ("best", "txt"))}
        assert {p.name for p in out_dir.iterdir()} == names
        assert "k = " in (out_dir / "best_knn.txt").read_text()
        outputs = {name: (out_dir / name).read_bytes() for name in names}
        for name in names:  # the rerun recomputes and writes every output again
            (out_dir / name).unlink()
        assert run(argv) == 0
        assert capsys.readouterr().out == first
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == outputs

    def test_config_keys_reach_the_fields_the_grid_does_not_sweep(self, tmp_path):
        ds_path = tmp_path / "ds.csv"
        assert run(["generate", "--case", "ieee14", "--n", "60", "--seed", "6",
                    "--out", str(ds_path), "--out-dir", str(tmp_path)]) == 0
        conf = tmp_path / "gs.conf"
        conf.write_text("ann_epochs = 1\nsvm_max_sweeps = 1\n")
        out_dir = tmp_path / "gs"
        assert run(["gridsearch", "--dataset", str(ds_path), "--classifier", "svm,ann",
                    "--config", str(conf), "--out-dir", str(out_dir)]) == 0
        ds = load_dataset(ds_path)
        for kind, base in (("svm", SvmConfig(max_sweeps=1)), ("ann", AnnConfig(epochs=1))):
            want = grid_search_oracle(ds.X, ds.y, kind, bench.default_grid(kind, base),
                                      bench.ExperimentSpec())
            with (out_dir / f"grid_{kind}.csv").open() as fh:
                rows = list(csv.reader(fh))[1:]
            assert rows == [[repr(cfg), "" if acc is None else repr(acc), err or ""]
                            for cfg, acc, err in want]

    def test_one_context_for_every_classifier(self, tmp_path, monkeypatch):
        ds_path = tmp_path / "ds.csv"
        assert run(["generate", "--case", "ieee14", "--n", "30", "--seed", "2",
                    "--out", str(ds_path), "--out-dir", str(tmp_path)]) == 0
        calls = []
        make = cli.featsel.make_fitness_context

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return make(*args, **kwargs)

        monkeypatch.setattr(cli.featsel, "make_fitness_context", counted)
        assert run(["gridsearch", "--dataset", str(ds_path), "--classifier", "knn,svm,ann",
                    "--out-dir", str(tmp_path / "gs")]) == 0
        assert calls == [{"val_fraction": 0.2, "seed": 0, "standardize": True}]

    def test_scores_every_k_up_to_fewer_training_rows_than_knn_k(self, tmp_path, capsys):
        # 10 rows leave 8 training rows, fewer than the default knn_k = 12, which
        # gridsearch does not read
        ds_path = tmp_path / "ds.csv"
        assert run(["generate", "--case", "ieee14", "--n", "10", "--seed", "4",
                    "--out", str(ds_path), "--out-dir", str(tmp_path)]) == 0
        out_dir = tmp_path / "gs"
        assert run(["gridsearch", "--dataset", str(ds_path), "--classifier", "knn",
                    "--out-dir", str(out_dir)]) == 0
        with (out_dir / "grid_knn.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [row["config"] for row in rows] == [f"KnnConfig(k={k})" for k in range(1, 21)]
        for k, row in enumerate(rows, start=1):
            if k <= 8:
                assert row["accuracy"] and not row["error"]
            else:
                assert (row["accuracy"], row["error"]) == ("", f"k={k} exceeds training size 8")

    def test_code_digest_covers_bundled_cases(self, tmp_path, monkeypatch):
        # a case file's bytes change every benchmark result, so the manifest's code
        # digest covers them
        package = tmp_path / "fdilab"
        shutil.copytree(Path(cli.__file__).parent, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        original = cli._code_fingerprint()
        monkeypatch.setattr(cli, "__file__", str(package / "cli.py"))
        assert cli._code_fingerprint() == original
        case = package / "cases" / "ieee14.csv"
        case.write_text(case.read_text() + "\n")
        assert cli._code_fingerprint() != original

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

    def test_repeated_classifier_rejected_before_reading_the_dataset(self, tmp_path, capsys):
        assert run(["gridsearch", "--dataset", str(tmp_path / "no.csv"),
                    "--classifier", "knn,knn", "--out-dir", str(tmp_path / "gs")]) == 1
        assert capsys.readouterr().err == "fdilab: repeated classifier: knn,knn\n"
        assert not (tmp_path / "gs").exists()

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
        assert run(["select", "--dataset", str(ds_path), "--fs", "ga", "--knn-k", "50",
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

    def test_field_loadtxt_rejects_is_config_error(self, tmp_path, capsys):
        ds_path = tmp_path / "underscore.csv"
        ds_path.write_text("f1,f2,label\n1_5,0.2,1\n0.3,0.4,0\n")
        assert run(["select", "--dataset", str(ds_path), "--fs", "ga",
                    "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"fdilab: {ds_path} line 2: ")

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
        # a search runs, so the wrapper's 32 training rows bound knn_k, not n_train
        ("knn_k", 35, "knn_k = 35 exceeds the 32 wrapper training rows"),
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
        # no search runs and knn is no classifier, so no KNN trains and knn_k is not checked
        def no_context(*args, **kwargs):
            raise AssertionError("wrapper context built without a search")

        monkeypatch.setattr(cli.featsel, "make_fitness_context", no_context)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("knn_k = 50\n")
        assert run(["benchmark", "--systems", "ieee14", "--fs", "none", "--classifier", "svm",
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

    def test_one_case_file_seeds_alike_by_any_path(self, tmp_path):
        # a system's seeds come from its case name, not from the path as typed
        source = Path(powergrid.__file__).parent / "cases" / "ieee14.csv"
        runs = {}
        for where in ("a", "b/sub"):
            case = tmp_path / where / "grid.csv"
            case.parent.mkdir(parents=True)
            shutil.copy(source, case)
            out_dir = tmp_path / where / "out"
            assert run(["benchmark", "--systems", str(case), "--fs", "none,ga",
                        "--classifier", "knn", "--n-train", "120", "--n-test", "60",
                        "--seed", "3", "--out-dir", str(out_dir)]) == 0
            rows = [(r.fs_method, r.classifier, r.n_features, r.accuracy)
                    for r in load_results(out_dir / "results.csv")]
            export = [line for line in (out_dir / "fs_grid_ga.txt").read_text().splitlines()
                      if not line.startswith("search_seconds")]
            runs[where] = rows, export, (out_dir / "fs_grid_ga_trace.csv").read_bytes()
        assert runs["a"] == runs["b/sub"]

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

    @pytest.mark.parametrize("command", ["generate", "benchmark"])
    @pytest.mark.parametrize("edit, message", [
        (("BUS,2,-0.5", "BUS,2,nan"), "line 2: non-finite injection nan"),
        (("BRANCH,1,3,0.1", "BRANCH,1,3,inf"), "line 6: reactance inf is not positive"),
    ], ids=["nan injection", "inf reactance"])
    def test_non_finite_case_value_is_config_error(self, tmp_path, capsys, command, edit,
                                                   message):
        case = tmp_path / "tri.csv"
        case.write_text(TRIANGLE.replace(*edit))
        argv = ({"generate": ["generate", "--case", str(case), "--n", "20"],
                 "benchmark": ["benchmark", "--systems", str(case), "--fs", "none",
                               "--classifier", "knn", "--n-train", "40", "--n-test", "20"]}
                [command])
        out_dir = tmp_path / "out"
        assert run(argv + ["--out-dir", str(out_dir)]) == 1
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_case_error_names_its_file(self, tmp_path, capsys):
        case = tmp_path / "bad.csv"
        case.write_text(TRIANGLE.replace("BUS,2,-0.5", "BUS,2,nan"))
        out_dir = tmp_path / "out"
        assert run(["benchmark", "--systems", f"ieee14,{case}",
                    "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err == f"fdilab: {case} line 2: non-finite injection nan\n"
        assert not out_dir.exists()

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
        (["gridsearch", "--standardize", "maybe"], "", "--standardize"),
        (["generate", "--case", "ieee14", "--n", "20", "--seed", "abc"], "", "--seed"),
        (["generate", "--case", "ieee14", "--n", "20", "--attack-ratio", "2"], "",
         "attack_ratio"),
        (["select", "--fs", "ga", "--knn-k", "50"], "", "knn_k=50"),
        (["gridsearch", "--val-fraction", "1.5"], "", "val_fraction"),
        (["gridsearch", "--classifier", "knn,knn"], "", "repeated classifier: knn,knn"),
        # the removed keys: each setting has one key, which every subcommand reads
        (["select", "--fs", "ga", "--wrapper-k", "12"], "",
         "unrecognized arguments: --wrapper-k"),
        (["gridsearch", "--holdout", "0.2"], "", "unrecognized arguments: --holdout"),
        (BENCH, "wrapper_k = 12\n", "unknown key 'wrapper_k'"),
        (["gridsearch"], "holdout = 0.2\n", "unknown key 'holdout'"),
        (BENCH + ["--attack-ratio", "2"], "", "attack_ratio"),
        (BENCH + ["--noise-sigma", "-1"], "", "noise_sigma"),
        (BENCH + ["--load-var", "1.5"], "", "load_var"),
        (BENCH + ["--n-test", "1"], "", "n_test"),
        (BENCH, "magnitude_low = 0.5\nmagnitude_high = 0.1\n", "magnitude_low"),
        (BENCH, "val_fraction = 1.5\n", "val_fraction"),
        (BENCH, "knn_k = 0\n", "k must be at least 1"),
        (BENCH, "knn_k = 50\n", "knn_k = 50 exceeds the 40 training rows"),
        (BENCH + ["--classifier", "knn,svm,knn"], "", "repeated classifier: knn,svm,knn"),
        # floor(n_train * attack_ratio) of 0 or n_train leaves svm and ann one class
        (BENCH + ["--classifier", "svm", "--attack-ratio", "0"], "",
         "attack_ratio = 0.0 gives 0 attacked of the 40 training rows (n_train)"),
        (BENCH + ["--classifier", "ann", "--attack-ratio", "0.01"], "",
         "attack_ratio = 0.01 gives 0 attacked of the 40 training rows (n_train)"),
        (BENCH + ["--classifier", "knn,svm", "--attack-ratio", "1"], "",
         "attack_ratio = 1.0 gives 40 attacked of the 40 training rows (n_train)"),
        # a nested config's message names the section's keys that were set
        (BENCH, "knn_k = 0\n", "knn_k = 0: k must be at least 1"),
        (["select", "--fs", "ga"], "ga_population = 0\nga_elite = 1\n",
         "ga_population = 0: population must be >= 2"),
        (BENCH, "svm_c = -1\nsvm_gamma = 0.5\n",
         "svm_c = -1.0, svm_gamma = 0.5: C, gamma and tol must be positive"),
        # nan and inf pass every range check, so the caster refuses them
        (BENCH, "svm_gamma = inf\n", "run.cfg line 1: not a finite number: 'inf'"),
        (["select", "--fs", "bpso"], "bpso_w = nan\n", "run.cfg line 1: not a finite number"),
        (BENCH + ["--noise-sigma", "inf"], "", "--noise-sigma: not a finite number: 'inf'"),
        (["gridsearch", "--val-fraction", "nan"], "", "--val-fraction: not a finite number"),
        (BENCH, "knn_k = 3\nknn_k = 5\n", "run.cfg line 2: repeated key 'knn_k'"),
        # at lambda = 3 Mantegna's scale is about 1e-16, so no nest would move
        (["select", "--fs", "bcs"], "bcs_lambda = 3\n",
         "bcs_lambda = 3.0: lambda must satisfy 1 < lambda < 3"),
        # generate builds the spec too, without check_spec's dataset sizes
        (["generate", "--case", "ieee14", "--n", "20", "--max-targets", "-1"], "",
         "max_targets must be non-negative"),
        (["generate", "--case", "ieee14", "--n", "20"], "threads = 0\n",
         "threads must be a positive integer, got 0"),
        (["generate", "--case", "ieee14", "--n", "20"], "knn_k = 0\n",
         "knn_k = 0: k must be at least 1"),
        (["generate", "--case", "ieee14", "--n", "20", "--noise-sigma", "inf"], "",
         "--noise-sigma: not a finite number: 'inf'"),
        # an empty name list would run nothing, or fail after the manifest
        (BENCH + ["--systems", ","], "", "no system given"),
        (BENCH + ["--fs", ","], "", "no FS method given"),
        (BENCH + ["--classifier", ","], "", "no classifier given"),
        (["gridsearch", "--classifier", ","], "", "no classifier given"),
        (["select", "--fs", ","], "", "no FS method given"),
        # int() and float() alone read these as 0.01, 2000 and 3
        (BENCH + ["--noise-sigma", "0_01"], "", "--noise-sigma: not a decimal number: '0_01'"),
        (BENCH + ["--n-train", "2_000"], "", "--n-train: not a decimal integer: '2_000'"),
        (["generate", "--case", "ieee14", "--seed", "\u0663"], "",
         "--seed: not a decimal integer: '\u0663'"),
    ], ids=["standardize", "seed", "generate attack_ratio", "select knn_k",
            "gridsearch val_fraction", "gridsearch repeated classifier", "select wrapper_k",
            "holdout", "wrapper_k", "holdout key", "attack_ratio", "noise_sigma", "load_var",
            "n_test", "magnitudes", "val_fraction", "knn_k", "knn_k above n_train",
            "repeated classifier", "one-class svm", "one-class ann", "all-attacked svm",
            "knn_k named", "ga_population named", "svm section named", "svm_gamma inf",
            "bpso_w nan", "noise_sigma inf", "gridsearch val_fraction nan", "repeated key",
            "bcs_lambda 3",
            "generate max_targets", "generate threads", "generate knn_k",
            "generate noise_sigma inf", "no system", "no fs", "no classifier",
            "gridsearch no classifier", "select no fs", "noise_sigma underscore",
            "n_train underscore", "arabic-indic seed"])
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

    @pytest.mark.parametrize("argv, config, name", [
        (BENCH + ["--seed", "-1"], "", "seed must be non-negative, got -1"),
        (["select", "--fs", "bcs", "--seed", "-1"], "", "seed must be non-negative, got -1"),
        (["gridsearch", "--seed", "-1"], "", "seed must be non-negative, got -1"),
        (["generate", "--case", "ieee14", "--n", "20", "--seed", "-1"], "",
         "seed must be non-negative, got -1"),
        (BENCH, "ann_seed = -1\n", "ann_seed = -1: seed must be non-negative, got -1"),
    ], ids=["benchmark", "select", "gridsearch", "generate", "ann_seed"])
    def test_negative_seed_is_config_error_before_any_work(self, tmp_path, capsys, argv,
                                                           config, name):
        self.test_setting_is_config_error_before_any_work(tmp_path, capsys, argv, config, name)


class TestParser:
    COMMON = ["seed", "out_dir"]
    SIMULATION = ["noise_sigma", "load_var", "attack_ratio"]
    # subcommand -> (the config keys it takes as flags, its other options)
    FLAGS = {
        "generate": (COMMON + ["case", "n", "max_targets"] + SIMULATION, ["--config", "--out"]),
        "gridsearch": (COMMON + ["classifier", "val_fraction", "standardize"],
                       ["--config", "--dataset"]),
        "select": (COMMON + ["fs", "knn_k", "standardize"], ["--config", "--dataset"]),
        "benchmark": (COMMON + ["systems", "fs", "classifier", "n_train", "n_test", "threads"]
                      + SIMULATION + ["standardize"], ["--config"]),
        "report": ([], ["--results"]),
    }
    TEXT = {tuple: "a,b", bool: "no", int: "7", float: "0.5", str: "x"}

    @pytest.mark.parametrize("command, key", [(command, key) for command, (keys, _) in
                                              FLAGS.items() for key in keys])
    def test_flag_resolves_to_the_cast_value(self, command, key):
        caster, default = CONFIG_KEYS[key]
        text = self.TEXT[type(default)]
        argv = [command, "--" + key.replace("_", "-"), text]
        if command in ("gridsearch", "select"):
            argv += ["--dataset", "d.csv"]
        assert cli._resolve(cli.build_parser().parse_args(argv))[key] == caster(text)

    @pytest.mark.parametrize("command, key", [
        ("generate", "standardize"),
        *(("gridsearch", key) for key in SIMULATION),
        *(("select", key) for key in SIMULATION),
    ])
    def test_flag_of_a_key_the_command_does_not_read_is_usage_error(self, capsys, command,
                                                                    key):
        # a setting the command would ignore is refused, not silently accepted
        flag = "--" + key.replace("_", "-")
        argv = [command, flag, self.TEXT[type(CONFIG_KEYS[key][1])]]
        if command in ("gridsearch", "select"):
            argv += ["--dataset", "d.csv"]
        assert run(argv) == 1
        assert f"unrecognized arguments: {flag} " in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["benchmark", "--n", "5"], "--n"),
        (["benchmark", "--n-tr", "40"], "--n-tr"),
    ])
    def test_abbreviated_flag_is_usage_error(self, capsys, argv, flag):
        # no prefix matching: --n is not read as --n-train, --n-test or --noise-sigma
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

    def test_zero_threads_is_config_error(self, tmp_path, capsys):
        assert run(self.SMALL + ["--out-dir", str(tmp_path / "a"), "--threads", "0"]) == 1
        assert "threads" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads = 0\n")
        assert run(self.SMALL + ["--out-dir", str(tmp_path / "b"), "--config", str(cfg)]) == 1
        assert "threads" in capsys.readouterr().err

    def test_flag_over_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads = 4\n")
        assert self._manifest_threads(tmp_path / "a", "--config", str(cfg)) == ["threads = 4"]
        assert self._manifest_threads(tmp_path / "b", "--config", str(cfg),
                                      "--threads", "2") == ["threads = 2"]

    def test_environment_sets_no_threads(self, tmp_path, monkeypatch):
        # threads is a config key like any other: no environment variable reads it
        monkeypatch.setenv("FDI_LAB_THREADS", "0")
        assert run(["generate", "--case", "ieee14", "--n", "50",
                    "--out", str(tmp_path / "e.csv")]) == 0
        assert self._manifest_threads(tmp_path / "a", "--threads", "2") == ["threads = 2"]


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

    @pytest.mark.parametrize("content, message", [
        (None, "results file not found: {path}"),
        ("system,accuracy\nieee14,0.9\n", "{path}: not a results CSV"),
        (f"{RESULTS_HEADER}\nieee14,none,knn,34,1.5,0,1\n",
         "{path} line 2: accuracy must be in [0, 1], got '1.5'"),
    ], ids=["missing", "not a results CSV", "bad row"])
    def test_bad_results_file_is_config_error(self, tmp_path, capsys, content, message):
        results = tmp_path / "results.csv"
        if content is not None:
            results.write_text(content)
        assert run(["report", "--results", str(results)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"fdilab: {message.format(path=results)}\n"
        assert captured.out == ""

    def test_rows_from_two_seeds_are_a_runtime_error(self, tmp_path, capsys):
        # a results file that loads, but that render_report refuses
        results = tmp_path / "results.csv"
        results.write_text(f"{RESULTS_HEADER}\nieee14,none,knn,34,0.9,0,1\n"
                           "ieee14,none,knn,34,0.8,1,1\n")
        assert run(["report", "--results", str(results)]) == 2
        captured = capsys.readouterr()
        assert "ieee14: rows from more than one seed" in captured.err
        assert captured.out == ""
