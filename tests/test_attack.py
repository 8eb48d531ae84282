"""Stealth identity, attack sampling and dataset generation/serialization."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdilab import (
    AttackConfig,
    Dataset,
    NoiseModel,
    build_jacobian,
    calibrate_threshold,
    craft_attack,
    generate_dataset,
    inject,
    load_builtin,
    load_dataset,
    residual_norm,
    save_dataset,
    solve_dc_state,
    stealthiness_report,
    wls_estimate,
)
from fdilab.attack import batch_residuals
from fdilab.powergrid import _solve_state_block

from oracles import (
    batch_residuals_oracle,
    generate_dataset_bulk_oracle,
    generate_dataset_oracle,
    random_connected_system,
    save_dataset_oracle,
    wls_estimate_oracle,
)


SIGMA = 0.01


class TestAttackConfig:
    def test_default_target_budget(self):
        # max_targets 0 means ceil(n_states / 3) on the system drawn on
        assert AttackConfig().on(13).max_targets == 5
        assert AttackConfig().on(117).max_targets == 39
        assert AttackConfig().on(3).max_targets == 1
        cfg = AttackConfig(max_targets=7, magnitude_low=0.2, magnitude_high=0.3)
        assert cfg.on(13) == cfg

    def test_max_targets_above_the_states_names_key_and_system(self):
        assert AttackConfig(max_targets=13).on(13, "ieee14").max_targets == 13
        with pytest.raises(ValueError, match="^max_targets = 14 exceeds the 13 states of ieee14$"):
            AttackConfig(max_targets=14).on(13, "ieee14")

    def test_validation(self):
        with pytest.raises(ValueError, match="max_targets must be non-negative"):
            AttackConfig(max_targets=-1)
        with pytest.raises(ValueError):
            AttackConfig(max_targets=2, magnitude_low=0.2, magnitude_high=0.1)
        with pytest.raises(ValueError):
            AttackConfig(max_targets=2, magnitude_low=0.0)


class TestCraftAttack:
    def test_sparsity_and_magnitudes(self):
        jac = build_jacobian(load_builtin("ieee14"))
        cfg = AttackConfig(max_targets=5, magnitude_low=0.01, magnitude_high=0.1)
        rng = np.random.default_rng(0)
        for _ in range(200):
            atk = craft_attack(jac, cfg, rng)
            nz = np.abs(atk.c) > 0
            assert 1 <= nz.sum() <= 5
            assert np.all(np.abs(atk.c[nz]) >= 0.01)
            assert np.all(np.abs(atk.c[nz]) <= 0.1)

    def test_both_signs_appear(self):
        jac = build_jacobian(load_builtin("ieee14"))
        cfg = AttackConfig(max_targets=5)
        rng = np.random.default_rng(1)
        vals = np.concatenate([craft_attack(jac, cfg, rng).c for _ in range(50)])
        assert (vals > 0).any() and (vals < 0).any()

    def test_a_is_image_of_c(self):
        jac = build_jacobian(load_builtin("ieee14"))
        atk = craft_attack(jac, AttackConfig(max_targets=4), np.random.default_rng(2))
        assert np.allclose(atk.a, jac.matrix @ atk.c)

    def test_too_many_targets_rejected(self):
        jac = build_jacobian(load_builtin("ieee14"))
        with pytest.raises(ValueError, match="max_targets"):
            craft_attack(jac, AttackConfig(max_targets=14), np.random.default_rng(0))

    def test_inject_shape_check(self):
        jac = build_jacobian(load_builtin("ieee14"))
        atk = craft_attack(jac, AttackConfig(max_targets=3), np.random.default_rng(3))
        with pytest.raises(ValueError):
            inject(np.zeros(5), atk)


class TestStealthIdentity:
    def test_residual_unchanged_and_estimate_shifted(self):
        # the crafted attack moves the estimate by exactly c but the residual
        # does not move at all
        rng = np.random.default_rng(7)
        for _ in range(20):
            sys = random_connected_system(rng)
            jac = build_jacobian(sys)
            x = rng.normal(0.0, 0.2, sys.n_states)
            z = jac.matrix @ x + rng.normal(0.0, SIGMA, jac.n_measurements)
            cfg = AttackConfig(max_targets=max(1, sys.n_states // 2))
            atk = craft_attack(jac, cfg, rng)
            z_bad = inject(z, atk)
            var = SIGMA ** 2
            xh = wls_estimate(jac, var, z)
            xh_bad = wls_estimate(jac, var, z_bad)
            assert np.max(np.abs(xh_bad - (xh + atk.c))) < 1e-9
            r = residual_norm(z, jac, xh)
            r_bad = residual_norm(z_bad, jac, xh_bad)
            assert abs(r - r_bad) < 1e-8

    def test_naive_attack_is_flagged(self):
        # corrupting one measurement directly (a not in range of H) raises the
        # residual and the detector sees it
        sys = load_builtin("ieee14")
        jac = build_jacobian(sys)
        rng = np.random.default_rng(8)
        x = solve_dc_state(sys, jac, sys.injections())
        z = jac.matrix @ x + rng.normal(0.0, SIGMA, jac.n_measurements)
        thr = calibrate_threshold(sys, NoiseModel(SIGMA), n_samples=400, seed=9)
        var = SIGMA ** 2
        assert residual_norm(z, jac, wls_estimate(jac, var, z)) < thr
        z_naive = z.copy()
        z_naive[0] += 1.0
        r_naive = residual_norm(z_naive, jac, wls_estimate(jac, var, z_naive))
        assert r_naive > thr


class TestGenerateDataset:
    def test_shapes_counts_and_meta(self):
        sys = load_builtin("ieee14")
        ds = generate_dataset(sys, 100, 0.3, NoiseModel(SIGMA), 0.1, None, seed=5)
        assert ds.X.shape == (100, 34)
        assert ds.y.sum() == 30  # floor(100 * 0.3), exact
        assert ds.meta["system"] == "ieee14"
        assert ds.meta["max_targets"] == 5
        assert ds.meta["seed"] == 5

    @pytest.mark.parametrize("ratio", [0.0, 0.5])
    def test_max_targets_above_the_states_fails_before_any_draw(self, ratio):
        # resolved on the system up front, whether or not a row is attacked
        cfg = AttackConfig(max_targets=14)
        with pytest.raises(ValueError, match="max_targets = 14 exceeds the 13 states of ieee14"):
            generate_dataset(load_builtin("ieee14"), 20, ratio, NoiseModel(SIGMA), 0.1, cfg, 0)

    def test_exact_attack_count_rounding(self):
        sys = load_builtin("ieee14")
        ds = generate_dataset(sys, 7, 0.5, NoiseModel(SIGMA), 0.1, None, seed=5)
        assert ds.y.sum() == 3  # floor(3.5)

    def test_deterministic_bitwise(self):
        sys = load_builtin("ieee14")
        a = generate_dataset(sys, 40, 0.5, NoiseModel(SIGMA), 0.1, None, seed=11)
        b = generate_dataset(sys, 40, 0.5, NoiseModel(SIGMA), 0.1, None, seed=11)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)

    def test_seed_changes_data(self):
        sys = load_builtin("ieee14")
        a = generate_dataset(sys, 40, 0.5, NoiseModel(SIGMA), 0.1, None, seed=11)
        b = generate_dataset(sys, 40, 0.5, NoiseModel(SIGMA), 0.1, None, seed=12)
        assert not np.array_equal(a.X, b.X)

    def test_attacked_rows_differ_from_clean_image(self):
        sys = load_builtin("ieee14")
        ds = generate_dataset(sys, 30, 0.5, NoiseModel(SIGMA), 0.1, None, seed=13)
        clean_X = generate_dataset(sys, 30, 0.0, NoiseModel(SIGMA), 0.1, None, seed=13).X
        attacked = ds.y == 1
        assert not np.allclose(ds.X[attacked], clean_X[attacked])
        assert np.array_equal(ds.X[~attacked], clean_X[~attacked])

    def test_stealth_rates_close(self):
        sys = load_builtin("ieee14")
        noise = NoiseModel(SIGMA)
        ds = generate_dataset(sys, 1000, 0.5, noise, 0.1, None, seed=14)
        jac = build_jacobian(sys)
        thr = calibrate_threshold(sys, noise, n_samples=500, quantile=0.95, seed=15)
        clean_rate, attacked_rate = stealthiness_report(ds, jac, noise.sigma ** 2, thr)
        assert abs(clean_rate - attacked_rate) < 0.02
        assert clean_rate < 0.15  # calibrated at the 95th percentile

    def test_validation(self):
        sys = load_builtin("ieee14")
        noise = NoiseModel(SIGMA)
        with pytest.raises(ValueError):
            generate_dataset(sys, 1, 0.5, noise, 0.1, None, seed=0)
        with pytest.raises(ValueError):
            generate_dataset(sys, 10, 1.5, noise, 0.1, None, seed=0)
        with pytest.raises(ValueError):
            generate_dataset(sys, 10, 0.5, noise, 1.0, None, seed=0)

    def test_batch_residuals_match_single(self):
        sys = load_builtin("ieee14")
        jac = build_jacobian(sys)
        ds = generate_dataset(sys, 20, 0.5, NoiseModel(SIGMA), 0.1, None, seed=16)
        var = SIGMA ** 2
        batched = batch_residuals(ds.X, jac, var)
        for i in range(20):
            single = residual_norm(ds.X[i], jac, wls_estimate(jac, var, ds.X[i]))
            assert batched[i] == pytest.approx(single, rel=1e-9)


class TestGenerateMatchesOracle:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.booleans(), st.integers(2, 40),
           st.sampled_from([0.0, SIGMA, 0.1]), st.sampled_from([0.0, 0.5, 1.0]))
    def test_bulk_generation_equals_per_sample_oracle(self, seed, ieee14, n, sigma, ratio):
        sys = load_builtin("ieee14") if ieee14 else random_connected_system(
            np.random.default_rng(seed))
        args = (sys, n, ratio, NoiseModel(sigma), 0.1, None, seed)
        ds = generate_dataset(*args)
        X, y, clean = generate_dataset_oracle(*args)
        assert np.array_equal(ds.y, y)
        tol = dict(rtol=1e-12, atol=1e-12 * max(1.0, float(np.abs(X).max())))
        np.testing.assert_allclose(ds.X, X, **tol)
        # the rows before their attacks are the same call's rows at ratio 0
        clean_X = generate_dataset(sys, n, 0.0, NoiseModel(sigma), 0.1, None, seed).X
        np.testing.assert_allclose(clean_X, clean, **tol)
        # the attacks themselves are drawn and added exactly as the oracle does
        assert np.array_equal(np.sign(ds.X - clean_X), np.sign(X - clean))


# sizes around the 256-row blocks of generate_dataset, wls_estimate and batch_residuals
BLOCK_EDGES = [1, 2, 255, 256, 257, 511, 512, 513, 777, 1030]


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestBlockedPathsEqualBulkOracles:
    """generate_dataset and batch_residuals work in row blocks; the bulk
    versions they replaced are their oracles, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.booleans(), st.sampled_from(BLOCK_EDGES[1:]),
           st.sampled_from([0.0, SIGMA]), st.sampled_from([0.0, 0.5, 1.0]))
    def test_generate_equals_bulk_oracle(self, seed, ieee14, n, sigma, ratio):
        sys = load_builtin("ieee14") if ieee14 else random_connected_system(
            np.random.default_rng(seed))
        args = (sys, n, ratio, NoiseModel(sigma), 0.1, None, seed)
        ds = generate_dataset(*args)
        X, y, clean = generate_dataset_bulk_oracle(*args)
        assert _same_bits(ds.X, X)
        assert np.array_equal(ds.y, y)
        # the rows before their attacks are the same call's rows at ratio 0
        assert _same_bits(generate_dataset(sys, n, 0.0, *args[3:]).X, clean)

    @pytest.mark.parametrize("case, n", [("ieee118", 4097), ("ieee57", 1030)])
    def test_generate_equals_bulk_oracle_at_size(self, case, n):
        args = (load_builtin(case), n, 0.5, NoiseModel(SIGMA), 0.1, None, 21)
        ds = generate_dataset(*args)
        X, y, clean = generate_dataset_bulk_oracle(*args)
        assert _same_bits(ds.X, X) and np.array_equal(ds.y, y)
        assert _same_bits(generate_dataset(args[0], n, 0.0, *args[3:]).X, clean)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from(["random", "ieee14", "ieee57", "ieee118"]),
           st.sampled_from(BLOCK_EDGES))
    def test_solve_dc_state_equals_reduced_block_solve(self, seed, case, k):
        # generate_dataset solves a C-order block of state-bus injections filled
        # row by row; solve_dc_state solves one vector's state-bus injections
        rng = np.random.default_rng(seed)
        sys = random_connected_system(rng) if case == "random" else load_builtin(case)
        jac = build_jacobian(sys)
        P = sys.injections() * rng.uniform(0.9, 1.1, (k, sys.n_buses))
        cols = np.array(jac.state_buses) - 1
        reduced = np.empty((k, jac.n_states))
        for i in range(k):
            reduced[i] = P[i][cols]
        for i in (0, k - 1):
            assert _same_bits(solve_dc_state(sys, jac, P[i]),
                              _solve_state_block(sys, jac, reduced[i]))
        ST = _solve_state_block(sys, jac, reduced)
        # the values do not depend on the block's memory layout: the same rows
        # in Fortran order, as a column-strided view and as a view that walks
        # memory backwards solve to the same bits
        wide = np.zeros((k, 2 * jac.n_states))
        wide[:, ::2] = reduced
        for rhs in (np.asfortranarray(reduced), wide[:, ::2], reduced[::-1].copy()[::-1]):
            assert _same_bits(_solve_state_block(sys, jac, rhs), ST)

    @pytest.mark.parametrize("case", ["ieee14", "ieee57", "ieee118"])
    def test_residuals_equal_bulk_oracle(self, case):
        sys = load_builtin(case)
        jac = build_jacobian(sys)
        Z = generate_dataset(sys, 4097, 0.5, NoiseModel(SIGMA), 0.1, None, seed=22).X
        for n in BLOCK_EDGES + [2047, 4097]:
            assert _same_bits(batch_residuals(Z[:n], jac, SIGMA ** 2),
                              batch_residuals_oracle(Z[:n], jac, SIGMA ** 2)), n

    def test_residuals_of_a_reloaded_strided_X(self, tmp_path):
        sys = load_builtin("ieee57")
        jac = build_jacobian(sys)
        save_dataset(generate_dataset(sys, 600, 0.5, NoiseModel(SIGMA), 0.1, None, seed=23),
                     tmp_path / "ds.csv")
        X = load_dataset(tmp_path / "ds.csv").X
        assert not X.flags.c_contiguous  # a view into the parsed file
        assert _same_bits(batch_residuals(X, jac, SIGMA ** 2),
                          batch_residuals(np.ascontiguousarray(X), jac, SIGMA ** 2))

    @pytest.mark.parametrize("case", ["ieee14", "ieee57", "ieee118"])
    def test_wls_column_blocks_equal_one_shot_oracle(self, case):
        sys = load_builtin(case)
        jac = build_jacobian(sys)
        Z = generate_dataset(sys, 4097, 0.5, NoiseModel(SIGMA), 0.1, None, seed=25).X
        var = np.random.default_rng(25).uniform(0.5, 2.0, jac.n_measurements) * SIGMA ** 2
        for n in BLOCK_EDGES + [2047, 4097]:
            for v in (SIGMA ** 2, var):
                assert _same_bits(wls_estimate(jac, v, Z[:n].T),
                                  wls_estimate_oracle(jac, v, Z[:n].T)), n


def _traced_peak(fn):
    """fn's result and the peak of the memory tracemalloc sees while it runs
    (numpy's arrays, not BLAS or LAPACK work buffers)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryBounds:
    """Peak traced memory of the dataset path on ieee118 at n = 4,000, in units
    of the (n, m) measurement matrix: about one full-size copy per stage."""

    ARGS = (4000, 0.5, NoiseModel(SIGMA), 0.1, None, 24)

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ieee118") / "ds.csv"
        save_dataset(generate_dataset(load_builtin("ieee118"), *self.ARGS), path)
        return path

    def test_generate_peak(self):
        # X and one row block's injections, states, H x and attack shifts
        # (1.32 x measured)
        ds, peak = _traced_peak(lambda: generate_dataset(load_builtin("ieee118"), *self.ARGS))
        assert peak <= 1.4 * ds.X.nbytes

    def test_load_peak(self, saved):
        ds, peak = _traced_peak(lambda: load_dataset(saved))
        assert peak <= 1.5 * ds.X.nbytes

    def test_residual_peak(self, saved):
        jac = build_jacobian(load_builtin("ieee118"))
        Z = load_dataset(saved).X
        # the (n_states, n) right-hand side, solved in place, and one column
        # block's solve and residual block (0.52 x measured)
        _, peak = _traced_peak(lambda: batch_residuals(Z, jac, SIGMA ** 2))
        assert peak <= 0.6 * Z.nbytes


class TestDatasetIO:
    def test_writer_bytes_equal_per_value_oracle(self, tmp_path):
        rng = np.random.default_rng(19)
        X = np.vstack([[-0.0, 5e-324, 1e16, 0.1, 1 / 3, -1e-5],
                       rng.normal(0.0, 1.0, (20, 6)) * 10.0 ** rng.integers(-9, 18, (20, 6))])
        y = np.arange(len(X)) % 2
        save_dataset(Dataset(X=X, y=y), tmp_path / "ds.csv")
        save_dataset_oracle(X, y, tmp_path / "oracle.csv")
        assert (tmp_path / "ds.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        back = load_dataset(tmp_path / "ds.csv")
        assert np.array_equal(back.X.view(np.int64), X.view(np.int64))  # -0.0 keeps its sign
        assert np.array_equal(back.y, y)

    def test_blank_line_reports_line(self, tmp_path):
        p = tmp_path / "blank.csv"
        p.write_text("f1,f2,label\n0.1,0.2,1\n\n0.3,0.4,0\n")
        with pytest.raises(ValueError, match="line 3"):
            load_dataset(p)

    def test_round_trip(self, tmp_path):
        sys = load_builtin("ieee14")
        ds = generate_dataset(sys, 25, 0.4, NoiseModel(SIGMA), 0.1, None, seed=17)
        p = tmp_path / "ds.csv"
        save_dataset(ds, p)
        back = load_dataset(p)
        assert np.array_equal(back.X, ds.X)  # repr round-trips floats exactly
        assert np.array_equal(back.y, ds.y)
        assert back.meta == ds.meta

    def test_header_format(self, tmp_path):
        sys = load_builtin("ieee14")
        ds = generate_dataset(sys, 5, 0.5, NoiseModel(SIGMA), 0.1, None, seed=18)
        p = tmp_path / "ds.csv"
        save_dataset(ds, p)
        header = p.read_text().splitlines()[0]
        assert header == ",".join([f"f{j}" for j in range(1, 35)] + ["label"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            load_dataset(p)

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        # a short row, a non-numeric feature, a non-integer label, a label outside
        # {0, 1}, a non-finite feature, a label written as a float
        for bad_row in ("0.3,0", "0.3,abc,0", "0.3,0.4,yes", "0.3,0.4,2", "0.3,nan,0",
                        "0.3,0.4,1.0"):
            p.write_text(f"f1,f2,label\n0.1,0.2,1\n{bad_row}\n")
            with pytest.raises(ValueError, match="line 3"):
                load_dataset(p)

    @pytest.mark.parametrize("field, row", [
        pytest.param("1_5", "1_5,0.2,1", id="1_5"),
        pytest.param("\u0661\u0665", "\u0661\u0665,0.2,1", id="\u0661\u0665"),
        pytest.param("0_1", "0.1,0.2,0_1", id="label 0_1"),
        pytest.param("\u0660", "0.1,0.2,\u0660", id="label \u0660"),
    ])
    def test_fields_loadtxt_rejects_name_their_line(self, tmp_path, field, row):
        # Python's float reads the features (15.0) and int the labels (1, 0); the
        # line scan parses as np.loadtxt does, and a label is only 0 or 1
        p = tmp_path / "bad.csv"
        p.write_text(f"f1,f2,label\n{row}\n0.3,0.4,0\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))} line 2: .*'{field}'"):
            load_dataset(p)

    @pytest.mark.parametrize("label", ["2", "yes", " 2 "])
    def test_bad_label_names_the_label_rule(self, tmp_path, label):
        p = tmp_path / "bad.csv"
        p.write_text(f"f1,f2,label\n0.1,0.2,1\n0.3,0.4,{label}\n")
        message = f"{p} line 3: label must be 0 or 1, got {label.strip()!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_dataset(p)

    def test_label_may_have_surrounding_whitespace(self, tmp_path):
        p = tmp_path / "spaced.csv"
        p.write_text("f1,label\n0.1, 1 \n0.2,0\n")
        assert load_dataset(p).y.tolist() == [1, 0]

    def test_header_without_rows(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("f1,f2,label\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: no data rows$"):
            load_dataset(p)

    def test_labels_must_be_binary(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset(X=np.zeros((3, 2)), y=np.array([0, 1, 5]))

    def test_load_without_sidecar(self, tmp_path):
        p = tmp_path / "ds.csv"
        p.write_text("f1,f2,label\n0.1,0.2,1\n0.3,0.4,0\n")
        ds = load_dataset(p)
        assert ds.meta == {}
        assert ds.X.shape == (2, 2)

    def test_sidecar_numbers_are_ascii_decimals(self, tmp_path):
        # int and float would read 1_0 (the stem of a case CSV 1_0.csv) as 10
        # and the Arabic-Indic 3 as 3; only ASCII decimals are numbers
        p = tmp_path / "ds.csv"
        p.write_text("f1,f2,label\n0.1,0.2,1\n0.3,0.4,0\n")
        p.with_name("ds.csv.meta").write_text(
            "system = 1_0\nseed = 7\nsigma = 1e-2\ndigit = \u0663\nratio = 0.5\n")
        assert load_dataset(p).meta == {"system": "1_0", "seed": 7, "sigma": 0.01,
                                        "digit": "\u0663", "ratio": 0.5}

    def test_sidecar_that_is_a_directory_is_absent(self, tmp_path):
        p = tmp_path / "ds.csv"
        p.write_text("f1,f2,label\n0.1,0.2,1\n0.3,0.4,0\n")
        p.with_name("ds.csv.meta").mkdir()
        assert load_dataset(p).meta == {}
