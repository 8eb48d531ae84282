"""System model + WLS estimation against hand values and a loop oracle."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdilab import (
    BusSystem,
    NoiseModel,
    bad_data_test,
    build_jacobian,
    load_builtin,
    load_case,
    measure,
    residual_norm,
    solve_dc_state,
    wls_estimate,
)
from fdilab.powergrid import _weights

from oracles import gaussian_elim_solve, jacobian_oracle, random_connected_system, wls_oracle


def triangle():
    """Three buses in a ring, all reactances 0.1 pu."""
    return BusSystem(
        name="tri",
        buses=((1, 1.5), (2, -0.5), (3, -1.0)),
        branches=((1, 2, 0.1), (2, 3, 0.1), (1, 3, 0.1)),
    )


class TestBusSystem:
    def test_counts(self):
        sys = triangle()
        assert sys.n_buses == 3
        assert sys.n_branches == 3
        assert sys.n_states == 2
        assert sys.n_measurements == 6

    def test_injections_vector(self):
        assert np.allclose(triangle().injections(), [1.5, -0.5, -1.0])

    def test_rejects_gap_in_bus_indices(self):
        with pytest.raises(ValueError, match="bus indices"):
            BusSystem("bad", ((1, 0.0), (3, 0.0)), ((1, 3, 0.1),))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            BusSystem("bad", ((1, 0.0), (2, 0.0)), ((1, 1, 0.1), (1, 2, 0.1)))

    def test_rejects_nonpositive_reactance(self):
        with pytest.raises(ValueError, match="reactance"):
            BusSystem("bad", ((1, 0.0), (2, 0.0)), ((1, 2, 0.0),))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_injection(self, value):
        with pytest.raises(ValueError, match="bus 2: non-finite injection"):
            BusSystem("bad", ((1, 0.0), (2, value)), ((1, 2, 0.1),))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_reactance(self, value):
        # an infinite reactance would leave the branch a zero row of H
        with pytest.raises(ValueError, match="branch 0: reactance .* is not positive and finite"):
            BusSystem("bad", ((1, 0.0), (2, 0.0)), ((1, 2, value),))

    def test_rejects_disconnected_graph(self):
        with pytest.raises(ValueError, match="not connected"):
            BusSystem("bad", ((1, 0.0), (2, 0.0), (3, 0.0), (4, 0.0)),
                      ((1, 2, 0.1), (3, 4, 0.1)))

    def test_rejects_single_bus(self):
        with pytest.raises(ValueError, match="two buses"):
            BusSystem("bad", ((1, 0.0),), ())


class TestJacobian:
    def test_triangle_hand_values(self):
        # b = 1/x = 10 on every branch; reference bus 1 drops its column.
        jac = build_jacobian(triangle())
        expect = np.array([
            [-10.0, 0.0],    # flow 1->2 = (th1 - th2)/x
            [10.0, -10.0],   # flow 2->3
            [0.0, -10.0],    # flow 1->3
            [-10.0, -10.0],  # injection bus 1 = flow(1,2) + flow(1,3)
            [20.0, -10.0],   # injection bus 2 = -flow(1,2) + flow(2,3)
            [-10.0, 20.0],   # injection bus 3
        ])
        assert np.allclose(jac.matrix, expect)
        assert jac.row_labels == ("flow0:1-2", "flow1:2-3", "flow2:1-3",
                                  "inj:1", "inj:2", "inj:3")
        assert jac.state_buses == (2, 3)

    def test_matrix_is_read_only(self):
        jac = build_jacobian(triangle())
        with pytest.raises(ValueError):
            jac.matrix[0, 0] = 99.0

    def test_nonunit_reference_bus(self):
        sys = BusSystem("tri2", ((1, 0.0), (2, 0.0), (3, 0.0)),
                        ((1, 2, 0.1), (2, 3, 0.1), (1, 3, 0.1)),
                        reference_bus=2)
        jac = build_jacobian(sys)
        assert jac.state_buses == (1, 3)
        # flow 1->2 = (th1 - 0)/x with column order (th1, th3)
        assert np.allclose(jac.matrix[0], [10.0, 0.0])

    def test_parallel_branches_add(self):
        sys = BusSystem("par", ((1, 0.0), (2, 0.0)),
                        ((1, 2, 0.2), (1, 2, 0.2)))
        jac = build_jacobian(sys)
        # each branch row sees only its own reactance
        assert np.allclose(jac.matrix[0], [-5.0])
        assert np.allclose(jac.matrix[1], [-5.0])
        # injections see both in parallel
        assert np.allclose(jac.matrix[2], [-10.0])
        assert np.allclose(jac.matrix[3], [10.0])
        assert jac.row_labels[0] == "flow0:1-2"
        assert jac.row_labels[1] == "flow1:1-2"

    @pytest.mark.parametrize("name,m,n_states", [
        ("ieee14", 34, 13), ("ieee57", 137, 56), ("ieee118", 304, 117)])
    def test_builtin_case_dimensions(self, name, m, n_states):
        jac = build_jacobian(load_builtin(name))
        assert jac.matrix.shape == (m, n_states)
        assert np.linalg.matrix_rank(jac.matrix) == n_states

    def test_flow_rows_from_angles(self):
        # pick angles, check every flow row against (th_f - th_t)/x by hand
        rng = np.random.default_rng(4)
        sys = load_builtin("ieee14")
        jac = build_jacobian(sys)
        x = rng.normal(0.0, 0.1, sys.n_states)
        theta = {b: x[j] for j, b in enumerate(jac.state_buses)}
        theta[sys.reference_bus] = 0.0
        z = jac.matrix @ x
        for k, (f, t, xr) in enumerate(sys.branches):
            assert z[k] == pytest.approx((theta[f] - theta[t]) / xr, abs=1e-12)

    def test_equals_per_bus_oracle_bit_for_bit(self):
        # random reference buses; equal bits include the sign of every zero
        rng = np.random.default_rng(6)
        systems = [load_builtin(name) for name in ("ieee14", "ieee57", "ieee118")]
        for _ in range(100):
            sys = random_connected_system(rng)
            systems.append(BusSystem(sys.name, sys.buses, sys.branches,
                                     reference_bus=int(rng.integers(1, sys.n_buses + 1))))
        for sys in systems:
            got, want = build_jacobian(sys).matrix, jacobian_oracle(sys)
            assert got.tobytes() == want.tobytes(), sys.name

    def test_injection_rows_conserve_power(self):
        # lossless model: bus injections sum to zero for any state
        sys = load_builtin("ieee57")
        jac = build_jacobian(sys)
        x = np.random.default_rng(5).normal(0.0, 0.1, sys.n_states)
        z = jac.matrix @ x
        injections = z[sys.n_branches:]
        assert abs(injections.sum()) < 1e-9


class TestCaseIO:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_case(tmp_path / "nope.csv")

    def test_round_trip(self, tmp_path):
        p = tmp_path / "tri.csv"
        p.write_text("# comment line\n"
                     "BUS,1,1.5\nBUS,2,-0.5\nBUS,3,-1\n\n"
                     "BRANCH,1,2,0.1\nBRANCH,2,3,0.1\nBRANCH,1,3,0.1\n")
        sys = load_case(p)
        assert sys.name == "tri"
        assert sys.buses == triangle().buses
        assert sys.branches == triangle().branches

    def test_bus_order_in_file_does_not_matter(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("BUS,2,-1\nBUS,1,1\nBRANCH,1,2,0.5\n")
        sys = load_case(p)
        assert sys.buses == ((1, 1.0), (2, -1.0))

    def test_error_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("BUS,1,0\nBUS,2,0\nBRANCH,1,two,0.1\n")
        with pytest.raises(ValueError, match="line 3"):
            load_case(p)

    @pytest.mark.parametrize("record, message", [
        ("BUS,2,nan", "line 2: non-finite injection nan"),
        ("BUS,2,inf", "line 2: non-finite injection inf"),
        ("BUS,2,-inf", "line 2: non-finite injection -inf"),
        ("BUS,2,1e400", "line 2: non-finite injection inf"),
        ("BUS,2,0\nBRANCH,1,2,inf", "line 3: reactance inf is not positive and finite"),
        ("BUS,2,0\nBRANCH,1,2,nan", "line 3: reactance nan is not positive and finite"),
        ("BUS,2,0\nBRANCH,1,2,-0.1", "line 3: reactance -0.1 is not positive and finite"),
    ])
    def test_non_finite_value_reports_line(self, tmp_path, record, message):
        p = tmp_path / "bad.csv"
        p.write_text(f"BUS,1,0\n{record}\nBRANCH,1,2,0.1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))} {message}$"):
            load_case(p)

    @pytest.mark.parametrize("record, message", [
        ("BUS,\u0662,-0.5", "line 2: not a decimal integer: '\u0662'"),
        ("BUS,2,-0\u06f5", "line 2: not a decimal number: '-0\u06f5'"),
        ("BUS,2,-0_5", "line 2: not a decimal number: '-0_5'"),
        ("BUS,2,0\nBRANCH,1,2_0,0.1", "line 3: not a decimal integer: '2_0'"),
        ("BUS,2,0\nBRANCH,1,2,1_0", "line 3: not a decimal number: '1_0'"),
    ], ids=["arabic-indic bus", "persian injection", "underscore injection",
            "underscore bus", "underscore reactance"])
    def test_numbers_are_ascii_decimals(self, tmp_path, record, message):
        # int() and float() alone read these as 2, -0.5, -0.5, 20 and 10.0
        p = tmp_path / "bad.csv"
        p.write_text(f"BUS,1,0\n{record}\nBRANCH,1,2,0.1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))} {message}$"):
            load_case(p)

    def test_every_decimal_spelling_loads(self, tmp_path):
        p = tmp_path / "spell.csv"
        p.write_text("BUS, +1 ,1.\nBUS,2,-.5\nBUS,3,-5E-1\n"
                     "BRANCH,1,2,1e-1\nBRANCH,2,3,+0.10\nBRANCH,1,3,00.1\n")
        sys = load_case(p)
        assert sys.buses == ((1, 1.0), (2, -0.5), (3, -0.5))
        assert [x for _, _, x in sys.branches] == [0.1, 0.1, 0.1]

    def test_bad_record_kind(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("BUS,1,0\nGENERATOR,1,5\n")
        with pytest.raises(ValueError, match="line 2"):
            load_case(p)

    def test_noncontiguous_indices(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("BUS,1,0\nBUS,5,0\nBRANCH,1,5,0.1\n")
        with pytest.raises(ValueError, match="exactly 1..2"):
            load_case(p)

    def test_builtin_path_exists(self):
        assert load_builtin("ieee14").n_buses == 14
        with pytest.raises(FileNotFoundError, match="no bundled case named 'ieee999'"):
            load_builtin("ieee999")


class TestWls:
    def test_triangle_noiseless_recovery(self):
        jac = build_jacobian(triangle())
        x = np.array([-1.0 / 15.0, -1.0 / 12.0])
        z = jac.matrix @ x
        assert np.max(np.abs(wls_estimate(jac, 1e-4, z) - x)) < 1e-12

    def test_matches_loop_oracle_on_100_random_systems(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            sys = random_connected_system(rng)
            jac = build_jacobian(sys)
            x = rng.normal(0.0, 0.2, sys.n_states)
            z = jac.matrix @ x + rng.normal(0.0, 0.02, jac.n_measurements)
            var = 1e-4
            got = wls_estimate(jac, var, z)
            want = wls_oracle(jac.matrix, var, z)
            assert np.max(np.abs(got - want)) < 1e-10

    def test_heteroscedastic_matches_oracle(self):
        rng = np.random.default_rng(21)
        sys = random_connected_system(rng)
        jac = build_jacobian(sys)
        z = rng.normal(0.0, 1.0, jac.n_measurements)
        var = rng.uniform(1e-5, 1e-2, jac.n_measurements)
        got = wls_estimate(jac, var, z)
        want = wls_oracle(jac.matrix, var, z)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_orthogonality_condition(self):
        # first-order optimality: H^T W^-1 (z - H x_hat) = 0
        rng = np.random.default_rng(24)
        sys = random_connected_system(rng)
        jac = build_jacobian(sys)
        z = rng.normal(0.0, 1.0, jac.n_measurements)
        var = rng.uniform(1e-5, 1e-2, jac.n_measurements)
        xh = wls_estimate(jac, var, z)
        r = z - jac.matrix @ xh
        assert np.max(np.abs(jac.matrix.T @ (r / var))) < 1e-8

    def test_zero_variance_convention(self):
        # sigma = 0 means unit weights; estimate equals plain least squares
        jac = build_jacobian(triangle())
        z = np.arange(6.0)
        assert np.allclose(wls_estimate(jac, 0.0, z), wls_estimate(jac, 1.0, z))

    def test_block_of_measurements_column_by_column(self):
        jac = build_jacobian(load_builtin("ieee14"))
        Z = np.random.default_rng(0).normal(size=(jac.n_measurements, 5))
        block = wls_estimate(jac, 1e-4, Z)
        assert block.shape == (jac.n_states, 5)
        for j in range(5):
            assert np.allclose(block[:, j], wls_estimate(jac, 1e-4, Z[:, j]), rtol=1e-12)

    def test_wrong_measurement_length(self):
        jac = build_jacobian(triangle())
        with pytest.raises(ValueError, match="measurement length"):
            wls_estimate(jac, 1e-4, np.zeros(5))

    def test_weights_validation(self):
        assert np.allclose(_weights(4.0, 3), [0.25, 0.25, 0.25])
        assert np.allclose(_weights([1.0, 0.0], 2), [1.0, 1.0])
        with pytest.raises(ValueError):
            _weights([1.0, -1.0], 2)
        with pytest.raises(ValueError):
            _weights([1.0], 2)


class TestResidualAndDetector:
    def test_residual_hand_value(self):
        jac = build_jacobian(triangle())
        x = np.zeros(2)
        z = np.array([3.0, 0.0, 4.0, 0.0, 0.0, 0.0])
        assert residual_norm(z, jac, x) == pytest.approx(25.0)

    def test_boundary_is_flagged(self):
        assert bad_data_test(2.0, 2.0) is True
        assert bad_data_test(1.999999, 2.0) is False

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            bad_data_test(1.0, 0.0)

    def test_wls_minimizes_uniform_residual(self):
        rng = np.random.default_rng(30)
        sys = random_connected_system(rng)
        jac = build_jacobian(sys)
        z = rng.normal(0.0, 1.0, jac.n_measurements)
        xh = wls_estimate(jac, 1.0, z)
        best = residual_norm(z, jac, xh)
        for _ in range(25):
            other = xh + rng.normal(0.0, 0.1, len(xh))
            assert residual_norm(z, jac, other) >= best - 1e-12


class TestMeasureAndFlow:
    def test_noiseless_measure_is_exact(self):
        jac = build_jacobian(triangle())
        x = np.array([0.03, -0.05])
        z = measure(jac, x, NoiseModel(0.0), np.random.default_rng(0))
        assert np.array_equal(z, jac.matrix @ x)

    def test_noise_scale(self):
        jac = build_jacobian(load_builtin("ieee14"))
        x = np.zeros(13)
        z = measure(jac, x, NoiseModel(0.01), np.random.default_rng(1))
        assert 0.0 < np.std(z) < 0.05

    def test_state_length_check(self):
        jac = build_jacobian(triangle())
        with pytest.raises(ValueError, match="state length"):
            measure(jac, np.zeros(3), NoiseModel(0.0), np.random.default_rng(0))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(-0.1)

    def test_solve_dc_state_triangle_hand_values(self):
        sys = triangle()
        jac = build_jacobian(sys)
        theta = solve_dc_state(sys, jac, sys.injections())
        assert theta == pytest.approx([-1.0 / 15.0, -1.0 / 12.0])

    def test_solve_dc_state_round_trip(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            sys = random_connected_system(rng)
            jac = build_jacobian(sys)
            x = rng.normal(0.0, 0.2, sys.n_states)
            z = jac.matrix @ x
            inj = z[sys.n_branches:]
            got = solve_dc_state(sys, jac, inj)
            assert np.max(np.abs(got - x)) < 1e-9

    def test_solve_dc_state_length_check(self):
        sys = triangle()
        jac = build_jacobian(sys)
        with pytest.raises(ValueError):
            solve_dc_state(sys, jac, np.zeros(2))
        with pytest.raises(ValueError):
            solve_dc_state(sys, jac, np.zeros((4, 2)))
        with pytest.raises(ValueError):
            solve_dc_state(sys, jac, np.zeros((2, 4, 3)))
        with pytest.raises(ValueError):  # one vector: a (k, n_buses) block is refused
            solve_dc_state(sys, jac, np.zeros((4, 3)))


@st.composite
def _small_system(draw):
    seed = draw(st.integers(0, 2 ** 31 - 1))
    return random_connected_system(np.random.default_rng(seed))


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(_small_system(), st.integers(0, 2 ** 31 - 1))
    def test_noiseless_recovery_is_exact(self, sys, seed):
        jac = build_jacobian(sys)
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 0.3, sys.n_states)
        z = jac.matrix @ x
        xh = wls_estimate(jac, 1e-4, z)
        assert np.max(np.abs(xh - x)) < 1e-10

    @settings(max_examples=30, deadline=None)
    @given(_small_system(), st.integers(0, 2 ** 31 - 1))
    def test_estimate_invariant_to_uniform_variance_scale(self, sys, seed):
        jac = build_jacobian(sys)
        rng = np.random.default_rng(seed)
        z = rng.normal(0.0, 1.0, jac.n_measurements)
        a = wls_estimate(jac, 1e-6, z)
        b = wls_estimate(jac, 1e-2, z)
        assert np.max(np.abs(a - b)) < 1e-8

    @settings(max_examples=30, deadline=None)
    @given(_small_system(), st.integers(0, 2 ** 31 - 1))
    def test_residual_nonnegative_and_zero_in_range(self, sys, seed):
        jac = build_jacobian(sys)
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 0.3, sys.n_states)
        z = jac.matrix @ x
        assert residual_norm(z, jac, wls_estimate(jac, 1e-4, z)) < 1e-16
        z2 = z + rng.normal(0.0, 0.1, len(z))
        assert residual_norm(z2, jac, wls_estimate(jac, 1e-4, z2)) >= 0.0
