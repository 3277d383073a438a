import tracemalloc
import warnings

import numpy as np
import pytest

from dsest import (
    DescriptorSystem,
    EstimatorRealization,
    InputSignal,
    SimulationError,
    decay_metrics,
    estimation_error,
    run_estimator,
    simulate,
    solve_plant,
)
from dsest import qkf, wong_limits
from dsest import sim
from dsest.sim import SimulationTrace, _PlantSolver, _time_grid

from conftest import lifted_system, random_system


def ramp():
    return InputSignal.polynomial([[0.0, 1.0]])


@pytest.fixture
def eta_plant() -> DescriptorSystem:
    """One dynamic equation plus one algebraic consistency row (more
    equations than states)."""
    E = np.array([[1.0], [0.0]])
    A = np.array([[-1.0], [1.0]])
    B = np.array([[1.0], [-1.0]])
    return DescriptorSystem.from_matrices(
        E, A, B, np.zeros((0, 1)), np.array([[1.0]]))


@pytest.fixture
def eps_plant() -> DescriptorSystem:
    """One equation, two states: x1' = x2 with x2 free."""
    E = np.array([[1.0, 0.0]])
    A = np.array([[0.0, 1.0]])
    B = np.zeros((1, 0))
    return DescriptorSystem.from_matrices(
        E, A, B, np.zeros((0, 2)), np.array([[1.0, 0.0]]))


class TestPlantClosedForms:
    def test_example_states_under_ramp(self, ex_system):
        tr = solve_plant(ex_system, [1.0, 2.0, 3.0, 0.0], u=ramp(), T=10.0)
        t = tr.t
        assert np.allclose(tr.x[0], 2 * np.exp(t) - t - 1, rtol=1e-7, atol=1e-7)
        assert np.abs(tr.x[1] - (5 * np.exp(-t) + 4 * t * np.exp(-t)
                                 + 2 * t - 3)).max() < 1e-9
        assert np.abs(tr.x[2] - (4 * np.exp(-t) + t - 1)).max() < 1e-9
        assert np.abs(tr.x[3] - (-t)).max() < 1e-12

    def test_autonomous_witness_states(self, ex_system):
        tr = solve_plant(ex_system, [0.0, -1.0, 1.0, 0.0], T=10.0)
        t = tr.t
        assert np.abs(tr.x[0]).max() < 1e-12
        assert np.abs(tr.x[1] - (t - 1) * np.exp(-t)).max() < 1e-9
        assert np.abs(tr.x[2] - np.exp(-t)).max() < 1e-9
        assert np.abs(tr.x[3]).max() < 1e-12
        assert np.abs(tr.z[0] - t * np.exp(-t)).max() < 1e-9

    def test_scalar_decay(self):
        sys = DescriptorSystem.from_matrices(
            np.eye(1), -np.eye(1), np.zeros((1, 0)), np.zeros((0, 1)),
            np.eye(1))
        tr = solve_plant(sys, [2.0], T=5.0)
        assert np.abs(tr.x[0] - 2 * np.exp(-tr.t)).max() < 1e-10

    def test_meta_fields(self, ex_system):
        tr = solve_plant(ex_system, [1.0, 2.0, 3.0, 0.0], u=ramp(), T=1.0)
        assert tr.meta["integrator_order"] == 4
        assert tr.meta["block_dims"] == (0, 3, 1, 0)
        assert tr.meta["eta_residual_max"] < 1e-8


class TestAlgebraicBlocks:
    def test_plant_with_no_dynamic_part(self):
        # 0 = x + u: the whole state is the nilpotent block.
        sys = DescriptorSystem.from_matrices(
            [[0.0]], [[1.0]], [[1.0]], np.zeros((0, 1)), [[1.0]])
        tr = solve_plant(sys, [0.0], u=ramp(), T=2.0)
        assert tr.meta["block_dims"] == (0, 0, 1, 0)
        assert np.array_equal(tr.x[0], -tr.t)

    def test_overdetermined_constant_solution(self, eta_plant):
        u = InputSignal.polynomial([[1.0]])
        tr = solve_plant(eta_plant, [1.0], u=u, T=5.0)
        assert np.abs(tr.x[0] - 1.0).max() < 1e-10
        assert tr.meta["eta_residual_max"] < 1e-8

    def test_overdetermined_inconsistent_x0(self, eta_plant):
        u = InputSignal.polynomial([[1.0]])
        with pytest.raises(SimulationError, match="overdetermined-block"):
            solve_plant(eta_plant, [2.0], u=u, T=1.0)

    def test_nilpotent_inconsistent_x0(self, ex_system):
        with pytest.raises(SimulationError, match="nilpotent"):
            solve_plant(ex_system, [1.0, 2.0, 3.0, 5.0], u=ramp(), T=1.0)

    def test_free_part_default_holds_initial_value(self, eps_plant):
        tr = solve_plant(eps_plant, [1.0, 3.0], T=4.0)
        assert np.abs(tr.x[0] - (1.0 + 3.0 * tr.t)).max() < 1e-9
        assert np.abs(tr.x[1] - 3.0).max() < 1e-10

    def test_free_part_hook_keeps_equation_satisfied(self, eps_plant):
        def sig(t):
            return np.reshape(np.sin(np.asarray(t, dtype=float)),
                              (1,) + np.shape(t))

        tr = solve_plant(eps_plant, [1.0, 0.0], T=4.0, eps_signal=sig)
        # Whatever the free component does, E x' = A x must hold: check
        # x1' = x2 by central differences.
        dt = tr.t[1] - tr.t[0]
        dx1 = (tr.x[0, 2:] - tr.x[0, :-2]) / (2 * dt)
        assert np.abs(dx1 - tr.x[1, 1:-1]).max() < 1e-5
        # and the free state actually moved
        assert np.ptp(tr.x[1]) > 0.5

    @pytest.mark.parametrize("free", [
        lambda t: np.zeros((3,) + np.shape(t)),     # three rows, one direction
        lambda t: np.sin(t),                        # a 1-D result
        InputSignal.sinusoid([1.0, 2.0], 1.0),      # two channels
    ], ids=["three-rows", "one-dimensional", "two-channel-signal"])
    @pytest.mark.parametrize("with_estimator", [False, True])
    def test_free_signal_of_wrong_size(self, eps_plant, free, with_estimator):
        # x1' = x2 has one free direction: free(t) must be 1 x len(t).
        est = EstimatorRealization(N=-np.eye(1), H=np.zeros((1, 0)),
                                   R=np.ones((1, 1)), M=np.zeros((1, 0)))
        with pytest.raises(SimulationError, match="free-part signal has shape"):
            if with_estimator:
                simulate(eps_plant, est, [1.0, 0.0], [0.0], T=1.0, dt=0.1,
                         eps_signal=free)
            else:
                solve_plant(eps_plant, [1.0, 0.0], T=1.0, dt=0.1, eps_signal=free)

    def test_overdetermined_block_without_columns(self):
        # x' = -x and the row 0 = u: the overdetermined block has no columns.
        sys = DescriptorSystem.from_matrices(
            [[1.0], [0.0]], [[-1.0], [0.0]], [[0.0], [1.0]], np.zeros((0, 1)),
            [[1.0]])
        with pytest.raises(SimulationError, match="overdetermined-block"):
            solve_plant(sys, [1.0], u=InputSignal.polynomial([[1.0]]), T=1.0)
        tr = solve_plant(sys, [1.0], T=1.0)
        assert tr.meta["eta_residual_max"] == 0.0
        # u(0) = 0 passes the x0 check; the residual records u(t) = t.
        tr = solve_plant(sys, [1.0], u=ramp(), T=1.0)
        assert tr.meta["eta_residual_max"] == pytest.approx(1.0)

    def test_x0_length_checked(self, ex_system):
        with pytest.raises(SimulationError, match="x0"):
            solve_plant(ex_system, [1.0, 2.0], T=1.0)


def _with_B(sys: DescriptorSystem, factor: float) -> DescriptorSystem:
    return DescriptorSystem.from_matrices(sys.E, sys.A, sys.B * factor, sys.C,
                                          sys.K, D=sys.D)


class TestInputScale:
    """The free block is normalized at the QKF's certified rank, and each x0
    check scales with the input term it compares, so B x 1e10 moves
    neither."""

    def test_free_block_trajectory_ignores_B(self):
        # Draws 0-59 of random_system(default_rng(7)) with a free block and
        # inputs.  Under u = 0, B only multiplies zeros, so x keeps its bits.
        rng = np.random.default_rng(7)
        draws = [random_system(rng) for _ in range(60)]
        plants = [s for s in draws if s.l and qkf(s.E, s.A).n_eps]
        assert len(plants) == 19
        for i, sys in enumerate(plants):
            V = wong_limits(sys.E, sys.A).V_star
            x0 = V.basis @ np.random.default_rng(i).standard_normal(V.dim)
            runs = [solve_plant(_with_B(sys, c), x0, T=1.0, dt=0.01)
                    for c in (1.0, 1e10)]
            assert np.array_equal(runs[0].x, runs[1].x)

    @pytest.fixture
    def sigma_plant(self) -> DescriptorSystem:
        # x1' = -x1 + 1e10 u and 0 = x2 + 1e10 u.
        return DescriptorSystem.from_matrices(
            np.diag([1.0, 0.0]), np.diag([-1.0, 1.0]), np.array([[1e10], [1e10]]),
            np.zeros((0, 2)), np.array([[1.0, 0.0]]))

    def test_nilpotent_inconsistent_x0_refused(self, sigma_plant):
        with pytest.raises(SimulationError, match="nilpotent"):
            solve_plant(sigma_plant, [1.0, 5.0], T=1.0)

    def test_nilpotent_consistent_x0_accepted(self, sigma_plant):
        u = InputSignal.polynomial([[2.0, 0.3]])
        tr = solve_plant(sigma_plant, [1.0, -2e10], u=u, T=1.0)
        assert np.allclose(tr.x[1], -1e10 * (2.0 + 0.3 * tr.t), rtol=1e-12, atol=0)

    def test_overdetermined_inconsistent_x0_refused(self):
        # x' = -x in R^2 and the row 0 = x1 + x2 + 1e10 u.
        sys = DescriptorSystem.from_matrices(
            np.vstack([np.eye(2), np.zeros((1, 2))]),
            np.vstack([-np.eye(2), np.ones((1, 2))]), np.array([[0.0], [0.0], [1e10]]),
            np.zeros((0, 2)), np.array([[1.0, 0.0]]))
        with pytest.raises(SimulationError, match="overdetermined-block"):
            solve_plant(sys, [1.0, 5.0], T=1.0)


class TestSmallNilpotentBlock:
    """1e-3 N_5 x' = x + e_5 u with u = sin(1000 t): a chain of index 5 whose
    E is small, so that x_1 = -1e-12 u^(4) is as large as u."""

    @pytest.fixture
    def chain_plant(self) -> DescriptorSystem:
        return DescriptorSystem.from_matrices(
            1e-3 * np.eye(5, k=1), np.eye(5), np.eye(5)[:, 4:], np.zeros((0, 5)),
            np.eye(5)[:1])

    def test_consistent_x0_accepted(self, chain_plant):
        # x_k = -1e-3^(5-k) u^(5-k); at t = 0 only u' and u''' are nonzero.
        tr = solve_plant(chain_plant, [0.0, 1.0, 0.0, -1.0, 0.0],
                         u=InputSignal.sinusoid([1.0], 1000.0), T=0.01, dt=1e-4)
        assert np.abs(tr.x[0] + np.sin(1000 * tr.t)).max() <= 1e-12
        assert np.abs(tr.x[1] - np.cos(1000 * tr.t)).max() <= 1e-12

    def test_x0_truncated_after_three_terms_refused(self, chain_plant):
        with pytest.raises(SimulationError, match="nilpotent algebraic constraint "
                                                  "violated by 1.000e\\+00"):
            solve_plant(chain_plant, [0.0, 0.0, 0.0, -1.0, 0.0],
                        u=InputSignal.sinusoid([1.0], 1000.0), T=0.01, dt=1e-4)


class TestNonFiniteInitialState:
    """A NaN or infinite entry of x0 or w0 is refused before any step."""

    BAD = [float("nan"), float("inf"), -float("inf")]

    @pytest.fixture
    def no_integration(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("integrated a non-finite initial state")
        monkeypatch.setattr(sim, "_rk4", refuse)

    @pytest.mark.parametrize("value", BAD)
    def test_x0(self, no_integration, ex_system, ex_reference_estimator, value):
        x0 = [1.0, value, 3.0, 0.0]
        match = f"x0 entries must be finite, entry 1 is {value}"
        with pytest.raises(SimulationError, match=match):
            _PlantSolver(ex_system).initial_dynamic_state(x0, [ramp().eval(0.0)], None)
        with pytest.raises(SimulationError, match=match):
            solve_plant(ex_system, x0)
        with pytest.raises(SimulationError, match=match):
            simulate(ex_system, ex_reference_estimator, x0, [4.0, 5.0])

    @pytest.mark.parametrize("value", BAD)
    def test_w0(self, no_integration, ex_system, ex_reference_estimator, value):
        w0 = [4.0, value]
        match = f"w0 entries must be finite, entry 1 is {value}"
        with pytest.raises(SimulationError, match=match):
            simulate(ex_system, ex_reference_estimator, [1.0, 2.0, 3.0, 0.0], w0)
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(SimulationError, match=match):
            run_estimator(ex_reference_estimator, t, np.zeros((1, 11)),
                          np.zeros((1, 11)), w0)

    def test_finite_w0_that_overflows(self, ex_system, ex_reference_estimator):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationError,
                               match="w overflows in the RK4 step from t = 0$"):
                simulate(ex_system, ex_reference_estimator, [1.0, 2.0, 3.0, 0.0],
                         [1e308, 5.0], u=ramp(), T=1.0)


    def test_finite_x0_that_overflows_never_starts_the_estimator(
            self, ex_system, ex_reference_estimator):
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # no numpy warning on the way
            with pytest.raises(SimulationError,
                               match="^x overflows in the RK4 step from t = 0$"):
                simulate(ex_system, ex_reference_estimator, [1e308, 2.0, 3.0, 0.0],
                         [4.0, 5.0], u=ramp(), T=1.0)

    def test_overflow_names_the_step(self, ex_system):
        # x1' = x1 from 1e300: the four slopes of a step sum to about 6 x1,
        # which passes the largest double, 1.8e308, once x1 reaches 3e307,
        # at t = ln(3e7) = 17.2.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationError,
                               match=r"^x overflows in the RK4 step from t = 17\.215$"):
                solve_plant(ex_system, [1e300, 2.0, 3.0, 0.0], T=30.0)


class TestTimeGrid:
    BAD = [(0.0, 0.1), (-1.0, 0.1), (float("inf"), 0.1), (float("nan"), 0.1),
           (1.0, 0.0), (1.0, -0.1), (1.0, float("nan")), (1.0, float("inf"))]

    @pytest.mark.parametrize("T, dt", BAD)
    def test_solve_plant_refuses(self, ex_system, T, dt):
        with pytest.raises(SimulationError, match="T and dt must be finite and positive"):
            solve_plant(ex_system, [1.0, 2.0, 3.0, 0.0], T=T, dt=dt)

    @pytest.mark.parametrize("T, dt", BAD)
    def test_simulate_refuses(self, ex_system, ex_reference_estimator, T, dt):
        with pytest.raises(SimulationError, match="T and dt must be finite and positive"):
            simulate(ex_system, ex_reference_estimator, [1.0, 2.0, 3.0, 0.0],
                     [4.0, 5.0], T=T, dt=dt)

    # Steps beyond any array size, and a step count that overflows; neither
    # case allocates anything.
    HUGE = [(1e300, 1e-3), (1e300, 1e-300)]

    @pytest.mark.parametrize("T, dt", HUGE)
    def test_step_count_that_does_not_fit(self, ex_system, T, dt):
        with pytest.raises(SimulationError, match="do not fit in memory"):
            _time_grid(T, dt)
        with pytest.raises(SimulationError, match="do not fit in memory"):
            solve_plant(ex_system, [1.0, 2.0, 3.0, 0.0], T=T, dt=dt)

    def test_valid_grids(self):
        assert np.array_equal(_time_grid(1.0, 0.25), [0.0, 0.25, 0.5, 0.75, 1.0])
        # A step longer than the horizon still takes one step.
        assert np.array_equal(_time_grid(0.1, 0.25), [0.0, 0.25])


class TestIntegratorOrder:
    def test_rk4_halving_factor(self, ex_system):
        u = InputSignal.sinusoid([1.0], 1.0)
        x0 = [1.0, 2.0, 3.0, 0.0]
        ref = solve_plant(ex_system, x0, u=u, T=2.0, dt=0.0025)
        coarse = solve_plant(ex_system, x0, u=u, T=2.0, dt=0.02)
        fine = solve_plant(ex_system, x0, u=u, T=2.0, dt=0.01)
        err_c = np.abs(coarse.x[:, -1] - ref.x[:, -1]).max()
        err_f = np.abs(fine.x[:, -1] - ref.x[:, -1]).max()
        assert err_f > 0
        assert 8.0 <= err_c / err_f <= 32.0


class TestEstimatorRuns:
    def test_zero_estimator_outputs_zero(self, ex_system):
        est = EstimatorRealization(
            N=-np.eye(2), H=np.zeros((2, 2)),
            R=np.array([[1.0, 1.0]]), M=np.zeros((1, 2)))
        tr = simulate(ex_system, est, [0.0, -1.0, 1.0, 0.0], [0.0, 0.0],
                      T=5.0)
        assert np.abs(tr.zhat).max() == 0.0
        assert np.abs(tr.e + tr.z).max() < 1e-12

    def test_tracking_ramp_error_closed_form(self, ex_system,
                                             ex_reference_estimator):
        tr = simulate(ex_system, ex_reference_estimator,
                      [1.0, 2.0, 3.0, 0.0], [4.0, 5.0], u=ramp())
        ref = (4 + 2 * tr.t) * np.exp(-tr.t)
        assert np.abs(tr.e[0] - ref).max() < 1e-6
        assert np.abs(tr.e[0, tr.t >= 25.0][0]) < 1e-8

    def test_sign_change_error_closed_form(self, ex_system,
                                           ex_reference_estimator):
        tr = simulate(ex_system, ex_reference_estimator,
                      [1.0, 2.0, 3.0, 0.0], [4.0, 2.0], u=ramp())
        ref = (1 - tr.t) * np.exp(-tr.t)
        assert np.abs(tr.e[0] - ref).max() < 1e-6
        assert abs(tr.e[0, 0] - 1.0) < 1e-12
        # zero crossing at t = 1 within one step
        sign = np.sign(tr.e[0])
        crossings = tr.t[1:][sign[1:] * sign[:-1] < 0]
        dt = tr.t[1] - tr.t[0]
        assert len(crossings) == 1 and abs(crossings[0] - 1.0) <= 2 * dt

    def test_autonomous_witness_peak(self, ex_system, ex_reference_estimator):
        tr = simulate(ex_system, ex_reference_estimator,
                      [0.0, -1.0, 1.0, 0.0], [0.0, 0.0], T=10.0)
        assert abs(np.abs(tr.z - tr.zhat)[0, 1:]).max() == pytest.approx(
            np.exp(-1.0), abs=1e-6)

    def test_sampled_path_matches_joint_run(self, ex_system,
                                            ex_reference_estimator):
        joint = simulate(ex_system, ex_reference_estimator,
                         [1.0, 2.0, 3.0, 0.0], [4.0, 5.0], u=ramp(), T=10.0)
        plant = solve_plant(ex_system, [1.0, 2.0, 3.0, 0.0], u=ramp(), T=10.0)
        u_samples = ramp().eval(plant.t)
        w, zhat = run_estimator(ex_reference_estimator, plant.t,
                                u_samples, plant.y, [4.0, 5.0])
        e = estimation_error(ex_system, ex_reference_estimator,
                             plant.x, u_samples, w)
        assert np.abs(e - joint.e).max() < 1e-6

    def test_soundness_replay_random_draws(self, ex_system,
                                           ex_reference_estimator):
        rng = np.random.default_rng(42)
        for _ in range(20):
            x0 = np.append(rng.uniform(-5, 5, 3), 0.0)
            w0 = rng.uniform(-5, 5, 2)
            tr = simulate(ex_system, ex_reference_estimator, x0, w0,
                          u=ramp(), dt=1e-2)
            assert np.linalg.norm(tr.e[:, -1]) < 1e-6

    def test_grid_mismatch_rejected(self, ex_reference_estimator):
        t = np.linspace(0, 1, 11)
        with pytest.raises(SimulationError, match="grid"):
            run_estimator(ex_reference_estimator, t,
                          np.zeros((1, 5)), np.zeros((1, 11)), [0.0, 0.0])

    def test_w0_length_checked(self, ex_system, ex_reference_estimator):
        with pytest.raises(SimulationError, match="w0"):
            simulate(ex_system, ex_reference_estimator,
                     [1.0, 2.0, 3.0, 0.0], [4.0], u=ramp(), T=1.0)


class TestOnePass:
    """A run is one RK4 pass.  The plant part of a joint run is the
    plant-only run, bit for bit, on these plants.  The joint run's plant rows also sum the zeros of the
    estimator columns, so on other plants a matrix-vector product of another
    length may associate its sums differently in the last bits."""

    @staticmethod
    def assert_same_plant(sys, est, x0, u, **kwargs):
        joint = simulate(sys, est, x0, np.ones(est.s), u=u, T=3.0, **kwargs)
        plant = solve_plant(sys, x0, u=u, T=3.0, **kwargs)
        for name in ("t", "x", "y", "z"):
            assert np.array_equal(getattr(joint, name), getattr(plant, name))
        assert joint.meta == plant.meta

    def test_worked_example_under_ramp(self, ex_system, ex_reference_estimator):
        self.assert_same_plant(ex_system, ex_reference_estimator,
                               [1.0, 2.0, 3.0, 0.0], ramp())

    def test_overdetermined_plant(self, eta_plant):
        est = EstimatorRealization(N=-np.eye(1), H=np.ones((1, 1)),
                                   R=np.ones((1, 1)), M=np.zeros((1, 1)))
        self.assert_same_plant(eta_plant, est, [1.0],
                               InputSignal.polynomial([[1.0]]))

    def test_underdetermined_plant(self, eps_plant):
        est = EstimatorRealization(N=-np.eye(1), H=np.zeros((1, 0)),
                                   R=np.ones((1, 1)), M=np.zeros((1, 0)))
        self.assert_same_plant(eps_plant, est, [1.0, 2.0], None,
                               eps_signal=InputSignal.sinusoid([1.0], 2.0))

    @pytest.mark.parametrize("joint", [False, True], ids=["solve_plant", "simulate"])
    def test_one_rk4_call_per_run(self, monkeypatch, ex_system,
                                  ex_reference_estimator, joint):
        calls = []
        def counted(*args, _rk4=sim._rk4, **kwargs):
            calls.append(args[2].size)          # the dimension of v0
            return _rk4(*args, **kwargs)
        monkeypatch.setattr(sim, "_rk4", counted)
        x0 = [1.0, 2.0, 3.0, 0.0]
        if joint:
            simulate(ex_system, ex_reference_estimator, x0, [4.0, 5.0], u=ramp(),
                     T=0.5)
        else:
            solve_plant(ex_system, x0, u=ramp(), T=0.5)
        assert calls == [6 if joint else 4]


def _per_stage_run(sys, est, x0, w0, u, T, dt, eps_signal=None, joint=True):
    """The joint RK4 run evaluating u, its derivatives and the free signal at
    each stage time as it comes; returns (x, w).  Each stage forms the slope
    as ``simulate`` does, from the joint matrix [[F, 0], [H_y C, N]] and the
    forcing g = (Gu u + Gfree f, (H_u + H_y D) u + H_y C alg); with
    ``joint=False`` it forms y = C x + D u and then H (u; y) instead."""
    solver = _PlantSolver(sys)
    orders = range(max(1, len(solver.sigma_maps)))
    X0, free = solver.initial_dynamic_state(
        x0, [u.eval(0.0, order=i) for i in orders], eps_signal)
    t = _time_grid(T, dt)
    n = sys.n
    Hu, Hy = est.H[:, :sys.l], est.H[:, sys.l:]
    HyC = Hy @ sys.C
    J = np.block([[solver.F, np.zeros((n, est.s))], [HyC, est.N]])

    def algebraic(tk):
        """u at tk and the algebraic part of x there, one product per term."""
        jet = [u.eval(tk, order=i) for i in orders]
        out = np.zeros(n)
        for smap, ui in zip(solver.sigma_maps, jet):
            if smap.size:
                out += smap @ ui
        if solver.n_free:
            out += solver.free_map @ np.asarray(free(tk), dtype=float)
        return jet[0], out

    def rhs(tk, state):
        uk, alg = algebraic(tk)
        f = np.asarray(free(tk), dtype=float) if solver.n_free else np.zeros(0)
        if joint:
            g = solver.Gu @ uk + solver.Gfree @ f
            return J @ state + np.concatenate([g, (Hu + Hy @ sys.D) @ uk + HyC @ alg])
        Xk, wk = state[:n], state[n:]
        yk = sys.C @ (Xk + alg) + sys.D @ uk
        return np.concatenate([solver.F @ Xk + solver.Gu @ uk + solver.Gfree @ f,
                               est.N @ wk + est.H @ np.concatenate([uk, yk])])

    v = np.concatenate([X0, np.asarray(w0, dtype=float)])
    traj = [v]
    for k in range(len(t) - 1):
        h, tk = t[k + 1] - t[k], t[k]
        k1 = rhs(tk, v)
        k2 = rhs(tk + h / 2, v + h / 2 * k1)
        k3 = rhs(tk + h / 2, v + h / 2 * k2)
        k4 = rhs(tk + h, v + h * k3)
        v = v + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        traj.append(v)
    traj = np.array(traj).T
    x = traj[:n] + np.array([algebraic(tk)[1] for tk in t]).T
    return x, traj[n:]


def _assert_per_stage_run(tr, *args, **kwargs):
    """``tr``'s x and w are the joint-matrix per-stage run's bit for bit, and
    within 1e-14 relative of the run that evaluates y and H (u; y)."""
    x, w = _per_stage_run(*args, **kwargs)
    assert np.array_equal(tr.x, x)
    assert np.array_equal(tr.w, w)
    for new, old in zip((x, w), _per_stage_run(*args, joint=False, **kwargs)):
        assert np.abs(new - old).max() <= 1e-14 * np.abs(old).max()


def _dense_case():
    """A 6-state plant with two inputs, two outputs and feedthrough, and an
    order-3 estimator reading all four channels: sums of up to six products,
    whose association shows in the last bits.  Returns (sys, est, x0, w0)
    with x0 in V*."""
    plant = lifted_system(6, 3)
    rng = np.random.default_rng(3)
    sys = DescriptorSystem.from_matrices(plant.E, plant.A, plant.B, plant.C,
                                         plant.K, D=rng.standard_normal((2, 2)))
    est = EstimatorRealization(N=rng.standard_normal((3, 3)) - 3 * np.eye(3),
                               H=rng.standard_normal((3, 4)),
                               R=np.ones((2, 3)), M=np.zeros((2, 4)))
    x0 = wong_limits(sys.E, sys.A).V_star.basis @ rng.standard_normal(4)
    return sys, est, x0, rng.standard_normal(3)


def _per_step_estimator_run(est, t, v, w0):
    """run_estimator's RK4 on the samples v of (u; y), one step at a time
    with the midpoint input averaged in the step; returns w."""
    w = [np.asarray(w0, dtype=float)]
    for k in range(len(t) - 1):
        h, wk = t[k + 1] - t[k], w[-1]
        va, vb = v[:, k], v[:, k + 1]
        vm = (va + vb) / 2
        k1 = est.N @ wk + est.H @ va
        k2 = est.N @ (wk + h / 2 * k1) + est.H @ vm
        k3 = est.N @ (wk + h / 2 * k2) + est.H @ vm
        k4 = est.N @ (wk + h * k3) + est.H @ vb
        w.append(wk + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4))
    return np.array(w).T


def _reference_rk4(M, g, v0, t):
    """The textbook RK4 step of ``sim._rk4``, one slope at a time with a new
    array for every intermediate; returns (dim, len(t))."""
    out = np.empty((v0.size, len(t)))
    out[:, 0] = v = v0.astype(float)
    for k in range(len(t) - 1):
        h = t.item(k + 1) - t.item(k)
        k1 = M @ v + g[2 * k]
        k2 = M @ (v + h / 2 * k1) + g[2 * k + 1]
        k3 = M @ (v + h / 2 * k2) + g[2 * k + 1]
        k4 = M @ (v + h * k3) + g[2 * k + 2]
        v = v + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[:, k + 1] = v
    return out


class TestSharedPlantSolver:
    def test_one_qkf_per_plant(self, monkeypatch, fresh_plants, ex_system,
                               ex_reference_estimator):
        # Two runs on one system and one on a system with an equal plant and
        # another K: one decomposition of (E, A).
        calls = []
        def counted(*args, _qkf=sim.qkf, **kwargs):
            calls.append(args)
            return _qkf(*args, **kwargs)
        monkeypatch.setattr(sim, "qkf", counted)
        twin = DescriptorSystem.from_matrices(ex_system.E, ex_system.A, ex_system.B,
                                              ex_system.C, 2.0 * ex_system.K,
                                              D=ex_system.D)
        first, again, other = (
            simulate(sys, ex_reference_estimator, [1.0, 2.0, 3.0, 0.0], [4.0, 5.0],
                     u=ramp(), T=0.5) for sys in (ex_system, ex_system, twin))
        assert len(calls) == 1
        assert np.array_equal(first.e, again.e) and np.array_equal(first.x, other.x)


class TestKernel:
    """``sim._rk4`` works in preallocated rows; its bits are the textbook
    step's, and its memory is a few times its output."""

    @staticmethod
    def case(dim, n_terms, per_stage, t, seed=0):
        """M, a forcing table g on the stage times of t summed from
        ``n_terms`` terms in order, the same table with each row formed on
        its own, and v0.  A term is a random table ("shared"), or G U, a
        matrix times one row of inputs per stage time ("per-stage"), formed
        by ``sim._stacked`` in g and by one matrix-vector product per row, as
        a per-stage evaluation makes it, in the other."""
        # Entries over six decades, so that a change of association shows.
        rng = np.random.default_rng([dim, n_terms, per_stage, seed])
        def draw(*shape):
            return rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)

        M = draw(dim, dim) / 1e3 - np.eye(dim)
        rows = 2 * len(t) - 1
        g, per_row = np.zeros((rows, dim)), np.zeros((rows, dim))
        for _ in range(n_terms):
            if per_stage:
                G, U = draw(dim, 3), draw(rows, 3)
                g += sim._stacked(G, U)
                per_row += np.array([G @ r for r in U]).reshape(rows, dim)
            else:
                term = draw(rows, dim)
                g += term
                per_row += term
        return M, g, per_row, draw(dim)

    @pytest.mark.parametrize("grid", [(0.3, 0.1), (2.0, 0.01)],
                             ids=["0.3-by-0.1", "2-by-0.01"])
    @pytest.mark.parametrize("per_stage", [False, True], ids=["shared", "per-stage"])
    @pytest.mark.parametrize("n_terms", [0, 1, 2])
    @pytest.mark.parametrize("dim", range(6))
    def test_same_bits_as_textbook_step(self, dim, n_terms, per_stage, grid):
        t = _time_grid(*grid)
        M, g, per_row, v0 = self.case(dim, n_terms, per_stage, t)
        assert np.array_equal(g, per_row)
        out = sim._rk4(M, g, v0, t, ("v",) * dim)
        ref = _reference_rk4(M, per_row, v0, t)
        assert out.shape == ref.shape and out.flags.c_contiguous
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("per_stage", [False, True], ids=["shared", "per-stage"])
    def test_short_forcing_or_stages_is_refused(self, per_stage):
        t = _time_grid(0.3, 0.1)
        M, g, _, v0 = self.case(2, 1, per_stage, t)
        with pytest.raises(ValueError, match="too short for 3 steps"):
            sim._rk4(M, g[:-1], v0, t, ("v",) * 2)

    def test_grid_steps_differ_in_last_bits(self):
        h = np.diff(_time_grid(0.3, 0.1))
        assert h[0] == h[1] != h[2]

    def test_peak_memory_of_a_long_run(self):
        # The loop holds one row of each array at a time; row views built
        # for all steps at once would cost several times the output.
        steps, dim = 20_000, 4
        t = _time_grid(steps * 1e-3, 1e-3)
        M, g, _, v0 = self.case(dim, 1, False, t)
        tracemalloc.start()
        try:
            out = sim._rk4(M, g, v0, t, ("v",) * dim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (dim, steps + 1)
        assert peak < 4 * out.nbytes


class TestInputSampling:
    def test_sampled_estimator_run_matches_per_step_loop(
            self, ex_system, ex_reference_estimator):
        plant = solve_plant(ex_system, [1.0, 2.0, 3.0, 0.0], u=ramp(),
                            T=2.0, dt=0.01)
        u_samples = ramp().eval(plant.t)
        w, _ = run_estimator(ex_reference_estimator, plant.t, u_samples,
                             plant.y, [4.0, 5.0])
        v = np.vstack([u_samples, plant.y])
        assert np.array_equal(
            w, _per_step_estimator_run(ex_reference_estimator, plant.t, v,
                                       [4.0, 5.0]))

    def test_stage_samples_match_per_stage_evaluation(self, sigma_violating_system):
        # x1 = -u' reads the first input derivative at every stage.
        u = InputSignal.polynomial([[0.5, -1.0, 0.75, 0.25]])
        est = EstimatorRealization(N=np.array([[-1.0]]), H=np.array([[1.0]]),
                                   R=np.array([[1.0]]), M=np.array([[0.0]]))
        x0, w0 = [1.0, -0.5], [0.3]
        tr = simulate(sigma_violating_system, est, x0, w0, u=u, T=2.0, dt=0.01)
        _assert_per_stage_run(tr, sigma_violating_system, est, x0, w0, u, 2.0, 0.01)

    # In the cases below the estimator reads y, so H (u; y) at every stage
    # enters the comparison.  Long steps keep a last-bit difference of a
    # slope from vanishing in v + h/2 k.
    def test_free_signal_matches_per_stage_evaluation(self, eps_plant):
        # x1' = -0.5 x1 + x2 + 0.8 u with x2 free, measured with feedthrough.
        sys = DescriptorSystem.from_matrices(eps_plant.E, [[-0.5, 1.0]], [[0.8]],
                                             [[1.0, -0.5]], eps_plant.K, D=[[0.3]])
        est = EstimatorRealization(N=-np.eye(1), H=np.array([[0.7, -0.4]]),
                                   R=np.ones((1, 1)), M=np.zeros((1, 2)))
        u, free = ramp(), InputSignal.sinusoid([1.5], 2.0, 0.3)
        tr = simulate(sys, est, [1.0, 2.0], [0.5], u=u, T=4.0, dt=0.1,
                      eps_signal=free)
        _assert_per_stage_run(tr, sys, est, [1.0, 2.0], [0.5], u, 4.0, 0.1,
                              eps_signal=free)

    def test_overdetermined_input_matches_per_stage_evaluation(self, eta_plant):
        # The ramp leaves the consistency row 0 = x - u after t = 0; the
        # comparison is of the arithmetic, which reports that residual.
        sys = DescriptorSystem.from_matrices(eta_plant.E, eta_plant.A, eta_plant.B,
                                             [[2.0]], eta_plant.K)
        est = EstimatorRealization(N=np.array([[-2.0]]), H=np.array([[0.7, -0.4]]),
                                   R=np.ones((1, 1)), M=np.zeros((1, 2)))
        u = InputSignal.polynomial([[1.0, 0.5, -0.25]])
        tr = simulate(sys, est, [1.0], [0.3], u=u, T=4.0, dt=0.1)
        _assert_per_stage_run(tr, sys, est, [1.0], [0.3], u, 4.0, 0.1)

    def test_dense_system_matches_per_stage_evaluation(self):
        sys, est, x0, w0 = _dense_case()
        # Flat to third order at t = 0, so x0 in V* is consistent.
        u = InputSignal.polynomial([[0.0, 0.0, 0.0, 0.5], [0.0, 0.0, 0.0, -1.0]])
        tr = simulate(sys, est, x0, w0, u=u, T=1.0, dt=0.01)
        _assert_per_stage_run(tr, sys, est, x0, w0, u, 1.0, 0.01)

    def test_sinusoid_estimator_run_matches_per_step_loop(self):
        sys, est, x0, w0 = _dense_case()
        u = InputSignal.sinusoid([1.0, -0.5], 1.3)     # u(0) = 0
        plant = solve_plant(sys, x0, u=u, T=4.0, dt=0.1)
        u_samples = u.eval(plant.t)
        w, _ = run_estimator(est, plant.t, u_samples, plant.y, w0)
        v = np.vstack([u_samples, plant.y])
        assert np.array_equal(w, _per_step_estimator_run(est, plant.t, v, w0))

    def test_eval_calls_bounded_by_stages(self, monkeypatch, ex_system,
                                          ex_reference_estimator):
        calls = []
        original = InputSignal.eval

        def counted(self, t, order=0):
            calls.append(order)
            return original(self, t, order)

        monkeypatch.setattr(InputSignal, "eval", counted)
        steps = 400
        tr = simulate(ex_system, ex_reference_estimator, [1.0, 2.0, 3.0, 0.0],
                      [4.0, 5.0], u=ramp(), T=4.0, dt=4.0 / steps)
        assert len(tr.t) == steps + 1
        assert 0 < len(calls) <= 4 * steps + 8


class TestFormedOnce:
    def test_input_eval_calls_do_not_grow_with_steps(
            self, monkeypatch, sigma_violating_system):
        # x1 = -u' reads the input and its first derivative.
        calls = []
        original = InputSignal.eval

        def counted(self, t, order=0):
            calls.append((order, np.shape(t)))
            return original(self, t, order)

        monkeypatch.setattr(InputSignal, "eval", counted)
        est = EstimatorRealization(N=np.array([[-1.0]]), H=np.array([[1.0]]),
                                   R=np.array([[1.0]]), M=np.array([[0.0]]))
        u = InputSignal.polynomial([[0.5, -1.0, 0.75, 0.25]])
        for steps in (10, 1000):
            calls.clear()
            simulate(sigma_violating_system, est, [1.0, -0.5], [0.3], u=u,
                     T=1.0, dt=1.0 / steps)
            # One call per derivative order, on the 2 steps + 1 stage times.
            assert calls == [(0, (2 * steps + 1,)), (1, (2 * steps + 1,))]

    @pytest.mark.parametrize("joint", [False, True], ids=["solve_plant", "simulate"])
    def test_free_signal_called_once_on_stage_times(self, eps_plant, joint):
        calls = []
        free = InputSignal.sinusoid([1.5], 2.0, 0.3)

        def counted(t):
            calls.append(np.shape(t))
            return free(t)

        steps = 40
        if joint:
            est = EstimatorRealization(N=-np.eye(1), H=np.zeros((1, 0)),
                                       R=np.ones((1, 1)), M=np.zeros((1, 0)))
            simulate(eps_plant, est, [1.0, 2.0], [0.5], T=4.0, dt=4.0 / steps,
                     eps_signal=counted)
        else:
            solve_plant(eps_plant, [1.0, 2.0], T=4.0, dt=4.0 / steps,
                        eps_signal=counted)
        assert calls == [(2 * steps + 1,)]


class TestDecayMetrics:
    def test_exact_zero_error(self, ex_system):
        t = np.linspace(0, 10, 101)
        tr = SimulationTrace(t=t, x=np.zeros((4, 101)), y=np.zeros((1, 101)),
                             z=np.zeros((1, 101)), e=np.zeros((1, 101)))
        dm = decay_metrics(tr)
        assert dm.convergent
        assert dm.fitted_rate is None

    def test_fitted_rate_on_analytic_error(self, ex_system,
                                           ex_reference_estimator):
        tr = simulate(ex_system, ex_reference_estimator,
                      [1.0, 2.0, 3.0, 0.0], [4.0, 5.0], u=ramp())
        dm = decay_metrics(tr)
        assert dm.convergent
        assert -1.1 <= dm.fitted_rate <= -0.9
        # sup_tail is non-increasing by construction
        assert np.all(np.diff(dm.sup_tail) <= 1e-15)

    def test_non_decaying_error_flagged(self):
        t = np.linspace(0, 30, 3001)
        e = np.cos(t)[None, :]
        tr = SimulationTrace(t=t, x=np.zeros((1, 3001)),
                             y=np.zeros((0, 3001)),
                             z=np.zeros((1, 3001)), e=e)
        dm = decay_metrics(tr)
        assert not dm.convergent

    def test_missing_error_rejected(self):
        t = np.linspace(0, 1, 11)
        tr = SimulationTrace(t=t, x=np.zeros((1, 11)), y=np.zeros((0, 11)),
                             z=np.zeros((1, 11)))
        with pytest.raises(SimulationError):
            decay_metrics(tr)
