"""The benchmark's checkers accept correct outputs and reject corrupted ones.

    PYTHONPATH=src python3 -m pytest bench/test_bench_checks.py -q
"""

from pathlib import Path
import sys
import warnings

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from nirom.integration import IntegratorSpec, integrate  # noqa: E402
from nirom.problems import get_problem  # noqa: E402
from nirom.reduction import SnapshotMatrix, pod_fit  # noqa: E402
from nirom.regressors import RegressorSpec, fit_arrays  # noqa: E402
from nirom.sampling import LhsConfig, lhs_maximin  # noqa: E402

NEWTON_TOL = 1e-9


def _be_ok(problem, X, mu, nt):
    h = problem.t_final / nt
    worst = checks.be_residual(lambda Z: problem.velocity(Z, mu), X, h).max()
    return worst <= checks.NEWTON_SLACK * NEWTON_TOL


def test_backward_euler_residual_rejects_one_perturbed_column():
    nt = 50
    mu = np.array([1.8, 0.0232])
    system = get_problem("burgers")
    X = integrate(system, system.time_grid(nt), mu,
                  IntegratorSpec("backward_euler", "newton", NEWTON_TOL)).states
    problem = checks.Burgers()
    assert _be_ok(problem, X, mu, nt)
    bad = X.copy()
    bad[:, 20] *= 1.0 + 1e-6
    assert not _be_ok(problem, bad, mu, nt)


def test_rk4_defect_rejects_one_perturbed_column():
    nt = 200
    mu = np.array([9.5, 9.5])
    system = get_problem("convdiff")
    X = integrate(system, system.time_grid(nt), mu, IntegratorSpec("rk4")).states
    problem = checks.ConvDiff()
    h = problem.t_final / nt
    vel = lambda Z: problem.velocity(Z, mu)
    assert checks.rk4_defect(vel, X, h).max() <= checks.RK4_RTOL
    bad = X.copy()
    bad[1000, 7] += 1e-6
    assert checks.rk4_defect(vel, bad, h).max() > checks.RK4_RTOL


def test_latin_check_rejects_two_points_in_one_stratum():
    lows, highs = np.array([-1.0, 0.0, 9.0]), np.array([2.0, 25.0, 10.0])
    design = lhs_maximin(LhsConfig(200, lows, highs, 8, 3))
    assert checks.latin_strata_ok(design, lows, highs)
    bad = design.copy()
    # move row 0's second coordinate into the stratum of row 1
    width = (highs[1] - lows[1]) / 200
    stratum = np.floor((bad[1, 1] - lows[1]) / width)
    bad[0, 1] = lows[1] + (stratum + 0.5) * width
    assert not checks.latin_strata_ok(bad, lows, highs)


def test_pod_check_rejects_a_scaled_column():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((60, 8)) @ rng.standard_normal((8, 40))
    data += 1e-3 * rng.standard_normal(data.shape)
    snaps = SnapshotMatrix(data, ["r"] * 40, np.linspace(0, 1, 40), np.zeros((40, 1)))
    basis = pod_fit(snaps, energy=0.9999, max_modes=20, center=True)

    def ok(V):
        d = checks.pod_defects(data, V, basis.offset, basis.singular_values, 0.9999, 20)
        return (d["ortho"] <= 1e-10 and d["discarded"] <= 1e-9 and d["energy_total"] <= 1e-9
                and V.shape[1] == d["wanted_n"])

    assert ok(basis.V)
    bad = basis.V.copy()
    bad[:, 2] *= 1.001
    assert not ok(bad)


def _coordinate_ascent(K, y, eps, c_box, passes):
    """The bias-free SVR dual solved by the same clipped coordinate update,
    without a pass cap short of convergence."""
    beta = np.zeros(y.size)
    for _ in range(passes):
        for i in range(y.size):
            z = y[i] - (K[i] @ beta - K[i, i] * beta[i])
            beta[i] = np.clip(np.sign(z) * max(abs(z) - eps, 0.0) / K[i, i], -c_box, c_box)
    return beta


def test_kkt_check_accepts_hand_solved_duals():
    # K = I separates the coordinates: beta_i = clip(soft(y_i, eps), -C, C)
    y = np.array([2.0, -0.5, 0.05])
    beta = np.array([1.0, -0.4, 0.0])
    assert checks.svr_kkt_violation(np.eye(3), y, beta, 0.1, 1.0) <= 1e-15
    assert checks.svr_kkt_violation(np.eye(3), y, beta + [0, 0.05, 0], 0.1, 1.0) > 0.04

    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]])
    K = checks.kernel(pts, pts, "rbf", 1.0)
    y = np.array([0.3, -0.2, 0.7, 0.1, -0.4])
    beta = _coordinate_ascent(K, y, 0.01, 1e3, passes=20000)
    assert checks.svr_kkt_violation(K, y, beta, 0.01, 1e3) / np.abs(y).max() <= checks.KKT_RTOL


def test_kkt_check_rejects_the_capped_coordinate_ascent():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(60, 4))
    Y = np.sin(3.0 * X.sum(axis=1))[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = fit_arrays(RegressorSpec("svr", {"kernel": "poly3", "epsilon": 1e-5}),
                           X, Y, np.zeros(4), np.ones(4))
    K = checks.kernel(model.inputs_scaled, model.inputs_scaled, "poly3", 1.0)
    viol = checks.svr_kkt_violation(K, Y[:, 0], model.beta[:, 0], 1e-5, 1e3)
    assert viol / np.abs(Y).max() > checks.KKT_RTOL


def test_reference_velocities_match_the_package():
    rng = np.random.default_rng(1)
    for name, mu in (("burgers", np.array([1.7, 0.021])), ("convdiff", np.array([9.2, 9.8]))):
        system = get_problem(name)
        ours = checks.PROBLEMS[name]()
        X = 1.0 + 0.1 * rng.standard_normal((system.dim, 3))
        expected = np.column_stack([system.velocity(x, 0.0, mu) for x in X.T])
        assert np.allclose(ours.velocity(X, mu), expected, rtol=1e-13, atol=1e-13)
