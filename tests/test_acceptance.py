"""Experiment-scale scorecard for the benchmark reproduction.

Seven checks, one per reproduction target, each printing a single
PASS/FAIL line with its measurements so a full run reads as a scorecard.
The heavy shared artifacts (backward Euler corner runs, centered POD
bases, Latin-hypercube datasets, tuned fits, surrogate trajectories at
the verified step counts) are built once per problem in module-scoped
fixtures; only the timestep ladders and the fast property composite run
outside them.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from conftest import DiagonalDecay, SoftSaturation, fd_jacobian, make_dataset
from nirom.analysis import ParetoPoint, bound_value, error_series, pareto_frontier
from nirom.core import TimeGrid
from nirom.integration import IntegratorSpec, integrate, verify_timestep
from nirom.pipeline import DEFAULT_MODELS, parse_model_line
from nirom.problems import get_problem
from nirom.reduction import GalerkinROM, pod_fit
from nirom.regressors import RegressorSpec, fit as fit_regressor, fit_arrays
from nirom.regressors.validation import cross_validate
from nirom.sampling import build_training_set, joint_box, lhs_maximin, reduced_state_box
from nirom.surrogate import RegressionROM

SNAPSHOT_NT = 800
POD_ENERGY = 0.9999
POD_MAX_MODES = 20
N_TRAINING = 1000
N_VALIDATION = 500
CANDIDATE_ROUNDS = 64
NEWTON_TOL = 1e-9
FIXED_POINT_TOL = 1e-2

TEST_MU = {"burgers": (1.8, 0.0232), "convdiff": (9.5, 9.5)}

# Step counts for the comparison trajectories. The reference selection for
# Burgers under rk4 is 200, but the explicit scheme is CFL-unstable there on
# this discretization (see the criterion 1 ladder), so the comparisons run
# at the coarsest stable verified count instead.
SOLVE_NT = {
    "burgers": {"rk4": 400, "backward_euler": 800},
    "convdiff": {"rk4": 200, "backward_euler": 800},
}

# The acceptance comparisons cover the five fast families; the SVR variants
# are exercised in the unit suites but excluded here for runtime.
FAMILIES = ("knn", "sindy", "vkoga", "forest", "boosting")

LADDER_TARGETS = {
    ("burgers", "rk4"): 200,
    ("burgers", "backward_euler"): 800,
    ("convdiff", "rk4"): 200,
    ("convdiff", "backward_euler"): 800,
}
ORDER_TOL = {"rk4": 0.15, "backward_euler": 0.1}


def _verdict(num, ok, detail, capsys):
    with capsys.disabled():
        print(
            f"\n[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}",
            flush=True,
        )


def _integrator(scheme, differentiable):
    if scheme == "rk4":
        return IntegratorSpec("rk4")
    if differentiable:
        return IntegratorSpec("backward_euler", "newton", NEWTON_TOL)
    return IntegratorSpec("backward_euler", "fixed_point", FIXED_POINT_TOL)


def _best_of(model, grid, mu, spec, repeats):
    """Integrate `repeats` times, keep the fastest run (timing jitter guard)."""
    best = integrate(model, grid, mu, spec)
    for _ in range(repeats - 1):
        candidate = integrate(model, grid, mu, spec)
        if candidate.wall_time < best.wall_time:
            best = candidate
    return best


def _build_lab(problem):
    system = get_problem(problem)
    be = IntegratorSpec("backward_euler", "newton", NEWTON_TOL)
    snapshots = np.hstack([
        integrate(system, system.time_grid(SNAPSHOT_NT), mu, be).states
        for mu in system.domain.corners()
    ])
    basis = pod_fit(
        snapshots, energy=POD_ENERGY, max_modes=POD_MAX_MODES, center=True
    )
    rom = GalerkinROM(system, basis)

    state_lo, state_hi = reduced_state_box(basis, snapshots)
    lows, highs = joint_box(state_lo, state_hi, system.t_final, system.domain)
    train = build_training_set(
        rom,
        lhs_maximin(N_TRAINING, lows, highs, CANDIDATE_ROUNDS, 0),
        lows,
        highs,
    )
    valid = build_training_set(
        rom,
        lhs_maximin(N_VALIDATION, lows, highs, CANDIDATE_ROUNDS, 1),
        lows,
        highs,
    )
    models = {
        name: fit_regressor(parse_model_line(DEFAULT_MODELS[problem][name]), train)
        for name in FAMILIES
    }

    mu = np.array(TEST_MU[problem])
    runs = {}
    for scheme, count in SOLVE_NT[problem].items():
        grid = system.time_grid(count)
        fom = integrate(system, grid, mu, _integrator(scheme, True))
        galerkin = _best_of(rom, grid, mu, _integrator(scheme, True), repeats=3)
        entry = SimpleNamespace(
            fom=fom,
            galerkin=galerkin,
            galerkin_series=error_series(galerkin, fom, galerkin, basis),
            models={},
        )
        for name, model in models.items():
            surrogate = RegressionROM(system, basis, model)
            repeats = 3 if name in ("sindy", "vkoga") else 1
            traj = _best_of(
                surrogate, grid, mu, _integrator(scheme, surrogate.differentiable),
                repeats,
            )
            entry.models[name] = SimpleNamespace(
                wall=traj.wall_time, series=error_series(traj, fom, galerkin, basis)
            )
        runs[scheme] = entry
    return SimpleNamespace(
        system=system, basis=basis, rom=rom, train=train, valid=valid,
        models=models, runs=runs,
    )


@pytest.fixture(scope="module")
def burgers_lab():
    return _build_lab("burgers")


@pytest.fixture(scope="module")
def convdiff_lab():
    return _build_lab("convdiff")


def test_criterion_1_timestep_verification(capsys):
    """Ladder selections and observed orders match the reference counts."""
    parts, ok = [], True
    for (problem, scheme), target in LADDER_TARGETS.items():
        system = get_problem(problem)
        study = verify_timestep(system, scheme, np.array(TEST_MU[problem]))
        good = (
            study.selected_nt == target
            and abs(study.selected_order - study.nominal_order) <= ORDER_TOL[scheme]
        )
        ok = ok and good
        parts.append(
            f"{problem}/{scheme} Nt={study.selected_nt} "
            f"order={study.selected_order:.3f} (target Nt={target}, "
            f"order {study.nominal_order:g}+/-{ORDER_TOL[scheme]})"
        )
    detail = "; ".join(parts)
    _verdict(1, ok, detail, capsys)
    assert ok, f"timestep studies deviate from the reference selections: {detail}"


def test_criterion_2_galerkin_error_bands(burgers_lab, convdiff_lab, capsys):
    """Time-averaged Galerkin error vs the full model sits in the target bands."""
    cases = (
        ("burgers", burgers_lab, 0.0346, 2.0),
        ("convdiff", convdiff_lab, 0.0029, 3.0),
    )
    parts, ok = [], True
    for name, lab, target, factor in cases:
        measured = lab.runs["backward_euler"].galerkin_series.avg_e_fom
        lo, hi = target / factor, target * factor
        good = lo <= measured <= hi
        ok = ok and good
        parts.append(f"{name} avg e_FOM={measured:.4f} band=[{lo:.4f}, {hi:.4f}]")
    detail = "; ".join(parts)
    _verdict(2, ok, detail, capsys)
    assert ok, f"Galerkin baseline outside the target band: {detail}"


def test_criterion_3_surrogate_fidelity(burgers_lab, convdiff_lab, capsys):
    """SINDy and VKOGA error targets at the verified step counts."""
    burgers_be = burgers_lab.runs["backward_euler"]
    sindy_b = burgers_be.models["sindy"].series
    gal_e_fom = burgers_be.galerkin_series.avg_e_fom
    a_ok = (
        sindy_b.avg_e_rom <= 1e-3
        and abs(sindy_b.avg_e_fom / gal_e_fom - 1.0) <= 0.1
    )
    vkoga_c = convdiff_lab.runs["backward_euler"].models["vkoga"].series
    b_ok = vkoga_c.avg_e_rom <= 0.02
    sindy_c = convdiff_lab.runs["rk4"].models["sindy"].series
    c_ok = sindy_c.avg_e_rom <= 0.02
    ok = a_ok and b_ok and c_ok
    detail = (
        f"burgers sindy+BE e_ROM={sindy_b.avg_e_rom:.2e} (<=1e-3), "
        f"e_FOM={sindy_b.avg_e_fom:.4f} vs galerkin {gal_e_fom:.4f} (10%); "
        f"convdiff vkoga+BE e_ROM={vkoga_c.avg_e_rom:.2e} (<=0.02); "
        f"convdiff sindy+rk4 e_ROM={sindy_c.avg_e_rom:.2e} (<=0.02)"
    )
    _verdict(3, ok, detail, capsys)
    assert ok, f"surrogate fidelity targets missed: {detail}"


def test_criterion_4_sindy_vkoga_dominate(burgers_lab, convdiff_lab, capsys):
    """SINDy and VKOGA beat the Galerkin wall and the weak-trio error everywhere."""
    failures, wall_margins = [], []
    for pname, lab in (("burgers", burgers_lab), ("convdiff", convdiff_lab)):
        for scheme, entry in lab.runs.items():
            weak_best = min(
                entry.models[w].series.avg_e_rom for w in ("knn", "forest", "boosting")
            )
            for strong in ("sindy", "vkoga"):
                m = entry.models[strong]
                wall_margins.append(
                    f"{pname}/{scheme}/{strong} {m.wall:.3f}s vs "
                    f"galerkin {entry.galerkin.wall_time:.3f}s"
                )
                if not m.wall < entry.galerkin.wall_time:
                    failures.append(f"{pname}/{scheme}/{strong} wall not below galerkin")
                if not m.series.avg_e_rom < weak_best:
                    failures.append(
                        f"{pname}/{scheme}/{strong} e_ROM {m.series.avg_e_rom:.2e} "
                        f"not below weak trio best {weak_best:.2e}"
                    )
    ok = not failures
    detail = (
        "all 8 wall and 8 error comparisons hold; " + "; ".join(wall_margins)
        if ok
        else "; ".join(failures)
    )
    _verdict(4, ok, detail, capsys)
    assert ok, f"relative-ordering violations: {'; '.join(failures)}"


def test_criterion_5_weak_trio_divergence(convdiff_lab, capsys):
    """kNN/forest/boosting errors more than double over the second half."""
    entry = convdiff_lab.runs["rk4"]
    half = SOLVE_NT["convdiff"]["rk4"] // 2
    parts, ok = [], True
    for name in ("knn", "forest", "boosting"):
        series = entry.models[name].series.e_rom
        ratio = series[-1] / series[half]
        good = ratio > 2.0
        ok = ok and good
        parts.append(f"{name} e_ROM(T)/e_ROM(T/2)={ratio:.2f}")
    detail = "; ".join(parts) + " (threshold 2.0)"
    _verdict(5, ok, detail, capsys)
    assert ok, f"second-half error growth below threshold: {detail}"


@pytest.mark.filterwarnings("ignore:svr dual")
def test_criterion_6_property_composite(capsys):
    """Fast invariants that must hold without any experiment-scale run."""
    checks = []
    rng = np.random.default_rng(0)

    data = rng.standard_normal((30, 12))
    basis = pod_fit(data, energy=0.999, center=True)
    ortho_gap = np.max(np.abs(basis.V.T @ basis.V - np.eye(basis.n)))
    checks.append(("pod orthonormality", ortho_gap <= 1e-10))

    xhat = rng.standard_normal(basis.n)
    checks.append(
        ("project/lift identity",
         np.allclose(basis.project(basis.lift(xhat)), xhat, atol=1e-10))
    )

    lin = DiagonalDecay(rates=(0.7,))
    mu1 = np.array([1.0])
    h, z = 0.1, -0.07
    rk_step = integrate(
        lin, TimeGrid(0.0, h, 1), mu1, IntegratorSpec("rk4")
    ).final_state[0]
    taylor = 1.0 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
    checks.append(("rk4 taylor step", abs(rk_step - taylor) <= 1e-14))

    be_step = integrate(
        lin, TimeGrid(0.0, h, 1), mu1, IntegratorSpec("backward_euler", "newton", 1e-14)
    ).final_state[0]
    checks.append(("backward euler closed form", abs(be_step - 1.0 / 1.07) <= 1e-12))

    soft = SoftSaturation()
    soft_grid = TimeGrid(0.0, soft.t_final, 50)
    newton_run = integrate(
        soft, soft_grid, mu1, IntegratorSpec("backward_euler", "newton", 1e-12)
    )
    fixed_run = integrate(
        soft, soft_grid, mu1, IntegratorSpec("backward_euler", "fixed_point", 1e-12)
    )
    inner_gap = np.max(np.abs(newton_run.final_state - fixed_run.final_state))
    checks.append(("newton vs fixed point", inner_gap <= 1e-9))

    for pname in ("burgers", "convdiff"):
        system = get_problem(pname)
        mu = np.array(TEST_MU[pname])
        x = system.initial_state(mu) + 0.05 * rng.standard_normal(system.dim)
        analytic = system.jacobian(x, 0.1, mu).toarray()
        numeric = fd_jacobian(lambda v: np.asarray(system.velocity(v, 0.1, mu)), x)
        checks.append(
            (f"{pname} jacobian vs fd", np.max(np.abs(analytic - numeric)) <= 1e-5)
        )

    X, Y = make_dataset(n_rows=60, dim_in=3, dim_out=2, seed=1)
    z_probe = np.array([0.4, 0.5, 0.6])
    for spec in (
        RegressorSpec("sindy", {"degree": 2, "threshold": 0.0}),
        RegressorSpec("vkoga", {"gamma": 1.0, "max_centers": 25}),
        RegressorSpec("svr", {"kernel": "poly2", "epsilon": 0.01}),
        RegressorSpec("svr", {"kernel": "poly3", "epsilon": 0.01}),
        RegressorSpec("svr", {"kernel": "rbf", "epsilon": 0.01}),
    ):
        model = fit_arrays(spec, X, Y)
        gap = np.max(np.abs(model.jacobian(z_probe) - fd_jacobian(model.predict, z_probe)))
        checks.append((f"{spec.label} jacobian vs fd", gap <= 1e-5))

    memo = fit_arrays(RegressorSpec("knn", {"n_neighbors": 1}), X, Y)
    checks.append(("knn memorization", np.array_equal(memo.predict_many(X), Y)))

    x_lin = np.linspace(-1.0, 1.0, 21)[:, None]
    sindy_lin = fit_arrays(
        RegressorSpec("sindy", {"degree": 1, "threshold": 0.01}), x_lin, -2.0 * x_lin
    )
    checks.append(
        ("sindy linear recovery",
         np.allclose(sindy_lin.predict_many(x_lin), -2.0 * x_lin, atol=1e-10))
    )

    vk = fit_arrays(RegressorSpec("vkoga", {"gamma": 1.0, "max_centers": 30}), X, Y)
    checks.append(
        ("vkoga residual monotonicity",
         bool(np.all(np.diff(vk.residual_history) <= 1e-12)))
    )

    lows2, highs2 = np.array([0.0, -1.0]), np.array([2.0, 3.0])
    lhs_args = (16, lows2, highs2, 8, 5)
    pts = lhs_maximin(*lhs_args)
    strata = np.clip(
        np.floor((pts - lows2) / (highs2 - lows2) * 16).astype(int), 0, 15
    )
    latin = all(len(set(strata[:, j])) == 16 for j in range(2))
    checks.append(("latin property", latin))
    checks.append(("maximin determinism", np.array_equal(pts, lhs_maximin(*lhs_args))))

    cloud = [
        ParetoPoint(f"p{i}", t, e)
        for i, (t, e) in enumerate(
            zip(rng.uniform(0.1, 2.0, 1000), rng.uniform(1e-4, 1.0, 1000))
        )
    ]
    frontier = {p.label for p in pareto_frontier(cloud)}
    brute = {
        p.label
        for p in cloud
        if not any(
            q.time <= p.time
            and q.error <= p.error
            and (q.time < p.time or q.error < p.error)
            for q in cloud
        )
    }
    checks.append(("pareto brute force x1000", frontier == brute))

    # Constant velocity defect c on diagonal decay: both the perturbed and
    # the nominal trajectories have closed forms, the Lipschitz constant is
    # exactly mu * max(rate), and the defect norm is an exact C.
    rates, mu_val, c, T = np.array([1.0, 2.0]), 1.3, np.array([0.01, 0.01]), 1.0
    K = mu_val * rates.max()
    ts = np.linspace(0.0, T, 201)
    drift = (c / (mu_val * rates))[:, None] * (
        1.0 - np.exp(-mu_val * np.outer(rates, ts))
    )
    measured = float(np.max(np.linalg.norm(drift, axis=0)))
    bound = bound_value(K, T, 0.0, 0.0, float(np.linalg.norm(c)))
    checks.append(("lemma bound with analytic K", measured <= bound))

    failed = [name for name, good in checks if not good]
    ok = not failed
    detail = f"{len(checks) - len(failed)}/{len(checks)} properties hold"
    if failed:
        detail += f"; failing: {', '.join(failed)}"
    _verdict(6, ok, detail, capsys)
    assert ok, detail


def test_criterion_7_hyperparameter_sweeps(convdiff_lab, capsys):
    """Validation sweeps land within one grid step of the reference choices."""
    sweeps = (
        ("knn", "n_neighbors", (1, 2, 4, 8, 16), 4),
        ("forest", "n_trees", (5, 15, 45), 15),
        ("boosting", "n_learners", (10, 40, 160), 40),
    )
    parts, ok = [], True
    for family, key, grid, target in sweeps:
        specs = [RegressorSpec(family, {key: value}) for value in grid]
        report = cross_validate(specs, convdiff_lab.train, convdiff_lab.valid)
        chosen = report.chosen.spec[key]
        good = abs(grid.index(chosen) - grid.index(target)) <= 1
        ok = ok and good
        parts.append(f"{family} {key}={chosen} (target {target}, grid {list(grid)})")
    detail = "; ".join(parts)
    _verdict(7, ok, detail, capsys)
    assert ok, f"sweep selections outside one grid step: {detail}"
