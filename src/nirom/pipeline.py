"""Config-driven experiment pipeline.

Stages form a linear chain over one artifact directory:

    verify-dt -> fom-solve -> pod -> sample -> train -> rom-solve -> report

Each stage is runnable on its own against the directory and fails with a
StageError naming the stage that should have produced a missing input.
Deterministic artifacts (snapshots, bases, datasets, models, trajectories,
error tables) are separated from wall-clock records (timings.txt and the
time columns of the summary/pareto tables), so reruns with one seed are
bit-identical outside those files.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
import configparser
from dataclasses import dataclass, field
import itertools
from pathlib import Path
import time
import typing
from typing import Dict, Optional, Tuple

import numpy as np

from . import io
from .analysis import (
    FullOrderTerms,
    ParetoPoint,
    error_series,
    evaluate_bound,
    pareto_csv,
    pareto_frontier,
    runtime_ratios,
)
from .core import StageError, TimeGrid
from .integration import (
    IntegratorSpec,
    TrajectoryResult,
    integrate,
    verify_timestep,
)
from .problems import get_problem
from .reduction import GalerkinROM, ReducedBasis, pod_fit
from .regressors import (
    RegressorSpec,
    fit as fit_regressor,
    load_model,
    parse_model_line,
    save_model,
)
from .sampling import (
    DEFAULT_CANDIDATE_ROUNDS,
    DEFAULT_N_TRAINING,
    DEFAULT_N_VALIDATION,
    TrainingSet,
    build_training_set,
    joint_box,
    lhs_maximin,
    reduced_state_box,
)
from .surrogate import RegressionROM

SCHEMES = ("rk4", "backward_euler")
STAGES = ("verify-dt", "fom-solve", "pod", "sample", "train", "rom-solve", "report")

DEFAULT_TEST_MU = {"burgers": (1.8, 0.0232), "convdiff": (9.5, 9.5)}

DEFAULT_MODELS = {
    "burgers": {
        "knn": "knn n_neighbors=6",
        "sindy": "sindy degree=2 threshold=0.001",
        "vkoga": "vkoga gamma=0.002 max_centers=500",
        "forest": "forest n_trees=15",
        "boosting": "boosting n_learners=40 learning_rate=0.085 max_depth=4",
        "svr2": "svr kernel=poly2 epsilon=0.0001",
        "svr3": "svr kernel=poly3 epsilon=0.00001",
        "svrrbf": "svr kernel=rbf epsilon=0.001",
    },
    "convdiff": {
        "knn": "knn n_neighbors=4",
        "sindy": "sindy degree=2 threshold=0.001",
        "vkoga": "vkoga gamma=0.05 max_centers=500",
        "forest": "forest n_trees=15",
        "boosting": "boosting n_learners=40 learning_rate=0.085 max_depth=4",
        "svr2": "svr kernel=poly2 epsilon=0.1",
        "svr3": "svr kernel=poly3 epsilon=0.1",
        "svrrbf": "svr kernel=rbf epsilon=0.001",
    },
}


# INI section -> {key: ExperimentConfig field}. [integration] also takes
# nt_<scheme> for each scheme, and [models] maps names to model lines.
INI_KEYS = {
    "experiment": {"problem": "problem", "test_mu": "test_mu", "output": "out_dir",
                   "seed": "seed"},
    "pod": {"energy": "pod_energy", "max_modes": "pod_max_modes", "center": "pod_center"},
    "sampling": {k: k for k in ("n_training", "n_validation", "candidate_rounds")},
    "integration": {k: k for k in ("schemes", "newton_tol", "fixed_point_tol",
                                   "max_inner")},
    "pipeline": {k: k for k in ("train_workers", "solve_workers")},
}
_NT_KEYS = {f"nt_{scheme}": scheme for scheme in SCHEMES}


@dataclass
class ExperimentConfig:
    """Every knob of an experiment and its default.

    ``test_mu`` and ``out_dir`` default to the problem's DEFAULT_TEST_MU and
    runs/<problem>; an empty ``models`` means the problem's DEFAULT_MODELS.
    A value out of range raises a ValueError that names its field.
    """

    problem: str = "burgers"
    test_mu: Optional[Tuple[float, ...]] = None
    out_dir: Optional[Path] = None
    seed: int = 0
    pod_energy: float = 0.9999
    pod_max_modes: int = 20
    pod_center: bool = True
    n_training: int = DEFAULT_N_TRAINING
    n_validation: int = DEFAULT_N_VALIDATION
    candidate_rounds: int = DEFAULT_CANDIDATE_ROUNDS
    schemes: Tuple[str, ...] = SCHEMES
    nt_override: Dict[str, int] = field(default_factory=dict)
    newton_tol: float = 1e-9
    fixed_point_tol: float = 1e-2
    max_inner: int = 50
    train_workers: int = 1
    solve_workers: int = 1
    models: Dict[str, RegressorSpec] = field(default_factory=dict)

    def __post_init__(self):
        if self.problem not in DEFAULT_TEST_MU:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.test_mu is None:
            self.test_mu = DEFAULT_TEST_MU[self.problem]
        if self.out_dir is None:
            self.out_dir = Path("runs", self.problem)
        self.out_dir = Path(self.out_dir)
        self.test_mu = tuple(float(v) for v in self.test_mu)
        get_problem(self.problem).domain.check(np.array(self.test_mu))
        if not self.schemes:
            raise ValueError(f"schemes is empty: name one or more of {' '.join(SCHEMES)}")
        for scheme in (*self.schemes, *self.nt_override):
            if scheme not in SCHEMES:
                raise ValueError(f"unknown scheme {scheme!r} in schemes or nt_override")
        for name, least in (("seed", 0), ("pod_max_modes", 1), ("n_training", 1),
                            ("n_validation", 1), ("candidate_rounds", 1)):
            if not getattr(self, name) >= least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)!r}")
        if not 0.0 < self.pod_energy <= 1.0:
            raise ValueError(f"pod_energy must lie in (0, 1], got {self.pod_energy!r}")
        for scheme, nt in self.nt_override.items():
            try:  # TimeGrid checks the step count
                TimeGrid(0.0, 1.0, nt)
            except ValueError as exc:
                raise ValueError(f"nt_{scheme} = {nt}: {exc}") from None
        for tol, newton in (("newton_tol", True), ("fixed_point_tol", False)):
            try:  # IntegratorSpec checks the tolerance and max_inner
                _integrator_for(self, "backward_euler", newton)
            except ValueError as exc:
                raise ValueError(f"{tol} or max_inner: {exc}") from None
        for name in self.models:
            # names become models/<name>.txt and trajectories/<name>_<scheme>
            if not name.isidentifier() or name in ("fom", "galerkin"):
                raise ValueError(f"model name {name!r} must be an identifier other "
                                 "than fom and galerkin")
        if not self.models:
            self.models = {
                name: parse_model_line(line)
                for name, line in DEFAULT_MODELS[self.problem].items()
            }


def _parse_value(hint, text: str):
    """An INI value as a field of type `hint`: tuples are whitespace-separated
    lists and booleans take configparser's words (yes/no, true/false, 1/0)."""
    if typing.get_origin(hint) is typing.Union:  # Optional[X]
        hint = typing.get_args(hint)[0]
    if typing.get_origin(hint) is tuple:
        return tuple(typing.get_args(hint)[0](v) for v in text.split())
    if hint is bool:
        states = configparser.ConfigParser.BOOLEAN_STATES
        if text.lower() not in states:
            raise ValueError(f"not a boolean: {text!r}")
        return states[text.lower()]
    return hint(text)


def _read_ini(path) -> dict:
    """The ExperimentConfig fields an INI file sets (`%` is literal); unknown
    names and malformed files raise."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        if not parser.read(path):
            raise FileNotFoundError(f"config file {path} not found")
    except configparser.Error as exc:
        raise ValueError(f"{path}: {exc}") from None
    hints = typing.get_type_hints(ExperimentConfig)
    settings: dict = {}
    unknown = []
    for section in parser.sections():
        keys = INI_KEYS.get(section)
        if keys is None and section != "models":
            unknown.append(f"section [{section}]")
            continue
        for key, text in parser.items(section):
            try:
                if section == "models":
                    settings.setdefault("models", {})[key] = parse_model_line(text)
                elif key in keys:
                    settings[keys[key]] = _parse_value(hints[keys[key]], text)
                elif section == "integration" and key in _NT_KEYS:
                    settings.setdefault("nt_override", {})[_NT_KEYS[key]] = int(text)
                else:
                    unknown.append(f"key {key!r} in [{section}]")
            except ValueError as exc:
                raise ValueError(f"{path}: [{section}] {key}: {exc}") from None
    if unknown:
        raise ValueError(f"{path}: unknown " + ", ".join(unknown))
    return settings


def load_config(path=None, overrides: Optional[dict] = None) -> ExperimentConfig:
    """The config an INI file describes (the defaults when `path` is None);
    overrides win over file values. The file sets only the fields it names."""
    settings = _read_ini(path) if path is not None else {}
    settings.update(overrides or {})
    return ExperimentConfig(**settings)


class Artifacts:
    """Path bookkeeping plus manifest/timing accumulation for one run dir."""

    def __init__(self, out_dir: Path):
        self.root = Path(out_dir)
        for sub in ("snapshots", "basis", "training", "models", "trajectories", "reports"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)

    def path(self, *parts) -> Path:
        return self.root.joinpath(*parts)

    def require(self, relpath: str, needed_by: str, produced_by: str) -> Path:
        p = self.root / relpath
        if not p.exists():
            raise StageError(
                f"stage {needed_by} needs {relpath}; run the {produced_by} stage first"
            )
        return p

    def update_keyvalues(self, name: str, updates: dict) -> None:
        p = self.root / "reports" / name
        current = io.read_keyvalues(p) if p.exists() else {}
        current.update({k: str(v) for k, v in updates.items()})
        io.write_keyvalues(p, current)

    def manifest(self) -> dict:
        p = self.root / "reports" / "manifest.txt"
        return io.read_keyvalues(p) if p.exists() else {}

    def record(self, **updates) -> None:
        self.update_keyvalues("manifest.txt", updates)

    def record_timing(self, **updates) -> None:
        self.update_keyvalues("timings.txt", updates)

    def save_trajectory(self, name: str, result: TrajectoryResult) -> None:
        io.write_matrix(self.path("trajectories", f"{name}.txt"), result.states)
        io.write_keyvalues(
            self.path("trajectories", f"{name}.meta"),
            {
                "t0": io.format_double(result.times[0]),
                "t_final": io.format_double(result.times[-1]),
                "num_steps": result.times.size - 1,
                "scheme": result.scheme,
                "inner": result.inner or "",
                "inner_iterations": result.n_inner_total,
                "factorizations": result.n_factorizations,
            },
        )
        self.record_timing(**{f"wall_{name}": io.format_double(result.wall_time)})

    def load_trajectory(self, name: str, needed_by: str, produced_by: str) -> TrajectoryResult:
        self.require(f"trajectories/{name}.txt", needed_by, produced_by)
        states = io.read_matrix(self.path("trajectories", f"{name}.txt"))
        meta = io.read_keyvalues(self.path("trajectories", f"{name}.meta"))
        grid = TimeGrid(float(meta["t0"]), float(meta["t_final"]), int(meta["num_steps"]))
        wall = self.load_wall(name)
        return TrajectoryResult(
            grid.times(), states, wall, meta["scheme"], meta["inner"] or None,
            int(meta.get("inner_iterations", 0)), int(meta.get("factorizations", 0)),
        )

    def load_wall(self, name: str) -> float:
        p = self.root / "reports" / "timings.txt"
        if p.exists():
            timings = io.read_keyvalues(p)
            if f"wall_{name}" in timings:
                return float(timings[f"wall_{name}"])
        return float("nan")


def _selected_counts(cfg: ExperimentConfig, art: Artifacts, needed_by: str) -> Dict[str, int]:
    """Step counts of cfg.schemes plus backward_euler, which the snapshot
    solve always uses: pinned in the config or selected by verify-dt."""
    counts: Dict[str, int] = {}
    manifest = art.manifest()
    for scheme in dict.fromkeys((*cfg.schemes, "backward_euler")):
        if scheme in cfg.nt_override:
            counts[scheme] = cfg.nt_override[scheme]
            continue
        key = f"selected_nt_{scheme}"
        if key not in manifest:
            raise StageError(
                f"stage {needed_by} needs the selected step count for {scheme}; "
                f"run the verify-dt stage first or set nt_{scheme} in the config"
            )
        counts[scheme] = int(manifest[key])
    return counts


def _integrator_for(cfg: ExperimentConfig, scheme: str, differentiable: bool) -> IntegratorSpec:
    if scheme == "rk4":
        return IntegratorSpec("rk4")
    if differentiable:
        return IntegratorSpec("backward_euler", "newton", cfg.newton_tol, cfg.max_inner)
    return IntegratorSpec(
        "backward_euler", "fixed_point", cfg.fixed_point_tol, cfg.max_inner
    )


# ---------------------------------------------------------------- stages


def stage_verify_dt(cfg: ExperimentConfig, art: Artifacts) -> None:
    system = get_problem(cfg.problem)
    for scheme in cfg.schemes:
        study = verify_timestep(
            system,
            scheme,
            np.array(cfg.test_mu),
            tol=cfg.newton_tol,
            max_inner=cfg.max_inner,
        )
        study.to_csv(art.path("reports", f"convergence_{scheme}.csv"))
        if study.selected_nt is None:
            raise StageError(
                f"stage verify-dt: no step count reached the nominal order for {scheme}"
            )
        art.record(
            **{
                f"selected_nt_{scheme}": study.selected_nt,
                f"selected_order_{scheme}": io.format_double(study.selected_order),
                f"study_reliable_{scheme}": int(study.reliable),
            }
        )


def stage_fom_solve(cfg: ExperimentConfig, art: Artifacts) -> None:
    system = get_problem(cfg.problem)
    counts = _selected_counts(cfg, art, "fom-solve")
    nt_be = counts["backward_euler"]
    be_spec = _integrator_for(cfg, "backward_euler", True)

    corners = system.domain.corners()
    for i, mu in enumerate(corners):
        result = integrate(system, system.time_grid(nt_be), mu, be_spec)
        io.write_matrix(art.path("snapshots", f"corner_{i}.txt"), result.states)
        io.write_keyvalues(
            art.path("snapshots", f"corner_{i}.meta"),
            {
                "mu": " ".join(io.format_double(v) for v in mu),
                "num_steps": nt_be,
                "inner_iterations": result.n_inner_total,
                "factorizations": result.n_factorizations,
            },
        )
    art.record(n_corner_runs=len(corners), snapshot_nt=nt_be)

    mu = np.array(cfg.test_mu)
    for scheme in cfg.schemes:
        spec = _integrator_for(cfg, scheme, True)
        result = integrate(system, system.time_grid(counts[scheme]), mu, spec)
        art.save_trajectory(f"fom_{scheme}", result)


def _load_snapshots(art: Artifacts, needed_by: str):
    """The states of every corner run that fom-solve wrote, side by side in
    run order, and the number of runs. The per-run arrays are dropped once
    stacked."""
    art.require("snapshots/corner_0.txt", needed_by, "fom-solve")
    corners = []
    for i in itertools.count():
        path = art.path("snapshots", f"corner_{i}.txt")
        if not path.exists():
            return np.hstack(corners), len(corners)
        corners.append(io.read_matrix(path))


def stage_pod(cfg: ExperimentConfig, art: Artifacts) -> None:
    snapshots, n_runs = _load_snapshots(art, "pod")
    basis = pod_fit(
        snapshots,
        energy=cfg.pod_energy,
        max_modes=cfg.pod_max_modes,
        center=cfg.pod_center,
    )
    basis.save(
        art.path("basis", "V.txt"),
        art.path("basis", "meta.txt"),
        {
            "energy": io.format_double(cfg.pod_energy),
            "source_runs": " ".join(f"corner_{j}" for j in range(n_runs)),
        },
    )
    art.record(pod_n=basis.n)


def _load_basis(art: Artifacts, needed_by: str) -> ReducedBasis:
    art.require("basis/V.txt", needed_by, "pod")
    return ReducedBasis.load(art.path("basis", "V.txt"), art.path("basis", "meta.txt"))


def stage_sample(cfg: ExperimentConfig, art: Artifacts) -> None:
    system = get_problem(cfg.problem)
    basis = _load_basis(art, "sample")
    rom = GalerkinROM(system, basis)

    state_lo, state_hi = reduced_state_box(basis, _load_snapshots(art, "sample")[0])
    lows, highs = joint_box(state_lo, state_hi, system.t_final, system.domain)

    for tag, count, seed in (
        ("train", cfg.n_training, cfg.seed),
        ("valid", cfg.n_validation, cfg.seed + 1),
    ):
        points = lhs_maximin(count, lows, highs, cfg.candidate_rounds, seed)
        data = build_training_set(rom, points, lows, highs)
        data.save(
            art.path("training", f"{tag}.csv"), art.path("training", f"{tag}.meta")
        )
    art.record(
        n_training=cfg.n_training,
        n_validation=cfg.n_validation,
        sampling_seed=cfg.seed,
    )


def _load_dataset(art: Artifacts, tag: str, needed_by: str) -> TrainingSet:
    art.require(f"training/{tag}.csv", needed_by, "sample")
    return TrainingSet.load(
        art.path("training", f"{tag}.csv"), art.path("training", f"{tag}.meta")
    )


def _load_models(cfg: ExperimentConfig, art: Artifacts, needed_by: str) -> dict:
    """The fitted model of every configured name, by sorted name."""
    models = {}
    for name in sorted(cfg.models):
        art.require(f"models/{name}.txt", needed_by, "train")
        models[name] = load_model(art.path("models", f"{name}.txt"))
    return models


def stage_train(cfg: ExperimentConfig, art: Artifacts) -> None:
    train = _load_dataset(art, "train", "train")

    def fit_one(item):
        name, spec = item
        tic = time.perf_counter()
        model = fit_regressor(spec, train)
        return name, model, time.perf_counter() - tic

    items = list(cfg.models.items())
    # SVR fits fork only while no other thread runs (regressors.svr): fit last
    threaded = [item for item in items if item[1].family != "svr"]
    if cfg.train_workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.train_workers) as pool:
            fitted = list(pool.map(fit_one, threaded))
    else:
        fitted = [fit_one(item) for item in threaded]
    fitted += [fit_one(item) for item in items if item not in threaded]
    for name, model, seconds in fitted:
        save_model(model, art.path("models", f"{name}.txt"))
        art.record_timing(**{f"fit_{name}": io.format_double(seconds)})
    art.record(trained_models=" ".join(name for name, _ in items))


def stage_rom_solve(cfg: ExperimentConfig, art: Artifacts) -> None:
    system = get_problem(cfg.problem)
    basis = _load_basis(art, "rom-solve")
    counts = _selected_counts(cfg, art, "rom-solve")
    rom = GalerkinROM(system, basis)
    mu = np.array(cfg.test_mu)

    art.require("training/train.csv", "rom-solve", "sample")
    models = _load_models(cfg, art, "rom-solve")

    jobs = []
    for scheme in cfg.schemes:
        grid = system.time_grid(counts[scheme])
        jobs.append((f"galerkin_{scheme}", rom, grid, _integrator_for(cfg, scheme, True)))
        for name, model in models.items():
            surrogate = RegressionROM(system, basis, model)
            jobs.append(
                (
                    f"{name}_{scheme}",
                    surrogate,
                    grid,
                    _integrator_for(cfg, scheme, surrogate.differentiable),
                )
            )

    def solve_one(job):
        tag, model, grid, spec = job
        result = integrate(model, grid, mu, spec)
        return tag, model, result

    if cfg.solve_workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.solve_workers) as pool:
            results = list(pool.map(solve_one, jobs))
    else:
        results = [solve_one(job) for job in jobs]

    for tag, model, result in results:
        art.save_trajectory(tag, result)
        if isinstance(model, RegressionROM):
            art.record(
                **{
                    f"extrapolation_fraction_{tag}": io.format_double(
                        model.extrapolation_fraction(result, mu)
                    )
                }
            )


def stage_report(cfg: ExperimentConfig, art: Artifacts) -> None:
    system = get_problem(cfg.problem)
    basis = _load_basis(art, "report")
    valid = _load_dataset(art, "valid", "report")
    models = _load_models(cfg, art, "report")
    manifest = art.manifest()
    mu = np.array(cfg.test_mu)

    for scheme in cfg.schemes:
        fom = art.load_trajectory(f"fom_{scheme}", "report", "fom-solve")
        galerkin = art.load_trajectory(f"galerkin_{scheme}", "report", "rom-solve")
        lifted_galerkin = basis.lift(galerkin.states)
        gal_series = error_series(galerkin, fom, galerkin, basis, lifted_galerkin)
        # shared by every model's bound, and dropped with this scheme
        fom_terms = FullOrderTerms(system, mu, fom, basis)

        rows = [
            (
                "Galerkin",
                io.format_double(galerkin.wall_time),
                io.format_double(galerkin.wall_time / fom.wall_time),
                "1",
                io.format_double(gal_series.avg_e_fom),
                "0",
                "",
            )
        ]
        points = []
        for name, model in models.items():
            tag = f"{name}_{scheme}"
            traj = art.load_trajectory(tag, "report", "rom-solve")
            series = error_series(traj, fom, galerkin, basis, lifted_galerkin)
            series.to_csv(art.path("reports", f"errors_{tag}.csv"))
            tau_fom, tau_rom = runtime_ratios(
                traj.wall_time, fom.wall_time, galerkin.wall_time
            )
            rows.append(
                (
                    name,
                    io.format_double(traj.wall_time),
                    io.format_double(tau_fom),
                    io.format_double(tau_rom),
                    io.format_double(series.avg_e_fom),
                    io.format_double(series.avg_e_rom),
                    manifest.get(f"extrapolation_fraction_{tag}", ""),
                )
            )
            points.append(ParetoPoint(name, tau_fom, series.avg_e_fom))
            if model.differentiable:
                report = evaluate_bound(
                    fom_terms, traj, model, valid.inputs, valid.targets, seed=cfg.seed
                )
                report.to_keyvalues(art.path("reports", f"bound_{tag}.txt"))
        io.write_csv(
            art.path("reports", f"summary_{scheme}.csv"),
            ["method", "online_seconds", "tau_fom", "tau_rom", "avg_e_fom",
             "avg_e_rom", "extrapolation_fraction"],
            rows,
        )
        frontier = pareto_frontier(points)
        pareto_csv(art.path("reports", f"pareto_{scheme}.csv"), points, frontier)


_STAGE_FUNCS = {
    "verify-dt": stage_verify_dt,
    "fom-solve": stage_fom_solve,
    "pod": stage_pod,
    "sample": stage_sample,
    "train": stage_train,
    "rom-solve": stage_rom_solve,
    "report": stage_report,
}


def run_stage(cfg: ExperimentConfig, stage: str) -> None:
    if stage not in _STAGE_FUNCS:
        raise ValueError(f"unknown stage {stage!r}, have {list(_STAGE_FUNCS)}")
    art = Artifacts(cfg.out_dir)
    try:
        _STAGE_FUNCS[stage](cfg, art)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(f"stage {stage}: {exc}") from exc


def run_pipeline(cfg: ExperimentConfig) -> Path:
    """All stages in order; completed stages persist even if a later one fails.

    The convergence study is skipped when the config pins a step count for
    every scheme (plus the implicit snapshot solver), since nothing downstream
    would consult its selection.
    """
    stages = list(STAGES)
    pinned = set(cfg.nt_override)
    if set(cfg.schemes) | {"backward_euler"} <= pinned:
        stages.remove("verify-dt")
    for stage in stages:
        run_stage(cfg, stage)
    return Path(cfg.out_dir)
