"""Config parsing, artifact bookkeeping, the staged pipeline, and the CLI."""

import dataclasses
from pathlib import Path
import re
import shutil
import textwrap

import numpy as np
import pytest

from nirom import cli, problems
from nirom.cli import main
from nirom.core import StageError, TimeGrid
from nirom.integration import TrajectoryResult
from nirom.io import read_csv, read_keyvalues, read_matrix, write_keyvalues
from nirom.pipeline import (
    Artifacts,
    ExperimentConfig,
    _integrator_for,
    _selected_counts,
    load_config,
    parse_model_line,
    run_pipeline,
    run_stage,
)


# a removed key (the flow-map mode) and a misspelt one
BAD_KEYS_INI = "[experiment]\nproblem = burgers\n\n[sampling]\nmode = flowmap\nn_trainig = 5\n"


def tiny_config(out_dir, **over):
    kw = dict(
        problem="burgers",
        test_mu=(1.8, 0.0232),
        out_dir=out_dir,
        seed=0,
        pod_max_modes=10,
        n_training=150,
        n_validation=50,
        candidate_rounds=2,
        schemes=("rk4",),
        nt_override={"rk4": 400, "backward_euler": 200},
        models={
            "knn": parse_model_line("knn n_neighbors=3"),
            "sindy": parse_model_line("sindy degree=2 threshold=0.001"),
        },
    )
    kw.update(over)
    return ExperimentConfig(**kw)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One complete pipeline run on a small parameter-velocity setup."""
    root = tmp_path_factory.mktemp("pipeline")
    out = root / "run"
    ini = root / "experiment.ini"
    ini.write_text(textwrap.dedent(f"""\
        [experiment]
        problem = burgers
        test_mu = 1.8 0.0232
        output = {out}
        seed = 0

        [pod]
        max_modes = 10

        [sampling]
        n_training = 150
        n_validation = 50
        candidate_rounds = 2

        [integration]
        schemes = rk4
        nt_rk4 = 400
        nt_backward_euler = 200

        [models]
        knn = knn n_neighbors=3
        sindy = sindy degree=2 threshold=0.001
        """))
    cfg = load_config(ini)
    run_pipeline(cfg)
    return ini, out, cfg


class TestParseModelLine:
    def test_family_only_uses_defaults(self):
        spec = parse_model_line("forest")
        assert spec.family == "forest"
        assert spec["n_trees"] == 15

    def test_value_types_are_inferred(self):
        spec = parse_model_line("svr kernel=poly2 epsilon=0.01 c_box=100")
        assert spec["kernel"] == "poly2"
        assert spec["epsilon"] == 0.01
        assert spec["c_box"] == 100
        assert type(spec["c_box"]) is float

    def test_seed_is_split_from_hyperparameters(self):
        spec = parse_model_line("forest n_trees=5 seed=9")
        assert spec.seed == 9
        assert spec["n_trees"] == 5


class TestExperimentConfig:
    def test_unknown_problem_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="problem"):
            ExperimentConfig("heat", (1.0,), tmp_path)

    def test_test_mu_must_lie_in_the_domain(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentConfig("burgers", (100.0, 0.02), tmp_path)

    def test_unknown_scheme_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="scheme"):
            tiny_config(tmp_path, schemes=("leapfrog",))

    @pytest.mark.parametrize("name", ["fom", "galerkin", "../../x", "a b", "2knn", ""])
    def test_model_names_that_would_clash_with_artifacts_are_rejected(self, tmp_path, name):
        # fom and galerkin name the reference trajectories a surrogate is scored
        # against; a non-identifier could reach outside models/ and trajectories/
        with pytest.raises(ValueError, match=f"model name {name!r}"):
            tiny_config(tmp_path, models={name: parse_model_line("knn")})

    def test_default_models_depend_on_the_problem(self, tmp_path):
        burgers = ExperimentConfig("burgers", (1.8, 0.0232), tmp_path)
        convdiff = ExperimentConfig("convdiff", (9.5, 9.5), tmp_path)
        assert burgers.models["knn"]["n_neighbors"] == 6
        assert convdiff.models["knn"]["n_neighbors"] == 4
        assert burgers.models["vkoga"]["gamma"] != convdiff.models["vkoga"]["gamma"]
        for cfg in (burgers, convdiff):
            assert set(cfg.models) == {
                "knn", "sindy", "vkoga", "forest", "boosting",
                "svr2", "svr3", "svrrbf",
            }

    @pytest.mark.parametrize("field,value,named", [
        ("seed", -1, "seed"),
        ("nt_override", {"rk4": 0}, "nt_rk4"),
        ("nt_override", {"leapfrog": 5}, "leapfrog.*nt_override"),
        ("n_training", 0, "n_training"),
        ("n_validation", 0, "n_validation"),
        ("pod_energy", 2.0, "pod_energy"),
        ("pod_energy", 0.0, "pod_energy"),
        ("pod_max_modes", 0, "pod_max_modes"),
        ("candidate_rounds", 0, "candidate_rounds"),
        ("newton_tol", 0.0, "newton_tol"),
        ("fixed_point_tol", -1.0, "fixed_point_tol"),
        ("max_inner", 0, "max_inner"),
        ("schemes", (), "schemes is empty"),
    ])
    def test_out_of_range_settings_are_rejected_by_name(self, tmp_path, field, value, named):
        # each would pass until a later stage, or, for an unknown scheme's
        # step count, never be read
        with pytest.raises(ValueError, match=named):
            tiny_config(tmp_path, **{field: value})

    def test_default_config_paths(self):
        cfg = ExperimentConfig("convdiff", seed=3)
        assert cfg.test_mu == (9.5, 9.5)
        assert cfg.out_dir == Path("runs") / "convdiff"
        assert cfg.seed == 3
        assert ExperimentConfig().problem == "burgers"


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "absent.ini")

    def test_every_section_is_honored(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(textwrap.dedent(f"""\
            [experiment]
            problem = burgers
            test_mu = 1.5 0.022
            output = {tmp_path / 'out'}
            seed = 7

            [pod]
            max_modes = 9
            center = false

            [sampling]
            n_training = 80
            n_validation = 20
            candidate_rounds = 3

            [integration]
            schemes = rk4
            newton_tol = 1e-8
            fixed_point_tol = 0.05
            max_inner = 30
            nt_rk4 = 400
            nt_backward_euler = 200

            [pipeline]
            train_workers = 1
            solve_workers = 1

            [models]
            little = knn n_neighbors=2 seed=4
            """))
        cfg = load_config(ini)
        assert cfg.problem == "burgers"
        assert cfg.test_mu == (1.5, 0.022)
        assert cfg.seed == 7
        assert cfg.pod_max_modes == 9
        assert cfg.pod_center is False
        assert cfg.n_training == 80 and cfg.n_validation == 20
        assert cfg.candidate_rounds == 3
        assert cfg.schemes == ("rk4",)
        assert cfg.newton_tol == 1e-8
        assert cfg.fixed_point_tol == 0.05
        assert cfg.max_inner == 30
        assert cfg.nt_override == {"rk4": 400, "backward_euler": 200}
        assert cfg.train_workers == 1 and cfg.solve_workers == 1
        assert list(cfg.models) == ["little"]
        assert cfg.models["little"].seed == 4

    def test_unknown_section_is_named(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nproblem = burgers\n\n[sampler]\nn_training = 5\n")
        with pytest.raises(ValueError, match=r"section \[sampler\]"):
            load_config(ini)

    def test_misspelt_and_removed_keys_are_named(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(BAD_KEYS_INI)
        with pytest.raises(ValueError, match="'mode'.*'n_trainig'"):
            load_config(ini)

    def test_step_count_of_an_unknown_scheme_is_named(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[experiment]\nproblem = burgers\n\n"
            "[integration]\nnt_rk4 = 400\nnt_trapezoid = 100\n"
        )
        with pytest.raises(ValueError, match="nt_trapezoid"):
            load_config(ini)

    def test_bad_value_names_its_key(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nproblem = burgers\n\n[pod]\ncenter = maybe\n")
        with pytest.raises(ValueError, match=r"\[pod\] center"):
            load_config(ini)

    def test_percent_sign_is_literal(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nproblem = burgers\noutput = runs/100%x\n")
        assert load_config(ini).out_dir == Path("runs/100%x")

    def test_one_key_keeps_the_dataclass_defaults_for_the_rest(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nproblem = burgers\n\n[pod]\nmax_modes = 7\n")
        cfg = dataclasses.asdict(load_config(ini))
        default = dataclasses.asdict(ExperimentConfig())
        assert cfg.pop("pod_max_modes") == 7
        default.pop("pod_max_modes")
        assert cfg == default

    def test_overrides_win_over_file_values(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nproblem = burgers\nseed = 1\n")
        cfg = load_config(ini, {"seed": 11, "out_dir": tmp_path / "elsewhere"})
        assert cfg.seed == 11
        assert cfg.out_dir == tmp_path / "elsewhere"


class TestBenchConfigs:
    """The benchmark loads its INI configs through `load_config` and reads
    fields of the result (bench/child.py), so those fields are a contract
    between the package and the benchmark."""

    CONFIGS = sorted((Path(__file__).resolve().parents[1] / "bench" / "configs").glob("*.ini"))

    def test_both_workloads_have_a_config(self):
        assert [p.name for p in self.CONFIGS] == ["burgers-run.ini", "convdiff-run.ini"]

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
    def test_config_pins_every_step_count_and_has_the_fields_the_child_reads(self, path):
        cfg = load_config(path)
        assert set(cfg.schemes) | {"backward_euler"} <= set(cfg.nt_override)
        assert all(cfg.nt_override[s] >= 1 for s in (*cfg.schemes, "backward_euler"))
        assert isinstance(cfg.out_dir, Path) and cfg.models
        # a traced run overrides train_workers and needs one thread in both pools
        traced = load_config(path, {"train_workers": 1})
        assert (traced.train_workers, traced.solve_workers) == (1, 1)


class TestArtifacts:
    def test_subdirectories_are_created(self, tmp_path):
        art = Artifacts(tmp_path / "runX")
        for sub in ("snapshots", "basis", "training", "models",
                    "trajectories", "reports"):
            assert (tmp_path / "runX" / sub).is_dir()

    def test_require_names_producer_and_consumer(self, tmp_path):
        art = Artifacts(tmp_path)
        with pytest.raises(StageError, match="stage rom-solve needs basis/V.txt"):
            art.require("basis/V.txt", "rom-solve", "pod")
        with pytest.raises(StageError, match="run the pod stage first"):
            art.require("basis/V.txt", "rom-solve", "pod")

    def test_manifest_accumulates_updates(self, tmp_path):
        art = Artifacts(tmp_path)
        art.record(alpha=1)
        art.record(beta="two")
        assert art.manifest() == {"alpha": "1", "beta": "two"}

    def test_trajectory_roundtrip_keeps_states_and_metadata(self, tmp_path):
        art = Artifacts(tmp_path)
        grid = TimeGrid(0.0, 2.0, 4)
        states = np.random.default_rng(0).standard_normal((3, 5))
        result = TrajectoryResult(grid.times(), states, 0.125,
                                  "backward_euler", "newton", 9, 2)
        art.save_trajectory("demo", result)
        meta = read_keyvalues(tmp_path / "trajectories" / "demo.meta")
        assert (meta["inner_iterations"], meta["factorizations"]) == ("9", "2")
        back = art.load_trajectory("demo", "report", "rom-solve")
        assert np.array_equal(back.states, states)
        assert np.array_equal(back.times, grid.times())
        assert back.scheme == "backward_euler" and back.inner == "newton"
        assert (back.n_inner_total, back.n_factorizations) == (9, 2)
        assert back.wall_time == 0.125

    def test_missing_wall_clock_is_nan(self, tmp_path):
        art = Artifacts(tmp_path)
        assert np.isnan(art.load_wall("never_recorded"))


class TestStageHelpers:
    def test_pinned_counts_bypass_the_manifest(self, tmp_path):
        cfg = tiny_config(tmp_path)
        counts = _selected_counts(cfg, Artifacts(tmp_path), "fom-solve")
        assert counts == {"rk4": 400, "backward_euler": 200}

    def test_missing_selection_names_verify_dt(self, tmp_path):
        # rk4 unpinned, then only the snapshot solver's backward_euler
        for pinned, missing in (({}, "rk4"), ({"rk4": 400}, "backward_euler")):
            cfg = tiny_config(tmp_path, nt_override=pinned)
            with pytest.raises(StageError, match=f"verify-dt.*nt_{missing}"):
                _selected_counts(cfg, Artifacts(tmp_path), "fom-solve")

    def test_integrator_choice_follows_differentiability(self, tmp_path):
        cfg = tiny_config(tmp_path, newton_tol=1e-7, fixed_point_tol=0.02)
        rk = _integrator_for(cfg, "rk4", True)
        assert rk.scheme == "rk4" and rk.inner is None
        newton = _integrator_for(cfg, "backward_euler", True)
        assert newton.inner == "newton" and newton.tol == 1e-7
        fp = _integrator_for(cfg, "backward_euler", False)
        assert fp.inner == "fixed_point" and fp.tol == 0.02

    def test_unknown_stage_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown stage"):
            run_stage(tiny_config(tmp_path), "deploy")

    def test_missing_prerequisites_raise_stage_errors(self, tmp_path):
        cfg = tiny_config(tmp_path)
        with pytest.raises(StageError, match="run the pod stage first"):
            run_stage(cfg, "rom-solve")
        with pytest.raises(StageError, match="run the fom-solve stage first"):
            run_stage(cfg, "pod")

    def test_solver_failures_are_wrapped_with_the_stage_name(self, tmp_path):
        cfg = tiny_config(tmp_path, nt_override={"rk4": 2, "backward_euler": 2})
        with pytest.raises(StageError, match="stage fom-solve"):
            run_stage(cfg, "fom-solve")


class TestFullPipeline:
    def test_artifact_tree_is_complete(self, tiny_run):
        _, out, _ = tiny_run
        for rel in (
            "snapshots/corner_0.txt", "snapshots/corner_3.meta",
            "basis/V.txt", "basis/meta.txt",
            "training/train.csv", "training/valid.meta",
            "models/knn.txt", "models/sindy.txt",
            "trajectories/fom_rk4.txt", "trajectories/galerkin_rk4.txt",
            "trajectories/knn_rk4.txt", "trajectories/sindy_rk4.txt",
            "reports/summary_rk4.csv", "reports/pareto_rk4.csv",
            "reports/errors_knn_rk4.csv", "reports/errors_sindy_rk4.csv",
            "reports/manifest.txt", "reports/timings.txt",
        ):
            assert (out / rel).exists(), rel

    def test_convergence_study_is_skipped_when_counts_are_pinned(self, tiny_run):
        _, out, _ = tiny_run
        assert not (out / "reports" / "convergence_rk4.csv").exists()

    def test_manifest_contents(self, tiny_run):
        _, out, _ = tiny_run
        manifest = read_keyvalues(out / "reports" / "manifest.txt")
        assert manifest["n_corner_runs"] == "4"
        assert manifest["snapshot_nt"] == "200"
        assert manifest["trained_models"] == "knn sindy"
        basis = read_matrix(out / "basis" / "V.txt")
        assert int(manifest["pod_n"]) == basis.shape[1]
        for name in ("knn", "sindy"):
            frac = float(manifest[f"extrapolation_fraction_{name}_rk4"])
            assert 0.0 <= frac <= 1.0

    def test_trajectory_meta_carries_solver_counters(self, tiny_run):
        _, out, _ = tiny_run
        for i in range(4):
            meta = read_keyvalues(out / "snapshots" / f"corner_{i}.meta")
            its, factors = int(meta["inner_iterations"]), int(meta["factorizations"])
            assert its >= int(meta["num_steps"]) == 200
            assert 1 <= factors < its // 100
        meta = read_keyvalues(out / "trajectories" / "fom_rk4.meta")
        assert (meta["inner_iterations"], meta["factorizations"]) == ("0", "0")

    def test_summary_table_layout(self, tiny_run):
        _, out, _ = tiny_run
        header, rows = read_csv(out / "reports" / "summary_rk4.csv")
        assert header == ["method", "online_seconds", "tau_fom", "tau_rom",
                          "avg_e_fom", "avg_e_rom", "extrapolation_fraction"]
        assert [r[0] for r in rows] == ["Galerkin", "knn", "sindy"]
        for row in rows:
            assert float(row[4]) >= 0.0  # avg_e_fom parses

    def test_pareto_table_flags_at_least_one_frontier_point(self, tiny_run):
        _, out, _ = tiny_run
        header, rows = read_csv(out / "reports" / "pareto_rk4.csv")
        assert header == ["label", "relative_time", "relative_error", "frontier"]
        assert {r[0] for r in rows} == {"knn", "sindy"}
        assert any(r[3] == "1" for r in rows)

    def test_bound_report_only_for_differentiable_families(self, tiny_run):
        _, out, _ = tiny_run
        assert (out / "reports" / "bound_sindy_rk4.txt").exists()
        assert not (out / "reports" / "bound_knn_rk4.txt").exists()
        bound = read_keyvalues(out / "reports" / "bound_sindy_rk4.txt")
        assert float(bound["bound"]) > 0.0

    def test_rerun_reproduces_deterministic_artifacts_bitwise(self, tiny_run, tmp_path):
        _, out, cfg = tiny_run
        other = tmp_path / "rerun"
        run_pipeline(tiny_config(other))
        deterministic = [
            p for p in out.rglob("*")
            if p.is_file()
            and p.name != "timings.txt"
            and not p.name.startswith(("summary_", "pareto_"))
        ]
        assert len(deterministic) > 20
        for path in deterministic:
            twin = other / path.relative_to(out)
            assert twin.read_bytes() == path.read_bytes(), path.name

    @pytest.mark.parametrize("copies", [0, 2])
    def test_report_evaluates_each_fom_column_once_per_scheme(
        self, tiny_run, tmp_path, monkeypatch, copies
    ):
        """Rerun report on a copy of the run with `copies` more differentiable
        models (copies of sindy): the FOM states' velocities come from one
        block call for the scheme, no FOM state is evaluated alone, and every
        bound file keeps its bytes."""
        _, out, cfg = tiny_run
        twin = tmp_path / "twin"
        shutil.copytree(out, twin)
        names = [f"sindy_copy{i}" for i in range(copies)]
        for name in names:
            shutil.copy(twin / "models" / "sindy.txt", twin / "models" / f"{name}.txt")
            for ext in ("txt", "meta"):
                shutil.copy(twin / "trajectories" / f"sindy_rk4.{ext}",
                            twin / "trajectories" / f"{name}_rk4.{ext}")
        models = dict(cfg.models, **{name: cfg.models["sindy"] for name in names})
        blocks, singles = {}, {}
        raw = problems.Burgers1D.velocity

        def counted(self, x, t, mu):
            calls = singles if np.ndim(x) == 1 else blocks
            key = np.ascontiguousarray(x).tobytes()
            calls[key] = calls.get(key, 0) + 1
            return raw(self, x, t, mu)

        monkeypatch.setattr(problems.Burgers1D, "velocity", counted)
        run_stage(dataclasses.replace(cfg, out_dir=twin, models=models), "report")

        fom = read_matrix(out / "trajectories" / "fom_rk4.txt")
        assert blocks.get(fom.tobytes()) == 1
        assert all(np.ascontiguousarray(col).tobytes() not in singles for col in fom.T)
        bound = (out / "reports" / "bound_sindy_rk4.txt").read_bytes()
        for name in ["sindy", *names]:
            assert (twin / "reports" / f"bound_{name}_rk4.txt").read_bytes() == bound

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failed_solve_is_recorded_while_the_others_save(self, tiny_run, tmp_path, workers):
        """With backward Euler added, kNN's fixed-point solve stalls (its
        velocity is piecewise constant): every other trajectory is still
        saved, the manifest gets one status line with the error and its step,
        and the stage raises one StageError that names the failed solve.
        What an earlier run left for the failed tag is dropped. A rerun
        without the failing solve drops the status line."""
        _, out, cfg = tiny_run
        twin = tmp_path / "twin"
        shutil.copytree(out, twin)
        for ext in ("txt", "meta"):
            shutil.copy(twin / "trajectories" / f"knn_rk4.{ext}",
                        twin / "trajectories" / f"knn_backward_euler.{ext}")
        write_keyvalues(twin / "reports" / "manifest.txt",
                        dict(read_keyvalues(twin / "reports" / "manifest.txt"),
                             extrapolation_fraction_knn_backward_euler="0.5"))
        write_keyvalues(twin / "reports" / "timings.txt",
                        dict(read_keyvalues(twin / "reports" / "timings.txt"),
                             wall_knn_backward_euler="1.0"))
        both = dataclasses.replace(cfg, out_dir=twin, schemes=("rk4", "backward_euler"),
                                   solve_workers=workers)
        with pytest.raises(StageError, match=r"1 of 6 solves failed \(knn_backward_euler\)"):
            run_stage(both, "rom-solve")
        saved = {p.stem for p in (twin / "trajectories").glob("*.txt")}
        assert saved == {"fom_rk4", "galerkin_rk4", "knn_rk4", "sindy_rk4",
                         "galerkin_backward_euler", "sindy_backward_euler"}
        manifest = read_keyvalues(twin / "reports" / "manifest.txt")
        status = [k for k in manifest if k.startswith("status_")]
        assert status == ["status_knn_backward_euler"]
        assert re.fullmatch(r"ConvergenceError: step \d+: fixed point stalled, residual \S+",
                            manifest[status[0]])
        assert "extrapolation_fraction_sindy_backward_euler" in manifest
        assert "extrapolation_fraction_knn_backward_euler" not in manifest
        timings = read_keyvalues(twin / "reports" / "timings.txt")
        assert "wall_sindy_backward_euler" in timings
        assert "wall_knn_backward_euler" not in timings

        run_stage(dataclasses.replace(cfg, out_dir=twin), "rom-solve")
        manifest = read_keyvalues(twin / "reports" / "manifest.txt")
        assert not [k for k in manifest if k.startswith("status_")]

    @pytest.mark.filterwarnings("ignore:svr dual")
    def test_svr_lines_fork_their_workers_after_the_threaded_fits(
        self, tiny_run, tmp_path, svr_pools
    ):
        """With two training threads, an SVR line still solves its outputs in
        worker processes, forked while no other thread runs, and every model
        file keeps the bytes a one-thread run saves."""
        _, out, cfg = tiny_run
        models = dict(cfg.models, svr=parse_model_line("svr kernel=rbf epsilon=0.01"))
        saved = []
        for workers in (1, 2):
            twin = tmp_path / f"workers{workers}"
            shutil.copytree(out, twin)
            run_stage(dataclasses.replace(cfg, out_dir=twin, models=models,
                                          train_workers=workers), "train")
            saved.append({name: (twin / "models" / f"{name}.txt").read_bytes()
                          for name in models})
        assert svr_pools == [(2, 1), (2, 1)]
        assert saved[0] == saved[1]


class TestCli:
    def test_missing_config_exits_with_config_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.ini")])
        assert code == 2
        assert "[config]" in capsys.readouterr().err

    def test_stage_error_is_reported_with_pipeline_prefix(self, tmp_path, capsys):
        code = main(["pod", "--problem", "burgers", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "[pipeline]" in err and "fom-solve" in err

    def test_verify_dt_rejects_unknown_scheme(self, capsys):
        code = main(["verify-dt", "burgers", "trapezoid"])
        assert code == 2
        assert "unknown scheme" in capsys.readouterr().err

    def test_verify_dt_rejects_trailing_arguments(self, capsys):
        code = main(["verify-dt", "burgers", "rk4", "extra"])
        assert code == 2
        assert "unexpected arguments" in capsys.readouterr().err

    def test_unknown_config_key_exits_with_config_error(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text(BAD_KEYS_INI)
        # one stage: were the file accepted, a bare `run` would start the whole chain
        assert main(["pod", "--config", str(ini)]) == 2
        err = capsys.readouterr().err
        assert "[config]" in err and "n_trainig" in err

    @pytest.mark.parametrize("text", [
        "[experiment]\nproblem = burgers\nno equals sign\n",
        "[experiment]\nproblem = burgers\n\n[experiment]\nseed = 1\n",
        "problem = burgers\n",
        "[experiment]\nproblem = burgers\n\n[models]\nKNN = knn\nknn = knn\n",
    ])
    def test_malformed_file_exits_with_config_error(self, tmp_path, capsys, text):
        ini = tmp_path / "exp.ini"
        ini.write_text(text)
        assert main(["pod", "--config", str(ini)]) == 2
        err = capsys.readouterr().err
        assert "[config]" in err and str(ini) in err and "Traceback" not in err

    def test_out_of_range_value_exits_with_config_error(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nproblem = burgers\nseed = -1\n")
        assert main(["pod", "--config", str(ini)]) == 2
        err = capsys.readouterr().err
        assert "[config]" in err and "seed" in err

    def test_empty_schemes_exits_with_config_error(self, tmp_path, capsys):
        # accepted, it would run every stage and write no trajectory or report
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nproblem = burgers\n\n[integration]\nschemes =\n")
        assert main(["run", "--config", str(ini)]) == 2
        err = capsys.readouterr().err
        assert "[config]" in err and "schemes is empty" in err

    @pytest.mark.parametrize("line,key", [("vkoga gamma=abc", "gamma"),
                                          ("forest n_trees=2 seed=-1", "seed"),
                                          ("sindy threshold=nan", "threshold")])
    def test_bad_model_value_exits_with_config_error(self, tmp_path, capsys, line, key):
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[experiment]\nproblem = burgers\n\n[models]\nm = {line}\n")
        assert main(["pod", "--config", str(ini)]) == 2
        err = capsys.readouterr().err
        assert "[config]" in err and f"{key}=" in err

    @pytest.mark.parametrize("name", ["fom", "galerkin", "../../x"])
    def test_clashing_model_name_exits_with_config_error(self, tmp_path, capsys, name):
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[experiment]\nproblem = burgers\n\n[models]\n{name} = sindy\n")
        assert main(["pod", "--config", str(ini)]) == 2
        err = capsys.readouterr().err
        assert "[config]" in err and f"model name {name!r}" in err

    def test_flags_with_and_without_a_config_file(self, tmp_path, monkeypatch):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            f"[experiment]\nproblem = convdiff\ntest_mu = 9.2 9.8\n"
            f"output = {tmp_path / 'file_out'}\nseed = 7\n"
        )
        seen = []
        monkeypatch.setattr(cli, "run_stage", lambda cfg, stage: seen.append(cfg))
        cases = [
            ([], ("burgers", (1.8, 0.0232), Path("runs/burgers"), 0)),
            (["--problem", "convdiff"], ("convdiff", (9.5, 9.5), Path("runs/convdiff"), 0)),
            (["--problem", "convdiff", "--seed", "3", "--out", "x"],
             ("convdiff", (9.5, 9.5), Path("x"), 3)),
            (["--config", str(ini)],
             ("convdiff", (9.2, 9.8), tmp_path / "file_out", 7)),
            (["--config", str(ini), "--problem", "convdiff", "--seed", "11", "--out", "y"],
             ("convdiff", (9.2, 9.8), Path("y"), 11)),
        ]
        for argv, expected in cases:
            assert main(["pod", *argv]) == 0
            cfg = seen.pop()
            assert (cfg.problem, cfg.test_mu, cfg.out_dir, cfg.seed) == expected, argv
            assert cfg.schemes == ("rk4", "backward_euler")
        assert main(["verify-dt", "convdiff", "rk4", "--seed", "2"]) == 0
        cfg = seen.pop()
        assert (cfg.problem, cfg.seed, cfg.schemes) == ("convdiff", 2, ("rk4",))

    def test_unknown_stage_flag_is_an_argparse_error(self):
        with pytest.raises(SystemExit):
            main(["deploy"])
        with pytest.raises(SystemExit):  # one stage is `nirom <stage>`
            main(["run", "--stage", "pod"])

    def test_single_stage_reruns_cleanly_from_the_cli(self, tiny_run):
        ini, _, _ = tiny_run
        assert main(["report", "--config", str(ini)]) == 0
