"""Benchmark of `nirom run` on the two problems, stage by stage.

    python3 bench/run.py --workload burgers-run --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from
`src/`). One run attempts whole rounds of the same operations until
`--seconds` would be exceeded, and always at least one round. A round:

1. writes the workload's INI config (bench/configs/) with `--seed` as the
   config's seed, which sets the two maximin designs;
2. runs the `nirom run` stages in a child process (bench/child.py), one
   closed-loop client, timed stage by stage from outside the package;
3. checks every output against computations made apart from the package
   (bench/checks.py) and checks that deterministic artifacts are
   bit-identical to those of earlier rounds in this checkout of the same
   code on the same Python, numpy and scipy builds and CPU (`code_id`);
4. deletes its run directory, unless `--keep` is given.

The operations of a round are the stage runs, the model fits and the
trajectory solves. An operation fails when it raises, when a stage before
it failed, or when a check of its output fails. `correct` is false when an
operation fails other than by the one known fault (an SVR dual left short
of its KKT conditions), when a rerun is not bit-identical, or when the
child stops early; a timing that no round measured is then null.

The last line of standard output is one JSON object: with `--trace 0` the
end-to-end metrics, with `--trace 1` the per-module metrics of a traced
run (spans.py), which sets train_workers=1. `setup_s` is the median over
rounds of the offline stages' time, `online_s` the mean run of
`rom-solve` and `report_s` the median run of `report`, over every run of
the stage in every round.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
from pathlib import Path
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

# Workload -> (config, runs of rom-solve and of report per round). A short
# stage is rerun so that its figure is steady.
WORKLOADS = {
    "burgers-run": (HERE / "configs" / "burgers-run.ini", {"rom-solve": 2, "report": 6}),
    "convdiff-run": (HERE / "configs" / "convdiff-run.ini", {"rom-solve": 9, "report": 3}),
}
STAGES = ("fom-solve", "pod", "sample", "train", "rom-solve", "report")
SETUP_STAGES = ("fom-solve", "pod", "sample", "train")
RUN_LIMIT_S = 170.0
# Artifacts that do not depend on the seed.
SEED_FREE = ("snapshots/", "basis/", "trajectories/fom_", "trajectories/galerkin_")


def op_stage(op: str) -> str:
    """The stage that carries out an operation; it fails with that stage."""
    kind, _, name = op.partition(":")
    if kind == "stage":
        return name
    if kind == "fit":
        return "train"
    return "fom-solve" if name.startswith("fom_") else "rom-solve"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--keep", action="store_true", help="keep the run directories")
    return ap.parse_args(argv)


def write_config(workload, seed, out_dir, traced, path):
    p = configparser.ConfigParser()
    p.read(WORKLOADS[workload][0])
    p["experiment"]["output"] = str(out_dir)
    p["experiment"]["seed"] = str(seed)
    if traced:
        p["pipeline"]["train_workers"] = "1"
    with open(path, "w") as fh:
        p.write(fh)


def code_id() -> str:
    """Hash of what the bytes of the artifacts depend on: the package
    sources, the benchmark configs, the Python and the numpy and scipy
    builds (their BLAS and LAPACK among them), the CPU features numpy
    dispatches on and the thread counts BLAS may use."""
    import numpy
    import scipy

    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((HERE / "configs").glob("*.ini"))
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    env = {
        "python": sys.version,
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "numpy_config": numpy.show_config(mode="dicts"),
        "scipy": scipy.__version__,
        "scipy_config": scipy.show_config(mode="dicts"),
        "cpus": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    h.update(json.dumps(env, sort_keys=True, default=str).encode())
    return h.hexdigest()[:16]


def compare_digests(record_path: Path, workload: str, seed: int, found: dict) -> list:
    """Compare with earlier rounds of the same code in this checkout; record
    what is new. Returns the files whose bytes differ."""
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    groups = {
        f"{workload}/any": {k: v for k, v in found.items() if k.startswith(SEED_FREE)},
        f"{workload}/seed={seed}": found,
    }
    differ = []
    for key, files in groups.items():
        seen = record.setdefault(key, {})
        differ += [f for f, h in files.items() if f in seen and seen[f] != h]
        for f, h in files.items():
            seen.setdefault(f, h)
    tmp = record_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record))
    os.replace(tmp, record_path)
    return sorted(set(differ))


def run_round(args, index, run_root: Path, deadline: float) -> dict:
    import checks

    rdir = run_root / f"round{index}"
    out_dir = rdir / "out"
    rdir.mkdir(parents=True)
    ini = rdir / "config.ini"
    write_config(args.workload, args.seed, out_dir, args.trace, ini)
    runs = {s: 1 if args.trace else n for s, n in WORKLOADS[args.workload][1].items()}
    cmd = [sys.executable, str(HERE / "child.py"), str(ini), str(rdir / "result.json")]
    cmd += [arg for s, n in runs.items() for arg in (f"--{s}", str(n))]
    if args.trace:
        cmd += ["--trace", str(rdir / "trace.npz")]
    with open(rdir / "child.log", "w") as log:
        try:
            subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                           timeout=max(5.0, deadline - time.monotonic()), check=True)
        except (subprocess.TimeoutExpired, subprocess.CalledProcessError) as exc:
            print(f"round {index}: child failed: {exc}")
            print((rdir / "child.log").read_text()[-2000:])
            # the stages the child finished before it stopped, and the one
            # it was in, which fails with the stages after it
            partial = rdir / "result.json"
            result = json.loads(partial.read_text()) if partial.exists() else {
                "seconds": {}, "running": None, "changed": [], "peak_rss_mb": None}
            result["failed"] = {"stage": result["running"] or "child", "error": str(exc)}
        else:
            result = json.loads((rdir / "result.json").read_text())

    cfg = checks.read_config(ini)
    ops = checks.RunChecker.ops(cfg, STAGES)
    failed_stage = (result["failed"] or {}).get("stage")
    done = {s for s, times in result["seconds"].items() if times and s != failed_stage}
    failures = dict(checks.RunChecker(cfg, out_dir).run(done).failed)
    for op in ops:
        stage = op_stage(op)
        if stage not in done:
            why = result["failed"]["error"] if stage == failed_stage else "not reached"
            failures.setdefault(op, []).append(why)
    # a rerun stage repeats its operations
    weight = {op: runs.get(op_stage(op), 1) for op in ops}

    unexpected = {op for op, why in failures.items()
                  if not all(w.startswith(checks.SVR_KKT) for w in why)}
    differ = list(result["changed"])
    # a round cut short may leave files half written; it records nothing
    if out_dir.exists() and result["failed"] is None:
        differ += compare_digests(run_root.parent / f"digests-{code_id()}.json",
                                  args.workload, args.seed, checks.artifact_digests(out_dir))
    artifact_bytes = sum(f.stat().st_size for f in out_dir.rglob("*") if f.is_file())

    for op, why in sorted(failures.items()):
        tag = "unexpected" if op in unexpected else "known fault"
        print(f"round {index}: FAILED {op} ({tag}): {'; '.join(why)}")
    for f in sorted(set(differ)):
        print(f"round {index}: NOT BIT-IDENTICAL on a rerun: {f}")
    # the times of stages that ran to their end; a stage cut short has none
    sec = {s: t for s, t in result["seconds"].items() if s in done}
    print(f"round {index}: " + " ".join(
        f"{s}=" + "/".join(f"{t:.2f}" for t in sec.get(s, [])) + "s" for s in STAGES)
        + f" artifacts={artifact_bytes / 1e6:.1f}MB rss={result['peak_rss_mb'] or 0:.0f}MB")

    round_out = {
        "attempted": sum(weight.values()),
        "failed": sum(weight[op] for op in failures),
        "correct": not unexpected and not differ and result["failed"] is None,
        "setup_s": (sum(sum(sec[s]) for s in SETUP_STAGES)
                    if all(s in sec for s in SETUP_STAGES) else None),
        "online_s": sec.get("rom-solve", []),
        "report_s": sec.get("report", []),
        "artifact_mb": artifact_bytes / 1e6,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    if args.trace and (rdir / "trace.npz").exists():
        import spans

        round_out["layers"] = spans.per_layer(
            rdir / "trace.npz", {s: sum(t) for s, t in sec.items()})
    if not args.keep:
        shutil.rmtree(rdir)
    return round_out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nirom" / "pipeline.py").is_file():
        print(f"no nirom sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    run_root = ROOT / ".bench_runs" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    if run_root.exists():
        shutil.rmtree(run_root)
    rounds = []
    while True:
        tic = time.monotonic()
        rounds.append(run_round(args, len(rounds), run_root, deadline))
        took = time.monotonic() - tic
        elapsed = time.monotonic() - start
        if elapsed + took > min(args.seconds, RUN_LIMIT_S - 5.0):
            break
    if not args.keep:
        shutil.rmtree(run_root, ignore_errors=True)

    if args.trace:
        traced = [r for r in rounds if "layers" in r]
        units = traced[0]["layers"] if traced else {}
        metrics = {
            k: {"value": statistics.median([r["layers"][k][0] for r in traced]), "unit": u}
            for k, (_, u) in units.items()
        }
    else:
        def pick(f, xs):
            """f of the measured values; a metric that no round measured (its
            stage never ran to the end) is null, not 0, and such a run is
            never correct."""
            xs = [x for x in xs if x is not None]
            return f(xs) if xs else None

        pooled = lambda key: [t for r in rounds for t in r[key]]
        per_round = lambda key: [r[key] for r in rounds]
        metrics = {
            "setup_s": {"value": pick(statistics.median, per_round("setup_s")), "unit": "s"},
            # over every run of the stage in every round
            "online_s": {"value": pick(statistics.mean, pooled("online_s")), "unit": "s"},
            "report_s": {"value": pick(statistics.median, pooled("report_s")), "unit": "s"},
            "artifact_mb": {"value": pick(statistics.median, per_round("artifact_mb")),
                            "unit": "MB"},
            "peak_rss_mb": {"value": pick(statistics.median, per_round("peak_rss_mb")),
                            "unit": "MB"},
        }
    print(json.dumps({
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
