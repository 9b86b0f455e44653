"""Run the `nirom run` stages of one config in this process, timed one by one.

    python3 bench/child.py CONFIG.ini RESULT.json [--rom-solve N] [--report M] [--trace TRACE.npz]

Each stage goes through the public `nirom.pipeline.run_stage`, timed from
here with a monotonic clock. The stages are those `nirom run` executes for
a config that pins every step count, so `verify-dt` is not among them. The
offline stages run once; `rom-solve` then runs N times and `report` M
times, interleaved so that the reruns of each are spread over the online
part of the round, as a user reruns a stage on one directory. Every rerun
must leave the deterministic artifacts bit-identical to the first run. A stage
that raises ends the round; the stages after it are not attempted.

RESULT.json receives the times of every stage run, the stage and error of
a failure, the files that changed between reruns and the peak resident
set of this process. It is rewritten before every stage, with the stage
about to run as `running`, so that a child stopped from outside leaves
the times of the stages it finished and the stage it was in. With --trace
the run is traced (see spans.py) and the spans are saved there.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
import resource
import sys
import time

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checks import artifact_digests  # noqa: E402

OFFLINE = ("fom-solve", "pod", "sample", "train")
ONLINE = ("rom-solve", "report")


def interleave(n_rom: int, n_report: int) -> list:
    """n_rom runs of rom-solve with n_report runs of report spread among
    them, each report after the rom-solve runs of its share."""
    plan = []
    for i in range(n_rom):
        plan.append("rom-solve")
        plan += ["report"] * ((i + 1) * n_report // n_rom - i * n_report // n_rom)
    return plan


def main(argv) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("config")
    ap.add_argument("result")
    ap.add_argument("--rom-solve", type=int, default=1)
    ap.add_argument("--report", type=int, default=1)
    ap.add_argument("--trace", default=None)
    args = ap.parse_args(argv[1:])
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    from nirom.pipeline import load_config, run_stage

    cfg = load_config(args.config)
    if not set(cfg.schemes) | {"backward_euler"} <= set(cfg.nt_override):
        raise SystemExit("the benchmark configs pin every step count")
    if args.trace and (cfg.train_workers != 1 or cfg.solve_workers != 1):
        raise SystemExit("a traced run needs train_workers = solve_workers = 1")

    seconds = {stage: [] for stage in OFFLINE + ONLINE}
    failed, changed, first = None, [], {}

    def write_result(running):
        Path(args.result).write_text(json.dumps({
            "seconds": seconds,
            "failed": failed,
            "running": running,
            "changed": sorted(set(changed)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }))

    plan = list(OFFLINE) + interleave(args.rom_solve, args.report)
    for stage in plan:
        write_result(stage)
        span = tracer.begin(f"stage.{stage}") if tracer else None
        tic = time.perf_counter()
        try:
            run_stage(cfg, stage)
        except Exception as exc:
            failed = {"stage": stage, "error": f"{type(exc).__name__}: {exc}"}
        finally:
            seconds[stage].append(time.perf_counter() - tic)
            if span is not None:
                tracer.finish(span)
        if failed:
            break
        if stage in ONLINE:
            found = artifact_digests(cfg.out_dir)
            first.setdefault(stage, found)
            changed += [f for f, h in first[stage].items() if found.get(f) != h]
    if tracer:
        tracer.save(args.trace)
    write_result(None)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
