"""Speedups and errors per family and scheme, from one kept traced round.

    python3 bench/run.py --workload burgers-run --seed 0 --seconds 1 --trace 1 --keep
    python3 bench/ratios.py .bench_runs/burgers-run-s0-p<pid>/round0

Times are the traced spans of the online solves: tau_FOM is a surrogate's
solve over the full-order solve of the test trajectory (the last
full-order solve of that scheme in fom-solve), tau_ROM the same over the
Galerkin solve. Errors are the time-averaged e_FOM and e_ROM of the
round's summary tables, which the benchmark's checks recompute from the
saved trajectories. Prints a Markdown table.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
import sys

import numpy as np

SCHEMES = {"rk4": "rk4", "backward_euler": "be"}


def main(argv) -> int:
    rdir = Path(argv[1])
    z = np.load(rdir / "trace.npz")
    names = json.loads(str(z["names"]))
    dur = z["end"] - z["start"]

    def last(name):
        hits = np.nonzero(z["name_id"] == names.index(name))[0] if name in names else []
        return float(dur[hits[-1]]) if len(hits) else float("nan")

    print("| family | scheme | online s | tau_FOM | tau_ROM | e_FOM | e_ROM |")
    print("|---|---|---|---|---|---|---|")
    for scheme, tag in SCHEMES.items():
        fom, gal = last(f"integrate.fom.{tag}"), last(f"integrate.galerkin.{tag}")
        print(f"| FOM | {tag} | {fom:.3g} | 1 | | 0 | |")
        with open(rdir / "out" / "reports" / f"summary_{scheme}.csv") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            name = row["method"]
            t = gal if name == "Galerkin" else last(f"integrate.surrogate.{name}.{tag}")
            e_rom = "" if name == "Galerkin" else f"{float(row['avg_e_rom']):.2e}"
            print(f"| {name} | {tag} | {t:.3g} | {t / fom:.3g} | {t / gal:.3g} | "
                  f"{float(row['avg_e_fom']):.2e} | {e_rom} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
