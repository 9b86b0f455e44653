"""Checks of one `nirom run` directory against computations made apart from it.

Nothing here calls the package. The two velocity fields are implemented
again from the equations in the docstrings of `nirom/problems.py`, the
artifact formats are parsed by small readers of their own, and every
fitted model is evaluated from its saved payload. Each check names the
operation whose output it judges (a stage run, a model fit or a
trajectory solve), so a failed check marks that operation as failed.

The checks:

* full-order states: backward-Euler residual within the Newton
  tolerance, RK4 steps reproduced, Dirichlet nodes and initial states;
* POD: orthonormal V, offset equal to the snapshot mean, reconstruction
  error equal to the discarded singular-value energy, energy criterion;
* designs and targets: one point per Latin stratum in every coordinate,
  the sampling box, targets equal to V^T f(xbar + V xhat);
* fits: kNN against a brute-force k-nearest mean, SINDy residuals
  orthogonal to the active library columns, VKOGA centres drawn from the
  training inputs with a non-increasing residual history, boosting below
  the error of its base value, forest predictions inside the target
  range, SVR duals that satisfy their KKT conditions;
* trajectories and reports: Galerkin step relations, finite surrogate
  trajectories, the acceptance bounds of criteria 2 and 3, and summary,
  error, Pareto and bound files recomputed from the saved trajectories.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

# Newton stops once ||dy|| <= tol * (1 + ||y||); the residual left after that
# last update is at most ||I - hJ|| times as large, and ||hJ|| stays below 10
# on both problems at the pinned step counts.
NEWTON_SLACK = 10.0
RK4_RTOL = 1e-10
TARGET_RTOL = 1e-9
SUMMARY_RTOL = 1e-9
SINDY_RTOL = 1e-8
KKT_RTOL = 1e-3
# The check that fails today on every SVR fit (see bench/README.md).
SVR_KKT = "dual KKT conditions"
LIFT_RTOL = 1e-12

# Artifacts that carry wall-clock values and so differ between reruns.
CLOCK_FILES = ("reports/timings.txt", "reports/summary_", "reports/pareto_")

# Acceptance bands of criterion 2 (Galerkin BE e_FOM) and bounds of criterion 3.
CRITERION_2 = {"burgers": (0.0346, 2.0), "convdiff": (0.0029, 3.0)}
CRITERION_3 = {
    "burgers": [("sindy", "backward_euler", 1e-3)],
    "convdiff": [("vkoga", "backward_euler", 0.02), ("sindy", "rk4", 0.02)],
}

# ----------------------------------------------------------------- problems


class Burgers:
    """u_t + (u^2/2)_x = 0.02 exp(b x) on [0, 100], 501 nodes, first-order
    upwind flux differences, u_0 = a held fixed."""

    name = "burgers"
    dim = 501
    t_final = 25.0
    lows = np.array([1.5, 0.02])
    highs = np.array([2.0, 0.025])

    def __init__(self):
        self.dx = 100.0 / 500.0
        self.xs = np.arange(self.dim) * self.dx

    def initial_state(self, mu):
        u = np.ones(self.dim)
        u[0] = mu[0]
        return u

    def velocity(self, U, mus):
        """Columns of U are states; mus holds one parameter row per column
        (or one row for all)."""
        U = np.atleast_2d(np.asarray(U, float).T).T
        b = np.broadcast_to(np.atleast_2d(mus)[:, 1], (U.shape[1],))
        flux = 0.5 * U * U
        out = np.zeros_like(U)
        out[1:] = -(flux[1:] - flux[:-1]) / self.dx + 0.02 * np.exp(
            self.xs[1:, None] * b[None, :]
        )
        return out

    def boundary_ok(self, X, mu):
        return bool(np.all(X[0] == mu[0]))


class ConvDiff:
    """u_t = 0.01 Lap(u) - (0.01 mu1/mu2)(exp(mu2 u) - 1) + cos(2 pi x) cos(2 pi y)
    on the unit square, 51 x 51 nodes row-major, zero on the frame."""

    name = "convdiff"
    n = 51
    dim = 51 * 51
    t_final = 2.0
    mu0 = 0.01
    lows = np.array([9.0, 9.0])
    highs = np.array([10.0, 10.0])

    def __init__(self):
        self.h = 1.0 / (self.n - 1)
        c = np.arange(self.n) * self.h
        self.forcing = np.cos(2 * np.pi * c)[:, None] * np.cos(2 * np.pi * c)[None, :]

    def initial_state(self, mu):
        return np.zeros(self.dim)

    def velocity(self, U, mus):
        U = np.atleast_2d(np.asarray(U, float).T).T
        m = U.shape[1]
        mus = np.atleast_2d(mus)
        mu1 = np.broadcast_to(mus[:, 0], (m,))
        mu2 = np.broadcast_to(mus[:, 1], (m,))
        G = U.reshape(self.n, self.n, m)
        inner = G[1:-1, 1:-1]
        lap = (G[2:, 1:-1] + G[:-2, 1:-1] + G[1:-1, 2:] + G[1:-1, :-2] - 4.0 * inner) / self.h**2
        out = np.zeros_like(G)
        out[1:-1, 1:-1] = (
            self.mu0 * lap
            - (self.mu0 * mu1 / mu2) * (np.exp(mu2 * inner) - 1.0)
            + self.forcing[1:-1, 1:-1, None]
        )
        return out.reshape(self.dim, m)

    def boundary_ok(self, X, mu):
        G = X.reshape(self.n, self.n, -1)
        frame = np.concatenate([G[0].ravel(), G[-1].ravel(), G[:, 0].ravel(), G[:, -1].ravel()])
        return bool(np.all(frame == 0.0))


PROBLEMS = {"burgers": Burgers, "convdiff": ConvDiff}

# ------------------------------------------------------------------ readers


def read_matrix(path) -> np.ndarray:
    with open(path) as fh:
        rows, cols = (int(v) for v in fh.readline().split())
        flat = np.array(fh.read().split(), dtype=float)
    if flat.size != rows * cols:
        raise ValueError(f"{path}: {flat.size} values for a {rows}x{cols} matrix")
    return flat.reshape(cols, rows).T


def read_kv(path) -> Dict[str, str]:
    out = {}
    with open(path) as fh:
        for line in fh:
            key, sep, val = line.partition("=")
            if sep:
                out[key.strip()] = val.strip()
    return out


def read_rows(path) -> List[List[str]]:
    """The rows of a CSV file after its header."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


@dataclass
class Model:
    family: str
    params: Dict[str, str]
    lows: np.ndarray
    highs: np.ndarray
    blocks: Dict[str, np.ndarray]

    def scale(self, Z):
        width = np.where(self.highs > self.lows, self.highs - self.lows, 1.0)
        return (np.asarray(Z, float) - self.lows) / width


def read_model(path) -> Model:
    with open(path) as fh:
        head = fh.readline().split()
        if head[0] != "family":
            raise ValueError(f"{path}: not a model file")
        params = dict(tok.split("=", 1) for tok in head[2:])
        fh.readline()  # dims line
        blocks = {}
        for line in fh:
            tag, rows, cols = line.split()
            rows, cols = int(rows), int(cols)
            vals = np.array(
                " ".join(fh.readline() for _ in range(cols)).split(), dtype=float
            )
            blocks[tag[1:]] = vals.reshape(cols, rows).T
    box = blocks.pop("box")
    return Model(head[1], params, box[0], box[1], blocks)


@dataclass
class Config:
    problem: str
    test_mu: np.ndarray
    energy: float
    max_modes: int
    n_training: int
    n_validation: int
    nt: Dict[str, int]
    newton_tol: float
    models: Dict[str, str]


def read_config(path) -> Config:
    p = configparser.ConfigParser()
    p.read(path)
    g = p["integration"]
    schemes = g["schemes"].split()
    return Config(
        problem=p["experiment"]["problem"],
        test_mu=np.array(p["experiment"]["test_mu"].split(), dtype=float),
        energy=p["pod"].getfloat("energy"),
        max_modes=p["pod"].getint("max_modes"),
        n_training=p["sampling"].getint("n_training"),
        n_validation=p["sampling"].getint("n_validation"),
        nt={s: g.getint(f"nt_{s}") for s in schemes},
        newton_tol=g.getfloat("newton_tol"),
        models={k: v for k, v in p["models"].items()},
    )


# ------------------------------------------------------------- primitives


def artifact_digests(out_dir) -> Dict[str, str]:
    """SHA-256 of every deterministic artifact of a run directory."""
    out = {}
    root = Path(out_dir)
    for f in sorted(root.rglob("*")):
        rel = f.relative_to(root).as_posix()
        if f.is_file() and not rel.startswith(CLOCK_FILES):
            out[rel] = hashlib.sha256(f.read_bytes()).hexdigest()
    return out


def be_residual(velocity, X, h) -> np.ndarray:
    """Per step ||x_{j+1} - x_j - h f(x_{j+1})|| / (1 + ||x_{j+1}||)."""
    R = X[:, 1:] - X[:, :-1] - h * velocity(X[:, 1:])
    return np.linalg.norm(R, axis=0) / (1.0 + np.linalg.norm(X[:, 1:], axis=0))


def rk4_defect(velocity, X, h) -> np.ndarray:
    """Per step distance of x_{j+1} from one RK4 step of x_j, relative."""
    x = X[:, :-1]
    k1 = velocity(x)
    k2 = velocity(x + 0.5 * h * k1)
    k3 = velocity(x + 0.5 * h * k2)
    k4 = velocity(x + h * k3)
    step = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.linalg.norm(X[:, 1:] - step, axis=0) / (1.0 + np.linalg.norm(X[:, 1:], axis=0))


def latin_strata_ok(points, lows, highs) -> bool:
    """Every coordinate has exactly one point in each of the m equal strata."""
    m = points.shape[0]
    u = (points - lows) / (highs - lows)
    strata = np.floor(u * m).astype(int)
    return all(np.array_equal(np.sort(col), np.arange(m)) for col in strata.T)


def pod_defects(S, V, offset, sigma, energy, max_modes) -> Dict[str, float]:
    """How far a centred POD basis is from its defining properties.

    Returns the orthonormality gap, the offset's distance from the snapshot
    mean, the relative gap between the reconstruction error and the
    discarded energy, and the dimension the energy criterion asks for.
    """
    n = V.shape[1]
    Sc = S - offset[:, None]
    total = float(np.sum(Sc * Sc))
    resid = Sc - V @ (V.T @ Sc)
    sq = sigma**2
    ratios = np.cumsum(sq) / np.sum(sq)
    wanted = min(int(np.searchsorted(ratios, energy) + 1), max_modes)
    return {
        "ortho": float(np.max(np.abs(V.T @ V - np.eye(n)))),
        "offset": float(np.max(np.abs(offset - S.mean(axis=1))) / (1.0 + np.max(np.abs(S)))),
        "energy_total": abs(float(np.sum(sq)) - total) / total,
        "discarded": abs(float(np.sum(resid * resid)) - float(np.sum(sq[n:]))) / total,
        "retained": float(ratios[n - 1]),
        "wanted_n": wanted,
    }


def kernel(A, B, name, gamma):
    if name == "rbf":
        d2 = np.sum(A * A, 1)[:, None] + np.sum(B * B, 1)[None, :] - 2.0 * A @ B.T
        return np.exp(-gamma * np.maximum(d2, 0.0))
    return (A @ B.T + 1.0) ** {"poly2": 2, "poly3": 3}[name]


def svr_kkt_violation(K, y, beta, eps, c_box) -> float:
    """Largest KKT violation of min 0.5 b'Kb - y'b + eps|b|_1, |b_i| <= C.

    With g = K beta - y, optimality asks -g_i to lie in eps * d|beta_i|
    plus the normal cone of the box at beta_i. The distance from that set
    is returned in units of y, the largest over all coordinates.
    """
    g = K @ beta - y
    at_hi = beta >= c_box
    at_lo = beta <= -c_box
    pos = (beta > 0) & ~at_hi
    neg = (beta < 0) & ~at_lo
    zero = beta == 0
    v = np.zeros_like(beta)
    v[pos] = np.abs(g[pos] + eps)
    v[neg] = np.abs(g[neg] - eps)
    v[zero] = np.maximum(np.abs(g[zero]) - eps, 0.0)
    v[at_hi] = np.maximum(g[at_hi] + eps, 0.0)
    v[at_lo] = np.maximum(eps - g[at_lo], 0.0)
    return float(v.max()) if v.size else 0.0


def sindy_library(U):
    m, d = U.shape
    ks, ls = np.triu_indices(d)
    return np.hstack([np.ones((m, 1)), U, U[:, ks] * U[:, ls]])


def tree_predict(nodes, values, U) -> np.ndarray:
    """Walk every row of U down one saved tree (nodes: feature, threshold,
    left, right; a negative feature marks a leaf)."""
    feat = nodes[:, 0].astype(int)
    thr = nodes[:, 1]
    left = nodes[:, 2].astype(int)
    right = nodes[:, 3].astype(int)
    at = np.zeros(U.shape[0], dtype=int)
    rows = np.arange(U.shape[0])
    while True:
        inner = feat[at] >= 0
        if not inner.any():
            return values[at]
        i = rows[inner]
        node = at[i]
        go_left = U[i, feat[node]] <= thr[node]
        at[i] = np.where(go_left, left[node], right[node])


def ensemble_predict(model: Model, U) -> np.ndarray:
    count = int(model.blocks["n_trees"][0, 0])
    trees = [
        tree_predict(model.blocks[f"tree{i}_nodes"], model.blocks[f"tree{i}_values"], U)
        for i in range(count)
    ]
    if model.family == "forest":
        return np.mean(trees, axis=0)
    lr = float(model.params["learning_rate"])
    return model.blocks["base_value"][0] + lr * np.sum(trees, axis=0)


def relative_series(test, ref):
    d = np.linalg.norm(ref, axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(d > 0, np.linalg.norm(test - ref, axis=0) / np.where(d > 0, d, 1.0), np.nan)


def time_average(t, s):
    ok = np.isfinite(s)
    t, s = t[ok], s[ok]
    return float(np.sum(0.5 * (s[1:] + s[:-1]) * np.diff(t)) / (t[-1] - t[0]))


def pareto_flags(times, errors, labels):
    order = sorted(range(len(labels)), key=lambda i: (times[i], errors[i], labels[i]))
    best, flags = np.inf, [0] * len(labels)
    for i in order:
        if errors[i] < best:
            flags[i], best = 1, errors[i]
    return flags


def bound_formula(K, T, e_o, e_i0, C):
    if K == 0.0:
        return e_o + e_i0 + C * T
    g = np.exp(K * T)
    return g * e_o + g * e_i0 + (C / K) * (g - 1.0)


def close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


# ------------------------------------------------------------------ results


@dataclass
class Result:
    """The failed checks, grouped by the operation they judge."""

    failed: Dict[str, List[str]] = field(default_factory=dict)

    def check(self, op: str, name: str, ok: bool, detail: str = "") -> None:
        if not ok:
            self.failed.setdefault(op, []).append(f"{name}: {detail}" if detail else name)

    def fail(self, op: str, why: str) -> None:
        self.check(op, "error", False, why)


# --------------------------------------------------------------- the checks


class RunChecker:
    """Judges one finished run directory; `ops` lists what a run attempts."""

    def __init__(self, cfg: Config, run_dir: Path):
        self.cfg = cfg
        self.dir = Path(run_dir)
        self.problem = PROBLEMS[cfg.problem]()
        self.res = Result()
        self.schemes = list(cfg.nt)
        self.lines = sorted(cfg.models)

    @staticmethod
    def ops(cfg: Config, stages) -> List[str]:
        out = [f"stage:{s}" for s in stages]
        out += [f"fit:{name}" for name in sorted(cfg.models)]
        out += [f"solve:fom_corner_{i}" for i in range(4)]
        out += [f"solve:fom_{s}" for s in cfg.nt]
        out += [f"solve:galerkin_{s}" for s in cfg.nt]
        out += [f"solve:{name}_{s}" for s in cfg.nt for name in sorted(cfg.models)]
        return out

    def p(self, *parts) -> Path:
        return self.dir.joinpath(*parts)

    def vel(self, mu):
        return lambda X: self.problem.velocity(X, mu)

    def guarded(self, op, fn, *args):
        try:
            fn(*args)
        except Exception as exc:  # a missing or malformed artifact
            self.res.fail(op, f"{type(exc).__name__}: {exc}")

    def run(self, done_stages) -> Result:
        steps = [
            ("fom-solve", "stage:fom-solve", self.check_fom),
            ("pod", "stage:pod", self.check_pod),
            ("sample", "stage:sample", self.check_sample),
            ("train", "stage:train", self.check_fits),
            ("rom-solve", "stage:rom-solve", self.check_rom),
            ("report", "stage:report", self.check_report),
        ]
        for stage, op, fn in steps:
            if stage in done_stages:
                self.guarded(op, fn)
        return self.res

    # full-order runs -------------------------------------------------------

    def check_fom(self):
        prob, cfg = self.problem, self.cfg
        corners = [np.array([a, b]) for a in (prob.lows[0], prob.highs[0])
                   for b in (prob.lows[1], prob.highs[1])]
        self.snapshots = []
        for i, mu in enumerate(corners):
            op = f"solve:fom_corner_{i}"
            X = read_matrix(self.p("snapshots", f"corner_{i}.txt"))
            meta = read_kv(self.p("snapshots", f"corner_{i}.meta"))
            self.res.check(op, "corner parameter", np.array_equal(
                np.array(meta["mu"].split(), float), mu), meta["mu"])
            self.fom_checks(op, X, mu, "backward_euler")
            self.snapshots.append(X)
        for scheme in self.schemes:
            X = read_matrix(self.p("trajectories", f"fom_{scheme}.txt"))
            self.fom_checks(f"solve:fom_{scheme}", X, cfg.test_mu, scheme)

    def fom_checks(self, op, X, mu, scheme):
        r, prob = self.res, self.problem
        r.check(op, "shape", X.shape == (prob.dim, self.cfg.nt[scheme] + 1), str(X.shape))
        self.step_check(op, self.vel(mu), X, scheme)
        r.check(op, "initial state", np.array_equal(X[:, 0], prob.initial_state(mu)))
        r.check(op, "Dirichlet nodes", prob.boundary_ok(X, mu))

    def step_check(self, op, velocity, X, scheme):
        """X follows its scheme's step relation under `velocity`."""
        h = self.problem.t_final / self.cfg.nt[scheme]
        if scheme == "rk4":
            d = rk4_defect(velocity, X, h).max()
            self.res.check(op, "rk4 steps", d <= RK4_RTOL, f"max defect {d:.2e}")
        else:
            d = be_residual(velocity, X, h).max()
            tol = NEWTON_SLACK * self.cfg.newton_tol
            self.res.check(op, "backward-Euler residual", d <= tol,
                           f"max {d:.2e}, allowed {tol:.0e}")

    # POD -------------------------------------------------------------------

    def load_basis(self):
        V = read_matrix(self.p("basis", "V.txt"))
        meta = read_kv(self.p("basis", "meta.txt"))
        offset = (read_matrix(self.p("basis", "V.txt.offset"))[:, 0]
                  if int(meta["offset_nonzero"]) else np.zeros(V.shape[0]))
        sigma = np.array(meta["singular_values"].split(), float)
        return V, offset, sigma

    def check_pod(self):
        r, cfg = self.res, self.cfg
        op = "stage:pod"
        V, offset, sigma = self.load_basis()
        S = np.hstack(self.snapshots)
        d = pod_defects(S, V, offset, sigma, cfg.energy, cfg.max_modes)
        n = V.shape[1]
        r.check(op, "V orthonormal", d["ortho"] <= 1e-10, f"gap {d['ortho']:.1e}")
        r.check(op, "offset is the snapshot mean", d["offset"] <= 1e-12, f"{d['offset']:.1e}")
        r.check(op, "singular values carry the snapshot energy",
                d["energy_total"] <= 1e-9, f"{d['energy_total']:.1e}")
        r.check(op, "reconstruction error is the discarded energy",
                d["discarded"] <= 1e-9, f"{d['discarded']:.1e}")
        r.check(op, "energy criterion",
                n == d["wanted_n"] and (d["retained"] >= cfg.energy or n == cfg.max_modes),
                f"n={n}, retained {d['retained']:.6f}")
        self.V, self.offset = V, offset

    # designs and targets ---------------------------------------------------

    def load_set(self, tag):
        meta = read_kv(self.p("training", f"{tag}.meta"))
        rows = read_rows(self.p("training", f"{tag}.csv"))
        table = np.array(rows, dtype=float)
        d = int(meta["n_state"]) + 1 + int(meta["n_params"])
        lows = np.array(meta["lows"].split(), float)
        highs = np.array(meta["highs"].split(), float)
        return table[:, :d], table[:, d:], lows, highs

    def check_sample(self):
        r, cfg, prob = self.res, self.cfg, self.problem
        op = "stage:sample"
        V, offset = self.V, self.offset
        n = V.shape[1]
        z = V.T @ (np.hstack(self.snapshots) - offset[:, None])
        lo, hi = z.min(axis=1), z.max(axis=1)
        w = hi - lo
        box_lo = np.concatenate([lo - 0.1 * w, [0.0], prob.lows])
        box_hi = np.concatenate([hi + 0.1 * w, [prob.t_final], prob.highs])
        self.sets = {}
        for tag, count in (("train", cfg.n_training), ("valid", cfg.n_validation)):
            X, Y, lows, highs = self.load_set(tag)
            r.check(op, f"{tag} size", X.shape == (count, n + 3) and Y.shape == (count, n),
                    f"{X.shape} {Y.shape}")
            box_ok = (np.allclose(lows, box_lo, rtol=1e-12, atol=1e-12)
                      and np.allclose(highs, box_hi, rtol=1e-12, atol=1e-12))
            r.check(op, f"{tag} sampling box", box_ok)
            r.check(op, f"{tag} Latin strata", latin_strata_ok(X, lows, highs))
            full = offset[:, None] + V @ X[:, :n].T
            F = V.T @ prob.velocity(full, X[:, n + 1:])
            err = np.max(np.abs(F.T - Y)) / np.max(np.abs(F))
            r.check(op, f"{tag} targets are V^T f(xbar + V xhat)", err <= TARGET_RTOL,
                    f"max rel {err:.1e}")
            self.sets[tag] = (X, Y, lows, highs)

    # fits ------------------------------------------------------------------

    def check_fits(self):
        for name in self.lines:
            self.guarded(f"fit:{name}", self.check_fit, name)

    def check_fit(self, name):
        r = self.res
        op = f"fit:{name}"
        X, Y, lows, highs = self.sets["train"]
        Xv = self.sets["valid"][0]
        m = read_model(self.p("models", f"{name}.txt"))
        r.check(op, "box is the training box",
                np.array_equal(m.lows, lows) and np.array_equal(m.highs, highs))
        U, Uv = m.scale(X), m.scale(Xv)
        fam = m.family
        if fam == "knn":
            k = int(m.params["n_neighbors"])
            stored = np.array_equal(m.blocks["targets"].T, Y) and np.allclose(
                m.blocks["inputs_scaled"].T, U, rtol=0, atol=1e-15)
            r.check(op, "stores the training rows", stored)
            stored_u = m.blocks["inputs_scaled"].T
            self.knn_brute = lambda Q: np.array([
                Y[np.argsort(np.linalg.norm(stored_u - q, axis=1), kind="stable")[:k]].mean(0)
                for q in m.scale(Q)])
        elif fam == "sindy":
            theta = m.blocks["theta"]
            Phi = sindy_library(U)
            worst = 0.0
            for i in range(Y.shape[1]):
                act = theta[:, i] != 0.0
                if not act.any():
                    continue
                A = Phi[:, act]
                res = Y[:, i] - A @ theta[act, i]
                a2 = np.linalg.norm(A, 2)
                scale = a2 * (a2 * np.linalg.norm(theta[act, i]) + np.linalg.norm(Y[:, i]))
                worst = max(worst, np.linalg.norm(A.T @ res) / scale)
            r.check(op, "residuals orthogonal to the active columns", worst <= SINDY_RTOL,
                    f"max rel {worst:.1e}")
        elif fam == "vkoga":
            C = m.blocks["centers_scaled"].T
            hist = m.blocks["residual_history"][0]
            d = np.min(np.abs(C[:, None, :] - U[None, :, :]).max(axis=2), axis=1)
            r.check(op, "centres are training inputs", d.max() <= 1e-15, f"max gap {d.max():.1e}")
            r.check(op, "residual history does not increase",
                    bool(np.all(np.diff(hist) <= 1e-12 * hist[0])),
                    f"{hist[0]:.3e} -> {hist[-1]:.3e} over {hist.size - 1} centres")
        elif fam == "boosting":
            base = m.blocks["base_value"][0]
            fit_err = np.mean((ensemble_predict(m, U) - Y) ** 2)
            base_err = np.mean((base - Y) ** 2)
            r.check(op, "base value is the target mean", np.allclose(base, Y.mean(0), rtol=1e-12, atol=0))
            r.check(op, "training error below the base value's", fit_err < base_err,
                    f"{fit_err:.3e} < {base_err:.3e}")
        elif fam == "forest":
            pred = ensemble_predict(m, Uv)
            inside = np.all(pred >= Y.min(0) - 1e-12 * np.abs(Y).max()) and np.all(
                pred <= Y.max(0) + 1e-12 * np.abs(Y).max())
            r.check(op, "predictions inside the target range", bool(inside))
        elif fam == "svr":
            Us = m.blocks["inputs_scaled"].T
            beta = m.blocks["beta"].T
            K = kernel(Us, Us, m.params["kernel"], float(m.params["gamma"]))
            eps, c_box = float(m.params["epsilon"]), float(m.params["c_box"])
            r.check(op, "stores the scaled training inputs",
                    np.allclose(Us, U, rtol=0, atol=1e-15))
            viol = [svr_kkt_violation(K, Y[:, i], beta[:, i], eps, c_box) / np.abs(Y[:, i]).max()
                    for i in range(Y.shape[1])]
            r.check(op, SVR_KKT, max(viol) <= KKT_RTOL,
                    "violation / max|y| per output: " + " ".join(f"{v:.1e}" for v in viol))
        else:
            r.fail(op, f"unknown family {fam}")

    # online solves ---------------------------------------------------------

    def load_traj(self, name):
        X = read_matrix(self.p("trajectories", f"{name}.txt"))
        meta = read_kv(self.p("trajectories", f"{name}.meta"))
        t = np.linspace(float(meta["t0"]), float(meta["t_final"]), int(meta["num_steps"]) + 1)
        return t, X

    def check_rom(self):
        r, cfg, prob = self.res, self.cfg, self.problem
        V, offset, mu = self.V, self.offset, cfg.test_mu
        gal_vel = lambda Z: V.T @ prob.velocity(offset[:, None] + V @ Z, mu)
        x0 = V.T @ (prob.initial_state(mu) - offset)
        self.traj = {}
        for scheme in self.schemes:
            op = f"solve:galerkin_{scheme}"
            t, G = self.load_traj(f"galerkin_{scheme}")
            r.check(op, "shape", G.shape == (V.shape[1], cfg.nt[scheme] + 1), str(G.shape))
            r.check(op, "initial state", np.allclose(
                G[:, 0], x0, rtol=0, atol=LIFT_RTOL * (1 + np.abs(x0).max())))
            self.step_check(op, gal_vel, G, scheme)
            self.traj[f"galerkin_{scheme}"] = (t, G)
            for name in self.lines:
                op = f"solve:{name}_{scheme}"
                self.guarded(op, self.check_surrogate_traj, op, name, scheme, G)
            self.traj[f"fom_{scheme}"] = self.load_traj(f"fom_{scheme}")
        if "knn_rk4" in self.traj and hasattr(self, "knn_brute"):
            t, Xk = self.traj["knn_rk4"]
            worst = self.knn_rk4_defect(Xk, t, prob.t_final / cfg.nt["rk4"], mu)
            r.check("fit:knn", "brute-force k-nearest mean", worst <= RK4_RTOL,
                    f"RK4 steps rebuilt from brute-force means, max defect {worst:.1e}")

    def knn_rk4_defect(self, Xk, t, h, mu, samples=40):
        """Rebuild sampled RK4 steps of the kNN trajectory with the brute-force
        mean as velocity; the saved states must follow."""
        nt = Xk.shape[1] - 1
        f = lambda x, s: self.knn_brute(np.concatenate([x, [s], mu])[None, :])[0]
        worst = 0.0
        for j in range(0, nt, max(1, nt // samples)):
            x = Xk[:, j]
            k1 = f(x, t[j])
            k2 = f(x + 0.5 * h * k1, t[j] + 0.5 * h)
            k3 = f(x + 0.5 * h * k2, t[j] + 0.5 * h)
            k4 = f(x + h * k3, t[j] + h)
            step = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            worst = max(worst, np.linalg.norm(step - Xk[:, j + 1]) / (1 + np.linalg.norm(step)))
        return worst

    def check_surrogate_traj(self, op, name, scheme, G):
        r = self.res
        t, X = self.load_traj(f"{name}_{scheme}")
        r.check(op, "shape", X.shape == G.shape, str(X.shape))
        r.check(op, "finite", bool(np.all(np.isfinite(X))))
        r.check(op, "starts at the Galerkin initial state", np.array_equal(X[:, 0], G[:, 0]))
        self.traj[f"{name}_{scheme}"] = (t, X)

    # reports ---------------------------------------------------------------

    def check_report(self):
        r, cfg = self.res, self.cfg
        op = "stage:report"
        V, offset = self.V, self.offset
        lift = lambda Z: offset[:, None] + V @ Z
        timings = read_kv(self.p("reports", "timings.txt"))
        manifest = read_kv(self.p("reports", "manifest.txt"))
        avg = {}
        for scheme in self.schemes:
            t, F = self.traj[f"fom_{scheme}"]
            _, G = self.traj[f"galerkin_{scheme}"]
            LG = lift(G)
            gal_e_fom = time_average(t, relative_series(LG, F))
            avg[("galerkin", scheme)] = (gal_e_fom, 0.0)
            rows = read_rows(self.p("reports", f"summary_{scheme}.csv"))
            table = {row[0]: row for row in rows}
            fom_wall = float(timings[f"wall_fom_{scheme}"])
            gal_wall = float(timings[f"wall_galerkin_{scheme}"])
            labels, taus, errs = [], [], []
            ok_sum = ok_err = ok_time = True
            ok_sum &= close(float(table["Galerkin"][4]), gal_e_fom, SUMMARY_RTOL)
            for name in self.lines:
                tt, X = self.traj[f"{name}_{scheme}"]
                LX = lift(X)
                e_fom = relative_series(LX, F)
                e_rom = relative_series(LX, LG)
                a_fom, a_rom = time_average(tt, e_fom), time_average(tt, e_rom)
                avg[(name, scheme)] = (a_fom, a_rom)
                row = table[name]
                ok_sum &= close(float(row[4]), a_fom, SUMMARY_RTOL) and close(
                    float(row[5]), a_rom, SUMMARY_RTOL)
                erows = read_rows(self.p("reports", f"errors_{name}_{scheme}.csv"))
                E = np.array(erows, float)
                ok_err &= all(np.allclose(E[:, k], e, rtol=SUMMARY_RTOL, atol=0, equal_nan=True)
                              for k, e in ((1, e_fom), (2, e_rom)))
                wall = float(timings[f"wall_{name}_{scheme}"])
                ok_time &= close(float(row[1]), wall, 1e-15) and close(
                    float(row[2]), wall / fom_wall, 1e-12) and close(float(row[3]), wall / gal_wall, 1e-12)
                extrap = manifest.get(f"extrapolation_fraction_{name}_{scheme}", "")
                ok_time &= row[6] == extrap
                labels.append(name)
                taus.append(wall / fom_wall)
                errs.append(a_fom)
            r.check(op, f"summary_{scheme} errors recomputed", ok_sum)
            r.check(op, f"errors_*_{scheme} series recomputed", ok_err)
            r.check(op, f"summary_{scheme} times and ratios", ok_time)
            prow = read_rows(self.p("reports", f"pareto_{scheme}.csv"))
            flags = pareto_flags(taus, errs, labels)
            saved = {row[0]: int(row[3]) for row in prow}
            r.check(op, f"pareto_{scheme} frontier", saved == dict(zip(labels, flags)))
            self.check_bounds(scheme, F, t)
        self.check_criteria(avg)

    def check_bounds(self, scheme, F, t):
        r = self.res
        V, offset = self.V, self.offset
        for name in self.lines:
            path = self.p("reports", f"bound_{name}_{scheme}.txt")
            m = read_model(self.p("models", f"{name}.txt"))
            if m.family not in ("sindy", "vkoga", "svr"):
                r.check("stage:report", f"no bound for {name}", not path.exists())
                continue
            b = {k: float(v) for k, v in read_kv(path).items()}
            _, X = self.traj[f"{name}_{scheme}"]
            measured = float(np.max(np.linalg.norm(offset[:, None] + V @ X - F, axis=0)))
            defect = F - (offset[:, None] + V @ (V.T @ (F - offset[:, None])))
            e_o = float(np.max(np.linalg.norm(defect, axis=0)))
            value = bound_formula(b["lipschitz_K"], t[-1] - t[0], b["orthogonal_error_sup"],
                                  b["initial_reduced_error"], b["regression_sup_C"])
            ok = (close(b["measured_sup_error"], measured, 1e-9)
                  and close(b["orthogonal_error_sup"], e_o, 1e-9)
                  and close(b["bound"], value, 1e-9)
                  and int(b["holds"]) == int(b["measured_sup_error"] <= b["bound"]))
            r.check("stage:report", f"bound_{name}_{scheme}", ok)

    def check_criteria(self, avg):
        r, prob = self.res, self.problem.name
        target, factor = CRITERION_2[prob]
        gal = avg[("galerkin", "backward_euler")][0]
        r.check("stage:report", "criterion 2: Galerkin BE e_FOM band",
                target / factor <= gal <= target * factor,
                f"{gal:.4f} in [{target / factor:.4f}, {target * factor:.4f}]")
        for name, scheme, bound in CRITERION_3[prob]:
            if (name, scheme) not in avg:
                continue
            a_fom, a_rom = avg[(name, scheme)]
            ok = a_rom <= bound
            detail = f"{name}+{scheme} e_ROM {a_rom:.2e} <= {bound:g}"
            if prob == "burgers":
                ok &= abs(a_fom / gal - 1.0) <= 0.1
                detail += f", e_FOM {a_fom:.4f} within 10% of {gal:.4f}"
            r.check("stage:report", "criterion 3", ok, detail)
