"""Greedy Gaussian-kernel regression with shared centers for all outputs.

Centers are picked one at a time from the training inputs, maximizing the
residual norm weighted by the power function (the norm of the kernel
translate's remainder orthogonal to the selected span). Updates use the
Newton basis, which is what makes the power function cheap to maintain.
After selection the coefficients are re-fit by least squares against the
full training set, and the recorded residual history is the least-squares
residual of the first m centers, a nonincreasing sequence by nestedness.
"""

from __future__ import annotations

import warnings

import numpy as np

from .base import FittedRegressor, RegressorSpec
from .svr import kernel_gradients, kernel_matrix

POWER_FLOOR = 1e-13
RESIDUAL_STOP = 1e-12


class VKOGARegressor(FittedRegressor):
    differentiable = True
    _saved = (("centers_scaled", True), ("alpha", True), ("residual_history", False))

    def __init__(self, spec, lows, highs, centers_scaled, alpha, residual_history):
        super().__init__(spec, lows, highs, alpha.shape[1])
        self.centers_scaled = centers_scaled
        self.alpha = alpha
        self.gamma = spec["gamma"]
        self.residual_history = np.ravel(residual_history)

    @classmethod
    def fit(cls, spec: RegressorSpec, U, Y, lows, highs) -> "VKOGARegressor":
        m = Y.shape[0]
        n_centers = min(spec["max_centers"], m)

        kmat = kernel_matrix(U, U, "rbf", spec["gamma"])
        newton = np.zeros((m, n_centers))
        power2 = np.ones(m)  # k(x, x) = 1 for the Gaussian kernel
        resid = Y.copy()
        selected: list = []

        # discrete least-squares residual per center count, tracked through
        # an incrementally orthonormalized copy of the selected columns
        q_basis = np.zeros((m, n_centers))
        y_sq = np.sum(Y**2)
        proj_sq = 0.0
        history = [np.sqrt(y_sq)]

        warned_dup = False
        for it in range(n_centers):
            res_norm = np.linalg.norm(resid, axis=1)
            if res_norm.max() <= RESIDUAL_STOP:
                break
            p2 = np.maximum(power2, 0.0)
            usable = p2 > POWER_FLOOR
            usable[selected] = False
            dup = ~usable
            dup[selected] = False
            if dup.any() and not warned_dup:
                warnings.warn("skipping candidates with numerically zero power")
                warned_dup = True
            if not usable.any():
                break
            score = np.where(usable, res_norm / np.sqrt(np.where(usable, p2, 1.0)), -np.inf)
            j = int(np.argmax(score))
            pj = np.sqrt(p2[j])

            v_new = (kmat[:, j] - newton[:, :it] @ newton[j, :it]) / pj
            newton[:, it] = v_new
            power2 -= v_new**2
            resid -= np.outer(v_new, resid[j] / pj)
            selected.append(j)

            q = kmat[:, j] - q_basis[:, :it] @ (q_basis[:, :it].T @ kmat[:, j])
            q -= q_basis[:, :it] @ (q_basis[:, :it].T @ q)  # second pass for stability
            q_norm = np.linalg.norm(q)
            if q_norm > 1e-12:
                q /= q_norm
                q_basis[:, it] = q
                proj_sq += np.sum((q @ Y) ** 2)
            history.append(np.sqrt(max(y_sq - proj_sq, 0.0)))

        selected = np.asarray(selected, dtype=int)
        alpha, *_ = np.linalg.lstsq(kmat[:, selected], Y, rcond=None)
        return cls(spec, lows, highs, U[selected], alpha, history)

    def _predict_scaled(self, U: np.ndarray) -> np.ndarray:
        return kernel_matrix(U, self.centers_scaled, "rbf", self.gamma) @ self.alpha

    def _jacobian_scaled(self, u: np.ndarray) -> np.ndarray:
        return self.alpha.T @ kernel_gradients(u, self.centers_scaled, "rbf", self.gamma)

    @property
    def n_centers(self) -> int:
        return self.centers_scaled.shape[0]
