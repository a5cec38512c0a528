"""Support Vector Machines: binary SMO solver + one-vs-rest multiclass.

``SVC`` solves the dual soft-margin problem with the simplified SMO
algorithm (Platt 1998; simplified pair-selection variant) on a
precomputed kernel matrix, with RBF and linear kernels.  Multiclass is
one-vs-rest, matching scikit-learn's ``decision_function_shape="ovr"``.

To bound the O(n^2) kernel cost on large training sets, ``max_samples``
subsamples the training data (stratified) before solving — the paper's
SVM underfits this dataset anyway (Table II), and the subsample keeps
that behaviour while staying tractable.
"""

from __future__ import annotations

import numpy as np


def _rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    d2 = (np.sum(A**2, axis=1)[:, None] - 2.0 * A @ B.T
          + np.sum(B**2, axis=1)[None, :])
    return np.exp(-gamma * np.maximum(d2, 0.0))


class _BinarySVM:
    """Soft-margin binary SVM trained with simplified SMO."""

    def __init__(self, C: float, kernel: str, gamma: float, tol: float,
                 max_passes: int, max_iter: int, seed: int) -> None:
        self.C = C
        self.kernel = kernel
        self.gamma = gamma
        self.tol = tol
        self.max_passes = max_passes
        self.max_iter = max_iter
        self.seed = seed

    def _K(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        if self.kernel == "rbf":
            return _rbf_kernel(A, B, self.gamma)
        return A @ B.T

    def fit(self, X: np.ndarray, y: np.ndarray) -> "_BinarySVM":
        """y in {-1, +1}."""
        n = len(X)
        rng = np.random.default_rng(self.seed)
        K = self._K(X, X)
        alpha = np.zeros(n)
        b = 0.0
        passes = iters = 0
        while passes < self.max_passes and iters < self.max_iter:
            changed = 0
            for i in range(n):
                Ei = float((alpha * y) @ K[:, i] + b - y[i])
                if not ((y[i] * Ei < -self.tol and alpha[i] < self.C) or
                        (y[i] * Ei > self.tol and alpha[i] > 0)):
                    continue
                j = int(rng.integers(n - 1))
                if j >= i:
                    j += 1
                Ej = float((alpha * y) @ K[:, j] + b - y[j])
                ai_old, aj_old = alpha[i], alpha[j]
                if y[i] != y[j]:
                    L = max(0.0, aj_old - ai_old)
                    H = min(self.C, self.C + aj_old - ai_old)
                else:
                    L = max(0.0, ai_old + aj_old - self.C)
                    H = min(self.C, ai_old + aj_old)
                if L >= H:
                    continue
                eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
                if eta >= 0:
                    continue
                aj = aj_old - y[j] * (Ei - Ej) / eta
                aj = min(max(aj, L), H)
                if abs(aj - aj_old) < 1e-6:
                    continue
                ai = ai_old + y[i] * y[j] * (aj_old - aj)
                alpha[i], alpha[j] = ai, aj
                b1 = (b - Ei - y[i] * (ai - ai_old) * K[i, i]
                      - y[j] * (aj - aj_old) * K[i, j])
                b2 = (b - Ej - y[i] * (ai - ai_old) * K[i, j]
                      - y[j] * (aj - aj_old) * K[j, j])
                if 0 < ai < self.C:
                    b = b1
                elif 0 < aj < self.C:
                    b = b2
                else:
                    b = 0.5 * (b1 + b2)
                changed += 1
            iters += 1
            passes = passes + 1 if changed == 0 else 0
        sv = alpha > 1e-8
        self.support_vectors_ = X[sv]
        self.dual_coef_ = (alpha * y)[sv]
        self.intercept_ = b
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        if len(self.support_vectors_) == 0:
            return np.full(len(X), self.intercept_)
        return (self._K(X, self.support_vectors_) @ self.dual_coef_
                + self.intercept_)


class SVC:
    """One-vs-rest multiclass SVM."""

    def __init__(self, C: float = 1.0, kernel: str = "rbf",
                 gamma: float | str = "scale", tol: float = 1e-3,
                 max_passes: int = 3, max_iter: int = 40,
                 max_samples: int | None = 2000,
                 random_state: int | None = None) -> None:
        if kernel not in ("rbf", "linear"):
            raise ValueError(f"unknown kernel {kernel!r}")
        if C <= 0:
            raise ValueError("C must be positive")
        self.C = C
        self.kernel = kernel
        self.gamma = gamma
        self.tol = tol
        self.max_passes = max_passes
        self.max_iter = max_iter
        self.max_samples = max_samples
        self.random_state = random_state

    def get_params(self) -> dict:
        return {"C": self.C, "kernel": self.kernel, "gamma": self.gamma,
                "tol": self.tol, "max_passes": self.max_passes,
                "max_iter": self.max_iter, "max_samples": self.max_samples,
                "random_state": self.random_state}

    def _gamma_for(self, X: np.ndarray) -> float:
        if self.gamma == "scale":
            var = X.var()
            return 1.0 / (X.shape[1] * var) if var > 0 else 1.0
        if self.gamma == "auto":
            return 1.0 / X.shape[1]
        return float(self.gamma)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "SVC":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError("X must be 2-D with one label per row")
        self.classes_, y_enc = np.unique(y, return_inverse=True)
        rng = np.random.default_rng(self.random_state)

        if self.max_samples is not None and len(X) > self.max_samples:
            # Stratified subsample to keep rare classes represented.
            keep: list[np.ndarray] = []
            for c in range(len(self.classes_)):
                idx = np.flatnonzero(y_enc == c)
                quota = max(1, int(round(self.max_samples
                                         * len(idx) / len(X))))
                keep.append(rng.choice(idx, size=min(quota, len(idx)),
                                       replace=False))
            sel = np.concatenate(keep)
            X, y_enc = X[sel], y_enc[sel]

        gamma = self._gamma_for(X)
        self._binaries: list[_BinarySVM] = []
        for c in range(len(self.classes_)):
            yy = np.where(y_enc == c, 1.0, -1.0)
            svm = _BinarySVM(self.C, self.kernel, gamma, self.tol,
                             self.max_passes, self.max_iter,
                             seed=int(rng.integers(2**31)))
            if len(np.unique(yy)) < 2:
                # Degenerate one-class problem: constant score.
                svm.support_vectors_ = np.empty((0, X.shape[1]))
                svm.dual_coef_ = np.empty(0)
                svm.intercept_ = float(yy[0])
            else:
                svm.fit(X, yy)
            self._binaries.append(svm)
        self.n_features_in_ = X.shape[1]
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        if not hasattr(self, "_binaries"):
            raise RuntimeError("SVC is not fitted")
        X = np.asarray(X, dtype=np.float64)
        return np.column_stack([b.decision_function(X)
                                for b in self._binaries])

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Softmax over the OVR decision values (calibration-free but
        sufficient for AUC ranking)."""
        scores = self.decision_function(X)
        z = scores - scores.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.classes_[np.argmax(self.decision_function(X), axis=1)]

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Batch prediction over an ``(N, F)`` matrix.

        OVR decision values are one kernel GEMM per class — already
        vectorized over rows — so this validates the batch shape and
        delegates; it exists so every model family exposes the same
        batch-serving entry point."""
        if not hasattr(self, "_binaries"):
            raise RuntimeError("SVC is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"expected (n, {self.n_features_in_}) input, "
                f"got {X.shape}")
        return self.predict(X)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        return float(np.mean(self.predict(X) == np.asarray(y)))
