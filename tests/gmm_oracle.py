"""The numpy EM that seqal.acquisition.fit_gmm2 replaced, kept as the
reference its tests compare against: each step works on the (k, 2) arrays
of the k distinct values and the two components.

`fit_gmm2` takes the same values as the package's and must give an equal
GmmFit, iterations included.
"""

import math

import numpy as np

from seqal.acquisition import GMM_MAX_ITER, GMM_TOL, VARIANCE_FLOOR, GmmFit
from seqal.errors import DomainError


def fit_gmm2(values) -> GmmFit:
    x = np.asarray(list(values), dtype=float)
    if x.size < 2:
        raise DomainError(f"need at least 2 values to fit, got {x.size}")
    if not np.isfinite(x).all():
        raise DomainError("cannot fit a mixture to non-finite values")

    spread = float(np.ptp(x))
    pooled = max(float(np.var(x)), VARIANCE_FLOOR)
    if spread == 0.0:
        mean = float(x[0])
        return GmmFit((0.5, 0.5), (mean, mean), (pooled, pooled), 0, degenerate=True)

    mu = np.array([np.percentile(x, 25), np.percentile(x, 75)], dtype=float)
    if mu[0] == mu[1]:
        mu = np.array([float(x.min()), float(x.max())])
    w = np.array([0.5, 0.5])
    var = np.array([pooled, pooled])

    u, c = np.unique(x, return_counts=True)
    prev_ll = -np.inf
    for iterations in range(1, GMM_MAX_ITER + 1):
        log_p = (
            np.log(np.maximum(w, 1e-300))[None, :]
            - 0.5 * np.log(2.0 * math.pi * var)[None, :]
            - 0.5 * (u[:, None] - mu[None, :]) ** 2 / var[None, :]
        )
        peak = log_p.max(axis=1, keepdims=True)
        shifted = np.exp(log_p - peak)
        norm = shifted.sum(axis=1, keepdims=True)
        resp = shifted / norm * c[:, None]
        ll = float(np.sum(c * (peak.ravel() + np.log(norm.ravel()))))

        mass = np.maximum(resp.sum(axis=0), 1e-300)
        w = mass / x.size
        mu = (resp * u[:, None]).sum(axis=0) / mass
        var = (resp * (u[:, None] - mu[None, :]) ** 2).sum(axis=0) / mass
        var = np.maximum(var, VARIANCE_FLOOR)

        if abs(ll - prev_ll) < GMM_TOL:
            break
        prev_ll = ll

    order = np.argsort(mu, kind="stable")
    w, mu, var = w[order], mu[order], var[order]
    degenerate = bool(abs(mu[1] - mu[0]) < 1e-12)
    return GmmFit(
        weights=(float(w[0]), float(w[1])),
        means=(float(mu[0]), float(mu[1])),
        variances=(float(var[0]), float(var[1])),
        iterations=iterations,
        degenerate=degenerate,
    )
