"""Maximum-likelihood fitting of five candidate families plus KS scoring.

Each family's parameter names, fitter and support are in the table _FAMILY.
All fits are MLE; positivity of shape/scale parameters is kept by solving
in log-parameter space where iteration is needed. The KS pass/fail gate is
the asymptotic 95% critical value 1.36/sqrt(n); parameters are estimated
from the same sample, so the gate is optimistic (no Lilliefors correction,
flagged in the serialized report).

The special functions the fits need (digamma, trigamma, erf and the
regularized lower incomplete gamma) are written here with math and numpy
alone, so that a stage that fits or reports imports no other numeric library.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    AllFitsFailed,
    DegenerateSample,
    InvalidParams,
    NoConvergence,
    NonPositiveSample,
)

__all__ = [
    "FAMILIES",
    "FittedDistribution",
    "FitReport",
    "fit_exponential",
    "fit_normal",
    "fit_gamma",
    "fit_weibull",
    "fit_loglogistic",
    "fit_family",
    "cdf_eval",
    "ks_statistic",
    "ks_critical_95",
    "rank_fits",
    "digamma",
    "trigamma",
    "erf",
    "gammainc",
]

KS_COEFF_95 = 1.36

_EPS = np.finfo(np.float64).eps


# --- special functions ---
# digamma and trigamma shift x up to 10 with the recurrence, then sum the
# asymptotic series in 1/x^2 (Bernoulli numbers B_2..B_14); the first term
# left out is below 1e-15 relative at x = 10.
_DIGAMMA_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)
_TRIGAMMA_SERIES = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


def _series_in_inverse_square(coeffs: tuple, x: float) -> float:
    """sum_j coeffs[j] / x^(2j+2), by Horner from the smallest term."""
    r = 1.0 / (x * x)
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * r + c
    return acc * r


def digamma(x: float) -> float:
    """psi(x) = d/dx ln Gamma(x), for x > 0."""
    shift = 0.0
    while x < 10.0:
        shift += 1.0 / x
        x += 1.0
    return math.log(x) - 0.5 / x - _series_in_inverse_square(_DIGAMMA_SERIES, x) - shift


def trigamma(x: float) -> float:
    """psi'(x), for x > 0."""
    shift = 0.0
    while x < 10.0:
        shift += 1.0 / (x * x)
        x += 1.0
    return shift + (1.0 + 0.5 / x + _series_in_inverse_square(_TRIGAMMA_SERIES, x)) / x


_ERF = np.frompyfunc(math.erf, 1, 1)


def erf(x):
    """math.erf over an array; a scalar or 0-d input gives a float."""
    out = _ERF(x)
    return out.astype(np.float64) if isinstance(out, np.ndarray) else float(out)


def _gammainc_series(a: float, x: np.ndarray, max_iter: int) -> np.ndarray:
    """sum_n x^n / (a (a+1) ... (a+n)) for x > 0, elementwise.

    An element is retired once its term is below eps of its sum, so its value
    does not depend on the other elements.
    """
    term = np.full(x.shape, 1.0 / a)
    total = term.copy()
    out = np.empty(x.shape)
    idx = np.arange(x.size)
    n = 0
    while idx.size:
        n += 1
        if n > max_iter:
            raise NoConvergence(f"incomplete gamma series did not converge (a={a})")
        term *= x / (a + n)
        total += term
        done = term <= total * _EPS
        if done.any():
            out[idx[done]] = total[done]
            going = ~done
            idx, x, term, total = idx[going], x[going], term[going], total[going]
    return out


def _gammaincc_fraction(a: float, x: np.ndarray, max_iter: int) -> np.ndarray:
    """Continued fraction for Gamma(a, x) e^x x^-a, x >= a + 1, modified Lentz.

    For x >= a + 1, induction on i shows both Lentz denominators are at least
    x - a + i + 1, so the usual guard against a zero denominator is not needed.
    """
    b = x + 1.0 - a
    c = np.full(x.shape, np.inf)
    d = 1.0 / b
    h = d.copy()
    out = np.empty(x.shape)
    idx = np.arange(x.size)
    i = 0
    while idx.size:
        i += 1
        if i > max_iter:
            raise NoConvergence(f"incomplete gamma continued fraction did not converge (a={a})")
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) <= _EPS
        if done.any():
            out[idx[done]] = h[done]
            going = ~done
            idx, b, c, d, h = idx[going], b[going], c[going], d[going], h[going]
    return out


def gammainc(a: float, x) -> np.ndarray:
    """Regularized lower incomplete gamma P(a, x) for a > 0, elementwise in x >= 0.

    Series below x = a + 1, continued fraction for the complement above it;
    both need O(sqrt(a)) terms near x = a, so the cap grows with sqrt(a).
    """
    x = np.asarray(x, dtype=np.float64)
    max_iter = 200 + int(20.0 * math.sqrt(a))
    out = np.full(x.shape, np.nan)
    out[x == 0] = 0.0
    out[x == np.inf] = 1.0
    low = (x > 0) & (x < a + 1.0)
    high = (x >= a + 1.0) & (x < np.inf)
    xl, xh = x[low], x[high]
    lgamma_a = math.lgamma(a)
    out[low] = np.exp(a * np.log(xl) - xl - lgamma_a) * _gammainc_series(a, xl, max_iter)
    out[high] = 1.0 - np.exp(a * np.log(xh) - xh - lgamma_a) * _gammaincc_fraction(
        a, xh, max_iter
    )
    return out


def _as_sample(sample, positive: bool) -> np.ndarray:
    x = np.asarray(sample, dtype=np.float64)
    if x.size < 2:
        raise DegenerateSample(f"need n >= 2, got {x.size}")
    if not np.isfinite(x).all():
        raise NonPositiveSample("sample contains non-finite values")
    if positive and (x <= 0).any():
        raise NonPositiveSample("sample must be strictly positive")
    return x


def fit_exponential(sample) -> dict:
    x = _as_sample(sample, positive=True)
    return {"rate": 1.0 / float(x.mean())}


def fit_normal(sample) -> dict:
    x = _as_sample(sample, positive=False)
    var = float(x.var())  # population variance (MLE)
    if var == 0:
        raise DegenerateSample("zero variance")
    return {"mu": float(x.mean()), "sigma": math.sqrt(var)}


def fit_gamma(sample) -> dict:
    """Newton on ln k - digamma(k) = ln(mean) - mean(ln x)."""
    x = _as_sample(sample, positive=True)
    mean = float(x.mean())
    s = math.log(mean) - float(np.log(x).mean())
    if s <= 0:
        raise DegenerateSample("log-moment gap is non-positive (constant data?)")
    k = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    for _ in range(100):
        f = math.log(k) - digamma(k) - s
        fp = 1.0 / k - trigamma(k)
        step = f / fp
        k -= step
        if k <= 0:
            raise NoConvergence("gamma shape iterate left the positive domain")
        if abs(step) < 1e-10:
            return {"shape": float(k), "scale": mean / float(k)}
    raise NoConvergence("gamma shape did not converge")


def _weibull_score(k: float, x: np.ndarray, mean_log: float):
    """Profile-likelihood score in k and its derivative."""
    xk = x**k
    logx = np.log(x)
    a = float((xk * logx).sum())
    b = float(xk.sum())
    g = a / b - 1.0 / k - mean_log
    a2 = float((xk * logx * logx).sum())
    gp = (a2 * b - a * a) / (b * b) + 1.0 / (k * k)
    return g, gp


def fit_weibull(sample) -> dict:
    """Safeguarded Newton on the Weibull profile score, bracket [0.01, 100]."""
    x_raw = _as_sample(sample, positive=True)
    if np.all(x_raw == x_raw[0]):
        raise DegenerateSample("constant sample")
    # work on x/max(x): shape is scale-invariant and x**k cannot overflow
    top = float(x_raw.max())
    x = x_raw / top
    mean_log = float(np.log(x).mean())
    lo, hi = 0.01, 100.0
    g_lo, _ = _weibull_score(lo, x, mean_log)
    g_hi, _ = _weibull_score(hi, x, mean_log)
    if g_lo > 0 or g_hi < 0:
        raise NoConvergence("Weibull shape root not bracketed in [0.01, 100]")
    k = 1.0
    for _ in range(200):
        g, gp = _weibull_score(k, x, mean_log)
        if g < 0:
            lo = k
        else:
            hi = k
        step = g / gp if gp > 0 else math.inf
        k_new = k - step
        if not lo < k_new < hi:
            k_new = 0.5 * (lo + hi)  # bisection fallback
        if abs(k_new - k) < 1e-10:
            k = k_new
            scale = top * float(np.mean(x**k)) ** (1.0 / k)
            return {"shape": float(k), "scale": scale}
        k = k_new
    raise NoConvergence("Weibull shape did not converge")


def _loglogistic_grad_hess(a: float, b: float, logx: np.ndarray):
    """Log-likelihood, gradient, Hessian in (a, b) = (ln alpha, ln beta)."""
    beta = math.exp(b)
    w = logx - a
    t = beta * w
    # p = sigmoid(t), numerically stable both tails
    p = np.where(t >= 0, 1.0 / (1.0 + np.exp(-t)), np.exp(t) / (1.0 + np.exp(t)))
    n = logx.size
    # log f = ln beta - beta*a + (beta-1) ln x - 2 ln(1 + e^t) ... summed
    log1p_et = np.where(t > 30, t, np.log1p(np.exp(np.minimum(t, 30))))
    ll = n * b + float((t - logx).sum()) - 2.0 * float(log1p_et.sum())
    pq = p * (1.0 - p)
    ga = beta * float((2.0 * p - 1.0).sum())
    gb = n + beta * float((w * (1.0 - 2.0 * p)).sum())
    haa = -2.0 * beta * beta * float(pq.sum())
    hab = ga + 2.0 * beta * beta * float((pq * w).sum())
    hbb = (gb - n) - 2.0 * beta * beta * float((pq * w * w).sum())
    return ll, np.array([ga, gb]), np.array([[haa, hab], [hab, hbb]])


def fit_loglogistic(sample) -> dict:
    """2-D Newton with backtracking in (ln alpha, ln beta)."""
    x = _as_sample(sample, positive=True)
    if np.all(x == x[0]):
        raise DegenerateSample("constant sample")
    logx = np.log(x)
    q25, q50, q75 = np.quantile(x, [0.25, 0.5, 0.75])
    a = math.log(q50)
    b = math.log(math.log(3.0) / math.log(q75 / q25)) if q75 > q25 else 0.0
    ll, grad, hess = _loglogistic_grad_hess(a, b, logx)
    for _ in range(200):
        if np.abs(grad).max() < 1e-8:
            return {"scale": math.exp(a), "shape": math.exp(b)}
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = grad / max(np.abs(grad).max(), 1.0)
        t = 1.0
        for _bt in range(40):
            ll_new, grad_new, hess_new = _loglogistic_grad_hess(
                a + t * step[0], b + t * step[1], logx
            )
            if ll_new > ll or np.abs(grad_new).max() < np.abs(grad).max():
                break
            t *= 0.5
        else:
            raise NoConvergence("log-logistic backtracking stalled")
        a += t * step[0]
        b += t * step[1]
        ll, grad, hess = ll_new, grad_new, hess_new
    raise NoConvergence("log-logistic Newton did not converge")


class _Family(NamedTuple):
    params: tuple[str, ...]
    fit: Callable[..., dict]
    positive: bool  # support is x > 0: fitted to the sample's positive values


# tie-break order matches the report legend (E, G, L, N, W)
_FAMILY = {
    "exponential": _Family(("rate",), fit_exponential, True),
    "gamma": _Family(("shape", "scale"), fit_gamma, True),
    "loglogistic": _Family(("scale", "shape"), fit_loglogistic, True),
    "normal": _Family(("mu", "sigma"), fit_normal, False),
    "weibull": _Family(("shape", "scale"), fit_weibull, True),
}
FAMILIES = tuple(_FAMILY)


def _family(name: str) -> _Family:
    if name not in _FAMILY:
        raise ValueError(f"unknown family {name!r}")
    return _FAMILY[name]


def fit_family(family: str, sample) -> dict:
    return _family(family).fit(sample)


def cdf_eval(family: str, params: dict, x) -> np.ndarray | float:
    """Closed-form CDFs; normal via erf, gamma via the regularized lower
    incomplete gamma, both defined in this module.

    Raises InvalidParams unless every param is finite, and positive except
    the normal's mu.
    """
    spec = _family(family)
    for name in spec.params:
        value = params[name]
        if not (math.isfinite(value) and (value > 0 or name == "mu")):
            need = "finite" if name == "mu" else "finite and positive"
            raise InvalidParams(f"{family} {name} = {value!r}: must be {need}")
    xv = np.asarray(x, dtype=np.float64)
    if family == "exponential":
        out = -np.expm1(-params["rate"] * np.maximum(xv, 0))
    elif family == "normal":
        out = 0.5 * (1.0 + erf((xv - params["mu"]) / (params["sigma"] * math.sqrt(2))))
    elif family == "gamma":
        out = gammainc(params["shape"], np.maximum(xv, 0) / params["scale"])
    elif family == "weibull":
        out = -np.expm1(-((np.maximum(xv, 1e-300) / params["scale"]) ** params["shape"]))
    else:  # loglogistic
        with np.errstate(over="ignore"):
            out = 1.0 / (1.0 + (params["scale"] / np.maximum(xv, 1e-300)) ** params["shape"])
    if spec.positive:
        out = np.where(xv <= 0, 0.0, out)
    return float(out) if np.isscalar(x) else out


def ks_statistic(sample, family: str, params: dict) -> float:
    """One-sample KS distance D_n against the fitted CDF."""
    x = np.sort(np.asarray(sample, dtype=np.float64))
    n = x.size
    if n < 1:
        raise DegenerateSample("empty sample")
    f = np.asarray(cdf_eval(family, params, x))
    i = np.arange(1, n + 1)
    return float(np.maximum(i / n - f, f - (i - 1) / n).max())


def ks_critical_95(n: int) -> float:
    return KS_COEFF_95 / math.sqrt(n)


@dataclass(frozen=True)
class FittedDistribution:
    family: str
    params: dict
    sample_size: int
    ks_stat: float

    @property
    def passes_95(self) -> bool:
        return self.ks_stat < ks_critical_95(self.sample_size)


@dataclass(frozen=True)
class FitReport:
    subject: str
    candidates: tuple[FittedDistribution, ...]  # sorted by ks_stat asc
    failed: dict = field(default_factory=dict)  # family -> error string
    dropped_zero_fraction: float = 0.0
    low_confidence: bool = False

    @property
    def best(self) -> str:
        return self.candidates[0].family

    @property
    def deviation_buckets(self) -> dict:
        d = self.candidates[0].ks_stat
        return {"le_3pct": d <= 0.03, "le_5pct": d <= 0.05}

    def to_json(self) -> str:
        return json.dumps(
            {
                "subject": self.subject,
                "candidates": [
                    {
                        "family": c.family,
                        "params": c.params,
                        "ks_stat": c.ks_stat,
                        "passes_95": c.passes_95,
                    }
                    for c in self.candidates
                ],
                "best": self.best,
                "failed": self.failed,
                "dropped_zero_fraction": self.dropped_zero_fraction,
                "low_confidence": self.low_confidence,
                "deviation_buckets": self.deviation_buckets,
                "note": "KS gate uses asymptotic 1.36/sqrt(n) without Lilliefors correction",
            },
            sort_keys=True,
        )


def rank_fits(sample, subject: str = "") -> FitReport:
    """Fit every family, score by KS, rank ascending (ties in FAMILIES order).

    Zeros are dropped before fitting positive-support families (the dropped
    fraction is recorded); the normal family sees the full sample.
    """
    full = np.asarray(sample, dtype=np.float64)
    positive = full[full > 0]
    dropped = 1.0 - positive.size / full.size if full.size else 0.0
    fits = []
    failed = {}
    for family, spec in _FAMILY.items():
        data = positive if spec.positive else full
        try:
            params = fit_family(family, data)
            ks = ks_statistic(data, family, params)
        except (NonPositiveSample, DegenerateSample, NoConvergence, InvalidParams) as exc:
            failed[family] = f"{type(exc).__name__}: {exc}"
            continue
        fits.append(FittedDistribution(family, params, int(data.size), ks))
    if not fits:
        raise AllFitsFailed(f"all families failed: {failed}")
    fits.sort(key=lambda f: f.ks_stat)  # stable: ties keep FAMILIES order
    return FitReport(
        subject=subject,
        candidates=tuple(fits),
        failed=failed,
        dropped_zero_fraction=dropped,
        low_confidence=full.size < 30,
    )
