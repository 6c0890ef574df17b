"""Synthetic ensembles with the generating parameters on record.

Every estimator in the package can be pointed at a panel produced here and
checked against the truth that made it: regression coefficients, variance
coefficients, mixture weights, and the error-field correlation are all part
of the recipe. Observation errors are drawn as correlated standard fields,
so spatial methods have a recoverable (theta, range) as well.

The member recipe is: latent signal (base + day offset + station field)
plus a fixed per-member bias plus day-cycled spread times unit noise. The
spread cycle alternates tight and wide ensembles, which is what separates
the constant and spread-scaled parts of a fitted variance model.
"""

from __future__ import annotations

import dataclasses
import datetime
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import (
    EnsembleDataset,
    Station,
    StationSet,
    _readonly,
    seeded_rng,
)
from .ingest import cast_fields, read_key_values
from .spatial import build_correlation_matrix, cholesky_with_jitter

MEMBER_DRAW_MODES = ("per_day", "per_row")


@dataclass(frozen=True, kw_only=True)
class NgrPlusTruth:
    """Observations drawn as N(a + sum_m b_m f_m, c + d S^2)."""

    a: float = 1.0
    b: tuple = (0.05,)
    c: float = 1.0
    d: float = 1.0

    def __post_init__(self):
        b = tuple(float(v) for v in np.atleast_1d(np.asarray(self.b, dtype=float)))
        object.__setattr__(self, "b", b)
        if any(v < 0 for v in b):
            raise ValueError("regression coefficients must be non-negative")
        if self.c < 0 or self.d < 0:
            raise ValueError("variance coefficients must be non-negative")


@dataclass(frozen=True, kw_only=True)
class NgrCTruth:
    """Observations drawn as N(ybar_s + sum_m b_m (f_m - fbar_ms), c xi_s^2 + d S^2).

    The station variance anchor xi_s^2 is set to d * mean(S^2) / (1 - c), the
    fixed point of the residual-variance recursion, so a fit on this data
    should recover (b, c, d) with its own estimated anchors. Requires c < 1.
    """

    b: tuple = (0.05,)
    c: float = 0.5
    d: float = 1.0

    def __post_init__(self):
        b = tuple(float(v) for v in np.atleast_1d(np.asarray(self.b, dtype=float)))
        object.__setattr__(self, "b", b)
        if not 0.0 <= self.c < 1.0:
            raise ValueError("the anchor recursion needs 0 <= c < 1")
        if self.d <= 0:
            raise ValueError("d must be positive so the anchors are positive")


@dataclass(frozen=True, kw_only=True)
class BmaTruth:
    """Observations drawn from the mixture sum_m w_m N(a_m + b_m f_m, sigma2).

    A one-value a or b applies to every member. member_draw picks the
    mixture component once per day ("per_day", fields stay spatially
    coherent) or independently per station row ("per_row").
    """

    a: tuple = (0.0,)
    b: tuple = (1.0,)
    weights: tuple
    sigma2: float = 1.0
    member_draw: str = "per_day"

    def __post_init__(self):
        n = np.size(self.weights)
        for name in ("a", "b", "weights"):
            vals = tuple(float(v) for v in np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
            object.__setattr__(self, name, vals * n if len(vals) == 1 else vals)
        if not (len(self.a) == len(self.b) == len(self.weights)):
            raise ValueError("a, b, weights must have one entry per member")
        w = np.asarray(self.weights)
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-10:
            raise ValueError("weights must be non-negative and sum to one")
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        if self.member_draw not in MEMBER_DRAW_MODES:
            raise ValueError(f"member_draw must be one of {MEMBER_DRAW_MODES}")


Truth = Union[NgrPlusTruth, NgrCTruth, BmaTruth]
TRUTHS = {"ngr+": NgrPlusTruth, "ngrc": NgrCTruth, "bma": BmaTruth}  # spec files' truth= names


@dataclass(frozen=True)
class SynthSpec:
    """Full recipe for one synthetic panel; identical specs generate
    identical data."""

    n_stations: int
    n_days: int
    n_members: int
    truth: Truth
    theta: float = 1.0
    range_km: float = 100.0
    seed: int = 0
    layout: str = "uniform"
    width_km: float = 500.0
    height_km: float = 500.0
    base_temp: float = 18.0
    day_sd: float = 3.0
    latent_sd: float = 1.5
    spread_cycle: tuple = (0.6, 1.8)
    member_bias_sd: float = 0.3
    start_day: str = "2024-01-01"

    def __post_init__(self):
        if self.n_stations < 2 or self.n_days < 1 or self.n_members < 2:
            raise ValueError("need at least 2 stations, 1 day, 2 members")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta {self.theta!r} outside [0, 1]")
        if self.range_km <= 0:
            raise ValueError("range_km must be positive")
        if self.layout not in ("uniform", "grid", "line"):
            raise ValueError(f"unknown layout {self.layout!r}")
        if self.width_km <= 0 or self.height_km <= 0:
            raise ValueError("layout box must have positive extent")
        cycle = tuple(float(v) for v in np.atleast_1d(np.asarray(self.spread_cycle, dtype=float)))
        object.__setattr__(self, "spread_cycle", cycle)
        if not cycle or any(v <= 0 for v in cycle):
            raise ValueError("spread_cycle must be positive")
        datetime.date.fromisoformat(self.start_day)
        truth_members = getattr(self.truth, "b", None)
        if truth_members is not None and len(truth_members) not in (1, self.n_members):
            raise ValueError("truth coefficient length must be 1 or n_members")


@dataclass(frozen=True)
class TruthFields:
    """Per-row truth moments of the generated panel.

    mu/sigma are (n_days, n_stations); for the mixture truth they are the
    mixture mean and standard deviation, with the actually drawn component
    indices kept alongside.
    """

    stations: StationSet
    days: tuple
    mu: np.ndarray
    sigma: np.ndarray
    correlation: np.ndarray
    xi2: Optional[np.ndarray] = None
    components: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "days", tuple(self.days))
        for name in ("mu", "sigma", "correlation"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), dtype=float)))
        if self.mu.shape != (len(self.days), len(self.stations)) or self.mu.shape != self.sigma.shape:
            raise ValueError("truth moment panels must be (n_days, n_stations)")


def _day_labels(start_day: str, n_days: int) -> tuple:
    first = datetime.date.fromisoformat(start_day)
    return tuple((first + datetime.timedelta(days=t)).isoformat() for t in range(n_days))


def _make_stations(spec: SynthSpec, rng: np.random.Generator) -> StationSet:
    n = spec.n_stations
    if spec.layout == "uniform":
        x = rng.uniform(0.0, spec.width_km, n)
        y = rng.uniform(0.0, spec.height_km, n)
    elif spec.layout == "line":
        x = np.linspace(0.0, spec.width_km, n)
        y = np.zeros(n)
    else:
        nx = math.ceil(math.sqrt(n))
        ny = math.ceil(n / nx)
        gx = np.linspace(0.0, spec.width_km, nx)
        gy = np.linspace(0.0, spec.height_km, ny)
        xx, yy = np.meshgrid(gx, gy)
        x, y = xx.ravel()[:n], yy.ravel()[:n]
    pad = len(str(n))
    return StationSet(Station(f"S{i + 1:0{pad}d}", float(x[i]), float(y[i])) for i in range(n))


def _truth_b(truth, n_members: int) -> np.ndarray:
    b = np.asarray(truth.b, dtype=float)
    return np.full(n_members, b[0]) if b.size == 1 else b


def generate_with_truth(spec: SynthSpec) -> tuple[EnsembleDataset, TruthFields]:
    """Simulate one panel and return it with its truth moments."""
    rng = seeded_rng(spec.seed, "synth")
    stations = _make_stations(spec, rng)
    days = _day_labels(spec.start_day, spec.n_days)
    D, S, M = spec.n_days, spec.n_stations, spec.n_members

    delta = rng.normal(0.0, spec.day_sd, D)
    latent = rng.normal(0.0, spec.latent_sd, S)
    bias = rng.normal(0.0, spec.member_bias_sd, M)
    noise = rng.standard_normal((D, S, M))
    spread = np.array([spec.spread_cycle[t % len(spec.spread_cycle)] for t in range(D)])
    forecasts = (
        spec.base_temp
        + delta[:, None, None]
        + latent[None, :, None]
        + bias[None, None, :]
        + spread[:, None, None] * noise
    )
    s2 = forecasts.var(axis=2, ddof=1)

    corr = build_correlation_matrix((spec.theta, spec.range_km), stations)
    chol, _ = cholesky_with_jitter(corr)
    err = rng.standard_normal((D, S)) @ chol.T

    xi2 = None
    components = None
    truth = spec.truth
    if isinstance(truth, NgrPlusTruth):
        b = _truth_b(truth, M)
        mu = truth.a + forecasts @ b
        var = truth.c + truth.d * s2
    elif isinstance(truth, NgrCTruth):
        b = _truth_b(truth, M)
        fbar = spec.base_temp + latent[:, None] + bias[None, :]  # (S, M)
        ybar = spec.base_temp + latent
        xi2 = truth.d * s2.mean(axis=0) / (1.0 - truth.c)
        mu = ybar[None, :] + (forecasts - fbar[None, :, :]) @ b
        var = truth.c * xi2[None, :] + truth.d * s2
    else:
        a = np.asarray(truth.a)
        b = np.asarray(truth.b)
        w = np.asarray(truth.weights)
        corrected = a[None, None, :] + b[None, None, :] * forecasts  # (D, S, M)
        mix_mean = corrected @ w
        mix_var = truth.sigma2 + (corrected ** 2) @ w - mix_mean ** 2
        if truth.member_draw == "per_day":
            components = rng.choice(M, size=D, p=w)
            drawn = corrected[np.arange(D), :, components]  # (D, S)
        else:
            components = rng.choice(M, size=(D, S), p=w)
            drawn = np.take_along_axis(corrected, components[:, :, None], axis=2)[:, :, 0]
        obs = drawn + math.sqrt(truth.sigma2) * err
        data = EnsembleDataset(stations, days, forecasts, obs)
        fields = TruthFields(stations, days, mix_mean, np.sqrt(mix_var), corr, components=components)
        return data, fields

    obs = mu + np.sqrt(var) * err
    data = EnsembleDataset(stations, days, forecasts, obs)
    fields = TruthFields(stations, days, mu, np.sqrt(var), corr, xi2=xi2)
    return data, fields


def generate(spec: SynthSpec) -> EnsembleDataset:
    """Simulate one panel, discarding the truth bookkeeping."""
    return generate_with_truth(spec)[0]


# ---------------------------------------------------------------------------
# named recipes


def default_spec(seed: int = 0, **overrides) -> SynthSpec:
    """Desk-scale panel: 100 stations, 60 target days behind a 25-day window."""
    base = dict(
        n_stations=100,
        n_days=85,
        n_members=20,
        truth=NgrPlusTruth(a=1.0, b=(0.05,), c=1.0, d=1.0),
        theta=0.2,
        range_km=150.0,
        seed=seed,
    )
    base.update(overrides)
    return SynthSpec(**base)


def underdispersive_spec(seed: int = 0, ratio: float = 0.25, **overrides) -> SynthSpec:
    """Ensemble spread around a quarter of the observation error, plus a
    mean bias of about half an error sd, echoing raw limited-area runs."""
    spread = 0.5
    s2bar = spread ** 2 + 0.1 ** 2 / (1.0 + 1.0 / 20)  # spread plus member-bias spread
    sigma2 = s2bar / ratio ** 2
    base = dict(
        n_stations=100,
        n_days=55,
        n_members=20,
        truth=NgrPlusTruth(a=0.5 * math.sqrt(sigma2), b=(0.05,), c=sigma2 - s2bar, d=1.0),
        theta=1.0,
        seed=seed,
        spread_cycle=(spread,),
        member_bias_sd=0.1,
    )
    base.update(overrides)
    return SynthSpec(**base)


def zero_noise_spec(seed: int = 0, **overrides) -> SynthSpec:
    """Observations equal to the truth-model mean: c = d = 0."""
    base = dict(
        n_stations=20,
        n_days=10,
        n_members=8,
        truth=NgrPlusTruth(a=0.5, b=(0.12,), c=0.0, d=0.0),
        theta=1.0,
        seed=seed,
    )
    base.update(overrides)
    return SynthSpec(**base)


RECIPES = {
    "default": default_spec,
    "underdispersive": underdispersive_spec,
    "zero-noise": zero_noise_spec,
    "correlated": default_spec,  # default_spec's errors are already spatially correlated
}


# ---------------------------------------------------------------------------
# spec files


def parse_synth_spec(source, overrides: Optional[dict] = None) -> SynthSpec:
    """Build a SynthSpec from key=value lines.

    `recipe=` starts from a named recipe; remaining keys override its
    fields, and the underdispersive recipe also takes `ratio=`. Without a
    recipe, `truth=` picks the truth family from TRUTHS (default ngr+),
    whose fields' keys set its parameters; the other keys are SynthSpec
    fields. A key that names no such field is an error. `source` is a path
    or an already-parsed dict; `overrides` win last.
    """
    kv = dict(source) if isinstance(source, dict) else read_key_values(source)
    kv.update(overrides or {})

    recipe = kv.pop("recipe", None)
    if recipe is not None:
        if recipe not in RECIPES:
            raise ValueError(f"unknown recipe {recipe!r}; have {sorted(RECIPES)}")
        if {"truth", *(f.name for cls in TRUTHS.values() for f in dataclasses.fields(cls))} & set(kv):
            raise ValueError("recipe= and explicit truth keys cannot be mixed")
        ratio = {"ratio": float(kv.pop("ratio"))} if recipe == "underdispersive" and "ratio" in kv else {}
        return RECIPES[recipe](**ratio, **cast_fields(SynthSpec, kv))

    kind = kv.pop("truth", "ngr+")
    if kind not in TRUTHS:
        raise ValueError(f"unknown truth kind {kind!r}; have {sorted(TRUTHS)}")
    cls = TRUTHS[kind]
    names = {f.name for f in dataclasses.fields(cls)}
    spec = cast_fields(SynthSpec, {key: text for key, text in kv.items() if key not in names})
    missing = [f.name for c in (SynthSpec, cls) for f in dataclasses.fields(c)
               if f.default is dataclasses.MISSING and f.name not in {"truth", *kv}]
    if missing:
        raise ValueError(f"{kind} synth spec without recipe= needs {'=, '.join(missing)}=")
    truth = cls(**cast_fields(cls, {key: text for key, text in kv.items() if key in names}))
    return SynthSpec(truth=truth, **spec)
