"""Drawn extreme inputs to the numeric entry points.

Each entry of seqal.__all__ that computes on numbers, and the cost
envelopes, is called on seeded draws of NaN, +-inf, spreads from 1e-200 to
1.7e308, subnormals, signed zeros, empty inputs and non-positive sizes.
Every call must either raise a SeqalError or return a finite result: an
inf or a nan written to a CSV is never an answer.
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

import seqal
from seqal import BoundingBox, PerfCostCurve, SeqalError
from seqal.costing import theoretical_cost_bounds

DRAWS = 1000
SPECIALS = (math.nan, math.inf, -math.inf, 1.7e308, -1.7e308, 5e-324, 0.0, -0.0)
EXPONENTS = (-200, -100, -1, 0, 1, 100, 200, 308)
KINDS = ("random", "entropy", "margin", "least_confidence", "false_switch", "gauss_switch",
         "coreset")


def sample(rnd: random.Random, n: int | None = None) -> list[float]:
    """n floats (0 to 8 when n is None) of one drawn spread around a drawn
    center, one of them at times replaced by a special value."""
    n = rnd.randint(0, 8) if n is None else n
    spread = 10.0 ** rnd.choice(EXPONENTS)
    center = rnd.choice((0.0, 1.0, spread))
    out = [center + rnd.uniform(-0.85, 0.85) * spread for _ in range(n)]
    if out and rnd.random() < 0.25:
        out[rnd.randrange(n)] = rnd.choice(SPECIALS)
    return out


def curve(rnd: random.Random) -> PerfCostCurve:
    """Mostly valid curves: distinct costs of one spread, mAP values that
    are rounded, subnormal steps apart, or uniform in [0, 1]."""
    costs = sorted({abs(c) for c in sample(rnd, rnd.randint(1, 6))})
    step = rnd.choice((0.0, 5e-324, 1e-200))
    values = [
        rnd.choice((round(rnd.random(), 1), min(1.0, k * step), rnd.random()))
        for k in range(len(costs))
    ]
    return PerfCostCurve(list(zip(costs, values)))


def box(rnd: random.Random) -> BoundingBox:
    if rnd.random() < 0.5:
        return BoundingBox(0, rnd.random(), rnd.random(), rnd.uniform(0.01, 0.5),
                           rnd.uniform(0.01, 0.5))
    return BoundingBox(0, *sample(rnd, 4))


def frame(rnd: random.Random) -> list[tuple[BoundingBox, float]]:
    return [(box(rnd), rnd.choice((rnd.random(), *SPECIALS))) for _ in range(rnd.randint(0, 3))]


def thresholds(rnd: random.Random) -> list[float]:
    if rnd.random() < 0.7:
        return [0.5, 0.75][: rnd.randint(1, 2)]
    return [rnd.choice((0.5, *SPECIALS)) for _ in range(rnd.randint(0, 2))]


def call_correlations(rnd: random.Random):
    x = sample(rnd)
    return seqal.correlations(x, sample(rnd) if rnd.random() < 0.1 else sample(rnd, len(x)))


def call_average_precision(rnd: random.Random):
    truths = [box(rnd) for _ in range(rnd.randint(0, 3))]
    return seqal.average_precision(frame(rnd), truths, rnd.choice((0.5, 0.9, *SPECIALS)))


def call_mean_ap(rnd: random.Random):
    n = rnd.randint(0, 3)
    truths = [[box(rnd) for _ in range(rnd.randint(0, 2))] for _ in range(n)]
    return seqal.mean_ap([frame(rnd) for _ in range(n)], truths, thresholds(rnd))


def call_select(rnd: random.Random):
    kind = rnd.choice(KINDS)
    ids = list(range(rnd.randint(0, 6)))
    if kind == "coreset":
        width = rnd.randint(1, 3)
        scores = {i: sample(rnd, width) for i in [*ids, -1]}
    else:
        scores = dict(zip(ids, sample(rnd, len(ids))))
    b = rnd.randint(-1, len(ids) + 1)
    centers = [-1][: rnd.randint(0, 1)]
    picked = seqal.select(kind, ids, scores, b, rnd.randrange(2**32), centers)
    assert len(picked) == b and len(set(picked)) == b and set(picked) <= set(ids)
    return picked


CALLS = {
    "car": lambda rnd: seqal.car(curve(rnd), rnd.choice((*sample(rnd, 1), *SPECIALS))),
    "par": lambda rnd: seqal.par(curve(rnd), rnd.choice((rnd.random(), 1.0, 5e-324, *SPECIALS))),
    "correlations": call_correlations,
    "iou": lambda rnd: seqal.iou(box(rnd), box(rnd)),
    "average_precision": call_average_precision,
    "mean_ap": call_mean_ap,
    "fit_gmm2": lambda rnd: seqal.fit_gmm2(sample(rnd)),
    "select": call_select,
}


def assert_finite(result) -> None:
    """Every number inside result (None allowed) is finite."""
    if result is None or isinstance(result, (bool, str)):
        return
    if dataclasses.is_dataclass(result):
        for f in dataclasses.fields(result):
            assert_finite(getattr(result, f.name))
    elif isinstance(result, (list, tuple)):
        for item in result:
            assert_finite(item)
    else:
        assert math.isfinite(result), result


def test_every_numeric_entry_is_drawn():
    assert set(CALLS) <= set(seqal.__all__)


@pytest.mark.filterwarnings("ignore")
@pytest.mark.parametrize("name", sorted(CALLS))
def test_numeric_entry_raises_seqal_error_or_returns_finite(name):
    rnd = random.Random(f"drawn:{name}")
    finite = 0
    for _ in range(DRAWS):
        try:
            result = CALLS[name](rnd)
        except SeqalError:
            continue
        assert_finite(result)
        finite += 1
    assert finite, "every draw was refused, so none reached the arithmetic"


@pytest.mark.filterwarnings("ignore")
def test_cost_envelopes_raise_seqal_error_or_return_finite():
    rnd = random.Random("drawn:theoretical_cost_bounds")
    for _ in range(DRAWS):
        costs = sample(rnd)
        try:
            lower, upper = theoretical_cost_bounds(costs, rnd.randint(-1, len(costs)))
        except SeqalError:
            continue
        assert_finite((lower, upper))
