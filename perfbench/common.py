"""Request model and seeded input helpers shared by the workloads."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable


@dataclass
class Request:
    """One closed-loop request: ``call`` goes into germres and is timed;
    ``check`` runs afterwards on its answer and returns ``(ok, error)``,
    where ``error`` is the relative error of a float answer or None."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple]


def deck_rng(seed, index, salt):
    """Independent generator for deck ``index`` of a run seeded with ``seed``."""
    return random.Random(f"{salt}:{seed}:{index}")


def rational(rng, nonzero=False):
    """p/q with |p| <= 9 and 1 <= q <= 4, the size of the ROADMAP baseline."""
    while True:
        value = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if value or not nonzero:
            return value


def parabolic_coeffs(rng, K, ell):
    """a_1..a_K of a random rational jet that is exactly ell-tangent."""
    return (Fraction(1),) + (Fraction(0),) * (ell - 1) + (rational(rng, nonzero=True),) + tuple(
        rational(rng) for _ in range(K - ell - 1)
    )


def field_coeffs(rng, K, ell):
    """c_2..c_K of a random rational field jet that is exactly ell-flat."""
    return (Fraction(0),) * (ell - 1) + (rational(rng, nonzero=True),) + tuple(
        rational(rng) for _ in range(K - ell - 1)
    )


def antithetic(rng, count):
    """``count`` draws in [0, 1) made of mirror pairs (v, 1 - v) spread
    evenly over the interval, so that a cost roughly linear in the draw adds
    up to nearly the same total in every deck whatever the seed."""
    u = rng.random()
    out = []
    for k in range(count // 2):
        v = (u + 2 * k / count) % 1.0
        out += [v, 1.0 - v]
    if count % 2:
        out.append(rng.random())
    return out


def log_uniform(u, lo, hi):
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
