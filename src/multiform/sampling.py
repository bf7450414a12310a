"""Seeded generators for smooth, non-degenerate test fields.

Randomized fields are bounded-degree polynomials in coordinate projections
with trigonometric envelopes, all coefficients drawn from [-1, 1]; rotors
come from blade exponentials, so the unit constraint R R~ = 1 holds
identically.  Everything is driven by a caller-supplied Generator, which
keeps the verification scenarios reproducible from their seed.
"""

from __future__ import annotations

import numpy as np

from .fields import (
    BladeExp,
    Const,
    FieldExpr,
    PolyMap,
    ScalarMap,
    add,
    coordinate,
    prod,
    scale,
)
from .gauge import ExtensorField, GaugeBackground, OmegaField, rotor_gauge
from .sta import Multivector


def random_points(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size=(n, 4))


def random_multivector(rng: np.random.Generator, grades) -> Multivector:
    return Multivector(rng.uniform(-1.0, 1.0, 16)).restrict(grades)


def random_vector(rng: np.random.Generator) -> Multivector:
    return Multivector.vector(rng.uniform(-1.0, 1.0, 4))


def random_field(
    rng: np.random.Generator, grades, degree: int = 2, terms: int = 2
) -> FieldExpr:
    """Sum of (constant blade mix) * polynomial(x.k) * trig(x.k') terms."""
    acc: FieldExpr | None = None
    for _ in range(terms):
        base = Const(random_multivector(rng, grades))
        coeffs = rng.uniform(-1.0, 1.0, degree + 1)
        term: FieldExpr = prod(base, PolyMap(coordinate(random_vector(rng)), coeffs), "gp")
        kind = "sin" if rng.uniform() < 0.5 else "cos"
        term = prod(term, ScalarMap(coordinate(random_vector(rng)), kind), "gp")
        acc = term if acc is None else add(acc, term)
    return acc


def random_even_field(rng: np.random.Generator) -> FieldExpr:
    return random_field(rng, {0, 2, 4})


def random_simple_bivector(rng: np.random.Generator) -> Multivector:
    """a ^ b for independent random 1-forms; always has a scalar square."""
    while True:
        b = random_vector(rng) ^ random_vector(rng)
        if b.norm() > 0.3:
            return b


def random_rotor(rng: np.random.Generator) -> FieldExpr:
    """Product of two blade exponentials with linear scalar arguments."""
    factors = []
    for _ in range(2):
        blade = random_simple_bivector(rng)
        arg = scale(0.5 * rng.uniform(0.3, 1.0), coordinate(random_vector(rng)))
        factors.append(BladeExp(blade, arg))
    return prod(factors[0], factors[1], "gp")


def random_rotor_background(rng: np.random.Generator) -> GaugeBackground:
    return rotor_gauge(random_rotor(rng))


def random_invertible_h(rng: np.random.Generator) -> ExtensorField:
    """Identity plus small smooth perturbations: invertible on the unit box."""
    entries = []
    for i in range(4):
        row = []
        for j in range(4):
            pert = scale(
                0.15 * rng.uniform(0.3, 1.0),
                prod(
                    PolyMap(coordinate(random_vector(rng)), rng.uniform(-1, 1, 2)),
                    ScalarMap(coordinate(random_vector(rng)), "cos"),
                    "gp",
                ),
            )
            base = Const(Multivector.scalar(1.0 if i == j else 0.0))
            row.append(add(base, pert))
        entries.append(row)
    return ExtensorField(entries)


def random_omega(rng: np.random.Generator) -> OmegaField:
    """Arbitrary (generally incompatible) bivector-valued connection."""
    return OmegaField([random_field(rng, {2}, degree=1, terms=1) for _ in range(4)])
