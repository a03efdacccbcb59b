"""The seeded suite's stream: numpy's ``default_rng(seed)``, reproduced in
``bumps`` so that no dbarkit process loads ``numpy.random``."""

import re

import numpy as np
import pytest

from dbarkit import bumps
from dbarkit.bumps import MAX_CENTER, POLY_DEGREE, RHO_RANGE, BumpPoly, Poly2, random_suite
from dbarkit.errors import InvalidArgumentError

# 2^32 - 1 and 2^32 straddle the one-word entropy; 2^64 + 5 and 10^30 take
# three and four words, and 2^130 + 3 five, which the pool of four mixes in last
SEEDS = [*range(300), 2**32 - 1, 2**32, 2**64 + 5, 10**30, 2**130 + 3]
FORMS = [(-1, 1), RHO_RANGE, (), (0.0, 2.0 * np.pi)]


def numpy_suite(count, seed):
    """``random_suite`` drawn from numpy's own generator."""
    rng = np.random.default_rng(seed)
    suite = []
    for _ in range(count):
        c = MAX_CENTER * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        rho = rng.uniform(*RHO_RANGE)
        coeffs = {}
        for a in range(POLY_DEGREE + 1):
            for b in range(POLY_DEGREE + 1 - a):
                r = np.sqrt(rng.uniform())
                th = rng.uniform(0.0, 2.0 * np.pi)
                coeffs[(a, b)] = r * np.exp(1j * th)
        suite.append(BumpPoly(c, rho, Poly2.from_dict(coeffs)))
    return suite


@pytest.mark.parametrize("form", FORMS, ids=["unit-square", "rho", "unit", "angle"])
def test_stream_is_numpys_default_rng(form):
    for seed in SEEDS:
        ours, theirs = bumps._Stream(seed), np.random.default_rng(seed)
        got = [ours.uniform(*form) for _ in range(40)]
        want = [theirs.uniform(*form) for _ in range(40)]
        assert got == want, seed
        assert all(type(x) is float for x in got)


@pytest.mark.parametrize("seed", [0, 42, 2**70])
def test_suite_equals_the_numpy_built_suite(seed):
    got, want = random_suite(20, seed), numpy_suite(20, seed)
    for m, ref in zip(got, want, strict=True):
        assert m.center == ref.center and type(m.center) is type(ref.center)
        assert m.rho == ref.rho
        assert [k for k, _ in m.poly.coeffs] == [k for k, _ in ref.poly.coeffs]
        assert np.array_equal(np.array([c for _, c in m.poly.coeffs]).view(np.int64),
                              np.array([c for _, c in ref.poly.coeffs]).view(np.int64))


@pytest.mark.parametrize("seed", [-1, 1.5, True, np.float64(3.0), "7", None])
def test_suite_rejects_a_seed_that_is_no_natural_number(seed):
    with pytest.raises(InvalidArgumentError, match=re.escape(f"got {seed!r}")):
        random_suite(1, seed)


def test_suite_takes_any_integral_seed():
    assert random_suite(2, np.int64(5)) == random_suite(2, 5)
    assert random_suite(2, np.uint8(7)) == random_suite(2, 7)
