import math

import mpmath
import numpy as np
import pytest

from oxidefv import bernoulli, bernoulli_prime
from oxidefv.bernoulli import _bernoulli_pair


def mp_bernoulli(r):
    with mpmath.workdps(50):
        r = mpmath.mpf(r)
        if r == 0:
            return 1.0
        return float(r / mpmath.expm1(r))


def mp_bernoulli_prime(r):
    with mpmath.workdps(50):
        r = mpmath.mpf(r)
        if r == 0:
            return -0.5
        e1 = mpmath.expm1(r)
        return float((e1 - r * mpmath.exp(r)) / (e1 * e1))


class TestValues:
    def test_at_zero(self):
        assert bernoulli(0.0) == 1.0

    def test_at_one(self):
        expected = 1.0 / (math.e - 1.0)
        assert abs(bernoulli(1.0) - expected) <= 1e-14 * expected

    def test_two_point_difference(self):
        # B(-2) - B(2) = 2
        assert abs(bernoulli(-2.0) - bernoulli(2.0) - 2.0) <= 1e-12

    def test_accuracy_across_double_range(self):
        pts = np.concatenate(
            [
                -np.logspace(-12, np.log10(700), 60),
                np.logspace(-12, np.log10(700), 60),
                [0.0, -700.0, 700.0, 1e-5, -1e-5],
            ]
        )
        for r in pts:
            exact = mp_bernoulli(r)
            assert abs(bernoulli(float(r)) - exact) <= 1e-14 * abs(exact), r

    def test_asymptote_for_very_negative(self):
        assert bernoulli(-900.0) == 900.0

    def test_large_positive_no_overflow(self):
        r = 710.0  # exp(r) would overflow; exp(-r) is still normal
        val = bernoulli(r)
        assert val == r * math.exp(-r)
        assert val > 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            bernoulli(float("nan"))
        with pytest.raises(ValueError):
            bernoulli(float("inf"))
        with pytest.raises(ValueError):
            bernoulli_prime(float("nan"))

    def test_vectorized(self):
        r = np.array([-2.0, 0.0, 2.0])
        out = bernoulli(r)
        assert out.shape == (3,)
        assert out[1] == 1.0


class TestIdentities:
    def test_reflection_difference(self):
        # B(-r) - B(r) = r
        rng = np.random.default_rng(101)
        r = rng.uniform(-50.0, 50.0, 20000)
        lhs = bernoulli(-r) - bernoulli(r)
        assert np.all(np.abs(lhs - r) <= 1e-12 * np.maximum(1.0, np.abs(r)))

    def test_exponential_shift(self):
        # B(r) e^r = B(-r)
        rng = np.random.default_rng(102)
        r = rng.uniform(-30.0, 30.0, 20000)
        lhs = bernoulli(r) * np.exp(r)
        rhs = bernoulli(-r)
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * rhs)

    def test_convex_split(self):
        # B(-r) p - B(r) q = (th B(r) + (1-th) B(-r)) (p - q) + r ((1-th) q + th p)
        rng = np.random.default_rng(103)
        n = 10000
        p = rng.uniform(-10.0, 10.0, n)
        q = rng.uniform(-10.0, 10.0, n)
        r = rng.uniform(-10.0, 10.0, n)
        th = rng.uniform(0.0, 1.0, n)
        lhs = bernoulli(-r) * p - bernoulli(r) * q
        rhs = (th * bernoulli(r) + (1.0 - th) * bernoulli(-r)) * (p - q) + r * (
            (1.0 - th) * q + th * p
        )
        assert np.all(np.abs(lhs - rhs) <= 1e-11)


class TestShape:
    def test_positive(self):
        rng = np.random.default_rng(104)
        r = np.concatenate([rng.uniform(-700.0, 700.0, 5000), [-700.0, 700.0]])
        assert np.all(bernoulli(r) > 0.0)

    def test_decreasing(self):
        rng = np.random.default_rng(105)
        r = np.sort(rng.uniform(-200.0, 200.0, 5000))
        vals = bernoulli(r)
        assert np.all(np.diff(vals) <= 1e-15 * np.maximum(1.0, np.abs(vals[:-1])))

    def test_lipschitz(self):
        rng = np.random.default_rng(106)
        r = rng.uniform(-50.0, 50.0, 5000)
        s = rng.uniform(-50.0, 50.0, 5000)
        gap = np.abs(bernoulli(r) - bernoulli(s))
        assert np.all(gap <= np.abs(r - s) + 1e-12)


class TestDerivative:
    def test_at_zero(self):
        assert bernoulli_prime(0.0) == -0.5

    def test_monotone_tail(self):
        # decreasing toward 0 from below for large positive arguments
        assert bernoulli_prime(50.0) < 0.0
        assert abs(bernoulli_prime(50.0)) < 1e-19
        assert bernoulli_prime(700.0) <= 0.0

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(107)
        r = np.concatenate([rng.uniform(-20.0, 20.0, 400), [0.0, 1e-5, -1e-5, 1e-2]])
        eps = 1e-6
        fd = (bernoulli(r + eps) - bernoulli(r - eps)) / (2.0 * eps)
        assert np.all(np.abs(bernoulli_prime(r) - fd) <= 1e-6)

    def test_high_precision_near_zero(self):
        # relative accuracy 1e-12 on |r| <= 1e-4
        pts = np.concatenate(
            [np.logspace(-8, -4, 25), -np.logspace(-8, -4, 25), [0.0, 1e-4, -1e-4]]
        )
        for r in pts:
            exact = mp_bernoulli_prime(r)
            assert abs(bernoulli_prime(float(r)) - exact) <= 1e-12 * abs(exact), r

    def test_high_precision_moderate(self):
        pts = np.concatenate([np.linspace(-30, 30, 61), [0.009, -0.009, 0.011, -0.011]])
        for r in pts:
            exact = mp_bernoulli_prime(r)
            assert abs(bernoulli_prime(float(r)) - exact) <= 1e-11 * abs(exact), r

    def test_always_negative(self):
        rng = np.random.default_rng(108)
        r = rng.uniform(-700.0, 700.0, 5000)
        assert np.all(bernoulli_prime(r) < 0.0)


def branchwise_bernoulli(r):
    """B by gathering each branch's entries, as the kernel's merged
    branches must reproduce bit for bit."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.empty_like(r)
    small = np.abs(r) < 1e-5
    large = r > 705.0
    mid = ~(small | large)
    rs = r[small]
    r2 = rs * rs
    out[small] = 1.0 - rs / 2.0 + r2 / 12.0 - r2 * r2 / 720.0
    out[mid] = r[mid] / np.expm1(r[mid])
    out[large] = r[large] * np.exp(-r[large])
    return out


def branchwise_bernoulli_prime(r):
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.empty_like(r)
    small = np.abs(r) < 1e-2
    large = r > 300.0
    mid = ~(small | large)
    rs = r[small]
    r2 = rs * rs
    out[small] = -0.5 + rs / 6.0 - rs * r2 / 180.0 + rs * r2 * r2 / 5040.0
    rm = r[mid]
    e1 = np.expm1(rm)
    out[mid] = (e1 * (1.0 - rm) - rm) / (e1 * e1)
    out[large] = (1.0 - r[large]) * np.exp(-r[large])
    return out


def _edge_values():
    points = [0.0, -0.0, 1e-5, -1e-5, 1e-2, -1e-2, 300.0, 705.0, 710.0, -900.0]
    values = []
    for x in points:
        values += [x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)]
    return np.array(values)


def _kernel_arrays():
    rng = np.random.default_rng(11)
    edges = _edge_values()
    arrays = [edges, edges[::-1].reshape(6, 5), np.zeros(5), np.array([-0.0, 0.0])]
    arrays += [np.array([x]) for x in edges]
    # one array per combination of the branches an entry can take
    picks = [0.0, 3e-6, -4e-3, 0.03, -2.0, 350.0, 800.0, -1e300]
    for mask in range(1, 1 << len(picks)):
        arrays.append(np.array([p for i, p in enumerate(picks) if mask >> i & 1]))
    arrays += [
        rng.normal(0.0, 0.03, 202),
        np.concatenate((rng.normal(0.0, 0.03, 50), np.zeros(3))),
        rng.normal(0.0, 0.005, (20, 101)),
        rng.uniform(-1000.0, 1000.0, (4, 50)),
    ]
    return arrays


class TestKernel:
    """_bernoulli_pair, the unchecked kernel behind both public functions and
    the solver, must equal the branch-by-branch evaluation exactly and raise
    no floating-point warning on any mix of branches."""

    def test_matches_branchwise_evaluation(self):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for r in _kernel_arrays():
                B, dB = _bernoulli_pair(r)
                B_only, none = _bernoulli_pair(r, prime=False)
                assert none is None
                assert B.shape == dB.shape == r.shape
                for got in (B, B_only, bernoulli(r)):
                    assert got.tobytes() == branchwise_bernoulli(r).reshape(r.shape).tobytes(), r
                for got in (dB, bernoulli_prime(r)):
                    want = branchwise_bernoulli_prime(r).reshape(r.shape)
                    assert got.tobytes() == want.tobytes(), r

    def test_public_scalars_match_kernel(self):
        for x in _edge_values():
            B, dB = _bernoulli_pair(np.array([x]))
            assert bernoulli(float(x)) == B[0] and bernoulli_prime(float(x)) == dB[0]

    def test_empty_array(self):
        B, dB = _bernoulli_pair(np.empty(0))
        assert B.shape == dB.shape == (0,)
        assert bernoulli(np.empty(0)).shape == (0,)


def reference_bernoulli_pair(r, prime=True):
    """A literal copy of the kernel as it stood before its clip and mask
    work became conditional; the kernel must stay equal to it bit for bit."""
    if r.size == 0:
        return r.copy(), (r.copy() if prime else None)
    a = np.abs(r)
    low, top = a.min(), a.max()
    b = db = None
    if low < 1e-5 or (prime and low < 1e-2):
        rs = r if top <= 705.0 else np.clip(r, -705.0, 705.0)
        r2 = rs * rs
        if low < 1e-5:
            b = 1.0 - rs / 2.0 + r2 / 12.0 - r2 * r2 / 720.0
        if prime and low < 1e-2:
            db = -0.5 + rs / 6.0 - rs * r2 / 180.0 + rs * r2 * r2 / 5040.0
    if top < 1e-5:
        return b, db

    rm = np.minimum(r, 705.0)
    e1 = np.expm1(rm)
    if b is None:
        b = rm / e1
    else:
        np.divide(rm, e1, out=b, where=a >= 1e-5)

    if prime and top >= 1e-2:
        mid = None
        if db is not None or top > 300.0:
            mid = (a >= 1e-2) & (r <= 300.0)
            e1 = np.where(mid, e1, 1.0)
        mid_value = (e1 * (1.0 - rm) - rm) / (e1 * e1)
        if db is None:
            db = mid_value
        else:
            np.copyto(db, mid_value, where=mid)

    if top > 300.0:
        rl = np.maximum(r, 300.0)
        el = np.exp(-rl)
        np.copyto(b, rl * el, where=r > 705.0)
        if prime:
            np.copyto(db, (1.0 - rl) * el, where=r > 300.0)
    return b, db


def _branch_mix(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    spread = {
        "all series": 5e-6,
        "series and middle": 0.02,
        "beyond 300": 450.0,
        "beyond 705": 1000.0,
    }
    if name == "empty":
        return np.empty(0)
    r = rng.uniform(-1.0, 1.0, 202) * spread[name]
    r[::7] *= 1e-4
    return r


class TestKernelReference:
    @pytest.mark.parametrize("prime", [True, False])
    @pytest.mark.parametrize("shape", [(202,), (2, 101)])
    @pytest.mark.parametrize(
        "name", ["all series", "series and middle", "beyond 300", "beyond 705", "empty"]
    )
    def test_branch_mix_matches_reference(self, name, shape, prime):
        r = _branch_mix(name)
        r = r.reshape(shape if r.size else (0,) * len(shape))
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = _bernoulli_pair(r, prime)
            want = reference_bernoulli_pair(r, prime)
        assert got[0].shape == r.shape and got[0].tobytes() == want[0].tobytes()
        if prime:
            assert got[1].shape == r.shape and got[1].tobytes() == want[1].tobytes()
        else:
            assert got[1] is None and want[1] is None

    def test_every_kernel_array_matches_reference(self):
        for r in _kernel_arrays():
            for prime in (True, False):
                got = _bernoulli_pair(r, prime)
                want = reference_bernoulli_pair(r, prime)
                assert got[0].tobytes() == want[0].tobytes(), r
                assert (got[1] is None) == (want[1] is None)
                if prime:
                    assert got[1].tobytes() == want[1].tobytes(), r
