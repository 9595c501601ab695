"""Numerically stable evaluation of the Bernoulli function B(r) = r / (e^r - 1).

B drives the exponential-fitting two-point fluxes of the scheme; its
derivative feeds the analytic Jacobian.  Both accept scalars or arrays.
"""

from __future__ import annotations

import numpy as np

# Below this, evaluate the Taylor polynomial instead of the e^r - 1 ratio.
_SERIES_CUTOFF = 1e-5
# B' loses accuracy to cancellation in a wider band around 0.
_PRIME_SERIES_CUTOFF = 1e-2
# Beyond these, exp(r) (resp. its square) would overflow.
_LARGE_ARG = 705.0
_PRIME_LARGE_ARG = 300.0


def _as_array(r, name: str) -> tuple[np.ndarray, bool]:
    arr = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: argument must be finite")
    return np.atleast_1d(arr), arr.ndim == 0


def _bernoulli_pair(r: np.ndarray, prime: bool = True):
    """B(r) and, if prime, B'(r) (else None) of a finite float array of any
    shape, unchecked: the public functions validate.

    A branch is evaluated only when some entry needs it, over the whole
    array, and merged by mask only when branches mix.  Its arguments are
    clipped so that no entry raises a floating-point warning: the series
    take r clipped at +-_LARGE_ARG, both middle branches share one expm1 of
    r clipped at _LARGE_ARG, both tails one exp.  Where no entry exceeds a
    clip bound, the clip is the identity and is skipped.
    """
    if r.size == 0:
        return r.copy(), (r.copy() if prime else None)
    a = np.abs(r)
    # axis=None: the reductions cover every axis of a 2-D block
    low = np.minimum.reduce(a, axis=None)
    top = np.maximum.reduce(a, axis=None)
    b = db = None
    if low < _SERIES_CUTOFF or (prime and low < _PRIME_SERIES_CUTOFF):
        rs = r if top <= _LARGE_ARG else np.clip(r, -_LARGE_ARG, _LARGE_ARG)
        r2 = rs * rs
        if low < _SERIES_CUTOFF:
            b = 1.0 - rs / 2.0 + r2 / 12.0 - r2 * r2 / 720.0
        if prime and low < _PRIME_SERIES_CUTOFF:
            r3 = rs * r2
            db = -0.5 + rs / 6.0 - r3 / 180.0 + r3 * r2 / 5040.0
    if top < _SERIES_CUTOFF:
        return b, db

    rm = r if top <= _LARGE_ARG else np.minimum(r, _LARGE_ARG)
    e1 = np.expm1(rm)
    if b is None:
        b = rm / e1
    else:
        np.divide(rm, e1, out=b, where=a >= _SERIES_CUTOFF)

    if prime and top >= _PRIME_SERIES_CUTOFF:
        mid = None
        if top > _PRIME_LARGE_ARG:
            # e1 = 1 off B''s middle branch keeps e1 * e1 off 0 and overflow
            mid = (a >= _PRIME_SERIES_CUTOFF) & (r <= _PRIME_LARGE_ARG)
            e1 = np.where(mid, e1, 1.0)
        elif db is not None:
            # e1 * e1 cannot overflow; only the series' entries can take it to 0
            mid = a >= _PRIME_SERIES_CUTOFF
        numer = e1 * (1.0 - rm) - rm
        if db is None:
            db = numer / (e1 * e1)
        else:
            np.divide(numer, e1 * e1, out=db, where=mid)

    if top > _PRIME_LARGE_ARG:
        rl = np.maximum(r, _PRIME_LARGE_ARG)
        el = np.exp(-rl)
        np.copyto(b, rl * el, where=r > _LARGE_ARG)
        if prime:
            np.copyto(db, (1.0 - rl) * el, where=r > _PRIME_LARGE_ARG)
    return b, db


def bernoulli(r):
    """B(r) = r / (e^r - 1), continuously extended with B(0) = 1.

    Accurate to machine precision across the full double range: a Taylor
    branch removes the 0/0 ambiguity near the origin, expm1 handles the
    bulk, and the positive tail switches to r * e^(-r) before exp(r)
    overflows.  For very negative r the expm1 form returns the asymptote -r.
    """
    arr, scalar = _as_array(r, "bernoulli")
    out = _bernoulli_pair(arr, prime=False)[0]
    return float(out[0]) if scalar else out


def bernoulli_prime(r):
    """Derivative B'(r) = (e^r - 1 - r e^r) / (e^r - 1)^2, with B'(0) = -1/2.

    The closed form cancels to O(r^2) near the origin, so a series branch
    covers |r| < 1e-2; the positive tail uses (1 - r) e^(-r) before the
    squared denominator overflows.
    """
    arr, scalar = _as_array(r, "bernoulli_prime")
    out = _bernoulli_pair(arr)[1]
    return float(out[0]) if scalar else out
