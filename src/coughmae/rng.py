"""Deterministic labelled random streams.

Every random decision in the package (init, masking, shuffles, synthetic
audio) draws from a stream keyed by (seed, label). Streams are backed by
Philox, a counter-based generator whose output is stable across platforms,
so a run seed plus the stream label pins the whole experiment.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np

# Phi(-2), Phi(2): truncation bounds reused by truncated_normal.
_PHI_LO = 0.022750131948179195
_PHI_HI = 0.9772498680518208

# Cephes ndtri (S. L. Moshier, 1989) coefficients. P0/Q0: central region
# |y - 0.5| <= 0.5 - exp(-2); P1/Q1: tails with 2 <= sqrt(-2 ln y) < 8.
# Q0/Q1 omit their leading 1.0 (evaluated with p1evl).
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)


def seeded_rng(seed: int, label: str) -> np.random.Generator:
    """Return the generator for stream `label` under run seed `seed`.

    The (seed, label) pair is hashed into a 128-bit Philox key, so distinct
    labels give statistically independent streams and the mapping does not
    depend on the order streams are created in.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    key = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


def _polevl(x: np.ndarray, coefs) -> np.ndarray:
    ans = np.full_like(x, coefs[0])
    for c in coefs[1:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coefs) -> np.ndarray:
    ans = x + coefs[0]
    for c in coefs[1:]:
        ans *= x
        ans += c
    return ans


def _libm_log(a: np.ndarray) -> np.ndarray:
    # The C library's log, as Cephes calls it; np.log follows numpy's SIMD
    # dispatch and differs from it in the last bit on some inputs.
    return np.fromiter(map(math.log, a.tolist()), dtype=np.float64, count=a.size)


def ndtri(p) -> np.ndarray:
    """Inverse standard normal CDF, as Cephes `ndtri` computes it.

    Same operations in the same order as Cephes, so results are
    bit-identical to it (and to scipy.special.ndtri). The port covers
    p in [exp(-32), 1 - exp(-32)], which holds [Phi(-2), Phi(2)]; beyond
    it Cephes switches to a third approximation, and here ValueError is
    raised.
    """
    y0 = np.asarray(p, dtype=np.float64)
    flat = y0.ravel()
    # Central branch for every entry (y - 0.5 with y = p there), in place;
    # tail entries are overwritten below.
    ym = flat - 0.5
    y2 = ym * ym
    out = y2 * _polevl(y2, _P0)
    out /= _p1evl(y2, _Q0)
    out *= ym
    out += ym
    out *= _S2PI
    upper = flat > 1.0 - _EXP_M2
    tail = np.flatnonzero(upper | (flat <= _EXP_M2))
    if tail.size:
        upper = upper[tail]
        y = flat[tail]
        y = np.where(upper, 1.0 - y, y)
        x = np.sqrt(-2.0 * _libm_log(y))
        if not (x < 8.0).all():
            raise ValueError("ndtri: argument outside [exp(-32), 1 - exp(-32)]")
        x0 = x - _libm_log(x) / x
        z = 1.0 / x
        x = x0 - z * _polevl(z, _P1) / _p1evl(z, _Q1)
        out[tail] = np.where(upper, x, -x)
    return out.reshape(y0.shape)


def truncated_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Normal(0, std) truncated to +-2 std, drawn via inverse CDF (no rejection)."""
    u = _PHI_LO + rng.random(shape) * (_PHI_HI - _PHI_LO)
    return ndtri(u) * std
