"""Survival function of the finite-n two-sided Kolmogorov-Smirnov statistic.

``kstwo_sf(d, n)`` is P(D_n >= d) for the statistic D_n of n draws, as
``scipy.stats.kstwo.sf(d, n)`` computes it, bit for bit: a port of the
survival path of ``_kolmogn`` in scipy/stats/_ksstats.py (scipy 1.17), after
Simard and L'Ecuyer, J. Stat. Softw. 39(11), 2011.  By n and n d^2 it takes
the Ruben-Gambino ends, 2 smirnov(n, d), Durbin's matrix (Marsaglia-Tsang-
Wang), Pomeranz's recursion or the Pelz-Good series, with scipy's long-double
rescaling.  ``scipy.special.smirnov`` is imported on first use.

The ported code is Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy
Developers.  All rights reserved.  It is used under the BSD 3-Clause license,
whose text, conditions and disclaimer are in LICENSES/scipy-BSD-3-Clause.txt.
"""

from __future__ import annotations

import numpy as np

# intermediate results are rescaled by 2^128 to stay in range
_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)
_SQRT2PI, _LOG_2PI, _SQRT3 = np.sqrt(2 * np.pi), np.log(2 * np.pi), np.sqrt(3)
_PI_SQUARED, _PI_FOUR, _PI_SIX = np.pi ** 2, np.pi ** 4, np.pi ** 6
_MIN_LOG = -708
# B_2j / (2j (2j - 1)) for the Bernoulli numbers B_2j, j = 8, ..., 1
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def kstwo_sf(d: float, n: int) -> float:
    """P(D_n >= d), as ``scipy.stats.kstwo.sf(d, n)``, clipped to [0, 1]."""
    if d <= 0.5 / n:  # below the support of D_n
        return 1.0
    if d >= 1.0:
        return 0.0
    return float(np.clip(_kolmogn_sf(n, d), 0.0, 1.0))


def _kolmogn_sf(n, x):
    # scipy's _kolmogn(n, x, cdf=False) for an integer n >= 1 and 0 < x < 1
    from scipy.special import smirnov
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: 1/2n <= x <= 1/n
        if t <= 0.5:
            return 1.0
        if n <= 140:
            prob = np.prod(np.arange(1, n+1) * (1.0/n) * (2*t - 1))
        else:  # log(n!/n^n) by Stirling's series, n log n taken out up front
            rn = 1.0 / n
            log_nf = np.log(n)/2 - n + _LOG_2PI/2 + rn * np.polyval(_STIRLING_COEFFS, rn/n)
            prob = np.exp(log_nf + n * np.log(2*t-1))
        return 1.0 - prob
    if t >= n - 1:  # Ruben-Gambino
        return 2 * (1.0 - x)**n
    if x >= 0.5:  # exact
        return 2 * smirnov(n, x)
    nxsquared = t * x
    if n <= 140:
        if nxsquared <= 0.754693:
            return 1.0 - _durbin_cdf(n, x)
        if nxsquared <= 4:
            return 1.0 - _pomeranz_cdf(n, x)
        return 2 * smirnov(n, x)  # Miller's approximation
    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return 2 * smirnov(n, x)
    if n <= 100000 and n * x**1.5 <= 1.4:
        return 1.0 - _durbin_cdf(n, x)
    return 1.0 - _pelz_good_cdf(n, x)


def _durbin_cdf(n, d):
    """P(D_n <= d) by Durbin's matrix, in Marsaglia, Tsang and Wang's form."""
    # d = (k - h)/n with k an integer and 0 <= h < 1: the answer is the k-th
    # diagonal entry of (n!/n^n) H^n for an m x m matrix H, m = 2k - 1, whose
    # first column and reversed last row are v, v[j] = (1 - h^j)/j! but the last
    nd = n * d
    k = int(np.ceil(nd))
    h, m = k - nd, 2 * k - 1
    H, intm = np.zeros([m, m]), np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)  # w[j] = 1/j!
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # may underflow, harmlessly
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0)**m - 2*h**m
    v[-1] = (1.0 + tt) * fac
    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)
    Hpwr = np.eye(np.shape(H)[0])  # H^n by repeated squaring
    nn, expnt, Hexpnt = n, 0, 0    # the scalings of Hpwr and H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2
    p = Hpwr[k - 1, k - 1]
    for i in range(1, n + 1):  # times n!/n^n
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return np.clip(p, 0.0, 1.0)


def _pomeranz_j1j2(i, n, ll, ceilf, roundf):
    """The first and last nonzero entries of row i."""
    ip1div2, ip1mod2 = divmod(i + 1, 2)
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    elif ip1mod2 == 0 and ip1div2 == n + 1:  # i is odd, the last row
        j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
    elif ip1mod2 == 0:  # i is odd
        j1, j2 = ip1div2 - 1 - ll - roundf - 1, ip1div2 + ll - 1 + ceilf - 1
    else:
        j1, j2 = ip1div2 - 1 - ll - 1, ip1div2 + ll + roundf - 1
    return max(j1 + 2, 0), min(j2, n)


def _pomeranz_cdf(n, x):
    """P(D_n <= x) by Pomeranz's recursion (1974)."""
    # Each of the 2n + 2 rows is the convolution of the previous one with one
    # of three truncated Poisson laws; the answer is n! times the last entry.
    # Two rows are kept, swapped each step, with only their nonzero stretch.
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)  # the fractional part of t
    g = min(f, 1.0 - f)
    ceilf, roundf = (1 if f > 0 else 0), (1 if f > 0.5 else 0)
    npwrs = 2 * (ll + 1)
    # rows (g/n)^m/m!, (2g/n)^m/m! and ((1-2g)/n)^m/m!
    powers = np.empty((3, npwrs))
    powers[:, 0] = 1.0
    ratios = np.array([g / n, 2 * g / n, (1 - 2 * g) / n])
    for m in range(1, npwrs):
        powers[:, m] = powers[:, m - 1] * ratios / m
    gpower, twogpower, onem2gpower = powers
    V0, V1 = np.zeros([npwrs]), np.zeros([npwrs])
    V1[0] = 1
    V0s, V1s, expnt = 0, 0, 0  # where each row's stretch starts; the scaling
    j1, j2 = _pomeranz_j1j2(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        k1, V0, V1, V0s, V1s = j1, V1, V0, V1s, V0s
        V1.fill(0.0)
        j1, j2 = _pomeranz_j1j2(i, n, ll, ceilf, roundf)
        pwrs = (gpower if i == 1 or i == 2 * n + 1
                else twogpower if i % 2 else onem2gpower)
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s:k1 - V0s + ln2], pwrs[:ln2])
            V1[:j2 - j1 + 1] = conv[j1 - k1:j2 - k1 + 1]
            if 0 < np.max(V1) < _EM128:
                V1 *= _EP128
                expnt -= _E128
            V1s = V0s + j1 - k1
    ans = V1[n - V1s]
    for m in range(1, n + 1):  # times n!
        if np.abs(ans) > _EP128:
            ans *= _EM128
            expnt += _E128
        ans *= m
    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return np.clip(ans, 0.0, 1.0)


def _pelz_good_cdf(n, x):
    """P(D_n <= x) by Pelz and Good (1976): the Li-Chien-Korolyuk series
    sum_i K_i(z)/n^(i/2), z = x sqrt(n), rewritten by theta functions for small z."""
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6
    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z below about 0.0417
        return 0.0
    q = np.exp(qlog)
    k1a, k1b = -zsquared, _PI_SQUARED / 4
    k2a, k2b = 6 * zsix + 2 * zfour, (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16
    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8
    # sum over odd m of c_i(m) q^(m^2), by Horner's scheme in q^8
    K0to3 = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        K0to3 *= np.power(q, 8 * k)
        K0to3 += np.array([1.0, k1a + k1b*msquared, k2a + k2b*msquared + k2c*mfour,
                           k3a + k3b*msquared + k3c*mfour + k3d*msix])
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])
    # the further terms of K2 and K3, summed directly over all integers k
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z, kspi = _SQRT3 * z, np.pi * ks
    qpwers = q ** ksquared
    K0to3[2] += np.sum(ksquared * qpwers) * (_PI_SQUARED * _SQRT2PI/(-36 * zthree))
    K0to3[3] += (np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
                 * (_PI_SQUARED * _SQRT2PI/(216 * zsix)))
    K0to3 /= np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    return sum(K0to3)
