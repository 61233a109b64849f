"""The integer kernels of the numeric oracle: the expansion both tails
share, and the loops of the sums (numeric_oracle.numeric_sum).

A tail multiplies out a product of factors, finite sums of terms
c e^(i w t) t^(-p), into up to prod len(factor) terms.  _expand does it
on Python integers: the frequencies are integers over one power of two,
so they add exactly, and each factor's coefficients are rounded once to
Gaussian integers, so products and merges are exact; _merge_frequencies
folds conjugate pairs together and, for sums over the integers,
reduces the frequencies modulo 2 pi exactly.  numeric_integral's tail
and numeric_sum both consume that form.

numeric_sum plans a sum and checks its bound; the work is done here, on
Python integers where it can be: the head term by term in fixed point
(_head), the tail by summation by parts over exact forward differences
(_differences, _by_parts), and the prefix of near-resonant frequencies
that take the Hurwitz zeta function instead, with its drift bound
(_near_prefix, _drift_bound, _head_length).  _fixed and _nearest, the
roundings to fixed point, serve numeric_oracle's integral tail too.
"""

from __future__ import annotations

from collections import Counter
from math import lcm

import mpmath as mp
from mpmath import mpc, mpf

from . import InfeasibleError


class ToleranceUnreachableError(InfeasibleError):
    """An integral's error bound exceeds the requested tolerance, or
    an integral or a sum needs more work than MAX_ORACLE_WORK."""


def _drift_bound(p, N, delta):
    """Bound on sum_{m>=N} |e^(i delta m) - 1| m^(-p), from
    |e^(i delta m) - 1| <= min(2, delta m): delta zeta(p - 1, N) for
    p >= 3; for p = 2, delta (1/N + ln(K/N)) below K = 2/delta plus
    2 sum_{m>K} m^(-2) <= 2 delta above it."""
    if delta == 0:
        return mpf(0)
    if p >= 3:
        return delta * (mpf(N) ** (1 - p) + mpf(N) ** (2 - p) / (p - 2))
    return delta * (3 + mp.log(1 + 2 / (delta * N)))


def _head_length(p, dist):
    """First tail index N for a smallest distance |1 - z| of dist.  The
    summation-by-parts terms shrink by about (p + k) / (N dist) at step
    k, so N dist = 4 (p + 8) shrinks them fourfold over the first eight
    steps, and they keep shrinking for 3p + 24 more."""
    return int(mp.ceil(4 * (p + 8) / dist))


def _near_prefix(freqs, dists, p, limit):
    """(near, N): the longest prefix of near-1 frequencies whose drift
    bound, at the head length N the rest would need, stays within limit.
    freqs are sorted by |1 - z|, so one pass grows the prefix until the
    bound passes limit.  For p >= 3 the bound is linear in w, so a
    prefix's is that of the running sum of |c| w; p = 2 (at most three
    merged frequencies) sums a logarithm per frequency."""
    total = mpf(0)
    for k, (c, w) in enumerate(freqs, 1):
        N = _head_length(p, dists[k] if k < len(freqs) else 2)
        total += abs(c) * w
        drift = (_drift_bound(p, N, total) if p >= 3
                 else mp.fsum(abs(c) * _drift_bound(p, N, w) for c, w in freqs[:k]))
        if drift > limit:
            return k - 1, _head_length(p, dists[k - 1])
    return len(freqs), _head_length(p, 2)


def _differences(p, N, K):
    """([P Delta^k g(N) for k < K], P), g(m) = m^(-p): the forward
    differences as exact integer numerators over their common
    denominator P = lcm(N, ..., N + K - 1)^p, that of g(N), ...,
    g(N + K - 1).  They are kept exact because the differences cancel
    by up to (2N)^K."""
    P = lcm(*range(N, N + K)) ** p
    row = [P // (N + j) ** p for j in range(K)]
    diffs = []
    for _ in range(K):
        diffs.append(row[0])
        row = [row[j + 1] - row[j] for j in range(len(row) - 1)]
    return diffs, P


def _nearest(n, shift):
    """The integer n 2^-shift rounded to the nearest, ties to even."""
    if shift <= 0:
        return n << -shift
    q, r = divmod(n, 1 << shift)
    return q + (2 * r > 1 << shift or 2 * r == 1 << shift and q & 1)


def _fixed(z, bits):
    """The complex number z as a pair of integers, its parts times 2^bits
    rounded to the nearest, ties to even (as mp.nint rounds), on the
    parts' mantissas."""
    return tuple(_nearest(v.to_fixed(-v.exp), -v.exp - bits) for v in (z.real, z.imag))


def _expand(factors, P, budget, *extra):
    """The product of factors, each a list of terms (c, w, p) of
    c e^(i w t) t^(-p), on integers: (terms, ew, S, formed), terms mapping
    each (W, p) to [Cr, Ci] for the term (Cr + i Ci) 2^-S e^(i W 2^-ew t) t^(-p),
    and formed the number of terms formed.

    ew is the least exponent that makes every w, and each value of extra,
    an integer W over 2^ew, so frequencies add exactly and equal (W, p)
    merge.  Each factor's coefficients are rounded once, to the nearest
    multiple of 2^(e - P), 2^e above the largest of their parts, so a
    part is off by at most 2^(e - P - 1); products and sums are then exact.
    The rounding is relative to a factor's largest c, so terms of unequal
    weight come weighted (_tail_sum's by powers of T).
    Raises ToleranceUnreachableError before a factor's terms would take
    formed past budget."""
    ew = max(-mp.mpmathify(w).exp for w in [*extra, *(w for f in factors for _, w, _ in f)])
    terms, S, formed = {(0, 0): [1, 0]}, 0, 0
    for factor in factors:
        formed += len(terms) * len(factor)
        if formed > budget:
            raise ToleranceUnreachableError("the tail needs more terms than the %d the work cap leaves" % budget)
        sf = P - max(mp.mag(v) for c, _, _ in factor for v in (c.real, c.imag) if v)
        factor, product, S = [(*_fixed(c, sf), int(mp.ldexp(w, ew)), q) for c, w, q in factor], {}, S + sf
        for (W, p), (ar, ai) in terms.items():
            for br, bi, W2, q in factor:
                c = product.setdefault((W + W2, p + q), [0, 0])
                c[0] += ar * br - ai * bi
                c[1] += ar * bi + ai * br
        terms = product
    return terms, ew, S, formed


def _merge_frequencies(terms, period=0, shift=0):
    """_expand's terms of a real sum of c e^(i w x) x^(-p), merged.

    The sum is real, so it equals the real part of the sum over the
    returned terms, in which each conjugate pair shares one frequency:
    Re(c e^(i w x)) = Re(conj(c) e^(-i w x)).  Frequencies W are folded
    onto W >= 0; with a period (2 pi, for integer x, on W's grid) they are
    then shifted by shift (pi, for (-1)^x = e^(i pi x), which is real),
    reduced modulo the period and folded into [0, period / 2].  All of it
    is exact, so frequencies one modulo the period meet, and their
    coefficients cancel where the summand vanishes (a scale pi).  Equal
    (W, p) are merged and zero coefficients dropped."""
    merged = {}
    for (W, p), (cr, ci) in terms.items():
        if W < 0:
            W, ci = -W, -ci
        if period:
            W = (W + shift) % period
            if 2 * W > period:
                W, ci = period - W, -ci
        c = merged.setdefault((W, p), [0, 0])
        c[0] += cr
        c[1] += ci
    return {key: c for key, c in merged.items() if c != [0, 0]}


def _by_parts(freqs, dists, p, N, target):
    """sum_{m>=N} z^m m^(-p) for each z = e^(i w) of freqs, at distance
    |1 - z| of dists, by summation by parts (DLMF 2.10(ii)) taken K times:

        sum_{k<K} z^(N+k) Delta^k g(N) / (1 - z)^(k+1) + R_K,  g(m) = m^(-p).

    g is completely monotone, so sum_{m>=N} |Delta^K g(m)| telescopes
    to |Delta^(K-1) g(N)| and |R_K| <= |Delta^(K-1) g(N)| / |1 - z|^K,
    the size of the last term kept.  The terms shrink by about
    (p + k) / (N |1 - z|), so they are added while they shrink, up to
    K ~ N min|1 - z| of them, which costs nothing past the table of
    differences (_differences, exact integers over one denominator P).
    The factors t_k = z^(N+k) / (1 - z)^(k+1) are turned by z / (1 - z)
    in fixed point at Q = prec + K + bitlength(K) + 8 bits, which keep
    each t_k to the working precision although |1 - z| <= 2 shrinks it
    by up to 2^-K; sr + i si = sum_k t_k P Delta^k g(N) 2^Q is formed
    exactly and divided by P 2^Q once.  Returns sum_j Re(c_j * tail_j) and
    sum_j |c_j| * size_j, or None when the last term kept for some
    frequency is above target (a longer head is then needed).

    Rounding, in ulp (2^-Q) of sr and si, for a = 1 / |1 - z| = |t_0|, as
    |z| = 1, and mpmath's operations at Q + 10 bits each within one ulp
    there (2^-(Q+9), relative).  e^(i w N) / (1 - z), whose phase w N is
    rounded, is then within (|w N| + a + 4) 2^-(Q+9) of its value,
    relative, and z / (1 - z) within (a + 4) 2^-(Q+9); rounded to the
    nearest, t_0 is off by e_0 = sqrt(2) / 2 + a (|w N| + a + 4) 2^-9 and
    the turn by h = sqrt(2) / 2 + a (a + 4) 2^-9, in modulus.  A turn
    floors each part once, so e_(k+1) <= (a + h 2^-Q) e_k + a^(k+1) h +
    sqrt(2), and sr and si are off by at most
    sqrt(2) sum_(k<kept) e_k |P Delta^k g(N)| together."""
    K = int(N * min(dists)) + 1
    diffs, P = _differences(p, N, K)
    sizes = [abs(d) for d in diffs]
    Q = mp.mp.prec + K + K.bit_length() + 8
    den = P << Q
    value = bound = mpf(0)
    for (c, w), dist in zip(freqs, dists):
        with mp.workprec(Q + 10):
            z = mp.expj(w)
            (tr, ti), (qr, qi) = _fixed(mp.expj(w * N) / (1 - z), Q), _fixed(z / (1 - z), Q)
        # |term_k| = |Delta^k g(N)| / |1 - z|^(k+1), as |z| = 1, stops shrinking
        # when |Delta^k g(N)| >= |Delta^(k-1) g(N)| |1 - z|, decided on the
        # integers of dist = man 2^exp
        man, up, down = dist.man, max(-dist.exp, 0), max(dist.exp, 0)
        sr = si = kept = 0
        for d in diffs:
            if kept and sizes[kept] << up >= sizes[kept - 1] * man << down:
                break
            sr, si = sr + tr * d, si + ti * d
            tr, ti = (tr * qr - ti * qi) >> Q, (tr * qi + ti * qr) >> Q
            kept += 1
        last = mp.fdiv(sizes[kept - 1], P) / dist**kept
        if last > target:
            return None
        value += (c * mpc(mp.fdiv(sr, den), mp.fdiv(si, den))).real
        bound += abs(c) * last
    return value, bound


def _head(a_mp, N, alternating):
    """sum_{m=1}^{N-1} prod_k sinc(a_k m), times (-1)^m when alternating,
    as an mpf of P bits.

    Each e^(i a m) is carried as a pair of integers scaled by 2^P and
    turned by round(e^(i a) 2^P) once per m; equal scales share one
    turn, raised to their multiplicity.  The sines are multiplied in
    fixed point, floor-divided by m^p and summed exactly, and the sum is
    divided by prod_k a_k once, at P bits.  A turn adds at most 3 ulp
    (units of 2^-P) to a sine, so the sine at m is off by at most 3m
    ulp, the product at m by 3pm + p and its quotient by m^p by
    (3pm + p) / m^p + 1.  Summed, the head is off by at most

        (N + 3p (ln N + 2)) 2^-P / prod_k a_k + (p + 1) 2^-P |head|,

    and P = prec + bitlength(N) + 8 keeps that below 2^-prec / prod_k a_k
    for N >= 2p + 16, as numeric_sum's are (its prec has guard bits for
    the 1 / prod_k a_k)."""
    p = len(a_mp)
    P = mp.mp.prec + N.bit_length() + 8
    with mp.workprec(P + 10):
        turns = [(*_fixed(mp.expj(a), P), e) for a, e in Counter(a_mp).items()]
    cs, sn = [1 << P] * len(turns), [0] * len(turns)
    total = 0
    for m in range(1, N):
        v = 1 << P
        for j, (rc, rs, e) in enumerate(turns):
            c, s = cs[j], sn[j]
            cs[j], sn[j] = c, s = (c * rc - s * rs) >> P, (c * rs + s * rc) >> P
            v = v * s**e >> P * e
        v //= m**p
        total += -v if alternating and m & 1 else v
    with mp.workprec(P):
        return mp.ldexp(total, -P) / mp.fprod(a_mp)
