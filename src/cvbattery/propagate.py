"""The Fock route's propagator: exp(t A) b at uniformly spaced samples, for
the float64 CSR operator A and start b that ``focksim.evolve`` builds, by
the truncated Taylor series of Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
488 (2011), algorithm 5.2, as scipy's ``expm_multiply`` implements it, run
here with scipy's arithmetic but without its per-term overhead.

A is shifted by mu = tr(A)/n, and scipy's own norm estimates fix the Taylor
degree m* and the step count s for one sample step h.  Where one step needs
s >= 2 sub-steps, each sample is the previous one advanced by s Taylor
series in hA/s: scipy's per-sample branch, bit for bit.  Where it needs one,
a single series from sample k serves the d samples that it spans, the
largest d with d h ||A - mu I||_1 <= theta_55, the 1-norm bound of scipy's
highest degree; that is the term sharing of the paper's algorithm 5.2, with
the group's degree m* from scipy's selection at d h.  d = 1 is the
per-sample loop again.  The terms are computed once per series, and sample
k + i is sum_j i^j T_j times exp(i h mu / s), one phase step for every span.
"""

import numpy as np
import scipy.sparse as sp
# scipy's CSR product kernel (also the step of ``focksim._sector``) and its
# (degree, step count) selection: the package's only private scipy imports,
# pinned by the bit-identity tests of ``expm_multiply`` and by the scipy
# version bound in pyproject.toml
from scipy.sparse._sparsetools import csr_matvec
from scipy.sparse.linalg._expm_multiply import LazyOperatorNormInfo, _fragment_3_1

_UNIT_ROUNDOFF = 2.0**-53  # the Taylor series stops when its terms fall below it
_THETA_55 = 9.9  # scipy's theta_m at its highest degree, m = 55
# the most samples one series serves: keeps the weights i^j (j <= 55) and
# their table small and the terms (h A)^j / j! far from underflow
_MAX_SPAN = 64


def _taylor_plan(A, t, num):
    """(A - mu I, mu, m*, s, d) for ``num`` samples over [0, t]: the shift
    mu = tr(A)/n, the Taylor degree m*, the sub-step count s and the samples
    d that one series serves.

    (m*, s) are scipy's choice for one sample step, from its norm estimates
    on numpy's global RNG seeded with 0, the caller's state restored
    afterwards.  If s = 1, d is the largest count with
    d h ||A - mu I||_1 <= theta_55 (at most num - 1 and ``_MAX_SPAN``), and
    for d > 1 m* is scipy's degree at d h.  That call takes scipy's 1-norm
    branch, which draws nothing from the RNG, and its step count is 1 except
    for d h ||A||_1 in (theta_1, 2 theta_1], where degree 1 at 2 steps ties
    degree 2 at 1; m* times it is a degree that covers d h in one series,
    as theta_m / m grows with m.  A norm that is zero or underflows gives
    m* = 0, s = 1 and d = 1: each sample is the previous one times
    exp(h mu).
    """
    n = A.shape[0]
    mu = A.trace() / float(n)
    A = A - mu * sp.identity(n, format="csr")
    norm_info = LazyOperatorNormInfo(t * A, A_1_norm=t * abs(A).sum(axis=0).max(), ell=2,
                                     scale=1.0 / (num - 1))
    rng_state = np.random.get_state()
    np.random.seed(0)
    try:
        m_star, s = _fragment_3_1(norm_info, 1, _UNIT_ROUNDOFF, ell=2)
    finally:
        np.random.set_state(rng_state)
    if s == 0:  # ||h A||_1 is zero or underflows: exp(h A) is the identity
        return A, mu, 0, 1, 1
    d = 1
    if s == 1:
        d = int(min(_THETA_55 / norm_info.onenorm() + 1.0, num - 1, _MAX_SPAN))
        norm_info.set_scale(d / (num - 1))
        while d > 1 and norm_info.onenorm() > _THETA_55:
            d -= 1
            norm_info.set_scale(d / (num - 1))
        if d > 1:
            m_star, steps = _fragment_3_1(norm_info, 1, _UNIT_ROUNDOFF, ell=2)
            m_star *= steps
    return A, mu, m_star, s, d


def expm_multiply(A, b, t_end, num) -> np.ndarray:
    """exp(t A) b at the ``num`` times of ``np.linspace(0, t_end, num)``, for
    the float64 CSR matrix A and float64 vector b that ``focksim.evolve``
    builds (``focksim._folded_problem``); ``evolve`` refuses ``num < 2``.

    ``_taylor_plan`` fixes the Taylor degree m*, the sub-step count s and
    the span d of one series (module docstring).  Each series starts from a
    sample, X[k], and its terms T_j are the rows of one block, as many
    computed up front as the previous series used: each is one call of
    scipy's own CSR kernel, ``csr_matvec``, adding into a zeroed row as
    scipy's sparse product adds into a zeroed vector, and one in-place scale
    by h/(s j), with h = t_end / (num - 1), the step of ``np.linspace``.
    One ``np.abs(block).max(axis=1)`` gives every term norm.  The series
    stops, as in scipy, once two successive terms fall below
    2^-53 ||F||_inf, tested on its farthest sample, F = sum_j d^j T_j, with
    the term norms c_j = d^j ||T_j||_inf, in Python floats.  F at a
    candidate stop q sums rows 0..q: ``np.add.reduce`` along axis 0 where a
    series serves one sample, ``np.einsum("j,jk->k", d^j, rows)`` where it
    serves more.  Both are numpy's own loops (no BLAS), which for n > 1 add
    the (weighted) rows one by one, in order, and so round as scipy's
    running ``F = F + term`` (at n = 1 the shifted A is zero, and no term is
    formed).  F is formed only where the bound ||F_0||_inf + sum_j c_j lets
    the test pass (rounding keeps the computed ||F||_inf far below twice
    that bound, so the factor 2 below never skips a test that would have
    passed) and where the series reaches m*.  Until the test passes the
    block gains one term at a time; terms past the stop are discarded, and
    the block only grows to the most terms a series has used.

    After each series one phase step scales the samples that it serves:
    sample k + i, sum_j i^j T_j with i^j correctly rounded (the farthest is
    F, the nearer rows are summed the same way into their rows of X), is
    multiplied by exp(i h mu / s).  At d = 1 that is the one sample,
    advanced by s such series, each scaled by exp(h mu / s): scipy's
    per-sample branch, with scipy's arithmetic operation for operation, so
    the result is the same to the bit wherever scipy takes that branch.  At
    d > 1, s = 1, and the last group takes the samples left over.  The
    result does not depend on the caller's RNG state or the BLAS thread
    count, and the RNG state is left as it was.
    """
    n = b.size
    h = t_end / (num - 1)
    A, mu, m_star, s, d = _taylor_plan(A, t_end, num)
    coeffs = [h / float(s * (j + 1)) for j in range(m_star)]
    X = np.empty((num, n))
    X[0] = b
    block = np.empty((1, n))  # row j: the term of degree j
    # guess: the terms computed before the first test, the previous
    # series' count (q stays 1 when m* = 0 and no series has terms)
    q = guess = 1
    W = np.array([[float(i**j) for j in range(m_star + 1)] for i in range(1, d + 1)])  # i^j
    etas = np.exp(np.arange(1.0, d + 1.0) * (h * mu / float(s)))[:, None]  # exp(i h mu / s)
    for k in range(0, num - 1, d):
        G = X[k + 1:k + 1 + d]  # the samples that this series serves
        F = G[-1]
        F[:] = X[k]
        for _ in range(s):
            block[0] = F
            norms = [float(np.abs(F).max())]  # c_j = i^j ||T_j||_inf, i = len(G)
            c1 = bound = norms[0]
            for q in range(1, m_star + 1):
                if q == len(norms):  # the next terms: up to the guess, or one
                    top = max(q, guess)
                    if top >= len(block):  # grown to the terms used so far
                        block = np.concatenate([block[:q], np.empty((top + 1 - q, n))])
                    terms = block[q:top + 1]
                    terms.fill(0)
                    for j in range(q, q + len(terms)):
                        csr_matvec(n, n, A.indptr, A.indices, A.data, block[j - 1], block[j])
                        block[j] *= coeffs[j - 1]
                    c = np.abs(terms).max(axis=1)
                    if len(G) > 1:
                        c *= W[len(G) - 1, q:q + len(terms)]
                    norms += c.tolist()
                c2 = norms[q]
                bound += c2
                # F = the (weighted) terms up to q, where the test may pass
                # and where the series ends; numpy adds them in order, as
                # F += term does, when n > 1 (for n = 1 the shifted A is
                # zero: m* = 0 and d = 1).  einsum with unit weights gives
                # the same bits for one sample, but took 10% longer than
                # add.reduce at the (8,12) nonlinear point
                if c1 + c2 <= 2.0 * _UNIT_ROUNDOFF * bound or q == m_star:
                    if len(G) > 1:
                        np.einsum("j,jk->k", W[len(G) - 1, :q + 1], block[:q + 1], out=F)
                    else:
                        np.add.reduce(block[:q + 1], axis=0, out=F)
                    if c1 + c2 <= _UNIT_ROUNDOFF * np.abs(F).max():
                        break
                c1 = c2
            guess = q
            # the nearer samples, from the same terms (none at d = 1)
            for i in range(len(G) - 1):
                np.einsum("j,jk->k", W[i, :q + 1], block[:q + 1], out=G[i])
            G *= etas[:len(G)]
    return X
