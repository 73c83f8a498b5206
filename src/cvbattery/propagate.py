"""The Fock route's propagator: exp(t A) b at uniformly spaced samples, for
the float64 CSR operator A and start b that ``focksim.evolve`` builds, by
the truncated Taylor series of Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
488 (2011), algorithm 5.2, as scipy's ``expm_multiply`` implements it, run
here with scipy's arithmetic but without its per-term overhead.

A is any matrix in canonical CSR form (sorted column indices, no duplicate
entries) with the attributes ``data``, ``indices``, ``indptr``, ``shape``
and ``nnz``: the package's own ``CSR``, built by ``csr`` from coordinates,
or a scipy sparse matrix.  Its products run on scipy's compiled CSR kernels,
loaded from their file (``scipyext``), so the Fock route never imports
scipy.sparse.

A is shifted by mu = tr(A)/n, and the Taylor degree m* and the step count s
for one sample step h come from the cost loop of the paper's code fragment
(3.1) on scipy's table: on the exact 1-norm of h A where that norm meets
the paper's condition (3.13), as scipy chooses, and otherwise on upper
bounds on the 1-norms of powers of h A from exact column sums of their
magnitudes, with no random draw (``_taylor_plan``).  Where one step needs
s >= 2 sub-steps, each sample is the previous one advanced by s Taylor
series in hA/s: scipy's per-sample branch, bit for bit.  Where it needs one,
a single series from sample k serves the d samples that it spans, the
largest d with d h ||A - mu I||_1 <= theta_55, the 1-norm bound of scipy's
highest degree; that is the term sharing of the paper's algorithm 5.2, with
the group's degree m* from scipy's selection at d h.  d = 1 is the
per-sample loop again.  The terms are computed once per series, and sample
k + i is sum_j i^j T_j times exp(i h mu / s), one phase step for every span.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError
from .scipyext import load_extension

# scipy's compiled CSR kernels, the products of its sparse matrices:
# csr_matvec adds A x into y, csr_matvecs adds A X into Y for row-major
# blocks X and Y, each row of A summed in its stored order
_sparsetools = load_extension("scipy.sparse._sparsetools")
csr_matvec, csr_matvecs = _sparsetools.csr_matvec, _sparsetools.csr_matvecs

_UNIT_ROUNDOFF = 2.0**-53  # the Taylor series stops when its terms fall below it
# scipy's theta_m: ||h A||_1 <= theta_m bounds the error of the degree-m
# Taylor series of exp(h A) by the unit roundoff (Al-Mohy & Higham, tables
# A.3 and 3.1)
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3, 6: 9.07e-3, 7: 2.38e-2,
    8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1,
    14: 5.14e-1, 15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43, 26: 2.64, 27: 2.86, 28: 3.08,
    29: 3.31, 30: 3.54, 35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
# condition (3.13), in scipy's arithmetic: below this ||h A||_1 the 1-norm
# alone fixes (m*, s); 2 l p_max (p_max + 3) theta_55 / 55 with l = 2 norm
# columns and p_max = 8, the largest p with p (p - 1) <= 56
_BOUND_3_13 = 352 * (_THETA[55] / float(55))
# the most samples one series serves: keeps the weights i^j (j <= 55) and
# their table small and the terms (h A)^j / j! far from underflow
_MAX_SPAN = 64


class CSR(NamedTuple):
    """An n_rows x n_cols sparse matrix in scipy's CSR layout: row i holds
    the values ``data[indptr[i]:indptr[i + 1]]`` in the columns ``indices``
    of the same slice."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    @property
    def nnz(self) -> int:
        return self.data.size


def csr(rows, cols, vals, shape) -> CSR:
    """The canonical CSR matrix of ``shape`` with the entries ``vals`` at
    (``rows``, ``cols``): columns sorted within each row, the entries at one
    position summed and zero sums dropped, the form that scipy's sparse
    arithmetic leaves.  A sum of two entries does not depend on their order,
    so where no more than two share a position the values are scipy's."""
    key = np.asarray(rows, dtype=np.intp) * shape[1] + cols
    order = np.argsort(key)
    key, vals = key[order], np.asarray(vals)[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    if vals.size:
        vals = np.add.reduceat(vals, first)
    nonzero = vals != 0
    rows, cols = np.divmod(key[first][nonzero], shape[1])
    indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=shape[0]))]
    return CSR(vals[nonzero], cols, indptr, tuple(shape))


def csr_rows(A) -> np.ndarray:
    """The row index of each stored entry of the CSR matrix A."""
    return np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))


def _degree(alpha):
    """(m*, s) of least cost m s, the lower degree on a tie, with s =
    ceil(alpha_p / theta_m) for the least alpha_p that degree m may use,
    p (p - 1) - 1 <= m: the cost loop of Al-Mohy & Higham's fragment (3.1).
    ``alpha`` maps p to a bound on alpha_p = max(d_p, d_{p+1}), d_p =
    ||(h A)^p||_1^(1/p); {1: ||h A||_1} gives scipy's 1-norm branch."""
    best_m = best_s = None
    for m, theta in _THETA.items():
        s = math.ceil(min(a for p, a in alpha.items() if p * (p - 1) - 1 <= m) / theta)
        if best_m is None or m * s < best_m * best_s:
            best_m, best_s = m, s
    return best_m, best_s


def _power_bounds(A, h_norm):
    """Upper bounds on d_1 ... d_9 for the CSR matrix A with ||h A||_1 =
    ``h_norm``: |A^p| <= |A|^p entrywise, so ||A^p||_1 is at most the
    largest entry of 1'|A|^p, here in units of ||A||_1^p, so no entry
    overflows: nine products with |A| / ||A||_1 from a vector of ones."""
    n = A.shape[0]
    rows, v, bounds = csr_rows(A), np.ones(n), []
    weights = np.abs(A.data) / np.bincount(A.indices, np.abs(A.data), n).max()
    for p in range(1, 10):
        v = np.bincount(A.indices, v[rows] * weights, n)
        bounds.append(h_norm * v.max() ** (1.0 / p))
    return bounds


def _taylor_plan(A, t, num):
    """(A - mu I, mu, m*, s, d) for ``num`` samples over [0, t] of the
    canonical CSR matrix A: the shift mu = tr(A)/n, the Taylor degree m*,
    the sub-step count s and the samples d that one series serves.

    The shifted A is canonical too, with scipy's values for A - mu I.  (m*,
    s) for one sample step h are ``_degree`` on the exact column-sum 1-norm
    of h (A - mu I) where it meets condition (3.13), scipy's choice, as at
    both Fock points of the gated benchmark, and above it, as on fig4's long
    steps, on ``_power_bounds``: a bound on alpha_p keeps the paper's bound
    on the backward error, and can only raise the cost m* s.  If s = 1, d is
    the largest count with d h ||A - mu I||_1 <= theta_55 (at most num - 1
    and ``_MAX_SPAN``), and for d > 1 m* is ``_degree`` at d h, whose step
    count is 1 except for d h ||A||_1 in (theta_1, 2 theta_1], where degree
    1 at 2 steps ties degree 2 at 1; m* times it is a degree that covers d h
    in one series, as theta_m / m grows with m.  A norm that is zero or
    underflows gives m* = 0, s = 1 and d = 1: each sample is the previous
    one times exp(h mu).
    """
    n = A.shape[0]
    rows = csr_rows(A)
    diagonal = rows == A.indices
    # scipy's A.trace(): the diagonal summed by numpy
    mu = np.bincount(rows[diagonal], A.data[diagonal], n).sum() / float(n)
    every = np.arange(n)
    A = csr(np.r_[rows, every], np.r_[A.indices, every], np.r_[A.data, np.full(n, -mu)], (n, n))
    # t ||A - mu I||_1: scipy sums each column over the rows in order
    a_norm = t * np.bincount(A.indices, np.abs(A.data), n).max()
    scale = 1.0 / (num - 1)
    if scale * a_norm <= _BOUND_3_13:
        m_star, s = _degree({1: scale * a_norm})
    else:
        bounds = _power_bounds(A, scale * a_norm)
        m_star, s = _degree({p: max(bounds[p - 1], bounds[p]) for p in range(2, 9)})
        s = max(s, 1)  # all bounds 0: A^2 = 0, and degree 1 is exact
    if s == 0:  # ||h A||_1 is zero or underflows: exp(h A) is the identity
        return A, mu, 0, 1, 1
    d = 1
    if s == 1:
        d = int(min(_THETA[55] / (scale * a_norm) + 1.0, num - 1, _MAX_SPAN))
        while d > 1 and (d / (num - 1)) * a_norm > _THETA[55]:
            d -= 1
        if d > 1:
            m_star, steps = _degree({1: (d / (num - 1)) * a_norm})
            m_star *= steps
    return A, mu, m_star, s, d


def expm_multiply(A, b, t_end, num, cols=slice(None)) -> np.ndarray:
    """Columns ``cols`` (every column by default) of exp(t A) b at the
    ``num`` times of ``np.linspace(0, t_end, num)``, an array of ``num``
    rows, for the float64 CSR matrix A and float64 vector b that
    ``focksim.evolve`` builds (``focksim._folded_problem``); ``evolve``
    refuses ``num < 2``.

    ``_taylor_plan`` fixes the Taylor degree m*, the sub-step count s and
    the span d of one series (module docstring).  Each series starts from
    sample k, and its terms T_j are the rows of one block, as many
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
    F, the nearer rows are summed the same way into their own rows), is
    multiplied by exp(i h mu / s).  At d = 1 that is the one sample,
    advanced by s such series, each scaled by exp(h mu / s): scipy's
    per-sample branch, with scipy's arithmetic operation for operation, so
    the result is the same to the bit wherever scipy takes that branch with
    the same (m*, s).  At d > 1, s = 1, and the last group takes the samples
    left over.  The result does not depend on the BLAS thread count.

    Only the rows of the series being computed are held, (d + 1) x n beside
    the block: the sample that it starts from and the d samples that it
    serves.  Once a series is done, every entry of its samples is checked
    to be finite, the columns not returned too (``ConvergenceError``
    otherwise), their columns ``cols`` are copied to the output and the
    farthest sample starts the next series.  Which columns are returned
    changes no arithmetic: they are the same bits for every ``cols``.
    """
    n = b.size
    h = t_end / (num - 1)
    A, mu, m_star, s, d = _taylor_plan(A, t_end, num)
    coeffs = [h / float(s * (j + 1)) for j in range(m_star)]
    X = np.empty((d + 1, n))  # row 0: the series' start; rows 1..d: its samples
    X[0] = b
    out = np.empty((num, X[0, cols].size))
    out[0] = b[cols]
    block = np.empty((1, n))  # row j: the term of degree j
    # guess: the terms computed before the first test, the previous
    # series' count (q stays 1 when m* = 0 and no series has terms)
    q = guess = 1
    W = np.array([[float(i**j) for j in range(m_star + 1)] for i in range(1, d + 1)])  # i^j
    etas = np.exp(np.arange(1.0, d + 1.0) * (h * mu / float(s)))[:, None]  # exp(i h mu / s)
    for k in range(0, num - 1, d):
        G = X[1:min(d, num - 1 - k) + 1]  # the samples that this series serves
        F = G[-1]
        F[:] = X[0]
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
        # any non-finite entry makes the sum non-finite, without a
        # boolean temporary
        if not np.isfinite(G.sum()):
            raise ConvergenceError("Lindblad propagation produced non-finite values")
        out[k + 1:k + 1 + len(G)] = G[:, cols]
        X[0] = F
    return out
