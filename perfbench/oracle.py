"""Exact-rational reference computations, made apart from the daemon.

Everything here uses Python's ``fractions.Fraction`` only; nothing links
or calls into the geopriv library.

* ``geometric_loss(n, alpha, loss, lo, hi)`` -- the worst-case loss of
  the range-restricted geometric mechanism G_{n,alpha} (the paper's
  Definition 4, in closed form): the max over true counts i in the side
  information {lo..hi} of the expected loss sum_r G[i][r] l(i, r).
* ``geometric_row(n, alpha, i)`` -- row i of G_{n,alpha} as floats.
* ``minimax_lp(n, alpha, loss, lo, hi)`` -- the optimal alpha-DP mechanism's
  minimax loss, from a dense exact-rational simplex (Bland's rule).
"""

from fractions import Fraction


def loss_value(loss, i, r):
    d = i - r
    if loss == "absolute":
        return abs(d)
    if loss == "squared":
        return d * d
    if loss == "zero-one":
        return 0 if d == 0 else 1
    raise ValueError("unknown loss " + loss)


def geometric_loss(n, alpha, loss, lo, hi):
    """Worst-case loss of G_{n,alpha} over {lo..hi}, in integer arithmetic.

    G[i][r] is (1-a)/(1+a) a^|i-r| for interior r and a^|i-r|/(1+a) for
    r in {0, n}.  With alpha = p/q, q^n (q + p) G[i][r] is the integer
    (q - p) p^d q^(n-d) for interior r and q p^d q^(n-d) for r in {0, n},
    where d = |i - r|; the loss is the largest row sum over that scale.
    """
    a = Fraction(alpha)
    p, q = a.numerator, a.denominator
    if n == 0:
        return Fraction(0)
    scaled = [p ** d * q ** (n - d) for d in range(n + 1)]
    best = None
    for i in range(lo, hi + 1):
        total = 0
        for r in range(n + 1):
            weight = q if r in (0, n) else q - p
            total += weight * scaled[abs(i - r)] * loss_value(loss, i, r)
        best = total if best is None else max(best, total)
    return Fraction(best, q ** n * (q + p))


def geometric_row(n, alpha, i):
    """Row i of G_{n,alpha} as floats (for goodness-of-fit tests)."""
    a = float(Fraction(alpha))
    if n == 0:
        return [1.0]
    return [(a ** abs(i - r) / (1 + a)) if r in (0, n)
            else (1 - a) / (1 + a) * a ** abs(i - r) for r in range(n + 1)]


def _simplex_min(c, a_ub, b_ub, a_eq, b_eq):
    """min c.x s.t. a_ub x <= b_ub, a_eq x = b_eq, x >= 0 (all b >= 0).

    Two-phase dense tableau over Fraction with Bland's rule; returns the
    optimal objective value.
    """
    m_ub, m_eq = len(a_ub), len(a_eq)
    nv = len(c)
    # Columns: x (nv), slacks (m_ub), artificials (m_eq).
    ncol = nv + m_ub + m_eq
    rows = []
    basis = []
    for k in range(m_ub):
        row = [Fraction(v) for v in a_ub[k]] + [Fraction(0)] * (m_ub + m_eq)
        row[nv + k] = Fraction(1)
        rows.append(row + [Fraction(b_ub[k])])
        basis.append(nv + k)
    for k in range(m_eq):
        row = [Fraction(v) for v in a_eq[k]] + [Fraction(0)] * (m_ub + m_eq)
        row[nv + m_ub + k] = Fraction(1)
        rows.append(row + [Fraction(b_eq[k])])
        basis.append(nv + m_ub + k)

    def pivot(pr, pc):
        p = rows[pr][pc]
        if p != 1:
            rows[pr] = [v / p for v in rows[pr]]
        prow = rows[pr]
        nz = [j for j, v in enumerate(prow) if v != 0]
        for k in range(len(rows)):
            if k != pr:
                f = rows[k][pc]
                if f != 0:
                    rk = rows[k]
                    for j in nz:
                        rk[j] -= f * prow[j]
        basis[pr] = pc

    def run(cost, allowed):
        while True:
            # Reduced costs: cost_j - sum_k cost_basis_k * rows[k][j].
            entering = None
            for j in range(ncol):
                if not allowed(j) or j in basis:
                    continue
                red = cost[j] - sum(cost[basis[k]] * rows[k][j]
                                    for k in range(len(rows)) if rows[k][j] != 0)
                if red < 0:
                    entering = j
                    break
            if entering is None:
                return
            best = None
            for k in range(len(rows)):
                v = rows[k][entering]
                if v > 0:
                    ratio = rows[k][-1] / v
                    if best is None or ratio < best[0] or (
                            ratio == best[0] and basis[k] < basis[best[1]]):
                        best = (ratio, k)
            if best is None:
                raise ValueError("unbounded LP")
            pivot(best[1], entering)

    art = set(range(nv + m_ub, ncol))
    phase1 = [Fraction(0)] * ncol
    for j in art:
        phase1[j] = Fraction(1)
    run(phase1, lambda j: True)
    if any(basis[k] in art and rows[k][-1] != 0 for k in range(len(rows))):
        raise ValueError("infeasible LP")
    # Drive zero-level artificials out of the basis where possible.
    for k in range(len(rows)):
        if basis[k] in art:
            for j in range(nv + m_ub):
                if rows[k][j] != 0 and j not in basis:
                    pivot(k, j)
                    break
    cost = [Fraction(v) for v in c] + [Fraction(0)] * (m_ub + m_eq)
    run(cost, lambda j: j not in art)
    return sum(cost[basis[k]] * rows[k][-1] for k in range(len(rows)))


def minimax_lp(n, alpha, loss, lo, hi):
    """Minimax loss of the optimal alpha-DP mechanism for side {lo..hi}.

    Variables x[i][r] (row-stochastic, alpha-DP between adjacent rows) and
    the bound t; minimise t subject to sum_r x[i][r] l(i, r) <= t for i in
    the side information.
    """
    a = Fraction(alpha)
    size = n + 1
    nv = size * size + 1
    t = nv - 1

    def var(i, r):
        return i * size + r

    a_ub, b_ub = [], []
    for i in range(n):
        for r in range(size):
            row = [0] * nv                # alpha x[i+1][r] - x[i][r] <= 0
            row[var(i + 1, r)] = a
            row[var(i, r)] = -1
            a_ub.append(row)
            b_ub.append(0)
            row = [0] * nv                # alpha x[i][r] - x[i+1][r] <= 0
            row[var(i, r)] = a
            row[var(i + 1, r)] = -1
            a_ub.append(row)
            b_ub.append(0)
    for i in range(lo, hi + 1):
        row = [0] * nv
        for r in range(size):
            row[var(i, r)] = loss_value(loss, i, r)
        row[t] = -1
        a_ub.append(row)
        b_ub.append(0)
    a_eq, b_eq = [], []
    for i in range(size):
        row = [0] * nv
        for r in range(size):
            row[var(i, r)] = 1
        a_eq.append(row)
        b_eq.append(1)
    c = [0] * nv
    c[t] = 1
    return _simplex_min(c, a_ub, b_ub, a_eq, b_eq)
