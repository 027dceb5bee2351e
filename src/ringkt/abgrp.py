"""Exact arithmetic for finitely generated abelian groups and their colimits.

Everything in this module is exact: integer matrices are lists of lists of
Python ints, rational computations use ``fractions.Fraction``.  Products and
the one elimination over Q (``_echelon``, behind ``rank``, ``rref_fractions``
and ``solve_exact``) run on sparse rows (``{column: value}`` maps of the
nonzero entries), so their cost follows the nonzero entries rather than the
dimension.  Determinants (fraction-free Bareiss) and Smith forms are dense;
``cokernel`` eliminates only the support.  The two main exports are

* ``smith_normal_form`` and friends (``cokernel``, ``kernel_lattice_basis``),
  with the convention ``a == u @ d @ v`` where ``u`` and ``v`` are unimodular
  and ``d`` is diagonal, nonnegative, with each entry dividing the next.  One
  elimination (``_snf``) serves all three and tracks only the transforms its
  caller reads; it never carries ``u``, which ``smith_normal_form`` rebuilds
  once from ``a @ v^-1`` and the log of row operations; and

* a classifier for sequential colimits ``Z^k -M1-> Z^k -M2-> ...`` of free
  abelian groups along integer matrices (``DirectedSystem`` / ``colimit``),
  together with ``compose_window`` and the element-identification decision
  procedure ``identified``.  The engine keeps every structure map as sparse
  rows, checked once in whichever form it came; only the kernel lattice, the
  eigen classifier and public return values get dense copies.

The colimit classifier certifies exact answers for the class of systems whose
matrices become upper triangular under a common permutation of coordinates
(the union zero pattern has no cycle) or which form a commuting family with
an integral joint spectrum, read in integers (characteristic polynomials,
Sturm isolation and generalized eigenspaces; no sympy) and checked against
the traces.  Both classes are read off one flag of directions (coordinates,
or joint eigenvalue tuples) with the same samples, the chain and two
confirmation maps beyond it; on each direction the diagonal scaling must
follow a monomial law ``c * d**e`` (separately on odd and even step
parameters, which covers parity-dependent laws).  Systems outside this class
are rejected with a diagnostic instead of guessed at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import compress, islice
from operator import mul

from .errors import CrossCheckError, InputError, UnsupportedSystemError

# ---------------------------------------------------------------------------
# basic integer / rational matrix helpers
# ---------------------------------------------------------------------------


def mat_shape(a):
    """(rows, cols) of a rectangular list-of-lists matrix; validates shape."""
    if not isinstance(a, (list, tuple)) or not a:
        raise InputError("matrix must be a non-empty list of rows")
    rows = len(a)
    cols = len(a[0]) if isinstance(a[0], (list, tuple)) else -1
    for row in a:
        if not isinstance(row, (list, tuple)) or len(row) != cols:
            raise InputError("matrix rows must all have the same length")
    return rows, cols


_INT = frozenset((int,))


def _as_int(x, what):
    """``x`` as a Python int: the one integer rule for values from outside.

    ``bool`` and every non-integral value (floats included) raise
    ``InputError`` naming ``what``; ``Fraction(k, 1)`` is accepted as ``k``.
    """
    if type(x) is int:
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError(f"{what} {x!r} is not an integer")
    return int(x)


def _as_list(x, what):
    """``x`` if it is a list or tuple (a JSON array), else ``InputError``."""
    if not isinstance(x, (list, tuple)):
        raise InputError(f"{what} must be a list")
    return x


def _check_keys(obj, keys, what):
    """Refuse a key of the JSON object ``obj`` that is not among ``keys``."""
    for key in obj:
        if key not in keys:
            raise InputError(f"{what} must be an object with keys among "
                             f"{', '.join(keys)}; unknown key {key!r}")


def as_int_matrix(a):
    """Copy ``a`` as a list of lists of Python ints, rejecting non-integers
    by the rule of ``_as_int``."""
    mat_shape(a)
    out = []
    for row in a:
        if _INT.issuperset(map(type, row)):
            out.append(list(row))
        else:
            out.append([_as_int(x, "matrix entry") for x in row])
    return out


def identity_matrix(k):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def _sparse_rows(a):
    """The rows of a dense matrix as ``{column: value}`` maps of nonzero entries."""
    return [dict(zip(compress(range(len(row)), row), compress(row, row))) for row in a]


def _dense_rows(rows, cols):
    """The dense ``len(rows) x cols`` matrix of sparse rows (absent cells are ``0``)."""
    out = []
    for row in rows:
        new = [0] * cols
        for j, x in row.items():
            new[j] = x
        out.append(new)
    return out


def _sparse_mul(a_rows, b_rows):
    """``a @ b`` for matrices given as sparse rows; the product is sparse too.

    Each nonzero entry ``a[i][k]`` meets only the nonzero entries of row
    ``k`` of ``b``, so the work is the number of nonzero products.
    """
    out = []
    for arow in a_rows:
        acc = {}
        for k, x in arow.items():
            for j, y in b_rows[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: v for j, v in acc.items() if v})
    return out


def mat_mul(a, b):
    """Matrix product (exact; works for int or Fraction entries).

    Works row by row over the nonzero entries of ``a`` and of the rows of
    ``b``.  Every cell keeps the type the dense sum
    ``sum(a[i][k] * b[k][j])`` gives it: a ``Fraction`` (zero included) when
    row ``i`` of ``a`` or column ``j`` of ``b`` holds a ``Fraction``, an int
    otherwise.
    """
    m, n = mat_shape(a)
    n2, p = mat_shape(b)
    if n != n2:
        raise InputError(f"cannot multiply {m}x{n} by {n2}x{p}")
    frac_cols = {j for row in b for j, x in enumerate(row) if type(x) is Fraction}
    out = _dense_rows(_sparse_mul(_sparse_rows(a), _sparse_rows(b)), p)
    for row, new in zip(a, out):
        cols = range(p) if any(type(x) is Fraction for x in row) else frac_cols
        for j in cols:
            if type(new[j]) is not Fraction:
                new[j] = Fraction(new[j])
    return out


def rank(a):
    """Rank over Q (exact elimination on sparse ``Fraction`` rows)."""
    mat_shape(a)
    return len(_echelon(_sparse_rows(a)))


def _subtract(row, f, piv):
    """``row -= f * piv`` in place for sparse rows; cancelled cells are dropped."""
    for j, y in piv.items():
        v = row.get(j, 0) - f * y
        if v:
            row[j] = v
        else:
            row.pop(j, None)


def _echelon(rows):
    """Row echelon form over Q of sparse rows, as ``{pivot column: row}``.

    Rows are added one at a time.  Each step clears the lowest column of a
    row with the pivot row of that column; a pivot row has no entry left of
    its pivot, so the lowest column rises.  A row that keeps a column with no
    pivot becomes the pivot row of that column; one that reduces to zero lies
    in the row space.  Entries become ``Fraction`` only when a step touches
    them.  This is the only elimination over Q: ``rank`` counts the pivots
    and ``rref_fractions`` back-substitutes them.
    """
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = row
                break
            _subtract(row, Fraction(row[c]) / piv[c], piv)
    return pivots


def _is_unimodular(rows):
    """True iff the square matrix of sparse ``rows`` has determinant +-1.

    The echelon only subtracts multiples of earlier rows, which keeps
    ``|det|``; so the matrix is unimodular exactly when every row keeps a
    pivot and the pivots multiply to +-1.

    >>> _is_unimodular([{0: 2, 1: 1}, {0: 1, 1: 1}]), _is_unimodular([{0: 2}, {1: 1}])
    (True, False)
    >>> _is_unimodular([{0: 1, 1: 2}, {0: 2, 1: 4}]), _is_unimodular([])
    (False, True)
    """
    pivots = _echelon(rows)
    return len(pivots) == len(rows) and abs(math.prod(r[c] for c, r in pivots.items())) == 1


def determinant(a):
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    m, n = mat_shape(a)
    if m != n:
        raise InputError("determinant needs a square matrix")
    mat = as_int_matrix(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if mat[i][k]), None)
            if piv is None:
                return 0
            mat[k], mat[piv] = mat[piv], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[n - 1][n - 1]


def rref_fractions(a):
    """Reduced row echelon form over Q; returns (rows, pivot_columns).

    Back-substitutes the pivot rows of the sparse echelon, highest pivot
    first, so each row is cleared with rows that are already reduced.  The
    ``m`` output rows are ``Fraction`` lists, zero rows last.
    """
    m, n = mat_shape(a)
    reduced = {}
    for c, row in sorted(_echelon(_sparse_rows(a)).items(), reverse=True):
        inv = Fraction(1) / row[c]
        row = {j: x * inv for j, x in row.items()}
        for k in [k for k in row if k != c and k in reduced]:
            _subtract(row, row[k], reduced[k])
        reduced[c] = row
    pivots = sorted(reduced)
    rows = [[Fraction(0)] * n for _ in range(m)]
    for out, c in zip(rows, pivots):
        for j, x in reduced[c].items():
            out[j] = x
    return rows, pivots


def solve_exact(a, b):
    """Solve ``a @ x = b`` over Q for matrix ``b`` (columns solved jointly).

    ``a`` must have full column rank and the system must be consistent;
    otherwise an ``InputError`` is raised.  Returns a Fraction matrix ``x``
    with ``a @ x == b``.
    """
    m, n = mat_shape(a)
    mb, p = mat_shape(b)
    if mb != m:
        raise InputError("incompatible shapes in solve_exact")
    rows, pivots = rref_fractions([list(ra) + list(rb) for ra, rb in zip(a, b)])
    if len([c for c in pivots if c < n]) != n:
        raise InputError("solve_exact: coefficient matrix is not of full column rank")
    if any(c >= n for c in pivots):
        raise InputError("solve_exact: inconsistent linear system")
    x = [[Fraction(0)] * p for _ in range(n)]
    for r, c in enumerate(pivots):
        for j in range(p):
            x[c][j] = rows[r][n + j]
    return x


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def _snf(a, inverse=False, transforms=False):
    """Core SNF reduction of ``a``: the diagonal, and only the transforms asked for.

    Returns ``(d, v, vi_cols, log)``.  ``d`` is the Smith form of ``a``.
    ``vi_cols`` (the columns of ``v^-1``, the product of the column
    operations) is tracked when ``inverse`` or ``transforms``; ``v`` and the
    ``log`` of row operations only when ``transforms``.  Untracked ones are
    None.  ``u`` is never tracked: ``_rebuild_u`` makes it from ``vi_cols``
    and the log.

    A log entry ``(r, s, q)`` adds ``q`` times row ``s`` to row ``r``; ``q == 0``
    swaps rows ``r`` and ``s`` instead, and ``r == s`` negates row ``r``.
    ``a`` is an int matrix its caller has checked; it is copied, not changed.

    Step ``t`` takes the first entry (row by row) of least absolute value in
    the trailing block as its pivot; a unit ends the search.  The cells left
    of and above the trailing block are zero, so row operations touch only
    the columns ``>= t`` and column operations only the rows ``>= t``.
    """
    m, n = len(a), len(a[0])
    d = [list(row) for row in a]
    track = inverse or transforms
    vi_cols = identity_matrix(n) if track else None
    v = identity_matrix(n) if transforms else None
    log = [] if transforms else None

    def row_add(r, s, q):
        d[r][t:] = [x + q * y for x, y in zip(islice(d[r], t, None), islice(d[s], t, None))]
        if log is not None:
            log.append((r, s, q))

    def col_add(c, s, q, rows):
        # d: col c += q * col s on ``rows``; v gets the inverse row op.
        for i in rows:
            row = d[i]
            row[c] += q * row[s]
        if track:
            vi_cols[c] = [x + q * y for x, y in zip(vi_cols[c], vi_cols[s])]
        if v is not None:
            v[s] = [x - q * y for x, y in zip(v[s], v[c])]

    t = 0
    while t < min(m, n):
        best = bi = bj = 0
        for i in range(t, m):
            low = min(map(abs, filter(None, islice(d[i], t, None))), default=0)
            if low and (not best or low < best):
                best, bi = low, i
                bj = next(j for j in range(t, n) if abs(d[i][j]) == low)
                if low == 1:
                    break
        if not best:
            break
        if bi != t:
            d[t], d[bi] = d[bi], d[t]
            if log is not None:
                log.append((t, bi, 0))
        if bj != t:
            for i in range(t, m):
                row = d[i]
                row[t], row[bj] = row[bj], row[t]
            if track:
                vi_cols[t], vi_cols[bj] = vi_cols[bj], vi_cols[t]
            if v is not None:
                v[t], v[bj] = v[bj], v[t]
        p = d[t][t]
        if best != 1:
            dirty = False
            for i in range(t + 1, m):
                if d[i][t] % p:
                    row_add(i, t, -(d[i][t] // p))
                    dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if d[t][j] % p:
                    col_add(j, t, -(d[t][j] // p), range(t, m))
                    dirty = True
            if dirty:
                continue
        for i in range(t + 1, m):
            if d[i][t]:
                row_add(i, t, -(d[i][t] // p))
        # Column t is now zero below the pivot, so clearing row t changes row t alone.
        for j in range(t + 1, n):
            if d[t][j]:
                col_add(j, t, -(d[t][j] // p), (t,))
        if best != 1:
            stray = next((i for i in range(t + 1, m)
                          if any(map(p.__rmod__, filter(None, islice(d[i], t + 1, None))))), None)
            if stray is not None:
                # Pull the offending row into the pivot row; the next pass reduces it.
                row_add(t, stray, 1)
                continue
        if p < 0:
            d[t][t] = -p
            if log is not None:
                log.append((t, t, -1))
        t += 1
    return d, v, vi_cols, log


def _rebuild_u(a, d, vi_cols, log):
    """The unimodular ``u`` with ``a == u @ d @ v``, rebuilt once after ``_snf``.

    ``a @ v^-1 == u @ d``, so for ``d[j][j] != 0`` column ``j`` of ``u`` is
    column ``j`` of ``a @ v^-1`` divided by ``d[j][j]``; the division is
    exact, and a remainder raises ``CrossCheckError``.  The other columns
    (``d[j][j] == 0``, and ``j >= n`` when ``m > n``) are ``e_j`` with the
    logged row operations undone, the last one first.
    """
    m = len(d)
    rank = sum(1 for j in range(min(m, len(vi_cols))) if d[j][j])
    cols = []
    for j in range(rank):
        col = []
        for row in a:
            q, r = divmod(sum(map(mul, row, vi_cols[j])), d[j][j])
            if r:
                raise CrossCheckError(
                    f"smith_normal_form: column {j} of a @ v^-1 is not divisible by d[{j}][{j}]"
                )
            col.append(q)
        cols.append(col)
    rest = [[1 if i == j else 0 for j in range(rank, m)] for i in range(m)]
    if rank < m:
        for r, s, q in reversed(log):
            if r == s:
                rest[r] = [-x for x in rest[r]]
            elif q:
                rest[r] = [x - q * y for x, y in zip(rest[r], rest[s])]
            else:
                rest[r], rest[s] = rest[s], rest[r]
    lead = zip(*cols) if cols else [()] * m
    return [list(head) + tail for head, tail in zip(lead, rest)]


def smith_normal_form(a):
    """Smith normal form with transforms: ``a == u @ d @ v``.

    ``u`` (rows x rows) and ``v`` (cols x cols) are unimodular, ``d`` is
    diagonal with nonnegative entries ``d[0][0] | d[1][1] | ...``.  The
    elimination tracks ``v``, ``v^-1`` and a log of its row operations, not
    ``u``; ``u`` is rebuilt once at the end from ``a @ v^-1`` (exact division
    by the diagonal) and, for the zero diagonal entries, the log.

    >>> u, d, v = smith_normal_form([[2, 4], [6, 8]])
    >>> [d[i][i] for i in range(2)]
    [2, 4]
    """
    a = as_int_matrix(a)
    d, v, vi_cols, log = _snf(a, transforms=True)
    return _rebuild_u(a, d, vi_cols, log), d, v


def kernel_lattice_basis(a):
    """Basis of the full kernel lattice ``{x in Z^n : a @ x = 0}``.

    Kernels of integer matrices are saturated subgroups, and the basis
    returned here generates the whole kernel (not a finite-index sublattice).
    Vectors are returned as lists of ints.
    """
    return _kernel_basis(as_int_matrix(a))


def _kernel_basis(a):
    """``kernel_lattice_basis`` of a checked int matrix: columns of ``v^-1``."""
    d, _, vi_cols, _ = _snf(a, inverse=True)
    k = min(len(a), len(a[0]))
    return [col for j, col in enumerate(vi_cols) if j >= k or d[j][j] == 0]


def image_lattice_basis(a):
    """Basis of the subgroup of Z^m generated by the columns of ``a``.

    ``a @ v^-1 == u @ d`` generates the same subgroup, since ``v`` is
    unimodular; its columns at the nonzero diagonal entries of ``d`` are
    independent, and the others vanish, so they are a basis.
    """
    a = as_int_matrix(a)
    d, _, vi_cols, _ = _snf(a, inverse=True)
    return [[sum(map(mul, row, vi_cols[j])) for row in a]
            for j in range(min(len(a), len(vi_cols))) if d[j][j]]


# ---------------------------------------------------------------------------
# group descriptors
# ---------------------------------------------------------------------------


def _factor_multiplicity(x):
    """dict prime -> exponent for x >= 2 (trial division; inputs are small).

    Any ``x < 2`` gives the empty dict.
    """
    out = {}
    f = 2
    while f * f <= x:
        while x % f == 0:
            out[f] = out.get(f, 0) + 1
            x //= f
        f += 1 if f == 2 else 2
    if x > 1:
        out[x] = out.get(x, 0) + 1
    return out


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    """True when the integer ``n`` is prime.

    Trial division by the first 13 primes, then the strong-probable-prime
    (Miller-Rabin) test to each of them as a base, decides every ``n`` below
    ``_MR_BOUND``, the least strong pseudoprime to all 13 bases (Sorenson and
    Webster, Math. Comp. 86, 2017).  A number at or above the bound with no
    factor among the 13 primes raises ``InputError``.

    >>> [p for p in range(30, 2000) if _is_prime(p)][:3], _is_prime(43 * 47)
    ([31, 37, 41], False)
    """
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # no prime factor up to 41, and none above sqrt(n)
        return n > 1
    if n >= _MR_BOUND:
        raise InputError(
            f"cannot decide whether {n} is prime: Miller-Rabin with the first "
            f"13 prime bases is proven only below {_MR_BOUND}"
        )
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * odd
    for a in _MR_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def invariant_factors(orders):
    """Normalize a list of cyclic orders to an ascending divisibility chain.

    ``Z/x + Z/y`` is ``Z/gcd(x, y) + Z/lcm(x, y)``, so gcd/lcm exchanges
    between pairs put the orders in Smith form without factoring them (Cohen,
    *A Course in Computational Algebraic Number Theory*, 2.4): after its
    exchanges with every later order, ``chain[i]`` divides all of them, and
    later exchanges keep that.  Trivial factors are dropped.

    >>> invariant_factors([4, 2, 3])
    (2, 12)
    >>> invariant_factors([2, 2])
    (2, 2)
    """
    chain = []
    for x in orders:
        x = _as_int(x, "cyclic order")
        if x < 1:
            raise InputError(f"cyclic order {x} is not positive")
        if x > 1:
            chain.append(x)
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = math.gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] // g * chain[j]
    return tuple(x for x in chain if x > 1)


class GroupDescriptor:
    """Isomorphism class ``Z^free + sum Loc(S_i) + Q^q + sum Z/t_j``.

    ``Loc(S)`` denotes the integers with the primes in the finite set ``S``
    inverted.  Summands are kept in a canonical order (free part, localized
    parts sorted by support, rational part, torsion as an ascending chain of
    invariant factors), so ``==`` is structural group isomorphism.

    >>> GroupDescriptor(free_rank=1, torsion=(4, 2, 3))
    GroupDescriptor(free_rank=1, q_rank=0, loc=(), torsion=(2, 12))
    >>> print(GroupDescriptor(q_rank=1, free_rank=1))
    Z + Q
    """

    __slots__ = ("free_rank", "q_rank", "loc", "torsion")

    def __init__(self, free_rank=0, q_rank=0, loc=(), torsion=()):
        free_rank = _as_int(free_rank, "free rank")
        q_rank = _as_int(q_rank, "rational rank")
        if free_rank < 0 or q_rank < 0:
            raise InputError("ranks must be nonnegative")
        supports = []
        for supp in loc:
            s = tuple(sorted({_as_int(p, "localization prime") for p in supp}))
            for p in s:
                if not _is_prime(p):
                    raise InputError(f"{p} is not prime in a localization support")
            if s:
                supports.append(s)
            else:
                free_rank += 1
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "q_rank", q_rank)
        object.__setattr__(self, "loc", tuple(sorted(supports)))
        object.__setattr__(self, "torsion", invariant_factors(torsion))

    def __setattr__(self, name, value):
        raise AttributeError("GroupDescriptor is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def free(cls, n):
        return cls(free_rank=n)

    @classmethod
    def rationals(cls, n=1):
        return cls(q_rank=n)

    @classmethod
    def cyclic(cls, *orders):
        return cls(torsion=orders)

    @classmethod
    def localized(cls, primes, copies=1):
        return cls(loc=[tuple(primes)] * copies)

    # -- structure ----------------------------------------------------------

    def direct_sum(self, *others):
        free = self.free_rank
        q = self.q_rank
        loc = list(self.loc)
        tors = list(self.torsion)
        for o in others:
            free += o.free_rank
            q += o.q_rank
            loc.extend(o.loc)
            tors.extend(o.torsion)
        return GroupDescriptor(free, q, loc, tors)

    @property
    def is_trivial(self):
        return not (self.free_rank or self.q_rank or self.loc or self.torsion)

    @property
    def is_free(self):
        return not (self.q_rank or self.loc or self.torsion)

    @property
    def is_divisible(self):
        """True iff the group is divisible (a rational vector space here)."""
        return not (self.free_rank or self.loc or self.torsion)

    def _key(self):
        return (self.free_rank, self.q_rank, self.loc, self.torsion)

    def __eq__(self, other):
        return isinstance(other, GroupDescriptor) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"GroupDescriptor(free_rank={self.free_rank}, q_rank={self.q_rank}, "
            f"loc={self.loc}, torsion={self.torsion})"
        )

    def __str__(self):
        parts = []
        if self.free_rank:
            parts.append("Z" if self.free_rank == 1 else f"Z^{self.free_rank}")
        seen = {}
        for s in self.loc:
            seen[s] = seen.get(s, 0) + 1
        for s in sorted(seen):
            base = "Loc{" + ",".join(str(p) for p in s) + "}"
            parts.append(base if seen[s] == 1 else f"{base}^{seen[s]}")
        if self.q_rank:
            parts.append("Q" if self.q_rank == 1 else f"Q^{self.q_rank}")
        for t in self.torsion:
            parts.append(f"Z/{t}")
        return " + ".join(parts) if parts else "0"

    # -- serialization ------------------------------------------------------

    def to_json_dict(self):
        return {
            "free": self.free_rank,
            "q": self.q_rank,
            "loc": [list(s) for s in self.loc],
            "torsion": list(self.torsion),
        }

    @classmethod
    def from_json_dict(cls, obj):
        if not isinstance(obj, dict):
            raise InputError("group descriptor JSON must be an object")
        _check_keys(obj, ("free", "q", "loc", "torsion"), "a group descriptor")
        return cls(
            free_rank=obj.get("free", 0),
            q_rank=obj.get("q", 0),
            loc=[_as_list(supp, "a 'loc' support")
                 for supp in _as_list(obj.get("loc", ()), "'loc'")],
            torsion=_as_list(obj.get("torsion", ()), "'torsion'"),
        )


def cokernel(a):
    """``Z^m / (a . Z^n)`` for an integer m x n matrix, as a descriptor.

    >>> print(cokernel([[2, 0], [0, 3]]))
    Z/6
    >>> print(cokernel([[2, 4], [6, 8]]))
    Z/2 + Z/4
    """
    return _cokernel_rows(_sparse_rows(as_int_matrix(a)))


def _cokernel_rows(rows):
    """``cokernel`` of the integer matrix of sparse ``rows``: a zero row is a
    free summand and a zero column generates nothing, so only the nonzero
    rows, restricted to the columns they use, go to ``_snf``."""
    live = [row for row in rows if row]
    if not live:
        return GroupDescriptor.free(len(rows))
    cols = sorted(set().union(*live))
    d = _snf([[row.get(j, 0) for j in cols] for row in live])[0]
    return GroupDescriptor.free(len(rows) - len(live)).direct_sum(_diagonal_cokernel(d)[1])


def _diagonal_cokernel(d):
    """The diagonal of an m x n Smith form ``d`` and ``Z^m / (d . Z^n)``."""
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    return diag, GroupDescriptor(free_rank=len(d) - sum(1 for x in diag if x),
                                 torsion=[x for x in diag if x > 1])


# ---------------------------------------------------------------------------
# directed systems
# ---------------------------------------------------------------------------

_FIXED_LAWS = {"identity": (1,), "zero": (0,), "mult_d": (0, 1)}
_LAW_KINDS = (*_FIXED_LAWS, "diag_power", "poly")


def _law_to_poly(obj):
    """Translate a scaling-law JSON object into ascending poly coefficients."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("scaling law must be an object with a 'kind'")
    kind = obj["kind"]
    if kind not in _LAW_KINDS:
        raise InputError(f"unknown scaling-law kind {kind!r} (expected one of {_LAW_KINDS})")
    extra = {"diag_power": ("exp",), "poly": ("coeffs",)}.get(kind, ())
    _check_keys(obj, ("kind",) + extra, f"a {kind} law")
    if kind in _FIXED_LAWS:
        return _FIXED_LAWS[kind]
    if kind == "diag_power":
        e = _as_int(obj.get("exp", 1), "diag_power exponent")
        if e < 0:
            raise InputError("diag_power exponent must be nonnegative")
        return (0,) * e + (1,)
    coeffs = obj.get("coeffs")
    if not isinstance(coeffs, (list, tuple)) or not coeffs:
        raise InputError("poly law needs a non-empty 'coeffs' list")
    return tuple(_as_int(c, "poly coefficient") for c in coeffs)


def _poly_eval(coeffs, x):
    """The polynomial with ascending ``coeffs`` at ``x`` (Horner's rule)."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _as_int_rows(a, dim, wrong_size):
    """A step ``a`` (dense, or sparse rows of ``{column: value}``) as sparse
    rows without zeros, by the rule of ``_as_int``; a size other than
    ``dim x dim`` raises ``InputError(wrong_size)``."""
    if isinstance(a, (list, tuple)) and a and all(isinstance(row, dict) for row in a):
        rows = []
        for row in a:
            if not (_INT.issuperset(map(type, row)) and _INT.issuperset(map(type, row.values()))):
                row = dict(zip([_as_int(j, "sparse row column") for j in row],
                               [_as_int(x, "matrix entry") for x in row.values()]))
            if row and not (0 <= min(row) and max(row) < dim):
                raise InputError(f"sparse row columns {list(row)} are not all in 0..{dim - 1}")
            rows.append(dict(row) if all(row.values()) else {j: x for j, x in row.items() if x})
    else:
        rows = _sparse_rows(as_int_matrix(a))
        if len(a[0]) != dim:
            raise InputError(wrong_size)
    if len(rows) != dim:
        raise InputError(wrong_size)
    return rows


class DirectedSystem:
    """A sequential diagram ``Z^dim -M1-> Z^dim -M2-> ...``.

    Three construction styles:

    * ``DirectedSystem.explicit([...matrices...])``: a finite chain given by
      square integer matrices.
    * ``DirectedSystem.symbolic(dim, diag_laws, offdiag)``: one matrix shape
      whose entries are integer polynomials in a parameter ``d``, evaluated
      along the canonical chain ``d = 2, 3, 4, ...`` (divisibility-cofinal,
      so classifications are exact).  An explicit finite ``d_chain`` may be
      supplied instead; the system is then treated like an explicit chain.
    * ``DirectedSystem.from_family(dim, fn)``: an arbitrary callable
      ``d -> matrix`` on the canonical chain (or an explicit ``d_chain``).

    Steps, given or returned by a family, are dense square matrices or
    sparse rows (``{column: value}`` dicts); either is checked once and kept
    as sparse rows.  ``matrix``, ``matrix_at`` and ``to_json`` copy them dense.
    """

    def __init__(self, dim, mode, steps=None, family=None, d_chain=None,
                 diag_polys=None, offdiag=None):
        dim = _as_int(dim, "system dimension")
        if dim < 1:
            raise InputError("system dimension must be at least 1")
        self.dim = dim
        self.mode = mode
        self._steps = steps
        self._family = family
        self._d_chain = (tuple(_as_int(d, "d_chain entry")
                               for d in _as_list(d_chain, "d_chain"))
                         if d_chain is not None else None)
        self._diag_polys = diag_polys
        self._offdiag = offdiag
        self._step_cache = {}
        self._analysis_cache = None
        if self._d_chain is not None:
            for d in self._d_chain:
                if d < 2:
                    raise InputError("d_chain entries must be integers >= 2")

    # -- constructors -------------------------------------------------------

    @classmethod
    def explicit(cls, matrices):
        matrices = _as_list(matrices, "'matrices'")
        if not matrices:
            raise InputError("explicit system needs at least one matrix")
        dim = len(matrices[0]) if isinstance(matrices[0], (list, tuple)) else 0
        steps = [_as_int_rows(m, dim, "all matrices must be square of equal size")
                 for m in matrices]
        return cls(dim, "explicit", steps=steps)

    @classmethod
    def symbolic(cls, dim, diag_laws, offdiag=(), d_chain=None):
        dim = _as_int(dim, "system dimension")
        polys = [_law_to_poly(law) for law in _as_list(diag_laws, "'law'")]
        if len(polys) != dim:
            raise InputError("need exactly one diagonal law per coordinate")
        off = []
        for entry in _as_list(offdiag, "'offdiag'"):
            if not isinstance(entry, dict):
                raise InputError("offdiag entries must be objects")
            r = _as_int(entry.get("row", -1), "offdiag row")
            c = _as_int(entry.get("col", -1), "offdiag col")
            if not (0 <= r < dim and 0 <= c < dim) or r == c:
                raise InputError("offdiag entry needs distinct in-range row/col")
            if "kind" in entry:
                coeffs = _law_to_poly({k: v for k, v in entry.items() if k not in ("row", "col")})
            else:
                _check_keys(entry, ("row", "col", "poly"), "an offdiag entry")
                coeffs = tuple(_as_int(x, "poly coefficient")
                               for x in _as_list(entry.get("poly"), "offdiag 'poly'"))
            off.append((r, c, coeffs))

        def family(d):
            rows = [{i: _poly_eval(p, d)} for i, p in enumerate(polys)]
            for r, c, coeffs in off:
                rows[r][c] = _poly_eval(coeffs, d)
            return rows

        return cls(dim, "symbolic", family=family, d_chain=d_chain,
                   diag_polys=polys, offdiag=tuple(off))

    @classmethod
    def from_family(cls, dim, fn, d_chain=None):
        return cls(dim, "symbolic", family=fn, d_chain=d_chain)

    # -- serialization ------------------------------------------------------

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or "mode" not in obj:
            raise InputError("system JSON must be an object with a 'mode'")
        mode = obj["mode"]
        if mode == "explicit":
            _check_keys(obj, ("mode", "matrices"), "an explicit system")
            if "matrices" not in obj:
                raise InputError("explicit system JSON needs 'matrices'")
            return cls.explicit(obj["matrices"])
        if mode == "symbolic":
            _check_keys(obj, ("mode", "dim", "law", "offdiag", "d_chain"), "a symbolic system")
            for key in ("dim", "law"):
                if key not in obj:
                    raise InputError(f"symbolic system JSON needs {key!r}")
            return cls.symbolic(
                obj["dim"], obj["law"], obj.get("offdiag", ()),
                d_chain=obj.get("d_chain"),
            )
        raise InputError(f"unknown system mode {mode!r}")

    def to_json(self):
        if self.mode == "explicit":
            return {"mode": "explicit",
                    "matrices": [_dense_rows(rows, self.dim) for rows in self._steps]}
        if self._diag_polys is None:
            raise InputError("a family-backed system has no JSON form")
        out = {
            "mode": "symbolic",
            "dim": self.dim,
            "law": [{"kind": "poly", "coeffs": list(p)} for p in self._diag_polys],
            "offdiag": [
                {"row": r, "col": c, "poly": list(p)} for r, c, p in self._offdiag
            ],
        }
        if self._d_chain is not None:
            out["d_chain"] = list(self._d_chain)
        return out

    # -- chain access -------------------------------------------------------

    @property
    def finite_length(self):
        """Number of maps if the chain is finite, else None."""
        if self.mode == "explicit":
            return len(self._steps)
        if self._d_chain is not None:
            return len(self._d_chain)
        return None

    def d_value(self, t):
        """Step parameter of the t-th map (1-based); canonical chain is t+1."""
        if self.mode != "symbolic":
            raise InputError("explicit systems have no step parameter")
        if self._d_chain is not None:
            if not 1 <= t <= len(self._d_chain):
                raise InputError(f"step {t} outside the supplied d_chain")
            return self._d_chain[t - 1]
        return t + 1

    def matrix(self, t):
        """The t-th structure map (1-based) as an integer matrix."""
        return _dense_rows(self._step(t), self.dim)

    def matrix_at(self, d):
        """Evaluate a symbolic family at an arbitrary parameter ``d >= 2``."""
        return _dense_rows(self._step_at(d), self.dim)

    def _step(self, t):
        """The t-th structure map as checked sparse rows, kept after the first call."""
        if t < 1:
            raise InputError("step indices are 1-based")
        if self.mode == "explicit":
            if t > len(self._steps):
                raise InputError(f"step {t} outside the explicit chain")
            return self._steps[t - 1]
        if t not in self._step_cache:
            self._step_cache[t] = self._step_at(self.d_value(t))
        return self._step_cache[t]

    def _step_at(self, d):
        """The family at parameter ``d`` as checked sparse rows."""
        if self.mode != "symbolic":
            raise InputError("explicit systems cannot be evaluated at a parameter")
        return _as_int_rows(self._family(d), self.dim,
                            "family returned a matrix of the wrong size")


# ---------------------------------------------------------------------------
# colimit classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColimitReport:
    """Result of classifying a directed system.

    ``invariants`` is exact when ``truncated`` is False; otherwise it reflects
    only the materialized finite chain (free rank observed so far).
    ``relations`` identifies pairs of nonnegative level-1 vectors that become
    equal in the colimit (a spanning set of the level-1 identifications).
    The ranks behind ``rank`` and ``stabilization_level`` are read off the
    images of the composites, which no classification needs to multiply out;
    ``relations`` come from the kernel of the last composite and are built
    on first read, by the zero-argument ``relations_source``.
    """

    invariants: GroupDescriptor
    relations_source: object = field(repr=False, compare=False)
    truncated: bool
    rank: int
    stabilization_level: int
    notes: tuple = ()

    @cached_property
    def relations(self):
        return self.relations_source()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.to_json_dict() == other.to_json_dict()

    def to_json_dict(self):
        return {
            "invariants": self.invariants.to_json_dict(),
            "pretty": str(self.invariants),
            "relations": [
                [[a[0], list(a[1])], [b[0], list(b[1])]] for a, b in self.relations
            ],
            "truncated": self.truncated,
            "rank": self.rank,
            "stabilization_level": self.stabilization_level,
            "notes": list(self.notes),
        }


def _relation_pairs(kernel_basis):
    rels = []
    for vec in kernel_basis:
        lead = next((x for x in vec if x), 0)
        if lead < 0:
            vec = [-x for x in vec]
        plus = tuple(x if x > 0 else 0 for x in vec)
        minus = tuple(-x if x < 0 else 0 for x in vec)
        rels.append(((1, plus), (1, minus)))
    return tuple(rels)


def _apply(rows, v):
    """``rows @ v`` for a matrix of sparse rows and a dense vector."""
    return [sum(x * v[j] for j, x in row.items()) for row in rows]


def _composite(maps):
    """The composite ``M_t ... M_1`` of sparse maps ``[M_1, ..., M_t]``."""
    w = maps[0]
    for m in maps[1:]:
        w = _sparse_mul(m, w)
    return w


def _kernel_relations(maps, dim):
    """A zero-argument source of the relations: the kernel of the composite
    of ``maps``, multiplied out only when called."""
    return lambda: _relation_pairs(_kernel_basis(_dense_rows(_composite(maps), dim)))


def _primitive(row):
    """A nonzero sparse rational row rescaled to a primitive integer row."""
    vals = row.values()
    if not _INT.issuperset(map(type, vals)):
        den = math.lcm(*(x.denominator for x in vals))
        row = {j: x.numerator * (den // x.denominator) for j, x in row.items()}
        vals = row.values()
    g = math.gcd(*vals)
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _image_ranks(maps):
    """Ranks of the progressive composites ``W_t = M_t ... M_1`` of sparse maps.

    No composite is formed: a basis of the image of ``W_(t-1)``, kept as
    primitive integer vectors (unit vectors at the start), spans it over Q,
    so ``rank W_t`` is the rank of its image under ``M_t``, and the echelon
    rows of that image, rescaled, are the next basis.  Each level costs one
    product of at most ``rank`` vectors with the map's columns.
    """
    dim = len(maps[0])
    basis = [{i: 1} for i in range(dim)]
    ranks = []
    for m in maps:
        cols = [{} for _ in range(dim)]
        for i, row in enumerate(m):
            for j, x in row.items():
                cols[j][i] = x
        pivots = _echelon(_sparse_mul(basis, cols))
        ranks.append(len(pivots))
        basis = [_primitive(row) for row in pivots.values()]
    return ranks


def _colimit_finite(system, maps):
    dim = system.dim
    ranks = _image_ranks(maps)
    r = ranks[-1]
    stab = 1 + ranks.index(r)
    rels = _kernel_relations(maps, dim)
    if all(map(_is_unimodular, maps)):
        return ColimitReport(
            invariants=GroupDescriptor.free(dim),
            relations_source=rels,
            truncated=False,
            rank=dim,
            stabilization_level=1,
            notes=("all steps unimodular; the chain is a chain of isomorphisms",),
        )
    return ColimitReport(
        invariants=GroupDescriptor.free(r),
        relations_source=rels,
        truncated=True,
        rank=r,
        stabilization_level=stab,
        notes=("finite horizon: free rank observed along the materialized chain; "
               "divisibility beyond the horizon is not certified",),
    )


def _fit_monomial(samples):
    """Fit ``lambda = c * d**e`` exactly to (d, lambda) samples, d >= 1 distinct.

    Returns ``("zero",)`` if all values vanish, ``("monomial", c, e)`` on an
    exact fit with c a nonzero Fraction and integer 0 <= e <= 63, or None.
    The first two samples fix e: with ``d2/d1 = a/b`` and ``l2/l1 = u/v`` in
    lowest terms a fit needs ``u/v = (a/b)^e``, so e is the multiplicity of
    whichever of a, b exceeds 1 in u or v; every sample then checks in integers.
    """
    if all(lam == 0 for _, lam in samples):
        return ("zero",)
    if any(lam == 0 for _, lam in samples):
        return None
    d1, l1 = samples[0]
    e = 0
    if len(samples) > 1:
        d2, l2 = samples[1]
        ratio_d, ratio_l = Fraction(d2, d1), Fraction(l2, l1)
        base, power = ((ratio_d.numerator, ratio_l.numerator) if ratio_d.numerator > 1
                       else (ratio_d.denominator, ratio_l.denominator))
        while base > 1 and e < 64 and power % base == 0:
            power //= base
            e += 1
    if e < 64 and all(lam * d1 ** e == l1 * d ** e for d, lam in samples[1:]):
        return ("monomial", Fraction(l1, d1 ** e), e)
    return None


def _direction_type(samples):
    """Classify one filtration direction from (d, lambda) samples.

    The scaling law must fit a monomial separately on odd and even values of
    ``d`` (this covers parity-dependent laws).  Returns ``None`` for a dead
    direction, a GroupDescriptor for a surviving one, and raises for laws
    outside the certified class.

    The answer inverts the primes that divide infinitely many steps: all of
    them for an even-class ``e >= 1``; for an odd-class ``e >= 1`` the odd
    ones, and 2 when it divides either constant (else ``Z[1/p : p odd]``,
    which is refused); the primes of the constants otherwise.
    """
    fits = [_fit_monomial([(d, lam) for d, lam in samples if d % 2 == parity])
            for parity in (1, 0)]
    if None in fits:
        raise UnsupportedSystemError(
            "diagonal scaling law fits no monomial c*d^e on a parity class; "
            "the system is outside the certified class"
        )
    if any(f[0] == "zero" for f in fits):
        # Zeros recur on a full parity class of the canonical chain: the
        # direction is annihilated infinitely often, so it dies in the colimit.
        return None
    (_, c_odd, e_odd), (_, c_even, e_even) = fits
    if e_odd >= 1 and e_even == 0 and c_odd.numerator % 2 and c_even.numerator % 2:
        raise UnsupportedSystemError(
            "the odd-step scaling c*d^e (e >= 1) inverts every odd prime but "
            "2 divides no step, so the colimit is Z[1/p : p odd], which no "
            "group descriptor expresses; the system is outside the certified class"
        )
    if e_odd >= 1 or e_even >= 1:
        return GroupDescriptor.rationals(1)
    # Both laws are constant, hence integers (e = 0 fits lambda itself).
    primes = set(_factor_multiplicity(abs(c_odd.numerator)))
    primes.update(_factor_multiplicity(abs(c_even.numerator)))
    if not primes:
        return GroupDescriptor.free(1)
    return GroupDescriptor.localized(sorted(primes))


def _union_pattern(maps):
    """Feed arcs of the union zero pattern of sparse maps.

    Entry ``j`` is the set of coordinates ``i != j`` that coordinate ``j``
    feeds: some map has a nonzero entry at ``(i, j)``.
    """
    feeds = [set() for _ in maps[0]]
    for m in maps:
        for i, row in enumerate(m):
            for j in row:
                if j != i:
                    feeds[j].add(i)
    return feeds


def _reachable(feeds, start):
    """The coordinates reached from ``start`` along one or more feed arcs;
    ``start`` is among them exactly when it lies on a cycle."""
    seen = set()
    stack = [start]
    while stack:
        for i in feeds[stack.pop()]:
            if i not in seen:
                seen.add(i)
                stack.append(i)
    return seen


def _flag_sum(flag, r):
    """The colimit read off a flag of directions, each ``(samples, into)``.

    ``samples`` are the direction's ``(d, lambda)`` pairs, typed by
    ``_direction_type``; ``into`` lists the flag indices it couples into.  The
    survivors must number the stabilized rank ``r``.  Split safety: a non-free
    survivor may couple only into divisible or dead directions, since only
    then is the extension certified to split; the answer is their direct sum.
    """
    types = [_direction_type(samples) for samples, _ in flag]
    survivors = [t for t in types if t is not None]
    if len(survivors) != r:
        raise UnsupportedSystemError(
            f"the flag keeps {len(survivors)} of {len(flag)} directions, but the "
            f"stabilized composite has rank {r}"
        )
    for p, (_, into) in enumerate(flag):
        if types[p] is None or types[p].is_free:
            continue
        for q in into:
            if types[q] is not None and not types[q].is_divisible:
                raise UnsupportedSystemError(
                    f"cannot certify a split filtration: non-free direction {p} "
                    f"couples into non-divisible direction {q}; refusing to guess "
                    "the extension"
                )
    return GroupDescriptor.zero().direct_sum(*survivors)


def _restricted_maps(mats, basis):
    """Express each map's action on the column span of ``basis`` (exactly)."""
    out = []
    for m in mats:
        image = mat_mul(m, basis)
        out.append(solve_exact(basis, image))
    return out


def _rational_eigenspaces(t):
    """``(k, columns of its generalized eigenspace)`` per rational eigenvalue
    ``k`` of ``t``, an integer map restricted to an invariant subspace: its
    characteristic polynomial (Faddeev--LeVerrier; Cohen, section 2.2) is
    monic and integral, so ``k`` is the integer left in a real root's
    isolating interval halved below width 1, if ``(t - k)^n`` has a kernel."""
    from . import numfield

    n = len(t)
    poly, tm = [Fraction(1)], t  # descending coefficients; tm = t @ M_k
    for k in range(1, n + 1):
        poly.append(-sum(tm[i][i] for i in range(n)) / k)
        tm = mat_mul(t, [[x + poly[-1] * (i == j) for j, x in enumerate(row)]
                         for i, row in enumerate(tm)])
    poly.reverse()
    out = []
    chain = numfield.sturm_chain(poly)  # one chain for every bisection step
    for lo, hi in numfield.isolate_real_roots(poly):
        while hi - lo >= 1:
            mid = (lo + hi) / 2
            below = numfield._chain_changes_at(chain, lo) - numfield._chain_changes_at(chain, mid)
            lo, hi = (lo, mid) if below else (mid, hi)
        k = math.floor(hi)
        if k <= lo:
            continue
        shifted = [[x - k * (i == j) for j, x in enumerate(row)] for i, row in enumerate(t)]
        den = math.lcm(*(x.denominator for row in shifted for x in row))
        power = step = [[int(x * den) for x in row] for row in shifted]
        for _ in range(n - 1):
            power = mat_mul(power, step)
        vecs = _kernel_basis(power)
        if vecs:
            out.append((k, [list(col) for col in zip(*vecs)]))
    return out


def _common_flag_eigenvalues(ts):
    """Eigenvalue tuples of a common flag for the commuting family ``ts``:
    each map in turn splits every space by its generalized eigenspaces, and
    each joint tuple comes as often as its space has dimensions.  Divisible
    (fast growing) directions go deepest, first, so the split-safety scan can
    certify the filtration."""
    r = len(ts[0])
    spaces = [((), identity_matrix(r))]
    for t in ts:
        spaces = [(vals + (k,), mat_mul(b, sub))
                  for vals, b in spaces
                  for k, sub in _rational_eigenspaces(_restricted_maps([t], b)[0])]
    flag = sorted((vals for vals, b in spaces for _ in b[0]),
                  key=lambda vals: (tuple(-abs(v) for v in vals), vals))
    if len(flag) < r:
        raise UnsupportedSystemError("a restricted structure map has an irrational "
                                     "eigenvalue; the system is outside the certified class")
    for i, t in enumerate(ts):
        if sum(vals[i] for vals in flag) != sum(t[j][j] for j in range(r)):
            raise CrossCheckError(f"the eigenvalues of structure map {i} do not sum to its trace")
    return flag


def _eigen_flag(mats, ds, w, r):
    """The flag of a commuting family on the stabilized subspace (the image of
    ``w``): one direction per common eigenvalue tuple, sampled at ``ds``, each
    coupling into every earlier one."""
    for i, a in enumerate(mats):
        for b in mats[i + 1:]:
            if mat_mul(a, b) != mat_mul(b, a):
                raise UnsupportedSystemError(
                    "structure maps do not commute and no common triangular "
                    "coordinate order exists; the system is outside the "
                    "certified class"
                )
    basis = image_lattice_basis(w)
    if not basis:
        return []
    basis_mat = [list(col) for col in zip(*basis)]
    # Every map must preserve the stabilized subspace with full rank.
    for m in mats:
        if rank(mat_mul(m, basis_mat)) != r:
            raise UnsupportedSystemError(
                "a structure map drops rank on the stabilized subspace; "
                "the system is outside the certified class"
            )
    flag = _common_flag_eigenvalues(_restricted_maps(mats, basis_mat))
    return [(list(zip(ds, vals)), range(i)) for i, vals in enumerate(flag)]


def _colimit_symbolic(system):
    dim = system.dim
    cap = max(14, dim + 6)
    # The sampled maps: the chain, then two confirmation samples beyond the
    # horizon against families whose behaviour changes past it.
    ds = [system.d_value(t) for t in range(1, cap + 1)] + [101, 102]
    maps = [system._step(t) for t in range(1, cap + 1)] + [system._step_at(d) for d in ds[cap:]]
    ranks = _image_ranks(maps[:cap])
    r = ranks[-1]
    if any(x != r for x in ranks[-4:]):
        raise UnsupportedSystemError(
            f"composite rank did not stabilize within horizon {cap}: {ranks}"
        )
    stab = 1 + ranks.index(r)
    # The eventual rank must not depend on where the window starts.
    if len(_echelon(_composite(maps[cap // 2:cap]))) != r:
        raise UnsupportedSystemError(
            "window rank depends on the starting level; the system is outside "
            "the certified class"
        )
    # A coordinate that reaches itself closes a cycle: no common triangular
    # order exists, and the commuting family's eigen flag is read instead.
    feeds = _union_pattern(maps)
    reach = [_reachable(feeds, p) for p in range(dim)]
    if any(p in reach[p] for p in range(dim)):
        w = _dense_rows(_composite(maps[:cap]), dim)
        flag = _eigen_flag([_dense_rows(m, dim) for m in maps], ds, w, r)
    else:
        flag = [([(d, m[p].get(p, 0)) for d, m in zip(ds, maps)], sorted(reach[p]))
                for p in range(dim)]
    return ColimitReport(
        invariants=_flag_sum(flag, r),
        relations_source=_kernel_relations(maps[:cap], dim),
        truncated=False,
        rank=r,
        stabilization_level=stab,
        notes=("classified along the canonical divisibility-cofinal chain d = 2, 3, 4, ...",),
    )


def colimit(system):
    """Classify the colimit of a directed system of free abelian groups.

    Symbolic systems on the canonical chain get an exact answer
    (``truncated = False``) or a rejection with a diagnostic.  Explicit
    chains (and symbolic systems with a user-supplied finite ``d_chain``)
    report the exact colimit only when every step is unimodular; otherwise
    the result is marked ``truncated``.

    >>> qs = DirectedSystem.symbolic(1, [{"kind": "mult_d"}])
    >>> print(colimit(qs).invariants)
    Q
    """
    if not isinstance(system, DirectedSystem):
        raise InputError("colimit expects a DirectedSystem")
    if system._analysis_cache is not None:
        return system._analysis_cache
    length = system.finite_length
    if length is not None:
        report = _colimit_finite(system, [system._step(t) for t in range(1, length + 1)])
    else:
        report = _colimit_symbolic(system)
    system._analysis_cache = report
    return report


def compose_window(system, i, j):
    """The composite map from level ``i`` to level ``j + 1``: ``M_j ... M_i``.

    Indices are 1-based and inclusive.

    >>> sys31 = DirectedSystem.symbolic(
    ...     3,
    ...     [{"kind": "poly", "coeffs": [0, 2]}, {"kind": "zero"}, {"kind": "identity"}],
    ...     [{"row": 0, "col": 1, "kind": "mult_d"},
    ...      {"row": 0, "col": 2, "poly": [-1, 1]},
    ...      {"row": 1, "col": 2, "poly": [1]}],
    ...     d_chain=[3, 5],
    ... )
    >>> compose_window(sys31, 1, 1)
    [[6, 3, 2], [0, 0, 1], [0, 0, 1]]
    """
    if not isinstance(system, DirectedSystem):
        raise InputError("compose_window expects a DirectedSystem")
    i, j = _as_int(i, "window start"), _as_int(j, "window end")
    if i < 1 or j < i:
        raise InputError("compose_window needs integer steps 1 <= i <= j")
    length = system.finite_length
    if length is not None and j > length:
        raise InputError(f"window end {j} exceeds the chain length {length}")
    return _dense_rows(_composite([system._step(t) for t in range(i, j + 1)]), system.dim)


# Steps the window walk of ``identified`` may take before reaching the
# certified rank; running out means the certification is wrong.
_WINDOW_STEPS = 64


def identified(system, a, b):
    """Decide whether two formal elements agree in the colimit.

    Elements are pairs ``(level, vector)`` with 1-based levels; the element
    lives in the copy of Z^dim at that level.  For explicit chains the colimit
    of the finite diagram is its last object, so both elements are compared
    there.

    For symbolic systems on the canonical chain both elements are pushed to
    ``base = max(level_a, level_b)`` and their difference is pushed on; a
    difference that vanishes means True.  A "no" rests on the certified
    colimit rank ``r = colimit(system).rank`` alone.  The window
    ``W = M_(base+k) ... M_base`` has ``rank W >= r`` at every step, and the
    answer is False once ``rank W == r`` with the difference still nonzero:
    every later composite satisfies
    ``rank(M_j ... M_base) >= rank(M_j ... M_1) = r = rank W``, so the maps
    after ``W`` are injective on the image of ``W``, which holds the
    difference, and it never vanishes.  The same bound shows that ``W``
    reaches rank ``r`` after finitely many steps; a walk that does not reach
    it within a fixed number of steps raises ``CrossCheckError``, since the
    certified rank must then be wrong.
    """
    if not isinstance(system, DirectedSystem):
        raise InputError("identified expects a DirectedSystem")

    def check_element(el):
        if (not isinstance(el, (tuple, list))) or len(el) != 2:
            raise InputError("elements are (level, vector) pairs")
        level, vec = el
        level = _as_int(level, "element level")
        if level < 1:
            raise InputError("element levels are 1-based integers")
        vec = [_as_int(x, "element entry") for x in _as_list(vec, "an element vector")]
        if len(vec) != system.dim:
            raise InputError(f"element vectors must have length {system.dim}")
        return level, vec

    (la, va), (lb, vb) = check_element(a), check_element(b)
    length = system.finite_length
    if length is None:
        r = colimit(system).rank
        base = max(la, lb)
    elif max(la, lb) > length + 1:
        raise InputError("element level beyond the end of the finite chain")
    else:
        base = length + 1
    for t in range(la, base):
        va = _apply(system._step(t), va)
    for t in range(lb, base):
        vb = _apply(system._step(t), vb)
    diff = [x - y for x, y in zip(va, vb)]
    if length is not None or not any(diff):
        return not any(diff)
    window = None
    for level in range(base, base + _WINDOW_STEPS):
        step = system._step(level)
        diff = _apply(step, diff)
        if not any(diff):
            return True
        window = step if window is None else _sparse_mul(step, window)
        if len(_echelon(window)) == r:
            return False
    raise CrossCheckError(
        f"identified: the window from level {base} did not reach the certified "
        f"colimit rank {r} within {_WINDOW_STEPS} steps"
    )
