"""Exact arithmetic for finitely generated abelian groups and their colimits.

Everything in this module is exact: integer matrices are lists of lists of
Python ints, rational values are ``fractions.Fraction``.  Products and the one
elimination over Q (``_echelon``, behind ``rank``, ``rref_fractions``,
``solve_exact``, ``determinant`` and the colimit ranks) run on sparse rows
(``{column: value}`` maps of the nonzero entries), so their cost follows the
nonzero entries rather than the dimension.  The elimination is fraction-free:
it scales a rational row to integers once and then works in Python ints, and
``rref_fractions`` builds its ``Fraction``s only on output.  The two main
exports are

* ``smith_normal_form`` and friends (``cokernel``, ``kernel_lattice_basis``,
  ``image_lattice_basis``), with the convention ``a == u @ d @ v`` where
  ``u`` and ``v`` are unimodular and ``d`` is diagonal, nonnegative, with
  each entry dividing the next.  One all-integer Hermite normal form
  routine, ``_hnf``, serves all four, on sparse rows.  It inserts rows one
  at a time and clears them by extended-gcd 2 x 2 steps, reducing the
  entries above each changed pivot as it goes, so entries stay bounded by
  the lattice.  The kernel and image bases are the Hermite forms of their
  lattices.  ``_snf`` alternates row and column Hermite steps until the
  matrix is diagonal and mends the divisibility chain by gcd/lcm steps.
  The first row and column steps solve for their transforms by exact
  back-substitution (``_hnf_transform``) until a row reduces to zero, and
  carry them from there; the later steps carry the inverse of theirs, so
  ``u`` and ``v`` come out with nothing inverted, and ``cokernel`` carries
  nothing; and

* a classifier for sequential colimits ``Z^k -M1-> Z^k -M2-> ...`` of free
  abelian groups along integer matrices (``DirectedSystem`` / ``colimit``),
  together with the element-identification decision procedure
  ``identified``, which classifies the colimit only when a "no" needs its
  rank: a difference that vanishes proves a "yes" by itself.  The engine
  keeps every structure map as sparse rows, checked once in whichever form
  it came; only the kernel lattice, the basis the eigen classifier restricts
  to and public return values get dense copies.  Steps are multiplied
  together only in the relations below full rank.  A coordinate on which every
  map is diagonal (an isolated one) is a direct summand of rank at most
  one, read off its diagonal; only the other, coupled coordinates go
  through the pass over the composites' images.

A family is decided from its laws, polynomials in ``d`` on each parity class
of ``d``: given, or read off samples of its steps by finite differences
(``_colimit_laws``).  Its directions are the coordinates when the feed arcs
of its off-diagonal laws have no cycle, and otherwise the joint eigenspaces
of its coefficient matrices, read in integers (characteristic polynomials,
their integer roots and generalized eigenspaces; no sympy).  Each direction
law must be a monomial ``c * d**e`` or zero on each class, and each distinct
law is typed once by one rule; the colimit rank is proved, and the steps are
read only up to the first level of that rank.  Systems outside this class
are rejected with a diagnostic instead of guessed at.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations, compress

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
_RATIONAL = frozenset((int, Fraction))


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


def _as_rational(a, what="matrix entry"):
    """The shape-checked matrix ``a`` if its entries are ints or ``Fraction``s,
    the one rational rule for values from outside; ``bool`` and every other
    value raise ``InputError`` naming ``what``."""
    if not all(_RATIONAL.issuperset(map(type, row)) for row in a):
        for row in a:
            for x in row:
                if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
                    raise InputError(f"{what} {x!r} is not an integer or a Fraction")
    return a


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
    out = [[0] * k for _ in range(k)]
    for i, row in enumerate(out):
        row[i] = 1
    return out


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
    _as_rational(a)
    _as_rational(b)
    frac_cols = {j for row in b for j, x in enumerate(row) if type(x) is Fraction}
    out = _dense_rows(_sparse_mul(_sparse_rows(a), _sparse_rows(b)), p)
    for row, new in zip(a, out):
        cols = range(p) if any(type(x) is Fraction for x in row) else frac_cols
        for j in cols:
            if type(new[j]) is not Fraction:
                new[j] = Fraction(new[j])
    return out


def rank(a):
    """Rank over Q (fraction-free elimination on sparse integer rows)."""
    mat_shape(a)
    return len(_echelon(_sparse_rows(_as_rational(a))))


def _subtract(row, f, piv):
    """``row -= f * piv`` in place for sparse rows; cancelled cells are dropped."""
    for j, y in piv.items():
        v = row.get(j, 0) - f * y
        if v:
            row[j] = v
        else:
            row.pop(j, None)


def _clear(row, c, piv):
    """Clear column ``c`` of the integer sparse ``row`` in place with ``piv``:
    ``row = a * row - b * piv`` with ``a / b = piv[c] / row[c]`` in lowest
    terms and ``a > 0``.  Returns ``a``."""
    p, r = piv[c], row[c]
    g = math.gcd(p, r) if p > 0 else -math.gcd(p, r)
    a = p // g
    if a != 1:
        for j in row:
            row[j] *= a
    _subtract(row, r // g, piv)
    return a


def _add_row(pivots, row):
    """One row of ``_echelon``: reduce ``row`` against ``pivots`` and store
    what is left, divided by its content, as the pivot row of its lowest column.

    Returns ``(applied, content)``: the stored row is ``applied * row``, less
    integer multiples of pivot rows, divided by ``content`` (0 when the row
    reduces to zero and nothing is stored); ``applied > 0``.
    """
    vals = row.values()
    if _INT.issuperset(map(type, vals)):
        row, applied = dict(row), 1
    else:
        applied = math.lcm(*(x.denominator for x in vals))
        row = {j: x.numerator * (applied // x.denominator) for j, x in row.items()}
    while row:
        c = min(row)
        piv = pivots.get(c)
        if piv is None:
            g = math.gcd(*row.values())
            pivots[c] = row if g == 1 else {j: x // g for j, x in row.items()}
            return applied, g
        applied *= _clear(row, c, piv)
    return applied, 0


def _echelon(rows):
    """Row echelon form over Q of sparse rows, as ``{pivot column: row}``.

    The elimination is fraction-free.  Rows are added one at a time, a row
    holding ``Fraction``s first scaled by its positive common denominator.
    Each step clears the lowest column ``c`` of a row as
    ``a * row - b * piv`` with the pivot row of that column
    (``a / b = piv[c] / row[c]`` in lowest terms); a pivot row has no entry
    left of its pivot, so the lowest column rises.  A row that keeps a column
    with no pivot becomes, divided by its content, the pivot row of that
    column; one that reduces to zero lies in the row space.  So the pivot
    columns are those of the echelon over Q, each pivot row is a primitive
    integer row and a nonzero rational multiple of the row kept there, and
    no ``Fraction`` is built.  This is the only elimination over Q: ``rank``
    counts the pivots, ``rref_fractions`` back-substitutes and normalizes
    them, and ``_determinant`` reads the factors its steps applied.
    """
    pivots = {}
    for row in rows:
        _add_row(pivots, row)
    return pivots


def _determinant(rows):
    """Determinant of the square matrix of integer sparse ``rows``, read off
    the echelon's own steps: they scale each row by ``applied``, divide its
    pivot row by ``content`` and otherwise subtract multiples of pivot rows,
    so ``det * prod(applied) == prod(content) * prod(pivot) * sign(sigma)``,
    ``sigma`` sending each row, in insertion order, to its pivot column.

    >>> _determinant([{0: 2, 1: 1}, {0: 1, 1: 1}]), _determinant([{1: 3}, {0: 2, 1: 5}])
    (1, -6)
    >>> _determinant([{0: 2}, {1: 1}]), _determinant([{0: 1, 1: 2}, {0: 2, 1: 4}]), _determinant([])
    (2, 0, 1)
    """
    pivots, applied, content = {}, 1, 1
    for row in rows:
        a, g = _add_row(pivots, row)
        if not g:
            return 0
        applied *= a
        content *= g
    sigma, sign = list(pivots), 1  # dicts keep insertion order; a cycle sort
    for i in range(len(sigma)):
        while sigma[i] != i:
            j = sigma[i]
            sigma[i], sigma[j] = sigma[j], j
            sign = -sign
    return sign * content * math.prod(r[c] for c, r in pivots.items()) // applied


def _is_unimodular(rows):
    """True iff the square matrix of integer sparse ``rows`` has determinant +-1."""
    return abs(_determinant(rows)) == 1


def determinant(a):
    """Determinant of a square integer matrix (``_determinant``)."""
    m, n = mat_shape(a)
    if m != n:
        raise InputError("determinant needs a square matrix")
    return _determinant(_sparse_rows(as_int_matrix(a)))


def rref_fractions(a):
    """Reduced row echelon form over Q; returns (rows, pivot_columns).

    Back-substitutes the integer pivot rows of the echelon, highest pivot
    first, by the echelon's fraction-free step, so each row is cleared with
    rows that are already reduced; each reduced row is kept primitive and
    normalized to a leading 1 only on output.  The ``m`` output rows are
    ``Fraction`` lists, zero rows last.
    """
    m, n = mat_shape(a)
    reduced = {}
    for c, row in sorted(_echelon(_sparse_rows(_as_rational(a))).items(), reverse=True):
        for k in [k for k in row if k != c and k in reduced]:
            _clear(row, k, reduced[k])
        g = math.gcd(*row.values())
        reduced[c] = row if g == 1 else {j: x // g for j, x in row.items()}
    pivots = sorted(reduced)
    rows = [[Fraction(0)] * n for _ in range(m)]
    for out, c in zip(rows, pivots):
        p = reduced[c][c]
        for j, x in reduced[c].items():
            out[j] = Fraction(x, p)
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
    _as_rational(a)
    _as_rational(b)
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
# Hermite and Smith normal forms
# ---------------------------------------------------------------------------


def _xgcd(a, b):
    """``(g, s, t)`` with ``g == gcd(a, b) == s * a + t * b``, for ``a > 0 != b``;
    ``|s| <= |b| / g`` and ``|t| <= a / g``."""
    s, s1, g, r = 1, 0, a, abs(b)
    while r:
        q = g // r
        g, r = r, g - q * r
        s, s1 = s1, s - q * s1
    t = (g - s * a) // b
    return g, s, t


def _gcd_step(a, b, s, t, x, y):
    """The sparse rows ``s * a + t * b`` and ``x * b - y * a``, zeros dropped."""
    out, rest = {}, {}
    for j in a.keys() | b.keys():
        p, q = a.get(j, 0), b.get(j, 0)
        w, z = s * p + t * q, x * q - y * p
        if w:
            out[j] = w
        if z:
            rest[j] = z
    return out, rest


def _hnf(rows, carry=None):
    """Hermite normal form of the lattice spanned by the integer sparse ``rows``.

    Returns the nonzero rows of the form, in the order of their pivots.  The
    pivot of a row is its last nonzero entry, and it is positive; each row's
    entries in the pivot columns left of its own lie in ``[0, pivot)``.  Read
    as vectors, this is the Hermite normal form of Cohen's *Course*, section
    2.4.2, which is unique for the lattice: sympy's ``hermite_normal_form``
    gives the same vectors as columns.

    Rows are inserted one at a time, in the order of Kannan and Bachem
    (SIAM J. Comput. 8, 1979).  A row is cleared from its last column down,
    each column against the pivot row there: by a subtraction when the pivot
    divides the row's entry, else by the unimodular 2 x 2 step that leaves
    the extended gcd of the two entries in the pivot row.  After each
    insertion the entries in the pivot columns whose row changed are reduced
    modulo their pivot, so no entry outgrows the lattice it describes.

    ``carry``, when given, holds one dense list per row and follows the
    inverses of the row operations: taking ``q`` times row ``i`` from row
    ``j`` adds ``q`` times ``carry[j]`` to ``carry[i]``.  So if ``carry``
    holds the columns of a ``u`` with ``a == u @ rows``, it ends holding
    those of a ``u`` with ``a == u @ h``, ``h`` the result with its zero
    rows last.  Read on the transpose: if ``rows`` are the columns of a
    ``w`` and ``carry`` holds the rows of a ``v`` with ``a == w @ v``, it
    ends holding those of a ``v`` for the ``w`` whose columns are ``h``.
    A carry that starts at the identity need not be followed step by step:
    ``_hnf_transform`` solves for it.
    """
    pivots, slots, cols = {}, {}, []  # pivot column -> row, -> its index in carry; sorted columns
    _hnf_insert(pivots, slots, cols, rows, 0, carry)
    if carry is not None:
        _hnf_order(carry, slots, cols)
    return [pivots[c] for c in cols]


def _hnf_transform(rows):
    """``(h, carry)``: ``h = _hnf(rows, carry)`` with ``carry`` started at
    the identity of side ``len(rows)``, but with the carry solved for, not
    followed through every row operation.

    While every inserted row keeps a pivot, the pivot rows are independent,
    so the carry is the one matrix with ``rows[k] == sum over i of
    carry[i][k] * h_i`` (``carry[k] == e_k`` for the rows not yet inserted),
    and ``_hnf_solve`` reads it off.  The carry of a row that reduces to zero
    depends on the steps that cleared it.  So at the first such row the
    pivot rows its gcd steps replaced are restored, the carry of the rows
    before it is solved for, and the row is inserted again with the carry,
    which is followed from there on as in ``_hnf``.  Both routes give the
    same carry, entry for entry.
    """
    m = len(rows)
    pivots, slots, cols = {}, {}, []
    stopped = _hnf_insert(pivots, slots, cols, rows, 0, None, stop=True)
    carry = [[0] * m for _ in range(m)]
    if stopped is None:  # every row kept a pivot: solve in the order of the columns
        _hnf_solve(rows, pivots, cols, carry)
        return [pivots[c] for c in cols], carry
    j, replaced = stopped
    pivots.update(replaced)
    for k in range(j, m):
        carry[k][k] = 1
    _hnf_solve(rows[:j], pivots, cols, [carry[slots[c]] for c in cols])
    _hnf_insert(pivots, slots, cols, rows, j, carry)
    _hnf_order(carry, slots, cols)
    return [pivots[c] for c in cols], carry


def _hnf_insert(pivots, slots, cols, rows, start, carry, stop=False):
    """Insert ``rows[start:]`` into the pivot rows: clear each against them
    and store what is left, if anything, as the pivot row of its last
    column; then restore the reduction (``_hnf_reduce``).  A step replaces
    a pivot row, never changes it in place.  With ``stop``, a row that
    reduces to zero ends the insertion before its reduction, and
    ``(index, replaced)`` is returned: ``replaced`` maps each column whose
    pivot row that row's steps replaced to the row it replaced.  Else
    returns None."""
    for j in range(start, len(rows)):
        row, dirty = dict(rows[j]), {}  # column -> the pivot row it replaced, None if new
        while row:
            c = max(row)
            piv = pivots.get(c)
            if piv is None:
                if row[c] < 0:
                    row = {k: -x for k, x in row.items()}
                    if carry is not None:
                        carry[j] = [-x for x in carry[j]]
                pivots[c], slots[c] = row, j
                insort(cols, c)
                dirty[c] = None
                break
            i = slots[c]
            p, r = piv[c], row[c]
            q, rem = divmod(r, p)
            if not rem:
                _subtract(row, q, piv)
                if carry is not None:
                    carry[i] = [x + q * y for x, y in zip(carry[i], carry[j])]
                continue
            # [piv, row] <- [[s, t], [-y, x]] @ [piv, row], of determinant 1
            g, s, t = _xgcd(p, r)
            x, y = p // g, r // g
            pivots[c], row = _gcd_step(piv, row, s, t, x, y)
            if carry is not None:
                ci, cj = carry[i], carry[j]
                carry[i] = [x * a + y * b for a, b in zip(ci, cj)]
                carry[j] = [s * b - t * a for a, b in zip(ci, cj)]
            dirty[c] = piv
        else:
            if stop:
                return j, dirty
        if dirty and len(cols) > 1:
            _hnf_reduce(pivots, slots, cols, dirty, carry)
    return None


def _hnf_solve(rows, pivots, cols, out):
    """Write into ``out[t]`` the coefficients of the pivot row at
    ``cols[t]`` in the integer sparse ``rows``, which the pivot rows span:
    ``out[t][k]`` for ``rows[k]``, entries left at zero.  The pivot rows
    restricted to the pivot columns form a triangular system, solved from
    the last pivot column down with every row at once; the division by
    each pivot is exact, and a remainder raises ``CrossCheckError``."""
    left = _columns(rows, cols[-1] + 1) if cols else []
    for c, col in zip(reversed(cols), reversed(out)):
        piv = pivots[c]
        p = piv[c]
        below = [(left[j], y) for j, y in piv.items() if j != c and j in pivots]
        for k, x in left[c].items():
            q, rem = divmod(x, p)
            if rem:
                raise CrossCheckError(f"row {k} is not an integer combination of its Hermite basis")
            col[k] = q
            for cell, y in below:
                z = cell.get(k, 0) - q * y
                if z:
                    cell[k] = z
                else:
                    del cell[k]


def _hnf_order(carry, slots, cols):
    """Put ``carry`` in the order of ``_hnf``'s result: the entries of the
    pivot rows by column, then the unused ones."""
    used = set(slots.values())
    carry[:] = ([carry[slots[c]] for c in cols]
                + [col for k, col in enumerate(carry) if k not in used])


def _hnf_reduce(pivots, slots, cols, dirty, carry):
    """Restore ``_hnf``'s reduction after the pivot rows of the columns in
    ``dirty`` changed (``cols`` lists every pivot column, in order).  Such a
    row is reduced at every pivot column left of its own; another row only
    from the highest dirty column where its entry left the range.  A
    reduction at column ``k`` changes the row left of ``k`` alone, so each
    row is walked from that column down."""
    for at in range(bisect_left(cols, min(dirty)), len(cols)):
        c = cols[at]
        row, stop = pivots[c], at
        if c not in dirty:
            top = max((k for k in dirty if k < c and not 0 <= row.get(k, 0) < pivots[k][k]),
                      default=None)
            if top is None:
                continue
            stop = bisect_left(cols, top) + 1
        for k in reversed(cols[:stop]):
            x = row.get(k)
            if x is not None:
                piv = pivots[k]
                q = x // piv[k]
                if q:
                    _subtract(row, q, piv)
                    if carry is not None:
                        i, j = slots[k], slots[c]
                        carry[i] = [a + q * b for a, b in zip(carry[i], carry[j])]


def _snf(rows, n, transforms=False):
    """Smith form of the ``m x n`` integer matrix of sparse ``rows``.

    Returns ``(diag, u, v)``: ``diag`` the nonzero diagonal, ``d[0][0] |
    d[1][1] | ...``, and with ``transforms`` the unimodular ``u`` and ``v``
    with ``a == u @ d @ v`` (else None).  Row and column Hermite steps
    (``_hnf`` of the rows, then of the columns) alternate until the matrix
    is diagonal (Kannan and Bachem); each step yields the inverse of its
    transform, the columns of ``u`` for a row step and the rows of ``v`` for
    a column step, so neither is ever inverted.  A column step comes at
    least once: it moves the pivots of the first row step onto the diagonal.
    The first two steps start their transforms at the identity and solve
    for them (``_hnf_transform``); the later ones carry them through every
    row operation.
    The diagonal is sorted, and a pair that is not yet a divisibility chain
    becomes ``(gcd, lcm)`` by one 2 x 2 step on each side (Cohen's *Course*,
    Algorithm 2.4.14).  ``rows`` are not changed.
    """
    m = len(rows)
    if transforms:
        mat, u = _hnf_transform(rows)  # the columns of u
        mat, v = _hnf_transform(_columns(mat, n))  # the rows of v
    else:
        mat, u, v = _hnf(_columns(_hnf(rows), n)), None, None
    carry, other, width = u, v, m
    while mat and not all(len(row) == 1 for row in mat):
        mat = _hnf(_columns(mat, width), carry)
        carry, other, width = other, carry, m + n - width
    diag = [row[k] for k, row in enumerate(mat)]
    r = len(diag)
    order = sorted(range(r), key=diag.__getitem__)
    diag = [diag[k] for k in order]
    if transforms:
        u[:r] = [u[k] for k in order]
        v[:r] = [v[k] for k in order]
    if any(b % a for a, b in zip(diag, diag[1:])):
        for i in range(r):
            for j in range(i + 1, r):
                a, b = diag[i], diag[j]
                if b % a:
                    # [[s, t], [-b/g, a/g]] @ diag(a, b) @ [[1, -tb/g], [1, sa/g]] == diag(g, ab/g)
                    g, s, t = _xgcd(a, b)
                    x, y = a // g, b // g
                    diag[i], diag[j] = g, x * b
                    if transforms:
                        ui, uj, vi, vj = u[i], u[j], v[i], v[j]
                        u[i] = [x * p + y * q for p, q in zip(ui, uj)]
                        u[j] = [s * q - t * p for p, q in zip(ui, uj)]
                        v[i] = [s * x * p + t * y * q for p, q in zip(vi, vj)]
                        v[j] = [q - p for p, q in zip(vi, vj)]
    if transforms:
        u = [list(row) for row in zip(*u)]
    return diag, u, v


def smith_normal_form(a):
    """Smith normal form with transforms: ``a == u @ d @ v``.

    ``u`` (rows x rows) and ``v`` (cols x cols) are unimodular, ``d`` is
    diagonal with nonnegative entries ``d[0][0] | d[1][1] | ...``.  They
    come from ``_snf``'s alternating Hermite steps, which yield ``u`` and
    ``v`` themselves (the inverses of the row and column transforms), so
    nothing is inverted at the end, and their entries stay near the size of
    the Hermite forms.  The first row and column steps read theirs off the
    Hermite basis by exact back-substitution until a row reduces to zero,
    and carry them from there.

    >>> u, d, v = smith_normal_form([[2, 4], [6, 8]])
    >>> [d[i][i] for i in range(2)]
    [2, 4]
    """
    a = as_int_matrix(a)
    m, n = len(a), len(a[0])
    diag, u, v = _snf(_sparse_rows(a), n, transforms=True)
    d = _dense_rows([{i: x} for i, x in enumerate(diag)] + [{}] * (m - len(diag)), n)
    return u, d, v


def kernel_lattice_basis(a):
    """Basis of the full kernel lattice ``{x in Z^n : a @ x = 0}``, as its
    Hermite normal form (``_hnf``), so the basis depends on the lattice only.

    Kernels of integer matrices are saturated subgroups, and the basis
    returned here generates the whole kernel (not a finite-index sublattice).
    Vectors are returned as lists of ints.

    >>> kernel_lattice_basis([[1, 1, 2]])
    [[-1, 1, 0], [-2, 0, 1]]
    """
    a = as_int_matrix(a)
    return _kernel_basis(_sparse_rows(a), len(a[0]))


def _kernel_basis(rows, n):
    """``kernel_lattice_basis`` of the ``m x n`` matrix of sparse ``rows``.

    The Hermite form of the rows ``(e_j, column j of a)`` puts the columns
    of ``a`` last, so its rows with a pivot among the first ``n`` coordinates
    are those with a zero image, and they are the Hermite form of the kernel.
    """
    aug = [{j: 1, **{n + i: x for i, x in col.items()}} for j, col in enumerate(_columns(rows, n))]
    return _dense_rows([row for row in _hnf(aug) if max(row) < n], n)


def image_lattice_basis(a):
    """Basis of the subgroup of Z^m generated by the columns of ``a``, as its
    Hermite normal form: ``_hnf`` of the columns.

    >>> image_lattice_basis([[2, 4], [6, 8]])
    [[4, 0], [2, 2]]
    """
    a = as_int_matrix(a)
    return _dense_rows(_hnf(_columns(_sparse_rows(a), len(a[0]))), len(a))


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


def _coprime_base(xs):
    """Pairwise coprime integers ``> 1`` such that every ``x > 1`` in ``xs``
    is a product of their powers, by factor refinement (Bach, Driscoll and
    Shallit, J. Algorithms 15, 1993): a value sharing ``g = gcd(y, b) > 1``
    with a base element ``b`` replaces ``b`` by ``b / g``, ``g`` and ``y / g``,
    which are refined in turn.  Nothing is factored.  Each split divides the
    product of the base and the pending values by ``g``, so it ends.
    """
    base = []
    for x in xs:
        todo = [x]
        while todo:
            y = todo.pop()
            if y == 1:
                continue
            for k, b in enumerate(base):
                g = math.gcd(y, b)
                if g > 1:
                    del base[k]
                    todo += (b // g, g, y // g)
                    break
            else:
                base.append(y)
    return base


def invariant_factors(orders):
    """Normalize a list of cyclic orders to an ascending divisibility chain.

    Over a coprime base of the distinct orders (``_coprime_base``; no
    factoring), every prime ``p`` divides exactly one base element ``b``, and
    ``v_p(x) = v_p(b) * e`` where ``b^e`` exactly divides ``x``.  So the k-th
    largest invariant factor is the product over the base of ``b`` to its
    k-th largest exponent among the orders, counted with multiplicity.
    Trivial factors are dropped.

    >>> invariant_factors([4, 2, 3])
    (2, 12)
    >>> invariant_factors([2, 2])
    (2, 2)
    """
    counts = {}
    for x in orders:
        x = _as_int(x, "cyclic order")
        if x < 1:
            raise InputError(f"cyclic order {x} is not positive")
        if x > 1:
            counts[x] = counts.get(x, 0) + 1
    chain = []  # descending
    for b in _coprime_base(counts):
        exps = []
        for x, c in counts.items():
            e = 0
            while x % b == 0:
                x //= b
                e += 1
            if e:
                exps += [e] * c
        exps.sort(reverse=True)
        chain += [1] * (len(exps) - len(chain))
        for k, e in enumerate(exps):
            chain[k] *= b ** e
    return tuple(reversed(chain))


@dataclass(frozen=True, init=False)
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
    free_rank: int
    q_rank: int
    loc: tuple
    torsion: tuple

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

    def __reduce__(self):  # copies and pickles rebuild through __init__, not setattr
        return type(self), (self.free_rank, self.q_rank, self.loc, self.torsion)

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
    def localized(cls, primes):
        return cls(loc=[tuple(primes)])

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
    """``cokernel`` of the integer matrix of sparse ``rows``, which go to
    ``_snf`` as they are: only the diagonal is read, so the column count is
    that of the columns in use, and zero rows cost nothing.  A zero matrix
    does not reach ``_snf``."""
    width = 1 + max((max(row) for row in rows if row), default=-1)
    if not width:
        return GroupDescriptor.free(len(rows))
    return _diagonal_cokernel(len(rows), _snf(rows, width)[0])


def _diagonal_cokernel(m, diag):
    """``Z^m`` modulo the image of a Smith form with nonzero diagonal ``diag``."""
    return GroupDescriptor(free_rank=m - len(diag), torsion=[x for x in diag if x > 1])


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
    """The polynomial with ascending ``coeffs`` at ``x``, summed over its
    nonzero terms, so that a sparse law such as ``d^100000`` costs one power."""
    return sum(c * x ** i for i, c in enumerate(coeffs) if c)


def _class_poly(coeffs, parity):
    """A law's polynomial on the class of ``d`` with ``d % 2 == parity``, as
    ``(integer coefficients, denominator)``: its value at ``d`` there is
    ``_poly_eval(nums, d) // den``.  The polynomial must take integer values
    on the class.  With ``d = 2m + parity`` it is a polynomial in ``m`` of
    the same degree ``k``, and one that is an integer at ``k + 1``
    consecutive ``m`` is an integer at every ``m`` (its finite differences
    are integers), so ``k + 1`` values decide it.  Integer coefficients are
    the polynomial itself, at denominator 1, with nothing to check."""
    if _INT.issuperset(map(type, coeffs)):
        return tuple(coeffs), 1
    _as_rational([coeffs], "law coefficient")
    den = math.lcm(*(c.denominator for c in coeffs if type(c) is Fraction))
    nums = tuple(int(c * den) for c in coeffs)
    ds = range(2 + parity, 2 + parity + 2 * len(coeffs), 2)
    if den > 1 and any(_poly_eval(nums, d) % den for d in ds):
        kind = "odd" if parity else "even"
        raise InputError(f"law {[str(c) for c in coeffs]} is not integer-valued on {kind} d")
    return nums, den


def _as_int_rows(a, dim, wrong_size):
    """A step ``a`` (dense, or sparse rows of ``{column: value}``) as sparse
    rows without zeros, by the rule of ``_as_int``; a size other than
    ``dim x dim`` raises ``InputError(wrong_size)``."""
    if isinstance(a, (list, tuple)) and a and all(isinstance(row, dict) for row in a):
        # the cells of the whole step are checked at once, not row by row
        cols = [j for row in a for j in row]
        vals = [x for row in a for x in row.values()]
        if not (_INT.issuperset(map(type, cols)) and _INT.issuperset(map(type, vals))):
            a = [dict(zip([_as_int(j, "sparse row column") for j in row],
                          [_as_int(x, "matrix entry") for x in row.values()])) for row in a]
            cols = [j for row in a for j in row]
        if cols and not (0 <= min(cols) and max(cols) < dim):
            bad = sorted({j for j in cols if not 0 <= j < dim})
            raise InputError(f"sparse row columns {bad} are not in 0..{dim - 1}")
        rows = ([dict(row) for row in a] if all(vals)
                else [{j: x for j, x in row.items() if x} for row in a])
    else:
        rows = _sparse_rows(as_int_matrix(a))
        if len(a[0]) != dim:
            raise InputError(wrong_size)
    if len(rows) != dim:
        raise InputError(wrong_size)
    return rows


class DirectedSystem:
    """A sequential diagram ``Z^dim -M1-> Z^dim -M2-> ...``, of one of two kinds.

    * A finite chain: its list of steps, ``M1 ... Mn``, with no family
      (``finite_length = n``).  ``DirectedSystem.explicit([...matrices...])``
      builds one from square integer matrices.
    * A family ``d -> matrix`` on the canonical chain ``d = t + 1``, that is
      ``d = 2, 3, 4, ...`` (divisibility-cofinal, so classifications are
      exact), with ``finite_length = None``.
      ``DirectedSystem.from_family(dim, fn)`` takes an arbitrary callable and
      has no ``laws``, so no JSON form; ``colimit`` reads its laws off
      samples of its steps.

    ``DirectedSystem.from_laws(dim, diag, cells)`` builds the family whose
    entries are polynomials in ``d`` on each parity class of ``d``, with
    integer or ``Fraction`` coefficients and integer values on their class.
    A law is a pair ``(odd, even)`` of ascending coefficient tuples; the
    system keeps its ``laws`` as ``(diag, cells)``, one law per coordinate
    and one ``(row, col, law)`` per off-diagonal cell, and ``colimit``
    decides the system from them.
    ``DirectedSystem.symbolic(dim, diag_laws, offdiag)`` reads JSON laws,
    integer polynomials in ``d``, each one law on both classes; ``to_json``
    writes them back.  Given a finite ``d_chain``, it evaluates the family
    at each of its ``d`` and builds the finite chain of those steps, keeping
    the laws and the chain only for ``to_json``.

    Steps live in one store, ``_step_cache``, keyed by their 1-based index:
    a finite chain fills it when built; a family fills it on first read of
    each step.  Steps, given or returned by a family, are dense square
    matrices or sparse rows (``{column: value}`` dicts); either is checked
    where it enters, once, and kept as sparse int rows without zeros:
    ``explicit`` checks its matrices, ``from_family`` every step its callable
    returns, and ``from_laws`` checks its laws, so its own family needs no
    check.  ``matrix`` and ``to_json`` copy them dense; the step at any
    parameter ``d`` is ``matrix(1)`` of the same system built on
    ``d_chain=[d]``.
    """

    def __init__(self, dim, *, family=None, d_chain=None, steps=None, laws=None):
        dim = _as_int(dim, "system dimension")
        if dim < 1:
            raise InputError("system dimension must be at least 1")
        if family is None and steps is None:
            raise InputError("a directed system needs a family or explicit steps")
        self.dim = dim
        self.laws = laws
        self._family = family
        self._d_chain = d_chain  # a symbolic chain's parameters, for to_json
        self._step_cache = {} if steps is None else dict(enumerate(steps, 1))
        self.finite_length = None if family is not None else len(self._step_cache)
        self._analysis_cache = None  # the report, or the refusal, of colimit

    # -- constructors -------------------------------------------------------

    @classmethod
    def explicit(cls, matrices):
        matrices = _as_list(matrices, "'matrices'")
        if not matrices:
            raise InputError("explicit system needs at least one matrix")
        dim = len(matrices[0]) if isinstance(matrices[0], (list, tuple)) else 0
        steps = [_as_int_rows(m, dim, "all matrices must be square of equal size")
                 for m in matrices]
        return cls(dim, steps=steps)

    @classmethod
    def from_laws(cls, dim, diag, cells=()):
        dim = _as_int(dim, "system dimension")
        diag, cells = tuple(diag), tuple(cells)
        if len(diag) != dim:
            raise InputError("need exactly one diagonal law per coordinate")
        seen = set()
        for r, c, _ in cells:
            if not (0 <= r < dim and 0 <= c < dim) or r == c:
                raise InputError("offdiag entry needs distinct in-range row/col")
            if (r, c) in seen:
                raise InputError(f"offdiag cell ({r}, {c}) is given twice")
            seen.add((r, c))

        # Each distinct law is evaluated once per ``d``, on the class of ``d``,
        # and only the zeros a law takes there are dropped.
        at = {}  # each distinct law and its index
        on_diag = [at.setdefault(law, len(at)) for law in diag]
        in_cells = [(r, c, at.setdefault(law, len(at))) for r, c, law in cells]
        classes = tuple([_class_poly(law[1 - parity], parity) for law in at] for parity in (0, 1))

        def family(d):
            vals = [_poly_eval(p, d) // den for p, den in classes[d % 2]]
            rows = [{i: vals[k]} for i, k in enumerate(on_diag)]
            for r, c, k in in_cells:
                rows[r][c] = vals[k]
            if 0 in vals:
                rows = [row if all(row.values()) else {j: x for j, x in row.items() if x}
                        for row in rows]
            return rows

        return cls(dim, family=family, laws=(diag, cells))

    @classmethod
    def symbolic(cls, dim, diag_laws, offdiag=(), d_chain=None):
        dim = _as_int(dim, "system dimension")
        polys = [_law_to_poly(law) for law in _as_list(diag_laws, "'law'")]
        cells = []
        for entry in _as_list(offdiag, "'offdiag'"):
            if not isinstance(entry, dict):
                raise InputError("offdiag entries must be objects")
            r = _as_int(entry.get("row", -1), "offdiag row")
            c = _as_int(entry.get("col", -1), "offdiag col")
            if "kind" in entry:
                coeffs = _law_to_poly({k: v for k, v in entry.items() if k not in ("row", "col")})
            else:
                _check_keys(entry, ("row", "col", "poly"), "an offdiag entry")
                coeffs = tuple(_as_int(x, "poly coefficient")
                               for x in _as_list(entry.get("poly"), "offdiag 'poly'"))
            cells.append((r, c, (coeffs, coeffs)))
        # built first, so that ``dim`` and the laws are checked before the chain
        system = cls.from_laws(dim, [(p, p) for p in polys], cells)
        if d_chain is None:
            return system
        ds = tuple(_as_int(d, "d_chain entry") for d in _as_list(d_chain, "d_chain"))
        if not ds:
            raise InputError("d_chain needs at least one entry")
        if min(ds) < 2:
            raise InputError("d_chain entries must be integers >= 2")
        return cls(dim, steps=[system._family(d) for d in ds], laws=system.laws, d_chain=ds)

    @classmethod
    def from_family(cls, dim, fn):
        dim = _as_int(dim, "system dimension")
        return cls(dim, family=lambda d: _as_int_rows(
            fn(d), dim, "family returned a matrix of the wrong size"))

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
        if self.laws is None:
            if self._family is None:
                return {"mode": "explicit",
                        "matrices": [_dense_rows(m, self.dim) for m in self._step_cache.values()]}
            raise InputError("a family-backed system has no JSON form")
        diag, cells = self.laws
        if any(odd != even or not _INT.issuperset(map(type, odd))
               for odd, even in (*diag, *(law for _, _, law in cells))):
            raise InputError("only laws that are one integer polynomial on both "
                             "parity classes have a JSON form")
        out = {"mode": "symbolic", "dim": self.dim,
               "law": [{"kind": "poly", "coeffs": list(p)} for p, _ in diag],
               "offdiag": [{"row": r, "col": c, "poly": list(p)} for r, c, (p, _) in cells]}
        if self._d_chain is not None:
            out["d_chain"] = list(self._d_chain)
        return out

    # -- chain access -------------------------------------------------------

    def matrix(self, t):
        """The t-th structure map (1-based) as an integer matrix."""
        return _dense_rows(self._step(t), self.dim)

    def _step(self, t):
        """The t-th structure map as checked sparse rows, kept after the first call."""
        if t < 1:
            raise InputError("step indices are 1-based")
        if t not in self._step_cache:
            if self._family is None:
                raise InputError(f"step {t} outside the explicit chain")
            self._step_cache[t] = self._family(t + 1)
        return self._step_cache[t]


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
    ``rank`` and ``stabilization_level`` are read off echelon bases of the
    composites' images, pushed along the steps (``_image_bases``), so no
    composite is multiplied out: for a family up to the first level of its
    proved rank, and along a finite chain that is not unimodular.  ``maps``
    are the sparse maps read up to that level or to the chain's end;
    ``relations`` are built from them on first read: ``()`` at full rank,
    else the Hermite normal form of the kernel of their composite up to
    ``stabilization_level``.
    That is the kernel of the whole composite: each kernel is saturated,
    they are nested, and from that level on they have one rank.
    """

    invariants: GroupDescriptor
    maps: list = field(repr=False, compare=False)
    truncated: bool
    rank: int
    stabilization_level: int
    notes: tuple = ()

    @cached_property
    def relations(self):
        dim = len(self.maps[0])
        if self.rank == dim:
            return ()
        return _relation_pairs(_kernel_basis(_composite(self.maps[:self.stabilization_level]), dim))

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


def _columns(m, dim, coords=None):
    """The ``dim`` columns of a matrix of sparse rows, as sparse rows.  With
    ``coords``, the coordinates of a direct summand of a square map, only
    the summand's columns are built, from its rows, keyed by coordinate."""
    if coords is None:
        cols, rows = [{} for _ in range(dim)], enumerate(m)
    else:
        cols, rows = {k: {} for k in coords}, zip(coords, map(m.__getitem__, coords))
    for i, row in rows:
        for j, x in row.items():
            cols[j][i] = x
    return cols


def _image_bases(steps, dim, coords=None):
    """An echelon basis of the image of each composite ``M_t ... M_1`` of
    the sparse ``steps`` in turn, so no composite is multiplied out.  The
    first step's columns are echelonized; each later step maps the previous
    basis, whose images span the next image, and echelonizes them, so a
    basis's length is its level's rank.  With ``coords``, the sorted
    coordinates of a direct summand (no step has an entry that joins them
    to another coordinate), only the summand's columns are read and every
    basis stays supported on them.

    This is the one image walk: families, finite chains and
    ``identified``'s window all read their ranks from it."""
    span = range(dim) if coords is None else coords
    basis = None
    for step in steps:
        cols = _columns(step, dim, coords)
        basis = list(_echelon([cols[k] for k in span] if basis is None
                              else _sparse_mul(basis, cols)).values())
        yield basis


def _colimit_finite(maps):
    if all(map(_is_unimodular, maps)):
        dim = len(maps[0])
        return ColimitReport(GroupDescriptor.free(dim), maps, False, dim, 1, (
            "all steps unimodular; the chain is a chain of isomorphisms",))
    ranks = [len(basis) for basis in _image_bases(maps, len(maps[0]))]
    r = ranks[-1]
    return ColimitReport(GroupDescriptor.free(r), maps, True, r, ranks.index(r) + 1, (
        "finite horizon: free rank observed along the materialized chain; "
        "divisibility beyond the horizon is not certified",))


def _law_fit(coeffs):
    """A class polynomial's fit read off its ascending ``coeffs``:
    ``("zero",)``, ``("monomial", c, e)`` when it has one nonzero term
    ``c d^e``, and otherwise None."""
    terms = [(e, c) for e, c in enumerate(coeffs) if c]
    if not terms:
        return ("zero",)
    if len(terms) == 1:
        (e, c), = terms
        return ("monomial", Fraction(c), e)
    return None


_NO_MONOMIAL = ("diagonal scaling law fits no monomial c*d^e on a parity class; "
                "the system is outside the certified class")


def _direction_type(law):
    """Classify one flag direction from its law ``(odd, even)``, one
    polynomial per parity class of d (this covers parity-dependent laws), or
    None when no law could be read for it.

    The law must be a monomial ``c d^e`` or zero on both classes.  Returns
    ``None`` for a dead direction, a GroupDescriptor for a surviving one, and
    raises for laws outside the certified class.

    The answer inverts the primes that divide infinitely many steps: all of
    them for an even-class ``e >= 1``; for an odd-class ``e >= 1`` the odd
    ones, and 2 when it divides either constant (else ``Z[1/p : p odd]``,
    which is refused); the primes of the constants otherwise.
    """
    fits = (None,) if law is None else tuple(map(_law_fit, law))
    if None in fits:
        raise UnsupportedSystemError(_NO_MONOMIAL)
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
    # Both laws are constant, hence integers.
    primes = set(_factor_multiplicity(abs(c_odd.numerator)))
    primes.update(_factor_multiplicity(abs(c_even.numerator)))
    if not primes:
        return GroupDescriptor.free(1)
    return GroupDescriptor.localized(sorted(primes))


def _zero_classes(law):
    """Whether ``law`` is zero on each class, ``(odd, even)``; ``()`` for no law."""
    return () if law is None else (not any(law[0]), not any(law[1]))


def _refuse_a_root(law):
    """Refuse a living direction whose law, on a class where it is no
    monomial, has an integer root d >= 2 of that class: that step is zero on
    it, so the rank of a window depends on where the window starts."""
    if law is None or True in _zero_classes(law):
        return
    for coeffs in dict.fromkeys(law):  # each distinct class polynomial once
        if sum(map(bool, coeffs)) > 1:
            from . import numfield

            if any(d >= 2 and law[1 - d % 2] == coeffs for d in numfield.integer_roots(coeffs)):
                raise UnsupportedSystemError(
                    "window rank depends on the starting level; the system is outside "
                    "the certified class")


def _coupled(feeds):
    """The coordinates on some feed arc (``feeds[j]`` holds each ``i != j``
    with a nonzero law, or sample, at ``(i, j)``): together a direct summand
    of every step.  Each other coordinate is isolated, a direct summand of
    rank at most one on which every step is diagonal."""
    return {j for j, into in enumerate(feeds) if into}.union(*feeds)


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


def _triangular_flag(feeds, laws):
    """The flag of a system whose feed arcs (see ``_coupled``) have no
    cycle: one direction ``(laws[p], the coordinates p reaches)`` per
    coordinate ``p``.  None when a coordinate reaches itself: it closes a
    cycle, so no common triangular order exists."""
    reach = [_reachable(feeds, p) if into else () for p, into in enumerate(feeds)]
    if any(p in into for p, into in enumerate(reach)):
        return None
    return [(law, sorted(into)) for law, into in zip(laws, reach)]


def _flag_sum(flag, r, typed):
    """The colimit read off a flag of directions, each ``(law, into)``.

    ``into`` lists the flag indices the direction couples into.  ``typed``
    maps the laws typed already to their types; ``_direction_type`` is
    pure, so it types each other distinct law once, here.  The survivors
    must number the proved rank ``r``.  Split safety: a non-free
    survivor may couple only into divisible or dead directions, since only
    then is the extension certified to split; the answer is their direct
    sum.
    """
    for law, _ in flag:
        if law not in typed:
            typed[law] = _direction_type(law)
    types = [typed[law] for law, _ in flag]
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


def _restricted_maps(maps, basis):
    """Each map of sparse rows on the column span of ``basis``, which it
    preserves: ``t`` with ``m @ basis == basis @ t``, solved exactly."""
    rows, r = _sparse_rows(basis), len(basis[0])
    return [solve_exact(basis, _dense_rows(_sparse_mul(m, rows), r)) for m in maps]


def _rational_eigenspaces(t):
    """``(k, columns of its generalized eigenspace)`` per rational eigenvalue
    ``k`` of ``t``, an integer map restricted to an invariant subspace: its
    characteristic polynomial (Faddeev--LeVerrier; Cohen, section 2.2) is
    monic and integral, so ``k`` is one of its integer roots, and the kernel
    of ``(t - k)^n`` is not zero."""
    from . import numfield

    n = len(t)
    poly, tm = [Fraction(1)], t  # descending coefficients; tm = t @ M_k
    for k in range(1, n + 1):
        poly.append(-sum(tm[i][i] for i in range(n)) / k)
        tm = mat_mul(t, [[x + poly[-1] * (i == j) for j, x in enumerate(row)]
                         for i, row in enumerate(tm)])
    out = []
    for k in numfield.integer_roots(poly[::-1]):
        shifted = [[x - k * (i == j) for j, x in enumerate(row)] for i, row in enumerate(t)]
        den = math.lcm(*(x.denominator for row in shifted for x in row))
        power = step = [[int(x * den) for x in row] for row in shifted]
        for _ in range(n - 1):
            power = mat_mul(power, step)
        vecs = _kernel_basis(_sparse_rows(power), n)
        if not vecs:
            raise CrossCheckError(f"(t - {k})^{n} has no kernel, though {k} is a root "
                                  "of the characteristic polynomial")
        out.append((k, [list(col) for col in zip(*vecs)]))
    return out


def _common_flag_eigenvalues(ts):
    """Eigenvalue tuples of a common flag for the commuting integer family
    ``ts``: each map in turn splits every space by its generalized
    eigenspaces, and each joint tuple comes as often as its space has
    dimensions, largest absolute values first."""
    r = len(ts[0])
    spaces = [((), identity_matrix(r))]
    for t in ts:
        spaces = [(vals + (k,), mat_mul(b, sub))
                  for vals, b in spaces
                  for k, sub in _rational_eigenspaces(_restricted_maps([_sparse_rows(t)], b)[0])]
    flag = sorted((vals for vals, b in spaces for _ in b[0]),
                  key=lambda vals: (tuple(-abs(v) for v in vals), vals))
    if len(flag) < r:
        raise UnsupportedSystemError(
            "a restricted structure map has an irrational eigenvalue; "
            "the system is outside the certified class")
    for i, t in enumerate(ts):
        if sum(vals[i] for vals in flag) != sum(t[j][j] for j in range(r)):
            raise CrossCheckError(f"the eigenvalues of structure map {i} do not sum to its trace")
    return flag


def _eigen_laws(coords, entry):
    """One law per direction of a common flag of the coordinates ``coords``,
    whose entries' laws ``entry(i, j)`` feed along a cycle.

    On each parity class a step is ``M(d) = sum_k A_k d^k``, ``A_k`` the
    matrix of the entries' coefficients of ``d^k``.  With ``B_k`` those of a
    class (the same or the other), ``M(d) M(d') - M(d') M(d)`` is
    ``sum_(j,k) [A_j, B_k] d^j d'^k``: the steps commute exactly when all
    coefficient matrices commute pairwise.  These are split jointly by
    ``_common_flag_eigenvalues``, each scaled to integers first, and a joint
    tuple's eigenvalues, scaled back, are its direction's coefficients."""
    laws = [[entry(i, j) for j in coords] for i in coords]
    if any(None in row for row in laws):
        raise UnsupportedSystemError(_NO_MONOMIAL)
    keys = sorted({(c, k) for row in laws for law in row
                   for c, coeffs in enumerate(law) for k, x in enumerate(coeffs) if x})
    ts = [[[dict(enumerate(law[c])).get(k, 0) for law in row] for row in laws] for c, k in keys]
    if any(mat_mul(a, b) != mat_mul(b, a) for a, b in combinations(ts, 2)):
        raise UnsupportedSystemError(
            "structure maps do not commute and no common triangular "
            "coordinate order exists; the system is outside the "
            "certified class"
        )
    dens = [math.lcm(*(x.denominator for row in t for x in row)) for t in ts]
    flag = _common_flag_eigenvalues([[[int(x * den) for x in row] for row in t]
                                     for t, den in zip(ts, dens)])
    at = {key: m for m, key in enumerate(keys)}
    top = [max((k for c, k in keys if c == cls), default=0) for cls in (0, 1)]
    return [tuple(tuple(Fraction(vals[at[c, k]], dens[at[c, k]]) if (c, k) in at else 0
                        for k in range(top[c] + 1)) for c in (0, 1)) for vals in flag]


_LONG_READ = 65  # steps per class that fix a law of degree up to 63 and confirm it


def _difference_law(values, first):
    """The polynomial of least degree through ``values`` at the equally
    spaced d = first, first + 2, ..., as ascending coefficients in d, or None
    when no finite difference vanishes, so that no sample confirms it.  In
    Newton's forward form, with ``d = first + 2m``, it is
    ``sum_k D_k C(m, k)``, ``D_k`` the k-th difference at the first sample.

    >>> _difference_law([4, 16, 36, 64], 2), _difference_law([1, 3, 2], 3)
    ((0, 0, 1), None)
    """
    leading, row = [], list(values)
    while any(row):
        if len(row) == 1:
            return None
        leading.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    top = max(len(leading), 1) - 1  # the degree K; scale = 2^K K!
    scale = math.factorial(top) << top  # 2^k k! C(m, k) = prod_(i<k) (d - first - 2i)
    coeffs, basis, weight = [0] * (top + 1), [1], scale
    for k, delta in enumerate(leading):
        for i, b in enumerate(basis):
            coeffs[i] += delta * weight * b
        basis = [y - (first + 2 * k) * x for x, y in zip(basis + [0], [0] + basis)]
        weight //= 2 * k + 2
    return tuple(c // scale if c % scale == 0 else Fraction(c, scale) for c in coeffs)


def _family_laws(system):
    """``(diag, feeds, entry)`` of a family without laws (``from_family``),
    read off its steps: ``feeds`` are the arcs of the union zero pattern of
    the steps at d = 2 .. cap + 1, ``cap = max(14, dim + 6)``, and at d = 101
    and 102.  ``entry(i, j)`` reads an entry's law on each parity class by
    ``_difference_law`` off the steps up to the cap, confirmed at 101 (odd)
    or 102 (even), or else off the first ``_LONG_READ`` steps of its class,
    and is None when no polynomial of degree <= 63 fits them.  The degree
    rule is a heuristic: a family that changes past every step read is read
    as the law of those steps.  Only a cycle reads entries off the diagonal.
    """
    cap = max(14, system.dim + 6)
    confirm = {d: system._family(d) for d in (101, 102)}
    feeds = [set() for _ in range(system.dim)]
    for m in (*map(system._step, range(1, cap + 1)), *confirm.values()):
        for i, row in enumerate(m):
            for j in row.keys() - {i}:
                feeds[j].add(i)

    def read(i, j, first, end):
        return _difference_law([system._step(d - 1)[i].get(j, 0)
                                for d in range(first, end, 2)], first)

    def entry(i, j):
        law = []
        for first, d in ((3, 101), (2, 102)):
            coeffs = read(i, j, first, cap + 2)
            if coeffs is None or _poly_eval(coeffs, d) != confirm[d][i].get(j, 0):
                coeffs = read(i, j, first, first + 2 * _LONG_READ)
            law.append(coeffs)
        return None if None in law else tuple(law)

    return [entry(p, p) for p in range(system.dim)], feeds, entry


_CANONICAL = "classified along the canonical divisibility-cofinal chain d = 2, 3, 4, ..."


def _colimit_laws(system):
    """The colimit of a family on the canonical chain, decided from its laws:
    those it was built from (``from_laws``, ``symbolic``), or those read off
    samples of its steps (``_family_laws``).  A nonzero off-diagonal law at
    ``(i, j)`` is a feed arc from ``j`` to ``i``.

    The flag.  With no cycle of feed arcs its directions are the
    coordinates, each with its diagonal law (``_triangular_flag``).  With a
    cycle the isolated coordinates keep theirs, and the coupled ones are
    split by the joint eigenspaces of their coefficient matrices
    (``_eigen_laws``); a family whose steps do not commute, or that has an
    irrational joint eigenvalue, is refused.  A living direction whose law
    has a root on the chain is refused (``_refuse_a_root``), and each other
    law is typed (``_direction_type``): it must be a monomial ``c d^e`` with
    ``c != 0`` or zero on each class.  A direction is dead when its law is
    zero on a class; the other ``s0`` never vanish on the chain.

    The rank.  Order the directions so that every arc runs from a later one
    to an earlier one: every step is upper triangular, and so is every
    product of consecutive steps, with the products of the diagonal entries
    on its diagonal.  A triangular matrix has rank at least the number of
    its nonzero diagonal entries, so every composite and every window has
    rank >= s0.  Conversely, let ``V_k`` be the span of the first ``k``
    directions, which every step preserves, and ``q_1 > ... > q_m`` the
    dead ones.  Claim: a window ``W`` that holds steps ``t_1 < ... < t_m``,
    step ``t_i`` zero at ``q_i``, has rank ``<= dim - m``.  By induction on
    the flag, ``k`` from ``dim`` down to 0: the map ``W`` induces on
    ``V/V_k`` has rank at most ``dim - k`` less the number of dead
    ``q > k``.  From ``k`` to ``k - 1`` the quotient gains the line of
    ``e_k`` at the bottom, so the rank grows by at most one.  If ``k = q_i``
    is dead, write ``W = B M A`` with ``M`` the step ``t_i``.  The image
    ``U`` of ``A`` in ``V/V_(k-1)`` maps onto its image in ``V/V_k``, whose
    rank is within the bound for ``k`` (``A`` holds ``t_1 ... t_(i-1)``),
    with a kernel inside the line of ``e_k``.  ``M`` kills that line, as its
    diagonal entry at ``k`` is 0, so ``M(U)`` and ``B M(U)`` stay within
    that rank, the bound for ``k - 1``.  A direction zero on both classes is
    zero at every step, one zero on one class at every other step, so any
    ``bound`` consecutive steps hold such ``t_i``, ``bound`` counting 1 per
    direction dead on both classes and 2 per other dead one.  So the
    composite up to level ``bound`` and every window of ``bound`` steps have
    rank exactly s0, whatever level the window starts at.  On a cycle this
    holds in a joint eigenbasis over Q: the coefficient matrices commute
    and have rational eigenvalues, so they keep a common flag, every step is
    upper triangular along it with the direction laws on its diagonal, and
    a rank over Q does not depend on the basis.

    So the image walk (``_image_bases``) stops at the first level of rank
    s0, the stabilization level; a rank below s0, or above it at level
    ``bound``, contradicts the proof and raises ``CrossCheckError``.  An
    isolated coordinate is a direct summand whose rank drops at its first
    zero step: level 1 (d = 2) when it is dead on even d, else level 2.  The
    coupled ones are pushed only when one of their directions is dead.

    The types.  The flag meets Z^dim in saturated sublattices that every
    step preserves; colimits are exact, so the colimit is an iterated
    extension of the rank-one colimits of the quotients, the direction
    types.  An extension splits when its quotient is free or its subgroup
    divisible (injective): a non-free direction may couple only into
    divisible or dead ones (``_flag_sum``).  A triangular direction couples
    into the coordinates it reaches.  A joint eigenbasis orders nothing, so
    each eigen direction couples into every earlier one, the divisible and
    dead ones first, then the other non-free ones, then the free ones.
    """
    dim = system.dim
    if system.laws is None:
        diag, feeds, entry = _family_laws(system)
    else:
        diag, cells = system.laws
        feeds, at = [set() for _ in range(dim)], {}
        for r, c, law in cells:
            if any(map(any, law)):
                feeds[c].add(r)
                at[r, c] = law

        def entry(i, j):  # a cell with no law, or a zero one, is zero on both classes
            return diag[i] if i == j else at.get((i, j), ((0,), (0,)))

    coupled, flag, typed = _coupled(feeds), _triangular_flag(feeds, diag), {}
    laws, block = diag, coupled  # the directions' laws; the coupled ones among them
    if flag is None:
        isolated = [diag[p] for p in range(dim) if p not in coupled]
        eigen = _eigen_laws(sorted(coupled), entry)
        laws, block = isolated + eigen, range(len(isolated), dim)
    zeros = {law: _zero_classes(law) for law in dict.fromkeys(laws)}
    for law in zeros:
        _refuse_a_root(law)
    if flag is None:
        typed = {law: _direction_type(law) for law in dict.fromkeys(eigen)}
        eigen.sort(key=lambda law: 0 if typed[law] is None or typed[law].is_divisible
                   else 2 if typed[law].is_free else 1)
        laws = isolated + eigen
        flag = [(law, ()) if p < block.start else (law, range(block.start, p))
                for p, law in enumerate(laws)]
    dead = [p for p, law in enumerate(laws) if True in zeros[law]]
    s0 = dim - len(dead)
    invariants = _flag_sum(flag, s0, typed)
    stab = max((1 if zeros[laws[p]][1] else 2 for p in dead if p not in block), default=1)
    dead = [zeros[laws[p]] for p in dead if p in block]
    if dead:
        bound = sum(1 if all(classes) else 2 for classes in dead)
        target = len(coupled) - len(dead)
        coords = sorted(coupled) if len(coupled) < dim else None
        steps = map(system._step, range(1, bound + 1))
        for level, basis in enumerate(_image_bases(steps, dim, coords), 1):
            if len(basis) <= target:
                break
        if len(basis) != target:
            raise CrossCheckError(
                f"the laws prove that the coupled coordinates reach rank {target} by "
                f"level {bound}, but level {level} has rank {len(basis)}")
        stab = max(stab, level)
    maps = list(map(system._step, range(1, stab + 1)))
    return ColimitReport(invariants, maps, False, s0, stab, (_CANONICAL,))


def colimit(system):
    """Classify the colimit of a directed system of free abelian groups.

    A family on the canonical chain gets an exact answer
    (``truncated = False``) or a refusal (``UnsupportedSystemError``) with a
    diagnostic from its laws (``_colimit_laws``), read off samples for a
    family built by ``from_family``.  The rule is generic: the engine checks
    of ``ktheory.k_of_A0`` and ``k_of_B0`` hand it the laws of ``kappa``,
    the one thing they share with the closed forms.  Finite chains (a
    symbolic system with a finite ``d_chain`` is one) report the exact
    colimit only when every step is unimodular; otherwise the result is
    marked ``truncated``.  Both read their level ranks through one image
    walk, ``_image_bases``.  A system is classified once: later calls return
    the same report or raise the same refusal.

    >>> qs = DirectedSystem.symbolic(1, [{"kind": "mult_d"}])
    >>> print(colimit(qs).invariants)
    Q
    """
    if not isinstance(system, DirectedSystem):
        raise InputError("colimit expects a DirectedSystem")
    if system._analysis_cache is None:
        length = system.finite_length
        try:
            if length is not None:
                report = _colimit_finite([system._step(t) for t in range(1, length + 1)])
            else:
                report = _colimit_laws(system)
            system._analysis_cache = report
        except UnsupportedSystemError as refusal:
            system._analysis_cache = refusal
    if isinstance(system._analysis_cache, UnsupportedSystemError):
        raise UnsupportedSystemError(str(system._analysis_cache))
    return system._analysis_cache


# Steps the window walk of ``identified`` may take before reaching the
# certified rank; running out means the certification is wrong.
_WINDOW_STEPS = 64


def identified(system, a, b):
    """Decide whether two formal elements agree in the colimit.

    Elements are pairs ``(level, vector)`` with 1-based levels; the element
    lives in the copy of Z^dim at that level.  For finite chains the colimit
    of the finite diagram is its last object, so both elements are compared
    there.

    For families on the canonical chain both elements are pushed to
    ``base = max(level_a, level_b)`` and their difference is pushed on; a
    difference that vanishes means True.  That "yes" rests on the vanishing
    difference alone, so no colimit is classified for it, and it is given
    even on a system that ``colimit`` refuses.  A "no" rests on the certified
    colimit rank ``r = colimit(system).rank`` alone, classified when the walk
    first compares against it; a refusal there propagates.  The window
    ``W = M_(base+k) ... M_base`` has ``rank W >= r`` at every step, and the
    answer is False once ``rank W == r`` with the difference still nonzero:
    every later composite satisfies
    ``rank(M_j ... M_base) >= rank(M_j ... M_1) = r = rank W``, so the maps
    after ``W`` are injective on the image of ``W``, which holds the
    difference, and it never vanishes.  The same bound shows that ``W``
    reaches rank ``r`` after finitely many steps; a walk that does not reach
    it within a fixed number of steps raises ``CrossCheckError``, since the
    certified rank must then be wrong.  ``rank W`` is read off the echelon
    of the first step's columns, pushed along the later steps and
    echelonized at each one: its span is im W, so no window composite is
    formed.

    On ``Q + 0`` (the first coordinate scales by d, the second dies), the
    step at level 1 has d = 2:

    >>> s = DirectedSystem.symbolic(2, [{"kind": "mult_d"}, {"kind": "zero"}])
    >>> identified(s, (1, (1, 0)), (2, (2, 0)))
    True
    >>> identified(s, (1, (0, 1)), (1, (0, 0)))
    True
    >>> identified(s, (1, (1, 0)), (2, (1, 0)))
    False
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
    steps = range(base, base + _WINDOW_STEPS)
    window = _image_bases(map(system._step, steps), system.dim)
    r = None  # the certified rank, classified only when a "no" is first tested
    for level in steps:
        diff = _apply(system._step(level), diff)
        if not any(diff):
            return True
        basis = next(window)
        if r is None:
            r = colimit(system).rank
        if len(basis) == r:
            return False
    raise CrossCheckError(
        f"identified: the window from level {base} did not reach the certified "
        f"colimit rank {r} within {_WINDOW_STEPS} steps"
    )
