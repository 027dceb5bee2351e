"""K-theory of ring C*-algebras over rings of integers: exact closed forms.

The algebras handled here are built from a degree-``n`` number field (always
in the power-basis convention of :mod:`ringkt.numfield`):

* the "base" pair at level zero: a fixed-point subalgebra (algebra code
  ``B0``) and the crossed base algebra (code ``A0``), whose K-groups are
  computed as directed colimits along explicit structure matrices;
* the structure matrices themselves (``kappa``): block matrices on the basis
  of projection classes indexed by subsets of ``{1..n}``, with a finite part
  (all ``2^n`` subsets), an infinite part (the ``2^(n-1)`` even subsets) and
  a single coupling row into the degree-zero generator, read off a closed
  form in ``d`` and checked against products of blocks (``compose``);
* crossed products by single automorphisms via the exact six-term sequence
  (``pv_step``), including the order-two involution in its elementary-divisor
  normal form (``involution_action``);
* the final classification theorems (``classify_B`` / ``classify_A``) giving
  graded exterior-algebra answers over a generator set Gamma, and the full
  rational adele variant (``k_full_adele_Q``).

Every closed form that admits an independent computation route is
cross-checked against the colimit engine of :mod:`ringkt.abgrp`; a mismatch
raises :class:`ringkt.errors.CrossCheckError`.

Basis conventions (documented once, used everywhere):

* subsets of ``{1..n}`` are ordered graded-lexicographically (by size, then
  lexicographically); the finite-part basis runs over all subsets, the
  infinite-part basis over the even-size subsets, the empty set first in
  both.  The infinite-part class of the empty set is the class of the unit.
* For ``n = 1`` the distinguished rank-one basis is ``([1], [p_u], [p])``
  where ``p_u`` and ``p`` are the halved projections built from the
  generating unitary times the sign flip, and the sign flip alone; in the
  internal order this is the permutation ``(2, 1, 0)``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

from .abgrp import (
    DirectedSystem,
    GroupDescriptor,
    colimit,
    _as_int,
    _as_int_rows,
    _check_keys,
    _cokernel_rows,
    _dense_rows,
    _echelon,
    _is_unimodular,
    _sparse_rows,
    _subtract,
)
from .errors import AmbiguityError, CrossCheckError, HypothesisError, InputError

# ---------------------------------------------------------------------------
# result registry: tags carried in "citations" arrays of reports
# ---------------------------------------------------------------------------

RESULT_TAGS = {
    "kappa-structure-matrices": (
        "block structure matrices of the level-zero inclusions on the "
        "subset-indexed projection basis"
    ),
    "rank-one-inclusion-matrices": (
        "the 3x3 inclusion matrices in the distinguished rank-one basis"
    ),
    "rank-one-colimit": (
        "colimit of the rank-one chain: Q + Z with the identification "
        "[1] ~ 2 [p_u]"
    ),
    "adele-scaling-diagonal": (
        "diagonal scaling d^(n-k) on exterior degree k of the infinite part"
    ),
    "fixed-subalgebra-base-k": (
        "closed form for the K-groups of the level-zero fixed-point "
        "subalgebra"
    ),
    "crossed-base-k": (
        "closed form for the K-groups of the level-zero crossed base algebra"
    ),
    "partial-unit-shell-k": (
        "K-groups after adjoining m unit generators over the rationals: "
        "free of rank 2^(m-1) in both degrees"
    ),
    "pv-six-term": (
        "six-term exact sequence of a crossed product by a single "
        "automorphism"
    ),
    "involution-elementary-divisors": (
        "elementary-divisor normal form of the order-two involution step"
    ),
    "classification-ring-algebra": (
        "four-case classification of the ring C*-algebra via real embedding "
        "count and generator sign parities"
    ),
    "classification-adelic-algebra": (
        "three-case classification of the adelic crossed algebra under the "
        "two-roots-of-unity hypothesis"
    ),
    "full-rational-adele-k": (
        "K-groups over the full rational adeles: rank-two trivially graded "
        "factor tensored with the exterior algebra over the positive "
        "rationals"
    ),
    "exterior-parity-ranks": (
        "graded ranks of an exterior algebra: sum of binomials over a parity "
        "class equals 2^(r-1)"
    ),
}


# ---------------------------------------------------------------------------
# subset bases
# ---------------------------------------------------------------------------


def subsets_graded_lex(n):
    """All subsets of {1..n}, ordered by size then lexicographically.

    >>> subsets_graded_lex(2)
    [(), (1,), (2,), (1, 2)]
    """
    n = _as_int(n, "the set size n")
    if n < 0:
        raise InputError("n must be nonnegative")
    out = []
    for k in range(n + 1):
        out.extend(itertools.combinations(range(1, n + 1), k))
    return out


def _subset_sizes(n, parity):
    """The sizes of the subsets of {1..n} whose size has the given parity, in
    graded-lex order: each such ``k`` repeated ``C(n, k)`` times.

    >>> _subset_sizes(4, 0)
    [0, 2, 2, 2, 2, 2, 2, 4]
    """
    return [k for k in range(parity, n + 1, 2) for _ in range(math.comb(n, k))]


# ---------------------------------------------------------------------------
# structure matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KappaMatrix:
    """Structure matrix of the level-zero inclusion for multiplier ``d``.

    Sparse block form on the basis (finite part: all subsets; infinite part:
    even subsets):

    * finite block: the identity (``fin_identity``) or the matrix whose
      first column (the empty set) is all ones and whose other columns
      vanish;
    * ``mixing``: the single coupling row sending each finite-part class
      into the degree-zero infinite-part generator (the unit class);
    * ``inf_diag``: the diagonal ``d^(n - |T|)`` over even subsets ``T``.

    The sparse form is closed under products, so composites stay exact for
    any size without building dense matrices.  ``compose`` multiplies blocks
    and never reads the closed form of :func:`kappa`, so each checks the other.
    """

    n: int
    d: int
    fin_identity: bool
    mixing: tuple
    inf_diag: tuple

    def compose(self, other):
        """Matrix product self @ other (apply ``other`` first)."""
        if not isinstance(other, KappaMatrix) or other.n != self.n:
            raise InputError("can only compose structure matrices of equal level count")
        fin_identity = self.fin_identity and other.fin_identity
        # mixing row of the product: m_self . F_other + (d_self)^n . m_other
        if other.fin_identity:
            left = list(self.mixing)
        else:
            left = [sum(self.mixing)] + [0] * (len(self.mixing) - 1)
        scale = self.inf_diag[0]  # = d^n, the unit-class eigenvalue
        mixing = tuple(l + scale * m for l, m in zip(left, other.mixing))
        inf_diag = tuple(a * b for a, b in zip(self.inf_diag, other.inf_diag))
        return KappaMatrix(self.n, self.d * other.d, fin_identity, mixing, inf_diag)

    def rows(self):
        """The matrix as sparse rows ``{column: entry}``, read off the blocks."""
        n2 = 2 ** self.n
        out = [{i if self.fin_identity else 0: 1} for i in range(n2)]
        out += [{n2 + t: x} for t, x in enumerate(self.inf_diag)]
        out[n2].update((j, x) for j, x in enumerate(self.mixing) if x)
        return out

    def dense(self):
        """The full integer matrix on the ordered basis (finite + infinite)."""
        return _dense_rows(self.rows(), self.size)

    @property
    def size(self):
        return 2 ** self.n + 2 ** (self.n - 1)


def _level_count(n):
    """``n`` by the integer rule, refused below 1."""
    n = _as_int(n, "the level count n")
    if n < 1:
        raise InputError("the level count n must be an integer >= 1")
    return n


def _multiplier(d):
    """``d`` by the integer rule, refused below 2."""
    d = _as_int(d, "the multiplier d")
    if d < 2:
        raise InputError("the multiplier d must be an integer >= 2")
    return d


def kappa_inf(n, d):
    """The infinite-part diagonal: ``d^(n - |T|)`` over even subsets ``T``,
    that is ``d^(n - k)`` repeated ``C(n, k)`` times for each even ``k``.

    >>> kappa_inf(3, 2)
    (8, 2, 2, 2)
    """
    n, d = _level_count(n), _multiplier(d)
    diag = ()
    for k in range(0, n + 1, 2):
        diag += (d ** (n - k),) * math.comb(n, k)
    return diag


def kappa(n, d):
    """The structure matrix for level count ``n`` and multiplier ``d >= 2``.

    Read off the closed form, for ``d = 2^a q`` with ``q`` odd: the finite
    block is the identity exactly when ``a = 0``, the infinite diagonal is
    ``kappa_inf(n, d)``, and every mixing entry is ``(d^n - 1)/2`` for odd
    ``d``; for even ``d`` it is ``d^n/2``, except ``d^n/2 - 2^(n-1)`` at
    the empty set.

    The form follows by induction on ``a``: ``kappa(n, 2)^a`` has mixing
    ``(2^(n-1) (2^((a-1)n) - 1), 2^(an-1), ..., 2^(an-1))``, and composing
    it with ``kappa(n, q)``, whose finite block is the identity, adds
    ``2^(an) (q^n - 1)/2`` to every entry.  The product of blocks checks
    the form: ``kappa(n, a).compose(kappa(n, b)) == kappa(n, a*b)``.

    >>> kappa(2, 6).mixing
    (16, 18, 18, 18)
    >>> kappa(2, 5).mixing
    (12, 12, 12, 12)
    """
    n, d = _level_count(n), _multiplier(d)
    half, n2 = d ** n // 2, 2 ** n
    if d % 2:
        mixing = (half,) * n2  # d^n is odd, so half = (d^n - 1)/2
    else:
        mixing = (half - n2 // 2,) + (half,) * (n2 - 1)
    return KappaMatrix(n, d, d % 2 == 1, mixing, kappa_inf(n, d))


def kappa_laws(n):
    """The entries of ``kappa(n, d)`` as laws in ``d``, in the form that
    ``DirectedSystem.laws`` holds (``DirectedSystem._from_checked_laws``
    takes them as they are): one pair ``(odd, even)`` per entry, a
    polynomial on each parity class of ``d``, read off the closed form of
    :func:`kappa`, each class ``(nums, den)``, ascending integer numerators
    over one denominator in lowest terms.  On the finite part the diagonal
    is 1, except 0 on even ``d`` off the empty set, where the entry at the
    empty set's column is 1 instead; the infinite diagonal is
    ``d^(n - |T|)``; the mixing entries are ``(d^n - 1)/2`` on odd ``d``,
    and ``d^n/2``, less ``2^(n-1)`` at the empty set, on even ``d``: the
    mixing laws are numerators over 2, the others over 1.

    >>> diag, cells = kappa_laws(1)
    >>> diag
    ((((1,), 1), ((1,), 1)), (((1,), 1), ((0,), 1)), (((0, 1), 1), ((0, 1), 1)))
    >>> cells[0], cells[1]  # (d - 1)/2 on odd d, d/2 - 1 on even d
    ((1, 0, (((0,), 1), ((1,), 1))), (2, 0, (((-1, 1), 2), ((-2, 1), 2))))
    """
    n = _level_count(n)
    n2, one, zero = 2 ** n, ((1,), 1), ((0,), 1)
    top = (0,) * n + (1,)  # the numerators of d^n / 2
    diag = ((one, one),) + ((one, zero),) * (n2 - 1)
    for k in range(0, n + 1, 2):
        power = ((0,) * (n - k) + (1,), 1)
        diag += ((power, power),) * math.comb(n, k)
    odd = ((-1,) + top[1:], 2)
    cells = [(i, 0, (zero, one)) for i in range(1, n2)]
    cells += [(n2, j, (odd, (top if j else (-n2,) + top[1:], 2))) for j in range(n2)]
    return diag, tuple(cells)


_RANK_ONE_PERMUTATION = (2, 1, 0)


def rank_one_inclusion_matrix(d):
    """The 3x3 inclusion matrix for multiplier ``d`` in the rank-one basis.

    Basis order: the unit class, the halved projection from the generating
    unitary times the sign flip, the halved projection from the sign flip
    ([1], [p_u], [p]); this is the permutation (2, 1, 0) of the internal
    subset order.

    >>> rank_one_inclusion_matrix(2)
    [[2, 1, 0], [0, 0, 1], [0, 0, 1]]
    >>> rank_one_inclusion_matrix(3)
    [[3, 1, 1], [0, 1, 0], [0, 0, 1]]
    """
    dm = kappa(1, d).dense()
    p = _RANK_ONE_PERMUTATION
    return [[dm[p[i]][p[j]] for j in range(3)] for i in range(3)]


def rank_one_system():
    """The rank-one inclusion chain as a symbolic directed system.

    Matrices ``[[2d, d, d-1], [0, 0, 1], [0, 0, 1]]`` in the rank-one basis;
    the step with parameter ``d`` is ``rank_one_inclusion_matrix(2*d)``.
    """
    return DirectedSystem.symbolic(
        3,
        [{"kind": "poly", "coeffs": [0, 2]}, {"kind": "zero"}, {"kind": "identity"}],
        [
            {"row": 0, "col": 1, "kind": "mult_d"},
            {"row": 0, "col": 2, "poly": [-1, 1]},
            {"row": 1, "col": 2, "poly": [1]},
        ],
    )


# ---------------------------------------------------------------------------
# graded K-groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradedKGroup:
    k0: GroupDescriptor
    k1: GroupDescriptor

    def __str__(self):
        return f"K0 = {self.k0}, K1 = {self.k1}"

    def to_json_dict(self):
        return {"k0": self.k0.to_json_dict(), "k1": self.k1.to_json_dict()}


def k_of_B0(n, engine_check=None):
    """K-groups of the level-zero fixed-point subalgebra for an n-level field.

    Exterior classes of degree ``k`` (multiplicity ``C(n, k)``) land in
    ``K_(k mod 2)`` and scale by ``d^(n-k)`` along the chain, so every degree
    below ``n`` becomes divisible and the top degree survives as Z:

    * ``K_j = Q^(2^(n-1))`` for ``j = n + 1 (mod 2)``,
    * ``K_j = Q^(2^(n-1) - 1) + Z`` for ``j = n (mod 2)``.

    The closed form is verified against the colimit engine on the diagonal
    system of the laws ``d^(n-k)``, the infinite diagonal of ``kappa``
    (always for ``n <= 16``; pass ``engine_check=True`` to force it).  The
    two share only those laws: the closed form counts binomials by parity,
    and the engine types each coordinate off its law and proves the rank.
    """
    n = _level_count(n)
    top = GroupDescriptor(free_rank=1, q_rank=2 ** (n - 1) - 1)  # K_(n mod 2)
    rest = GroupDescriptor(q_rank=2 ** (n - 1))
    k0, k1 = (top, rest) if n % 2 == 0 else (rest, top)
    out = GradedKGroup(k0, k1)
    if engine_check is None:
        engine_check = n <= 16
    if engine_check:
        powers = [(((0,) * (n - k) + (1,), 1),) * 2 for k in range(n + 1)]  # d^(n-k), both classes
        for parity, expected in ((0, k0), (1, k1)):
            degrees = _subset_sizes(n, parity)
            system = DirectedSystem._from_checked_laws(len(degrees), [powers[k] for k in degrees])
            got = colimit(system).invariants
            if got != expected:
                raise CrossCheckError(
                    f"fixed-subalgebra closed form disagrees with the colimit "
                    f"engine in degree {parity}: closed {expected}, engine {got}"
                )
    return out


def k_of_A0(n, engine_check=None):
    """K-groups of the level-zero crossed base algebra.

    ``K_1 = 0``; ``K_0`` is the colimit along the structure matrices
    ``kappa(n, d)``: the finite part collapses onto one Z summand, the
    infinite part contributes ``Q`` for every even subset of size below ``n``
    and a further ``Z`` for the top even subset when ``n`` is even:

    * ``n`` odd:  ``K_0 = Z + Q^(2^(n-1))``,
    * ``n`` even: ``K_0 = Z^2 + Q^(2^(n-1) - 1)``.

    Verified against the colimit engine on the full structure-matrix family
    (always for ``n <= 12``; pass ``engine_check=True`` to force it).  The two
    share only ``kappa``'s laws (``kappa_laws``, read off the closed form that
    ``compose`` checks against the blocks): the closed form counts the even
    subsets, and the engine decides the generic laws, with no rule of its
    own for ``kappa``.
    """
    n = _level_count(n)
    if n % 2 == 1:
        k0 = GroupDescriptor(free_rank=1, q_rank=2 ** (n - 1))
    else:
        k0 = GroupDescriptor(free_rank=2, q_rank=2 ** (n - 1) - 1)
    out = GradedKGroup(k0, GroupDescriptor.zero())
    if engine_check is None:
        engine_check = n <= 12
    if engine_check:
        system = DirectedSystem._from_checked_laws(kappa(n, 2).size, *kappa_laws(n))
        got = colimit(system).invariants
        if got != k0:
            raise CrossCheckError(
                "crossed-base closed form disagrees with the colimit engine: "
                f"closed {k0}, engine {got}"
            )
    return out


# ---------------------------------------------------------------------------
# crossed products by a single automorphism (six-term sequence)
# ---------------------------------------------------------------------------


def _as_fraction(x, what):
    """``x`` as a ``Fraction``: the rational rule for block entries from
    outside.  An int (not bool), a ``Fraction``, or a string ``Fraction``
    parses, like ``"1/2"``; anything else, floats included, raises
    ``InputError`` naming ``what``."""
    if isinstance(x, Fraction) or (isinstance(x, int) and not isinstance(x, bool)):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(f"{what} {x!r} is not a rational number")


def _as_fraction_matrix(rows, shape_rows, shape_cols, what):
    """The dense rational matrix ``rows`` as sparse rows of ``Fraction``s."""
    if (not isinstance(rows, (list, tuple)) or len(rows) != shape_rows
            or any(not isinstance(r, (list, tuple)) or len(r) != shape_cols for r in rows)):
        raise InputError(f"{what} must be a {shape_rows}x{shape_cols} matrix")
    return _sparse_rows([[_as_fraction(x, f"{what} entry") for x in row] for row in rows])


@dataclass(frozen=True)
class EndoBlocks:
    """Action of an automorphism on ``Z^a + Q^b (+ torsion)`` in block form.

    ``z_block`` is a unimodular integer a x a matrix, ``q_block`` an
    invertible rational b x b matrix, ``mix`` a rational b x a matrix for the
    component from the free part into the divisible part.  Blocks are tuples
    of sparse rows (``{column: value}``, nonzero entries only), the engine's
    one matrix form: an omitted block is the identity, ``{i: 1}`` in row
    ``i``, or empty rows for ``mix``, so a trivial action costs its
    dimension, not its square.  Torsion summands are carried along unchanged
    (only the identity action on torsion is supported).
    """

    z_block: tuple
    q_block: tuple
    mix: tuple

    @classmethod
    def build(cls, a, b, z=None, q=None, mix=None):
        if z is None:
            z = [{i: 1} for i in range(a)]
        wrong_size = f"free-part block must be {a}x{a}"
        z = _as_int_rows(z, a, wrong_size) if z else []
        if len(z) != a:
            raise InputError(wrong_size)
        if not _is_unimodular(z):
            raise InputError("the free-part block of an automorphism must be unimodular")
        q = ([{i: 1} for i in range(b)] if q is None
             else _as_fraction_matrix(q, b, b, "divisible-part block"))
        if len(_echelon(q)) != b:
            raise InputError("the divisible-part block must be invertible")
        mix = ([{} for _ in range(b)] if mix is None
               else _as_fraction_matrix(mix, b, a, "mix block"))
        return cls(tuple(z), tuple(q), tuple(mix))

    @property
    def is_identity(self):
        """True when the action is the identity, so ``id - act^(-1)`` is zero."""
        return all(row == {i: 1} for m in (self.z_block, self.q_block)
                   for i, row in enumerate(m)) and not any(self.mix)

    def to_json_dict(self):
        a, b = len(self.z_block), len(self.q_block)
        return {
            "z": _dense_rows(self.z_block, a),
            "q": [[str(x) for x in r] for r in _dense_rows(self.q_block, b)],
            "mix": [[str(x) for x in r] for r in _dense_rows(self.mix, a)],
        }


@dataclass(frozen=True)
class ActionDescriptor:
    """A degree-preserving automorphism action on a graded K-group."""

    domain: GradedKGroup
    deg0: EndoBlocks
    deg1: EndoBlocks

    @classmethod
    def build(cls, domain, deg0=None, deg1=None):
        def blocks(desc, given):
            a, b = desc.free_rank, desc.q_rank
            if given is None:
                return EndoBlocks.build(a, b)
            if not isinstance(given, dict):
                raise InputError("an action block must be an object with keys among z, q, mix")
            _check_keys(given, ("z", "q", "mix"), "an action block")
            return EndoBlocks.build(a, b, **given)

        for desc in (domain.k0, domain.k1):
            if desc.loc:
                raise InputError(
                    "automorphism actions on localized summands are not supported"
                )
        return cls(domain, blocks(domain.k0, deg0), blocks(domain.k1, deg1))

    @classmethod
    def from_json(cls, obj):
        if not (isinstance(obj, dict) and isinstance(obj.get("group"), dict)
                and isinstance(obj.get("action"), dict)):
            raise InputError("action JSON needs 'group' and 'action' objects")
        g, act = obj["group"], obj["action"]
        _check_keys(obj, ("group", "action"), "action JSON")
        _check_keys(g, ("k0", "k1"), "the action's 'group'")
        _check_keys(act, ("deg0", "deg1"), "the action's 'action'")
        domain = GradedKGroup(
            GroupDescriptor.from_json_dict(g.get("k0", {})),
            GroupDescriptor.from_json_dict(g.get("k1", {})),
        )
        return cls.build(domain, act.get("deg0"), act.get("deg1"))

    def to_json_dict(self):
        return {
            "group": self.domain.to_json_dict(),
            "action": {"deg0": self.deg0.to_json_dict(), "deg1": self.deg1.to_json_dict()},
        }


def identity_action(domain):
    """The trivial action on a graded K-group."""
    return ActionDescriptor.build(domain)


def involution_action(m):
    """The order-two involution on ``(Z^(2^m), Z^(2^m))`` in normal form.

    In the exterior-algebra normal form the involution acts diagonally with
    alternating signs ``diag(1, -1, 1, -1, ...)`` in both degrees.
    """
    m = _as_int(m, "involution_action m")
    if m < 1:
        raise InputError("involution_action needs an integer m >= 1")
    size = 2 ** m
    diag = [{i: -1 if i % 2 else 1} for i in range(size)]
    domain = GradedKGroup(GroupDescriptor.free(size), GroupDescriptor.free(size))
    blocks = EndoBlocks.build(size, 0, z=diag)
    return ActionDescriptor(domain, blocks, blocks)


@dataclass(frozen=True)
class AmbiguityReport:
    """An extension the six-term step cannot certify as split.

    ``sub`` embeds with quotient ``quot``; the honest answer is the pair,
    not a direct sum.
    """

    sub: GroupDescriptor
    quot: GroupDescriptor
    reason: str

    def to_json_dict(self):
        return {
            "sub": self.sub.to_json_dict(),
            "quot": self.quot.to_json_dict(),
            "reason": self.reason,
        }


def _degree_kernel_cokernel(desc, blocks):
    """(ker, coker) of ``id - act^(-1)`` on ``Z^a + Q^b + torsion``.

    Both are read off ``phi = act - id``: ``id - act^(-1) = act^(-1) phi``
    with ``act^(-1)`` an automorphism, so the two maps have the same kernel,
    and ``act`` maps the cokernel of the one onto the cokernel of the other.

    Supported class: the mix image must land inside the image of the
    divisible block.  Then kernel and cokernel split into blocks: for every
    ``x`` in ``ker(phi_z)`` the divisible coordinates form a coset of
    ``ker(phi_q)``, and the divisible part of the cokernel is the clean
    quotient ``Q^(b - rank phi_q)`` (a divisible subgroup of the cokernel,
    hence a direct summand).
    """
    b = desc.q_rank
    torsion = GroupDescriptor(torsion=desc.torsion)
    # act - id, block by block: subtract e_i from row i
    phi_z, phi_q = ([dict(row) for row in block] for block in (blocks.z_block, blocks.q_block))
    for i, row in itertools.chain(enumerate(phi_z), enumerate(phi_q)):
        _subtract(row, 1, {i: 1})

    # The mix columns lie in the column span of phi_q exactly when rank
    # [phi_q | mix] == rank phi_q: the echelon of [phi_q | mix] has rank phi_q
    # pivots left of column b, and a pivot at b or beyond is a mix column
    # outside that span.
    pivots = _echelon(q | {b + j: x for j, x in m.items()}
                      for q, m in zip(phi_q, blocks.mix))
    if max(pivots, default=-1) >= b:
        raise InputError(
            "unsupported six-term step: the free part mixes into a "
            "direction that survives in the divisible quotient, so "
            "kernel and cokernel are not block sums; refusing to guess"
        )

    # phi_z is square, so its kernel rank is the free rank of its cokernel
    coker_z = _cokernel_rows(phi_z)
    q_null = b - len(pivots)

    ker = GroupDescriptor(free_rank=coker_z.free_rank, q_rank=q_null).direct_sum(torsion)
    coker = coker_z.direct_sum(GroupDescriptor(q_rank=q_null), torsion)
    return ker, coker


_RESOLUTIONS = ("require_split", "elementary_divisors")


@dataclass(frozen=True)
class PVStepResult:
    """Result of one six-term step.

    Per degree: the new K-group sits in an extension with subgroup
    ``coker(id - act^(-1))`` of the same degree and quotient
    ``ker(id - act^(-1))`` of the other degree.  ``k0``/``k1`` hold the
    resolved descriptor, or an :class:`AmbiguityReport` when the chosen
    resolution policy cannot certify the extension split.  The groups are
    found up to isomorphism from ``act - id``, which differs from
    ``id - act^(-1)`` by the automorphism ``act^(-1)``.
    """

    k0: object
    k1: object
    coker0: GroupDescriptor
    ker0: GroupDescriptor
    coker1: GroupDescriptor
    ker1: GroupDescriptor
    resolution: str
    citations: tuple = ("pv-six-term",)

    @property
    def ambiguous(self):
        return isinstance(self.k0, AmbiguityReport) or isinstance(self.k1, AmbiguityReport)

    def graded(self):
        if self.ambiguous:
            raise AmbiguityError(
                "the six-term step left an unresolved extension; rerun with "
                "resolution='elementary_divisors' to force a normal form"
            )
        return GradedKGroup(self.k0, self.k1)

    def to_json_dict(self):
        def side(val, sub, quot):
            return {
                "resolved": None if isinstance(val, AmbiguityReport) else val.to_json_dict(),
                "pretty": None if isinstance(val, AmbiguityReport) else str(val),
                "ambiguity": val.to_json_dict() if isinstance(val, AmbiguityReport) else None,
                "sub": sub.to_json_dict(),
                "quot": quot.to_json_dict(),
            }

        return {
            "k0": side(self.k0, self.coker0, self.ker1),
            "k1": side(self.k1, self.coker1, self.ker0),
            "resolution": self.resolution,
            "citations": list(self.citations),
        }


def _resolve_extension(sub, quot, split):
    if split or quot.is_free or sub.is_divisible or sub.is_trivial or quot.is_trivial:
        return sub.direct_sum(quot)
    return AmbiguityReport(
        sub=sub,
        quot=quot,
        reason=(
            "extension of a non-free quotient by a non-divisible subgroup; "
            "not certified split"
        ),
    )


def pv_step(g, act, resolution="require_split"):
    """One crossed-product-by-a-single-automorphism step on K-groups.

    ``g`` is the graded K-group, which must be the domain of ``act``, the
    automorphism action.  Per degree ``j`` the new group is an extension

        0 -> coker(id - act^(-1) on K_j) -> K_j' -> ker(id - act^(-1) on K_(1-j)) -> 0

    (Pimsner-Voiculescu).  Since ``id - act^(-1) = act^(-1) (act - id)``,
    the kernel and cokernel are computed, up to isomorphism, from ``act - id``.
    The extension is resolved according to ``resolution``:

    * ``require_split`` (default): direct sum only when certified, otherwise
      an AmbiguityReport.  The split is certified by a free quotient, by a
      divisible subgroup, or by an action that is the identity in both
      degrees: that descriptor stands for the trivial automorphism (or one
      homotopic to it through automorphisms), whose crossed product is
      ``A (x) C(T)``, so by the Kuenneth theorem ``K_j' = K_j + K_(1-j)``;
    * ``elementary_divisors``: always the direct sum in invariant-factor
      normal form.

    The sub/quot pairs of both degrees are always exposed on the result.
    """
    if resolution not in _RESOLUTIONS:
        raise InputError(f"unknown resolution {resolution!r} (expected one of {_RESOLUTIONS})")
    if not isinstance(act, ActionDescriptor):
        raise InputError("pv_step needs an ActionDescriptor")
    if g != act.domain:
        raise InputError("the graded group does not match the action's domain")
    ker0, coker0 = _degree_kernel_cokernel(g.k0, act.deg0)
    ker1, coker1 = _degree_kernel_cokernel(g.k1, act.deg1)
    split = resolution == "elementary_divisors" or (
        act.deg0.is_identity and act.deg1.is_identity)
    k0 = _resolve_extension(coker0, ker1, split)
    k1 = _resolve_extension(coker1, ker0, split)
    return PVStepResult(
        k0=k0, k1=k1,
        coker0=coker0, ker0=ker0, coker1=coker1, ker1=ker1,
        resolution=resolution,
    )


def k_of_A_truncated_Q(m):
    """K-groups over the rationals after adjoining the first ``m`` positive
    prime generators: free of rank ``2^(m-1)`` in both degrees.

    Computed by iterated six-term steps from the level-zero base: the first
    adjoined generator acts by ``1/2`` on the divisible part (killing it
    exactly), every further generator acts trivially and doubles the ranks.
    """
    m = _as_int(m, "k_of_A_truncated_Q m")
    if not 1 <= m <= _MAX_TRUNCATE:
        raise InputError(f"k_of_A_truncated_Q needs an integer 1 <= m <= {_MAX_TRUNCATE}")
    g = k_of_A0(1, engine_check=False)  # (Z + Q, 0)
    act = ActionDescriptor.build(g, deg0={"q": [[Fraction(1, 2)]]})  # z: the identity
    g = pv_step(g, act).graded()
    for _ in range(m - 1):
        g = pv_step(g, identity_action(g)).graded()
    expected = GradedKGroup(
        GroupDescriptor.free(2 ** (m - 1)), GroupDescriptor.free(2 ** (m - 1))
    )
    if g != expected:
        raise CrossCheckError(
            f"iterated six-term steps gave {g}, closed form says {expected}"
        )
    return g


# ---------------------------------------------------------------------------
# exterior-algebra classification reports
# ---------------------------------------------------------------------------


def exterior_graded_ranks(r, parity):
    """Rank of the degree-``parity`` part of an exterior algebra on ``r``
    generators: ``sum C(r, k)`` over ``k = parity (mod 2)``.

    >>> [exterior_graded_ranks(4, 0), exterior_graded_ranks(4, 1)]
    [8, 8]
    >>> [exterior_graded_ranks(0, 0), exterior_graded_ranks(0, 1)]
    [1, 0]
    """
    r = _as_int(r, "exterior_graded_ranks r")
    if r < 0:
        raise InputError("exterior_graded_ranks needs an integer r >= 0")
    parity = _as_int(parity, "exterior_graded_ranks parity")
    if parity not in (0, 1):
        raise InputError("parity must be 0 or 1")
    return sum(math.comb(r, k) for k in range(parity, r + 1, 2))


@dataclass(frozen=True)
class KComponent:
    """One graded summand pattern: ``copies`` copies of ``coefficient``
    tensored with the exterior degrees ``k = parity (mod 2)``."""

    coefficient: str  # "Z" or "Z/2"
    copies: int
    parity: int

    def formula(self):
        lam = "Lambda_even(Gamma)" if self.parity == 0 else "Lambda_odd(Gamma)"
        if self.coefficient == "Z":
            base = lam
        else:
            base = f"({self.coefficient}) (x) {lam}"
        return base if self.copies == 1 else f"{base}^{self.copies}"


@dataclass(frozen=True)
class ClassificationReport:
    algebra: str
    case: str
    k0: tuple
    k1: tuple
    grading_offset: int
    truncations: tuple
    citations: tuple
    notes: tuple = ()

    def formula(self, degree):
        comps = self.k0 if degree == 0 else self.k1
        return " + ".join(c.formula() for c in comps) if comps else "0"

    def to_json_dict(self):
        return {
            "algebra": self.algebra,
            "case": self.case,
            "k0": self.formula(0),
            "k1": self.formula(1),
            "components": {"k0": [asdict(c) for c in self.k0],
                           "k1": [asdict(c) for c in self.k1]},
            "truncations": list(self.truncations),
            "grading_offset": self.grading_offset,
            "citations": list(self.citations),
            "notes": list(self.notes),
        }


def _grading_offset(grading_offset, default):
    offset = default if grading_offset is None else _as_int(grading_offset, "grading_offset")
    if offset not in (0, 1):
        raise InputError("grading_offset must be 0 or 1")
    return offset


# Summands ``(coefficient, copies)`` of each case kind of the classification
# theorems; ``_report`` places them in K_0 and K_1.
_CASE_SUMMANDS = {
    "free": (("Z", 1),),
    "two-torsion": (("Z/2", 1),),
    "both": (("Z", 1), ("Z/2", 1)),
    "doubled-free": (("Z", 2),),
}

# Row m of a torsion table lists 2^(m-1) Z/2 entries per degree: at m = 16
# the largest table is 0.26 MB of compact JSON; each further m doubles it.
_MAX_TRUNCATE = 16


def _truncation_rows(k0_comps, k1_comps, truncate):
    if truncate is None:
        return ()
    truncate = _as_int(truncate, "truncate")
    if truncate < 0:
        raise InputError("truncate must be an integer >= 0")
    if truncate > _MAX_TRUNCATE:
        raise InputError(
            f"truncate must be at most {_MAX_TRUNCATE}: row m lists 2^(m-1) "
            f"summands per degree"
        )
    rows = []
    for m in range(truncate + 1):
        row = {"m": m, "torsion": {}}
        for label, comps in (("k0", k0_comps), ("k1", k1_comps)):
            counts = [(c.coefficient, c.copies * exterior_graded_ranks(m, c.parity))
                      for c in comps]
            row[f"{label}_rank"] = sum(n for coef, n in counts if coef == "Z")
            row["torsion"][label] = sum(([int(coef[2:])] * n for coef, n in counts
                                         if coef != "Z"), [])
        rows.append(row)
    return tuple(rows)


def _report(algebra, case, kind, offset, truncate, citations, notes=()):
    """The classification report of one case: exterior degree ``k`` lands in
    ``K_((k + offset) mod 2)``, so ``K_j`` collects the summands of ``kind``
    at parity ``(j - offset) mod 2``; ``truncate`` adds the rank table."""
    k0, k1 = (tuple(KComponent(coefficient, copies, (j - offset) % 2)
                    for coefficient, copies in _CASE_SUMMANDS[kind])
              for j in (0, 1))
    return ClassificationReport(
        algebra=algebra,
        case=case,
        k0=k0,
        k1=k1,
        grading_offset=offset,
        truncations=_truncation_rows(k0, k1, truncate),
        citations=citations,
        notes=tuple(notes),
    )


def classify_B(field, gamma=(), truncate=None, grading_offset=None):
    """Classify the K-theory of the ring C*-algebra of the field's integers.

    Four cases over the real-embedding count ``r1`` and the sign parities of
    the supplied multiplicative generators (``gamma``):

    1. ``r1 = 0``: exterior algebra Lambda(Gamma);
    2. ``r1`` odd, every supplied generator has an even number of negative
       real embeddings: Lambda(Gamma) (relative to the supplied data);
    3. ``r1`` odd, some supplied generator has an odd count: Z/2 tensor
       Lambda(Gamma);
    4. ``r1 >= 2`` even: Z/2 tensor Lambda(Gamma) (no sign data needed).

    With ``r1`` odd and no generators supplied the case split is undecidable
    and an ``InputError`` explains what is missing; so does one for a
    generator that is not a nonzero element of ``field``.  The default grading
    places exterior degree ``k`` in ``K_((k + n) mod 2)``.
    """
    offset = _grading_offset(grading_offset, field.degree % 2)
    parities = []
    notes = []
    for el in gamma:
        if getattr(el, "field", None) is not field:
            raise InputError(f"generator {el!r} is not an element of the field")
        if el.is_zero:
            raise InputError("generators must be nonzero field elements")
        p = field.sign_parity(el)
        parities.append(p)
        notes.append(f"generator {el.as_string()}: sign parity {p:+d}")
    r1 = field.r1
    if r1 == 0:
        case, kind = "no-real-embedding", "free"
    elif r1 % 2 == 1:
        if not parities:
            raise InputError(
                "with an odd number of real embeddings the classification "
                "depends on generator signs; supply at least one generator "
                "(--gamma) to decide the case"
            )
        if all(p == 1 for p in parities):
            case, kind = "odd-reals-even-signs", "free"
            notes.append(
                "case decided relative to the supplied generators: all sign "
                "parities even"
            )
        else:
            case, kind = "odd-reals-odd-sign", "two-torsion"
    else:
        case, kind = "even-reals", "two-torsion"
        if not parities:
            notes.append("generator signs not needed: even real-embedding count")
    return _report("B", case, kind, offset, truncate,
                   ("classification-ring-algebra", "exterior-parity-ranks"), notes)


def classify_A(field, truncate=None, grading_offset=None):
    """Classify the K-theory of the adelic crossed algebra.

    Requires exactly the two roots of unity +-1 (otherwise a
    ``HypothesisError``); then three cases over ``r1``:

    a. ``r1 = 0``: a rank-two trivially graded factor tensor Lambda(Gamma);
    b. ``r1`` odd: Lambda(Gamma);
    c. ``r1 >= 2`` even: Lambda(Gamma) + Z/2 tensor Lambda(Gamma).

    The default grading places exterior degree ``k`` in ``K_(k mod 2)``.
    """
    offset = _grading_offset(grading_offset, 0)
    w = field.roots_of_unity_order
    if w != 2:
        raise HypothesisError(
            f"the adelic classification requires exactly the two roots of "
            f"unity +1 and -1, but this field contains {w} roots of unity"
        )
    r1 = field.r1
    if r1 == 0:
        case, kind = "totally-imaginary-two-roots", "doubled-free"
    elif r1 % 2 == 1:
        case, kind = "odd-real-embeddings", "free"
    else:
        case, kind = "even-real-embeddings", "both"
    return _report("A", case, kind, offset, truncate,
                   ("classification-adelic-algebra", "exterior-parity-ranks"))


def k_full_adele_Q(truncate=None, grading_offset=None):
    """K-theory over the full rational adeles (all places, including the
    archimedean one): a rank-two trivially graded factor tensored with the
    exterior algebra over the positive rationals.

    Truncation to the first ``m`` generators has per-degree free rank
    ``2 * 2^(m-1)``.
    """
    return _report("A_full_Q", "full-rational-adeles", "doubled-free",
                   _grading_offset(grading_offset, 0), truncate,
                   ("full-rational-adele-k",),
                   ("Gamma is generated by the positive rational primes",))
