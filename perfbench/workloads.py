"""The four workloads: seeded plain-data operations and their known answers.

Each workload builds one *pass*: a list of operations whose kinds and sizes
are the same for every seed; the seed picks the values (matrices, laws,
conjugators, elements, primes) and the order.  ``ringkt`` only ever sees the
plain data (ints, strings, JSON-shaped dicts), and every operation builds its
own objects, so the per-object caches (``DirectedSystem._analysis_cache``,
``NumberField._w``) never turn a repeat into a lookup.  Cache reuse is
measured only by the ``identified_cached`` kind.

An operation is ``Op(kind, args, expect)``.  ``prepare`` (untimed) may build
state, ``run`` is the timed call, and ``check`` compares the result with
``expect``, which comes from the generator's construction, the field table
or the helpers in ``oracle``, never from the code under test.
"""

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import oracle


@dataclass
class Op:
    kind: str
    args: object
    expect: object = None


class Mismatch(Exception):
    """An operation returned a wrong answer."""


def _want(cond, what):
    if not cond:
        raise Mismatch(what)


def _desc(g):
    return (g.free_rank, g.q_rank, g.loc, g.torsion)


def _expect_desc(got, want, what):
    _want(_desc(got) == want, f"{what}: got {_desc(got)}, expected {want}")


def _json_desc(obj):
    """A descriptor printed by the CLI, in the form of ``_desc``."""
    return (obj["free"], obj["q"], tuple(tuple(s) for s in obj["loc"]), tuple(obj["torsion"]))


def b0_groups(n):
    """(K0, K1) of the level-zero fixed-point subalgebra: Q^(2^(n-1)) in
    degree n + 1 and Z + Q^(2^(n-1) - 1) in degree n (mod 2)."""
    half = 2 ** (n - 1)
    top = (1, half - 1, (), ())
    rest = (0, half, (), ())
    return (top, rest) if n % 2 == 0 else (rest, top)


def a0_groups(n):
    """(K0, K1) of the level-zero crossed base algebra: K0 = Z + Q^(2^(n-1))
    for odd n, Z^2 + Q^(2^(n-1) - 1) for even n; K1 = 0."""
    half = 2 ** (n - 1)
    k0 = (1, half, (), ()) if n % 2 else (2, half - 1, (), ())
    return k0, (0, 0, (), ())


# ---------------------------------------------------------------------------
# generators shared by several workloads
# ---------------------------------------------------------------------------

_LOC_CONSTANTS = {2: (2,), 3: (3,), 5: (5,), 6: (2, 3), 10: (2, 5), -2: (2,), -3: (3,)}


def triangular_system(rng, dim):
    """A symbolic system in the engine's triangular class and its colimit.

    Every coordinate gets a monomial scaling law of one type: ``Q`` (grows
    with d), ``Z`` (unit constant), ``Loc`` (constant c, inverting the primes
    of c) or ``dead`` (zero).  Off-diagonal feeds follow a seeded order, so
    the pattern is acyclic, and run only into ``Q`` coordinates or out of
    ``Z`` ones, so every filtration is split.  The colimit is then the sum of
    the coordinate types.
    """
    types = [rng.choice(("Q", "Q", "Z", "Loc", "dead")) for _ in range(dim)]
    laws = []
    loc = []
    for t in types:
        if t == "Q":
            laws.append(rng.choice((
                {"kind": "mult_d"},
                {"kind": "diag_power", "exp": 2},
                {"kind": "poly", "coeffs": [0, rng.choice((-3, -2, -1, 2, 3))]},
            )))
        elif t == "Z":
            laws.append(rng.choice(({"kind": "identity"}, {"kind": "poly", "coeffs": [-1]})))
        elif t == "Loc":
            c = rng.choice(sorted(_LOC_CONSTANTS))
            laws.append({"kind": "poly", "coeffs": [c]})
            loc.append(_LOC_CONSTANTS[c])
        else:
            laws.append({"kind": "zero"})
    order = rng.sample(range(dim), dim)
    pos = {c: k for k, c in enumerate(order)}
    offdiag = []
    for i in range(dim):
        for j in range(dim):
            if pos[i] < pos[j] and (types[i] == "Q" or types[j] == "Z") and rng.random() < 0.4:
                coeffs = [0, 0]
                while coeffs == [0, 0]:
                    coeffs = [rng.randint(-2, 2), rng.randint(-2, 2)]
                offdiag.append({"row": i, "col": j, "poly": coeffs})
    system = {"mode": "symbolic", "dim": dim, "law": laws, "offdiag": offdiag}
    expect = (types.count("Z"), types.count("Q"), tuple(sorted(loc)), ())
    return system, expect


def _rank_one_step(d, v):
    a, b, c = v
    return [2 * d * a + d * b + (d - 1) * c, c, c]


def _push(level, vec, target):
    for t in range(level, target):
        vec = _rank_one_step(t + 1, vec)
    return vec


def _agree(la, va, lb, vb):
    """Step t maps (a, b, c) to (2d a + d b + (d-1) c, c, c) with d = t + 1,
    so two elements at a common level agree in the colimit exactly when their
    difference is (x, -2x, 0) for some integer x."""
    delta = [x - y for x, y in zip(_push(la, va, lb), vb)]
    return delta[2] == 0 and delta[1] == -2 * delta[0]


def rank_one_query(rng, same):
    """Two level/vector elements of the rank-one chain that agree in the
    colimit exactly when ``same`` is true."""
    la = rng.randint(1, 3)
    lb = rng.randint(la, 3)
    va = [rng.randint(-3, 3) for _ in range(3)]
    while True:
        if same:
            t = rng.randint(-2, 2)
            vb = [x + t * y for x, y in zip(_push(la, va, lb), (1, -2, 0))]
        else:
            vb = [rng.randint(-3, 3) for _ in range(3)]
        if _agree(la, va, lb, vb) == same:
            return (la, tuple(va)), (lb, tuple(vb))


# Automorphism blocks: matrix, kernel rank of id - act^-1, free rank and
# torsion of its cokernel.
_BLOCKS = {
    "id": ([[1]], 1, 1, ()),
    "neg": ([[-1]], 0, 0, (2,)),
    "swap": ([[0, 1], [1, 0]], 1, 1, ()),
    "rot4": ([[0, -1], [1, 0]], 0, 0, (2,)),
    "rot3": ([[0, -1], [1, -1]], 0, 0, (3,)),
    "rot6": ([[1, -1], [1, 0]], 0, 0, ()),
}
_Q_SCALARS = ("1", "1/2", "3", "-1", "2/3", "-5/2")


def _conjugate(rng, mat):
    n = len(mat)
    if n == 0:
        return mat
    p, p_inv = oracle.unimodular_pair(rng, n, 3 * n)
    return oracle.matmul(oracle.matmul(p, mat), p_inv)


def _degree_action(rng, a, b):
    """Seeded blocks for one degree: (JSON action, ker, coker) of id - act^-1."""
    z = [[0] * a for _ in range(a)]
    ker_free = coker_free = 0
    torsion = []
    at = 0
    while at < a:
        names = [k for k, v in _BLOCKS.items() if len(v[0]) <= a - at]
        block, kf, cf, tors = _BLOCKS[rng.choice(names)]
        for i, row in enumerate(block):
            for j, x in enumerate(row):
                z[at + i][at + j] = x
        at += len(block)
        ker_free += kf
        coker_free += cf
        torsion.extend(tors)
    scalars = [rng.choice(_Q_SCALARS) for _ in range(b)]
    q = [[Fraction(s) if i == j else Fraction(0) for j in range(b)] for i, s in enumerate(scalars)]
    q_null = scalars.count("1")
    action = {"z": _conjugate(rng, z), "q": [[str(x) for x in row] for row in _conjugate(rng, q)]}
    ker = (ker_free, q_null, (), ())
    coker = (coker_free, q_null, (), oracle.invariant_chain(torsion))
    return action, ker, coker


def pv_system(rng, a0, b0, a1, b1):
    """A conjugated block action (JSON) with its known six-term answer."""
    act0, ker0, coker0 = _degree_action(rng, a0, b0)
    act1, ker1, coker1 = _degree_action(rng, a1, b1)
    resolution = "require_split" if ker0[1] == ker1[1] == 0 else "elementary_divisors"

    def ext(sub, quot):
        return (sub[0] + quot[0], sub[1] + quot[1], (), oracle.invariant_chain(sub[3] + quot[3]))

    doc = {
        "group": {"k0": {"free": a0, "q": b0}, "k1": {"free": a1, "q": b1}},
        "action": {"deg0": act0, "deg1": act1},
    }
    expect = {"ker0": ker0, "coker0": coker0, "ker1": ker1, "coker1": coker1,
              "k0": ext(coker0, ker1), "k1": ext(coker1, ker0)}
    return doc, resolution, expect


def udv_matrix(rng, side, zeros, pq_bits=None):
    """U.D.V for seeded unimodular U, V and a known diagonal chain D.

    With ``pq_bits`` the last nonzero entry carries p*q for two seeded primes
    of that bit size, drawn from [2^b, 2^b + 2^(b-4)) so the cost of factoring
    it stays the same for every seed.
    """
    chain = []
    cur = 1
    for _ in range(side - zeros):
        f = rng.choice((1, 1, 2, 3, 5))
        if cur * f <= 3600:
            cur *= f
        chain.append(cur)
    if pq_bits:
        lo = 2 ** pq_bits
        hi = lo + 2 ** (pq_bits - 4)
        p = oracle.prime_in_window(rng, lo, hi)
        q = oracle.prime_in_window(rng, lo, hi, avoid=(p,))
        chain[-1] *= p * q
    diag = chain + [0] * zeros
    d = [[diag[i] if i == j else 0 for j in range(side)] for i in range(side)]
    u, _ = oracle.unimodular_pair(rng, side, 2 * side)
    v, _ = oracle.unimodular_pair(rng, side, 2 * side)
    a = oracle.matmul(oracle.matmul(u, d), v)
    return a, diag


def check_snf(a, u, d, v, diag=None):
    m, n = len(a), len(a[0])
    _want(len(u) == m and all(len(r) == m for r in u), "u has the wrong shape")
    _want(len(v) == n and all(len(r) == n for r in v), "v has the wrong shape")
    _want(len(d) == m and all(len(r) == n for r in d), "d has the wrong shape")
    _want(all(d[i][j] == 0 for i in range(m) for j in range(n) if i != j), "d is not diagonal")
    got = [d[i][i] for i in range(min(m, n))]
    _want(all(x >= 0 for x in got), "negative diagonal entry")
    for x, y in zip(got, got[1:]):
        _want((y == 0) if x == 0 else (y % x == 0), "diagonal is not a divisibility chain")
    if diag is not None:
        _want(got == diag, f"diagonal {got} differs from the constructed chain {diag}")
    dv = [[d[i][i] * x for x in v[i]] if i < min(m, n) else [0] * n for i in range(m)]
    _want(oracle.matmul(u, dv) == a, "u.d.v does not reproduce a")


# ---------------------------------------------------------------------------
# field table: signature and roots of unity known independently
# ---------------------------------------------------------------------------

def _coeffs(text):
    """Ascending coefficients of the table's 'x^n + ...' strings."""
    out = {}
    for term in text.replace(" ", "").replace("-", "+-").split("+"):
        if not term:
            continue
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        if "x" not in term:
            out[0] = out.get(0, 0) + sign * int(term)
            continue
        coef, _, power = term.partition("x")
        exp = int(power[1:]) if power.startswith("^") else 1
        out[exp] = out.get(exp, 0) + sign * (int(coef) if coef else 1)
    return [out.get(i, 0) for i in range(max(out) + 1)]


@dataclass(frozen=True)
class Field:
    poly: str
    r1: int
    r2: int
    w: int

    @property
    def coeffs(self):
        return _coeffs(self.poly)

    @property
    def degree(self):
        return self.r1 + 2 * self.r2

    def summary(self):
        """The keys of ``NumberField.to_json_dict`` the table determines."""
        return {"coeffs": self.coeffs, "degree": self.degree, "signature": [self.r1, self.r2],
                "roots_of_unity_order": self.w, "unit_rank": self.r1 + self.r2 - 1}


# Cyclotomic Phi_m: totally imaginary, w = lcm(2, m).
CYCLOTOMIC = [
    Field("x^2 + 1", 0, 1, 4),
    Field("x^2 + x + 1", 0, 1, 6),
    Field("x^4 + 1", 0, 2, 8),
    Field("x^4 + x^3 + x^2 + x + 1", 0, 2, 10),
    Field("x^4 - x^2 + 1", 0, 2, 12),
    Field("x^6 + x^3 + 1", 0, 3, 18),
    Field("x^6 + x^5 + x^4 + x^3 + x^2 + x + 1", 0, 3, 14),
    Field("x^8 + 1", 0, 4, 16),
]
# Totally real fields (w = 2); the quadratic one is drawn per seed.
TOTALLY_REAL = [
    Field("x^3 - 3x + 1", 3, 0, 2),
    Field("x^3 - x^2 - 2x + 1", 3, 0, 2),
    Field("x^4 - 4x^2 + 2", 4, 0, 2),
]
SQUAREFREE = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30, 31,
              33, 34, 35, 37, 38, 39, 41, 42, 43, 46, 47)
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def pure_field(n, p):
    """x^n - p for a prime p (Eisenstein): one real root for odd n, two for even."""
    r1 = 1 if n % 2 else 2
    return Field(f"x^{n} - {p}", r1, (n - r1) // 2, 2)


def real_quadratic(d):
    return Field(f"x^2 - {d}", 2, 0, 2)


def imaginary_quadratic(d):
    """x^2 + d for squarefree d > 3: only the roots of unity +-1."""
    return Field(f"x^2 + {d}", 0, 1, 2)


def field_table(rng):
    """The fields of one pass: fixed cyclotomic and totally real ones, plus
    seeded pure, real quadratic and imaginary quadratic fields."""
    primes = rng.sample(SMALL_PRIMES, 5)
    dees = rng.sample(SQUAREFREE, 2)
    imag = rng.sample([d for d in SQUAREFREE if d > 3], 2)
    pure = [pure_field(n, p) for n, p in zip((3, 3, 4, 5, 6), primes)]
    return (CYCLOTOMIC + TOTALLY_REAL + pure
            + [real_quadratic(d) for d in dees] + [imaginary_quadratic(d) for d in imag])


def _element(rng, field):
    """Seeded nonzero integer element on the power basis."""
    while True:
        el = [rng.randint(-5, 5) for _ in range(field.degree)]
        if any(el):
            return el


def _norm_sign(field, el):
    n = oracle.field_norm(field.coeffs, el)
    return 1 if n > 0 else -1


def classify_b_case(field, gamma_signs):
    if field.r1 == 0:
        return "no-real-embedding"
    if field.r1 % 2 == 0:
        return "even-reals"
    return "odd-reals-even-signs" if all(s > 0 for s in gamma_signs) else "odd-reals-odd-sign"


def classify_a_case(field):
    if field.r1 == 0:
        return "totally-imaginary-two-roots"
    return "odd-real-embeddings" if field.r1 % 2 else "even-real-embeddings"


# ---------------------------------------------------------------------------
# engine: the colimit engine in abgrp, fed by ktheory
# ---------------------------------------------------------------------------


class InProcess:
    """A workload whose operations run in the benchmark process."""

    def __init__(self, ringkt):
        self.rk = ringkt

    def prepare(self, op):
        return None


class Engine(InProcess):
    @staticmethod
    def make_pass(rng):
        ops = []
        for n in (3, 4, 5, 6):
            ops.append(Op("k_of_B0", n, b0_groups(n)))
        for n in (2, 3, 4, 5):
            ops.append(Op("k_of_A0", n, a0_groups(n)))
        for dim in range(3, 13):
            system, expect = triangular_system(rng, dim)
            ops.append(Op("colimit", system, expect))
        for kind in ("identified", "identified_cached"):
            for same in (True, False) * 6:
                ops.append(Op(kind, rank_one_query(rng, same), same))
        rng.shuffle(ops)
        return ops

    def prepare(self, op):
        if op.kind == "identified_cached":
            system = self.rk.ktheory.rank_one_system()
            self.rk.abgrp.colimit(system)
            return system
        return None

    def run(self, op, state):
        kt, ab = self.rk.ktheory, self.rk.abgrp
        if op.kind == "k_of_B0":
            return kt.k_of_B0(op.args, engine_check=True)
        if op.kind == "k_of_A0":
            return kt.k_of_A0(op.args, engine_check=True)
        if op.kind == "colimit":
            return ab.colimit(ab.DirectedSystem.from_json(op.args))
        a, b = op.args
        if op.kind == "identified":
            return ab.identified(kt.rank_one_system(), a, b)
        return ab.identified(state, a, b)

    def check(self, op, result):
        if op.kind in ("k_of_B0", "k_of_A0"):
            _expect_desc(result.k0, op.expect[0], f"{op.kind}({op.args}) K0")
            _expect_desc(result.k1, op.expect[1], f"{op.kind}({op.args}) K1")
        elif op.kind == "colimit":
            _want(not result.truncated, "colimit came back truncated")
            _expect_desc(result.invariants, op.expect, f"colimit of a dim-{op.args['dim']} system")
            free, q, loc, _ = op.expect
            _want(result.rank == free + q + len(loc), "colimit rank differs from the survivors")
        else:
            _want(result is op.expect, f"{op.kind}{op.args} gave {result}, expected {op.expect}")


# ---------------------------------------------------------------------------
# lattice: six-term steps in ktheory, small dense eliminations in abgrp
# ---------------------------------------------------------------------------

PQ_BITS = 20


class Lattice(InProcess):
    @staticmethod
    def make_pass(rng):
        ops = []
        for a0, b0, a1, b1 in ((2, 0, 3, 0), (4, 1, 2, 0), (6, 0, 4, 2), (8, 2, 6, 0),
                               (10, 0, 8, 1), (12, 3, 10, 0), (6, 1, 12, 0), (8, 0, 8, 3)):
            doc, resolution, expect = pv_system(rng, a0, b0, a1, b1)
            ops.append(Op("pv_step", (doc, resolution), expect))
        for m in range(2, 7):
            half = 2 ** (m - 1)
            coker = (half, 0, (), (2,) * half)
            ops.append(Op("involution", m, {
                "ker0": (half, 0, (), ()), "coker0": coker,
                "ker1": (half, 0, (), ()), "coker1": coker,
                "k0": (2 ** m, 0, (), (2,) * half), "k1": (2 ** m, 0, (), (2,) * half),
            }))
        for m in range(5, 10):
            free = (2 ** (m - 1), 0, (), ())
            ops.append(Op("k_of_A_truncated_Q", m, (free, free)))
        for side in (10, 20, 30, 40, 40):
            a = [[rng.randint(-50, 50) for _ in range(side)] for _ in range(side)]
            ops.append(Op("smith_normal_form", a))
        for side, zeros, bits in ((6, 1, None), (8, 0, PQ_BITS), (10, 1, None), (12, 0, PQ_BITS)):
            a, diag = udv_matrix(rng, side, zeros, bits)
            ops.append(Op("cokernel", a, (zeros, 0, (), tuple(x for x in diag if x > 1))))
        rng.shuffle(ops)
        return ops

    def run(self, op, state):
        kt, ab = self.rk.ktheory, self.rk.abgrp
        if op.kind == "pv_step":
            doc, resolution = op.args
            act = kt.ActionDescriptor.from_json(doc)
            return kt.pv_step(act.domain, act, resolution=resolution)
        if op.kind == "involution":
            act = kt.involution_action(op.args)
            return kt.pv_step(act.domain, act, resolution="elementary_divisors")
        if op.kind == "k_of_A_truncated_Q":
            return kt.k_of_A_truncated_Q(op.args)
        if op.kind == "smith_normal_form":
            return ab.smith_normal_form(op.args)
        return ab.cokernel(op.args)

    def check(self, op, result):
        if op.kind in ("pv_step", "involution"):
            for key, want in op.expect.items():
                _expect_desc(getattr(result, key), want, f"{op.kind} {key}")
        elif op.kind == "k_of_A_truncated_Q":
            _expect_desc(result.k0, op.expect[0], f"k_of_A_truncated_Q({op.args}) K0")
            _expect_desc(result.k1, op.expect[1], f"k_of_A_truncated_Q({op.args}) K1")
        elif op.kind == "smith_normal_form":
            check_snf(op.args, *result)
        else:
            _expect_desc(result, op.expect, "cokernel of U.D.V")


# ---------------------------------------------------------------------------
# fields: numfield and its sympy calls, and the classify_* reports
# ---------------------------------------------------------------------------


class Fields(InProcess):
    @staticmethod
    def make_pass(rng):
        table = field_table(rng)
        ops = []
        for f in table:
            ops.append(Op("parse_field", f.poly, f))
            ops.append(Op("roots_of_unity_order", f.poly, f))
        for f in table:
            if f.degree <= 4:
                ops.append(Op("to_json_dict", f.poly, f))
        real = [f for f in table if f.r1]
        for f in real:
            el = _element(rng, f)
            want = None
            if f.degree == 2:
                d = -f.coeffs[0]
                want = (oracle.sign_of_sqrt_form(el[0], -el[1], d),
                        oracle.sign_of_sqrt_form(el[0], el[1], d))
            ops.append(Op("real_sign_vector", (f.poly, el), (f, _norm_sign(f, el), want)))
        for d in rng.sample(SQUAREFREE, 4):
            ops.append(Op("fundamental_unit_real_quadratic", real_quadratic(d).poly, d))
        small = [f for f in table if f.degree <= 3]
        for f in rng.sample(small, 4):
            d = rng.choice((2, 3, 5, 7))
            style = rng.choice(("standard", "centered")) if d % 2 else "standard"
            ops.append(Op("residue_system", (f.poly, d, style), f.degree))
        for f in table:
            if f.w == 2 or f.degree == 2:
                ops.append(Op("classify_A", f.poly, f))
        for f in table:
            gamma = [_element(rng, f)] if f.r1 % 2 else []
            signs = [_norm_sign(f, el) for el in gamma]
            ops.append(Op("classify_B", (f.poly, gamma), classify_b_case(f, signs)))
        rng.shuffle(ops)
        return ops

    def run(self, op, state):
        nf, kt = self.rk.numfield, self.rk.ktheory
        if op.kind == "parse_field":
            return nf.parse_field(op.args)
        if op.kind == "roots_of_unity_order":
            return nf.parse_field(op.args).roots_of_unity_order
        if op.kind == "to_json_dict":
            return nf.parse_field(op.args).to_json_dict()
        if op.kind == "real_sign_vector":
            poly, el = op.args
            field = nf.parse_field(poly)
            return field.real_sign_vector(field.element(el))
        if op.kind == "fundamental_unit_real_quadratic":
            return nf.fundamental_unit_real_quadratic(nf.parse_field(op.args)).coeffs
        if op.kind == "residue_system":
            poly, d, style = op.args
            return nf.parse_field(poly).residue_system(d, style)
        if op.kind == "classify_A":
            try:
                return kt.classify_A(nf.parse_field(op.args))
            except self.rk.errors.HypothesisError as exc:
                return exc
        poly, gamma = op.args
        field = nf.parse_field(poly)
        return kt.classify_B(field, [field.element(el) for el in gamma])

    def check(self, op, result):
        kind = op.kind
        if kind == "parse_field":
            f = op.expect
            _want(list(result.coeffs) == f.coeffs and result.degree == f.degree,
                  f"parse_field({f.poly}) coefficients")
            _want((result.r1, result.r2) == (f.r1, f.r2), f"signature of {f.poly}")
        elif kind == "roots_of_unity_order":
            _want(result == op.expect.w, f"w({op.args}) = {result}, expected {op.expect.w}")
        elif kind == "to_json_dict":
            want = op.expect.summary()
            got = {k: result[k] for k in want}
            _want(got == want, f"to_json_dict({op.args}) = {got}")
        elif kind == "real_sign_vector":
            f, norm_sign, exact = op.expect
            _want(len(result) == f.r1, f"sign vector length for {f.poly}")
            _want(math.prod(result) == norm_sign, f"sign product differs from the norm sign in {f.poly}")
            _want(exact is None or tuple(result) == exact, f"sign vector {result} != {exact}")
        elif kind == "fundamental_unit_real_quadratic":
            d = op.expect
            _want(all(c.denominator == 1 for c in result), "unit has non-integral coordinates")
            p, q = int(result[0]), int(result[1])
            _want(p > 0 and q > 0 and p * p - d * q * q in (1, -1),
                  f"{p} + {q} sqrt({d}) is not a unit of norm +-1")
            for smaller in range(1, min(q, 2000)):
                for s in (-1, 1):
                    r = d * smaller * smaller + s
                    _want(r < 0 or math.isqrt(r) ** 2 != r, f"a smaller unit exists for {d}")
        elif kind == "residue_system":
            _, d, style = op.args
            digits = range(d) if style == "standard" else range(-(d // 2), d // 2 + 1)
            want = list(itertools.product(digits, repeat=op.expect))
            _want([tuple(r) for r in result] == want, f"residue system mod {d} ({style})")
        elif kind == "classify_A":
            f = op.expect
            if f.w != 2:
                _want(isinstance(result, self.rk.errors.HypothesisError),
                      f"classify_A({f.poly}) should refuse: w = {f.w}")
            else:
                _want(result.case == classify_a_case(f), f"classify_A({f.poly}) case {result.case}")
        else:
            _want(result.case == op.expect, f"classify_B({op.args[0]}) case {result.case}")


# ---------------------------------------------------------------------------
# cli: fresh `python -m ringkt.cli` processes
# ---------------------------------------------------------------------------

VERIFY_CHECKS = 20  # PASS lines of `verify --suite all`: 7 + 5 + 4 + 4


class Cli:
    """Each operation is one verb in a fresh interpreter; ``run`` lives in
    ``run.py`` because it owns the child processes.  Inputs that are files
    (systems, actions) are written by ``materialize`` into a work directory.
    """

    @staticmethod
    def make_pass(rng):
        ops = []
        quad = real_quadratic(rng.choice(SQUAREFREE))
        cyclo = rng.choice([f for f in CYCLOTOMIC if f.degree == 4])
        cubic = pure_field(3, rng.choice(SMALL_PRIMES))
        for f in (quad, cyclo, cubic):
            ops.append(Op("field-info", ["field-info", "--field", f.poly], f))
        for algebra, n, groups in (("B0", 3, b0_groups(3)), ("A0", 2, a0_groups(2))):
            base = pure_field(n, rng.choice(SMALL_PRIMES))
            ops.append(Op(f"kgroups-{algebra}",
                          ["kgroups", "--algebra", algebra, "--field", base.poly], groups))
        el = _element(rng, cubic)
        ops.append(Op("kgroups-B", ["kgroups", "--algebra", "B", "--field", cubic.poly,
                                    "--gamma=" + ",".join(map(str, el))],
                      classify_b_case(cubic, [_norm_sign(cubic, el)])))
        ops.append(Op("kgroups-A", ["kgroups", "--algebra", "A", "--field", quad.poly],
                      classify_a_case(quad)))
        ops.append(Op("kgroups-A_full_Q", ["kgroups", "--algebra", "A_full_Q", "--truncate", "3"], 3))
        ops.append(Op("colim", ["colim", "--system", "rank-one"], (1, 1, (), ())))
        system, expect = triangular_system(rng, 5)
        ops.append(Op("colim", ["colim", "--system", ("json", system)], expect))
        doc, resolution, expect = pv_system(rng, 3, 1, 3, 0)
        ops.append(Op("pv", ["pv", "--system", ("json", doc), "--resolution", resolution], expect))
        a, diag = udv_matrix(rng, 8, 1)
        ops.append(Op("snf", ["snf", "--matrix", json.dumps(a, separators=(",", ":"))], (a, diag)))
        ops.append(Op("verify", ["verify", "--suite", "all"], VERIFY_CHECKS))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def materialize(ops, workdir, tag):
        """Write JSON inputs to files named after ``tag``; returns the ops
        with their arguments turned into the argv of the verb."""
        out = []
        for k, op in enumerate(ops):
            argv = []
            for arg in op.args:
                if isinstance(arg, tuple):
                    path = workdir / f"input{tag}_{k}.json"
                    path.write_text(json.dumps(arg[1]))
                    arg = str(path)
                argv.append(arg)
            out.append(Op(op.kind, argv, op.expect))
        return out

    @staticmethod
    def check(op, result):
        code, out = result
        _want(code == 0, f"`ringkt {' '.join(op.args[:2])}` exited with {code}")
        text = out.decode()
        if op.kind == "verify":
            lines = text.splitlines()
            _want(len(lines) == op.expect and all(l.startswith("PASS ") for l in lines),
                  "verify did not pass every check")
            return
        obj = json.loads(text)
        if op.kind == "field-info":
            f = op.expect
            want = f.summary()
            _want({k: obj[k] for k in want} == want, f"field-info {f.poly}")
            if f.degree == 2 and f.r1 == 2:
                p, q = (int(Fraction(c)) for c in obj["fundamental_unit"])
                _want(p * p + f.coeffs[0] * q * q in (1, -1), "fundamental unit norm")
        elif op.kind in ("kgroups-B0", "kgroups-A0"):
            got = (_json_desc(obj["kgroups"]["k0"]), _json_desc(obj["kgroups"]["k1"]))
            _want(got == op.expect, f"{op.kind} gave {got}, expected {op.expect}")
        elif op.kind in ("kgroups-B", "kgroups-A"):
            _want(obj["case"] == op.expect, f"{op.kind} case {obj['case']}")
        elif op.kind == "kgroups-A_full_Q":
            rows = obj["truncations"]
            want = [(m, 2 ** m if m else 2, 2 ** m if m else 0) for m in range(op.expect + 1)]
            got = [(r["m"], r["k0_rank"], r["k1_rank"]) for r in rows]
            _want(got == want, f"A_full_Q truncations {got}")
        elif op.kind == "colim":
            got = _json_desc(obj["invariants"])
            _want(got == op.expect and not obj["truncated"], f"colim gave {got}")
        elif op.kind == "pv":
            for key in ("k0", "k1"):
                got = _json_desc(obj[key]["resolved"])
                _want(got == op.expect[key], f"pv {key} = {got}, expected {op.expect[key]}")
        elif op.kind == "snf":
            a, diag = op.expect
            check_snf(a, obj["u"], obj["d"], obj["v"], diag)
            tors = [x for x in diag if x > 1]
            zeros = diag.count(0)
            _want(obj["cokernel"] == {"free": zeros, "q": 0, "loc": [], "torsion": tors},
                  "snf cokernel")
            _want(obj["kernel_rank"] == zeros, "snf kernel rank")


WORKLOADS = {"engine": Engine, "lattice": Lattice, "fields": Fields, "cli": Cli}


def make_passes(name, seed, count):
    """The inputs of ``count`` passes of workload ``name``.

    Every pass draws fresh values, so a run's figures average over ``count``
    seeded inputs of each kind and size instead of repeating one (a single
    dense 40 x 40 Smith form, say, costs 10% more or less than the next).
    """
    make = WORKLOADS[name].make_pass
    first = make(random.Random(f"{name}:{seed}"))
    return [first] + [make(random.Random(f"{name}:{seed}:inputs{k}")) for k in range(1, count)]
