"""The complete algebraic invariant of a mapping class of the four-holed
sphere, and how it decides right-veering.

**Equality.**  With the boundary fixed, Mod(S_0^4) = Z^4 x F_2: the four
boundary twists span the central Z^4, and T_e, T_f generate a free group
that maps isomorphically onto the level-2 subgroup of PSL(2,Z), which is
Gamma(2)/+-I (Farb-Margalit, *A Primer on Mapping Class Groups*,
Ch. 2-3).  The twist about the curve of slope p/q acts by the matrix
[[1-2pq, 2p^2], [-2q^2, 1+2pq]], with e = 1/0, f = 0/1, g = 1/1 and
h = -1/1; boundary twists act trivially.  That matrix is I + 2N with
N = (p, q)^T (-q, p), and N^2 = 0 gives (I + 2jN)(I + 2kN) = I + 2(j + k)N.
The F_2 factor is read off the product of twist matrices up to sign, and
the Z^4 factor then off the exponent class (the abelianization), so the
pair is a complete invariant.  Both parts are homomorphisms, so
:func:`_invariant` reads them in one checked pass over the unmerged
terms and :func:`equal_in_mcg` costs O(length) integer multiplies.  The
slopes are stated once (:data:`SLOPES`) and checked at import against
the lantern relations alone: both  g e f  and  h f e  must be trivial in
PSL(2,Z) (:func:`_certify_relations`), which fails if g's and h's slopes
are swapped.  The arc engine (:mod:`lanternbook.engine`) certifies the
invariant with these slopes against its geometric action whenever it
builds its model.

**Right-veering by trace.**  Gamma(2) is torsion-free and every trace in
it is 2 mod 4, so the image M of the F_2 part of phi falls in one of
three cases:

* M = I: phi is a product of boundary twists a^r1 b^r2 c^r3 d^r4;
* |tr M| = 2, M != I: phi is reducible, a product of boundary twists and
  T_gamma^m for one essential curve gamma and m != 0;
* |tr M| > 2: phi is pseudo-Anosov.

In the parabolic case, with M negated when tr M = -2,
M - I = 2m [[-pq, p^2], [-q^2, pq]] where p/q is gamma's slope, so
B = b/2 = m p^2 and C = -c/2 = m q^2 give |m| = gcd(|B|, |C|), with the
sign of the first nonzero of B, C, and p^2 = B/m, q^2 = C/m.  Matrices
of Gamma(2) are I mod 2, so the parities of (p, q) name gamma's orbit:
(1, 0) that of e, (0, 1) that of f, (1, 1) that of g and h.  The
boundary exponents r = exponent_class(w).canonical[:4] (the boundary
part of the reduced form) are the boundary twist coefficients c for the
e and f orbits; for the g/h orbit c = r - m (1, 1, 1, 1), because
T_g = a b c d f^-1 e^-1 puts m of each boundary twist into r.

Honda-Kazez-Matic ("Right-veering diffeomorphisms of compact surfaces
with boundary", Invent. Math. 169, 2007) then settle these two cases by
the fractional Dehn twist coefficients, which here are the integers c_k:
a boundary component with c_k > 0 is right-veering and one with c_k < 0
is not.  At c_k = 0, phi restricted to the pair of pants between the
boundary component C_k, its partner C_l and gamma is the twist T_l^c_l,
so an arc from C_k first moves where it meets C_l's collar (left
exactly when c_l < 0, already excluded) or gamma (left exactly when
m < 0).  Hence:

* M = I: right-veering iff min r >= 0;
* parabolic: right-veering iff min c >= 0, and min c > 0 when m < 0.

**Right-veering of a pseudo-Anosov class by its FDTC.**  Write
phi = a^r1 b^r2 c^r3 d^r4 . P, where r is the boundary part of the
reduced form and P its e/f part, with |tr M(P)| > 2.  S_0^4 is the
quotient of the torus T^2 by -I with the four 2-torsion points blown up
to the boundary circles, and each boundary circle is the circle RP^1 of
lines through its point.  M = M(P) is I mod 2, so it fixes every
2-torsion point, and near each of them it acts on RP^1 by the same
projective map.  Lift each twist to the universal cover of RP^1 by the
map that turns every line clockwise by less than a half-turn (pi),
counterclockwise for a left twist: that is the isotopy from the linear
twist to the twist supported away from the boundary.  The composite of
these lifts along P is the boundary behaviour of P, and its translation
number tau(P), counted in clockwise half-turns (:func:`twist_number`),
is P's fractional Dehn twist coefficient at every boundary component.
One half-turn of lines is one full turn of the boundary circle, which is
what a boundary twist adds, so the coefficient of phi at C_k is
c_k = r_k + tau(P).

* tau(P) is an integer: M is hyperbolic, so it fixes a line, and the
  composite lift moves the lifts of that line by a whole number of
  half-turns.
* The count is exact: for a lift F with translation number tau and any
  x, |F^n(x) - x - n tau| < 1 (Ghys, "Groups acting on the circle",
  Enseign. Math. 47, 2001).  :func:`twist_number` follows the
  horizontal line through 5 passes of P and counts its crossings of the
  horizontal line, which differ from its lifted displacement by less
  than 1, so the count differs from 5 tau by less than 2 and rounds
  exactly.  Each step is one term x^k, whose lift I + 2kN fixes the
  line of x's curve and so turns every line by less than a half-turn:
  a line crossed the horizontal one in that step exactly when its image
  must be negated to stay in the upper half-plane.
* g and h are counted by their own twists, one step per term.  By the
  lantern relations  T_g = a b c d T_f^-1 T_e^-1, so the lift of T_g
  and the composite of the lifts of T_f^-1 and T_e^-1 cover the same
  PSL(2,Z) element and differ by a whole number of half-turns.  At g's
  line, which the lift of T_g fixes, the two counterclockwise steps move
  it by more than 0 and less than 2 half-turns, so the difference is
  exactly one clockwise half-turn.  The same holds for h, so tau(P) is
  the count along the word's own twists minus its total g and h
  exponent, which the boundary part r holds instead.
* The rule may read raw terms: the matrix and the sums are
  homomorphisms, and the count depends only on the line's total lifted
  displacement (the lifts of x^j and x^k compose to that of x^(j+k), all
  fixing x's line), so zero exponents and split or cancelling runs do
  not change tau, and the witness search need not reduce the word.

The coefficient formula is the claim the tests check against the
bounded witness search: the smallest right-veering r_k is 1 - tau(P),
on every boundary component.

Honda-Kazez-Matic (op. cit.) prove that a pseudo-Anosov phi is
right-veering iff its fractional Dehn twist coefficient is positive at
every boundary component; here that is min r + tau(P) >= 1.

:func:`coefficients` states the c_k of every class, with gamma's power
m (0 for a product of boundary twists, ``None`` for a pseudo-Anosov
class), and :func:`right_veering` reads its verdict off them: by trace
when |tr M| <= 2, by the FDTC otherwise.
"""

from __future__ import annotations

from math import gcd

from .errors import InvariantViolation, PreconditionError
from .words import (GENERATORS, _checked, _class_of_sums, _not_terms,
                    parse)

SLOPES = {"e": (1, 0), "f": (0, 1), "g": (1, 1), "h": (-1, 1)}
_IDENTITY_MATRIX = (1, 0, 0, 1)
# passes of the word in :func:`twist_number`: the count is within 2 of
# _PASSES * tau, so it rounds exactly from 5 on
_PASSES = 5


def _table(slopes):
    """Each generator's index in GENERATORS and slope (None: a boundary
    twist, which acts trivially), for :func:`_invariant`."""
    return {x: (i, slopes.get(x)) for i, x in enumerate(GENERATORS)}


_TABLE = _table(SLOPES)


def _invariant(slopes, terms):
    """The decision record of the raw terms ``terms``, checked as
    :func:`.words.merge_terms` checks them, in one pass: the slope matrix
    product with its first nonzero entry positive, and the eight exponent
    sums in :data:`GENERATORS` order (``_class_of_sums`` gives the
    canonical class).  Zero exponents, adjacent runs and cancelling runs,
    none merged, give the merged word's answer (module docstring)."""
    table = _TABLE if slopes is SLOPES else _table(slopes)
    sums = [0] * 8
    a, b, c, d = _IDENTITY_MATRIX
    try:
        for letter, k in terms:
            if type(k) is not int or letter not in table:
                _checked(((letter, k),))    # raises merge_terms' refusal
            i, slope = table[letter]
            sums[i] += k
            if slope is not None:
                # M (I + 2kN) = M + 2k (M (p, q)^T) (-q, p)
                p, q = slope
                x, y = 2 * k * (a * p + b * q), 2 * k * (c * p + d * q)
                a, b, c, d = a - x * q, b + x * p, c - y * q, d + y * p
    except PreconditionError:
        raise
    except (TypeError, ValueError) as exc:
        raise _not_terms(exc) from None
    if a < 0 or (a == 0 and b < 0):
        a, b, c, d = -a, -b, -c, -d
    return (a, b, c, d), sums


def _certify_relations(slopes):
    """Raise :class:`InvariantViolation` unless ``slopes`` make both
    lantern relations  g e f = a b c d  and  h f e = a b c d  hold in
    PSL(2,Z), where the boundary twists a b c d act trivially."""
    for relation in ("g e f", "h f e"):
        if _invariant(slopes, parse(relation))[0] != _IDENTITY_MATRIX:
            raise InvariantViolation("lantern relation fails in PSL(2,Z)",
                                     relation=relation, slopes=str(slopes))


_certify_relations(SLOPES)


def _terms(w):
    """Text parsed, or any other iterable of terms as a tuple, unchecked."""
    try:
        return parse(w) if isinstance(w, str) else tuple(w)
    except TypeError as exc:
        raise _not_terms(exc) from None


def equal_in_mcg(w1, w2):
    """Exact equality of two words (text or term tuples) in the mapping
    class group, decided by the complete invariant (twist-matrix product
    up to sign, exponent class) in O(length) integer multiplies; see the
    module docstring."""
    m1, sums1 = _invariant(SLOPES, _terms(w1))
    m2, sums2 = _invariant(SLOPES, _terms(w2))
    return m1 == m2 and _class_of_sums(sums1) == _class_of_sums(sums2)


def _twist_number(terms, sums):
    """:func:`twist_number` of ``terms``, whose exponent sums are ``sums``."""
    steps = [(SLOPES[letter], k) for letter, k in reversed(terms)
             if letter in SLOPES]
    x, y, wraps = 1, 0, 0           # the horizontal line, normalized
    for _ in range(_PASSES):
        for (p, q), k in steps:
            # (I + 2kN)(x, y) with N = (p, q)^T (-q, p): the line moves
            # clockwise for k > 0, counterclockwise for k < 0, by less
            # than a half-turn; it crossed the horizontal line exactly
            # when it must be negated back to y > 0 (or y == 0, x > 0)
            c = 2 * k * (p * y - q * x)
            x, y = x + c * p, y + c * q
            if y < 0 or (y == 0 and x < 0):
                x, y = -x, -y
                wraps += 1 if k > 0 else -1
    return round(wraps / _PASSES) - sums[6] - sums[7]


def twist_number(terms):
    """The translation number tau(P), in clockwise half-turns, of the
    e/f part P of the terms ``terms``: the lift of P's slope matrix to
    the universal cover of RP^1 that composes the lifts of its twists
    (module docstring), g and h counted by their own twists less their
    total exponent.  Exact when P's matrix is hyperbolic."""
    return _twist_number(terms, _invariant(SLOPES, terms)[1])


def _coefficients(terms, record):
    """:func:`coefficients` of ``terms``, whose record is ``record``."""
    (a, b, c, d), sums = record
    r = _class_of_sums(sums)[:4]
    if abs(a + d) > 2:
        tau = _twist_number(terms, sums)
        return tuple([x + tau for x in r]), None
    if b == c == 0:
        return r, 0
    if a + d < 0:
        b, c = -b, -c
    B, C = b // 2, -c // 2
    m = gcd(B, C) if (B or C) > 0 else -gcd(B, C)
    if (B // m) % 2 and (C // m) % 2:       # the orbit of g and h
        r = tuple(x - m for x in r)
    return r, m


def coefficients(terms):
    """The fractional Dehn twist coefficients of the mapping class of the
    terms ``terms``, as ``(c, m)``: ``c`` the 4-tuple of c_k, and ``m``
    the power of gamma's twist for a reducible class, 0 for a product of
    boundary twists, ``None`` for a pseudo-Anosov class.  The formulas
    and their proof sketches are in the module docstring."""
    return _coefficients(terms, _invariant(SLOPES, terms))


def _right_veering(terms, record):
    """:func:`right_veering` of ``terms``, whose record is ``record``."""
    c, m = _coefficients(terms, record)
    if m is None:
        return min(c) >= 1, "FDTC"
    return min(c) >= 0 and (m >= 0 or min(c) > 0), "trace"


def right_veering(terms):
    """Whether the mapping class of the terms ``terms`` is right-veering,
    with the rule that decided it: ``(verdict, "trace")`` for a trivial
    or reducible class (trace +-2), ``(verdict, "FDTC")`` for a
    pseudo-Anosov one, both read off :func:`coefficients`."""
    return _right_veering(terms, _invariant(SLOPES, terms))
