"""The complete algebraic invariant of a mapping class of the four-holed
sphere, and what its trace decides about right-veering.

**Equality.**  With the boundary fixed, Mod(S_0^4) = Z^4 x F_2: the four
boundary twists span the central Z^4, and T_e, T_f generate a free group
that maps isomorphically onto the level-2 subgroup of PSL(2,Z), which is
Gamma(2)/+-I (Farb-Margalit, *A Primer on Mapping Class Groups*,
Ch. 2-3).  The twist about the curve of slope p/q acts by the matrix
[[1-2pq, 2p^2], [-2q^2, 1+2pq]], with e = 1/0, f = 0/1 and g, h = +-1;
boundary twists act trivially.  The F_2 factor is read off the product of
twist matrices up to sign (:func:`_slope_product`), and the Z^4 factor
then off the exponent class (the abelianization), so the pair is a
complete invariant and :func:`equal_in_mcg` costs O(length) integer
multiplies.  Which of +-1 is g's slope is pinned at import by the
lantern relations alone: exactly one assignment makes both  g e f  and
h f e  trivial in PSL(2,Z) (:data:`SLOPES`).  The arc engine
(:mod:`lanternbook.engine`) certifies the pinned invariant against its
geometric action whenever it builds its model.

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

:func:`right_veering_by_trace` returns that answer, or None for a
pseudo-Anosov class.
"""

from __future__ import annotations

from math import gcd

from .errors import InvariantViolation
from .words import _canonical_class, merge_terms, parse

_EF_SLOPES = {"e": (1, 0), "f": (0, 1)}
_GH_SLOPES = ((1, 1), (-1, 1))          # slopes +1 and -1; one is g's
_IDENTITY_MATRIX = (1, 0, 0, 1)
# the two candidate assignments of the slopes +-1 to g and h
SLOPE_CANDIDATES = tuple(dict(_EF_SLOPES, g=g, h=h)
                         for g, h in (_GH_SLOPES, _GH_SLOPES[::-1]))


def _slope_product(slopes, terms):
    """Product of the twist matrices of ``terms`` (leftmost first) as a
    row-major 4-tuple, sign-normalized so the first nonzero entry is
    positive: the image in PSL(2,Z).  The twist about slope p/q is I + 2N
    with N = [[-pq, p^2], [-q^2, pq]] nilpotent, so its k-th power is
    I + 2kN.  Letters without a slope (boundary twists) act trivially."""
    a, b, c, d = _IDENTITY_MATRIX
    for letter, k in terms:
        slope = slopes.get(letter)
        if slope is None:
            continue
        p, q = slope
        x, y = 1 - 2 * k * p * q, 2 * k * p * p
        z, t = -2 * k * q * q, 1 + 2 * k * p * q
        a, b, c, d = a * x + b * z, a * y + b * t, c * x + d * z, c * y + d * t
    return (a, b, c, d) if a > 0 or (a == 0 and b > 0) else (-a, -b, -c, -d)


def _pin_slopes():
    """The one candidate under which  g e f  and  h f e  are trivial in
    PSL(2,Z)."""
    relations = (parse("g e f"), parse("h f e"))
    winners = [slopes for slopes in SLOPE_CANDIDATES
               if all(_slope_product(slopes, w) == _IDENTITY_MATRIX
                      for w in relations)]
    if len(winners) != 1:
        raise InvariantViolation("slope of g not pinned by relations",
                                 winners=str(winners))
    return winners[0]


SLOPES = _pin_slopes()


def _invariant(slopes, terms):
    """The complete invariant of the mapping class of the checked terms
    ``terms``: its image in PSL(2,Z) and its canonical exponent class."""
    return _slope_product(slopes, terms), _canonical_class(terms)


def _terms(w):
    return parse(w) if isinstance(w, str) else merge_terms(w)


def equal_in_mcg(w1, w2):
    """Exact equality of two words (text or term tuples) in the mapping
    class group, decided by the complete invariant (twist-matrix product
    up to sign, exponent class) in O(length) integer multiplies; see the
    module docstring."""
    return _invariant(SLOPES, _terms(w1)) == _invariant(SLOPES, _terms(w2))


def right_veering_by_trace(terms):
    """Whether the mapping class of the checked terms ``terms`` is
    right-veering, when its slope matrix is trivial or parabolic; None
    when it is hyperbolic (pseudo-Anosov).  The rule and its proof sketch
    are in the module docstring."""
    a, b, c, d = _slope_product(SLOPES, terms)
    if abs(a + d) > 2:
        return None
    r = _canonical_class(terms)[:4]
    if b == c == 0:
        return min(r) >= 0
    if a + d < 0:
        b, c = -b, -c
    B, C = b // 2, -c // 2
    m = gcd(B, C) if (B or C) > 0 else -gcd(B, C)
    if (B // m) % 2 and (C // m) % 2:       # the orbit of g and h
        r = tuple(x - m for x in r)
    return min(r) >= 0 and (m > 0 or min(r) > 0)
