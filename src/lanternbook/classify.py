"""Contact-geometric classification of reduced monodromies.

The supported compatible contact structure of an open book with
monodromy  a^{r1} b^{r2} c^{r3} d^{r4} e^{m_1} f^{n_1} ... e^{m_s} f^{n_s}
is decided, where the exponents allow, by arithmetic rules:

Holomorphically fillable (each gives a positive factorization; the
rules are evaluated by ``lantern._h_rule``):
  H1  s = 1, max{m1, n1} >= 0, min{r_k} >= max{-m1, -n1, 0}
  H2  s = 1, m1 < 0, n1 < 0, max{m1, n1} = -1, min{r_k} >= -m1 - n1 - 1
  H3  s = 1, m1 < 0, n1 < 0, max{m1, n1} < -1, min{r_k} >= -m1 - n1 - 2
  H4  s > 1, min{r_k} >= sum_i max{-m_i, 0} + sum_j max{-n_j, 0}

Overtwisted / right-veering rules apply to words of the special shape
a^{r1} b^{r2} c^{r3} d^{r4} e^{m_1} f^{n} e^{m_2} (or its e/f mirror),
with m = m1 + m2:
  OT1  r_k < 0 for some k
  OT2  r_k = 0 for some k, and min{m, n} < 0
  OT3  min{r_k} = 1, (r2 = 1 or r4 = 1), min{m, n} < 0, m*n >= 2
  OT4  min{r_k} = 1, (r1 = 1 or r3 = 1), min{m, n} < 0, m*n >= 2
  R1   min{r_k} = 1, m < 0, n = 0   (the sign pattern the proof treats;
       the mirrored pattern arrives via the mirror candidate)
  R2   min{r_k} = 1, m*n < 0

A fillable structure is tight, an overtwisted one is not, and both are
invariants of the monodromy's conjugacy class and of the e/f relabeling
symmetry of the surface, so :func:`classify` merges the rules over
every cyclic rotation and its mirror: any OT tag gives verdict
Overtwisted, else any H tag Fillable, else any R tag RightVeering, else
Unknown.  An H tag and an OT tag together anywhere in one merge would
disprove the rule set and raises an invariant-violation fault.  When
the cyclically reduced core has four or more cyclic runs, every
rotation and mirror carries the same tags (the argument is in
:func:`classify`), so only rotation 0, unmirrored, is evaluated.

OT1's literal statement needs no shape at all; by default it is applied
only within the stated shape, and ``ot1_broad=True`` opts into the
shape-free reading (labeled in the output).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation
from .lantern import (ReducedForm, _cyclic_runs, _h_rule, _peel,
                      _require_form, _rotations, cyclic_rotations, mirror_ef)

FILLABLE = "HolomorphicallyFillable"
OVERTWISTED = "Overtwisted"
RIGHT_VEERING = "RightVeering"
UNKNOWN = "Unknown"

E_F_E = "E_F_E"
F_E_F = "F_E_F"


@dataclass(frozen=True)
class OTShape:
    """Exponent data of a monodromy in the special shape: boundary
    exponents r, merged outer exponent m (= m1 + m2), middle exponent n,
    and which letter sits outside (pattern E_F_E: e^{m1} f^n e^{m2};
    pattern F_E_F: the e/f mirror)."""

    r: tuple
    m: int
    n: int
    pattern: str


def match_ot_shape(rf: ReducedForm):
    """Extract the special shape from a reduced form when its blocks
    allow at most two outer-letter runs around one middle run: covers
    s <= 1 always, s = 2 exactly when an edge exponent vanishes, and
    nothing longer.  Returns None otherwise."""
    _require_form(rf)
    blocks = rf.blocks
    if len(blocks) == 0:
        return OTShape(rf.r, 0, 0, E_F_E)
    if len(blocks) == 1:
        m1, n1 = blocks[0]
        return OTShape(rf.r, m1, n1, E_F_E)
    if len(blocks) == 2:
        (m1, n1), (m2, n2) = blocks
        if n2 == 0:
            return OTShape(rf.r, m1 + m2, n1, E_F_E)
        if m1 == 0:
            return OTShape(rf.r, m2, n1 + n2, F_E_F)
    return None


@dataclass(frozen=True)
class Classification:
    """Verdict with the rule tags that produced it, plus which rotation
    and mirror yielded the decisive tag (for re-checking by hand)."""

    verdict: str
    rules: tuple
    rotation: int = 0
    mirror: bool = False
    ot1_broad: bool = False

    def to_json(self):
        doc = {"verdict": self.verdict, "rules": list(self.rules),
               "rotation": self.rotation, "mirror": self.mirror}
        if self.ot1_broad:
            doc["ot1_broad"] = True
        return doc


def _tags(rf: ReducedForm, ot1_broad: bool):
    """Every tag whose rule ``rf`` satisfies literally.  H1-H3 are
    mutually exclusive and H4 needs more blocks, so the fillable tags are
    the single rule :func:`lantern._h_rule` finds, if any."""
    rule = _h_rule(rf)
    tags = [rule] if rule else []
    shape = match_ot_shape(rf)
    r = rf.r
    if shape is None:
        if ot1_broad and min(r) < 0:
            tags.append("OT1")
        return tags
    m, n = shape.m, shape.n
    r1, r2, r3, r4 = r
    rmin = min(r)
    if rmin < 0:
        tags.append("OT1")
    if 0 in r and min(m, n) < 0:
        tags.append("OT2")
    if rmin == 1 and (r2 == 1 or r4 == 1) and min(m, n) < 0 and m * n >= 2:
        tags.append("OT3")
    if rmin == 1 and (r1 == 1 or r3 == 1) and min(m, n) < 0 and m * n >= 2:
        tags.append("OT4")
    if rmin == 1 and m < 0 and n == 0:
        tags.append("R1")
    if rmin == 1 and m * n < 0:
        tags.append("R2")
    return tags


_RULE_ORDER = ("OT1", "OT2", "OT3", "OT4",
               "H1", "H2", "H3", "H4", "R1", "R2")


def classify_rules(rf: ReducedForm, ot1_broad: bool = False) -> Classification:
    """Evaluate every rule literally on one reduced form (no rotations,
    no mirror) and return all matching tags with the precedence verdict
    Overtwisted > Fillable > RightVeering > Unknown."""
    _require_form(rf)
    tags = _tags(rf, ot1_broad)
    tags = tuple(t for t in _RULE_ORDER if t in tags)
    return Classification(_verdict(tags), tags, 0, False, ot1_broad)


def _verdict(tags):
    if any(t.startswith("OT") for t in tags):
        return OVERTWISTED
    if any(t.startswith("H") for t in tags):
        return FILLABLE
    if any(t.startswith("R") for t in tags):
        return RIGHT_VEERING
    return UNKNOWN


def classify(rf: ReducedForm, ot1_broad: bool = False) -> Classification:
    """Merge :func:`classify_rules` over every cyclic rotation of ``rf``
    and the e/f mirror of each.  The recorded rotation/mirror pair is
    the first candidate (rotation order, unmirrored first) carrying a
    tag of the verdict's family.  A fillable tag and an overtwisted tag
    in the same merge is an invariant-violation fault -- it would
    falsify the rule set, and must never be silently merged away.

    When the core left by :func:`lantern._peel` has four or more cyclic
    runs, only rotation 0 unmirrored (``cyclic_rotations(rf)[0]``) is
    evaluated and its tags are recorded at (0, False).  This is exact:
    every candidate carries the same fillability rule, H4 or None, by
    the argument of :func:`lantern._cyclic_runs`, and

    - :func:`match_ot_shape` is None on every candidate (each packs into
      at least 3 blocks, or into 2 with no zero edge exponent), so of
      the other rules only broad OT1 remains, and it reads min r, which
      rotating and mirroring keep.

    So all candidates carry the same tags, and rotation 0 unmirrored is
    the first of them, as the full merge would record.
    """
    prefix, core = _peel(rf)
    if _cyclic_runs(core) >= 4:
        rotations, mirrors = [next(_rotations(rf, prefix, core))], (False,)
    else:
        rotations, mirrors = cyclic_rotations(rf), (False, True)
    merged = []
    decisive = {}
    for k, rho in enumerate(rotations):
        for mirror in mirrors:
            candidate = mirror_ef(rho) if mirror else rho
            for t in _tags(candidate, ot1_broad):
                if t not in merged:
                    merged.append(t)
                    decisive.setdefault(t, (k, mirror))
    has_h = any(t.startswith("H") for t in merged)
    has_ot = any(t.startswith("OT") for t in merged)
    if has_h and has_ot:
        raise InvariantViolation(
            "fillable and overtwisted tags on one conjugacy class",
            form=str(rf), tags=sorted(merged))
    tags = tuple(t for t in _RULE_ORDER if t in merged)
    verdict = _verdict(tags)
    rotation, mirror = 0, False
    deciders = [decisive[t] for t in tags if _verdict((t,)) == verdict]
    if deciders:
        rotation, mirror = min(deciders)
    return Classification(verdict, tags, rotation, mirror, ot1_broad)
