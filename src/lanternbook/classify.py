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
disprove the rule set and raises an invariant-violation fault.  The
rotations fall into at most three classes whose members and their
mirrors carry the same tags (``lantern._rotation_classes``), so the
merge reads the first rotation of each class and its mirror.

OT1's literal statement needs no shape at all; by default it is applied
only within the stated shape, and ``ot1_broad=True`` opts into the
shape-free reading (labeled in the output).
"""

from __future__ import annotations

from .errors import InvariantViolation, PreconditionError, shown
from .lantern import (ReducedForm, _h_rule, _mirrored, _require_form,
                      _rotation_classes)
from .words import Value
# re-exported: perfbench/tracing.py wraps it under this module's name
from .lantern import cyclic_rotations  # noqa: F401

FILLABLE = "HolomorphicallyFillable"
OVERTWISTED = "Overtwisted"
RIGHT_VEERING = "RightVeering"
UNKNOWN = "Unknown"

E_F_E = "E_F_E"
F_E_F = "F_E_F"


class OTShape(Value):
    """Exponent data of a monodromy in the special shape: boundary
    exponents r, merged outer exponent m (= m1 + m2), middle exponent n,
    and which letter sits outside (pattern E_F_E: e^{m1} f^n e^{m2};
    pattern F_E_F: the e/f mirror)."""

    r: tuple
    m: int
    n: int
    pattern: str

    def __init__(self, r, m, n, pattern):
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pattern", pattern)


def _shape(blocks):
    """The (m, n, pattern) of the special shape of interior ``blocks``,
    or None: see :func:`match_ot_shape`."""
    if len(blocks) == 0:
        return 0, 0, E_F_E
    if len(blocks) == 1:
        m1, n1 = blocks[0]
        return m1, n1, E_F_E
    if len(blocks) == 2:
        (m1, n1), (m2, n2) = blocks
        if n2 == 0:
            return m1 + m2, n1, E_F_E
        if m1 == 0:
            return m2, n1 + n2, F_E_F
    return None


def match_ot_shape(rf: ReducedForm):
    """Extract the special shape from a reduced form when its blocks
    allow at most two outer-letter runs around one middle run: covers
    s <= 1 always, s = 2 exactly when an edge exponent vanishes, and
    nothing longer.  Returns None otherwise."""
    _require_form(rf)
    shape = _shape(rf.blocks)
    return None if shape is None else OTShape(rf.r, *shape)


class Classification(Value):
    """Verdict with the rule tags that produced it, plus which rotation
    and mirror yielded the decisive tag (for re-checking by hand)."""

    verdict: str
    rules: tuple
    rotation: int
    mirror: bool
    ot1_broad: bool

    def __init__(self, verdict, rules, rotation=0, mirror=False,
                 ot1_broad=False):
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "mirror", mirror)
        object.__setattr__(self, "ot1_broad", ot1_broad)

    def to_json(self):
        doc = {"verdict": self.verdict, "rules": list(self.rules),
               "rotation": self.rotation, "mirror": self.mirror}
        if self.ot1_broad:
            doc["ot1_broad"] = True
        return doc


def _tags(r, blocks, ot1_broad: bool, shape=False):
    """Every tag whose rule the exponents (r, blocks) of a reduced form
    satisfy literally: the one statement of the rules in this module.
    ``shape`` is the special shape of ``blocks`` (its (m, n) first) or
    None, read here when it is False.  H1-H3 are mutually exclusive and
    H4 needs more blocks, so the fillable tags are the single rule
    :func:`lantern._h_rule` finds, if any."""
    rule = _h_rule(r, blocks)
    tags = [rule] if rule else []
    if shape is False:
        shape = _shape(blocks)
    if shape is None:
        if ot1_broad and min(r) < 0:
            tags.append("OT1")
        return tags
    m, n = shape[0], shape[1]
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


# in precedence order, so the first of ordered tags gives the verdict
_RULE_ORDER = ("OT1", "OT2", "OT3", "OT4",
               "H1", "H2", "H3", "H4", "R1", "R2")
_FAMILIES = {"O": OVERTWISTED, "H": FILLABLE, "R": RIGHT_VEERING}


def classify_rules(rf: ReducedForm, ot1_broad: bool = False) -> Classification:
    """Evaluate every rule literally on one reduced form (no rotations,
    no mirror) and return all matching tags with the precedence verdict
    Overtwisted > Fillable > RightVeering > Unknown."""
    _require_form(rf)
    _require_bool(ot1_broad)
    tags = tuple(sorted(_tags(rf.r, rf.blocks, ot1_broad),
                        key=_RULE_ORDER.index))
    return Classification(_verdict(tags), tags, 0, False, ot1_broad)


def _require_bool(ot1_broad) -> None:
    if type(ot1_broad) is not bool:
        raise PreconditionError("ot1_broad is not a bool: %s"
                                % shown(ot1_broad))


def _verdict(tags):
    """The verdict of ``tags`` in :data:`_RULE_ORDER`: its first tag's."""
    return _FAMILIES[tags[0][0]] if tags else UNKNOWN


def classify(rf: ReducedForm, ot1_broad: bool = False) -> Classification:
    """Merge :func:`classify_rules` over every cyclic rotation of ``rf``
    and the e/f mirror of each.  The recorded rotation/mirror pair is
    the first candidate (rotation order, unmirrored first) carrying a
    tag of the verdict's family.  A fillable tag and an overtwisted tag
    in the same merge is an invariant-violation fault -- it would
    falsify the rule set, and must never be silently merged away.

    The rules are read on the exponent tuples of the first rotation of
    each tag class (:func:`lantern._rotation_classes`) and of its
    mirror, whose tags every other candidate of the class repeats, so
    the merged tags and the recorded pair are those of the merge over
    every candidate.  A form with no special shape has the tags of its
    mirror, which read only min r and the H4 cost (the argument is the
    one for long cores), so that mirror is skipped."""
    _require_bool(ot1_broad)
    decisive = {}
    for k, r, blocks in _rotation_classes(rf):
        shape = _shape(blocks)
        for t in _tags(r, blocks, ot1_broad, shape):
            decisive.setdefault(t, (k, False))
        if shape is None:
            continue
        # the mirror swaps e with f, hence the shape's m with its n
        mirror_shape = shape[1], shape[0]
        for t in _tags(*_mirrored(r, blocks), ot1_broad, mirror_shape):
            decisive.setdefault(t, (k, True))
    if not decisive:
        return Classification(UNKNOWN, (), 0, False, ot1_broad)
    tags = tuple(sorted(decisive, key=_RULE_ORDER.index))
    verdict = _verdict(tags)
    if verdict == OVERTWISTED and any(t[0] == "H" for t in tags):
        raise InvariantViolation(
            "fillable and overtwisted tags on one conjugacy class",
            form=str(rf), tags=sorted(decisive))
    rotation, mirror = min(decisive[t] for t in tags if t[0] == tags[0][0])
    return Classification(verdict, tags, rotation, mirror, ot1_broad)
