"""Proposition extraction from dependency arcs.

Sentences are first normalized into an arc index, the way
argument-binding parsers present them: deprel subtypes are stripped,
passives are folded into the active frame (nsubj:pass fills the object
slot, obl:agent the subject slot), and subjects are propagated down xcomp
chains so controlled verbs see their logical subject. Declarative rules
then match connected arc templates over that index and emit
pattern-labeled lemma tuples. Each rule is compiled once into a join plan
from its template's root, so its arcs may come in any order: the root's
first arc is bound from the sentence's arcs of that relation, and each
later arc is one (head, relation) lookup per binding.

Rules are data: each names a pattern label, a list of arcs over variables,
per-variable UPOS constraints, and the variable-to-slot order. The shipped
default inventory covers NV, VN, NVV, VPN, NPN, NVPN, NVVPN, NN, AN, AdvPN
and NVAdv.
"""

from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple

from . import textio
from .conllu import Sentence
from .errors import FormatError
from .labels import ROLE_PREP, label_arity, label_roles
from .store import Occurrence, Proposition
from .textio import TextSource

NOMINAL = frozenset({"NOUN", "PROPN", "PRON"})


class RuleArc(NamedTuple):
    head: str
    dep: str
    rels: frozenset[str]


_NEW = -1  # the dependent of a step that binds a new variable


class _Step(NamedTuple):
    """One arc of a join plan, over positions in a binding tuple."""
    head: int
    dep: int  # _NEW, or the position of an already-bound dependent
    rels: tuple[str, ...]
    upos: frozenset[str] | None  # None accepts any UPOS


class JoinPlan(NamedTuple):
    """A rule compiled for matching. The first arc binds positions 0 (its
    head, the anchor) and 1 of a binding tuple, and each later step binds or
    checks one more variable."""
    anchor_upos: frozenset[str] | None
    first: _Step
    first_key: str  # the same for rules whose first arcs bind the same pairs
    steps: tuple[_Step, ...]  # the arcs after the first
    pick: Callable[[tuple[int, ...]], tuple[int, ...]]  # a binding's slot indices
    preps: tuple[int, ...]  # the slots with the P role


class ExtractionRule:
    # checked and compiled into its plan when made, and not a typed tuple:
    # the plan's itemgetter compares by identity, so rules compare without it
    __slots__ = ("label", "arcs", "upos", "slots", "plan")

    def __init__(self, label: str, arcs: tuple[RuleArc, ...],
                 upos: Mapping[str, frozenset[str]] | None = None,
                 slots: tuple[str, ...] = ()):
        upos = {} if upos is None else upos
        self.label, self.upos, self.slots = label, upos, slots
        self.arcs, self.plan = _compile(label, arcs, upos, slots)

    def _key(self) -> tuple:
        return self.label, self.arcs, self.upos, self.slots

    def __eq__(self, other):  # and so unhashable, as a dict in upos is
        return isinstance(other, ExtractionRule) and self._key() == other._key()

    def __repr__(self) -> str:
        return "ExtractionRule(label=%r, arcs=%r, upos=%r, slots=%r)" % self._key()


def _compile(label: str, arcs: tuple[RuleArc, ...], upos: Mapping[str, frozenset[str]],
             slots: tuple[str, ...]) -> tuple[tuple[RuleArc, ...], JoinPlan]:
    """Check a rule and compile it in one walk from its template's root (the
    first head no arc binds as a dependent, or else the first arc's head),
    taking each arc once its head is bound. Returns the arcs in that order
    and the plan; a missing or empty UPOS set accepts any UPOS."""
    for arc in arcs:
        if arc.head == arc.dep:
            raise FormatError(f"arc {arc.head}->{arc.dep} is a self-loop")
    if len(slots) != label_arity(label):
        raise FormatError(f"rule {label}: {len(slots)} slot variables for "
                          f"arity-{label_arity(label)} label")
    if len(set(slots)) != len(slots):
        raise FormatError(f"rule {label}: slot variables must be distinct")
    deps = {arc.dep for arc in arcs}
    if not set(slots) | set(upos) <= deps | {arc.head for arc in arcs}:
        raise FormatError(f"rule {label}: slot or UPOS variable not in an arc")
    if not arcs:
        raise FormatError(f"rule {label}: needs at least one arc")
    order = [next((arc.head for arc in arcs if arc.head not in deps), arcs[0].head)]
    remaining, ordered, steps = list(arcs), [], []
    while remaining:
        arc = next((arc for arc in remaining if arc.head in order), None)
        if arc is None:
            raise FormatError(f"rule {label}: arc template is not connected")
        remaining.remove(arc)
        ordered.append(arc)
        dep = order.index(arc.dep) if arc.dep in order else _NEW
        steps.append(_Step(order.index(arc.head), dep, tuple(sorted(arc.rels)),
                           upos.get(arc.dep) or None))
        if dep == _NEW:
            order.append(arc.dep)
    first, anchor = steps[0], upos.get(order[0]) or None
    key = repr([first.rels, sorted(anchor or ()), sorted(first.upos or ())])
    positions = [order.index(v) for v in slots]
    # itemgetter of one index returns the item, and of a one-item slice a 1-tuple
    pick = itemgetter(*positions) if len(positions) > 1 else itemgetter(
        slice(positions[0], positions[0] + 1))
    preps = tuple(i for i, role in enumerate(label_roles(label)) if role == ROLE_PREP)
    return tuple(ordered), JoinPlan(anchor, first, key, tuple(steps[1:]), pick, preps)


ArcIndex = tuple[dict[str, list[tuple[int, int]]], dict[tuple[int, str], list[int]]]


def normalize_arcs(sentence: Sentence) -> ArcIndex:
    """Index the sentence's arcs by relation, as (head, dependent) pairs, and
    by (head, relation), as dependents, with binding applied: a controlled
    predicate without a subject of its own takes those of the nearest
    controller up its xcomp chain that has any, as arcs after its own. The
    walk stops at a head it has already seen, so an xcomp cycle ends it.
    An arc whose head is not a token of the sentence is left out."""
    by_rel: dict[str, list[tuple[int, int]]] = {}
    by_head: dict[tuple[int, str], list[int]] = {}
    controller: dict[int, int] = {}
    n = len(sentence.tokens)
    for dep, _, _, _, head, rel in sentence.tokens:
        if not 0 < head <= n:
            continue
        rel = rel.lower()
        base = rel.partition(":")[0]
        if base == "nsubj" and rel.endswith(":pass"):
            base = "obj"
        elif base == "obl" and rel.endswith(":agent"):
            base = "nsubj"
        elif base == "xcomp":
            controller[dep] = head
        by_rel.setdefault(base, []).append((head, dep))
        by_head.setdefault((head, base), []).append(dep)
    for dep, head in controller.items():
        if (dep, "nsubj") in by_head:
            continue
        seen = {dep}
        while (head, "nsubj") not in by_head and head in controller and head not in seen:
            seen.add(head)
            head = controller[head]
        for subj in by_head.get((head, "nsubj"), ()):
            by_rel.setdefault("nsubj", []).append((dep, subj))
            by_head.setdefault((dep, "nsubj"), []).append(subj)
    return by_rel, by_head


# a token-shaped row put before a sentence's tokens, so that transposed
# columns are indexed by token number
_PAD = (0, "", "", "", 0, "")


def extract_propositions(sentence: Sentence,
                         rules: Iterable[ExtractionRule] | None = None,
                         ) -> list[Occurrence]:
    """Emit one occurrence per maximal rule match, with provenance.

    Deterministic: results are sorted by (label, token indices). A sentence
    matching no rule yields an empty list.
    """
    if rules is None:
        rules = DEFAULT_RULES
    by_rel, by_head = normalize_arcs(sentence)
    _, _, lemmas, upos, _, _ = zip(_PAD, *sentence.tokens)
    found: dict[tuple[str, tuple[int, ...]], Occurrence] = {}
    firsts: dict[str, list[tuple[int, int]]] = {}
    for rule in rules:
        plan, label = rule.plan, rule.label
        # rules that start with the same arc, as NV, NVV, NVPN, NVVPN and
        # NVAdv do, bind it once
        bindings = firsts.get(plan.first_key)
        if bindings is None:
            bindings = firsts[plan.first_key] = []
            head_ok, dep_ok = plan.anchor_upos, plan.first.upos
            for rel in plan.first.rels:
                for head, dep in by_rel.get(rel, ()):
                    if (head != dep and (head_ok is None or upos[head] in head_ok)
                            and (dep_ok is None or upos[dep] in dep_ok)):
                        bindings.append((head, dep))
        if bindings and plan.steps:
            bindings = _extend(plan.steps, bindings, by_head, upos)
        for binding in bindings:
            indices = plan.pick(binding)
            key = (label, indices)
            if key in found:
                continue
            slots = [lemmas[i] for i in indices]
            for slot in plan.preps:
                # multiword prepositions hang off the case token via `fixed`
                extra = by_head.get((indices[slot], "fixed"))
                if extra:
                    slots[slot] = " ".join([slots[slot]] + [lemmas[d] for d in sorted(extra)])
            found[key] = tuple.__new__(Occurrence, (
                tuple.__new__(Proposition, (label, tuple(slots))), sentence.id, indices))
    return [found[key] for key in sorted(found)]


def _extend(steps: tuple[_Step, ...], bindings: list[tuple[int, ...]],
            by_head: dict[tuple[int, str], list[int]],
            upos: tuple[str, ...]) -> list[tuple[int, ...]]:
    """Extend every binding through each step by one (head, relation)
    lookup: a bound dependent must be the child, a new one a child no
    position holds."""
    for head, dep, rels, ok in steps:
        extended = []
        for binding in bindings:
            bound = binding[head]
            for rel in rels:
                for child in by_head.get((bound, rel), ()):
                    if ok is not None and upos[child] not in ok:
                        continue
                    if dep == _NEW:
                        if child not in binding:
                            extended.append(binding + (child,))
                    elif binding[dep] == child:
                        extended.append(binding)
        if not extended:
            return extended
        bindings = extended
    return bindings


def _rule(label, arcs, upos, slots):
    return ExtractionRule(
        label,
        tuple(RuleArc(h, d, frozenset(r)) for h, d, r in arcs),
        {v: frozenset(u) for v, u in upos.items()},
        tuple(slots),
    )


_V = {"VERB"}
_ADP = {"ADP"}
_OBL = {"obl", "nmod"}
_COMP = {"xcomp", "ccomp"}

DEFAULT_RULES: tuple[ExtractionRule, ...] = (
    _rule("NV", [("v", "s", {"nsubj"})],
          {"v": _V, "s": NOMINAL}, ["s", "v"]),
    _rule("VN", [("v", "o", {"obj"})],
          {"v": _V, "o": NOMINAL}, ["v", "o"]),
    _rule("NVV", [("v1", "s", {"nsubj"}), ("v1", "v2", _COMP)],
          {"v1": _V, "v2": _V, "s": NOMINAL}, ["s", "v1", "v2"]),
    _rule("VPN", [("v", "n", _OBL), ("n", "p", {"case"})],
          {"v": _V, "n": NOMINAL, "p": _ADP}, ["v", "p", "n"]),
    _rule("NPN", [("n1", "n2", {"nmod"}), ("n2", "p", {"case"})],
          {"n1": {"NOUN", "PROPN"}, "n2": NOMINAL, "p": _ADP}, ["n1", "p", "n2"]),
    _rule("NVPN", [("v", "s", {"nsubj"}), ("v", "n", _OBL), ("n", "p", {"case"})],
          {"v": _V, "s": NOMINAL, "n": NOMINAL, "p": _ADP}, ["s", "v", "p", "n"]),
    _rule("NVVPN", [("v1", "s", {"nsubj"}), ("v1", "v2", _COMP),
                    ("v2", "n", _OBL), ("n", "p", {"case"})],
          {"v1": _V, "v2": _V, "s": NOMINAL, "n": NOMINAL, "p": _ADP},
          ["s", "v1", "v2", "p", "n"]),
    _rule("NN", [("h", "m", {"compound"})],
          {"h": {"NOUN", "PROPN"}, "m": {"NOUN", "PROPN"}}, ["m", "h"]),
    _rule("AN", [("n", "a", {"amod"})],
          {"n": {"NOUN", "PROPN"}, "a": {"ADJ"}}, ["a", "n"]),
    _rule("AdvPN", [("a", "n", _OBL), ("n", "p", {"case"})],
          {"a": {"ADV", "ADJ"}, "n": NOMINAL, "p": _ADP}, ["a", "p", "n"]),
    _rule("NVAdv", [("v", "s", {"nsubj"}), ("v", "adv", {"advmod"})],
          {"v": _V, "s": NOMINAL, "adv": {"ADV"}}, ["s", "v", "adv"]),
)


def load_rules(source: TextSource) -> tuple[ExtractionRule, ...]:
    """Load a JSON rule file: a list of {label, arcs, upos, slots} objects.

    Each arc is {"head": var, "dep": var, "rels": [deprel, ...]}; `upos`
    maps arc variables to lists of UPOS tags, and `slots` lists variables.
    A malformed entry raises FormatError with its 1-based number.
    """
    data = textio.load_json(source)
    if not isinstance(data, list):
        raise FormatError("rule file must contain a JSON list")
    rules = []
    for i, entry in enumerate(data, start=1):
        try:
            arcs = [(a["head"], a["dep"], a["rels"]) for a in entry["arcs"]]
            upos, slots = entry.get("upos", {}), entry["slots"]
            if not all(isinstance(names, list) and all(isinstance(n, str) for n in names)
                       for names in [r for _, _, r in arcs] + [*upos.values(), slots]):
                raise TypeError("rels, upos values and slots must be lists of strings")
            rules.append(_rule(entry["label"], arcs, upos, slots))
        except (KeyError, TypeError, AttributeError, FormatError) as exc:
            raise FormatError(f"bad rule entry: {exc}", i) from None
    return tuple(rules)
