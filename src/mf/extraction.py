"""Proposition extraction from dependency arcs.

Sentences are first normalized into a map from each head to its arcs, the
way argument-binding parsers present them: deprel subtypes are stripped,
passives are folded into the active frame (nsubj:pass fills the object
slot, obl:agent the subject slot), and subjects are propagated down xcomp
chains so controlled verbs see their logical subject. Declarative rules
then match connected arc templates over that map, joining one arc at a
time, and emit pattern-labeled lemma tuples.

Rules are data: each names a pattern label, a list of arcs over variables,
per-variable UPOS constraints, and the variable-to-slot order. The shipped
default inventory covers NV, VN, NVV, VPN, NPN, NVPN, NVVPN, NN, AN, AdvPN
and NVAdv.
"""

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from . import textio
from .conllu import Sentence
from .errors import FormatError
from .labels import ROLE_PREP, label_arity, label_roles
from .store import Occurrence, Proposition
from .textio import TextSource

NOMINAL = frozenset({"NOUN", "PROPN", "PRON"})


@dataclass(frozen=True)
class RuleArc:
    head: str
    dep: str
    rels: frozenset[str]

    def __post_init__(self):
        if self.head == self.dep:
            raise FormatError(f"arc {self.head}->{self.dep} is a self-loop")


@dataclass(frozen=True)
class ExtractionRule:
    label: str
    arcs: tuple[RuleArc, ...]
    upos: Mapping[str, frozenset[str]] = field(default_factory=dict)
    slots: tuple[str, ...] = ()

    def __post_init__(self):
        variables = {v for arc in self.arcs for v in (arc.head, arc.dep)}
        if len(self.slots) != label_arity(self.label):
            raise FormatError(
                f"rule {self.label}: {len(self.slots)} slot variables for "
                f"arity-{label_arity(self.label)} label")
        if len(set(self.slots)) != len(self.slots):
            raise FormatError(f"rule {self.label}: slot variables must be distinct")
        if not set(self.slots) | set(self.upos) <= variables:
            raise FormatError(f"rule {self.label}: slot or UPOS variable not in an arc")
        # arcs must be orderable so each one has its head already bound
        object.__setattr__(self, "arcs", _order_arcs(self.label, self.arcs))

    @property
    def anchor(self) -> str:
        return self.arcs[0].head


def _order_arcs(label: str, arcs: tuple[RuleArc, ...]) -> tuple[RuleArc, ...]:
    if not arcs:
        raise FormatError(f"rule {label}: needs at least one arc")
    ordered = [arcs[0]]
    bound = {arcs[0].head, arcs[0].dep}
    remaining = list(arcs[1:])
    while remaining:
        for i, arc in enumerate(remaining):
            if arc.head in bound:
                bound.add(arc.dep)
                ordered.append(remaining.pop(i))
                break
        else:
            raise FormatError(f"rule {label}: arc template is not connected")
    return tuple(ordered)


def normalize_arcs(sentence: Sentence) -> dict[int, list[tuple[int, str]]]:
    """Map each head to its (dependent, rel) arcs, in token order, with
    binding applied: a controlled predicate without a subject of its own
    takes those of the nearest controller up its xcomp chain that has any,
    as arcs after its own."""
    children: dict[int, list[tuple[int, str]]] = {}
    subjects: dict[int, list[int]] = {}
    controller: dict[int, int] = {}
    for tok in sentence.tokens:
        if tok.head == 0:
            continue
        rel = tok.deprel.lower()
        base = rel.split(":")[0]
        if base == "nsubj" and rel.endswith(":pass"):
            base = "obj"
        elif base == "obl" and rel.endswith(":agent"):
            base = "nsubj"
        children.setdefault(tok.head, []).append((tok.index, base))
        if base == "nsubj":
            subjects.setdefault(tok.head, []).append(tok.index)
        elif base == "xcomp":
            controller[tok.index] = tok.head
    for dep, head in controller.items():
        if dep in subjects:
            continue
        while head not in subjects and head in controller:
            head = controller[head]
        for subj in subjects.get(head, ()):
            children.setdefault(dep, []).append((subj, "nsubj"))
    return children


def _slot_lemma(sentence: Sentence, index: int, role: str,
                children: Mapping[int, list[tuple[int, str]]]) -> str:
    lemma = sentence.token_at(index).lemma
    if role == ROLE_PREP:
        # multiword prepositions hang off the case token via `fixed`
        extra = sorted(dep for dep, rel in children.get(index, ()) if rel == "fixed")
        if extra:
            lemma = " ".join([lemma] + [sentence.token_at(d).lemma for d in extra])
    return lemma


def extract_propositions(sentence: Sentence,
                         rules: Iterable[ExtractionRule] | None = None,
                         ) -> list[Occurrence]:
    """Emit one occurrence per maximal rule match, with provenance.

    Deterministic: results are sorted by (label, token indices). A sentence
    matching no rule yields an empty list.
    """
    if rules is None:
        rules = DEFAULT_RULES
    children = normalize_arcs(sentence)
    found: dict[tuple[str, tuple[int, ...]], Occurrence] = {}
    for rule in rules:
        roles = label_roles(rule.label)
        for binding in _match(rule, sentence, children):
            indices = tuple(binding[v] for v in rule.slots)
            key = (rule.label, indices)
            if key not in found:
                slots = tuple(_slot_lemma(sentence, idx, roles[i], children)
                              for i, idx in enumerate(indices))
                found[key] = Occurrence(Proposition(rule.label, slots),
                                        sentence.id, indices)
    return [found[key] for key in sorted(found)]


def _match(rule: ExtractionRule, sentence: Sentence,
           children: Mapping[int, list[tuple[int, str]]]) -> list[dict[str, int]]:
    """Bind the anchor to each token its UPOS set accepts, then extend every
    binding through each arc in turn: a bound dependent must be the child, an
    unbound one a child no variable holds. A missing or empty UPOS set
    accepts any UPOS."""
    tokens = sentence.tokens
    allowed = rule.upos.get(rule.anchor)
    bindings = [{rule.anchor: tok.index} for tok in tokens
                if not allowed or tok.upos in allowed]
    for arc in rule.arcs:
        allowed = rule.upos.get(arc.dep)
        extended = []
        for binding in bindings:
            bound = binding.get(arc.dep)
            for dep, rel in children.get(binding[arc.head], ()):
                if rel not in arc.rels or allowed and tokens[dep - 1].upos not in allowed:
                    continue
                if bound is None:
                    if dep not in binding.values():
                        extended.append({**binding, arc.dep: dep})
                elif bound == dep:
                    extended.append(binding)
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
