"""Proposition extraction from dependency arcs.

Sentences are first normalized into a flat arc set the way argument-binding
parsers present them: deprel subtypes are stripped, passives are folded into
the active frame (nsubj:pass fills the object slot, obl:agent the subject
slot), and subjects are propagated down xcomp chains so controlled verbs see
their logical subject. Declarative rules then match connected arc templates
over that set and emit pattern-labeled lemma tuples.

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
_SUBJ_RELS = frozenset({"nsubj"})


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
        if not set(self.slots) <= variables:
            raise FormatError(f"rule {self.label}: unknown slot variable")
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


def normalize_arcs(sentence: Sentence) -> set[tuple[int, int, str]]:
    """Flatten a sentence into (head, dep, rel) arcs with binding applied."""
    arcs: set[tuple[int, int, str]] = set()
    for tok in sentence.tokens:
        if tok.head == 0:
            continue
        rel = tok.deprel.lower()
        base = rel.split(":")[0]
        if base == "nsubj" and rel.endswith(":pass"):
            arcs.add((tok.head, tok.index, "obj"))
        elif base == "obl" and rel.endswith(":agent"):
            arcs.add((tok.head, tok.index, "nsubj"))
        else:
            arcs.add((tok.head, tok.index, base))
    # propagate subjects down xcomp chains to the controlled predicate
    changed = True
    while changed:
        changed = False
        has_subj = {h for h, _, r in arcs if r in _SUBJ_RELS}
        for head, dep, rel in sorted(arcs):
            if rel != "xcomp" or dep in has_subj:
                continue
            for h2, subj, r2 in sorted(arcs):
                if h2 == head and r2 in _SUBJ_RELS:
                    arcs.add((dep, subj, r2))
                    changed = True
    return arcs


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
    arcs = normalize_arcs(sentence)
    children: dict[int, list[tuple[int, str]]] = {}
    for head, dep, rel in arcs:
        children.setdefault(head, []).append((dep, rel))

    seen: set[tuple[str, tuple[int, ...]]] = set()
    results: list[Occurrence] = []
    for rule in rules:
        roles = label_roles(rule.label)
        for binding in _match(rule, sentence, children):
            indices = tuple(binding[v] for v in rule.slots)
            key = (rule.label, indices)
            if key in seen:
                continue
            seen.add(key)
            slots = tuple(_slot_lemma(sentence, idx, roles[i], children)
                          for i, idx in enumerate(indices))
            prop = Proposition(rule.label, slots)
            results.append(Occurrence(prop, sentence.id, indices))
    results.sort(key=lambda occ: (occ.prop.label, occ.token_indices))
    return results


def _match(rule: ExtractionRule, sentence: Sentence,
           children: Mapping[int, list[tuple[int, str]]]):
    def upos_ok(var: str, index: int) -> bool:
        allowed = rule.upos.get(var)
        return not allowed or sentence.token_at(index).upos in allowed

    def extend(arc_i: int, binding: dict[str, int]):
        if arc_i == len(rule.arcs):
            yield dict(binding)
            return
        arc = rule.arcs[arc_i]
        head_idx = binding[arc.head]
        for dep_idx, rel in children.get(head_idx, ()):
            if rel not in arc.rels or not upos_ok(arc.dep, dep_idx):
                continue
            if arc.dep in binding:
                if binding[arc.dep] != dep_idx:
                    continue
                yield from extend(arc_i + 1, binding)
            else:
                if dep_idx in binding.values():
                    continue  # variables bind distinct tokens
                binding[arc.dep] = dep_idx
                yield from extend(arc_i + 1, binding)
                del binding[arc.dep]

    anchor = rule.anchor
    for tok in sentence.tokens:
        if upos_ok(anchor, tok.index):
            yield from extend(0, {anchor: tok.index})


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

    Each arc is {"head": var, "dep": var, "rels": [deprel, ...]}.
    """
    data = textio.load_json(source)
    if not isinstance(data, list):
        raise FormatError("rule file must contain a JSON list")
    rules = []
    for i, entry in enumerate(data, start=1):
        try:
            rules.append(_rule(entry["label"],
                               [(a["head"], a["dep"], a["rels"]) for a in entry["arcs"]],
                               entry.get("upos", {}),
                               entry["slots"]))
        except (KeyError, TypeError) as exc:
            raise FormatError(f"bad rule entry: {exc}", i) from None
    return tuple(rules)
