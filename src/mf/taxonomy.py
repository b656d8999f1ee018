"""Hypernym taxonomy with lexical attachments, and noun-to-class mapping.

The taxonomy file is a sectioned TSV. A line holding just a section name
(NODES, EDGES, LEXICON, NAMES, PERSON) opens that section; the rows below
it are tab-separated records:

    NODES    node_id <TAB> class|instance
    EDGES    child_id <TAB> parent_id
    LEXICON  lexical item <TAB> node_id
    NAMES    name <TAB> given|surname
    PERSON   node_id            (class that given names and surnames map to)

Lexical items and names are matched case-insensitively; underscores count
as spaces, so "new_york" and "New York" are the same item.
"""

from dataclasses import dataclass, field
from typing import Optional

from . import textio
from .errors import FormatError
from .textio import TextSource

CLASS = "class"
INSTANCE = "instance"


def _normalize(item: str) -> str:
    return " ".join(item.lower().replace("_", " ").split())


@dataclass(frozen=True)
class TaxonomyNode:
    id: str
    kind: str
    parents: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.kind not in (CLASS, INSTANCE):
            raise FormatError(f"node {self.id}: kind must be class or instance")


@dataclass
class Taxonomy:
    nodes: dict[str, TaxonomyNode] = field(default_factory=dict)
    lexical_index: dict[str, set[str]] = field(default_factory=dict)
    given_names: set[str] = field(default_factory=set)
    surnames: set[str] = field(default_factory=set)
    person_class: Optional[str] = None

    def __post_init__(self):
        self._multiword: dict[str, set[str]] = {}
        for item in self.lexical_index:
            words = item.split(" ")
            if len(words) > 1:
                for w in words:
                    self._multiword.setdefault(w, set()).add(item)
        self._check_acyclic()
        self._ancestor_cache: dict[str, frozenset[str]] = {}

    def _check_acyclic(self):
        # depth-first with an explicit stack, so chains of any depth load:
        # state 1 while a node is on the walk's path, 2 once it is left
        state: dict[str, int] = {}
        for root in self.nodes:
            stack = [(root, True)]
            while stack:
                node_id, entering = stack.pop()
                if not entering:
                    state[node_id] = 2
                elif node_id not in state:
                    state[node_id] = 1
                    stack.append((node_id, False))
                    for parent in self.nodes[node_id].parents:
                        if parent not in self.nodes:
                            raise FormatError(f"edge to unknown node {parent!r}")
                        if state.get(parent) == 1:
                            raise FormatError(f"hypernym cycle through {parent!r}")
                        stack.append((parent, True))

    def kind(self, node_id: str) -> str:
        return self.nodes[node_id].kind

    def ancestors(self, node_id: str, reflexive: bool = True) -> frozenset[str]:
        """Transitive closure over parent edges, optionally including self."""
        cached = self._ancestor_cache.get(node_id)
        if cached is None:
            out: set[str] = set()
            stack = list(self.nodes[node_id].parents)
            while stack:
                cur = stack.pop()
                if cur not in out:
                    out.add(cur)
                    stack.extend(self.nodes[cur].parents)
            cached = frozenset(out)
            self._ancestor_cache[node_id] = cached
        return cached | {node_id} if reflexive else cached

    def nearest_classes(self, node_id: str) -> set[str]:
        """Walk up from an instance until class nodes are reached."""
        node = self.nodes[node_id]
        if node.kind == CLASS:
            return {node_id}
        out: set[str] = set()
        frontier = set(node.parents)
        seen: set[str] = set()
        while frontier:
            nxt: set[str] = set()
            for cur in frontier:
                if cur in seen:
                    continue
                seen.add(cur)
                if self.nodes[cur].kind == CLASS:
                    out.add(cur)
                else:
                    nxt |= set(self.nodes[cur].parents)
            frontier = nxt
        return out

    def _to_classes(self, node_ids: set[str]) -> set[str]:
        classes = {n for n in node_ids if self.nodes[n].kind == CLASS}
        if classes:
            return classes
        out: set[str] = set()
        for n in node_ids:
            out |= self.nearest_classes(n)
        return out


def map_noun(noun: str, tax: Taxonomy) -> set[str]:
    """Map a single noun lexeme to taxonomy class node ids.

    Order: given name / surname -> person class; node-id match; exact
    lexical match; whole-word match inside multiword lexical items. Class
    nodes win over instances; instance-only candidates are lifted to their
    nearest class ancestors. No candidates -> empty set (caller keeps the
    original lexeme).
    """
    q = _normalize(noun)
    if tax.person_class and (q in tax.given_names or q in tax.surnames):
        return {tax.person_class}
    if noun in tax.nodes:
        # generalized stores carry class ids in noun slots already
        return tax._to_classes({noun})
    nodes = set(tax.lexical_index.get(q, ()))
    if not nodes:
        for item in tax._multiword.get(q, ()):
            nodes |= tax.lexical_index[item]
    if not nodes:
        return set()
    return tax._to_classes(nodes)


_SECTIONS = {"NODES", "EDGES", "LEXICON", "NAMES", "PERSON"}


def load_taxonomy(source: TextSource) -> Taxonomy:
    """Read the sectioned taxonomy TSV described in the module docstring."""
    section = None
    kinds: dict[str, str] = {}
    parents: dict[str, set[str]] = {}
    lexicon: list[tuple[str, str]] = []
    given: set[str] = set()
    surnames: set[str] = set()
    person: Optional[str] = None

    for rowno, cols in textio.rows(source):
        name = "\t".join(cols).strip()
        if name in _SECTIONS:
            section = name
            continue
        if section is None:
            raise FormatError("row before any section header", rowno)
        if section == "NODES":
            if len(cols) != 2:
                raise FormatError("NODES rows take: id <TAB> kind", rowno)
            kinds[cols[0]] = cols[1]
        elif section == "EDGES":
            if len(cols) != 2:
                raise FormatError("EDGES rows take: child <TAB> parent", rowno)
            parents.setdefault(cols[0], set()).add(cols[1])
        elif section == "LEXICON":
            if len(cols) != 2:
                raise FormatError("LEXICON rows take: item <TAB> node", rowno)
            lexicon.append((cols[0], cols[1]))
        elif section == "NAMES":
            if len(cols) != 2 or cols[1] not in ("given", "surname"):
                raise FormatError("NAMES rows take: name <TAB> given|surname", rowno)
            (given if cols[1] == "given" else surnames).add(_normalize(cols[0]))
        elif section == "PERSON":
            person = cols[0]

    nodes = {}
    for node_id, kind in kinds.items():
        nodes[node_id] = TaxonomyNode(node_id, kind,
                                      frozenset(parents.get(node_id, ())))
    for child in parents:
        if child not in nodes:
            raise FormatError(f"EDGES references unknown node {child!r}")
    lexical_index: dict[str, set[str]] = {}
    for item, node_id in lexicon:
        if node_id not in nodes:
            raise FormatError(f"LEXICON references unknown node {node_id!r}")
        lexical_index.setdefault(_normalize(item), set()).add(node_id)
    if person is not None and person not in nodes:
        raise FormatError(f"PERSON references unknown node {person!r}")

    tax = Taxonomy(nodes, lexical_index, given, surnames, person)
    for node in nodes.values():
        if node.kind == INSTANCE and not tax.nearest_classes(node.id):
            raise FormatError(f"instance {node.id!r} has no class ancestor")
    return tax
