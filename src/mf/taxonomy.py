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

Checks that name their row: a row before any section header, a row with
the wrong number of columns, a kind other than class or instance, a node
listed again with another kind, a NAMES type other than given or surname,
and a second PERSON row. Checks on the whole graph, which name the node:
an edge, lexical item or PERSON class naming no node, a hypernym cycle,
and an instance with no class above it. Each check is linear in the size
of the graph, so chains of any depth load.
"""

from collections.abc import Iterable, Mapping
from graphlib import CycleError, TopologicalSorter
from typing import Optional

from . import textio
from .errors import FormatError
from .textio import TextSource

CLASS = "class"
INSTANCE = "instance"


def _normalize(item: str) -> str:
    return " ".join(item.lower().replace("_", " ").split())


class Taxonomy:
    """A hypernym graph of class and instance nodes, with the lexical items
    and person names filed under its nodes.

    kinds maps each node to "class" or "instance", parents each child to
    its parent nodes, and lexicon each lexical item to its nodes; names
    are the given names and surnames that map to the person class. Items
    and names are normalized here, so a taxonomy built directly maps nouns
    as a loaded one does.
    """

    def __init__(self, kinds: Mapping[str, str],
                 parents: Mapping[str, Iterable[str]],
                 lexicon: Mapping[str, Iterable[str]],
                 names: Iterable[str] = (), person: Optional[str] = None):
        self.kinds = dict(kinds)
        for child, ps in parents.items():
            for node in (child, *ps):
                if node not in self.kinds:
                    raise FormatError(f"edge to unknown node {node!r}")
        self.parents = {n: frozenset(parents.get(n, ())) for n in self.kinds}
        self.lexicon: dict[str, set[str]] = {}
        for item, nodes in lexicon.items():
            for node in nodes:
                if node not in self.kinds:
                    raise FormatError(f"LEXICON references unknown node {node!r}")
                self.lexicon.setdefault(_normalize(item), set()).add(node)
        # each word of a multiword item -> the items it occurs in
        self.words: dict[str, set[str]] = {}
        for item in self.lexicon:
            if " " in item:
                for w in item.split(" "):
                    self.words.setdefault(w, set()).add(item)
        if person is not None and person not in self.kinds:
            raise FormatError(f"PERSON references unknown node {person!r}")
        self.names = frozenset(map(_normalize, names))
        self.person = person
        try:
            # sorted parents: the search, and so the node the error names,
            # must not follow the string hash seed
            TopologicalSorter({n: sorted(ps)
                               for n, ps in self.parents.items()}).prepare()
        except CycleError as exc:
            raise FormatError(f"hypernym cycle through {exc.args[1][0]!r}") from None
        # the graph is acyclic, so every upward climb ends at a parentless
        # node: an instance lacks a class above it exactly when it climbs
        # through instances only to a parentless one, which is named here
        for node, kind in self.kinds.items():
            if kind == INSTANCE and not self.parents[node]:
                raise FormatError(f"instance {node!r} has no class ancestor")
        self._ancestors: dict[str, frozenset[str]] = {}

    def ancestors(self, node: str) -> frozenset[str]:
        """The node and every node above it over parent edges."""
        cached = self._ancestors.get(node)
        if cached is None:
            out = {node}
            stack = list(self.parents[node])
            while stack:
                cur = stack.pop()
                if cur not in out:
                    out.add(cur)
                    stack.extend(self.parents[cur])
            cached = self._ancestors[node] = frozenset(out)
        return cached

    def classes(self, nodes: Iterable[str]) -> set[str]:
        """The class nodes among nodes; if there are none, the nearest
        classes above them, reached upward through instances only."""
        frontier = set(nodes)
        found = {n for n in frontier if self.kinds[n] == CLASS}
        if found:
            return found
        seen = set(frontier)
        while frontier:
            above: set[str] = set()
            for node in frontier:
                for parent in self.parents[node] - seen:
                    seen.add(parent)
                    (found if self.kinds[parent] == CLASS else above).add(parent)
            frontier = above
        return found


def map_noun(noun: str, tax: Taxonomy) -> set[str]:
    """Map a single noun lexeme to taxonomy class node ids.

    Order: given name / surname -> person class; node-id match; exact
    lexical match; whole-word match inside multiword lexical items. Class
    nodes win over instances; instance-only candidates are lifted to their
    nearest class ancestors. No candidates -> empty set (caller keeps the
    original lexeme).
    """
    q = _normalize(noun)
    if tax.person and q in tax.names:
        return {tax.person}
    if noun in tax.kinds:
        # generalized stores carry class ids in noun slots already
        return tax.classes({noun})
    nodes = tax.lexicon.get(q) or set().union(
        *(tax.lexicon[item] for item in tax.words.get(q, ())))
    return tax.classes(nodes)


# section name -> the shape of its rows
_SECTIONS = {
    "NODES": "id <TAB> class|instance",
    "EDGES": "child <TAB> parent",
    "LEXICON": "item <TAB> node",
    "NAMES": "name <TAB> given|surname",
    "PERSON": "one node id, in one row",
}


def load_taxonomy(source: TextSource) -> Taxonomy:
    """Read the sectioned taxonomy TSV described in the module docstring."""
    section = None
    kinds: dict[str, str] = {}
    parents: dict[str, list[str]] = {}
    lexicon: dict[str, list[str]] = {}
    names: list[str] = []
    person: Optional[str] = None

    for rowno, cols in textio.rows(source):
        name = "\t".join(cols).strip()
        if name in _SECTIONS:
            section = name
            continue
        if section is None:
            raise FormatError("row before any section header", rowno)
        if len(cols) != (1 if section == "PERSON" else 2) or (
                section == "NODES" and cols[1] not in (CLASS, INSTANCE)) or (
                section == "NAMES" and cols[1] not in ("given", "surname")) or (
                section == "PERSON" and person is not None):
            raise FormatError(f"{section} rows take: {_SECTIONS[section]}", rowno)
        if section == "NODES":
            if kinds.setdefault(cols[0], cols[1]) != cols[1]:
                raise FormatError(f"node {cols[0]!r} listed again as {cols[1]}",
                                  rowno)
        elif section == "EDGES":
            parents.setdefault(cols[0], []).append(cols[1])
        elif section == "LEXICON":
            lexicon.setdefault(cols[0], []).append(cols[1])
        elif section == "NAMES":
            names.append(cols[0])
        else:
            person = cols[0]
    return Taxonomy(kinds, parents, lexicon, names, person)
