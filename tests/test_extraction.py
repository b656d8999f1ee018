import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import mf
from mf import (DEFAULT_RULES, Proposition, Sentence, Token, extract_propositions,
                iter_sentences, load_rules)
from mf.errors import FormatError
from mf.extraction import ExtractionRule, RuleArc, normalize_arcs
from mf.labels import label_roles
from mf.store import Occurrence

from .lexemes import trees

CONTROL_CHAIN = """\
# sent_id = school1
1\tJohn\tJohn\tPROPN\t_\t_\t2\tnsubj\t_\t_
2\tdecided\tdecide\tVERB\t_\t_\t0\troot\t_\t_
3\tto\tto\tPART\t_\t_\t4\tmark\t_\t_
4\tgo\tgo\tVERB\t_\t_\t2\txcomp\t_\t_
5\tto\tto\tADP\t_\t_\t6\tcase\t_\t_
6\tschool\tschool\tNOUN\t_\t_\t4\tobl\t_\t_
"""

MAJORITY = """\
1\tMajority\tmajority\tNOUN\t_\t_\t2\tnsubj\t_\t_
2\tlive\tlive\tVERB\t_\t_\t0\troot\t_\t_
3\tin\tin\tADP\t_\t_\t4\tcase\t_\t_
4\tpoverty\tpoverty\tNOUN\t_\t_\t2\tobl\t_\t_
"""


def _props(text, rules=None):
    sent = list(iter_sentences(text.splitlines(keepends=True)))[0]
    return {occ.prop for occ in extract_propositions(sent, rules)}


def test_control_chain_example():
    expected = {
        Proposition("NV", ("john", "decide")),
        Proposition("NV", ("john", "go")),
        Proposition("NVV", ("john", "decide", "go")),
        Proposition("VPN", ("go", "to", "school")),
        Proposition("NVPN", ("john", "go", "to", "school")),
        Proposition("NVVPN", ("john", "decide", "go", "to", "school")),
    }
    assert _props(CONTROL_CHAIN) == expected


def test_oblique_argument_projections():
    props = _props(MAJORITY)
    assert Proposition("NVPN", ("majority", "live", "in", "poverty")) in props
    assert Proposition("VPN", ("live", "in", "poverty")) in props


def test_punctuation_only_sentence():
    assert _props("1\t.\t.\tPUNCT\t_\t_\t0\troot\t_\t_\n") == set()


def test_deterministic():
    sent = list(iter_sentences(CONTROL_CHAIN.splitlines(keepends=True)))[0]
    first = extract_propositions(sent)
    for _ in range(3):
        assert extract_propositions(sent) == first


def test_slot_lemmas_come_from_sentence(corpus_sentences):
    for sent in corpus_sentences[:80]:
        lemmas = {t.lemma for t in sent.tokens}
        for occ in extract_propositions(sent):
            # multiword prepositions are joined from several tokens
            for slot in occ.prop.slots:
                assert all(part in lemmas for part in slot.split(" "))


def test_projection_closure(corpus_sentences):
    for sent in corpus_sentences:
        props = {occ.prop for occ in extract_propositions(sent)}
        for prop in props:
            if prop.label == "NVPN":
                s, v, p, n = prop.slots
                assert Proposition("VPN", (v, p, n)) in props
                assert Proposition("NV", (s, v)) in props


def test_provenance_indices():
    sent = list(iter_sentences(CONTROL_CHAIN.splitlines(keepends=True)))[0]
    by_label = {occ.prop.label: occ for occ in extract_propositions(sent)
                if occ.prop.label in ("NVVPN",)}
    assert by_label["NVVPN"].token_indices == (1, 2, 4, 5, 6)
    assert by_label["NVVPN"].sentence_id == "school1"


def test_passive_normalization():
    text = ("1\tPoverty\tpoverty\tNOUN\t_\t_\t3\tnsubj:pass\t_\t_\n"
            "2\twas\tbe\tAUX\t_\t_\t3\taux:pass\t_\t_\n"
            "3\teliminated\teliminate\tVERB\t_\t_\t0\troot\t_\t_\n"
            "4\tby\tby\tADP\t_\t_\t5\tcase\t_\t_\n"
            "5\tgovernment\tgovernment\tNOUN\t_\t_\t3\tobl:agent\t_\t_\n")
    props = _props(text)
    assert Proposition("VN", ("eliminate", "poverty")) in props
    assert Proposition("NV", ("government", "eliminate")) in props


def test_multiword_preposition_slot():
    text = ("1\tNations\tnation\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
            "2\tclimb\tclimb\tVERB\t_\t_\t0\troot\t_\t_\n"
            "3\tout\tout\tADP\t_\t_\t5\tcase\t_\t_\n"
            "4\tof\tof\tADP\t_\t_\t3\tfixed\t_\t_\n"
            "5\tpoverty\tpoverty\tNOUN\t_\t_\t2\tobl\t_\t_\n")
    props = _props(text)
    assert Proposition("VPN", ("climb", "out of", "poverty")) in props


def test_adjective_and_compound_rules():
    text = ("1\tChronic\tchronic\tADJ\t_\t_\t2\tamod\t_\t_\n"
            "2\tpoverty\tpoverty\tNOUN\t_\t_\t3\tnsubj\t_\t_\n"
            "3\tpersists\tpersist\tVERB\t_\t_\t0\troot\t_\t_\n")
    assert Proposition("AN", ("chronic", "poverty")) in _props(text)
    text = ("1\tPoverty\tpoverty\tNOUN\t_\t_\t2\tcompound\t_\t_\n"
            "2\teradication\teradication\tNOUN\t_\t_\t3\tnsubj\t_\t_\n"
            "3\thelps\thelp\tVERB\t_\t_\t0\troot\t_\t_\n")
    assert Proposition("NN", ("poverty", "eradication")) in _props(text)


def _flat_arcs(sentence):
    """The (head, dep, rel) arcs of `normalize_arcs`' index, each of which
    must appear in it once, and the same arcs in both of its maps."""
    by_rel, by_head = normalize_arcs(sentence)
    arcs = [(head, dep, rel) for rel, pairs in by_rel.items() for head, dep in pairs]
    assert len(set(arcs)) == len(arcs)
    assert sorted(arcs) == sorted((head, dep, rel) for (head, rel), deps in by_head.items()
                                  for dep in deps)
    return set(arcs)


def test_normalize_arcs_propagates_subject_down_chain():
    text = ("1\tJohn\tjohn\tPROPN\t_\t_\t2\tnsubj\t_\t_\n"
            "2\ttried\ttry\tVERB\t_\t_\t0\troot\t_\t_\n"
            "3\tto\tto\tPART\t_\t_\t4\tmark\t_\t_\n"
            "4\tstart\tstart\tVERB\t_\t_\t2\txcomp\t_\t_\n"
            "5\tto\tto\tPART\t_\t_\t6\tmark\t_\t_\n"
            "6\trun\trun\tVERB\t_\t_\t4\txcomp\t_\t_\n")
    sent = list(iter_sentences(text.splitlines(keepends=True)))[0]
    arcs = _flat_arcs(sent)
    assert (4, 1, "nsubj") in arcs
    assert (6, 1, "nsubj") in arcs
    props = {occ.prop for occ in extract_propositions(sent)}
    assert Proposition("NV", ("john", "run")) in props


# each token is the other's xcomp head; iter_sentences refuses the cycle, but
# extract_propositions takes any Sentence
XCOMP_CYCLE = Sentence("cycle", (Token(1, "try", "try", "VERB", 2, "xcomp"),
                                 Token(2, "start", "start", "VERB", 1, "xcomp")))


def test_xcomp_cycle_ends_the_subject_walk():
    # in a child process, so that a walk that never ends fails the test
    # instead of hanging the suite
    code = ("from mf import Sentence, Token, extract_propositions\n"
            f"print(extract_propositions({XCOMP_CYCLE!r}))\n")
    package_root = str(Path(mf.__file__).parents[1])
    out = subprocess.run([sys.executable, "-B", "-c", code], check=True, timeout=10,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=package_root))
    assert out.stdout == "[]\n"


@pytest.mark.parametrize("head", [4, -1])
def test_arc_to_a_head_outside_the_sentence_is_left_out(head):
    # not validate()d; -1 must not be read as the last token, the VERB
    sent = Sentence("d", (Token(1, "john", "john", "PROPN", head, "nsubj"),
                          Token(2, "runs", "run", "VERB", 0, "root"),
                          Token(3, "fast", "fast", "VERB", head, "nsubj")))
    assert _flat_arcs(sent) == set()
    assert extract_propositions(sent) == []


def test_one_slot_rule_emits_one_slot_tuples():
    rule = ExtractionRule("N", (RuleArc("v", "s", frozenset({"nsubj"})),), {}, ("s",))
    assert _props(MAJORITY, [rule]) == {Proposition("N", ("majority",))}


def test_rules_share_a_first_arc_only_when_it_binds_the_same_pairs():
    # a rule's first-arc bindings are reused by later rules with the same
    # relations and UPOS sets; "nsubj,obj" is one relation name, not two
    def nv(rels):
        return ExtractionRule("NV", (RuleArc("v", "s", frozenset(rels)),), {}, ("s", "v"))
    one_name, two_names = nv({"nsubj,obj"}), nv({"nsubj", "obj"})
    assert _props(MAJORITY, [one_name, two_names]) == {Proposition("NV", ("majority", "live"))}
    assert _props(MAJORITY, [two_names, one_name]) == {Proposition("NV", ("majority", "live"))}


def test_rule_validation_errors():
    with pytest.raises(FormatError):
        ExtractionRule("NV", (RuleArc("v", "s", frozenset({"nsubj"})),),
                       {}, ("s",))  # wrong slot count
    with pytest.raises(FormatError):
        ExtractionRule("NV", (RuleArc("v", "s", frozenset({"nsubj"})),
                              RuleArc("x", "y", frozenset({"obj"}))),
                       {}, ("s", "v"))  # disconnected template
    with pytest.raises(FormatError, match="self-loop"):
        ExtractionRule("NV", (RuleArc("v", "s", frozenset({"nsubj"})),
                              RuleArc("s", "s", frozenset({"amod"}))),
                       {}, ("s", "v"))


def test_load_rules_roundtrip(tmp_path):
    rules_json = [{
        "label": "VN",
        "arcs": [{"head": "v", "dep": "o", "rels": ["obj"]}],
        "upos": {"v": ["VERB"], "o": ["NOUN"]},
        "slots": ["v", "o"],
    }]
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(rules_json), encoding="utf-8")
    rules = load_rules(path)
    assert len(rules) == 1
    text = ("1\tFight\tfight\tVERB\t_\t_\t0\troot\t_\t_\n"
            "2\tpoverty\tpoverty\tNOUN\t_\t_\t1\tobj\t_\t_\n")
    assert _props(text, rules) == {Proposition("VN", ("fight", "poverty"))}


def test_default_inventory_labels():
    assert {r.label for r in DEFAULT_RULES} == {
        "NV", "VN", "NVV", "VPN", "NPN", "NVPN", "NVVPN", "NN", "AN",
        "AdvPN", "NVAdv"}


NV_ENTRY = {"label": "NV", "arcs": [{"head": "v", "dep": "s", "rels": ["nsubj"]}],
            "upos": {"v": ["VERB"], "s": ["NOUN"]}, "slots": ["s", "v"]}


@pytest.mark.parametrize("change", [
    {"arcs": [{"head": "v", "dep": "s", "rels": "nsubj"}]},
    {"upos": {"v": "VERB"}},
    {"upos": {"vv": ["NOUN"]}},
    {"slots": "sv"},
    {"arcs": NV_ENTRY["arcs"] + [{"head": "s", "dep": "s", "rels": ["amod"]}]},
], ids=["rels-string", "upos-string", "upos-unknown-variable", "slots-string",
        "self-loop"])
def test_load_rules_rejects_misread_entries(tmp_path, change):
    # each of these but the self-loop once loaded: a string was read as the
    # set or tuple of its characters, and a UPOS set on a variable no arc
    # binds was ignored
    path = tmp_path / "rules.json"
    path.write_text(json.dumps([NV_ENTRY, {**NV_ENTRY, **change}]), encoding="utf-8")
    with pytest.raises(FormatError) as err:
        load_rules(path)
    assert err.value.row == 2


# The recursive backtracking matcher and fixpoint normalization that the
# one-arc-at-a-time join and the one-pass xcomp walk replaced, kept as the
# reference the properties below check them against.

def _reference_normalize(sentence):
    arcs = set()
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
    changed = True
    while changed:
        changed = False
        has_subj = {h for h, _, r in arcs if r == "nsubj"}
        for head, dep, rel in sorted(arcs):
            if rel != "xcomp" or dep in has_subj:
                continue
            for h2, subj, r2 in sorted(arcs):
                if h2 == head and r2 == "nsubj":
                    arcs.add((dep, subj, r2))
                    changed = True
    return arcs


def _reference_slot_lemma(sentence, index, role, arcs):
    lemmas = {tok.index: tok.lemma for tok in sentence.tokens}
    parts = [index]
    if role == "P":
        parts += sorted(dep for head, dep, rel in arcs if head == index and rel == "fixed")
    return " ".join(lemmas[i] for i in parts)


def _reference_match(rule, sentence, children):
    def upos_ok(var, index):
        allowed = rule.upos.get(var)
        return not allowed or sentence.tokens[index - 1].upos in allowed

    def extend(arc_i, binding):
        if arc_i == len(rule.arcs):
            yield dict(binding)
            return
        arc = rule.arcs[arc_i]
        for dep_idx, rel in children.get(binding[arc.head], ()):
            if rel not in arc.rels or not upos_ok(arc.dep, dep_idx):
                continue
            if arc.dep in binding:
                if binding[arc.dep] != dep_idx:
                    continue
                yield from extend(arc_i + 1, binding)
            else:
                if dep_idx in binding.values():
                    continue
                binding[arc.dep] = dep_idx
                yield from extend(arc_i + 1, binding)
                del binding[arc.dep]

    anchor = rule.arcs[0].head
    for tok in sentence.tokens:
        if upos_ok(anchor, tok.index):
            yield from extend(0, {anchor: tok.index})


def _reference_extract(sentence, rules):
    arcs = _reference_normalize(sentence)
    children = {}
    for head, dep, rel in arcs:
        children.setdefault(head, []).append((dep, rel))
    seen, results = set(), []
    for rule in rules:
        roles = label_roles(rule.label)
        for binding in _reference_match(rule, sentence, children):
            indices = tuple(binding[v] for v in rule.slots)
            if (rule.label, indices) in seen:
                continue
            seen.add((rule.label, indices))
            slots = tuple(_reference_slot_lemma(sentence, idx, roles[i], arcs)
                          for i, idx in enumerate(indices))
            results.append(Occurrence(Proposition(rule.label, slots), sentence.id, indices))
    results.sort(key=lambda occ: (occ.prop.label, occ.token_indices))
    return results


UPOS = ("VERB", "NOUN", "PROPN", "PRON", "ADP", "ADJ", "ADV", "DET")
RELS = ("nsubj", "obj", "obl", "nmod", "xcomp", "ccomp", "case", "fixed",
        "amod", "advmod", "compound")
# xcomp and nsubj are drawn more often, so that subjects reach down xcomp
# chains of two links and more
SENTENCES = trees("s", upos=UPOS, max_size=8,
                  deprels=RELS + ("nsubj:pass", "obl:agent", "root") + ("xcomp", "nsubj") * 4)
THREE_LINK_CHAIN = list(iter_sentences([
    "1\tJohn\tjohn\tPROPN\t_\t_\t2\tnsubj\t_\t_\n",
    "2\ttried\ttry\tVERB\t_\t_\t0\troot\t_\t_\n",
    "3\tstarting\tstart\tVERB\t_\t_\t2\txcomp\t_\t_\n",
    "4\tplanning\tplan\tVERB\t_\t_\t3\txcomp\t_\t_\n",
    "5\trun\trun\tVERB\t_\t_\t4\txcomp\t_\t_\n"]))[0]
LABELS = {2: "NV", 3: "NVV", 4: "NVPN", 5: "NVVPN"}


@st.composite
def rules(draw):
    """A connected rule over up to five variables. An arc's dependent may be
    a variable an earlier arc bound, and a UPOS set may be empty."""
    variables = ["a"]
    arcs = []
    for _ in range(draw(st.integers(1, 4))):
        head = draw(st.sampled_from(variables))
        fresh = chr(ord("a") + len(variables))
        dep = draw(st.sampled_from([v for v in variables if v != head] + [fresh]))
        if dep == fresh:
            variables.append(fresh)
        rels = draw(st.frozensets(st.sampled_from(RELS), min_size=1, max_size=3))
        arcs.append(RuleArc(head, dep, rels))
    upos = draw(st.dictionaries(st.sampled_from(variables),
                                st.frozensets(st.sampled_from(UPOS), max_size=3)))
    slots = draw(st.permutations(variables))[:draw(st.integers(2, len(variables)))]
    return ExtractionRule(LABELS[len(slots)], tuple(arcs), upos, tuple(slots))


@settings(max_examples=500, deadline=None)
@given(SENTENCES)
@example(THREE_LINK_CHAIN)
@example(XCOMP_CYCLE)
def test_default_rules_match_the_reference(sentence):
    assert _flat_arcs(sentence) == _reference_normalize(sentence)
    assert extract_propositions(sentence) == _reference_extract(sentence, DEFAULT_RULES)


@settings(max_examples=500, deadline=None)
@given(SENTENCES, st.lists(rules(), min_size=1, max_size=3))
def test_generated_rules_match_the_reference(sentence, rule_list):
    assert (extract_propositions(sentence, rule_list)
            == _reference_extract(sentence, rule_list))
