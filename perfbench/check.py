"""Output checks for the pipeline benchmark.

Nothing here imports `mf`: stores are read as plain TSV, and source
weights, domain expansions and retrieval counts are recomputed by brute
force from the store rows and the generator's own vocabulary. Each check
returns a list of error strings; an empty list means the artifact passed.
"""

import itertools
import json
import re
from collections import Counter

from gen import label_roles

WEIGHT_TOL = 1e-9
_SUMMARY = re.compile(r"found (\d+) of (\d+)$")


def read_store(path):
    counts = Counter()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            cols = line.rstrip("\n").split("\t")
            counts[(cols[0], tuple(cols[1:-1]))] += int(cols[-1])
    return counts


def store_errors(path, expected):
    got = read_store(path)
    if got == expected:
        return []
    missing = expected - got
    extra = got - expected
    return [f"{path.name}: {sum(missing.values())} expected tuple counts missing, "
            f"{sum(extra.values())} unexpected (e.g. "
            f"{next(iter(missing or extra))})"]


def generalized(planted, classes_of):
    """The tuple multiset with every noun slot rewritten to its classes;
    an ambiguous noun fans out and each copy keeps the full frequency."""
    out = Counter()
    for (label, slots), freq in planted.items():
        options = [classes_of.get(s, (s,)) if role == "N" else (s,)
                   for role, s in zip(label_roles(label), slots)]
        for combo in itertools.product(*options):
            out[(label, combo)] += freq
    return out


def _key(label, slots, pos):
    return (label, pos, slots[:pos] + slots[pos + 1:])


def pattern_text(key):
    label, pos, rest = key
    return " ".join((label,) + rest[:pos] + ("_",) + rest[pos:])


class BruteStore:
    """Store queries recomputed directly from the tuple counts."""

    def __init__(self, counts):
        self.counts = counts
        self.totals = Counter()
        self.fillers = {}
        self.by_lexeme = {}
        for (label, slots), freq in counts.items():
            for pos, lexeme in enumerate(slots):
                key = _key(label, slots, pos)
                self.totals[key] += freq
                self.fillers.setdefault(key, []).append((lexeme, freq))
                self.by_lexeme.setdefault(lexeme, []).append((label, slots, pos))

    def sources(self, target):
        """lexeme -> [weight, evidence_freq, set of pattern keys]."""
        acc = {}
        for label, slots, pos in self.by_lexeme.get(target, ()):
            key = _key(label, slots, pos)
            weight = self.counts[(label, slots)] / self.totals[key]
            for lexeme, freq in self.fillers[key]:
                if lexeme == target:
                    continue
                entry = acc.setdefault(lexeme, [0.0, 0, set()])
                entry[0] += weight
                entry[1] += freq
                entry[2].add(key)
        return acc

    def salient(self, lexeme, top_p):
        ranked = []
        for label, slots, pos in self.by_lexeme.get(lexeme, ()):
            freq = self.counts[(label, slots)]
            ranked.append((-freq / self.totals[_key(label, slots, pos)], -freq,
                           label, slots, pos))
        ranked.sort()
        return ranked[:top_p]

    def expand(self, seed, table, top_p):
        out = set(seed)
        for lexeme in seed:
            out |= table.get(lexeme, set())
            for _, _, label, slots, pos in self.salient(lexeme, top_p):
                out |= {s for i, (role, s) in enumerate(zip(label_roles(label), slots))
                        if i != pos and role != "P"}
        return out


def _relatedness(vectors, a, b):
    return sum(x * y for x, y in zip(vectors[a], vectors[b]))


def read_sources(path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            lexeme, weight, count, patterns = line.rstrip("\n").split("\t")
            rows.append((lexeme, float(weight), int(count),
                         set(patterns.split("|")) if patterns else set()))
    return rows


def surviving_sources(target, brute, vectors, threshold, top_sources):
    """Brute-force ranking after the relatedness filter, as
    [(lexeme, [weight, evidence_freq, pattern keys])]."""
    candidates = brute.sources(target)
    kept = [(lex, entry) for lex, entry in candidates.items()
            if target not in vectors or lex not in vectors
            or _relatedness(vectors, target, lex) <= threshold]
    kept.sort(key=lambda item: (-item[1][0], -item[1][1], item[0]))
    return kept[:top_sources]


def sources_errors(path, target, brute, vectors, threshold, top_sources):
    """Weights, evidence and ranking of one sources.<t>.tsv against brute force."""
    candidates = brute.sources(target)
    expected = surviving_sources(target, brute, vectors, threshold, top_sources)
    rows = read_sources(path)
    errors = []
    if len(rows) != len(expected):
        return [f"{path.name}: {len(rows)} sources, expected {len(expected)}"]
    for (lexeme, weight, count, patterns), (_, (exp_weight, _, _)) in zip(rows, expected):
        if abs(weight - exp_weight) > WEIGHT_TOL:
            errors.append(f"{path.name}: rank of {lexeme} holds weight {weight}, "
                          f"expected {exp_weight}")
        entry = candidates.get(lexeme)
        if entry is None:
            errors.append(f"{path.name}: {lexeme} is not a candidate source")
            continue
        if abs(weight - entry[0]) > WEIGHT_TOL:
            errors.append(f"{path.name}: {lexeme} weight {weight}, brute force {entry[0]}")
        if count != len(entry[2]) or patterns != {pattern_text(k) for k in entry[2]}:
            errors.append(f"{path.name}: {lexeme} evidence patterns differ")
    # a different set is allowed only through a tie at the cut-off
    cut = expected[-1][1][0] if expected else 0.0
    differ = {r[0] for r in rows} ^ {lex for lex, _ in expected}
    if any(abs(candidates[lex][0] - cut) > WEIGHT_TOL
           for lex in differ if lex in candidates):
        errors.append(f"{path.name}: source set differs from brute force")
    return errors[:5]


def cms_errors(path, target, brute, vocab, params):
    """Every CM has >= k patterns, its members are sources that survived the
    filter and sit under its node, and its patterns and weight follow from
    those members."""
    survivors = {lex: entry for lex, entry in surviving_sources(
        target, brute, vocab.topic_vectors, params["threshold"], params["top_sources"])}
    errors = []

    def ancestors(cls):
        out = {cls}
        while cls in vocab.parent:
            cls = vocab.parent[cls]
            out.add(cls)
        return out

    for rec in json.loads(path.read_text(encoding="utf-8")):
        node = rec["source_node"]
        if len(rec["patterns"]) < params["k"]:
            errors.append(f"{path.name}: {node} has {len(rec['patterns'])} patterns")
        union = set()
        for member in rec["members"]:
            lexeme = member["lexeme"]
            entry = survivors.get(lexeme)
            if entry is None or abs(entry[0] - member["weight"]) > WEIGHT_TOL:
                errors.append(f"{path.name}: member {lexeme} of {node} is not a "
                              "surviving source with that weight")
                continue
            union |= {pattern_text(k) for k in entry[2]}
            if not any(node in ancestors(c) for c in vocab.classes_of.get(lexeme, ())):
                errors.append(f"{path.name}: member {lexeme} is not under {node}")
        if set(rec["patterns"]) != union:
            errors.append(f"{path.name}: patterns of {node} are not its members' evidence")
        total = sum(m["weight"] for m in rec["members"])
        if abs(rec["weight"] - total) > WEIGHT_TOL:
            errors.append(f"{path.name}: weight of {node} is {rec['weight']}, "
                          f"members sum to {total}")
    return errors[:5]


def gold_errors(path, mappings):
    lines = path.read_text(encoding="utf-8").splitlines()
    m = _SUMMARY.match(lines[-1]) if lines else None
    if not m or int(m.group(2)) != len(mappings) or int(m.group(1)) > len(mappings):
        return [f"{path.name}: bad summary line for {len(mappings)} mappings"]
    names = [line.split(":", 1)[0] for line in lines[:-1]]
    if names != mappings:
        return [f"{path.name}: mapping lines {names}, expected {mappings}"]
    scaled = [float(x) for x in re.findall(r"\((\d+\.\d+)\)", "\n".join(lines))]
    if any(not 0.0 <= x <= 1.0 for x in scaled):
        return [f"{path.name}: scaled weight outside [0, 1]"]
    return []


def lms_errors(path, cms_path, sentences, brute, table, top_p, per_pair):
    """Each sampled hit is a real arc of its sentence linking the two
    expanded domains; each pair keeps min(per_pair, distinct sentences)."""
    by_id = dict(sentences)
    errors = []
    expected = {}
    domains = {}
    for rec in json.loads(cms_path.read_text(encoding="utf-8")):
        pair = (",".join(sorted(rec["target"])), rec["source_node"])
        targets = brute.expand(set(rec["target"]), table, top_p)
        sources = brute.expand({m["lexeme"] for m in rec["members"]}, table, top_p)
        domains[pair] = (targets, sources)
        distinct = 0
        for _, tokens in sentences:
            for _, lemma, _, head, _ in tokens:
                if head == 0:
                    continue
                other = tokens[head - 1][1]
                if (lemma in targets and other in sources) or \
                        (other in targets and lemma in sources):
                    distinct += 1
                    break
        expected[pair] = min(per_pair, distinct)
    got = Counter()
    seen = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        hit = json.loads(line)
        pair = (hit["target_domain"], hit["source_domain"])
        got[pair] += 1
        if (pair, hit["sentence_id"]) in seen:
            errors.append(f"{path.name}: sentence {hit['sentence_id']} sampled twice")
        seen.add((pair, hit["sentence_id"]))
        tokens = by_id.get(hit["sentence_id"])
        if tokens is None or pair not in domains:
            errors.append(f"{path.name}: unknown sentence or pair in {hit}")
            continue
        if hit["text"] != " ".join(t[0] for t in tokens):
            errors.append(f"{path.name}: text of {hit['sentence_id']} differs")
        targets, sources = domains[pair]
        if hit["target"] not in targets or hit["source"] not in sources:
            errors.append(f"{path.name}: {hit['target']}/{hit['source']} outside {pair}")
        headed = hit["direction"] == "target-headed"
        if not any(rel == hit["deprel"] and head
                   and (tokens[head - 1][1], lemma) == ((hit["target"], hit["source"])
                                                        if headed else
                                                        (hit["source"], hit["target"]))
                   for _, lemma, _, head, rel in tokens):
            errors.append(f"{path.name}: no {hit['deprel']} arc for {hit}")
    if dict(got) != {p: n for p, n in expected.items() if n}:
        errors.append(f"{path.name}: hits per pair {dict(got)}, expected {expected}")
    return errors[:5]
