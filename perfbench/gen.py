"""Seeded input generator for the pipeline benchmark.

Writes a Zipf-distributed CoNLL-U corpus plus a hypernym taxonomy, a T=50
topic matrix, an expansion table and a gold file over one shared
vocabulary. Every sentence comes from a template whose extracted tuples
are written down here by hand, so the generator also returns the tuple
multiset a correct `mf extract` must produce; the checks in check.py
compare against it without importing `mf`.

The same seed gives the same bytes:

    python3 perfbench/gen.py --workload build --seed 7 --out /tmp/inputs
"""

import argparse
import bisect
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

TOPICS = 50
NOUN_EXPONENT = 1.0
PREPOSITIONS = ("in", "on", "into", "against", "from", "with", "for",
                "under", "over", "at", "through", "about")
MULTIWORD_PREP = ("out", "of")

# Vocabulary and corpus sizes. `scale` (run.py --scale) multiplies the
# corpus sizes only, so a tiny self-test run keeps the same shapes.
VOCAB = {"nouns": 2500, "verbs": 300, "adjs": 150, "advs": 40,
         "leaf_classes": 96, "top_classes": 8}
SIZES = {
    "build": {"sentences": 6000, "shards": 4},
    "metaphors": {"sentences": 8000, "targets": 18, "gold": 2},
    "retrieve": {"sentences": 4000, "island": 14},
}


class Zipf:
    """Draws items with probability proportional to 1 / rank**exponent."""

    def __init__(self, items, exponent=1.0):
        self.items = list(items)
        self.cum = []
        total = 0.0
        for rank in range(1, len(self.items) + 1):
            total += 1.0 / rank ** exponent
            self.cum.append(total)

    def draw(self, rng):
        return self.items[bisect.bisect(self.cum, rng.random() * self.cum[-1])]


@dataclass
class Vocabulary:
    nouns: list
    verbs: list
    adjs: list
    advs: list
    classes_of: dict          # noun -> tuple of leaf class ids (absent: unmapped)
    parent: dict              # class id -> parent class id (root has none)
    topic_vectors: dict       # lexeme -> tuple of TOPICS floats (absent: OOV)


def make_vocabulary(seed):
    rng = random.Random(f"{seed}|vocabulary")
    nouns = [f"n{r}" for r in range(1, VOCAB["nouns"] + 1)]
    verbs = [f"v{r}" for r in range(1, VOCAB["verbs"] + 1)]
    adjs = [f"a{r}" for r in range(1, VOCAB["adjs"] + 1)]
    advs = [f"adv{r}" for r in range(1, VOCAB["advs"] + 1)]
    tops = [f"k{i}" for i in range(1, VOCAB["top_classes"] + 1)]
    leaves = [f"c{i}" for i in range(1, VOCAB["leaf_classes"] + 1)]
    parent = {top: "entity" for top in tops}
    for i, leaf in enumerate(leaves):
        parent[leaf] = tops[i % len(tops)]
    parent[ISLAND_CLASS] = tops[0]
    classes_of = {noun: (ISLAND_CLASS,) for noun in (ISLAND_TARGET,) + ISLAND_NOUNS}
    for noun in nouns:
        roll = rng.random()
        if roll < 0.10:
            continue  # unmapped: generalization keeps the lexeme
        if roll < 0.15:
            classes_of[noun] = tuple(sorted(rng.sample(leaves, 2)))
        else:
            classes_of[noun] = (rng.choice(leaves),)
    # Nouns of one top class share a home topic, so the relatedness filter
    # drops candidate sources from the target's own top class.
    topic_vectors = {}
    for noun in nouns:
        if rng.random() < 0.10:
            continue  # out of the topic model's vocabulary
        if noun in classes_of:
            home = tops.index(parent[classes_of[noun][0]])
        else:
            home = rng.randrange(TOPICS)
        noise = [rng.random() for _ in range(TOPICS)]
        scale = 0.4 / sum(noise)
        vec = [x * scale for x in noise]
        vec[home] += 0.6
        topic_vectors[noun] = tuple(float(f"{x:.6g}") for x in vec)
    return Vocabulary(nouns, verbs, adjs, advs, classes_of, parent, topic_vectors)


# -- sentence templates -------------------------------------------------------
#
# A template returns (rows, tuples). Rows are (key, lemma, upos, head_key,
# deprel); keys are resolved to 1-based indices after optional determiners
# are inserted. `tuples` lists the (label, slots) that extraction must emit.


def _svo(d):
    s, v, o = d.noun(), d.verb(), d.noun()
    rows = [("s", s, "NOUN", "v", "nsubj"), ("v", v, "VERB", None, "root"),
            ("o", o, "NOUN", "v", "obj")]
    return rows, [("NV", (s, v)), ("VN", (v, o))]


def _svpn(d):
    s, v, n = d.noun(), d.verb(), d.noun()
    rows = [("s", s, "NOUN", "v", "nsubj"), ("v", v, "VERB", None, "root")]
    if d.rng.random() < 0.1:
        p = " ".join(MULTIWORD_PREP)
        rows += [("p", MULTIWORD_PREP[0], "ADP", "n", "case"),
                 ("p2", MULTIWORD_PREP[1], "ADP", "p", "fixed")]
    else:
        p = d.prep()
        rows.append(("p", p, "ADP", "n", "case"))
    rows.append(("n", n, "NOUN", "v", "obl"))
    return rows, [("NV", (s, v)), ("VPN", (v, p, n)), ("NVPN", (s, v, p, n))]


def _npn(d):
    n1, p, n2, v = d.noun(), d.prep(), d.noun(), d.verb()
    rows = [("n1", n1, "NOUN", "v", "nsubj"), ("p", p, "ADP", "n2", "case"),
            ("n2", n2, "NOUN", "n1", "nmod"), ("v", v, "VERB", None, "root")]
    return rows, [("NPN", (n1, p, n2)), ("NV", (n1, v))]


def _an(d):
    a, n, v = d.adj(), d.noun(), d.verb()
    rows = [("a", a, "ADJ", "n", "amod"), ("n", n, "NOUN", "v", "nsubj"),
            ("v", v, "VERB", None, "root")]
    return rows, [("AN", (a, n)), ("NV", (n, v))]


def _nvadv(d):
    s, v, adv = d.noun(), d.verb(), d.adv()
    rows = [("s", s, "NOUN", "v", "nsubj"), ("v", v, "VERB", None, "root"),
            ("adv", adv, "ADV", "v", "advmod")]
    return rows, [("NV", (s, v)), ("NVAdv", (s, v, adv))]


def _nn(d):
    m, h, v = d.noun(), d.noun(), d.verb()
    rows = [("m", m, "NOUN", "h", "compound"), ("h", h, "NOUN", "v", "nsubj"),
            ("v", v, "VERB", None, "root")]
    return rows, [("NN", (m, h)), ("NV", (h, v))]


def _nvv(d):
    s, v1, v2 = d.noun(), d.verb(), d.verb()
    rows = [("s", s, "NOUN", "v1", "nsubj"), ("v1", v1, "VERB", None, "root"),
            ("to", "to", "PART", "v2", "mark"), ("v2", v2, "VERB", "v1", "xcomp")]
    # the subject is propagated down the xcomp chain to v2
    return rows, [("NV", (s, v1)), ("NV", (s, v2)), ("NVV", (s, v1, v2))]


def _control(d):
    s, v1, v2, p, n = d.noun(), d.verb(), d.verb(), d.prep(), d.noun()
    rows = [("s", s, "NOUN", "v1", "nsubj"), ("v1", v1, "VERB", None, "root"),
            ("to", "to", "PART", "v2", "mark"), ("v2", v2, "VERB", "v1", "xcomp"),
            ("p", p, "ADP", "n", "case"), ("n", n, "NOUN", "v2", "obl")]
    return rows, [("NV", (s, v1)), ("NV", (s, v2)), ("NVV", (s, v1, v2)),
                  ("VPN", (v2, p, n)), ("NVPN", (s, v2, p, n)),
                  ("NVVPN", (s, v1, v2, p, n))]


def _passive(d):
    n, v, agent = d.noun(), d.verb(), d.noun()
    rows = [("n", n, "NOUN", "v", "nsubj:pass"), ("aux", "be", "AUX", "v", "aux:pass"),
            ("v", v, "VERB", None, "root"), ("by", "by", "ADP", "ag", "case"),
            ("ag", agent, "NOUN", "v", "obl:agent")]
    # the passive subject fills the object slot, the agent the subject slot
    return rows, [("VN", (v, n)), ("NV", (agent, v))]


def _advpn(d):
    v, a, p, n = d.verb(), d.adj(), d.prep(), d.noun()
    rows = [("s", "they", "PRON", "v", "nsubj"), ("v", v, "VERB", None, "root"),
            ("a", a, "ADJ", "v", "xcomp"), ("p", p, "ADP", "n", "case"),
            ("n", n, "NOUN", "a", "obl")]
    return rows, [("NV", ("they", v)), ("AdvPN", (a, p, n))]


def _interjection(d):
    return [("i", "hello", "INTJ", None, "root")], []


TEMPLATES = ((_svo, 25), (_svpn, 15), (_npn, 10), (_an, 10), (_nvadv, 6),
             (_nn, 8), (_nvv, 6), (_control, 6), (_passive, 6), (_advpn, 5),
             (_interjection, 3))


class _Draw:
    def __init__(self, rng, vocab):
        self.rng = rng
        self._nouns = Zipf(vocab.nouns, NOUN_EXPONENT)
        self._verbs = Zipf(vocab.verbs)
        self._adjs = Zipf(vocab.adjs)
        self._advs = Zipf(vocab.advs)

    def noun(self):
        return self._nouns.draw(self.rng)

    def verb(self):
        return self._verbs.draw(self.rng)

    def adj(self):
        return self._adjs.draw(self.rng)

    def adv(self):
        return self._advs.draw(self.rng)

    def prep(self):
        return self.rng.choice(PREPOSITIONS)


@dataclass
class Corpus:
    """Generated sentences, kept in memory for the output checks."""
    sentences: list = field(default_factory=list)   # (sent_id, tokens)
    planted: Counter = field(default_factory=Counter)


def _sentence(d):
    """One sentence as (tokens, tuples); tokens are (form, lemma, upos,
    head, deprel) with 1-based heads."""
    templates, weights = zip(*TEMPLATES)
    rows, tuples = d.rng.choices(templates, weights)[0](d)
    expanded = []
    for row in rows:
        if row[2] == "NOUN" and d.rng.random() < 0.3:
            expanded.append((row[0] + "#det", "the", "DET", row[0], "det"))
        expanded.append(row)
    root = next(r[0] for r in expanded if r[3] is None)
    expanded.append(("#punct", ".", "PUNCT", root, "punct"))
    index = {r[0]: i for i, r in enumerate(expanded, start=1)}
    tokens = [(lemma, lemma, upos, index[head] if head else 0, rel)
              for _, lemma, upos, head, rel in expanded]
    return tokens, tuples


ISLAND_TARGET = "t0"
ISLAND_NOUNS = tuple(f"t{i}" for i in range(1, 7))
ISLAND_VERBS = ("u1", "u2", "u3")
ISLAND_CLASS = "c0"


def _island_sentence(rng):
    """An svo sentence over the island vocabulary only."""
    nouns = (ISLAND_TARGET,) * 3 + ISLAND_NOUNS
    s, v, o = rng.choice(nouns), rng.choice(ISLAND_VERBS), rng.choice(nouns)
    tokens = [(s, s, "NOUN", 2, "nsubj"), (v, v, "VERB", 0, "root"),
              (o, o, "NOUN", 2, "obj"), (".", ".", "PUNCT", 2, "punct")]
    return tokens, [("NV", (s, v)), ("VN", (v, o))]


def make_corpus(seed, workload, sentences, vocab, id_prefix, island=0):
    """Zipf sentences, plus `island` sentences spread among them whose
    lexemes occur nowhere else, so retrieval over them finds about as many
    sentences per domain pair as it samples."""
    rng = random.Random(f"{seed}|{workload}|corpus")
    d = _Draw(rng, vocab)
    corpus = Corpus()
    island_at = set(rng.sample(range(1, sentences + 1), island))
    for n in range(1, sentences + 1):
        tokens, tuples = _island_sentence(rng) if n in island_at else _sentence(d)
        corpus.sentences.append((f"{id_prefix}{n}", tokens))
        corpus.planted.update(tuples)
    return corpus


def conllu_text(sentences, with_ids):
    out = []
    for sent_id, tokens in sentences:
        if with_ids:
            out.append(f"# sent_id = {sent_id}\n")
        for i, (form, lemma, upos, head, rel) in enumerate(tokens, start=1):
            out.append(f"{i}\t{form}\t{lemma}\t{upos}\t_\t_\t{head}\t{rel}\t_\t_\n")
        out.append("\n")
    return "".join(out)


# -- resources ------------------------------------------------------------------


def taxonomy_text(vocab):
    lines = ["NODES", "entity\tclass"]
    lines += [f"{c}\tclass" for c in vocab.parent]
    lines.append("EDGES")
    lines += [f"{c}\t{p}" for c, p in vocab.parent.items()]
    lines.append("LEXICON")
    for noun, classes in vocab.classes_of.items():
        lines += [f"{noun}\t{c}" for c in classes]
    return "\n".join(lines) + "\n"


def topics_text(vocab):
    lines = [f"T={TOPICS}"]
    for word in sorted(vocab.topic_vectors):
        lines.append(word + "\t" + "\t".join(repr(x) for x in vocab.topic_vectors[word]))
    return "\n".join(lines) + "\n"


def expansion_rows(seed, vocab, lexemes):
    """Two same-class relatives for each given lexeme and for 5% of all nouns."""
    rng = random.Random(f"{seed}|expansion")
    by_class = {}
    for noun in vocab.nouns:
        for c in vocab.classes_of.get(noun, ()):
            by_class.setdefault(c, []).append(noun)
    rows = set()
    for noun in vocab.nouns:
        if noun not in lexemes and rng.random() >= 0.05:
            continue
        pool = [m for c in vocab.classes_of.get(noun, ()) for m in by_class[c]
                if m != noun] or vocab.nouns
        for related in rng.sample(pool, min(2, len(pool))):
            rows.add((noun, "synonym", related))
    return sorted(rows)


def noun_ranking(planted):
    """Nouns of the corpus by tuple occurrences, most frequent first."""
    counts = Counter()
    for (label, slots), freq in planted.items():
        for role, slot in zip(label_roles(label), slots):
            if role == "N" and slot != "they":
                counts[slot] += freq
    return sorted(counts, key=lambda w: (-counts[w], w))


def spread_targets(ranking, count):
    """`count` nouns at geometrically spaced ranks, from hub to tail."""
    last = len(ranking) - 1
    picks = []
    for i in range(count):
        rank = round(last ** (i / (count - 1))) - 1 if count > 1 else 0
        rank = max(rank, picks[-1] + 1 if picks else 0)
        picks.append(min(rank, last))
    return [ranking[r] for r in dict.fromkeys(picks)]


_ROLE_RE = re.compile(r"Adv|[NVPA]")


def label_roles(label):
    return tuple(_ROLE_RE.findall(label))


# -- workloads ------------------------------------------------------------------


@dataclass
class Inputs:
    """Paths written plus everything the checks need to know."""
    workload: str
    corpus_paths: list
    taxonomy: Path
    topics: Path
    expansion: Path
    gold: Path
    targets: list
    corpus: Corpus
    vocab: Vocabulary
    expansion_table: dict      # lexeme -> set of related lexemes


def generate(workload, seed, out, scale=1.0):
    """Write the workload's inputs under `out` and return their description."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    size = SIZES[workload]
    vocab = make_vocabulary(seed)
    sentences = max(50, int(size["sentences"] * scale))
    corpus = make_corpus(seed, workload, sentences, vocab,
                         id_prefix=f"{workload[0]}{seed}-",
                         island=size.get("island", 0))
    ranking = noun_ranking(corpus.planted)

    corpus_paths = []
    if workload == "build":
        # shards carry no sent_id lines, like raw parser output
        shards = size["shards"]
        for i in range(shards):
            path = out / f"corpus.{i}.conllu"
            path.write_text(conllu_text(corpus.sentences[i::shards], False),
                            encoding="utf-8")
            corpus_paths.append(path)
    else:
        path = out / "corpus.conllu"
        path.write_text(conllu_text(corpus.sentences, True), encoding="utf-8")
        corpus_paths.append(path)

    if workload == "metaphors":
        targets = spread_targets(ranking, size["targets"])
    elif workload == "retrieve":
        # a hub, a mid-rank noun and the island target
        targets = [ranking[0], ranking[len(ranking) // 40], ISLAND_TARGET]
    else:
        targets = []

    # gold mappings at fixed ranks, so every seed asks for the same work
    gold_rows = []
    if workload == "metaphors":
        for g in range(1, size["gold"] + 1):
            gold_rows.append((f"g{g}", "T", ranking[len(ranking) * g // 8]))
            gold_rows += [(f"g{g}", "S", ranking[len(ranking) * (g + j) // 16])
                          for j in (1, 2, 3)]

    expansion = expansion_rows(seed, vocab, set(targets) | {r[2] for r in gold_rows})
    table = {}
    for lexeme, _, related in expansion:
        table.setdefault(lexeme, set()).add(related)

    paths = {name: out / name for name in
             ("taxonomy.tsv", "topics.tsv", "expansion.tsv", "gold.tsv")}
    paths["taxonomy.tsv"].write_text(taxonomy_text(vocab), encoding="utf-8")
    paths["topics.tsv"].write_text(topics_text(vocab), encoding="utf-8")
    paths["expansion.tsv"].write_text(
        "".join("\t".join(r) + "\n" for r in expansion), encoding="utf-8")
    paths["gold.tsv"].write_text(
        "".join("\t".join(r) + "\n" for r in gold_rows), encoding="utf-8")
    return Inputs(workload, corpus_paths, paths["taxonomy.tsv"],
                  paths["topics.tsv"], paths["expansion.tsv"], paths["gold.tsv"],
                  targets, corpus, vocab, table)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SIZES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    inputs = generate(args.workload, args.seed, args.out, args.scale)
    print(f"{len(inputs.corpus.sentences)} sentences, "
          f"{len(inputs.corpus.planted)} distinct tuples, targets: "
          f"{' '.join(inputs.targets) or '-'}")


if __name__ == "__main__":
    main()
