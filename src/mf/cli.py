"""Command-line pipeline: extract, generalize, properties, sources, cms,
find-lms, eval-gold.

Each stage reads its predecessors' artifacts from the work directory and
writes its own, so re-running a stage on unchanged inputs is byte-identical:

    store.tsv -> store.gen.tsv -> properties.<t>.tsv
                               -> sources.<t>.tsv
                               -> cms.<t>.json -> lms.<t>.jsonl
                               -> gold_report.txt
    store.tsv.idx, store.gen.tsv.idx   (index caches beside their store)
    topics.vec                         (cache of the topic vectors)
    <shard>.snt                        (cache of a corpus shard's sentences)

The stages after generalize read store.gen.tsv (store.tsv under
--no-generalize); cms ranks sources from the store, not sources.<t>.tsv.

Every stage takes --config, --workdir and --no-generalize, and besides them
only the flags it reads (_STAGES); the config file may set any key. Only
extract creates the work directory.

store.tsv.idx and store.gen.tsv.idx hold the index of their store. They
are a cache: the first stage that queries a store writes its index file,
and later stages read it in place of the store. A stage reads one only when
both sha256 digests in its header match (of the store bytes that a parse
read, hashed as they streamed, so no stage holds a copy of the file, and
of the index's own payload), and otherwise rebuilds it; extract and
generalize never write one. Both are safe to delete.

topics.vec caches the checked vectors of the topic matrix in the same
cache-file format. sources, cms and eval-gold read it in place of the
matrix while its header holds the sha256 of the matrix file's bytes, and
otherwise parse the matrix, hashing it as it streams, and write it again;
no other stage writes it. It is safe to delete.

<shard>.snt, named after each corpus shard's file name, caches the shard's
checked sentences in the same cache-file format. Only find-lms reads or
writes it: it reads it in place of the shard while its header holds the
sha256 of the shard's bytes and it names the shard's file name, and
otherwise parses the shard and writes it again once every sentence has
passed its checks. extract always parses. It is safe to delete.
"""

import argparse
import json
import sys
from pathlib import Path
from typing import Iterable

from . import engine, generalize, gold as gold_mod, textio
from .config import PipelineConfig, load_config, read_field
from .conllu import iter_sentences
from .errors import ConfigError, FormatError, MFError
from .extraction import DEFAULT_RULES, extract_propositions, load_rules
from .lm import expand_domain, find_lms, load_expansion_table, sample_hits
from .store import Store, merge_stores
from .taxonomy import load_taxonomy
from .topics import load_topic_matrix


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _need(path: str | None, what: str) -> Path:
    if not path:
        raise MFError(f"no {what} configured (set it in the config file or pass the flag)")
    p = Path(path)
    if not p.exists():
        raise MFError(f"{what} not found: {p}")
    return p


# every flag a stage may take, with its argparse options; argparse names
# the field each sets after it, and `read_field` reads the flag's text
_FLAGS = {
    "--config": dict(help="key=value configuration file"),
    "--workdir": dict(help="artifact directory (default: out)"),
    "--no-generalize": dict(action="store_const", const="false", dest="generalize",
                            help="use the raw store for downstream stages"),
    **dict.fromkeys(("--taxonomy", "--topic-matrix", "--expansion-table", "--gold",
                     "--min-freq", "--top-sources", "--top-cms", "--per-pair"), {}),
    "--corpus": dict(nargs="+", help="CoNLL-U file(s); shards are merged"),
    "--rules": dict(help="JSON extraction-rule file"),
    "--target": dict(action="append", dest="targets", metavar="TARGET",
                     help="seed lexeme (repeatable)"),
    "--threshold": dict(help="relatedness cutoff"),
    "--k": dict(help="minimum shared patterns per concept"),
    "--sidecar": dict(help="TSV sentence_id <TAB> text override"),
    "--seed": dict(help="sampling seed"),
}
# the fields of the flags that take a list of values
_LIST_FIELDS = {opts.get("dest", flag[2:]) for flag, opts in _FLAGS.items()
                if "nargs" in opts or opts.get("action") == "append"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mf",
        description="Build proposition stores and generate conceptual metaphors.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, flags) in _STAGES.items():
        p = sub.add_parser(name, help=help_text)
        for flag in ("--config", "--workdir", "--no-generalize", *flags):
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _configure(args) -> PipelineConfig:
    """The config file, if any, with every flag the command line set read on top."""
    cfg = (load_config(_need(args.config, "config file")) if args.config
           else PipelineConfig())
    flags = {name: _flag(name, value) for name in PipelineConfig._fields
             if (value := getattr(args, name, None)) is not None}
    return cfg._replace(**flags)


def _flag(name: str, value):
    """A flag's value: a list flag's values as a tuple, and any other read by
    `read_field`; argparse before Python 3.13 gives [] for `--threshold=--`."""
    if name in _LIST_FIELDS:
        return tuple(value)
    if isinstance(value, list):
        raise ConfigError(f"expected one value, got {value!r}", name)
    return read_field(name, value)


def _corpus_paths(cfg: PipelineConfig) -> list[Path]:
    paths = [_need(s, "corpus") for s in cfg.corpus] or [_need(None, "corpus")]
    # sentences without sent_id are named after their shard's file name
    seen = set()
    for p in paths:
        if p.name in seen:
            raise MFError(f"two corpus shards are named {p.name!r}, so "
                          "sentences without sent_id would share ids")
        seen.add(p.name)
    return paths


def _active_store(cfg: PipelineConfig) -> Store:
    name = _store_name(cfg)
    return Store.load(_need(str(Path(cfg.workdir) / name), f"store artifact {name}"))


def _store_name(cfg: PipelineConfig) -> str:
    return "store.gen.tsv" if cfg.generalize else "store.tsv"


def _warn_missing(targets: Iterable[str], store: Store, cfg: PipelineConfig) -> None:
    """Warn once for each target that is in no tuple of the active store."""
    why = (": generalize rewrote the nouns the taxonomy maps into class ids, "
           "and --no-generalize reads store.tsv") if cfg.generalize else ""
    for target in targets:
        if store.index.lexeme_id(target) is None:
            _warn(f"lexeme {target!r} not found in "
                  f"{Path(cfg.workdir) / _store_name(cfg)}{why}")


def _targets(cfg: PipelineConfig, store: Store) -> tuple[str, ...]:
    """The configured targets, each once; warns for those the store lacks."""
    if not cfg.targets:
        raise MFError("no target lexemes (set targets= in the config or pass --target)")
    targets = tuple(dict.fromkeys(cfg.targets))
    for target in targets:
        # each target names its artifacts, properties.<target>.tsv and so on
        if not target or "/" in target or "\0" in target:
            raise MFError(f"target {target!r} cannot be part of a file name")
    _warn_missing(targets, store, cfg)
    return targets


def _load_tm(cfg: PipelineConfig):
    """The configured topic matrix, read through the work directory's
    topics.vec. Stages load it after the store's index is built, so that
    the build's peak memory does not hold the vectors."""
    if not cfg.topic_matrix:
        return None
    tm = load_topic_matrix(_need(cfg.topic_matrix, "topic matrix"),
                           Path(cfg.workdir) / "topics.vec")
    if cfg.topics is not None and tm.topics != cfg.topics:
        _warn(f"topic matrix has {tm.topics} topics, config expects {cfg.topics}")
    return tm


def _load_table(cfg: PipelineConfig):
    return load_expansion_table(_need(cfg.expansion_table, "expansion table")) \
        if cfg.expansion_table else None


def _emit(out: Path, lines: Iterable[str], summary: str) -> None:
    """Write an artifact's lines to `out` and print what it holds."""
    with textio.writer(out) as fh:
        fh.writelines(lines)
    print(f"{out}: {summary}")


def _save(store: Store, out: Path) -> int:
    """Write a store artifact and print what it holds; the stage's exit status."""
    store.save(out)
    print(f"{out}: {len(store)} tuples, total frequency {store.total()}")
    return 0


def cmd_extract(cfg: PipelineConfig) -> int:
    rules = load_rules(_need(cfg.rules, "rule file")) if cfg.rules else DEFAULT_RULES
    shards = []
    for path in _corpus_paths(cfg):
        shard = Store()
        for sentence in iter_sentences(path):
            shard.update(extract_propositions(sentence, rules))
        shards.append(shard)
    store = merge_stores(shards)
    store.freeze(min_freq=cfg.min_freq)
    wd = Path(cfg.workdir)
    wd.mkdir(parents=True, exist_ok=True)
    return _save(store, wd / "store.tsv")


def cmd_generalize(cfg: PipelineConfig) -> int:
    wd = Path(cfg.workdir)
    store = Store.load(_need(str(wd / "store.tsv"), "store artifact store.tsv"))
    tax = load_taxonomy(_need(cfg.taxonomy, "taxonomy"))
    return _save(generalize.generalize_store(store, tax), wd / "store.gen.tsv")


def cmd_properties(cfg: PipelineConfig) -> int:
    store = _active_store(cfg)
    wd = Path(cfg.workdir)
    for target in _targets(cfg, store):
        ranked = engine.salient_properties(target, store, top_n=None)
        _emit(wd / f"properties.{target}.tsv",
              (f"{wt.weight!r}\t{wt.frequency}\t{wt.position}\t{wt.prop.text}\n"
               for wt in ranked), f"{len(ranked)} tuples")
    return 0


def cmd_sources(cfg: PipelineConfig) -> int:
    store = _active_store(cfg)
    targets = _targets(cfg, store)
    tm = _load_tm(cfg)
    wd = Path(cfg.workdir)
    for target in targets:
        ranked = engine.rank_sources(target, store, tm, cfg.threshold,
                                     cfg.top_sources)
        if not ranked and store.index.lexeme_id(target) is not None:
            _warn(f"no sources generated for {target!r}")
        # each pattern's text once: a target's sources share most patterns
        text = {p: p.text for p in set().union(*(src.evidence for src in ranked))}
        _emit(wd / f"sources.{target}.tsv",
              (f"{src.lexeme}\t{src.weight!r}\t{len(src.evidence)}\t"
               f"{'|'.join(sorted(map(text.__getitem__, src.evidence)))}\n"
               for src in ranked), f"{len(ranked)} sources")
    return 0


def cmd_cms(cfg: PipelineConfig) -> int:
    store = _active_store(cfg)
    targets = _targets(cfg, store)
    tm = _load_tm(cfg)
    tax = load_taxonomy(_need(cfg.taxonomy, "taxonomy"))
    wd = Path(cfg.workdir)
    for target in targets:
        ranked = engine.rank_sources(target, store, tm, cfg.threshold,
                                     cfg.top_sources)
        cms = engine.build_cms(engine.cluster_sources(ranked, tax, cfg.k),
                               cfg.top_cms)
        text = {p: p.text for p in set().union(*(c.shared_patterns for c in cms))}
        body = ",\n  ".join(_cm_json(target, c, text) for c in cms)
        _emit(wd / f"cms.{target}.json", [f"[\n  {body}\n]\n" if cms else "[]\n"],
              f"{len(cms)} conceptual metaphors")
    return 0


# json.dumps of a str, by C: with `indent`, json.dumps runs its pure-Python
# encoder, which takes about four times as long on a CM list
_JSON_STR = json.encoder.encode_basestring_ascii


def _cm_json(target: str, cm: engine.SourceConcept, text: dict) -> str:
    """A CM record as `json.dumps(records, indent=2, sort_keys=True)` writes
    it in the list of records: members by (weight desc, lexeme), patterns by
    their text. A CM has at least one member and k >= 1 patterns."""
    members = ",\n      ".join(
        f'{{\n        "lexeme": {_JSON_STR(m.lexeme)},\n'
        f'        "weight": {m.weight!r}\n      }}'
        for m in sorted(cm.members, key=lambda m: (-m.weight, m.lexeme)))
    patterns = ",\n      ".join(map(_JSON_STR, sorted(map(text.__getitem__,
                                                             cm.shared_patterns))))
    return (f'{{\n    "members": [\n      {members}\n    ],\n'
            f'    "patterns": [\n      {patterns}\n    ],\n'
            f'    "source_node": {_JSON_STR(cm.node)},\n'
            f'    "target": [\n      {_JSON_STR(target)}\n    ],\n'
            f'    "weight": {cm.weight!r}\n  }}')


def _load_sidecar(cfg: PipelineConfig) -> dict[str, str]:
    if not cfg.sidecar:
        return {}
    texts = {}
    for rowno, cols in textio.rows(_need(cfg.sidecar, "sidecar")):
        if len(cols) < 2:
            raise FormatError("expected sentence_id <TAB> text", rowno)
        texts[cols[0]] = "\t".join(cols[1:])
    return texts


def cmd_find_lms(cfg: PipelineConfig) -> int:
    store = _active_store(cfg)
    table = _load_table(cfg)
    wd = Path(cfg.workdir)
    paths = _corpus_paths(cfg)
    sidecar = _load_sidecar(cfg)
    targets = _targets(cfg, store)
    memo = {}  # each lexeme's expansion, shared by all targets and CMs
    specs = []
    for target in targets:
        name = f"cms.{target}.json"
        cm_path = _need(str(wd / name), name)
        cms = []
        try:
            for rec in textio.load_json(cm_path):
                node, members = rec["source_node"], {m["lexeme"] for m in rec["members"]}
                if not all(isinstance(name, str) for name in (node, *members)):
                    raise TypeError("source_node and lexemes must be strings")
                # hits are routed to lms.<t>.jsonl by their target domain
                if rec["target"] != [target]:
                    raise MFError(f"{cm_path}: a conceptual metaphor has target "
                                  f"{rec['target']!r}, expected {[target]!r}")
                cms.append((node, members))
        except (KeyError, TypeError) as exc:
            raise MFError(f"{cm_path}: expected a list of conceptual metaphors with "
                          f"target, source_node and members[].lexeme ({exc!r})") from None
        t_lexemes = expand_domain({target}, table, store, cfg.top_patterns, memo)
        specs += [(t_lexemes,
                   expand_domain(members, table, store, cfg.top_patterns, memo),
                   target, node) for node, members in cms]
    found = dict.fromkeys(targets, 0)

    def hits():
        sentences = (s for path in paths
                     for s in iter_sentences(path, wd / f"{path.name}.snt"))
        for hit in find_lms(sentences, specs):
            found[hit.target_domain] += 1
            yield hit

    sampled = {target: [] for target in targets}
    for hit in sample_hits(hits(), cfg.per_pair, cfg.seed):
        sampled[hit.target_domain].append(hit)
    for target in targets:
        records = ({
            "sentence_id": hit.sentence_id,
            "target": hit.matched_target,
            "source": hit.matched_source,
            "deprel": hit.deprel,
            "direction": hit.direction,
            "target_domain": hit.target_domain,
            "source_domain": hit.source_domain,
            "text": sidecar.get(hit.sentence_id, hit.text),
        } for hit in sampled[target])
        _emit(wd / f"lms.{target}.jsonl",
              (json.dumps(record, sort_keys=True) + "\n" for record in records),
              f"{len(sampled[target])} hits sampled from {found[target]}")
    return 0


def cmd_eval_gold(cfg: PipelineConfig) -> int:
    store = _active_store(cfg)
    table = _load_table(cfg)
    mappings = gold_mod.load_gold(_need(cfg.gold, "gold file"))
    # gold targets only: source lexemes are only compared against, and the
    # expansion table may still match them
    _warn_missing(dict.fromkeys(t for m in mappings for t in sorted(m.targets)),
                  store, cfg)
    tm = _load_tm(cfg)
    report = gold_mod.eval_gold(
        mappings, store, table, tm,
        threshold=cfg.threshold, top_sources=cfg.top_sources,
        top_patterns=cfg.top_patterns, warn=_warn)
    text = report.render()
    with textio.writer(Path(cfg.workdir) / "gold_report.txt") as fh:
        fh.write(text)
    print(text, end="")
    return 0


_SOURCES = ("--target", "--topic-matrix", "--threshold", "--top-sources")

# each stage's handler, its help and the flags its handler reads, besides
# --config, --workdir and --no-generalize, which every stage takes
_STAGES = {
    "extract": (cmd_extract, "corpus -> proposition store",
                ("--corpus", "--rules", "--min-freq")),
    "generalize": (cmd_generalize, "store + taxonomy -> generalized store",
                   ("--taxonomy",)),
    "properties": (cmd_properties, "ranked tuples containing a lexeme", ("--target",)),
    "sources": (cmd_sources, "ranked candidate source lexemes", _SOURCES),
    "cms": (cmd_cms, "clustered conceptual metaphors",
            _SOURCES + ("--taxonomy", "--k", "--top-cms")),
    "find-lms": (cmd_find_lms, "retrieve dependency-linked candidates",
                 ("--target", "--corpus", "--expansion-table", "--sidecar",
                  "--seed", "--per-pair")),
    "eval-gold": (cmd_eval_gold, "score gold domain mappings",
                  ("--gold", "--expansion-table", "--topic-matrix", "--threshold",
                   "--top-sources")),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _configure(args)
        return _STAGES[args.subcommand][0](cfg)
    except (MFError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
