"""Runs one `mf` CLI stage with outside-in layer tracing.

    python3 perfbench/tracer.py TRACE.json <mf arguments...>

The `mf` package is left untouched. Before `mf.cli.main` runs, the public
functions of each module are replaced, at the names their callers look up,
by wrappers that time each call and count what it returned. Timing keeps a
stack of open spans, so a span's self time excludes the spans it caused.
Spans stay in memory as per-name aggregates (calls, total and self time),
with the duration of every per-target `generate_sources` call kept as a
sample. Everything is written to TRACE.json when the stage ends.
"""

import functools
import json
import os
import sys
import time
from collections import Counter

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.stack = []            # open spans: [name, start, child_time]
        self.aggregate = {}        # name -> [calls, total_s, self_s]
        self.samples = {}          # name -> per-call durations in seconds
        self.counts = Counter()    # summed counters
        self.peaks = Counter()     # largest-seen sizes

    @property
    def current(self):
        return self.stack[-1][0] if self.stack else None

    def enter(self, name):
        self.stack.append([name, _clock(), 0.0])

    def exit(self):
        name, start, child = self.stack.pop()
        duration = _clock() - start
        if self.stack:
            self.stack[-1][2] += duration
        agg = self.aggregate.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        if name == "engine.sources":
            self.samples.setdefault(name, []).append(duration)

    def span(self, name, fn, after=None):
        """Wrap `fn` in a span; `after(result, args)` runs outside the span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(result, args)
            return result
        return wrapper

    def generator_span(self, name, fn, each=None):
        """Wrap a generator function: each step of the iteration is a span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def steps():
                try:
                    while True:
                        tracer.enter(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer.exit()
                        if each is not None:
                            each(item)
                        yield item
                finally:
                    inner.close()
            return steps()
        return wrapper

    def counter(self, fn, after):
        """Wrap `fn` with a counting hook only, no span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(result, args)
            return result
        return wrapper

    def dump(self, path):
        data = {"aggregate": self.aggregate, "samples": self.samples,
                "counts": dict(self.counts), "peaks": dict(self.peaks)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def install(tr):
    """Replace the layer entry points of `mf` with traced wrappers."""
    import mf.cli as cli
    import mf.engine as engine
    import mf.extraction as extraction
    import mf.generalize as generalize
    import mf.gold as gold
    import mf.lm as lm
    from mf.store import Store
    from mf.topics import TopicMatrix

    c, p = tr.counts, tr.peaks

    def sentence(sent):
        c["conllu.sentences"] += 1
        c["conllu.tokens"] += len(sent.tokens)
    cli.iter_sentences = tr.generator_span("conllu.parse", cli.iter_sentences, sentence)

    def occurrences(result, args):
        c["extraction.sentences"] += 1
        c["extraction.matched_sentences"] += bool(result)
        c["extraction.occurrences"] += len(result)
        for occ in result:
            c["extraction.occurrences." + occ.prop.label] += 1
    cli.extract_propositions = tr.span("extraction.match", cli.extract_propositions,
                                       occurrences)
    extraction.normalize_arcs = tr.span("extraction.normalize", extraction.normalize_arcs)

    def frozen(store, args):
        p["store.pattern_keys"] = max(p["store.pattern_keys"],
                                      sum(1 for _ in store.pattern_keys()))

    def saved(result, args):
        store, target = args[0], args[1]
        p["store.tuples"] = max(p["store.tuples"], len(store))
        if isinstance(target, (str, os.PathLike)):
            p["store.bytes"] = max(p["store.bytes"], os.path.getsize(target))

    Store.update = tr.span("store.count", Store.update)
    Store.freeze = tr.span("store.freeze", Store.freeze, frozen)
    Store.save = tr.span("store.save", Store.save, saved)
    Store.load = classmethod(tr.span("store.load", Store.load.__func__))
    cli.merge_stores = tr.span("store.merge", cli.merge_stores)

    def query(fn, seeds):
        def after(result, args):
            c["store.query_calls"] += 1
            c["store.tuples_scanned"] += len(result)
            if seeds and tr.current == "engine.sources":
                c["engine.seed_tuples"] += len(result)
        return tr.span("store.query", fn, after)
    Store.tuples_containing = query(Store.tuples_containing, seeds=True)
    Store.tuples_matching = query(Store.tuples_matching, seeds=False)

    def sources_counted(fn):
        traced = tr.span("engine.sources", fn,
                         lambda result, args: c.update({"engine.candidates": len(result)}))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.current == "gold.eval":
                c["gold.generate_calls"] += 1
            return traced(*args, **kwargs)
        return wrapper
    engine.generate_sources = gold.generate_sources = sources_counted(engine.generate_sources)

    def filtered(result, args):
        c["engine.filter_in"] += len(args[0])
        c["engine.filter_out"] += len(result)
    engine.filter_sources = gold.filter_sources = tr.span(
        "engine.filter", engine.filter_sources, filtered)
    engine.cluster_sources = tr.span(
        "engine.cluster", engine.cluster_sources,
        lambda result, args: c.update({"engine.concepts": len(result)}))
    engine.build_cms = tr.span(
        "engine.cluster", engine.build_cms,
        lambda result, args: c.update({"engine.cms": len(result)}))
    engine.salient_properties = lm.salient_properties = tr.span(
        "engine.properties", engine.salient_properties)

    TopicMatrix.relatedness = tr.counter(
        TopicMatrix.relatedness,
        lambda result, args: c.update({"topics.relatedness_calls": 1}))
    cli.load_topic_matrix = tr.span("topics.load", cli.load_topic_matrix)

    def mapped(result, args):
        c["taxonomy.map_calls"] += 1
        c["taxonomy.map_hits"] += bool(result)
    engine.map_noun = generalize.map_noun = tr.counter(engine.map_noun, mapped)
    cli.load_taxonomy = tr.span("taxonomy.load", cli.load_taxonomy)

    def rewritten(result, args):
        c["generalize.tuples_in"] += len(args[0])
        c["generalize.tuples_out"] += len(result)
    generalize.generalize_store = tr.span("generalize.rewrite",
                                          generalize.generalize_store, rewritten)

    cli.expand_domain = gold.expand_domain = tr.span(
        "lm.expand", cli.expand_domain,
        lambda result, args: c.update({"lm.expanded_lexemes": len(result)}))
    cli.find_lms = tr.generator_span("lm.scan", cli.find_lms,
                                     lambda hit: c.update({"lm.hits": 1}))

    cli.sample_hits = tr.span("lm.sample", cli.sample_hits,
                              lambda result, args: c.update({"lm.sampled": len(result)}))

    def evaluated(report, args):
        c["gold.mappings"] += len(args[0])
        c["gold.found"] += report.found
    gold.eval_gold = tr.span("gold.eval", gold.eval_gold, evaluated)
    return cli


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tr = Tracer()
    cli = install(tr)
    try:
        code = tr.span("cli", cli.main)(argv)
    finally:
        tr.dump(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
