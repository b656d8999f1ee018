"""Pipeline benchmark for `mf`.

    python3 perfbench/run.py --workload build|metaphors|retrieve|all \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it runs `src/mf` from there. The load
is a closed loop with one client: each CLI stage runs as its own child
process, the way a user runs `mf <stage>`, and the next starts only when
the previous one has exited. Inputs come from gen.py under the seed; the
set-up (generating them, plus the untimed prerequisite stages) runs
between timed repetitions, spread evenly over the run, as often as fits in
SETUP_SHARE of `--seconds` (SETUP_MIN_REPEATS to SETUP_MAX_REPEATS times),
and its median is `setup_s`. The workload's timed stages repeat until
`--seconds` of them have passed, and each stage time is the mean
over those repetitions: on a shared machine a repetition runs either at
full speed or up to twice as slow, and the mean of such a two-speed
sample is steadier from run to run than its median (see README.md).
Outputs are checked by check.py outside the timed region.

With `--trace 0` the result holds the end-to-end metrics. With `--trace 1`
untraced and traced repetitions alternate; the traced ones run each stage
under tracer.py, and the result holds the per-layer metrics, means over
the traced repetitions, plus `trace.overhead_s` (traced minus untraced
wall time). The last line printed is the JSON result; the lines before it,
starting with '#', are for people.
"""

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import gen  # noqa: E402

HERE = Path(__file__).resolve().parent
# Set-ups are spread over the run, so that their median, like the stage
# means, spans the whole run and not one burst of machine noise.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_SHARE = 3, 15, 0.25
CHILD_LIMIT_S = 150
PARAMS = {"threshold": 0.04, "k": 5, "top_sources": 100, "top_cms": 10,
          "per_pair": 10, "top_patterns": 10, "topics": gen.TOPICS}

# Timed stages per workload, and the stages set-up runs before them.
WORKLOADS = {
    "build": {"setup": (), "timed": ("extract", "generalize")},
    "metaphors": {"setup": ("extract",), "timed": ("sources", "cms", "eval-gold")},
    "retrieve": {"setup": ("extract", "cms"), "timed": ("find-lms",)},
}
STAGES = ("extract", "generalize", "sources", "cms", "eval-gold", "find-lms")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB"))

# Span name -> per-layer metric holding its summed self time.
SPAN_METRICS = {
    "conllu.parse": "conllu.parse_s",
    "extraction.normalize": "extraction.normalize_s",
    "extraction.match": "extraction.match_s",
    "store.count": "store.count_s",
    "store.merge": "store.merge_s",
    "store.freeze": "store.freeze_s",
    "store.save": "store.save_s",
    "store.load": "store.load_read_s",
    "store.query": "store.query_s",
    "engine.sources": "engine.sources_s",
    "engine.filter": "engine.filter_s",
    "engine.cluster": "engine.cluster_s",
    "engine.properties": "engine.properties_s",
    "topics.load": "topics.load_s",
    "taxonomy.load": "taxonomy.load_s",
    "generalize.rewrite": "generalize.rewrite_s",
    "lm.expand": "lm.expand_s",
    "lm.scan": "lm.scan_s",
    "lm.sample": "lm.sample_s",
    "gold.eval": "gold.eval_s",
}
LABELS = ("NV", "VN", "NVV", "VPN", "NPN", "NVPN", "NVVPN", "NN", "AN", "AdvPN", "NVAdv")
COUNTS = ("conllu.sentences", "conllu.tokens", "extraction.occurrences",
          *(f"extraction.occurrences.{label}" for label in LABELS),
          "store.query_calls", "store.tuples_scanned", "engine.seed_tuples",
          "engine.candidates", "engine.concepts", "engine.cms",
          "topics.relatedness_calls", "taxonomy.map_calls", "generalize.tuples_in",
          "generalize.tuples_out", "lm.expanded_lexemes", "lm.hits", "lm.sampled",
          "gold.mappings", "gold.found", "gold.generate_calls")
PEAKS = ("store.tuples", "store.pattern_keys", "store.bytes")
# ratio metric -> (numerator count, denominator count)
RATIOS = {
    "extraction.matched_sentence_ratio": ("extraction.matched_sentences",
                                          "extraction.sentences"),
    "engine.filter_keep_ratio": ("engine.filter_out", "engine.filter_in"),
    "taxonomy.map_hit_ratio": ("taxonomy.map_hits", "taxonomy.map_calls"),
    "lm.sample_keep_ratio": ("lm.sampled", "lm.hits"),
}


def _stage_metric(stage):
    return stage.replace("-", "_") + "_s"


def _unit(name):
    if name.endswith("_ms_p50") or name.endswith("_ms_p90"):
        return "ms"
    if name.endswith("_s") or name.startswith("cli.self_s."):
        return "s"
    if name.endswith("_ratio") or name == "lm.corpus_passes":
        return "ratio"
    return "B" if name == "store.bytes" else "count"


PER_LAYER = tuple((name, _unit(name)) for name in (
    *(_stage_metric(s) for s in STAGES), "failed_ratio",
    *SPAN_METRICS.values(), *COUNTS, *PEAKS, *RATIOS,
    "engine.sources_ms_p50", "engine.sources_ms_p90", "engine.sources_samples",
    "lm.corpus_passes", *(f"cli.self_s.{s.replace('-', '_')}" for s in STAGES),
    "cli.startup_s", "trace.overhead_s"))


class Bench:
    """One benchmark run of one workload in its own work directory."""

    def __init__(self, root, workload, seed, scale, work):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")
        self.inputs = None
        self.runs = []      # (stage, exit ok, digest) for every stage run
        self.log = work / "stages.log"

    # -- children ----------------------------------------------------------

    def child(self, argv):
        """Run one child to completion: (exit code, wall s, max RSS MiB)."""
        with open(self.log, "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.root)
            timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024

    def stage_argv(self, stage):
        inp, wd = self.inputs, self.work / "out"
        args = [stage, "--config", str(self.work / "bench.cfg"), "--workdir", str(wd)]
        if stage != "generalize":
            args.append("--no-generalize")
        targets = [a for t in inp.targets for a in ("--target", t)]
        if stage == "extract":
            args += ["--corpus", *map(str, inp.corpus_paths)]
        elif stage == "generalize":
            args += ["--taxonomy", str(inp.taxonomy)]
        elif stage == "sources":
            args += [*targets, "--topic-matrix", str(inp.topics)]
        elif stage == "cms":
            args += [*targets, "--topic-matrix", str(inp.topics),
                     "--taxonomy", str(inp.taxonomy)]
        elif stage == "eval-gold":
            args += ["--gold", str(inp.gold), "--expansion-table", str(inp.expansion),
                     "--topic-matrix", str(inp.topics)]
        elif stage == "find-lms":
            args += [*targets, "--corpus", *map(str, inp.corpus_paths),
                     "--expansion-table", str(inp.expansion)]
        return args

    def artifacts(self, stage):
        wd, targets = self.work / "out", self.inputs.targets
        return {
            "extract": [wd / "store.tsv"],
            "generalize": [wd / "store.gen.tsv"],
            "sources": [wd / f"sources.{t}.tsv" for t in targets],
            "cms": [wd / f"cms.{t}.json" for t in targets],
            "eval-gold": [wd / "gold_report.txt"],
            "find-lms": [wd / f"lms.{t}.jsonl" for t in targets],
        }[stage]

    def digest(self, stage):
        h = hashlib.sha256()
        for path in self.artifacts(stage):
            h.update(path.name.encode() + b"\0")
            h.update(path.read_bytes() if path.exists() else b"<missing>")
        return h.hexdigest()

    def run_stage(self, stage, trace_file=None):
        argv = [sys.executable, "-m", "mf.cli"] if trace_file is None else \
            [sys.executable, str(HERE / "tracer.py"), str(trace_file)]
        code, wall, rss = self.child(argv + self.stage_argv(stage))
        self.runs.append((stage, code == 0, self.digest(stage)))
        return code == 0, wall, rss

    # -- set-up ------------------------------------------------------------

    def setup(self):
        """Generate inputs and run the untimed prerequisite stages; s."""
        # free the previous set-up's inputs outside the timed region
        self.inputs = None
        gc.collect()
        start = time.perf_counter()
        shutil.rmtree(self.work / "in", ignore_errors=True)
        shutil.rmtree(self.work / "out", ignore_errors=True)
        self.inputs = gen.generate(self.workload, self.seed, self.work / "in", self.scale)
        (self.work / "bench.cfg").write_text(
            "".join(f"{k} = {v}\n" for k, v in PARAMS.items()) + f"seed = {self.seed}\n",
            encoding="utf-8")
        ok = all(self.run_stage(stage)[0] for stage in WORKLOADS[self.workload]["setup"])
        return ok, time.perf_counter() - start

    # -- checks ------------------------------------------------------------

    def check(self, stage):
        """Errors in the current artifacts of `stage`, by independent checks."""
        inp, wd = self.inputs, self.work / "out"
        if not all(p.exists() for p in self.artifacts(stage)):
            return [f"{stage}: artifact missing"]
        if stage == "extract":
            return check.store_errors(wd / "store.tsv", inp.corpus.planted)
        if stage == "generalize":
            return check.store_errors(
                wd / "store.gen.tsv",
                check.generalized(inp.corpus.planted, inp.vocab.classes_of))
        if stage == "eval-gold":
            names = list(dict.fromkeys(
                line.split("\t")[0] for line in inp.gold.read_text().splitlines()))
            return check.gold_errors(wd / "gold_report.txt", names)
        brute = check.BruteStore(check.read_store(wd / "store.tsv"))
        errors = []
        for t in inp.targets:
            if stage == "sources":
                errors += check.sources_errors(
                    wd / f"sources.{t}.tsv", t, brute, inp.vocab.topic_vectors,
                    PARAMS["threshold"], PARAMS["top_sources"])
            elif stage == "cms":
                errors += check.cms_errors(
                    wd / f"cms.{t}.json", t, brute, inp.vocab, PARAMS)
            elif stage == "find-lms":
                errors += check.lms_errors(
                    wd / f"lms.{t}.jsonl", wd / f"cms.{t}.json", inp.corpus.sentences,
                    brute, inp.expansion_table, PARAMS["top_patterns"],
                    PARAMS["per_pair"])
        return errors

    def failures(self):
        """Count failed stage runs: a non-zero exit, an artifact that fails
        its check, or artifact bytes that differ from the stage's first run.
        The current artifacts are the last run's, so they stand for every
        run with the same digest."""
        errors = {}
        for stage in dict.fromkeys(s for s, _, _ in self.runs):
            errors[stage] = self.check(stage)
        first = {}
        failed = 0
        for stage, ok, digest in self.runs:
            first.setdefault(stage, digest)
            if not ok or digest != first[stage] or errors[stage]:
                failed += 1
        return failed, [e for errs in errors.values() for e in errs]

    def run_digest(self):
        """Digest of the distinct artifacts, whatever the number of runs."""
        h = hashlib.sha256()
        for stage, digest in dict.fromkeys((s, d) for s, _, d in self.runs):
            h.update(f"{stage}:{digest}\n".encode())
        return h.hexdigest()[:16]


def _mean(values):
    if not values:
        return 0.0
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)  # counts repeat; keep them whole
    return statistics.fmean(values)


def layer_metrics(bench, traces, walls):
    """Per-layer metrics of one traced repetition from its stage traces."""
    selfs, counts, peaks = {}, {}, {}
    samples = []
    metrics = {f"cli.self_s.{s.replace('-', '_')}": 0.0 for s in STAGES}
    startup = 0.0
    for stage, data in traces.items():
        stage_s = data["aggregate"]["cli"][1]
        for name, (_, _, self_s) in data["aggregate"].items():
            if name == "cli":
                metrics[f"cli.self_s.{stage.replace('-', '_')}"] = self_s
            else:
                selfs[name] = selfs.get(name, 0.0) + self_s
        for name, value in data["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, value in data["peaks"].items():
            peaks[name] = max(peaks.get(name, 0), value)
        samples += data["samples"].get("engine.sources", [])
        startup += walls[stage] - stage_s
    for span, name in SPAN_METRICS.items():
        metrics[name] = selfs.get(span, 0.0)
    for name in COUNTS:
        metrics[name] = counts.get(name, 0)
    for name in PEAKS:
        metrics[name] = peaks.get(name, 0)
    for name, (num, den) in RATIOS.items():
        metrics[name] = counts[num] / counts[den] if counts.get(den) else 0.0
    samples_ms = sorted(x * 1000 for x in samples)
    cuts = statistics.quantiles(samples_ms, n=10) if len(samples_ms) > 1 else samples_ms * 9
    metrics["engine.sources_ms_p50"] = statistics.median(samples_ms) if samples_ms else 0.0
    metrics["engine.sources_ms_p90"] = cuts[8] if cuts else 0.0
    metrics["engine.sources_samples"] = len(samples_ms)
    scan = traces.get("find-lms")
    metrics["lm.corpus_passes"] = (scan["counts"].get("conllu.sentences", 0)
                                   / len(bench.inputs.corpus.sentences)) if scan else 0.0
    metrics["cli.startup_s"] = startup
    return metrics


def run_workload(root, workload, seed, seconds, trace, scale):
    work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(root, workload, seed, scale, work)
    try:
        # compile src/mf to bytecode once, so no timed run pays for it
        bench.child([sys.executable, "-c", "import mf.cli"])
        ok, first = bench.setup()
        setup_times = [first]
        # set-up i runs once i/n of the timed seconds have passed
        n = 1 if trace else min(SETUP_MAX_REPEATS, max(
            SETUP_MIN_REPEATS, int(SETUP_SHARE * seconds / max(first, 1e-3))))
        timed = WORKLOADS[workload]["timed"]
        untraced, traced_layers, traced_walls = [], [], []
        peak_rss = 0.0
        elapsed = 0.0  # timed seconds so far; set-ups do not count
        while ok:
            if len(setup_times) < n and elapsed >= len(setup_times) * seconds / n:
                ok, seconds_taken = bench.setup()
                setup_times.append(seconds_taken)
                if not ok:
                    break
            start = time.perf_counter()
            walls = {}
            for stage in timed:
                _, walls[stage], rss = bench.run_stage(stage)
                peak_rss = max(peak_rss, rss)
            untraced.append(walls)
            if trace:
                traces, twalls = {}, {}
                for stage in timed:
                    trace_file = work / f"trace.{stage}.json"
                    _, twalls[stage], _ = bench.run_stage(stage, trace_file)
                    if trace_file.exists():
                        traces[stage] = json.loads(trace_file.read_text())
                if len(traces) == len(timed):
                    traced_layers.append(layer_metrics(bench, traces, twalls))
                    traced_walls.append(twalls)
            elapsed += time.perf_counter() - start
            if elapsed >= seconds:
                break
        if ok and not trace and len(setup_times) < SETUP_MIN_REPEATS:
            # a run too short for the schedule: finish the set-ups, then run
            # the stages once more, untimed, so the checks see their artifacts
            while ok and len(setup_times) < SETUP_MIN_REPEATS:
                ok, seconds_taken = bench.setup()
                setup_times.append(seconds_taken)
            for stage in timed:
                bench.run_stage(stage)
        failed, errors = bench.failures()
        for error in errors:
            print(f"# check failed: {error}", file=sys.stderr)
        if failed:
            sys.stderr.write(bench.log.read_text(errors="replace")[-4000:])
        attempted = max(len(bench.runs), 1)
        stage_means = {_stage_metric(s): _mean([w[s] for w in untraced])
                       for s in STAGES if s in timed}
        wall = sum(stage_means.values())
        if trace:
            metrics = {name: _mean([m[name] for m in traced_layers if name in m])
                       for name, _ in PER_LAYER}
            metrics.update(stage_means)
            metrics["failed_ratio"] = failed / attempted
            metrics["trace.overhead_s"] = sum(
                _mean([w[s] for w in traced_walls]) for s in timed) - wall
            units = dict(PER_LAYER)
        else:
            metrics = {"setup_s": statistics.median(setup_times), "wall_s": wall,
                       "peak_rss_mb": peak_rss}
            units = dict(END_TO_END)
        for stage in timed:
            reps = " ".join(f"{w[stage]:.3f}" for w in untraced)
            print(f"# {workload} {_stage_metric(stage)} {stage_means[_stage_metric(stage)]:.4f}"
                  f" s (mean of {len(untraced)}: {reps})")
        print(f"# {workload} set-up s (median of {len(setup_times)}: "
              + " ".join(f"{t:.3f}" for t in setup_times) + ")")
        print(f"# {workload} failed_ratio {failed / attempted:.4f} ratio "
              f"({failed} of {attempted} stage runs)")
        print(f"# {workload} digest {bench.run_digest()} (seed {seed})")
        return {"correct": failed == 0 and bool(untraced),
                "attempted": attempted, "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": units[name]}
                            for name in units}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply corpus sizes (self-tests use a small scale)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mf" / "cli.py").is_file():
        print(f"error: {root} holds no src/mf; run from the root of an mf checkout",
              file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        result = run_workload(root, workload, args.seed, args.seconds, args.trace,
                              args.scale)
        for name, metric in result["metrics"].items():
            print(f"# {workload} {name} {metric['value']:.6g} {metric['unit']}")
        results[workload] = result
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
