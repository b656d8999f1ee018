"""Smoke tests of the benchmark itself, at a tiny scale (about a minute).

    python3 perfbench/selftest.py

Run from the root of an mf checkout. It checks that:
- one `--workload all` run prints every end-to-end metric of BENCHMARK.json
  (trace 0) and every per-layer metric (trace 1) with its unit for each
  workload, with no failed stage run;
- two runs with the same seed give the same artifact digests;
- each output check catches a corrupted artifact;
- run.py exits non-zero, printing no result, where there is no src/mf.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SCALE = "0.05"


def bench_run(*args, cwd=None):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "3", "--seconds", "0.1",
         "--scale", SCALE, *args],
        capture_output=True, text=True, timeout=600, cwd=cwd)


def test_every_metric_printed():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = bench_run("--workload", "all", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        for workload in run.WORKLOADS:
            for metric in spec[key]:
                got = result["metrics"][f"{workload}.{metric['name']}"]
                assert got["unit"] == metric["unit"], (workload, metric, got)
            for stage in run.WORKLOADS[workload]["timed"]:
                assert re.search(rf"^# {workload} {run._stage_metric(stage)} \S+ s ",
                                 proc.stdout, re.M), (workload, stage)
            assert f"# {workload} failed_ratio 0.0000 ratio" in proc.stdout
        names = {m["name"] for m in spec[key]}
        assert len(result["metrics"]) == len(names) * len(run.WORKLOADS)


def test_same_seed_same_digest():
    digests = []
    for _ in range(2):
        proc = bench_run("--workload", "retrieve", "--trace", "0")
        assert proc.returncode == 0, proc.stderr
        digests.append(re.search(r"^# retrieve digest (\w+)", proc.stdout, re.M)[1])
    assert digests[0] == digests[1], digests


def _corrupt(path, old, new):
    text = path.read_text()
    assert old in text, (path, old)
    path.write_text(text.replace(old, new, 1))


def test_corrupted_artifacts_are_caught():
    root = Path.cwd()
    for workload, corruptions in {
        "build": [("extract", "store.tsv", "\t1\n", "\t2\n"),
                  ("generalize", "store.gen.tsv", "\t1\n", "\t3\n")],
        "metaphors": [("sources", "sources.{t}.tsv", "\t0.", "\t1."),
                      ("cms", "cms.{t}.json", '"patterns": [\n', '"patterns": [\n"X _",\n'),
                      ("eval-gold", "gold_report.txt", "found", "found 9 of 9\nfound")],
        "retrieve": [("find-lms", "lms.{t}.jsonl", '"deprel": "', '"deprel": "x')],
    }.items():
        work = root / ".bench_work" / f"selftest-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        bench = run.Bench(root, workload, 5, float(SCALE), work)
        try:
            ok, _ = bench.setup()
            assert ok, bench.log.read_text()
            for stage in run.WORKLOADS[workload]["timed"]:
                assert bench.run_stage(stage)[0], bench.log.read_text()
            assert bench.failures() == (0, []), bench.failures()
            for stage, name, old, new in corruptions:
                # the first target whose artifact holds something to corrupt
                path = next(p for t in bench.inputs.targets or [""]
                            for p in [work / "out" / name.format(t=t)]
                            if old in p.read_text())
                _corrupt(path, old, new)
                assert bench.check(stage), (stage, path)
                bench.runs.append((stage, True, bench.digest(stage)))
                failed, errors = bench.failures()
                assert failed >= 1 and errors, (stage, failed)
                bench.run_stage(stage)  # restore the artifact
                bench.runs.clear()
        finally:
            shutil.rmtree(work, ignore_errors=True)


def test_refuses_without_program():
    bare = Path.cwd() / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "build", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=120, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    tests = [test_refuses_without_program, test_corrupted_artifacts_are_caught,
             test_same_seed_same_digest, test_every_metric_printed]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
