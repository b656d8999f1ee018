import argparse
import gzip
import hashlib
import json
import os
import shutil
import subprocess
import sys
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mf import Store, cli, conllu, engine, lm
from mf.cli import main
from mf.store import PatternKey

from .corpusgen import FIXTURES

# the artifacts of test_pipeline_stages_and_rerun_identical, kept byte for byte
EXPECTED = Path(__file__).parent / "expected"


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path / "out"


def run(*argv):
    return main([str(a) for a in argv])


CONTROL_CHAIN = """\
# sent_id = school1
1\tJohn\tJohn\tPROPN\t_\t_\t2\tnsubj\t_\t_
2\tdecided\tdecide\tVERB\t_\t_\t0\troot\t_\t_
3\tto\tto\tPART\t_\t_\t4\tmark\t_\t_
4\tgo\tgo\tVERB\t_\t_\t2\txcomp\t_\t_
5\tto\tto\tADP\t_\t_\t6\tcase\t_\t_
6\tschool\tschool\tNOUN\t_\t_\t4\tobl\t_\t_
"""


def test_extract_single_sentence_six_entries(workdir, tmp_path):
    corpus = tmp_path / "one.conllu"
    corpus.write_text(CONTROL_CHAIN, encoding="utf-8")
    assert run("extract", "--corpus", corpus, "--workdir", workdir) == 0
    rows = (workdir / "store.tsv").read_text("utf-8").splitlines()
    assert len(rows) == 6


def test_extract_writes_store(workdir):
    code = run("extract", "--corpus", FIXTURES / "poverty.conllu",
               "--workdir", workdir)
    assert code == 0
    store = (workdir / "store.tsv").read_text(encoding="utf-8")
    assert "VN\tfight\tpoverty\t8" in store


def test_extract_multiple_shards_merge(workdir, tmp_path):
    whole = FIXTURES / "poverty.conllu"
    text = whole.read_text(encoding="utf-8")
    blocks = text.strip().split("\n\n")
    half = len(blocks) // 2
    a, b = tmp_path / "a.conllu", tmp_path / "b.conllu"
    a.write_text("\n\n".join(blocks[:half]) + "\n", encoding="utf-8")
    b.write_text("\n\n".join(blocks[half:]) + "\n", encoding="utf-8")
    assert run("extract", "--corpus", a, b, "--workdir", workdir) == 0
    sharded = (workdir / "store.tsv").read_bytes()
    assert run("extract", "--corpus", whole, "--workdir", workdir) == 0
    assert (workdir / "store.tsv").read_bytes() == sharded


def test_missing_corpus_fails_with_path(workdir, capsys):
    assert run("extract", "--corpus", "nowhere.conllu",
               "--workdir", workdir) == 2
    assert "nowhere.conllu" in capsys.readouterr().err


def test_corpus_directory_fails_with_path(workdir, tmp_path, capsys):
    assert run("extract", "--corpus", tmp_path, "--workdir", workdir) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


def test_non_utf8_corpus_names_path_and_line(workdir, tmp_path, capsys):
    # line 901 lies buffers past the start, so the line is found exactly
    rows = (FIXTURES / "poverty.conllu").read_bytes().split(b"\n")
    rows[900] = rows[900].replace(b"\t", b"\xff\t", 1)
    corpus = tmp_path / "latin1.conllu"
    corpus.write_bytes(b"\n".join(rows))
    assert run("extract", "--corpus", corpus, "--workdir", workdir) == 2
    assert capsys.readouterr().err == f"error: {corpus}: not UTF-8 at line 901\n"


def test_truncated_gzip_corpus_names_path_and_line(workdir, tmp_path, capsys):
    packed = gzip.compress((FIXTURES / "poverty.conllu").read_bytes())
    corpus = tmp_path / "cut.conllu.gz"
    corpus.write_bytes(packed[:len(packed) // 2])
    whole_lines = zlib.decompressobj(31).decompress(corpus.read_bytes()).count(b"\n")
    assert run("extract", "--corpus", corpus, "--workdir", workdir) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {corpus}: truncated or corrupt gzip")
    assert err.endswith(f" at line {whole_lines + 1}\n")
    assert not (workdir / "store.tsv").exists()


def test_empty_workdir_in_config_names_field(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("workdir =\n", encoding="utf-8")
    assert run("extract", "--config", cfg, "--corpus",
               FIXTURES / "poverty.conllu") == 2
    assert capsys.readouterr().err == "error: workdir: must name a directory\n"


@pytest.mark.parametrize("target", ["a/b", "", "a\0b"])
def test_target_that_cannot_name_a_file_rejected(workdir, capsys, target):
    run("extract", "--corpus", FIXTURES / "poverty.conllu", "--workdir", workdir)
    capsys.readouterr()
    assert run("properties", "--target", target, "--workdir", workdir,
               "--no-generalize") == 2
    assert capsys.readouterr().err == (f"error: target {target!r} cannot be "
                                       "part of a file name\n")
    assert sorted(os.listdir(workdir)) == ["store.tsv"]


def test_config_violation_names_field(workdir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("k = -2\n", encoding="utf-8")
    assert run("extract", "--config", cfg, "--corpus",
               FIXTURES / "poverty.conllu", "--workdir", workdir) == 2
    assert "k" in capsys.readouterr().err


# the flags each stage reads, besides --config, --workdir and --no-generalize
SOURCE_FLAGS = {"--target", "--topic-matrix", "--threshold", "--top-sources"}
STAGE_FLAGS = {
    "extract": {"--corpus", "--rules", "--min-freq"},
    "generalize": {"--taxonomy"},
    "properties": {"--target"},
    "sources": SOURCE_FLAGS,
    "cms": SOURCE_FLAGS | {"--taxonomy", "--k", "--top-cms"},
    "find-lms": {"--target", "--corpus", "--expansion-table", "--sidecar", "--seed",
                 "--per-pair"},
    "eval-gold": {"--gold", "--expansion-table", "--topic-matrix", "--threshold",
                  "--top-sources"},
}


@pytest.mark.parametrize("stage", STAGE_FLAGS)
def test_each_stage_accepts_only_the_flags_it_reads(stage):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    accepted = {flag for action in sub.choices[stage]._actions
                for flag in action.option_strings} - {"-h", "--help"}
    assert accepted == {"--config", "--workdir", "--no-generalize",
                        *STAGE_FLAGS[stage]}


def test_extract_refuses_a_flag_it_does_not_read(workdir, capsys):
    with pytest.raises(SystemExit) as exit_:
        run("extract", "--corpus", FIXTURES / "poverty.conllu",
            "--workdir", workdir, "--threshold", "0.1")
    assert exit_.value.code == 2
    assert "unrecognized arguments: --threshold 0.1" in capsys.readouterr().err


def test_min_freq_drops_tuples_seen_fewer_times(workdir, tmp_path):
    # the control chain twice, once going to school and once to college
    corpus = tmp_path / "two.conllu"
    corpus.write_text(CONTROL_CHAIN + "\n" + CONTROL_CHAIN.replace(
        "school", "college"), encoding="utf-8")
    stores = {}
    for min_freq in ("1", "2"):
        assert run("extract", "--corpus", corpus, "--workdir", workdir,
                   "--min-freq", min_freq) == 0
        stores[min_freq] = (workdir / "store.tsv").read_text("utf-8").splitlines()
    seen_twice = [row for row in stores["1"] if row.endswith("\t2")]
    assert seen_twice and len(seen_twice) < len(stores["1"])
    assert stores["2"] == seen_twice


def _fixture_store(workdir):
    """Extract the fixture store; the flags its downstream stages share."""
    run("extract", "--corpus", FIXTURES / "poverty.conllu", "--workdir", workdir)
    return ["--target", "poverty", "--topic-matrix", FIXTURES / "topics.tsv",
            "--workdir", workdir, "--no-generalize"]


def test_top_sources_cuts_the_source_rows(workdir):
    assert run("sources", *_fixture_store(workdir), "--top-sources", "2") == 0
    rows = (workdir / "sources.poverty.tsv").read_text("utf-8").splitlines()
    assert rows == (EXPECTED / "sources.poverty.tsv").read_text("utf-8").splitlines()[:2]


def test_top_cms_cuts_the_cm_records(workdir):
    assert run("cms", *_fixture_store(workdir), "--taxonomy", FIXTURES / "taxonomy.tsv",
               "--top-cms", "1") == 0
    records = json.loads((workdir / "cms.poverty.json").read_text("utf-8"))
    assert records == json.loads((EXPECTED / "cms.poverty.json").read_text("utf-8"))[:1]


def test_generalize_stage(workdir):
    run("extract", "--corpus", FIXTURES / "poverty.conllu", "--workdir", workdir)
    code = run("generalize", "--taxonomy", FIXTURES / "taxonomy.tsv",
               "--workdir", workdir)
    assert code == 0
    gen = (workdir / "store.gen.tsv").read_text(encoding="utf-8")
    assert "VN\tfight\twordnet_enemy\t4" in gen


def test_write_path_builds_no_index(workdir, monkeypatch):
    def no_index(self):
        raise AssertionError("extract and generalize must not index the store")
    monkeypatch.setattr("mf.store.Store.index", property(no_index))
    assert run("extract", "--corpus", FIXTURES / "poverty.conllu",
               "--workdir", workdir) == 0
    assert run("generalize", "--taxonomy", FIXTURES / "taxonomy.tsv",
               "--workdir", workdir) == 0
    assert (workdir / "store.gen.tsv").stat().st_size > 0
    assert list(workdir.glob("*.idx")) == []


def test_write_path_builds_no_groups(workdir, monkeypatch):
    # the README promises that only the first query builds the groups
    def no_groups(self):
        raise AssertionError("extract and generalize must not build the groups")
    monkeypatch.setattr("mf.store.StoreIndex.group", no_groups)
    assert run("extract", "--corpus", FIXTURES / "poverty.conllu",
               "--workdir", workdir) == 0
    assert run("generalize", "--taxonomy", FIXTURES / "taxonomy.tsv",
               "--workdir", workdir) == 0
    assert (workdir / "store.gen.tsv").stat().st_size > 0


def test_properties_unknown_lexeme_warns_exit_zero(workdir, capsys):
    run("extract", "--corpus", FIXTURES / "poverty.conllu", "--workdir", workdir)
    code = run("properties", "--target", "zzz", "--workdir", workdir,
               "--no-generalize")
    assert code == 0
    assert "zzz" in capsys.readouterr().err
    assert (workdir / "properties.zzz.tsv").read_text(encoding="utf-8") == ""


@pytest.mark.parametrize("rows, message", [
    pytest.param("VN\ta\tb\t9223372036854775808\n", "error: row 1: frequency",
                 id="frequency"),
    pytest.param("VN\ta\tb\t9223372036854775807\nVN\tc\tb\t1\n",
                 "error: the frequencies of pattern VN _ b sum past", id="pattern-total"),
    pytest.param("N" * 129 + "\tb" * 129 + "\t1\n", "error: row 1: 129 slots",
                 id="slots"),
])
def test_store_that_does_not_fit_the_index_exits_2(workdir, capsys, rows, message):
    workdir.mkdir()
    (workdir / "store.tsv").write_text(rows, encoding="utf-8")
    assert run("properties", "--target", "b", "--workdir", workdir,
               "--no-generalize") == 2
    assert message in capsys.readouterr().err
    assert not (workdir / "properties.b.tsv").exists()


def test_pipeline_stages_and_rerun_identical(workdir):
    # the fixture pipeline gives the bytes under tests/expected twice: on a
    # fresh work directory, and again with the index of store.tsv and the
    # topic vectors written by the first run, which the rerun reads instead
    # of the store and the topic matrix
    corpus = FIXTURES / "poverty.conllu"
    args = ["--workdir", workdir, "--no-generalize"]
    artifacts = ["store.tsv", "properties.poverty.tsv", "sources.poverty.tsv",
                 "cms.poverty.json", "lms.poverty.jsonl", "gold_report.txt"]
    for rerun in (False, True):
        assert (workdir / "store.tsv.idx").exists() == rerun
        assert (workdir / "topics.vec").exists() == rerun
        run("extract", "--corpus", corpus, *args)
        run("properties", "--target", "poverty", *args)
        run("sources", "--target", "poverty",
            "--topic-matrix", FIXTURES / "topics.tsv", *args)
        run("cms", "--target", "poverty",
            "--topic-matrix", FIXTURES / "topics.tsv",
            "--taxonomy", FIXTURES / "taxonomy.tsv", *args)
        run("find-lms", "--target", "poverty", "--corpus", corpus,
            "--expansion-table", FIXTURES / "expansion.tsv", *args)
        run("eval-gold", "--gold", FIXTURES / "gold" / "gold.tsv",
            "--expansion-table", FIXTURES / "gold" / "gold_expansion.tsv", *args)
        for name in artifacts:
            assert (workdir / name).read_bytes() == (EXPECTED / name).read_bytes(), name


@pytest.mark.parametrize("damage", ["stale", "corrupt"])
def test_stale_or_corrupt_topic_cache_is_rewritten(workdir, tmp_path, damage):
    args = _fixture_store(workdir)
    assert run("sources", *args) == 0
    cache = workdir / "topics.vec"
    good = cache.read_bytes()
    if damage == "corrupt":
        cache.write_bytes(good[:-1] + bytes([good[-1] ^ 1]))
    else:  # the cache of another topic matrix
        other = tmp_path / "other.tsv"
        other.write_text("T=5\npoverty\t0.2\t0.2\t0.2\t0.2\t0.2\n", encoding="utf-8")
        assert run("sources", *args, "--topic-matrix", other) == 0
        assert cache.read_bytes() != good
    assert run("sources", *args) == 0
    name = "sources.poverty.tsv"
    assert (workdir / name).read_bytes() == (EXPECTED / name).read_bytes()
    assert cache.read_bytes() == good


def test_stages_without_the_relatedness_filter_write_no_topic_cache(workdir, tmp_path):
    # the config file names a topic matrix, which these stages never load
    cfg = tmp_path / "topics.cfg"
    cfg.write_text(f"topic_matrix = {FIXTURES / 'topics.tsv'}\n", encoding="utf-8")
    corpus = FIXTURES / "poverty.conllu"
    args = ["--config", cfg, "--workdir", workdir]
    assert run("extract", "--corpus", corpus, *args) == 0
    assert run("generalize", "--taxonomy", FIXTURES / "taxonomy.tsv", *args) == 0
    assert run("properties", "--target", "poverty", *args, "--no-generalize") == 0
    shutil.copyfile(EXPECTED / "cms.poverty.json", workdir / "cms.poverty.json")
    assert run("find-lms", "--target", "poverty", "--corpus", corpus, *args,
               "--no-generalize") == 0
    assert not (workdir / "topics.vec").exists()


def test_nan_threshold_flag_rejected(workdir, capsys):
    # no relatedness is <= NaN, so it would drop every source in vocabulary
    assert run("sources", *_fixture_store(workdir), "--threshold", "nan") == 2
    assert "threshold" in capsys.readouterr().err
    assert not (workdir / "sources.poverty.tsv").exists()


@pytest.mark.parametrize("flag", ["--threshold=--", "--top-sources=--"])
def test_one_value_flag_given_a_lone_double_dash_rejected(workdir, capsys, flag):
    # argparse before Python 3.13 drops the lone "--" and gives [] as the value
    args = _fixture_store(workdir)
    capsys.readouterr()
    assert run("sources", *args, flag) == 2
    field = flag[2:flag.index("=")].replace("-", "_")
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not (workdir / "sources.poverty.tsv").exists()


@pytest.mark.parametrize("stage, flag, text", [
    ("cms", "--k", "\uff13"),
    ("cms", "--top-cms", "1_0"),
    ("find-lms", "--per-pair", "+3"),
    ("sources", "--threshold", "inf"),
    ("sources", "--threshold", "\uff10.\uff11"),
])
def test_flag_read_as_its_config_key(workdir, capsys, stage, flag, text):
    # argparse's int() and float() read each of these texts
    args = _fixture_store(workdir)
    if stage == "cms":
        args += ["--taxonomy", FIXTURES / "taxonomy.tsv"]
    if stage == "find-lms":
        shutil.copyfile(EXPECTED / "cms.poverty.json", workdir / "cms.poverty.json")
        args = ["--target", "poverty", "--corpus", FIXTURES / "poverty.conllu",
                "--workdir", workdir, "--no-generalize"]
    before = sorted(os.listdir(workdir))
    capsys.readouterr()
    assert run(stage, *args, flag, text) == 2
    field = flag[2:].replace("-", "_")
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert sorted(os.listdir(workdir)) == before


@pytest.mark.parametrize("stage", [stage for stage in cli._STAGES if stage != "extract"])
def test_reading_stage_creates_no_workdir(tmp_path, capsys, stage):
    assert run(stage, "--workdir", tmp_path / "new" / "a") == 2
    assert "store artifact" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def _child_env(**extra):
    """The environment of a child process that imports the same mf as
    this one."""
    package_root = str(Path(cli.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root,
                                               os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=pythonpath, **extra)


def test_cli_import_needs_no_numpy():
    out = subprocess.run(
        [sys.executable, "-c", "import mf.cli, sys; print('numpy' in sys.modules)"],
        check=True, env=_child_env(), capture_output=True, text=True).stdout
    assert out == "False\n"


def test_tracer_wraps_names_that_resolve():
    # every mf name the benchmark's tracer wraps must still exist
    tracer_dir = Path(__file__).parents[1] / "perfbench"
    code = (f"import sys; sys.path.insert(0, {str(tracer_dir)!r}); import tracer; "
            "print(tracer.install(tracer.Tracer()).__name__)")
    out = subprocess.run([sys.executable, "-B", "-c", code], check=True,
                         env=_child_env(), capture_output=True, text=True).stdout
    assert out == "mf.cli\n"


def test_artifacts_identical_across_processes(workdir, tmp_path):
    # hash randomization must not leak into extraction or into float
    # accumulation order
    corpus = FIXTURES / "poverty.conllu"
    outputs = []
    for seed in ("1", "2"):
        wd = tmp_path / f"run{seed}"
        env = _child_env(PYTHONHASHSEED=seed)
        base = [sys.executable, "-m", "mf.cli"]
        flags = ["--workdir", str(wd), "--no-generalize"]
        subprocess.run(base + ["extract", "--corpus", str(corpus)] + flags,
                       check=True, env=env, capture_output=True)
        subprocess.run(base + ["sources", "--target", "poverty",
                               "--topic-matrix", str(FIXTURES / "topics.tsv")]
                       + flags, check=True, env=env, capture_output=True)
        outputs.append([(wd / name).read_bytes()
                        for name in ("store.tsv", "sources.poverty.tsv")])
    assert outputs[0] == outputs[1]


def test_cms_artifact_schema(workdir):
    corpus = FIXTURES / "poverty.conllu"
    args = ["--workdir", workdir, "--no-generalize"]
    run("extract", "--corpus", corpus, *args)
    run("cms", "--target", "poverty",
        "--topic-matrix", FIXTURES / "topics.tsv",
        "--taxonomy", FIXTURES / "taxonomy.tsv", *args)
    records = json.loads((workdir / "cms.poverty.json").read_text("utf-8"))
    assert 0 < len(records) <= 10
    for rec in records:
        assert set(rec) == {"target", "source_node", "members", "patterns",
                            "weight"}
        assert rec["target"] == ["poverty"]
        assert rec["members"] and rec["patterns"]


# any text, with quotes, backslashes, control characters, the line
# separators JavaScript refuses and astral code points drawn often
TEXT = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\u2028\U0001f600'),
                         st.characters()), max_size=6)
WEIGHT = st.floats(allow_nan=False, allow_infinity=False)
CMS = st.lists(st.builds(
    engine.SourceConcept, TEXT,
    st.lists(st.builds(engine.WeightedSource, TEXT, WEIGHT, st.just({})),
             min_size=1, max_size=4).map(tuple),
    st.frozensets(st.builds(PatternKey, st.sampled_from(["NV", "VN", "AN"]),
                            st.tuples(st.none(), TEXT)), min_size=1, max_size=3),
    WEIGHT), max_size=3)


@settings(max_examples=200, deadline=None)
@given(TEXT, CMS)
def test_cms_writer_is_json_dumps(target, cms):
    records = [{
        "members": [{"lexeme": m.lexeme, "weight": m.weight}
                    for m in sorted(cm.members, key=lambda m: (-m.weight, m.lexeme))],
        "patterns": sorted(p.text for p in cm.shared_patterns),
        "source_node": cm.node, "target": [target], "weight": cm.weight,
    } for cm in cms]
    text = cli._cms_json(target, cms)
    assert text == json.dumps(records, indent=2, sort_keys=True) + "\n"
    assert json.loads(text) == records


def test_find_lms_jsonl_schema(workdir):
    corpus = FIXTURES / "poverty.conllu"
    args = ["--workdir", workdir, "--no-generalize"]
    run("extract", "--corpus", corpus, *args)
    run("cms", "--target", "poverty",
        "--topic-matrix", FIXTURES / "topics.tsv",
        "--taxonomy", FIXTURES / "taxonomy.tsv", *args)
    run("find-lms", "--target", "poverty", "--corpus", corpus,
        "--expansion-table", FIXTURES / "expansion.tsv", "--seed", "7", *args)
    lines = (workdir / "lms.poverty.jsonl").read_text("utf-8").splitlines()
    assert lines
    for line in lines:
        rec = json.loads(line)
        assert {"sentence_id", "target", "source", "deprel", "direction",
                "target_domain", "source_domain", "text"} <= set(rec)
        assert rec["text"]


def test_find_lms_sidecar_overrides_text(workdir, tmp_path):
    corpus = FIXTURES / "poverty.conllu"
    args = ["--workdir", workdir, "--no-generalize"]
    run("extract", "--corpus", corpus, *args)
    run("cms", "--target", "poverty",
        "--topic-matrix", FIXTURES / "topics.tsv",
        "--taxonomy", FIXTURES / "taxonomy.tsv", *args)
    run("find-lms", "--target", "poverty", "--corpus", corpus,
        "--expansion-table", FIXTURES / "expansion.tsv", *args)
    lines = (workdir / "lms.poverty.jsonl").read_text("utf-8").splitlines()
    some_id = json.loads(lines[0])["sentence_id"]
    sidecar = tmp_path / "texts.tsv"
    sidecar.write_text(f"{some_id}\toriginal raw sentence\n", encoding="utf-8")
    run("find-lms", "--target", "poverty", "--corpus", corpus,
        "--expansion-table", FIXTURES / "expansion.tsv",
        "--sidecar", sidecar, *args)
    records = [json.loads(l) for l in
               (workdir / "lms.poverty.jsonl").read_text("utf-8").splitlines()]
    overridden = [r for r in records if r["sentence_id"] == some_id]
    assert overridden and all(r["text"] == "original raw sentence"
                              for r in overridden)


def test_find_lms_sidecar_row_without_text_rejected(workdir, tmp_path, capsys):
    corpus = FIXTURES / "poverty.conllu"
    args = ["--workdir", workdir, "--no-generalize"]
    run("extract", "--corpus", corpus, *args)
    run("cms", "--target", "poverty",
        "--topic-matrix", FIXTURES / "topics.tsv",
        "--taxonomy", FIXTURES / "taxonomy.tsv", *args)
    sidecar = tmp_path / "texts.tsv"
    sidecar.write_text("s1\tsome text\ns2\n", encoding="utf-8")
    code = run("find-lms", "--target", "poverty", "--corpus", corpus,
               "--sidecar", sidecar, *args)
    assert code == 2
    assert "row 2: expected sentence_id <TAB> text" in capsys.readouterr().err
    assert not (workdir / "lms.poverty.jsonl").exists()


def test_eval_gold_cli(workdir, capsys):
    gold_dir = FIXTURES / "gold"
    workdir.mkdir(parents=True)
    shutil.copy(gold_dir / "gold_store.tsv", workdir / "store.tsv")
    code = run("eval-gold", "--gold", gold_dir / "gold.tsv",
               "--expansion-table", gold_dir / "gold_expansion.tsv",
               "--workdir", workdir, "--no-generalize")
    assert code == 0
    out = capsys.readouterr().out
    assert "found 10 of 13" in out
    assert (workdir / "gold_report.txt").read_text("utf-8").endswith(
        "found 10 of 13\n")


def test_eval_gold_warns_for_missing_targets(workdir, tmp_path, capsys):
    gold_dir = FIXTURES / "gold"
    workdir.mkdir(parents=True)
    shutil.copy(gold_dir / "gold_store.tsv", workdir / "store.tsv")
    gold = tmp_path / "gold.tsv"
    gold.write_text("A\tT\tnowhere\nA\tS\tabsent\nB\tT\twar\nB\tS\tillness\n"
                    "C\tT\tnowhere\nC\tT\tnever\nC\tS\tillness\n", encoding="utf-8")
    code = run("eval-gold", "--gold", gold, "--workdir", workdir, "--no-generalize")
    assert code == 0
    err = capsys.readouterr().err.splitlines()
    assert [line.split("'")[1] for line in err] == ["nowhere", "never"]
    assert all(line.startswith("warning: lexeme ") for line in err)


def test_generalized_store_feeds_downstream(workdir):
    corpus = FIXTURES / "poverty.conllu"
    run("extract", "--corpus", corpus, "--workdir", workdir)
    run("generalize", "--taxonomy", FIXTURES / "taxonomy.tsv",
        "--workdir", workdir)
    code = run("sources", "--target", "poverty",
               "--topic-matrix", FIXTURES / "topics.tsv", "--workdir", workdir)
    assert code == 0
    text = (workdir / "sources.poverty.tsv").read_text("utf-8")
    assert "wordnet_" in text  # co-filler nouns were rewritten to class ids


def test_target_missing_from_generalized_store_warns_once(workdir, capsys):
    # "enemy" is in store.tsv, but generalize filed it under wordnet_enemy
    run("extract", "--corpus", FIXTURES / "poverty.conllu", "--workdir", workdir)
    run("generalize", "--taxonomy", FIXTURES / "taxonomy.tsv", "--workdir", workdir)
    capsys.readouterr()
    topics = ["--topic-matrix", FIXTURES / "topics.tsv"]
    for stage, extra in [("properties", []), ("sources", topics),
                         ("cms", [*topics, "--taxonomy", FIXTURES / "taxonomy.tsv"]),
                         ("find-lms", ["--corpus", FIXTURES / "poverty.conllu"])]:
        args = ["--target", "enemy", "--workdir", workdir, *extra]
        assert run(stage, *args) == 0
        err = capsys.readouterr().err
        assert err == (f"warning: lexeme 'enemy' not found in {workdir / 'store.gen.tsv'}"
                       ": generalize rewrote the nouns the taxonomy maps into class"
                       " ids, and --no-generalize reads store.tsv\n"), stage
        assert run(stage, *args, "--no-generalize") == 0
        assert capsys.readouterr().err == "", stage


def test_generalized_path_artifacts_match_digests(workdir):
    # the default pipeline, through store.gen.tsv, kept byte for byte, on a
    # fresh work directory and again with store.gen.tsv.idx in it
    corpus = FIXTURES / "poverty.conllu"
    args = ["--workdir", workdir]
    for rerun in (False, True):
        assert (workdir / "store.gen.tsv.idx").exists() == rerun
        run("extract", "--corpus", corpus, *args)
        run("generalize", "--taxonomy", FIXTURES / "taxonomy.tsv", *args)
        run("sources", "--target", "poverty",
            "--topic-matrix", FIXTURES / "topics.tsv", *args)
        run("cms", "--target", "poverty",
            "--topic-matrix", FIXTURES / "topics.tsv",
            "--taxonomy", FIXTURES / "taxonomy.tsv", *args)
        run("find-lms", "--target", "poverty", "--corpus", corpus,
            "--expansion-table", FIXTURES / "expansion.tsv", *args)
        for line in (EXPECTED / "generalized-fixture.sha256").read_text(
                "utf-8").splitlines():
            digest, name = line.split()
            assert hashlib.sha256((workdir / name).read_bytes()).hexdigest() == digest, \
                name
    records = json.loads((workdir / "cms.poverty.json").read_text("utf-8"))
    assert "wordnet_city" in {r["source_node"] for r in records}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the digests were made with Python 3.11, and gen.py's "
                           "output on other versions is unchecked")
@pytest.mark.parametrize("workload, cached", [
    pytest.param(workload, cached, id=workload + ("-idx" if cached else ""))
    for cached in (False, True) for workload in ("build", "metaphors", "retrieve")])
def test_seed1_workload_artifacts_match_digests(workload, cached, tmp_path):
    # the seed-1 benchmark inputs, run stage by stage the way perfbench/run.py
    # does, kept byte for byte: build extracts the four shards and generalizes,
    # the others run on the raw store. The cached case runs every stage a
    # second time in the same work directory, where the store's index file,
    # the topic vectors and the corpus's sentences are then read instead of
    # the store, the topic matrix and the corpus.
    gen = Path(__file__).parents[1] / "perfbench" / "gen.py"
    inputs, wd = tmp_path / "in", tmp_path / "out"
    described = subprocess.run(
        [sys.executable, "-B", str(gen), "--workload", workload, "--seed", "1",
         "--out", str(inputs)], check=True, capture_output=True, text=True).stdout

    def stages():
        if workload == "build":
            shards = [inputs / f"corpus.{i}.conllu" for i in range(4)]
            assert run("extract", "--corpus", *shards, "--workdir", wd) == 0
            assert run("generalize", "--taxonomy", inputs / "taxonomy.tsv",
                       "--workdir", wd) == 0
            return
        targets = [a for t in described.split("targets: ")[1].split()
                   for a in ("--target", t)]
        args = ["--workdir", wd, "--no-generalize"]
        topics = ["--topic-matrix", inputs / "topics.tsv"]
        expansion = ["--expansion-table", inputs / "expansion.tsv"]
        assert run("extract", "--corpus", inputs / "corpus.conllu", *args) == 0
        assert run("cms", *targets, *topics, "--taxonomy", inputs / "taxonomy.tsv",
                   *args) == 0
        if workload == "metaphors":
            assert run("sources", *targets, *topics, *args) == 0
            assert run("eval-gold", "--gold", inputs / "gold.tsv", *expansion, *topics,
                       *args) == 0
        else:
            assert run("find-lms", *targets, "--corpus", inputs / "corpus.conllu",
                       *expansion, *args) == 0

    # no build stage loads a topic matrix, and only find-lms caches a corpus
    caches = ["store.tsv.idx"] + ([] if workload == "build" else ["topics.vec"]) \
        + (["corpus.conllu.snt"] if workload == "retrieve" else [])
    if cached:
        stages()
        if workload == "build":
            # no build stage queries a store, so index the raw one here for
            # generalize to read
            Store.load(wd / "store.tsv").index
        assert all((wd / name).exists() for name in caches)
        written = {name: (wd / name).read_bytes() for name in caches}
    stages()
    if cached:
        assert {name: (wd / name).read_bytes() for name in caches} == written
    for line in (EXPECTED / f"{workload}-seed1.sha256").read_text("utf-8").splitlines():
        digest, name = line.split()
        assert hashlib.sha256((wd / name).read_bytes()).hexdigest() == digest, name


ENEMY_POVERTY = """\
1\tenemy\tenemy\tNOUN\t_\t_\t2\tcompound\t_\t_
2\tpoverty\tpoverty\tNOUN\t_\t_\t0\troot\t_\t_
"""


def test_find_lms_keeps_hits_from_shards_without_sent_ids(workdir, tmp_path):
    shards = [tmp_path / "a.conllu", tmp_path / "b.conllu"]
    for shard in shards:
        shard.write_text(ENEMY_POVERTY, encoding="utf-8")
    args = ["--workdir", workdir, "--no-generalize"]
    assert run("extract", "--corpus", *shards, *args) == 0
    (workdir / "cms.poverty.json").write_text(json.dumps([{
        "target": ["poverty"], "source_node": "wordnet_enemy",
        "members": [{"lexeme": "enemy", "weight": 1.0}],
        "patterns": [], "weight": 1.0}]), encoding="utf-8")
    outputs = []
    for order in (shards, shards[::-1]):
        assert run("find-lms", "--target", "poverty", "--corpus", *order,
                   *args) == 0
        outputs.append((workdir / "lms.poverty.jsonl").read_text("utf-8"))
    assert outputs[0] == outputs[1]
    ids = [json.loads(line)["sentence_id"] for line in outputs[0].splitlines()]
    assert sorted(ids) == ["a.conllu:s1", "b.conllu:s1"]


SHARED_ID = """\
# sent_id = x
1\tDeep\tdeep\tADJ\t_\t_\t2\tamod\t_\t_
2\tpoverty\tpoverty\tNOUN\t_\t_\t3\tnsubj\t_\t_
3\tfrightens\tfrighten\tVERB\t_\t_\t0\troot\t_\t_

# sent_id = x
1\tThe\tthe\tDET\t_\t_\t2\tdet\t_\t_
2\tsea\tsea\tNOUN\t_\t_\t4\tnsubj\t_\t_
3\tis\tbe\tAUX\t_\t_\t4\tcop\t_\t_
4\tcalm\tcalm\tADJ\t_\t_\t0\troot\t_\t_
5\tand\tand\tCCONJ\t_\t_\t8\tcc\t_\t_
6\tdeep\tdeep\tADJ\t_\t_\t7\tamod\t_\t_
7\tpoverty\tpoverty\tNOUN\t_\t_\t8\tnsubj\t_\t_
8\tspreads\tspread\tVERB\t_\t_\t4\tconj\t_\t_
"""


def test_find_lms_text_comes_from_the_hit_sentence(workdir, tmp_path):
    # both sentences are named x and count as one when sampling; the hit
    # kept for x is the first sentence's, and so must be its text
    corpus = tmp_path / "shared.conllu"
    corpus.write_text(SHARED_ID, encoding="utf-8")
    workdir.mkdir()
    for name in ("store.tsv", "cms.poverty.json"):
        shutil.copy(EXPECTED / name, workdir / name)
    assert run("find-lms", "--target", "poverty", "--corpus", corpus,
               "--expansion-table", FIXTURES / "expansion.tsv",
               "--workdir", workdir, "--no-generalize") == 0
    records = [json.loads(line) for line in
               (workdir / "lms.poverty.jsonl").read_text("utf-8").splitlines()]
    amod = [r for r in records if r["deprel"] == "amod"]
    assert amod and all(r["source"] == "deep" for r in amod)
    assert {r["text"] for r in amod} == {"Deep poverty frightens"}


def test_shards_sharing_a_file_name_rejected(workdir, tmp_path, capsys):
    shards = [tmp_path / d / "part.conllu" for d in ("x", "y")]
    for shard in shards:
        shard.parent.mkdir()
        shard.write_text(ENEMY_POVERTY, encoding="utf-8")
    assert run("extract", "--corpus", *shards, "--workdir", workdir) == 2
    assert "part.conllu" in capsys.readouterr().err


def test_topic_count_checked_only_when_configured(workdir, tmp_path, capsys):
    args = ["--workdir", workdir, "--no-generalize", "--target", "poverty",
            "--topic-matrix", FIXTURES / "topics.tsv"]
    run("extract", "--corpus", FIXTURES / "poverty.conllu", *args[:3])
    capsys.readouterr()
    assert run("sources", *args) == 0
    assert "topics" not in capsys.readouterr().err
    cfg = tmp_path / "topics.cfg"
    cfg.write_text("topics = 50\n", encoding="utf-8")
    assert run("sources", "--config", cfg, *args) == 0
    assert "config expects 50" in capsys.readouterr().err


def _poverty_and_crime_cms(workdir):
    """A work directory with generated CMs for poverty and a written one
    for crime, whose source lexemes the fixture corpus links to it."""
    args = ["--workdir", workdir, "--no-generalize"]
    run("extract", "--corpus", FIXTURES / "poverty.conllu", *args)
    run("cms", "--target", "poverty",
        "--topic-matrix", FIXTURES / "topics.tsv",
        "--taxonomy", FIXTURES / "taxonomy.tsv", *args)
    (workdir / "cms.crime.json").write_text(json.dumps([{
        "target": ["crime"], "source_node": "wordnet_fight",
        "members": [{"lexeme": "fight", "weight": 1.0},
                    {"lexeme": "war", "weight": 0.5}],
        "patterns": [], "weight": 1.0}]), encoding="utf-8")
    return args + ["--expansion-table", FIXTURES / "expansion.tsv",
                   "--per-pair", "3"]


def test_find_lms_all_targets_match_one_target_runs(workdir, capsys):
    args = _poverty_and_crime_cms(workdir) + ["--corpus", FIXTURES / "poverty.conllu"]
    capsys.readouterr()
    alone, printed = {}, []
    for target in ("poverty", "crime"):
        assert run("find-lms", "--target", target, *args) == 0
        alone[target] = (workdir / f"lms.{target}.jsonl").read_bytes()
        printed.append(capsys.readouterr().out)
    assert alone["poverty"] and alone["crime"]
    # a repeated target is retrieved, written and counted once
    assert run("find-lms", "--target", "poverty", "--target", "crime",
               "--target", "poverty", *args) == 0
    assert capsys.readouterr().out == "".join(printed)
    for target, data in alone.items():
        assert (workdir / f"lms.{target}.jsonl").read_bytes() == data


def test_find_lms_parses_each_shard_once(workdir, tmp_path, monkeypatch):
    args = _poverty_and_crime_cms(workdir)
    blocks = (FIXTURES / "poverty.conllu").read_text("utf-8").strip().split("\n\n")
    shards = [tmp_path / "a.conllu", tmp_path / "b.conllu"]
    shards[0].write_text("\n\n".join(blocks[:100]) + "\n", encoding="utf-8")
    shards[1].write_text("\n\n".join(blocks[100:]) + "\n", encoding="utf-8")
    parsed = []
    iter_sentences = cli.iter_sentences

    def counting(source, cache=None):
        parsed.append(source)
        return iter_sentences(source, cache)
    monkeypatch.setattr(cli, "iter_sentences", counting)
    assert run("find-lms", "--target", "poverty", "--target", "crime",
               "--corpus", *shards, *args) == 0
    assert sorted(map(str, parsed)) == sorted(map(str, shards))


def _unparsed(*args, **kwargs):
    raise AssertionError("a shard was parsed")


def test_find_lms_warm_run_parses_nothing(workdir, capsys, monkeypatch):
    args = _poverty_and_crime_cms(workdir) + [
        "--corpus", FIXTURES / "poverty.conllu", "--target", "poverty", "--target", "crime"]
    capsys.readouterr()
    outputs = []
    for warm in (False, True):
        if warm:
            assert (workdir / "poverty.conllu.snt").exists()
            monkeypatch.setattr(conllu, "_parse", _unparsed)
        assert run("find-lms", *args) == 0
        outputs.append((capsys.readouterr().out, [
            (workdir / f"lms.{t}.jsonl").read_bytes() for t in ("poverty", "crime")]))
    assert outputs[0] == outputs[1]
    assert all(outputs[0][1])


def test_find_lms_parses_an_edited_shard_again(workdir, tmp_path):
    args = _poverty_and_crime_cms(workdir) + ["--target", "poverty", "--target", "crime"]
    blocks = (FIXTURES / "poverty.conllu").read_text("utf-8").strip().split("\n\n")
    shard = tmp_path / "part.conllu"
    shard.write_text("\n\n".join(blocks[:150]) + "\n", encoding="utf-8")
    outputs = []
    # the shard, then the edited shard through the old cache file, then with none
    for edited in (False, True, True):
        if edited:
            shard.write_text("\n\n".join(blocks[150:]) + "\n", encoding="utf-8")
        assert run("find-lms", "--corpus", shard, *args) == 0
        outputs.append([(workdir / f"lms.{t}.jsonl").read_bytes()
                        for t in ("poverty", "crime")])
        cache = workdir / "part.conllu.snt"
        outputs[-1].append(cache.read_bytes())
        if len(outputs) > 1:
            cache.unlink()
    assert outputs[0] != outputs[1] == outputs[2]


def test_find_lms_shard_that_fails_its_checks_leaves_no_cache(workdir, tmp_path, capsys):
    args = _poverty_and_crime_cms(workdir) + ["--target", "poverty"]
    shard = tmp_path / "bad.conllu"
    shard.write_text((FIXTURES / "poverty.conllu").read_text("utf-8")
                     + "\n1\tx\tx\tNOUN\t_\t_\t0\troot\n", encoding="utf-8")
    capsys.readouterr()
    assert run("find-lms", "--corpus", shard, *args) == 2
    assert "expected 10 tab-separated columns" in capsys.readouterr().err
    assert not (workdir / "bad.conllu.snt").exists()
    assert not list(workdir.glob(".bad.conllu.snt.*"))


def test_find_lms_expands_each_lexeme_once(workdir, monkeypatch):
    corpus = FIXTURES / "poverty.conllu"
    args = ["--workdir", workdir, "--no-generalize"]
    run("extract", "--corpus", corpus, *args)
    run("cms", "--target", "poverty", "--topic-matrix", FIXTURES / "topics.tsv",
        "--taxonomy", FIXTURES / "taxonomy.tsv", *args)
    records = json.loads((workdir / "cms.poverty.json").read_text("utf-8"))
    members = [m["lexeme"] for rec in records for m in rec["members"]]
    assert len(set(members)) < len(members)  # some lexeme is in two CMs
    expanded = []
    salient_properties = lm.salient_properties

    def counting(lexeme, *rest):
        expanded.append(lexeme)
        return salient_properties(lexeme, *rest)
    monkeypatch.setattr(lm, "salient_properties", counting)
    assert run("find-lms", "--target", "poverty", "--corpus", corpus,
               "--expansion-table", FIXTURES / "expansion.tsv", *args) == 0
    assert sorted(expanded) == sorted({"poverty", *members})


def test_find_lms_rejects_cms_of_another_target(workdir, capsys):
    args = _poverty_and_crime_cms(workdir)
    (workdir / "cms.crime.json").replace(workdir / "cms.poverty.json")
    assert run("find-lms", "--target", "poverty",
               "--corpus", FIXTURES / "poverty.conllu", *args) == 2
    assert "cms.poverty.json" in capsys.readouterr().err


def _without_target(text):
    return json.dumps([{k: v for k, v in rec.items() if k != "target"}
                       for rec in json.loads(text)])


@pytest.mark.parametrize("damage", [lambda text: text[:len(text) // 2],
                                    _without_target],
                         ids=["truncated", "record-without-target"])
def test_find_lms_malformed_cms_names_file(workdir, capsys, damage):
    args = _poverty_and_crime_cms(workdir)
    cms = workdir / "cms.poverty.json"
    cms.write_text(damage(cms.read_text("utf-8")), encoding="utf-8")
    capsys.readouterr()
    assert run("find-lms", "--target", "poverty",
               "--corpus", FIXTURES / "poverty.conllu", *args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cms.poverty.json" in err


def _first_member_lexeme_is_a_number(records):
    records[0]["members"][0]["lexeme"] = 5


def _first_source_node_is_a_number(records):
    assert len(records) > 1  # the other nodes stay strings
    records[0]["source_node"] = 7


@pytest.mark.parametrize("damage", [_first_member_lexeme_is_a_number,
                                    _first_source_node_is_a_number],
                         ids=["lexeme", "source-node"])
def test_find_lms_cms_names_that_are_not_strings_rejected(workdir, capsys, damage):
    args = _poverty_and_crime_cms(workdir)
    cms = workdir / "cms.poverty.json"
    records = json.loads(cms.read_text("utf-8"))
    damage(records)
    cms.write_text(json.dumps(records), encoding="utf-8")
    capsys.readouterr()
    assert run("find-lms", "--target", "poverty",
               "--corpus", FIXTURES / "poverty.conllu", *args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cms.poverty.json" in err
    assert "expected a list of conceptual metaphors" in err


def test_extract_truncated_rules_names_file(workdir, tmp_path, capsys):
    rules = tmp_path / "rules.json"
    rules.write_text('[{"label": "VN", "arcs": [{"head": "v",\n', encoding="utf-8")
    assert run("extract", "--corpus", FIXTURES / "poverty.conllu",
               "--rules", rules, "--workdir", workdir) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "rules.json" in err and "line 2" in err
