"""The library surface: the names `mf` exports, the README's Library
example, run as written from the repository root, and the README's CLI
flag list and example config."""

import json
import re
import subprocess
import sys
from pathlib import Path

import mf
from mf import cli
from mf.config import load_config

ROOT = Path(__file__).parents[1]


def test_exports_resolve_once_without_the_deleted_names():
    assert len(set(mf.__all__)) == len(mf.__all__)
    for name in mf.__all__:
        assert getattr(mf, name) is not None, name
    # names deleted because no stage called them
    assert not {"tuple_weight", "save_topic_matrix"} & set(mf.__all__)
    assert not hasattr(mf.engine, "tuple_weight")
    assert not hasattr(mf.topics, "save_topic_matrix")
    assert not hasattr(mf.Store, "pattern_total")
    assert not hasattr(mf.Store, "lexemes")
    assert not hasattr(mf.PatternKey, "blank_position")
    assert "evidence_freq" not in mf.WeightedSource._fields


def test_readme_library_block_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"^```python\n(.*?)^```$", library, re.S | re.M).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})
    printed = [line.split(" ", 2)[:2] for line in capsys.readouterr().out.splitlines()]
    # the block's parameters are the stage defaults, so it prints the CMs
    # that `mf cms --no-generalize` writes for the README's CLI block
    expected = json.loads((ROOT / "tests/expected/cms.poverty.json").read_text("utf-8"))
    assert printed == [[cm["source_node"], str(round(cm["weight"], 3))]
                       for cm in expected]


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # every stage is a fresh process that imports mf.cli; records are typed
    # tuples, so no stage pays for dataclasses and the inspect it imports
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import mf.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_readme_cli_flags_and_example_config():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    cli_section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    # "- `stage`: `--flag`, `--flag N`, ..." items, continued on indented lines
    items = re.findall(r"^- `([a-z-]+)`: (.*(?:\n  .*)*)", cli_section, re.M)
    listed = {}
    for stage, text in items:
        listed[stage] = set(re.findall(r"`(--[a-z-]+)", text))
        if "the `sources` flags" in text:
            listed[stage] |= listed["sources"]
    assert listed == {stage: set(flags) for stage, (_, _, flags) in cli._STAGES.items()}

    block = re.search(r"^```ini\n(.*?)^```$", cli_section, re.S | re.M).group(1)
    written = dict(line.split(" = ", 1) for line in block.splitlines())
    cfg = load_config(block.splitlines())

    def shown(value):
        if isinstance(value, tuple):
            return ", ".join(value)
        return str(value).lower() if isinstance(value, bool) else str(value)
    assert {key: shown(getattr(cfg, key)) for key in written} == written
