import pytest
from hypothesis import given, settings, strategies as st

from mf import cli
from mf.config import PipelineConfig, load_config
from mf.errors import ConfigError


def test_defaults_match_published_parameters():
    cfg = PipelineConfig()
    assert cfg.threshold == 0.04
    assert cfg.k == 5
    assert cfg.top_sources == 100
    assert cfg.top_cms == 10
    assert cfg.per_pair == 10
    assert cfg.topics is None
    assert cfg.min_freq == 1
    assert cfg.generalize is True


def test_load_and_override(tmp_path):
    path = tmp_path / "pipeline.cfg"
    path.write_text(
        "# pipeline settings\n"
        "corpus = corpus.conllu\n"
        "threshold = 0.1\n"
        "k = 3\n"
        "targets = poverty, wealth\n"
        "generalize = false\n",
        encoding="utf-8")
    cfg = load_config(path)
    assert cfg.corpus == ("corpus.conllu",)
    assert cfg.threshold == 0.1
    assert cfg.k == 3
    assert cfg.targets == ("poverty", "wealth")
    assert cfg.generalize is False


def test_unknown_key_names_field(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("treshold = 0.1\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.field == "treshold"


def test_non_numeric_value_names_field(tmp_path):
    # int() reads "1_0" as 10, and "+3" and the fullwidth digit three as 3;
    # an integer key takes ASCII digits
    path = tmp_path / "bad.cfg"
    for value in ("five", "1_0", "+3", "\uff13"):
        path.write_text(f"k = {value}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="expected an integer") as err:
            load_config(path)
        assert err.value.field == "k", value


def test_strictly_positive_parameters(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("k = 0\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.field == "k"


def test_threshold_zero_allowed(tmp_path):
    path = tmp_path / "ok.cfg"
    path.write_text("threshold = 0\n", encoding="utf-8")
    assert load_config(path).threshold == 0.0


def test_negative_threshold_rejected(tmp_path):
    # NaN too: no relatedness is <= NaN, so it would drop every source; and
    # float() reads "inf", "1_0" and the fullwidth "０.１"
    path = tmp_path / "bad.cfg"
    for value in ("-0.5", "nan", "inf", "1_0", "\uff10.\uff11"):
        path.write_text(f"threshold = {value}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="threshold") as err:
            load_config(path)
        assert err.value.field == "threshold"


# each flag that takes one value, by the field it sets, and a stage taking it
SCALAR_FLAGS = {"workdir": ("--workdir", "extract")} | {
    flag[2:].replace("-", "_"): (flag, stage)
    for stage, (_, _, flags) in cli._STAGES.items() for flag in flags
    if flag not in ("--target", "--corpus")}
PARSER = cli.build_parser()


def _outcome(read):
    try:
        return read()
    except ConfigError as exc:
        return ConfigError, exc.field


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(SCALAR_FLAGS)),
       st.lists(st.sampled_from([*"0123456789._+- e", "inf", "nan", "\uff13", "\uff10"]),
                max_size=6).map("".join).filter(lambda text: text != "--"))
def test_flag_reads_as_its_config_line(field, text):
    # a lone "--" is argparse's end of options, which Python < 3.13 drops
    # even from "--flag=--"
    flag, stage = SCALAR_FLAGS[field]
    from_file = _outcome(lambda: getattr(load_config([f"{field} = {text}\n"]), field))
    # --flag=text: argparse would take a text such as "-e" for a flag
    args = PARSER.parse_args([stage, f"{flag}={text}"])
    from_flag = _outcome(lambda: getattr(cli._configure(args), field))
    assert from_flag == from_file
    if isinstance(from_file, tuple):  # a refusal names the field
        assert from_file == (ConfigError, field)
