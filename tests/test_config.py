import pytest

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
    path = tmp_path / "bad.cfg"
    path.write_text("k = five\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.field == "k"


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
    # NaN too: no relatedness is <= NaN, so it would drop every source
    path = tmp_path / "bad.cfg"
    for value in ("-0.5", "nan"):
        path.write_text(f"threshold = {value}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="threshold") as err:
            load_config(path)
        assert err.value.field == "threshold"
