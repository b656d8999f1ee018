import gzip
import hashlib
import tempfile
from array import array
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mf import iter_sentences, textio
from mf.conllu import _CACHE_MAGIC, _TYPECODES
from mf.errors import ConlluParseError, SentenceStructureError

from .lexemes import LEXEMES, trees

TWO_TOKEN = """\
1\tfights\tfight\tVERB\t_\t_\t0\troot\t_\t_
2\tpoverty\tpoverty\tNOUN\t_\t_\t1\tobj\t_\t_
"""


def test_empty_input():
    assert list(iter_sentences([])) == []


def test_minimal_block():
    sents = list(iter_sentences(TWO_TOKEN.splitlines(keepends=True)))
    assert len(sents) == 1
    sent = sents[0]
    assert len(sent.tokens) == 2
    assert sent.tokens[0].lemma == "fight"
    assert sent.tokens[1].deprel == "obj"
    assert sent.tokens[1].head == 1


def test_sent_id_comment_and_default_ids():
    # the key is matched whole: "sent_id_orig" names nothing
    text = ("# sent_id = abc\n# sent_idx = 8\n" + TWO_TOKEN
            + "\n# sent_id_orig = 7\n" + TWO_TOKEN)
    sents = list(iter_sentences(text.splitlines(keepends=True)))
    assert [s.id for s in sents] == ["abc", "s2"]


def test_lemma_lowercased_and_form_fallback():
    text = ("1\tJohn\tJohn\tPROPN\t_\t_\t2\tnsubj\t_\t_\n"
            "2\tRuns\t_\tVERB\t_\t_\t0\troot\t_\t_\n")
    sent = list(iter_sentences(text.splitlines(keepends=True)))[0]
    assert sent.tokens[0].lemma == "john"
    assert sent.tokens[1].lemma == "runs"  # LEMMA "_" falls back to FORM


def test_multiword_ranges_and_empty_nodes_skipped():
    text = ("1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "1\tde\tde\tADP\t_\t_\t3\tcase\t_\t_\n"
            "2\tel\tel\tDET\t_\t_\t3\tdet\t_\t_\n"
            "2.1\tnada\tnada\tNOUN\t_\t_\t_\t_\t_\t_\n"
            "3\tcampo\tcampo\tNOUN\t_\t_\t0\troot\t_\t_\n")
    sent = list(iter_sentences(text.splitlines(keepends=True)))[0]
    assert [t.index for t in sent.tokens] == [1, 2, 3]


@pytest.mark.parametrize("tok_id", ["-2", "2-", "x-y", "1.x", ".", "\uff11",
                                    "\uff11-\uff12", "1.\uff11"])
def test_malformed_id_reports_line(tok_id):
    # neither a number, nor an N-M range, nor an N.M empty node, in ASCII digits
    text = f"{tok_id}\tz\tz\tNOUN\t_\t_\t_\t_\t_\t_\n" + TWO_TOKEN
    with pytest.raises(ConlluParseError, match="non-numeric ID") as err:
        list(iter_sentences(text.splitlines(keepends=True)))
    assert err.value.line == 1


def test_wrong_column_count_reports_line():
    with pytest.raises(ConlluParseError) as err:
        list(iter_sentences(["1\tx\tx\tNOUN\t0\troot\n"]))
    assert err.value.line == 1


def test_non_numeric_head_reports_line():
    bad = TWO_TOKEN.replace("\t1\tobj", "\tQ\tobj")
    with pytest.raises(ConlluParseError) as err:
        list(iter_sentences(bad.splitlines(keepends=True)))
    assert err.value.line == 2


@pytest.mark.parametrize("head", ["0_0", "+1", " 1", "\uff11", "\u0661"])
def test_signed_or_spaced_head_reports_line(head):
    # int() reads "0_0" as 0 (a root) and "+1", " 1" and the fullwidth and
    # Arabic-Indic digit one as 1; none is a CoNLL-U HEAD
    bad = TWO_TOKEN.replace("\t1\tobj", f"\t{head}\tobj")
    with pytest.raises(ConlluParseError, match="non-numeric HEAD") as err:
        list(iter_sentences(bad.splitlines(keepends=True)))
    assert err.value.line == 2


def test_dangling_head_reports_sentence():
    text = ("# sent_id = bad1\n"
            "1\ta\ta\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
            "2\tb\tb\tVERB\t_\t_\t0\troot\t_\t_\n"
            "3\tc\tc\tNOUN\t_\t_\t9\tobj\t_\t_\n"
            "4\td\td\tNOUN\t_\t_\t2\tobj\t_\t_\n")
    with pytest.raises(SentenceStructureError) as err:
        list(iter_sentences(text.splitlines(keepends=True)))
    assert err.value.sentence_id == "bad1"


def test_self_loop_rejected():
    bad = TWO_TOKEN.replace("2\tpoverty\tpoverty\tNOUN\t_\t_\t1",
                            "2\tpoverty\tpoverty\tNOUN\t_\t_\t2")
    with pytest.raises(SentenceStructureError):
        list(iter_sentences(bad.splitlines(keepends=True)))



@pytest.mark.parametrize("heads, message", [
    ((0, 1, 0, 3), "2 tokens have head 0"),  # two roots
    ((0, 3, 4, 2), "head cycle"),            # 2 -> 3 -> 4 -> 2 never reaches 1
])
def test_single_root_reached_by_every_token(heads, message):
    text = "# sent_id = tree1\n" + "".join(
        f"{i}\tw{i}\tw{i}\tNOUN\t_\t_\t{h}\tdep\t_\t_\n"
        for i, h in enumerate(heads, start=1))
    with pytest.raises(SentenceStructureError, match=message) as err:
        list(iter_sentences(text.splitlines(keepends=True)))
    assert err.value.sentence_id == "tree1"


def test_gzip_transparent(tmp_path):
    path = tmp_path / "corpus.conllu.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(TWO_TOKEN)
    sents = list(iter_sentences(path))
    assert len(sents) == 1 and len(sents[0].tokens) == 2


def test_fixture_corpus_parses(corpus_sentences):
    assert len(corpus_sentences) == 302
    assert all(sent.tokens for sent in corpus_sentences)


# words that a CoNLL-U line carries as they are: a lemma is lower-cased on
# load and "_" stands for the form; a sent_id is read stripped
WORDS = LEXEMES.filter(lambda w: w == w.lower() and w != "_")
SENT_IDS = LEXEMES.filter(lambda w: w == w.strip())
OTHER_COMMENTS = ["#", "# text = a b", "# sent_id_orig = 7", "# sent_id =",
                  "#sent_id"]
SEPARATORS = ["", " ", "\t", "\t" * 9, " \t "]


@st.composite
def conllu_files(draw):
    """(file name, the sentences drawn, the bytes of a CoNLL-U file of them):
    sentences with and without sent_id, other comments, multiword ranges and
    empty nodes between the tokens, whitespace-only separator lines, LF or
    CRLF line endings, plain or gzip."""
    gz = draw(st.booleans())
    name = "corpus.conllu.gz" if gz else "corpus.conllu"
    sentences, lines = [], draw(st.lists(st.sampled_from(SEPARATORS[1:]), max_size=1))
    for k in range(1, draw(st.integers(0, 4)) + 1):
        if k > 1:
            lines += draw(st.lists(st.sampled_from(SEPARATORS), min_size=1, max_size=2))
        sid = draw(st.one_of(st.none(), SENT_IDS))
        words = draw(st.lists(WORDS, min_size=1, max_size=3))
        sentence = draw(trees(sid or f"{name}:s{k}", words, words, words, forms=words))
        lines += draw(st.lists(st.sampled_from(OTHER_COMMENTS), max_size=2))
        if sid is not None:
            lines.append(f"# sent_id = {sid}")
        n = len(sentence.tokens)
        for t in sentence.tokens:
            skipped = draw(st.sampled_from(["", "range", "empty"]))
            if skipped == "range" and t.index < n:
                lines.append(f"{t.index}-{t.index + 1}\t{t.surface}" + "\t_" * 8)
            lines.append("\t".join([str(t.index), t.surface, t.lemma, t.upos, "_", "_",
                                    str(t.head), t.deprel, "_", "_"]))
            if skipped == "empty":
                lines.append(f"{t.index}.1\t{t.surface}" + "\t_" * 8)
        sentences.append(sentence)
    end = "\r\n" if draw(st.booleans()) else "\n"
    data = "".join(line + end for line in lines).encode("utf-8")
    return name, sentences, gzip.compress(data, mtime=0) if gz else data


@settings(max_examples=60, deadline=None)
@given(conllu_files())
def test_written_sentences_read_back_parsed_or_cached(file):
    name, sentences, data = file
    expected = list(map(repr, sentences))  # the classes and the field types too
    with tempfile.TemporaryDirectory() as tmp:
        path, cache = Path(tmp) / name, Path(tmp) / f"{name}.snt"
        path.write_bytes(data)
        assert list(map(repr, iter_sentences(path))) == expected
        assert not cache.exists()
        assert list(map(repr, iter_sentences(path, cache))) == expected
        assert cache.exists()
        with mock.patch("mf.conllu._parse", side_effect=AssertionError("parsed")):
            assert list(map(repr, iter_sentences(path, cache))) == expected


def test_cache_written_only_once_the_last_sentence_is_read(tmp_path):
    path, cache = tmp_path / "a.conllu", tmp_path / "a.conllu.snt"
    path.write_text(TWO_TOKEN + "\n" + TWO_TOKEN, encoding="utf-8")
    sentences = iter_sentences(path, cache)
    next(sentences), next(sentences)
    sentences.close()  # a reader that stops early, at the last sentence
    assert list(tmp_path.iterdir()) == [path]
    assert len(list(iter_sentences(path, cache))) == 2
    assert cache.exists()


def test_cache_of_a_shard_with_another_name_refused(tmp_path):
    # the same bytes, but the sentences without sent_id are named after the file
    a, b = tmp_path / "a.conllu", tmp_path / "b.conllu"
    for path in (a, b):
        path.write_text(TWO_TOKEN, encoding="utf-8")
    list(iter_sentences(a, tmp_path / "a.snt"))
    (tmp_path / "b.snt").write_bytes((tmp_path / "a.snt").read_bytes())
    assert [s.id for s in iter_sentences(b, tmp_path / "b.snt")] == ["b.conllu:s1"]
    assert [s.id for s in iter_sentences(b, tmp_path / "b.snt")] == ["b.conllu:s1"]
    assert textio.read_cache(tmp_path / "b.snt", _CACHE_MAGIC, b, 3,
                             _TYPECODES)[0][0] == ["b.conllu"]


def _set(column, i, value):
    column[i] = value
    return column


@pytest.mark.parametrize("damage", [
    pytest.param(lambda t, c: ([["b.conllu"], t[1], t[2]], c), id="other-name"),
    pytest.param(lambda t, c: ([t[0], t[1][:-1], t[2]], c), id="an-id-short"),
    pytest.param(lambda t, c: (t, [_set(c[0], 0, 1)] + c[1:]), id="first-start"),
    pytest.param(lambda t, c: (t, [_set(c[0], 1, c[0][2] + 1)] + c[1:]),
                 id="decreasing-starts"),
    pytest.param(lambda t, c: (t, [_set(c[0], -1, c[0][-1] - 1)] + c[1:]),
                 id="last-start"),
    pytest.param(lambda t, c: (t, c[:1] + [c[1][:-1]] + c[2:]), id="a-column-short"),
    pytest.param(lambda t, c: (t, c[:2] + [_set(c[2], 0, len(t[2]))] + c[3:]),
                 id="word-id-past-the-table"),
    pytest.param(lambda t, c: (t, c[:4] + [_set(c[4], 0, 2**32 - 1)] + c[5:]),
                 id="largest-word-id"),
])
def test_cache_whose_columns_do_not_fit_refused(tmp_path, damage):
    # the header's digests match the shard and the payload, but the tables
    # and columns do not describe its sentences: parsed and written again
    path, cache = tmp_path / "a.conllu", tmp_path / "a.conllu.snt"
    path.write_text(TWO_TOKEN + "\n" + TWO_TOKEN + "\n# sent_id = x\n" + TWO_TOKEN,
                    encoding="utf-8")
    expected = list(iter_sentences(path, cache))
    good = cache.read_bytes()
    tables, columns = textio.read_cache(cache, _CACHE_MAGIC, path, 3, _TYPECODES)
    textio.write_cache(cache, _CACHE_MAGIC, hashlib.sha256(path.read_bytes()).digest(), *damage(
        tables, [array(t, c) for t, c in zip(_TYPECODES, columns)]))
    assert cache.read_bytes() != good
    assert list(iter_sentences(path, cache)) == expected
    assert cache.read_bytes() == good
