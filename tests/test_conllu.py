import gzip

import pytest

from mf import iter_sentences
from mf.errors import ConlluParseError, SentenceStructureError

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


@pytest.mark.parametrize("tok_id", ["-2", "2-", "x-y", "1.x", "."])
def test_malformed_id_reports_line(tok_id):
    # neither a number, nor an N-M range, nor an N.M empty node
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


@pytest.mark.parametrize("head", ["0_0", "+1", " 1"])
def test_signed_or_spaced_head_reports_line(head):
    # int() reads "0_0" as 0 (a root) and "+1" and " 1" as 1; none is a CoNLL-U HEAD
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
