"""Hypothesis strategies: lexemes that the text formats must carry intact
(any text without the tab, newline and carriage return that delimit rows
and columns, including '#'-prefixed and non-ASCII words), files of rows of
them, and valid dependency trees."""

from hypothesis import strategies as st

from mf import Sentence, Token

_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                              blacklist_characters="\t\n\r"), max_size=8)

LEXEMES = st.one_of(
    st.sampled_from(["#metoo", "#", "naïve", "貧困", "T=3"]),
    _TEXT.map(lambda s: "#" + s),
    _TEXT.filter(bool),
)


@st.composite
def tsv_files(draw, row, max_size=8):
    """(rows, their tab-separated text), the text maybe opened by a comment
    line. Any row may start with '#', the first one too."""
    rows = draw(st.lists(row, max_size=max_size))
    comment = "# rows\n" if draw(st.booleans()) else ""
    return rows, comment + "".join("\t".join(r) + "\n" for r in rows)


@st.composite
def trees(draw, sid, lemmas="abc", upos=("X",), deprels=("amod", "obj", "nsubj"),
          max_size=6, forms=None):
    """A valid sentence in any head order: its tokens are attached in a drawn
    order, the first to the root and each other to one attached before it.
    Token i's form is drawn from `forms`, or is "w<i>" without them."""
    n = draw(st.integers(1, max_size))
    order = draw(st.permutations(range(1, n + 1)))
    heads = {order[0]: 0}
    for k in range(1, n):
        heads[order[k]] = order[draw(st.integers(0, k - 1))]
    tokens = [Token(i, f"w{i}" if forms is None else draw(st.sampled_from(forms)),
                    draw(st.sampled_from(lemmas)),
                    draw(st.sampled_from(upos)), heads[i],
                    draw(st.sampled_from(deprels)))
              for i in range(1, n + 1)]
    return Sentence(sid, tuple(tokens)).validate()
