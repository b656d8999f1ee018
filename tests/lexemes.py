"""Hypothesis strategy for lexemes that the text formats must carry intact:
any text without the tab, newline and carriage return that delimit rows
and columns, including '#'-prefixed and non-ASCII words."""

from hypothesis import strategies as st

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
    line. A line starting with '#' is a comment until the first data row,
    so the first row does not start with '#'; the rows after it may."""
    rows = draw(st.lists(row, max_size=max_size))
    if rows and rows[0][0].startswith("#"):
        rows.insert(0, draw(row.filter(lambda cols: not cols[0].startswith("#"))))
    comment = "# rows\n" if draw(st.booleans()) else ""
    return rows, comment + "".join("\t".join(r) + "\n" for r in rows)
