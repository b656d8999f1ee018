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
