"""Pattern labels and their slot roles.

A pattern label is a string over the role alphabet {N, V, P, A, Adv},
read greedily left to right ("NVPN" -> N,V,P,N; "AdvPN" -> Adv,P,N).
The label fixes the tuple arity and which slots hold nouns, which is
what generalization and content-lexeme selection key on.
"""

import re
from functools import lru_cache

from .errors import FormatError

ROLE_NOUN = "N"
ROLE_PREP = "P"

_ROLE_RE = re.compile(r"Adv|[NVPA]")

@lru_cache(maxsize=None)
def label_roles(label: str) -> tuple[str, ...]:
    """Split a pattern label into its per-slot roles.

    Raises FormatError if the label is not a concatenation of roles.
    """
    roles = tuple(_ROLE_RE.findall(label))
    if not roles or "".join(roles) != label:
        raise FormatError(f"invalid pattern label {label!r}")
    return roles


def label_arity(label: str) -> int:
    return len(label_roles(label))


def noun_positions(label: str) -> tuple[int, ...]:
    return tuple(i for i, r in enumerate(label_roles(label)) if r == ROLE_NOUN)
