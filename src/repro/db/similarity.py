"""String similarity metrics for fuzzy constant matching.

The runtime pre-processor matches user-provided string constants
against database values "using a string similarity metric.  In our
prototype, we currently use the Jaccard index, but the function can be
replaced with any other similarity metric" (paper §4.1).  We implement
Jaccard over character trigrams (the common realization for short
strings) plus a token-set variant, behind a pluggable callable type.
"""

from __future__ import annotations

from typing import Callable

#: A similarity function maps two strings to a score in [0, 1].
SimilarityFn = Callable[[str, str], float]


def char_trigrams(text: str) -> frozenset[str]:
    """The lower-cased character trigrams of ``text``, padded with two
    leading blanks and one trailing blank.

    Padding weights word starts and makes every set non-empty (the empty
    string yields ``{"   "}``), so a Jaccard union is never empty.
    """
    padded = f"  {text.lower()} "
    return frozenset(padded[i : i + 3] for i in range(len(padded) - 2))


def jaccard_trigram(left: str, right: str) -> float:
    """Jaccard index over padded character trigrams."""
    left_set = char_trigrams(left)
    right_set = char_trigrams(right)
    return len(left_set & right_set) / len(left_set | right_set)


def jaccard_tokens(left: str, right: str) -> float:
    """Jaccard index over whitespace tokens."""
    left_set = set(left.lower().split())
    right_set = set(right.lower().split())
    union = left_set | right_set
    if not union:
        return 1.0
    return len(left_set & right_set) / len(union)


def best_match(
    needle: str,
    candidates,
    similarity: SimilarityFn = jaccard_trigram,
    threshold: float = 0.0,
) -> tuple[str | None, float]:
    """The candidate most similar to ``needle`` (ties broken by order).

    Returns ``(None, 0.0)`` when no candidate reaches ``threshold``.
    """
    best_candidate: str | None = None
    best_score = 0.0
    for candidate in candidates:
        score = similarity(needle, candidate)
        if score > best_score:
            best_candidate = candidate
            best_score = score
    if best_candidate is None or best_score < threshold:
        return None, 0.0
    return best_candidate, best_score
