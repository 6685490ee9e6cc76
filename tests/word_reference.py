"""Reference free reduction: the per-word stack that the word oracle's
streamed reduction of ``treewalks.oracles`` is checked against.

:func:`reduce_word` reduces one word at a time, as a tuple of letters; the
oracle instead extends the reduced stack of each prefix by one letter, with
the reduced word held as one int.  The tests compare the two on every word
up to a length, and use this one to pick the reduced targets.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["reduce_word"]


def reduce_word(letters: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a word over generators +k and inverses -k.

    Stack discipline: push each letter, pop when it cancels the letter on
    top.  The result has no adjacent cancelling pair and reducing again is
    a no-op.
    """
    stack: list[int] = []
    for x in letters:
        if not isinstance(x, int) or x == 0:
            raise ValueError(f"letters are nonzero integers +-k, got {x!r}")
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)
