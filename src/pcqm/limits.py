"""The engine limits in force: the degree window in ``l`` and the word cap."""

import contextlib
import dataclasses
from contextvars import ContextVar

# Largest word cap accepted.  Rewriting one word costs time exponential in
# its length: P+_1^6*X+_1^6 under cap 12 takes 0.6 s as a process, ^7 under
# cap 14 takes 4.5 s, and ^8 under cap 16 had not finished after 30 s.
MAX_WORD_CAP = 12


@dataclasses.dataclass(frozen=True)
class Limits:
    """The allowed range of l-exponents (inclusive bounds) and word length.

    The window is enforced on every term that ends up stored: the
    ``BaseScalar`` constructor and the result of a product, a ``shift`` or a
    ``reciprocal`` raise ``DegreeWindowError`` when a nonzero term falls
    outside it.  A term that cancels to zero is never stored and never
    raises, so ``(SIGMA_PLUS*pc_l(3)) * (SIGMA_MINUS*pc_l(2)) == 0`` under
    the default ``-4..4``.  Sums, negation and scaling by a constant keep the
    degrees of their operands and are not re-checked; narrowing the window
    therefore takes effect at the next product.
    """

    window: tuple[int, int] = (-4, 4)
    word_cap: int = 8

    def __post_init__(self):
        lo, hi = self.window
        if lo > hi:
            raise ValueError(f"empty degree window {lo}..{hi}")
        if not 1 <= self.word_cap <= MAX_WORD_CAP:
            raise ValueError(f"word length cap must lie in 1..{MAX_WORD_CAP}, got {self.word_cap}")


# A new thread starts from the defaults; an asyncio task copies its creator's.
_current = ContextVar("pcqm_limits", default=Limits())


def current_limits() -> Limits:
    return _current.get()


@contextlib.contextmanager
def limits(**changes):
    """Replace fields of the current limits inside a ``with`` block."""
    token = _current.set(dataclasses.replace(_current.get(), **changes))
    try:
        yield
    finally:
        _current.reset(token)
