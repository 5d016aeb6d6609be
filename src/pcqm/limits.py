"""The engine limits in force: the degree window in ``l`` and the word cap."""

import contextlib
from contextvars import ContextVar

from .record import Record

# Largest word cap accepted.  One long word is cheap: P+_1^6*X+_1^6 under cap
# 12 takes 0.28 s as a process, of which start-up is 0.25 s.  Term counts grow
# with the cap: (P+_1+..+P+_4)^n*(X+_1+..+X+_4)^n takes 0.99 s at n = 6 (cap
# 12) and, with this constant raised, 2.1 s at n = 7 (cap 14) and 4.2 s at
# n = 8 (cap 16) (processes, median of 3, 2-vCPU VM, Python 3.11).
MAX_WORD_CAP = 12


class Limits(Record):
    """The allowed range of l-exponents (inclusive bounds) and word length.

    The window is enforced on every term that ends up stored: the
    ``BaseScalar`` constructor and the result of a product (``x * pc_l(d)``
    shifts by ``l**d``) or a ``reciprocal`` raise ``DegreeWindowError`` when
    a nonzero term falls outside it.  A term that cancels to zero is never
    stored and never raises, so ``(SIGMA_PLUS*pc_l(3)) * (SIGMA_MINUS*pc_l(2))
    == 0`` under the default ``-4..4``.  Sums, negation and scaling by a
    constant keep the degrees of their operands and are not re-checked;
    narrowing the window therefore takes effect at the next product.
    Coefficient size is not a limit here: the interpreter's int-to-text digit
    limit bounds it, and the renderer alone checks it exactly.
    """

    __slots__ = ("window", "word_cap")

    def __init__(self, window: tuple[int, int] = (-4, 4), word_cap: int = 8):
        # Stored as a tuple of two ints: the window is hashed and compared as
        # part of the evaluator's leaf memo key, and a bound is an exponent.
        try:
            lo, hi = window
        except (TypeError, ValueError):
            lo = hi = None
        if not all(isinstance(b, int) and not isinstance(b, bool) for b in (lo, hi)):
            raise ValueError(f"degree window must be two integers, got {window!r}")
        if lo > hi:
            raise ValueError(f"empty degree window {lo}..{hi}")
        cap_is_int = isinstance(word_cap, int) and not isinstance(word_cap, bool)
        if not (cap_is_int and 1 <= word_cap <= MAX_WORD_CAP):
            raise ValueError(f"word length cap must lie in 1..{MAX_WORD_CAP}, got {word_cap}")
        super().__init__(window if type(window) is tuple else (lo, hi), word_cap)

    # Hashed on every lookup in the evaluator's leaf memo, so spelled out.
    def __hash__(self):
        return hash((self.window, self.word_cap))


# A new thread starts from the defaults; an asyncio task copies its creator's.
_DEFAULT = Limits()
_current = ContextVar("pcqm_limits", default=_DEFAULT)


def current_limits() -> Limits:
    return _current.get()


@contextlib.contextmanager
def limits(**changes):
    """Replace fields of the current limits inside a ``with`` block."""
    now = _current.get()
    token = _current.set(Limits(**{"window": now.window, "word_cap": now.word_cap, **changes}))
    try:
        yield
    finally:
        _current.reset(token)


@contextlib.contextmanager
def default_limits():
    """The default limits inside a ``with`` block, whatever the caller set.

    A module builds its constants in one, so a module first imported under a
    narrow window holds the same values as one imported before it."""
    token = _current.set(_DEFAULT)
    try:
        yield
    finally:
        _current.reset(token)
