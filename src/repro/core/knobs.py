"""Lenient resolution for every ``REPRO_*`` env knob.

One rule serves all of them (workers, task timeout, retries, the serve
batching knobs, the sparse and footprint switches): the explicit
argument wins, then the environment variable (blank values skipped),
then the default.  A malformed value never crashes an hours-long run —
it emits one structured ``knob.ignored`` warning through
:mod:`repro.core.log` and falls through to the next source.  Callers
clamp the resolved value themselves.

``REPRO_LOG`` is the one exception (:func:`repro.core.log.parse_level`):
it configures the logger that would carry the warning.
"""

from __future__ import annotations

import os
from typing import Callable, Optional, TypeVar

from . import log

T = TypeVar("T")

_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off"})

_LOG = log.get_logger("knobs")

_MALFORMED = object()


def parse_flag(text) -> bool:
    """``1/true/yes/on`` -> True, ``0/false/no/off`` -> False (case and
    surrounding whitespace ignored); anything else raises ValueError."""
    word = str(text).strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ValueError(f"not a boolean word: {text!r}")


def _parse(raw, parse: Callable[[str], T], source: str):
    try:
        return parse(str(raw).strip())
    except ValueError:
        log.event(_LOG, "knob.ignored", knob=source, value=raw)
        return _MALFORMED


def resolve(value, env: str, default: Optional[T],
            parse: Callable[[str], T],
            name: Optional[str] = None) -> Optional[T]:
    """Resolve one knob: ``value`` (reported as ``name``, default the
    lower-cased ``env``, if malformed), then the ``env`` variable, then
    ``default``.

    ``parse`` receives the stripped text and raises ValueError on
    malformed input.  The environment is read only when the argument
    is absent or malformed.
    """
    if value is not None:
        parsed = _parse(value, parse, name or env.lower())
        if parsed is not _MALFORMED:
            return parsed
    raw = os.environ.get(env)
    if raw is not None and raw.strip():
        parsed = _parse(raw, parse, env)
        if parsed is not _MALFORMED:
            return parsed
    return default
