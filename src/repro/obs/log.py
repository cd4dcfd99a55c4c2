"""Stdlib-``logging`` set-up for the observability layer.

All repro code logs under the ``repro`` logger namespace via
:func:`get_logger`; :func:`install` attaches one concise stderr handler
(idempotent — safe to call from every entry point).  User-facing
*results* go to stdout; diagnostics flow through here.
"""

from __future__ import annotations

import logging
import sys

__all__ = ["ROOT_LOGGER", "get_logger", "install"]

ROOT_LOGGER = "repro"

_FORMAT = "%(levelname).1s %(name)s: %(message)s"


def get_logger(name: str = "") -> logging.Logger:
    """Logger under the ``repro`` namespace (``get_logger("cli")`` →
    ``repro.cli``); no handler is attached here."""
    return logging.getLogger(f"{ROOT_LOGGER}.{name}" if name else ROOT_LOGGER)


def install(level: int = logging.INFO,
            stream=None) -> logging.Logger:
    """Attach one stream handler to the ``repro`` root logger (idempotent).

    Repeated calls only adjust the level.  Returns the root logger.
    """
    root = get_logger()
    root.setLevel(level)
    for h in root.handlers:
        if getattr(h, "_repro_obs_handler", False):
            h.setLevel(level)
            return root
    handler = logging.StreamHandler(stream or sys.stderr)
    handler.setFormatter(logging.Formatter(_FORMAT))
    handler.setLevel(level)
    handler._repro_obs_handler = True  # type: ignore[attr-defined]
    root.addHandler(handler)
    return root
