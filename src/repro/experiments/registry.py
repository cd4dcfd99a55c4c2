"""Campaign registry: each campaign declares itself once, by name.

Every campaign sweep (chaos, spot, dag, matrix) registers one entry here
at import time, next to the SLO policy it describes.  The entry is the
campaign's one declaration: :func:`~repro.experiments.sweep.run_campaign`
reads it to turn cell outcomes into ``kind="sweep-cell"`` ledger records
and to judge them, and ``repro.cli runs slo --policy NAME`` reads it to
find and judge those records again later — an unknown name lists what
*is* registered instead of silently defaulting.

An entry carries:

* ``slos`` — the :class:`~repro.obs.slo.SloPolicy` holding the declared
  objectives;
* ``group_name`` — the cell field that names a record's side (``policy``,
  ``backend``, ``stack`` …); verdicts are judged per side, and records
  carry it as ``config.<group_name>`` (:attr:`SloPolicyEntry.group_key`);
* ``label_prefix`` and ``label`` — a record's label is the prefix
  followed by the ``label`` cell fields joined with dots; ``runs slo``
  considers only records whose label starts with the prefix (unless the
  user filtered by an explicit ``--label``), so campaigns sharing a
  ledger don't judge each other's cells;
* ``config`` and ``extra`` — the cell fields a record copies into its
  ``config`` and ``extra`` sections, and ``cost_key`` the cell field it
  bills as ``billing.cost_usd``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.slo import SloPolicy

__all__ = ["SloPolicyEntry", "register_slo_policy", "get_slo_policy",
           "slo_policy_names", "load_defaults"]


@dataclass(frozen=True)
class SloPolicyEntry:
    """One named campaign: its SLO policy and its sweep-cell record format."""

    name: str
    slos: "SloPolicy"
    group_name: str
    label_prefix: str
    label: tuple[str, ...]
    config: tuple[str, ...]
    extra: tuple[str, ...]
    cost_key: str = "cost_usd"

    @property
    def group_key(self) -> str:
        """The record field verdicts group by."""
        return f"config.{self.group_name}"


_REGISTRY: dict[str, SloPolicyEntry] = {}


def register_slo_policy(name: str, *, slos: "SloPolicy", group_name: str,
                        label_prefix: str, label: tuple[str, ...],
                        config: tuple[str, ...], extra: tuple[str, ...],
                        cost_key: str = "cost_usd") -> SloPolicyEntry:
    """Register (or re-register) the campaign ``name`` resolves to.

    Re-registration replaces the entry — the common case is a module
    reload, and last-writer-wins keeps that harmless.
    """
    entry = SloPolicyEntry(name=name, slos=slos, group_name=group_name,
                           label_prefix=label_prefix, label=label,
                           config=config, extra=extra, cost_key=cost_key)
    _REGISTRY[name] = entry
    return entry


def get_slo_policy(name: str) -> SloPolicyEntry:
    """The registered entry for ``name``; raises KeyError when unknown."""
    return _REGISTRY[name]


def slo_policy_names() -> list[str]:
    """Sorted names of every registered SLO policy."""
    return sorted(_REGISTRY)


def load_defaults() -> None:
    """Import the shipped experiment modules so they self-register.

    Idempotent — Python's import cache makes repeat calls free; a module
    that fails to import propagates, since a missing default registration
    is a bug, not a configuration choice.
    """
    import repro.experiments.exp_chaos  # noqa: F401
    import repro.experiments.exp_dag  # noqa: F401
    import repro.experiments.exp_matrix  # noqa: F401
    import repro.experiments.exp_spot  # noqa: F401
