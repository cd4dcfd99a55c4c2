"""Series containers and terminal rendering for regenerated figures."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

__all__ = ["Series", "FigureResult", "render_ascii"]


@dataclass(frozen=True)
class Series:
    """One plotted line/bar group: labelled (x, y[, yerr]) data."""

    label: str
    x: tuple
    y: tuple[float, ...]
    yerr: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(f"series {self.label!r}: x and y lengths differ")
        if self.yerr is not None and len(self.yerr) != len(self.y):
            raise ValueError(f"series {self.label!r}: yerr length differs")


@dataclass
class FigureResult:
    """A regenerated paper figure: id, title, data series, free-form notes."""

    fig_id: str
    title: str
    series: list[Series] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, label: str, x: Sequence, y: Sequence[float],
            yerr: Sequence[float] | None = None) -> None:
        """Append one series (values coerced to float)."""
        self.series.append(Series(
            label=label, x=tuple(x), y=tuple(float(v) for v in y),
            yerr=tuple(float(v) for v in yerr) if yerr is not None else None,
        ))

    def note(self, text: str) -> None:
        """Attach a free-form annotation."""
        self.notes.append(text)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:,.4g}"
    if isinstance(v, int) and abs(v) >= 10_000:
        return f"{v:,}"
    return str(v)


def render_ascii(fig: FigureResult, *, bar_width: int = 40) -> str:
    """Render a figure as aligned text tables with unicode bars.

    This is what each benchmark prints so the regenerated "figure" is
    inspectable straight from the pytest output.
    """
    out: list[str] = [f"== {fig.fig_id}: {fig.title} =="]
    for s in fig.series:
        out.append(f"-- {s.label}")
        if not s.y:
            out.append("   (empty series)")
            continue
        ymax = max(s.y) or 1.0
        xw = max((len(_fmt(x)) for x in s.x), default=1)
        for i, (x, y) in enumerate(zip(s.x, s.y)):
            bar = "#" * max(1, int(round(bar_width * y / ymax))) if y > 0 else ""
            err = f" ±{_fmt(s.yerr[i])}" if s.yerr else ""
            out.append(f"   {_fmt(x):>{xw}}  {_fmt(y):>10}{err:<12} {bar}")
    for n in fig.notes:
        out.append(f"   note: {n}")
    return "\n".join(out)
