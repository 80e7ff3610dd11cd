"""Series containers and terminal rendering for experiment output.

The bench harness prints the same rows/series the paper's figures plot;
these helpers keep that output consistent and diff-friendly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class SweepPoint:
    """One x-position of a sweep with trial statistics."""

    x: float
    mean: float
    std: float = 0.0
    trials: int = 1


@dataclass
class Series:
    """A named curve, e.g. ``"Lvl 0 1.6-4.25 TIBFIT"``."""

    label: str
    points: List[SweepPoint] = field(default_factory=list)

    def add(self, x: float, samples: Sequence[float]) -> None:
        """Append a point from raw per-trial samples.

        Both sums run left to right from 0.0 -- not ``sum()``, whose
        float association changed in CPython 3.12.
        """
        if not samples:
            raise ValueError("samples must be non-empty")
        n = len(samples)
        total = 0.0
        for s in samples:
            total += s
        mean = total / n
        squares = 0.0
        for s in samples:
            squares += (s - mean) ** 2
        var = squares / n
        self.points.append(
            SweepPoint(x=x, mean=mean, std=math.sqrt(var), trials=n)
        )

    def xs(self) -> List[float]:
        return [p.x for p in self.points]

    def value_at(self, x: float) -> Optional[float]:
        """Mean at an exact x, or None."""
        for p in self.points:
            if p.x == x:
                return p.mean
        return None


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """A fixed-width ASCII table."""
    cells = [[str(h) for h in headers]] + [
        [str(c) for c in row] for row in rows
    ]
    widths = [
        max(len(row[i]) for row in cells) for i in range(len(headers))
    ]
    lines = []
    for idx, row in enumerate(cells):
        line = " | ".join(c.ljust(w) for c, w in zip(row, widths))
        lines.append(line.rstrip())
        if idx == 0:
            lines.append("-+-".join("-" * w for w in widths))
    return "\n".join(lines)


def render_series_table(
    series_map: Dict[str, Series],
    x_label: str = "x",
    value_format: str = "{:.3f}",
) -> str:
    """All series as one table: the x column plus one column per series.

    Points are aligned on the union of x values; missing cells show "-".
    """
    xs = sorted({p.x for s in series_map.values() for p in s.points})
    headers = [x_label] + list(series_map.keys())
    rows = []
    for x in xs:
        row: List[object] = [f"{x:g}"]
        for label in series_map:
            v = series_map[label].value_at(x)
            row.append("-" if v is None else value_format.format(v))
        rows.append(row)
    return render_table(headers, rows)


def render_parameter_sheet(rows: Sequence[Tuple[str, str]], title: str) -> str:
    """A two-column parameter table mirroring the paper's Tables 1-2."""
    body = render_table(["Parameter", "Value"], rows)
    bar = "=" * max(len(title), 20)
    return f"{title}\n{bar}\n{body}"


_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def render_sparkline(
    values: Sequence[float],
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> str:
    """A one-line unicode sparkline of a series.

    ``lo``/``hi`` pin the scale (e.g. 0..1 for accuracies) so separate
    sparklines are comparable; they default to the data range.
    """
    if not values:
        return ""
    lo = min(values) if lo is None else lo
    hi = max(values) if hi is None else hi
    if hi <= lo:
        return _SPARK_LEVELS[-1] * len(values)
    span = hi - lo
    out = []
    for v in values:
        frac = (min(max(v, lo), hi) - lo) / span
        idx = min(int(frac * len(_SPARK_LEVELS)), len(_SPARK_LEVELS) - 1)
        out.append(_SPARK_LEVELS[idx])
    return "".join(out)
