"""Shared utilities for the per-figure experiment harness.

Every experiment module exposes ``run(scale=...) -> dict`` returning the
figure's data plus a preformatted ``"table"`` string that prints the
same rows/series the paper reports. The ``scale`` knob trades accuracy
for runtime:

* ``"smoke"`` — seconds; CI-sized sanity runs.
* ``"quick"`` — tens of seconds; the default for the benchmark suite.
* ``"full"``  — minutes; tighter tails for EXPERIMENTS.md numbers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

__all__ = [
    "SCALES",
    "requests_for",
    "format_table",
    "pct_reduction",
    "signed_pct",
    "pick_service",
    "MAIN_ARCHITECTURES",
    "LADDER",
]

#: Requests per service at each scale.
SCALES: Dict[str, int] = {"smoke": 60, "quick": 200, "full": 600}

#: The five systems of Figure 11 (plus Ideal where a figure uses it).
MAIN_ARCHITECTURES = ["non-acc", "cpu-centric", "relief", "cohort", "accelflow"]

#: The Figure 13 ablation ladder, in cumulative order.
LADDER = ["relief", "per-acc-type-q", "direct", "cntrflow", "accelflow"]


def requests_for(scale: str) -> int:
    try:
        return SCALES[scale]
    except KeyError:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}") from None


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Render a fixed-width text table."""
    str_rows: List[List[str]] = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    # rstrip: padding the last column with trailing spaces breaks naive
    # snapshot diffs (editors strip them from committed golden files).
    return "\n".join(line.rstrip() for line in lines)


def pick_service(services: Sequence, name: str):
    """The :class:`~repro.workloads.spec.ServiceSpec` called ``name``.

    Shard workers ship service *names* (small and picklable) and
    re-resolve the spec on their side of the process boundary.
    """
    for spec in services:
        if spec.name == name:
            return spec
    raise KeyError(
        f"unknown service {name!r}; known: {[s.name for s in services]}"
    )


def _cell(value: object) -> str:
    if isinstance(value, float):
        # Non-finite values get explicit markers instead of riding the
        # numeric format paths ("nan" formatted as ",.0f" is confusing
        # next to real numbers).
        if value != value:
            return "-"
        if value == float("inf"):
            return "inf"
        if value == float("-inf"):
            return "-inf"
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def pct_reduction(baseline: float, improved: float) -> float:
    """Percentage reduction of ``improved`` relative to ``baseline``."""
    if baseline <= 0:
        return 0.0
    return 100.0 * (1.0 - improved / baseline)


def signed_pct(change: float, digits: int = 1) -> str:
    """A percentage change with exactly one sign: ``-51.6%``, ``+1.0%``.

    A change that rounds to zero prints ``+0.0%``, never ``-0.0%``. Show
    a reduction ``r`` as the change ``-r``.
    """
    text = f"{change:+.{digits}f}%"
    if text[0] == "-" and not float(text[1:-1]):
        return "+" + text[1:]
    return text
