"""Result presentation: ASCII charts and the paper-vs-measured report."""

from .._lazy import lazy_exports

__all__ = [
    "Candidate",
    "ComparisonResult",
    "bar_chart",
    "compare_configs",
    "generate_report",
    "series_chart",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".ascii_chart": ("bar_chart", "series_chart"),
    ".compare": ("Candidate", "ComparisonResult", "compare_configs"),
    ".report": ("generate_report",),
})
