"""Number formatting shared by every CSV the package writes."""


def _fmt(v: float) -> str:
    """A CSV number: 17 significant digits, enough to round-trip any double."""
    return format(float(v), ".17g")
