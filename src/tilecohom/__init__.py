"""tilecohom: exact cohomology computations for planar substitution tiling spaces."""

__version__ = "0.1.0"


class TilecohomError(Exception):
    """A system, report or structure that the computation cannot accept."""
