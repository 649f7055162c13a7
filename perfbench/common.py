"""Locations shared by the benchmark scripts, and the shipped expected values."""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SYSTEMS = SRC / "tilecohom" / "systems"
STORED_COMPLEX = HERE / "data" / "penrose_complex.json"


def use_source_tree():
    """Import tilecohom from this checkout's source, never an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def expected_values(name: str) -> dict:
    """The values of a shipped ``<name>.expected.json``, without their provenance."""
    with open(SYSTEMS / f"{name}.expected.json") as fh:
        data = json.load(fh)
    return {k: v["value"] for k, v in data.items() if isinstance(v, dict)}


def groups_json(pairs) -> list:
    """Expected-file group pairs [rank, torsion] in report form."""
    return [{"rank": rank, "torsion": list(torsion)} for rank, torsion in pairs]


class Checker:
    """Collects one line per value that differs from what is expected."""

    def __init__(self):
        self.problems: list = []

    def want(self, label: str, got, expected):
        if got != expected:
            self.problems.append(f"{label}: got {got!r}, expected {expected!r}")
