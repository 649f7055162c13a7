"""Write the Penrose approximant complex as sparse triplets.

    python3 perfbench/make_complex.py

Builds the collared complex (boundary, self-map and rotation matrices)
from the shipped system file, which takes about 15 s, and stores it in
``perfbench/data/penrose_complex.json``.  The hull-algebra workload loads
that file, so its set-up time covers only the load.
"""

from __future__ import annotations

import json

from common import STORED_COMPLEX, SYSTEMS, use_source_tree

use_source_tree()

from tilecohom.approximant import build_ap_complex, collar  # noqa: E402
from tilecohom.tiling import load_system  # noqa: E402

from complexes import boundary_squared_zero, complex_triplets  # noqa: E402


def main():
    system = load_system(SYSTEMS / "penrose.json")
    cx = build_ap_complex(collar(system))
    data = complex_triplets(cx, system.name)
    if not boundary_squared_zero(data):
        raise SystemExit("built complex has nonzero boundary squared")
    STORED_COMPLEX.parent.mkdir(exist_ok=True)
    text = json.dumps(data, separators=(",", ":"), sort_keys=True)
    STORED_COMPLEX.write_text(text + "\n")
    total = sum(len(m["entries"]) for kind in ("boundary", "self_map", "rotation")
                for m in data[kind])
    print(f"wrote {STORED_COMPLEX.name}: cells {data['cell_counts']}, {total} nonzeros")


if __name__ == "__main__":
    main()
