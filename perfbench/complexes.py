"""Sparse triplet storage of an approximant complex, and seeded relabelling.

A stored complex is a dict with ``cell_counts``, ``rotation_order`` and, for
each of ``boundary``, ``self_map`` and ``rotation``, a list of matrices in
degree order.  Each matrix is ``{"shape": [rows, cols], "entries": [[i, j,
v], ...]}`` with the nonzero entries sorted by (i, j).

``boundary[k]`` maps (k+1)-chains to k-chains; ``self_map[k]`` and
``rotation[k]`` act on k-chains.  Conjugating by signed cell permutations
P_k (d' = P_k d P_{k+1}^T, s' = P_k s P_k^T, r' = P_k r P_k^T) is a change
of cell basis, so every group the complex computes is unchanged while the
order in which Smith normal form meets its pivots is not.
"""

from __future__ import annotations

import json
import random

FORMAT = "tilecohom-complex-triplets/1"


def matrix_triplets(mat) -> dict:
    rows, cols = mat.shape
    entries = [
        [i, j, int(mat[i, j])]
        for i in range(rows)
        for j in range(cols)
        if mat[i, j] != 0
    ]
    return {"shape": [rows, cols], "entries": entries}


def complex_triplets(cx, system_name: str) -> dict:
    """Triplet form of an ApproximantComplex with a rotation."""
    return {
        "format": FORMAT,
        "system": system_name,
        "cell_counts": list(cx.cell_counts),
        "rotation_order": cx.rotation_order,
        "boundary": [matrix_triplets(m) for m in cx.boundary],
        "self_map": [matrix_triplets(m) for m in cx.self_map],
        "rotation": [matrix_triplets(m) for m in cx.rotation],
    }


def load_triplets(path) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if data.get("format") != FORMAT:
        raise ValueError(f"{path}: expected format {FORMAT!r}")
    return data


def nnz(data: dict, kind: str) -> int:
    return sum(len(m["entries"]) for m in data[kind])


def _product(a: dict, b: dict) -> dict:
    """Sparse product of two triplet matrices, as {(i, j): value}."""
    by_row: dict = {}
    for i, j, v in b["entries"]:
        by_row.setdefault(i, []).append((j, v))
    out: dict = {}
    for i, k, v in a["entries"]:
        for j, w in by_row.get(k, ()):
            out[(i, j)] = out.get((i, j), 0) + v * w
    return {key: v for key, v in out.items() if v != 0}


def boundary_squared_zero(data: dict) -> bool:
    d = data["boundary"]
    return all(not _product(d[k], d[k + 1]) for k in range(len(d) - 1))


def random_signed_permutation(n: int, rng: random.Random):
    """(perm, signs): basis vector e_j goes to signs[j] * e_perm[j]."""
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return perm, signs


def inverse_signed_permutation(p):
    """The transpose P^T of a signed permutation matrix, as (perm, signs)."""
    perm, signs = p
    inv_perm = [0] * len(perm)
    inv_signs = [0] * len(perm)
    for j, (i, s) in enumerate(zip(perm, signs)):
        inv_perm[i] = j
        inv_signs[i] = s
    return inv_perm, inv_signs


def _conjugate_matrix(m: dict, p_rows, p_cols) -> dict:
    """P_rows M P_cols^T: entry (i, j) moves to (perm_r[i], perm_c[j])."""
    (perm_r, sign_r), (perm_c, sign_c) = p_rows, p_cols
    entries = sorted(
        [perm_r[i], perm_c[j], sign_r[i] * v * sign_c[j]]
        for i, j, v in m["entries"]
    )
    return {"shape": list(m["shape"]), "entries": entries}


def conjugate(data: dict, perms: list) -> dict:
    """Relabel every cell of degree k by the signed permutation perms[k]."""
    out = dict(data)
    out["boundary"] = [
        _conjugate_matrix(m, perms[k], perms[k + 1])
        for k, m in enumerate(data["boundary"])
    ]
    for kind in ("self_map", "rotation"):
        out[kind] = [
            _conjugate_matrix(m, perms[k], perms[k]) for k, m in enumerate(data[kind])
        ]
    return out


def seeded_conjugate(data: dict, seed: int, index: int) -> dict:
    """The index-th relabelled complex of a workload seed."""
    rng = random.Random(f"{seed}:{index}")
    perms = [random_signed_permutation(n, rng) for n in data["cell_counts"]]
    return conjugate(data, perms)


def prepare(path, seed: int) -> dict:
    """Load a stored complex, check that it is a chain complex, relabel it once."""
    data = load_triplets(path)
    if not boundary_squared_zero(data):
        raise ValueError(f"{path}: boundary squared is not zero")
    to_complex(seeded_conjugate(data, seed, 0))
    return data


def _dense(m: dict):
    from tilecohom import abelian as ab

    out = ab.zeros(*m["shape"])
    for i, j, v in m["entries"]:
        out[i, j] = v
    return out


def to_complex(data: dict):
    """Dense object-matrix ApproximantComplex, as the exact layer consumes it."""
    from tilecohom.approximant import ApproximantComplex

    return ApproximantComplex(
        dimension=len(data["boundary"]),
        cell_counts=list(data["cell_counts"]),
        boundary=[_dense(m) for m in data["boundary"]],
        self_map=[_dense(m) for m in data["self_map"]],
        rotation=[_dense(m) for m in data["rotation"]],
        rotation_order=data["rotation_order"],
        labels={"source": data["system"]},
    )
