"""Shared fixtures: one pipeline run per system and session, with timings."""

import json
import os
import time
from importlib import resources

import pytest

import tilecohom
from tilecohom import abelian as ab
from tilecohom.atlas import grow_star_closure
from tilecohom.pipeline import RunConfig, run_pipeline
from tilecohom.tiling import load_system
from tilecohom.winding import assign_rho, omega_chain


def system_path(name: str) -> str:
    return str(resources.files("tilecohom") / "systems" / f"{name}.json")


def expected_values(name: str) -> dict:
    path = resources.files("tilecohom") / "systems" / f"{name}.expected.json"
    data = json.loads(path.read_text())
    return {k: v["value"] for k, v in data.items() if isinstance(v, dict)}


def as_group(pair) -> ab.FgAbGroup:
    rank, torsion = pair
    return ab.FgAbGroup(rank, tuple(torsion))


def subprocess_env(**extra) -> dict:
    """Environment for a child interpreter that imports this same tilecohom."""
    paths = [os.path.dirname(os.path.dirname(tilecohom.__file__))]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths), **extra)


@pytest.fixture(scope="session")
def penrose_system():
    return load_system(system_path("penrose"))


@pytest.fixture(scope="session")
def square_system():
    return load_system(system_path("square"))


@pytest.fixture(scope="session")
def penrose_atlas(penrose_system):
    t0 = time.time()
    atlas = grow_star_closure(penrose_system)
    atlas.elapsed_seconds = time.time() - t0
    return atlas


@pytest.fixture(scope="session")
def penrose_rho_omega(penrose_atlas):
    rho = assign_rho(penrose_atlas)
    omega = omega_chain(penrose_atlas, rho)
    return rho, omega


# wall time of each timed session fixture's set-up, by fixture name
SETUP_SECONDS = {}


@pytest.fixture(scope="session")
def penrose_run():
    """Both routes on Penrose, timed for the acceptance gate."""
    t0 = time.time()
    run = run_pipeline(RunConfig(system_path("penrose"), route="both"))
    SETUP_SECONDS["penrose_run"] = time.time() - t0
    return run


@pytest.fixture(scope="session")
def penrose_run_seconds(penrose_run):
    return SETUP_SECONDS["penrose_run"]


@pytest.fixture(scope="session")
def square_run():
    return run_pipeline(RunConfig(system_path("square"), route="both"))


@pytest.fixture(scope="session")
def fibonacci_run():
    return run_pipeline(RunConfig(system_path("fibonacci"), route="mapping-torus"))
