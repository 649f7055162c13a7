"""Batch pipeline, report determinism, SVG rendering, and the CLI surface."""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import as_group, expected_values, subprocess_env, system_path
from tilecohom import abelian as ab
from tilecohom import spectral as sp
from tilecohom.cli import main
from tilecohom.pipeline import (
    MissingTable,
    RunConfig,
    compare_routes,
    report_to_json,
    run_pipeline,
)
from tilecohom.winding import degree_zero_homology

# sha256 of the report bytes as of commit ecad0f9, and the session runs that hold them
PINNED_REPORTS = {
    ("square", "both"):
        ("9588b5f91b29c449faebbba0b8a3f23dbe18619663d7156804dbf965336ac8ae", "square_run"),
    ("square", "spectral"):
        ("148c74a141cfb6bb9dbc4a7151f46e212fa4d8d58233b1287271a6f889526b53", None),
    ("square", "mapping-torus"):
        ("f5f16713d2af7a8813e8619bb3046a34bb9e5094b0eec04de6d1399caed1c280", None),
    ("fibonacci", "both"):
        ("14b9d61a70ba31f4c5ee97f4dc0371571636488f70d6586e68dce1d991a45ede", None),
    ("fibonacci", "mapping-torus"):
        ("a855ec7531886572c73303f58552fc3e2165c9992b4c3f0cd7e973676376b367", "fibonacci_run"),
    ("penrose", "both"):
        ("b2c2a1e38ba2b29788802a3948faaf6d37e24b6a8ace91feb17690437bce258b", "penrose_run"),
    ("penrose", "spectral"):
        ("db7e1db6bfa3fdda85b11353b0ff9a54668844127c1c472428c82d3c160b93c8", None),
}


def square_with_h_omega0(tmp_path, h_omega0) -> str:
    """A copy of the square system whose fixtures list the given h_omega0."""
    data = json.loads(Path(system_path("square")).read_text())
    data["fixtures"]["h_omega0"] = h_omega0
    path = tmp_path / "square.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestPipeline:
    def test_square_both_routes(self, square_run):
        report = square_run.report
        assert report["passed"]
        torus = [[g["rank"], g["torsion"]] for g in report["routes"]["mapping_torus"]["groups"]]
        assert torus == [[1, []], [3, []], [3, []], [1, []]]
        hull = [[g["rank"], g["torsion"]] for g in report["routes"]["mapping_torus"]["hull"]]
        assert hull == [[1, []], [2, []], [1, []]]
        assert report["routes"]["spectral"]["groups"] == report["routes"]["mapping_torus"]["groups"]

    def test_verdicts_present(self, square_run):
        names = {v["name"] for v in square_run.report["verdicts"]}
        assert {"rational_coboundary", "rational_collapse", "route_agreement"} <= names

    def test_report_is_deterministic(self, square_run):
        again = run_pipeline(RunConfig(system_path("square"), route="both")).report
        assert report_to_json(square_run.report) == report_to_json(again)

    def test_report_deterministic_across_hash_seeds(self, tmp_path):
        outs = []
        for seed in ("0", "314159"):
            env = subprocess_env(PYTHONHASHSEED=seed)
            path = tmp_path / f"r{seed}.json"
            subprocess.run(
                [sys.executable, "-m", "tilecohom.cli", "cohomology",
                 system_path("square"), "--route", "both", "--json", str(path)],
                env=env, check=True, capture_output=True,
            )
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_invariants_computed_once_per_degree(self, monkeypatch):
        calls = Counter()
        for name in ("invariants_of", "coinvariants_of"):
            def counted(f, name=name, original=getattr(ab, name)):
                calls[name] += 1
                return original(f)

            monkeypatch.setattr(ab, name, counted)
        run = run_pipeline(RunConfig(system_path("square"), route="both"))
        degrees = len(run.hull)
        assert calls == {"invariants_of": degrees, "coinvariants_of": degrees}

    def test_spectral_route_computed_once(self, monkeypatch):
        calls = []

        def counted(data, original=sp.spectral_route):
            calls.append(data)
            return original(data)

        monkeypatch.setattr(sp, "spectral_route", counted)
        run_pipeline(RunConfig(system_path("square"), route="both"))
        assert len(calls) == 1

    def test_spectral_route_standalone_uses_fixture(self, penrose_atlas, penrose_rho_omega):
        # only h_omega0 comes from the system file; H0 and the winding class
        # are derived from the atlas and match the sidecar values
        run = run_pipeline(RunConfig(system_path("square"), route="spectral"))
        assert run.report["passed"]
        assert "mapping_torus" not in run.report["routes"]
        for name, atlas, omega in [("penrose", penrose_atlas, penrose_rho_omega[1]),
                                   ("square", run.atlas, run.omega)]:
            expected = expected_values(name)
            h0, omega_class = degree_zero_homology(atlas, omega)
            assert h0 == as_group(expected["h0_T0"])
            assert list(omega_class) == expected["omega_class"]

    def test_fibonacci_mapping_torus(self, fibonacci_run):
        mapping_torus = fibonacci_run.report["routes"]["mapping_torus"]
        hull = [[g["rank"], g["torsion"]] for g in mapping_torus["hull"]]
        assert hull == [[1, []], [2, []]]

    def test_compare_routes_self(self, square_run):
        assert compare_routes(square_run.report, square_run.report)["passed"]

    def test_compare_routes_mismatch(self, square_run):
        penrose_table = {
            "routes": {
                "spectral": {
                    "groups": [
                        {"rank": 1, "torsion": []},
                        {"rank": 2, "torsion": []},
                        {"rank": 3, "torsion": []},
                        {"rank": 2, "torsion": []},
                    ]
                }
            }
        }
        verdict = compare_routes(penrose_table, square_run.report)
        assert not verdict["passed"]
        assert verdict["details"]["first_mismatch_degree"] == 1

    def test_compare_missing_table(self, square_run):
        with pytest.raises(MissingTable):
            compare_routes(square_run.report, {"routes": {}})

    @pytest.mark.parametrize("system,route", sorted(PINNED_REPORTS))
    def test_report_bytes_pinned(self, system, route, request):
        sha256, session_run = PINNED_REPORTS[system, route]
        if session_run:
            run = request.getfixturevalue(session_run)
        else:
            run = run_pipeline(RunConfig(system_path(system), route=route))
        assert hashlib.sha256(report_to_json(run.report).encode()).hexdigest() == sha256


class TestSvg:
    def test_penrose_star_figures(self, penrose_atlas, penrose_rho_omega):
        from tilecohom.svg import render_star_svg
        from tilecohom.winding import dagger_orders

        rho, omega = penrose_rho_omega
        docs = render_star_svg(penrose_atlas, rho=rho, omega=omega)
        vertex_files = [n for n in docs if n.startswith("vertex_star_")]
        assert len(vertex_files) == 7
        assert len([n for n in docs if n.startswith("edge_star_")]) == 7
        orders = dagger_orders(penrose_atlas)
        for i, order in enumerate(orders):
            body = docs[f"vertex_star_{i:02d}.svg"]
            if order == 5:
                assert "winding +1" in body
            assert f"symmetry {order}" in body

    def test_rendering_is_deterministic(self, penrose_atlas, penrose_rho_omega):
        from tilecohom.svg import render_star_svg

        rho, omega = penrose_rho_omega
        a = render_star_svg(penrose_atlas, rho=rho, omega=omega)
        b = render_star_svg(penrose_atlas, rho=rho, omega=omega)
        assert a == b

    def test_empty_atlas_renders_no_files(self, square_system):
        from tilecohom.atlas import StarAtlas
        from tilecohom.svg import render_star_svg
        from tilecohom.tiling import Patch

        empty = StarAtlas(
            system=square_system,
            tile_classes=[],
            edge_classes=[],
            vertex_classes=[],
            audit_patch=Patch(square_system, []),
        )
        assert render_star_svg(empty) == {}


class TestCli:
    def test_atlas_command(self, capsys):
        code = main(["atlas", system_path("square")])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["atlas"]["counts"]["edge_star_classes"] == 2

    def test_omega_command(self, capsys):
        code = main(["omega", system_path("square")])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert all(entry["winding"] == 0 for entry in out["omega"])
        assert out["omega"][0]["symmetry_order"] == 1
        assert {"left_tile_class", "right_tile_class"} <= set(out["rho"][0])

    def test_cohomology_command_writes_report(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main([
            "cohomology", system_path("square"), "--route", "both",
            "--out", str(out_dir), "--json", str(tmp_path / "r.json"),
        ])
        assert code == 0
        assert (out_dir / "report.json").exists()
        written = json.loads((tmp_path / "r.json").read_text())
        assert written["passed"]
        capsys.readouterr()

    def test_cohomology_svg_output(self, tmp_path, capsys):
        out_dir = tmp_path / "figs"
        code = main([
            "cohomology", system_path("square"), "--route", "mapping-torus",
            "--out", str(out_dir), "--svg",
        ])
        assert code == 0
        names = sorted(os.listdir(out_dir))
        assert "report.json" in names
        assert any(n.startswith("vertex_star_") for n in names)
        capsys.readouterr()

    def test_render_command(self, tmp_path, capsys):
        code = main(["render", system_path("square"), "--out", str(tmp_path / "svg")])
        assert code == 0
        files = os.listdir(tmp_path / "svg")
        assert len(files) == 1 + 2 + 1  # tile, two edges, one vertex
        capsys.readouterr()

    def test_compare_command(self, tmp_path, capsys, square_run):
        p1 = tmp_path / "a.json"
        p1.write_text(report_to_json(square_run.report))
        code = main(["compare", str(p1), str(p1)])
        assert code == 0
        capsys.readouterr()

    def test_compare_mismatch_exit_code(self, tmp_path, capsys, square_run, fibonacci_run):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        p1.write_text(report_to_json(square_run.report))
        p2.write_text(report_to_json(fibonacci_run.report))
        assert main(["compare", str(p1), str(p2)]) == 1
        capsys.readouterr()

    def test_malformed_system_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["atlas", str(bad)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("h_omega0", [
        5,
        [{"torsion": []}] * 3,
        [{"free_rank": -1, "torsion": []}] * 3,
    ], ids=["not-a-list", "no-free-rank", "negative-rank"])
    def test_malformed_h_omega0_exit_code(self, h_omega0, tmp_path, capsys):
        path = square_with_h_omega0(tmp_path, h_omega0)
        assert main(["cohomology", path, "--route", "spectral"]) == 2
        assert "bad system definition" in capsys.readouterr().err

    @pytest.mark.parametrize("report", [[1, 2], {"routes": {"spectral": 3}}],
                             ids=["not-an-object", "route-not-an-object"])
    def test_compare_malformed_report_exit_code(self, report, tmp_path, capsys, square_run):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(report_to_json(square_run.report))
        bad.write_text(json.dumps(report))
        assert main(["compare", str(good), str(bad)]) == 2
        assert main(["compare", str(bad), str(good)]) == 2
        assert "group table" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["atlas", system_path("penrose"), "--max-level", "3"], "star classes"),
        # the atlas closes at level 6, the collar not before level 9
        (["cohomology", system_path("penrose"), "--max-level", "6"], "collared classes"),
    ])
    def test_growth_not_closing_exit_code(self, argv, message, capsys):
        assert main(argv) == 2
        assert f"{message} still changing" in capsys.readouterr().err

    def test_cohomology_default_route_on_symbolic_system(self, capsys):
        # a symbolic system has no spectral route: "both" runs the mapping torus only
        assert main(["cohomology", system_path("fibonacci")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report["routes"]) == ["mapping_torus"]
        hull = [[g["rank"], g["torsion"]] for g in report["routes"]["mapping_torus"]["hull"]]
        assert hull == [[1, []], [2, []]]

    def test_render_on_symbolic_system_rejected(self, tmp_path, capsys):
        assert main(["render", system_path("fibonacci"), "--out", str(tmp_path / "svg")]) == 2
        assert "two-dimensional" in capsys.readouterr().err
        assert not (tmp_path / "svg").exists()

    def test_spectral_route_on_symbolic_system_rejected(self, capsys):
        code = main(["cohomology", system_path("fibonacci"), "--route", "spectral"])
        assert code == 2
        capsys.readouterr()

    def test_fixture_override(self, tmp_path, capsys):
        # an h_omega0 whose degree-2 rank differs from the derived H0's rank
        # must fail validation (exit 2)
        groups = [{"free_rank": r, "torsion": []} for r in (1, 2, 2)]
        path = square_with_h_omega0(tmp_path, groups)
        assert main(["cohomology", path, "--route", "spectral"]) == 2
        assert "rank 1 of the degree-zero homology must equal rank 2" in capsys.readouterr().err


@pytest.mark.parametrize("demo", ["torus_control.py", "smith_calculator.py"])
def test_cheap_demo_runs(demo):
    path = Path(__file__).resolve().parents[1] / "demos" / demo
    result = subprocess.run([sys.executable, str(path)], env=subprocess_env(),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
