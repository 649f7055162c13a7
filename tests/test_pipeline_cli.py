"""Batch pipeline, report determinism, SVG rendering, and the CLI surface."""

import copy
import dataclasses
import hashlib
import json
import logging
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import as_group, expected_values, subprocess_env, system_path
from tilecohom import abelian as ab
from tilecohom import pipeline, winding
from tilecohom import spectral as sp
from tilecohom.approximant import (
    ApproximantComplex,
    hull_cohomology,
    quotient_cohomology,
    rotation_action,
)
from tilecohom.cli import main
from tilecohom.pipeline import (
    MissingTable,
    RunConfig,
    compare_routes,
    group_json,
    report_to_json,
    run_pipeline,
)
from tilecohom.winding import atlas_boundary, degree_zero_homology

# sha256 of the report bytes, and the session runs that hold them.  The
# two-dimensional reports write every matrix as sparse [row, col, value]
# entries and carry the complex's rotation; turning the entries back into
# dense rows, dropping complex.rotation and complex.rotation_order and
# restoring complex.cells gives the earlier dense reports byte for byte
PINNED_REPORTS = {
    ("square", "both"):
        ("581a67f06d3ffe509d28e5d03902232fe1bdd512e74686cc0995fd3ac61eb13c", "square_run"),
    ("square", "spectral"):
        ("bc266020214a3eb69c728bbc0104f08ffec8d026360f3bbdaa2b7b28c8d4f5ab", None),
    ("square", "mapping-torus"):
        ("bc37e180dccc1c55d90d274c2703dc84d3184ed18e3d67ec84971a2eace7837f", None),
    ("fibonacci", "both"):
        ("14b9d61a70ba31f4c5ee97f4dc0371571636488f70d6586e68dce1d991a45ede", None),
    ("fibonacci", "mapping-torus"):
        ("a855ec7531886572c73303f58552fc3e2165c9992b4c3f0cd7e973676376b367", "fibonacci_run"),
    ("penrose", "both"):
        ("f6312692c170d36145462ea78aec8271cb4baa7c5d8046e414bee68e30ad148e", "penrose_run"),
    ("penrose", "spectral"):
        ("0f4cd90d197bf5ec8f95c713c092cacf5d4b835ebf4ac56dc55bcff05febb59d", None),
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

    def test_atlas_boundary_built_once_per_degree(self, monkeypatch):
        calls = Counter()

        def counted(atlas, k, original=winding.atlas_boundary):
            calls[k] += 1
            return original(atlas, k)

        for module in (pipeline, winding):
            monkeypatch.setattr(module, "atlas_boundary", counted)
        run_pipeline(RunConfig(system_path("square"), route="both"))
        assert calls == {1: 1, 2: 1}

    def test_spectral_route_standalone_uses_fixture(self, penrose_atlas, penrose_rho_omega):
        # only h_omega0 comes from the system file; H0 and the winding class
        # are derived from the atlas and match the sidecar values
        run = run_pipeline(RunConfig(system_path("square"), route="spectral"))
        assert run.report["passed"]
        assert "mapping_torus" not in run.report["routes"]
        for name, atlas, omega in [("penrose", penrose_atlas, penrose_rho_omega[1]),
                                   ("square", run.atlas, run.omega)]:
            expected = expected_values(name)
            h0, omega_class = degree_zero_homology(atlas_boundary(atlas, 1), omega)
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

    def test_quotient_rank_verdict_details_on_failure(self, square_run):
        name = "quotient_rank_equals_invariant_rank"
        verdicts = {v["name"]: v for v in square_run.report["verdicts"]}
        assert verdicts[name] == {"name": name, "passed": True, "details": {}}
        run = copy.copy(square_run)
        run.report = {"routes": {"mapping_torus": {}}, "verdicts": []}
        # the square has no rotation, so its quotient hull is its hull
        run.hull = list(square_run.hull)
        run.hull[1] = dataclasses.replace(run.hull[1], group=ab.FgAbGroup(3))
        pipeline.quotient_stage(run)
        assert run.report["verdicts"] == [{
            "name": name,
            "passed": False,
            "details": {"invariant_ranks": [1, 2, 1], "quotient_ranks": [1, 3, 1]},
        }]

    @pytest.mark.parametrize("system,route", sorted(PINNED_REPORTS))
    def test_report_bytes_pinned(self, system, route, request):
        sha256, session_run = PINNED_REPORTS[system, route]
        if session_run:
            run = request.getfixturevalue(session_run)
        else:
            run = run_pipeline(RunConfig(system_path(system), route=route))
        text = report_to_json(run.report)
        assert hashlib.sha256(text.encode()).hexdigest() == sha256


class TestReportWriter:
    @pytest.mark.parametrize("value", [
        {"cells": {1, 2}},
        {"matrix": [[0, np.int64(1), 2]]},
    ], ids=["set", "numpy-int"])
    def test_rejects_what_json_refuses(self, value):
        with pytest.raises(TypeError):
            report_to_json(value)


def _dense(m: dict):
    out = ab.zeros(*m["shape"])
    for i, j, v in m["entries"]:
        out[i, j] = v
    return out


@pytest.mark.parametrize("session_run", ["penrose_run", "square_run"])
def test_report_rebuilds_its_complex(session_run, request):
    """The complex in a written report alone gives back the report's groups."""
    mt = json.loads(report_to_json(request.getfixturevalue(session_run).report))[
        "routes"]["mapping_torus"]
    stored = mt["complex"]
    rotation = stored["rotation"]
    cx = ApproximantComplex(
        dimension=len(stored["boundary"]),
        cell_counts=[m["shape"][0] for m in stored["self_map"]],
        boundary=[_dense(m) for m in stored["boundary"]],
        self_map=[_dense(m) for m in stored["self_map"]],
        rotation=None if rotation is None else [_dense(m) for m in rotation],
        rotation_order=stored["rotation_order"],
    )
    assert cx.cell_counts == mt["cells"]
    cx.validate()
    hull = hull_cohomology(cx)
    assert [group_json(h.group) for h in hull] == mt["hull"]
    assert [h.stage for h in hull] == mt["stabilization_stages"]
    quotient = [group_json(h.group) for h in quotient_cohomology(cx)]
    assert quotient == mt["quotient_hull"]
    torus = ab.mapping_torus_cohomology(rotation_action(cx, hull))
    assert [group_json(d.group) for d in torus] == mt["groups"]


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

    def test_cohomology_command_writes_report(self, tmp_path, capsys, caplog):
        caplog.set_level(logging.INFO, logger="tilecohom")
        out_dir = tmp_path / "out"
        code = main([
            "cohomology", system_path("square"), "--route", "both",
            "--out", str(out_dir), "--json", str(tmp_path / "r.json"),
        ])
        assert code == 0
        assert (out_dir / "report.json").exists()
        text = (tmp_path / "r.json").read_text()
        assert json.loads(text)["passed"]
        assert (out_dir / "report.json").read_text() == text
        [line] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("report ")]
        assert line.startswith(f"report bytes={len(text.encode())} serialize_s=")
        assert "serialize_s" not in text
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

    def test_cohomology_svg_without_out_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cohomology", system_path("square"), "--svg"])
        assert exc.value.code == 2
        assert "--svg requires --out" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,target", [
        ("cohomology", "--json", "missing/r.json"),
        ("atlas", "--json", "taken"),
        ("render", "--out", "file.txt"),
    ], ids=["json-into-missing-dir", "json-onto-directory", "render-onto-file"])
    def test_unwritable_output_exit_code(self, command, flag, target, tmp_path, capsys):
        (tmp_path / "taken").mkdir()
        (tmp_path / "file.txt").write_text("")
        assert main([command, system_path("square"), flag, str(tmp_path / target)]) == 2
        assert "error: cannot write output" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.tmp"))

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
        report = json.loads(p1.read_text())
        assert capsys.readouterr().out == report_to_json(compare_routes(report, report))

    def test_compare_mismatch_exit_code(self, tmp_path, capsys, square_run, fibonacci_run):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        p1.write_text(report_to_json(square_run.report))
        p2.write_text(report_to_json(fibonacci_run.report))
        assert main(["compare", str(p1), str(p2)]) == 1
        verdict = compare_routes(json.loads(p1.read_text()), json.loads(p2.read_text()))
        assert not verdict["passed"] and verdict["details"]
        assert capsys.readouterr().out == report_to_json(verdict)

    def test_malformed_system_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["atlas", str(bad)]) == 2
        capsys.readouterr()

    def test_non_utf8_input_exit_code(self, tmp_path, capsys, square_run):
        bad, good = tmp_path / "bad.json", tmp_path / "good.json"
        bad.write_bytes(b"\xff\xfe{bad")
        good.write_text(report_to_json(square_run.report))
        for argv in (["atlas", str(bad)], ["cohomology", str(bad)],
                     ["compare", str(good), str(bad)]):
            assert main(argv) == 2
            err = capsys.readouterr().err.splitlines()
            assert any(line.startswith("error: ") for line in err)

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
        # the atlas closes at level 6, the collar not before level 7
        (["cohomology", system_path("penrose"), "--max-level", "6"], "collared classes"),
    ])
    def test_growth_not_closing_exit_code(self, argv, message, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{message} still changing" in err
        if message == "collared classes":
            # the saturated edge pairs and vertex sets still grow at level 6
            assert ("(saturated counts level 5: 220 classes, 350 edge pairs, "
                    "112 vertex sets; level 6: 220 classes, 400 edge pairs, "
                    "194 vertex sets)") in err

    @pytest.mark.parametrize("change,argv,message", [
        ({"rotation_order": 2}, ["atlas"], "edge class 0 has 2 self-motions"),
        ({"rotation_order": 2}, ["omega"], "edge class 0 has 2 self-motions"),
        ({"rotation_order": 2}, ["cohomology"], "edge class 0 has 2 self-motions"),
        # the square's identity self-map stands in for its substitution
        ({"hull_self_map": "substitution"}, ["cohomology", "--route", "mapping-torus"],
         "image tower still shrinking after 20 stages"),
    ], ids=["isotropy-atlas", "isotropy-omega", "isotropy-cohomology", "not-stabilizing"])
    def test_isotropy_and_unstable_limit_exit_code(self, change, argv, message, tmp_path,
                                                   capsys):
        data = json.loads(Path(system_path("square")).read_text())
        path = tmp_path / "square.json"
        path.write_text(json.dumps(dict(data, **change)))
        assert main([argv[0], str(path), *argv[1:]]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_reversed_regroup_vertices_exit_code(self, tmp_path, capsys):
        data = json.loads(Path(system_path("penrose")).read_text())
        next(r for r in data["regroup"] if r["label"] == "kite")["vertices"].reverse()
        path = tmp_path / "penrose.json"
        path.write_text(json.dumps(data))
        assert main(["cohomology", str(path), "--route", "spectral"]) == 2
        assert any(line.startswith("error: ") for line in capsys.readouterr().err.splitlines())

    # each value equals, or truncates to, the entry it replaces
    @pytest.mark.parametrize("entry,field,value,path", [
        (0, "proto", "3", "substitution.0[0].proto"),
        (0, "rot", True, "substitution.0[0].rot"),
        (1, "rot", 7.9, "substitution.0[1].rot"),
        (1, "trans", [1.5, 1, 1, 0], "substitution.0[1].trans[0]"),
    ], ids=["str-proto", "bool-rot", "float-rot", "float-trans"])
    def test_non_integer_number_exit_code(self, entry, field, value, path, tmp_path, capsys):
        data = json.loads(Path(system_path("penrose")).read_text())
        data["substitution"]["0"][entry][field] = value
        system = tmp_path / "penrose.json"
        system.write_text(json.dumps(data))
        assert main(["cohomology", str(system)]) == 2
        assert f"error: bad system definition: {path} must be an integer" in \
            capsys.readouterr().err

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
