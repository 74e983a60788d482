"""CLI subcommands: reports, exit codes, artifacts, determinism."""

import json
import os
import time

import pytest

from helikon.cli import COMMANDS, _report_json, main, run
from helikon.scene import load_scene

SCENES = os.path.join(os.path.dirname(__file__), "..", "scenes")


def scene_path(name):
    return os.path.join(SCENES, name)


@pytest.fixture(scope="module")
def helicoid_scene():
    return load_scene(scene_path("helicoid.scene"))


@pytest.fixture(scope="module")
def catenoid_scene():
    return load_scene(scene_path("catenoid.scene"))


@pytest.fixture(scope="module")
def candidate_scene():
    return load_scene(scene_path("periodic-candidate.scene"))


NO_FLAGS = {"json": False}


class TestReports:
    def test_periods_catenoid(self, catenoid_scene):
        code, rep = run("periods", catenoid_scene, NO_FLAGS)
        assert code == 0 and rep["verdict"] is True
        assert rep["command"] == "periods"
        assert rep["scene_name"] == "catenoid"
        (entry,) = rep["results"]
        assert entry["cycle"] == "loop"
        assert entry["horizontal_residual"] < 1e-10

    def test_flux_catenoid(self, catenoid_scene):
        code, rep = run("flux", catenoid_scene, NO_FLAGS)
        assert code == 0
        (entry,) = rep["results"]
        f1, f2, f3 = entry["flux"]
        assert abs(f1) < 1e-9 and abs(f2) < 1e-9
        assert abs(f3 - 2 * 3.141592653589793) < 1e-8

    def test_symmetry_helicoid(self, helicoid_scene):
        code, rep = run("symmetry", helicoid_scene, NO_FLAGS)
        assert code == 0 and rep["verdict"] is True
        assert rep["results"]["max_deviation"] < 1e-9

    def test_involution_candidate(self, candidate_scene):
        code, rep = run("involution", candidate_scene, NO_FLAGS)
        assert code == 0 and rep["verdict"] is True
        assert rep["results"]["dh_odd"] and rep["results"]["dgg_odd"]

    def test_residues_candidate(self, candidate_scene):
        code, rep = run("residues", candidate_scene, NO_FLAGS)
        assert code == 0
        res = {complex(r["point"]): complex(r["residue"]) for r in rep["results"]}
        assert abs(res[0.3j] + 1j) < 1e-9
        assert abs(res[-0.3j] - 1j) < 1e-9

    def test_audit_candidate(self, candidate_scene):
        code, rep = run("audit", candidate_scene, NO_FLAGS)
        assert code == 0 and rep["verdict"] is True
        assert rep["results"]["pole_count"] == 2
        assert rep["results"]["zero_count"] == 2

    def test_classify_fixed_candidate(self, candidate_scene):
        code, rep = run("classify-fixed", candidate_scene, NO_FLAGS)
        assert code == 0
        assert len(rep["results"]) == 4
        for row in rep["results"]:
            assert isinstance(row["case"], str)

    def test_probe_helicoid(self, helicoid_scene):
        code, rep = run("probe", helicoid_scene, NO_FLAGS)
        assert code == 0 and rep["verdict"] is True
        assert rep["results"]["embedded"] is True
        assert rep["results"]["pairs"] == []

    def test_mesh_helicoid(self, helicoid_scene):
        code, rep = run("mesh", helicoid_scene, NO_FLAGS)
        assert code == 0
        assert rep["results"]["vertices"] == 1600
        assert rep["results"]["faces"] == 2 * 39 * 39

    def test_sweep_catenoid(self, catenoid_scene):
        code, rep = run("sweep", catenoid_scene, NO_FLAGS)
        assert code == 0 and rep["verdict"] is True
        assert [row["lambda"] for row in rep["results"]["table"]] == [0.5, 1, 2]
        assert all(row["embedded"] for row in rep["results"]["table"])
        assert rep["results"]["bracket"] is None

    def test_solve_candidate(self, candidate_scene):
        code, rep = run("solve", candidate_scene, NO_FLAGS)
        assert code == 0 and rep["verdict"] is True
        hist = rep["results"]["residual_history"]
        assert rep["results"]["final_norm"] < 1e-8
        assert all(b <= a for a, b in zip(hist, hist[1:]))

    def test_all_commands_registered(self):
        assert sorted(COMMANDS) == [
            "audit", "classify-fixed", "flux", "involution", "mesh",
            "periods", "probe", "residues", "solve", "sweep", "symmetry",
        ]


class TestDeterminism:
    def test_byte_identical_reports(self, catenoid_scene):
        _, rep1 = run("periods", catenoid_scene, NO_FLAGS)
        _, rep2 = run("periods", catenoid_scene, NO_FLAGS)
        assert _report_json(rep1) == _report_json(rep2)


class TestMain:
    def test_writes_json_artifact(self, tmp_path, capsys):
        code = main(
            [
                "flux",
                "--scene", scene_path("catenoid.scene"),
                "--out", str(tmp_path),
                "--no-json",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        out = tmp_path / "catenoid_flux.json"
        assert out.exists()
        rep = json.loads(out.read_text())
        assert rep["command"] == "flux" and rep["verdict"] is True

    def test_stdout_json(self, capsys):
        code = main(["periods", "--scene", scene_path("catenoid.scene")])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["scene_name"] == "catenoid"

    def test_mesh_obj_artifact(self, tmp_path, capsys):
        code = main(
            [
                "mesh",
                "--scene", scene_path("helicoid.scene"),
                "--out", str(tmp_path),
                "--resolution", "8x8",
                "--obj", "--no-json",
            ]
        )
        assert code == 0
        obj = tmp_path / "helicoid_mesh.obj"
        assert obj.exists()
        assert obj.read_bytes().startswith(b"v ")

    def test_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.scene"
        bad.write_text("[data d]\ndomain = plane\ng = u\n")  # no dh
        code = main(["periods", "--scene", str(bad), "--no-json"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_solve_needs_solve_section(self, capsys):
        # the catenoid has no [solve] section: refuse at once instead of
        # solving an unrelated genus-one family
        t0 = time.perf_counter()
        code = main(["solve", "--scene", scene_path("catenoid.scene")])
        assert code == 1
        assert time.perf_counter() - t0 < 1.0
        assert "[solve]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["mesh", "probe", "sweep"])
    def test_torus_mesh_needs_mesh_section(self, command, capsys):
        # the candidate torus has no [mesh] section: the plane default rect
        # has no exclusions about the punctures, so refuse at once
        t0 = time.perf_counter()
        code = main([command, "--scene", scene_path("periodic-candidate.scene")])
        assert code == 1
        assert time.perf_counter() - t0 < 1.0
        assert "[mesh]" in capsys.readouterr().err

    def test_verdict_failure_exit_code(self, tmp_path, capsys):
        # periods of (g = u + 2, dh = du/u) do not close over the loop
        open_scene = tmp_path / "open.scene"
        open_scene.write_text(
            "[data open]\ndomain = punctured-plane\npunctures = 0\n"
            "g = u + 2\ndh = 1/u du\nbasepoint = 1\n"
            "[cycle loop]\ntype = circle\ncenter = 0\nradius = 0.5\n"
            "[periods]\ncycles = loop\n"
        )
        code = main(["periods", "--scene", str(open_scene), "--no-json"])
        assert code == 2

    def test_resolution_flag_overrides_scene(self, capsys):
        code = main(
            [
                "mesh",
                "--scene", scene_path("helicoid.scene"),
                "--resolution", "5x7",
            ]
        )
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["results"]["vertices"] == 35
        assert rep["settings"]["resolution"] == "5x7"
