"""CLI subcommands: reports, exit codes, artifacts, determinism."""

import json
import os
import time

import numpy as np
import pytest

from helikon import cli as cli_module
from helikon import mesh as mesh_module
from helikon.cli import COMMANDS, _report_json, main, run
from helikon.errors import HelikonError
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

    def test_mesh_counts_faces_unbuilt(self, helicoid_scene, monkeypatch):
        # the faces are counted from the grid, and their list never built
        meshes = []

        def capture(data, spec):
            meshes.append(mesh_module.build_mesh(data, spec))
            return meshes[-1]

        monkeypatch.setattr(cli_module, "build_mesh", capture)
        code, rep = run("mesh", helicoid_scene, NO_FLAGS)
        (m,) = meshes
        assert code == 0 and "faces" not in m._lists
        assert rep["results"]["faces"] == len(m.faces)

    def test_sweep_catenoid(self, catenoid_scene):
        code, rep = run("sweep", catenoid_scene, NO_FLAGS)
        assert code == 0 and rep["verdict"] is True
        assert [row["lambda"] for row in rep["results"]["table"]] == [0.5, 1, 2]
        assert all(row["embedded"] for row in rep["results"]["table"])
        assert rep["results"]["bracket"] is None

    def test_solve_candidate(self, candidate_scene):
        code, rep = run("solve", candidate_scene, NO_FLAGS)
        assert code == 0 and rep["verdict"] is True
        res = rep["results"]
        hist = res["residual_history"]
        assert res["final_norm"] < 1e-8
        assert all(b <= a for a, b in zip(hist, hist[1:]))
        params = res["parameters"]
        assert params["E1"] == 0.25 + 0.1j
        assert abs(params["rho"] - 1.0) < 1e-9
        assert abs(params["c"] - (2.0620003379782 - 1.5707963267949j)) < 1e-9
        assert res["asymptotic_residual"] < 1e-12
        assert len(res["jacobian_singular_values"]) == res["iterations"]

    def test_all_commands_registered(self):
        assert sorted(COMMANDS) == [
            "audit", "classify-fixed", "flux", "involution", "mesh",
            "periods", "probe", "residues", "solve", "sweep", "symmetry",
        ]


# exit code of every bundled scene x command through cli.run: 0 success,
# 2 a failed verdict, 1 a HelikonError
EXIT_CODES = {
    "catenoid.scene": {
        0: "flux mesh periods probe residues sweep",
        1: "audit classify-fixed involution solve symmetry",
    },
    "helicoid.scene": {
        0: "classify-fixed flux involution mesh periods probe residues sweep"
           " symmetry",
        1: "audit solve",
    },
    "periodic-candidate.scene": {
        0: "audit classify-fixed flux involution residues solve symmetry",
        1: "mesh probe sweep",
        2: "periods",
    },
}
SCENE_COMMAND_CODES = [
    (scene_file, command, code)
    for scene_file, by_code in EXIT_CODES.items()
    for code, commands in by_code.items()
    for command in commands.split()
]


class TestExitCodes:
    def test_table_covers_every_scene_and_command(self):
        scene_files = sorted(
            f for f in os.listdir(SCENES) if f.endswith(".scene")
        )
        assert sorted(EXIT_CODES) == scene_files
        for scene_file in scene_files:
            commands = [
                c for f, c, _ in SCENE_COMMAND_CODES if f == scene_file
            ]
            assert sorted(commands) == sorted(COMMANDS)

    @pytest.mark.parametrize(
        "scene_file, command, code", SCENE_COMMAND_CODES,
        ids=[f"{f}:{c}" for f, c, _ in SCENE_COMMAND_CODES],
    )
    def test_bundled_exit_code(self, scene_file, command, code):
        try:
            got, _ = run(command, load_scene(scene_path(scene_file)), NO_FLAGS)
        except HelikonError:
            got = 1
        assert got == code


class TestSearchTraffic:
    """The grid bounds decide every far-pair candidate of the bundled
    plane scenes: their probes and sweeps run no graph search, and report
    what searching every candidate reports."""

    @pytest.mark.parametrize("command", ["probe", "sweep"])
    @pytest.mark.parametrize("scene_file", ["helicoid", "catenoid"])
    def test_no_search(self, monkeypatch, scene_file, command):
        scene = load_scene(scene_path(f"{scene_file}.scene"))
        graph_distance = mesh_module._graph_distance
        searches = []

        def counted(graph, source, targets, cutoff):
            searches.append(len(targets))
            return graph_distance(graph, source, targets, cutoff)

        monkeypatch.setattr(mesh_module, "_graph_distance", counted)
        code, rep = run(command, scene, NO_FLAGS)
        assert code == 0 and not searches
        # with both grid bounds off, the search decides every candidate
        # (the helicoid's probe has none)
        monkeypatch.setattr(
            mesh_module, "_grid_path_within",
            lambda mesh, edges, a, b, limit: np.zeros(len(a), dtype=bool))
        monkeypatch.setattr(
            mesh_module, "_grid_gap_bound",
            lambda mesh, edges, a, b, cutoff: np.zeros(len(a)))
        assert _report_json(run(command, scene, NO_FLAGS)[1]) == \
            _report_json(rep)
        none = (scene_file, command) == ("helicoid", "probe")
        assert bool(searches) != none


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

    @pytest.mark.parametrize(
        "rect", ["-inf,1,-1,1", "-1e308,1e308,-1,1", "nan,1,-1,1"]
    )
    @pytest.mark.parametrize("command", ["mesh", "probe", "sweep"])
    def test_non_finite_rect_exit_code(self, tmp_path, capsys, command,
                                       rect):
        # a bound or a width that is not finite once reached numpy: four
        # RuntimeWarning lines, then "integrand non-finite near z = nan"
        with open(scene_path("helicoid.scene")) as fh:
            text = fh.read()
        assert text.count("\nrect = ") == 1
        head, tail = text.split("\nrect = ")
        tail = tail[tail.index("\n"):]
        bad = tmp_path / "rect.scene"
        bad.write_text(f"{head}\nrect = {rect}{tail}")
        code = main([command, "--scene", str(bad), "--no-json"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: mesh settings: sampling rectangle")
        assert "must be finite" in err

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

    def test_solve_rejects_init_E1(self, tmp_path, capsys):
        # E1 is pinned data now; an old scene's init_E1 would otherwise be
        # ignored and the solve run at the default puncture
        with open(scene_path("periodic-candidate.scene")) as fh:
            text = fh.read()
        old = tmp_path / "old.scene"
        old.write_text(text.replace("\nE1 = ", "\ninit_E1 = "))
        assert "init_E1" in old.read_text()
        code = main(["solve", "--scene", str(old)])
        assert code == 1
        assert "E1" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "key, value",
        [("delta_int", "nan"), ("delta_ext", "0"), ("delta_ext", "-0.05"),
         ("delta_ext", "inf")],
    )
    @pytest.mark.parametrize("command", ["probe", "sweep"])
    def test_bad_threshold_exit_code(self, tmp_path, capsys, command, key,
                                     value):
        # a threshold that is not a finite positive length is refused,
        # never read as an embedded verdict
        with open(scene_path("helicoid.scene")) as fh:
            text = fh.read()
        thresholds = {"delta_ext": "0.05", "delta_int": "1.0", key: value}
        body = "".join(f"{k} = {v}\n" for k, v in thresholds.items())
        text = text[:text.index("[probe]")]
        text += f"[probe]\n{body}\n[sweep]\nlambdas = 1\n{body}"
        bad = tmp_path / "bad.scene"
        bad.write_text(text)
        code = main([command, "--scene", str(bad), "--no-json"])
        assert code == 1
        assert "must be a finite positive length" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["probe", "sweep"])
    def test_tiny_delta_ext_exit_code(self, tmp_path, capsys, command):
        # cube keys xyz / delta_ext of 2^63 or more once overflowed to one
        # key, and a 64x64 probe tested all V^2 / 2 pairs in 800 MB
        with open(scene_path("helicoid.scene")) as fh:
            text = fh.read()
        body = "delta_ext = 1e-300\ndelta_int = 1.0\n"
        text = text[:text.index("[probe]")]
        text += f"[probe]\n{body}\n[sweep]\nlambdas = 1\n{body}"
        bad = tmp_path / "tiny.scene"
        bad.write_text(text)
        t0 = time.perf_counter()
        code = main([command, "--scene", str(bad), "--resolution", "64x64",
                     "--no-json"])
        assert code == 1
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "delta_ext = 1e-300" in err and "max |xyz| = 3.14" in err

    @pytest.mark.parametrize(
        "command, body, where",
        [
            ("periods", "[cycle c]\ntype = circle\ncenter = 0\n",
             "line 5: [cycle c] needs radius"),
            ("periods", "basepoint = 1+\n", "line 5: [data d] basepoint"),
            ("mesh", "[mesh]\nrect = -1, 1\n", "[mesh] rect"),
            # a list of complex values refuses nan and inf in every setting
            # that reads one
            ("periods", "punctures = nan\n", "line 5: [data d] punctures"),
            ("periods", "[cycle c]\npoints = 0, 1, inf\n",
             "line 6: [cycle c] points"),
            ("mesh", "[mesh]\nexclusions = nan, 0.45\n", "[mesh] exclusions"),
            ("mesh", "[mesh]\nexclusions = 0, inf\n", "[mesh] exclusions"),
        ],
        ids=["cycle-without-radius", "bad-basepoint", "short-rect",
             "punctures-nan", "cycle-points-inf", "exclusions-nan",
             "exclusions-inf"],
    )
    def test_malformed_scene_exit_code(self, tmp_path, capsys, command, body,
                                       where):
        # a missing key or a value that does not parse is one error line
        # naming where it is, never a traceback
        bad = tmp_path / "bad.scene"
        bad.write_text(
            "[data d]\ndomain = plane\ng = u\ndh = 1 du\n" + body
        )
        code = main([command, "--scene", str(bad), "--no-json"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert where in err

    @pytest.mark.parametrize(
        "command, scene_file, body, flags, where",
        [
            ("periods", "catenoid", "[periods]\ntol = x\n", [],
             "[periods] tol"),
            ("flux", "catenoid", "[flux]\ntol = nan\n", [], "[flux] tol"),
            ("symmetry", "helicoid", "[symmetry]\ntol = x\n", [],
             "[symmetry] tol"),
            ("involution", "helicoid", "[involution-check]\ntol = -1\n", [],
             "[involution-check] tol"),
            ("solve", "periodic-candidate", "[solve]\ntol = x\n", [],
             "[solve] tol"),
            ("sweep", "catenoid", "[sweep]\ntol = x\n", [], "[sweep] tol"),
            ("symmetry", "helicoid", "[symmetry]\nsamples = x\n", [],
             "[symmetry] samples"),
            ("symmetry", "helicoid", "[symmetry]\nsamples = 0\n", [],
             "[symmetry] samples"),
            ("symmetry", "helicoid", "[symmetry]\nsamples = -3\n", [],
             "[symmetry] samples"),
            ("residues", "periodic-candidate", "[residues]\nradius = x\n",
             [], "[residues] radius"),
            *(
                ("residues", "periodic-candidate",
                 f"[residues]\nradius = {r}\n", [], "[residues] radius")
                for r in ("0", "-0.05", "nan", "inf", "1e200")
            ),
            # about 0.3i on tau = i, the other puncture -0.3i lies 0.4 away
            # modulo the lattice, at 0.7i: a circle of radius 0.4 passes
            # through it, and one of 0.45 encloses it and reported the sum
            # of both residues
            *(
                ("residues", "periodic-candidate",
                 f"[residues]\nradius = {r}\n", [],
                 f"[residues] radius = {r} about 0+0.3j reaches the puncture"
                 " 0-0.3j, 0.4 away")
                for r in ("0.4", "0.45")
            ),
            ("residues", "catenoid",
             "[residues]\npoints = 0.5\nradius = 0.6\n", [],
             "[residues] radius = 0.6 about 0.5+0j reaches the puncture 0+0j,"
             " 0.5 away"),
            ("residues", "periodic-candidate", "[residues]\npoints = 1, x\n",
             [], "[residues] points"),
            *(
                ("residues", "periodic-candidate",
                 f"[residues]\npoints = {p}\n", [],
                 f"[residues] points = '{p}': expected finite values")
                for p in ("nan", "inf", "0.3i, nan+1i")
            ),
            *(
                ("solve", "periodic-candidate", f"[solve]\nmax_iter = {n}\n",
                 [], "[solve] max_iter")
                for n in ("x", "-3", "0")
            ),
            ("solve", "periodic-candidate", "[solve]\ninit_rho = x\n", [],
             "[solve] init_rho"),
            ("solve", "periodic-candidate", "[solve]\ninit_c = x\n", [],
             "[solve] init_c"),
            ("solve", "periodic-candidate", "[solve]\nshift = x\n", [],
             "[solve] shift"),
            ("solve", "periodic-candidate", "[solve]\nE1 = x\n", [],
             "[solve] E1"),
            ("solve", None, "[solve]\ntau = x\n", [], "[solve] tau"),
            ("sweep", "catenoid", "[sweep]\nlambdas = 1, x\n", [],
             "[sweep] lambdas"),
            ("sweep", "catenoid", "[sweep]\nlambdas = 0.5, nan\n", [],
             "lambda = nan"),
            ("audit", "periodic-candidate", "[audit]\ntarget = dhh\n", [],
             "[audit] target"),
            ("periods", "catenoid", "", ["--tol", "x"], "--tol"),
            ("periods", "catenoid", "", ["--tol", "0"], "--tol"),
            ("periods", "catenoid", "", ["--tol", "-1"], "--tol"),
            ("periods", "catenoid", "", ["--tol", "nan"], "--tol"),
            ("sweep", "catenoid", "", ["--lambda", "1,x"], "--lambda"),
            ("sweep", "catenoid", "", ["--lambda", "nan,1"], "lambda = nan"),
            ("sweep", "catenoid", "", ["--lambda", "inf"], "lambda = inf"),
        ],
        ids=[
            "periods-tol", "flux-tol", "symmetry-tol", "involution-tol",
            "solve-tol", "sweep-tol", "samples", "samples-0",
            "samples-negative", "radius", "radius-0", "radius-negative",
            "radius-nan", "radius-inf", "radius-1e200",
            "radius-through-puncture", "radius-around-puncture",
            "radius-plane-puncture", "points", "points-nan", "points-inf",
            "points-complex-nan",
            "max_iter", "max_iter-negative", "max_iter-0", "init_rho",
            "init_c", "shift", "E1", "tau", "lambdas",
            "lambdas-nan", "audit-target", "--tol-x", "--tol-0",
            "--tol-negative", "--tol-nan", "--lambda", "--lambda-nan",
            "--lambda-inf",
        ],
    )
    def test_bad_setting_exit_code(self, tmp_path, capsys, command,
                                   scene_file, body, flags, where):
        # a value that does not parse, a tol, radius or lambda that is not
        # finite and positive, a count (samples, max_iter) below 1, or a
        # radius that reaches a second puncture, is one error line naming
        # the setting or the value, never a traceback or a report at some
        # other value
        if scene_file is None:
            text = "[data d]\ndomain = plane\ng = u\ndh = 1 du\n"
        else:
            with open(scene_path(f"{scene_file}.scene")) as fh:
                text = fh.read()
        bad = tmp_path / "bad.scene"
        bad.write_text(f"{text}\n{body}")
        code = main([command, "--scene", str(bad), "--no-json", *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert where in err

    def test_probe_pair_rows(self, tmp_path, capsys):
        # Enneper's surface folds over itself within the rectangle: every
        # reported pair is close in space and far apart on the surface
        enneper = tmp_path / "enneper.scene"
        enneper.write_text(
            "[data enneper]\ndomain = plane\ng = u\ndh = u du\n"
            "basepoint = 0\n[probe]\nrect = -2, 2, -2, 2\n"
            "resolution = 40x40\ndelta_ext = 0.1\ndelta_int = 2.0\n"
        )
        code = main(["probe", "--scene", str(enneper)])
        assert code == 2
        rep = json.loads(capsys.readouterr().out)
        pairs = rep["results"]["pairs"]
        delta_int = rep["settings"]["delta_int"]
        assert pairs and rep["results"]["embedded"] is False
        for row in pairs:
            assert type(row["a"]) is int and type(row["b"]) is int
            assert row["extrinsic"] < rep["settings"]["delta_ext"]
            # "inf" where the search stopped at its cutoff
            assert row["intrinsic"] == "inf" or row["intrinsic"] > delta_int

    @pytest.mark.parametrize("command", ["symmetry", "involution"])
    def test_overflowing_g_exit_code(self, tmp_path, capsys, command):
        # g = u^400 overflows at the fixed point p0 = 10: one error line
        # naming g, no traceback
        big = tmp_path / "big.scene"
        big.write_text(
            "[data d]\ndomain = plane\ng = u^400\ndh = 1 du\n"
            "[involution I]\ncenter = 20\n"
        )
        code = main([command, "--scene", str(big), "--no-json"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "u^400 is (inf+0j) at u = (10+0j), not finite" in err

    @pytest.mark.parametrize("power", ["0^-1", "10^400"])
    def test_constant_power_exit_code(self, tmp_path, capsys, power):
        # folding a constant power with no finite value raised
        # ZeroDivisionError or OverflowError through load_scene
        bad = tmp_path / "bad.scene"
        bad.write_text(
            f"[data d]\ndomain = plane\ng = {power} + exp(i*u)\ndh = 1 du\n"
        )
        code = main(["periods", "--scene", str(bad), "--no-json"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "line 3" in err and power in err

    def test_two_data_entries_name_no_line(self, tmp_path, capsys):
        # the scene has no line at fault: the report names none
        two = tmp_path / "two.scene"
        two.write_text(
            "[data d]\ndomain = plane\ng = u\ndh = 1 du\n"
            "[data e]\ndomain = plane\ng = u\ndh = 1 du\n"
        )
        code = main(["periods", "--scene", str(two), "--no-json"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: expected exactly one data entry")
        assert "line" not in err

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
