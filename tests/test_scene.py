"""Scene-file parsing, validation, and referential integrity."""

import math
import os

import pytest

from helikon import scene as scene_module
from helikon.errors import (
    SceneParseError,
    SceneValidationError,
    UnresolvedReference,
)
from helikon.paths import Arc, Line
from helikon.scene import load_scene, parse_complex

SCENES = os.path.join(os.path.dirname(__file__), "..", "scenes")


def write(tmp_path, text, name="case.scene"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


MINIMAL = """
[data d]
domain = plane
g = u
dh = 1 du
basepoint = 1
"""


class TestComplexLiterals:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1.5", 1.5),
            ("2i", 2j),
            ("1+2i", 1 + 2j),
            ("-0.5-0.3i", -0.5 - 0.3j),
            ("i", 1j),
            ("-i", -1j),
            ("1e-3+2.5e-2i", 1e-3 + 2.5e-2j),
            (" 0.21 + 0.43i ", 0.21 + 0.43j),
            ("+i", 1j),
            ("inf", math.inf),
            ("infi", complex(0, math.inf)),
            ("1+infi", complex(1, math.inf)),
            ("1_0", 10),
            ("1e-3i", 1e-3j),
        ],
    )
    def test_good(self, text, value):
        assert parse_complex(text) == value

    @pytest.mark.parametrize(
        "text",
        ["", "abc", "1+2j", "i2", "(1+2i)", "2j", "1+2J", "ii", "1+2ii", "i1",
         "1+", "0x1"],
    )
    def test_bad(self, text):
        with pytest.raises(ValueError):
            parse_complex(text)


class TestBundledScenes:
    def test_helicoid(self):
        s = load_scene(os.path.join(SCENES, "helicoid.scene"))
        assert s.name == "helicoid"
        assert set(s.data) == {"helicoid"}
        assert set(s.cycles) == {"loop"}
        assert set(s.involutions) == {"I"}
        assert "symmetry" in s.settings and "probe" in s.settings

    def test_catenoid(self):
        s = load_scene(os.path.join(SCENES, "catenoid.scene"))
        assert set(s.data) == {"catenoid"}
        assert s.data["catenoid"].domain.punctures == (0j,)
        assert {"periods", "flux", "mesh", "sweep"} <= set(s.settings)

    def test_periodic_candidate(self):
        s = load_scene(os.path.join(SCENES, "periodic-candidate.scene"))
        assert s.lattice is not None and s.lattice.tau == 1j
        assert set(s.cycles) == {"A", "B"}
        basis = s.cycle_basis(["A", "B"])
        assert [lbl for lbl, _ in basis.items()] == ["A", "B"]
        # generator cycles close only modulo the lattice
        assert not s.cycles["A"].closed


class TestParseErrors:
    def test_entry_before_section(self, tmp_path):
        path = write(tmp_path, "g = u\n")
        with pytest.raises(SceneParseError) as err:
            load_scene(path)
        assert err.value.line == 1

    def test_missing_equals(self, tmp_path):
        path = write(tmp_path, "[data d]\ndomain plane\n")
        with pytest.raises(SceneParseError) as err:
            load_scene(path)
        assert err.value.line == 2

    def test_unterminated_header(self, tmp_path):
        path = write(tmp_path, "[data d\n")
        with pytest.raises(SceneParseError) as err:
            load_scene(path)
        assert err.value.line == 1

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = write(tmp_path, "# leading comment\n\n" + MINIMAL)
        s = load_scene(path)
        assert set(s.data) == {"d"}


class TestValidation:
    def test_elliptic_block_needs_torus(self, tmp_path):
        path = write(
            tmp_path,
            "[data d]\ndomain = plane\ng = wp(u)\ndh = 1 du\n",
        )
        with pytest.raises(SceneValidationError) as err:
            load_scene(path)
        assert err.value.line == 3

    def test_torus_needs_lattice(self, tmp_path):
        path = write(
            tmp_path, "[data d]\ndomain = torus\ng = u\ndh = 1 du\n"
        )
        with pytest.raises(SceneValidationError):
            load_scene(path)

    def test_missing_dh(self, tmp_path):
        path = write(tmp_path, "[data d]\ndomain = plane\ng = u\n")
        with pytest.raises(SceneValidationError):
            load_scene(path)

    def test_dh_must_be_form(self, tmp_path):
        path = write(tmp_path, "[data d]\ndomain = plane\ng = u\ndh = u\n")
        with pytest.raises(SceneValidationError) as err:
            load_scene(path)
        assert "du" in str(err.value)

    def test_g_must_not_be_form(self, tmp_path):
        path = write(
            tmp_path, "[data d]\ndomain = plane\ng = u du\ndh = 1 du\n"
        )
        with pytest.raises(SceneValidationError):
            load_scene(path)

    def test_basepoint_at_singularity(self, tmp_path):
        path = write(
            tmp_path,
            "[data d]\ndomain = punctured-plane\npunctures = 0\n"
            "g = u\ndh = 1/u du\nbasepoint = 0\n",
        )
        with pytest.raises(SceneValidationError) as err:
            load_scene(path)
        assert err.value.line == 6

    def test_basepoint_overflow(self, tmp_path):
        # u^400 overflows to inf at the basepoint 20: refused at its line
        path = write(
            tmp_path,
            "[data d]\ndomain = plane\ng = u^400\ndh = 1 du\nbasepoint = 20\n",
        )
        with pytest.raises(SceneValidationError, match="not finite") as err:
            load_scene(path)
        assert err.value.line == 5

    def test_basepoint_check_lets_bugs_through(self, tmp_path, monkeypatch):
        # only helikon's own errors are scene errors: a bug in evaluation
        # shows as itself
        def broken(e, u):
            raise TypeError("bug")

        monkeypatch.setattr(scene_module, "finite_value", broken)
        path = write(tmp_path, MINIMAL)
        with pytest.raises(TypeError, match="bug"):
            load_scene(path)

    def test_unknown_domain_kind(self, tmp_path):
        path = write(
            tmp_path, "[data d]\ndomain = sphere\ng = u\ndh = 1 du\n"
        )
        with pytest.raises(SceneValidationError):
            load_scene(path)

    @pytest.mark.parametrize(
        "entries, line",
        [("tau = nani\n", 2), ("tau = nan+i\n", 2), ("tau = infi\n", 2),
         ("tau = i\nseries_tol = nan\n", 3),
         ("tau = i\nseries_tol = 0\n", 3),
         ("tau = i\nseries_tol = inf\n", 3),
         ("tau = i\nseries_tol = -1e-14\n", 3)],
        ids=["tau-nani", "tau-nan+i", "tau-infi", "series_tol-nan",
             "series_tol-0", "series_tol-inf", "series_tol-negative"],
    )
    def test_non_finite_lattice(self, tmp_path, entries, line):
        # refused at the line at fault; a nan tau or series_tol used to
        # hang the theta series' term count
        path = write(tmp_path, "[lattice]\n" + entries + MINIMAL)
        with pytest.raises(SceneValidationError) as err:
            load_scene(path)
        assert err.value.line == line

    def test_bad_lattice(self, tmp_path):
        path = write(
            tmp_path, "[lattice]\ntau = -i\n" + MINIMAL
        )
        with pytest.raises(SceneValidationError) as err:
            load_scene(path)
        assert err.value.line == 2


class TestReferences:
    def test_settings_unknown_cycle(self, tmp_path):
        path = write(tmp_path, MINIMAL + "\n[periods]\ncycles = ghost\n")
        with pytest.raises(UnresolvedReference):
            load_scene(path)

    def test_settings_unknown_data(self, tmp_path):
        path = write(tmp_path, MINIMAL + "\n[periods]\ndata = ghost\n")
        with pytest.raises(UnresolvedReference):
            load_scene(path)

    def test_involution_unknown_data(self, tmp_path):
        path = write(
            tmp_path, MINIMAL + "\n[involution I]\ncenter = 0\ndata = ghost\n"
        )
        with pytest.raises(UnresolvedReference):
            load_scene(path)

    def test_settings_unknown_involution(self, tmp_path):
        path = write(tmp_path, MINIMAL + "\n[symmetry]\ninvolution = J\n")
        with pytest.raises(UnresolvedReference):
            load_scene(path)

    def test_only_data_requires_single_entry(self, tmp_path):
        path = write(
            tmp_path,
            MINIMAL + "\n[data e]\ndomain = plane\ng = u\ndh = 1 du\n"
            "basepoint = 1\n",
        )
        s = load_scene(path)
        with pytest.raises(SceneValidationError):
            s.only_data()

    def test_only_data_names_no_line(self, tmp_path):
        # no one line of the scene is at fault
        s = load_scene(write(tmp_path, MINIMAL + MINIMAL.replace(" d]", " e]")))
        with pytest.raises(SceneValidationError) as err:
            s.only_data()
        assert err.value.line is None
        assert str(err.value).startswith("expected exactly one data entry")


class TestCycleBuilding:
    def test_circle_and_rectangle(self, tmp_path):
        path = write(
            tmp_path,
            MINIMAL
            + "\n[cycle c]\ntype = circle\ncenter = 1+1i\nradius = 0.5\n"
            + "\n[cycle r]\ntype = rectangle\ncorner = 0\nwidth = 2\n"
            "height = 1i\n",
        )
        s = load_scene(path)
        assert isinstance(s.cycles["c"].segments[0], Arc)
        assert s.cycles["r"].closed
        assert all(isinstance(seg, Line) for seg in s.cycles["r"].segments)

    def test_closed_polyline(self, tmp_path):
        path = write(
            tmp_path,
            MINIMAL
            + "\n[cycle p]\ntype = polyline\npoints = 0, 1, 1+1i\n"
            "closed = true\n",
        )
        s = load_scene(path)
        assert s.cycles["p"].closed

    def test_unknown_cycle_type(self, tmp_path):
        path = write(
            tmp_path, MINIMAL + "\n[cycle c]\ntype = spiral\nradius = 1\n"
        )
        with pytest.raises(SceneValidationError):
            load_scene(path)
