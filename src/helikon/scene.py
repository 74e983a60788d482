"""Scene files: named Weierstrass data, cycles, involutions, and settings.

The format is a single text document with `[section name]` headers and
`key = value` entries; `#` starts a comment.  Expressions for g and dh use
the package's mini-language.  Diagnostics carry the 1-based number of the
line at fault, where one line is.
"""

import cmath
import math
import os

from .errors import (
    DomainError,
    ExprSyntaxError,
    HelikonError,
    InvalidModulus,
    SceneParseError,
    SceneValidationError,
    UnresolvedReference,
)
from .expr import (
    Involution,
    Plane,
    Torus,
    parse_expr,
)
from .lattice import Lattice
from .paths import circle, polyline, rectangle
from .records import field, record
from .surface import CycleBasis, WeierstrassData, finite_value

def parse_complex(text):
    """Parse '1.5', '2i', '1+2i', '-0.5-0.3i', 'i', '-i': a real, or a
    complex() literal with i in place of j."""
    s = text.strip().replace(" ", "")
    if s.endswith("i"):
        return complex(s[:-1] + "j")
    return complex(float(s))


def _parse_complex_list(text):
    """Comma-separated parse_complex values, each of them finite."""
    text = text.strip()
    if not text:
        return []
    values = [parse_complex(t) for t in text.split(",")]
    if not all(map(cmath.isfinite, values)):
        raise ValueError("expected finite values")
    return values


def parse_positive(text):
    """A finite positive float: a tolerance or a length."""
    value = float(text)
    if not 0 < value < math.inf:
        raise ValueError("expected a finite positive number")
    return value


@record
class Scene:
    name: str = "scene"
    lattice: object = None
    data: dict = field(default_factory=dict)  # name -> WeierstrassData
    cycles: dict = field(default_factory=dict)  # name -> PathSpec
    involutions: dict = field(default_factory=dict)  # name -> Involution
    settings: dict = field(default_factory=dict)  # section -> {key: raw str}

    def only_data(self):
        if len(self.data) != 1:
            raise SceneValidationError(
                None,
                f"expected exactly one data entry, found {len(self.data)};"
                " name one with a data key in the command's section",
            )
        return next(iter(self.data.values()))

    def resolve_data(self, name):
        if name not in self.data:
            raise UnresolvedReference(f"data entry {name!r} is not defined")
        return self.data[name]

    def resolve_cycle(self, name):
        if name not in self.cycles:
            raise UnresolvedReference(f"cycle {name!r} is not defined")
        return self.cycles[name]

    def resolve_involution(self, name):
        if name not in self.involutions:
            raise UnresolvedReference(f"involution {name!r} is not defined")
        return self.involutions[name]

    def cycle_basis(self, names=None):
        if names is None:
            names = sorted(self.cycles)
        cycles = [self.resolve_cycle(n) for n in names]
        return CycleBasis(cycles=cycles, labels=list(names), lattice=self.lattice)


def _read_sections(path):
    """Raw parse: list of (header, header_line, {key: (value, line)})."""
    sections = []
    current = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            if line.lstrip().startswith("["):
                header = line.strip()
                if not header.endswith("]"):
                    raise SceneParseError(lineno, "unterminated section header")
                current = (header[1:-1].strip(), lineno, {})
                sections.append(current)
                continue
            if current is None:
                raise SceneParseError(lineno, "entry before any [section]")
            if "=" not in line:
                raise SceneParseError(lineno, f"expected key = value: {line.strip()!r}")
            key, value = line.split("=", 1)
            current[2][key.strip()] = (value.strip(), lineno)
    return sections


_REQUIRED = object()


def _entry(section, key, parse=str, default=_REQUIRED):
    """parse of the value of key in a _read_sections section, or default
    where the key is absent.  A missing required key raises
    SceneValidationError at the section's header line, and a value that
    parse refuses (ValueError) at the value's own line."""
    header, lineno, entries = section
    if key not in entries:
        if default is _REQUIRED:
            raise SceneValidationError(lineno, f"[{header}] needs {key}")
        return default
    value, line = entries[key]
    try:
        return parse(value)
    except ValueError as exc:
        raise SceneValidationError(
            line, f"[{header}] {key} = {value!r}: {exc}"
        ) from None


def _build_domain(kind, lineno, lat, punctures):
    kind = kind.lower()
    if kind in ("plane", "punctured-plane", "punctured_plane"):
        return Plane(tuple(punctures))
    if kind == "torus":
        if lat is None:
            raise SceneValidationError(
                lineno, "torus domain requires a [lattice] section"
            )
        return Torus(lat, tuple(punctures))
    raise SceneValidationError(lineno, f"unknown domain kind {kind!r}")


def _build_cycle(section):
    kind = _entry(section, "type", str.lower, "polyline")
    if kind == "circle":
        return circle(
            _entry(section, "center", parse_complex, 0j),
            _entry(section, "radius", float),
            _entry(section, "orientation", int, 1),
        )
    if kind == "polyline":
        closed = _entry(section, "closed", str.lower, "false")
        return polyline(
            _entry(section, "points", _parse_complex_list),
            closed=closed in ("1", "true", "yes"),
        )
    if kind == "rectangle":
        return rectangle(
            _entry(section, "corner", parse_complex),
            _entry(section, "width", parse_complex),
            _entry(section, "height", parse_complex),
            _entry(section, "orientation", int, 1),
        )
    raise SceneValidationError(section[1], f"unknown cycle type {kind!r}")


def load_scene(path):
    """Parse and fully validate a scene file."""
    sections = _read_sections(path)
    scene = Scene()
    scene.name = os.path.splitext(os.path.basename(str(path)))[0]

    # lattice first: torus domains depend on it
    for section in sections:
        header, lineno, entries = section
        if header == "lattice":
            tau = _entry(section, "tau", parse_complex)
            tol = _entry(section, "series_tol", parse_positive, 1e-14)
            try:
                scene.lattice = Lattice(tau, series_tol=tol)
            except InvalidModulus as exc:
                raise SceneValidationError(entries["tau"][1], str(exc)) from exc

    for section in sections:
        header, lineno, entries = section
        parts = header.split(None, 1)
        kind = parts[0]
        name = parts[1] if len(parts) > 1 else kind
        if kind == "lattice":
            continue
        if kind == "data":
            domain = _build_domain(
                _entry(section, "domain", default="plane"),
                lineno,
                scene.lattice,
                _entry(section, "punctures", _parse_complex_list, []),
            )
            g_text, dh_text = _entry(section, "g"), _entry(section, "dh")
            try:
                g = parse_expr(g_text, domain)
            except (ExprSyntaxError, DomainError) as exc:
                raise SceneValidationError(entries["g"][1], str(exc)) from exc
            try:
                dh = parse_expr(dh_text, domain)
            except (ExprSyntaxError, DomainError) as exc:
                raise SceneValidationError(entries["dh"][1], str(exc)) from exc
            if not hasattr(dh, "coeff"):
                raise SceneValidationError(
                    entries["dh"][1], "dh must be a one-form (append ' du')"
                )
            if hasattr(g, "coeff"):
                raise SceneValidationError(
                    entries["g"][1], "g must be a function, not a one-form"
                )
            basepoint = _entry(section, "basepoint", parse_complex, 0j)
            try:
                finite_value(g, basepoint)
                finite_value(dh, basepoint)
            except HelikonError as exc:
                raise SceneValidationError(
                    entries.get("basepoint", (None, lineno))[1],
                    f"basepoint hits a singularity: {exc}",
                ) from exc
            scene.data[name] = WeierstrassData(
                g=g, dh=dh, basepoint=basepoint, label=name
            )
        elif kind == "cycle":
            try:
                scene.cycles[name] = _build_cycle(section)
            except ValueError as exc:
                raise SceneValidationError(lineno, f"[{header}] {exc}") from None
        elif kind == "involution":
            center = _entry(section, "center", parse_complex, 0j)
            dom_name = _entry(section, "data", default=None)
            if dom_name is not None and dom_name not in scene.data:
                raise UnresolvedReference(
                    f"involution {name!r} references unknown data {dom_name!r}"
                )
            domain = (
                scene.data[dom_name].domain
                if dom_name is not None
                else (next(iter(scene.data.values())).domain if scene.data else Plane())
            )
            p0 = _entry(section, "p0", parse_complex, None)
            try:
                scene.involutions[name] = Involution(center, domain, p0=p0)
            except ValueError as exc:
                raise SceneValidationError(lineno, f"[{header}] {exc}") from None
        else:
            # settings sections (periods, flux, solve, mesh, probe, sweep, ...)
            scene.settings[header] = {k: v[0] for k, v in entries.items()}

    # referential integrity for settings that name cycles / data / involutions
    for header, opts in scene.settings.items():
        for key, value in opts.items():
            if key == "cycles":
                for cname in [c.strip() for c in value.split(",") if c.strip()]:
                    scene.resolve_cycle(cname)
            elif key == "data":
                scene.resolve_data(value)
            elif key == "involution":
                scene.resolve_involution(value)
    return scene
