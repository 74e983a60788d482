"""Scene files: named Weierstrass data, cycles, involutions, and settings.

The format is a single text document with `[section name]` headers and
`key = value` entries; `#` starts a comment.  Expressions for g and dh use
the package's mini-language.  All diagnostics carry 1-based line numbers.
"""

import re
from dataclasses import dataclass, field

from .errors import (
    DomainError,
    ExprSyntaxError,
    SceneParseError,
    SceneValidationError,
    UnresolvedReference,
)
from .expr import (
    Involution,
    Plane,
    eval_expr,
    parse_expr,
    torus,
)
from .lattice import Lattice
from .paths import circle, polyline, rectangle
from .surface import CycleBasis, WeierstrassData

_COMPLEX_RE = re.compile(
    r"""^\s*
        (?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?
        \s*
        (?P<im>[+-]\s*(?:\d+\.?\d*|\.\d+)?(?:[eE][+-]?\d+)?)?
        \s*(?P<i>i)?\s*$""",
    re.VERBOSE,
)


def parse_complex(text):
    """Parse '1.5', '2i', '1+2i', '-0.5-0.3i', 'i', '-i'."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    try:
        return complex(float(s))
    except ValueError:
        pass
    if not s.endswith("i"):
        raise ValueError(f"bad complex literal: {text!r}")
    body = s[:-1]
    # split real and imaginary at the last +/- not part of an exponent
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "eE":
            re_part, im_part = body[:k], body[k:]
            break
    else:
        re_part, im_part = "", body
    if im_part in ("", "+"):
        im = 1.0
    elif im_part == "-":
        im = -1.0
    else:
        im = float(im_part)
    return complex(float(re_part) if re_part else 0.0, im)


def _parse_complex_list(text):
    text = text.strip()
    if not text:
        return []
    return [parse_complex(t) for t in text.split(",")]


@dataclass
class Scene:
    name: str = "scene"
    lattice: object = None
    series_tol: float = 1e-14
    data: dict = field(default_factory=dict)  # name -> WeierstrassData
    cycles: dict = field(default_factory=dict)  # name -> PathSpec
    involutions: dict = field(default_factory=dict)  # name -> Involution
    settings: dict = field(default_factory=dict)  # section -> {key: raw str}

    def only_data(self):
        if len(self.data) != 1:
            raise SceneValidationError(
                0, f"expected exactly one data entry, found {len(self.data)}"
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


def _build_domain(kind, lineno, lat, punctures, series_tol):
    kind = kind.lower()
    if kind in ("plane", "punctured-plane", "punctured_plane"):
        return Plane(tuple(punctures))
    if kind == "torus":
        if lat is None:
            raise SceneValidationError(
                lineno, "torus domain requires a [lattice] section"
            )
        return torus(lat.tau, tuple(punctures), series_tol=series_tol)
    raise SceneValidationError(lineno, f"unknown domain kind {kind!r}")


def _build_cycle(entries, lineno):
    kind = entries.get("type", ("polyline", lineno))[0].lower()
    if kind == "circle":
        center = parse_complex(entries["center"][0]) if "center" in entries else 0j
        radius = float(entries["radius"][0])
        orient = int(entries.get("orientation", ("1", lineno))[0])
        return circle(center, radius, orient)
    if kind == "polyline":
        pts = _parse_complex_list(entries["points"][0])
        closed = entries.get("closed", ("false", lineno))[0].lower() in (
            "1", "true", "yes",
        )
        return polyline(pts, closed=closed)
    if kind == "rectangle":
        corner = parse_complex(entries["corner"][0])
        width = parse_complex(entries["width"][0])
        height = parse_complex(entries["height"][0])
        orient = int(entries.get("orientation", ("1", lineno))[0])
        return rectangle(corner, width, height, orient)
    raise SceneValidationError(lineno, f"unknown cycle type {kind!r}")


def load_scene(path):
    """Parse and fully validate a scene file."""
    sections = _read_sections(path)
    scene = Scene()
    import os

    scene.name = os.path.splitext(os.path.basename(str(path)))[0]

    # lattice first: torus domains depend on it
    for header, lineno, entries in sections:
        if header == "lattice":
            if "tau" not in entries:
                raise SceneValidationError(lineno, "[lattice] needs tau")
            tau = parse_complex(entries["tau"][0])
            tol = float(entries.get("series_tol", ("1e-14", lineno))[0])
            try:
                scene.lattice = Lattice(tau, series_tol=tol)
            except Exception as exc:
                raise SceneValidationError(entries["tau"][1], str(exc)) from exc
            scene.series_tol = tol

    for header, lineno, entries in sections:
        parts = header.split(None, 1)
        kind = parts[0]
        name = parts[1] if len(parts) > 1 else kind
        if kind == "lattice":
            continue
        if kind == "data":
            punctures = _parse_complex_list(
                entries.get("punctures", ("", lineno))[0]
            )
            domain = _build_domain(
                entries.get("domain", ("plane", lineno))[0],
                lineno,
                scene.lattice,
                punctures,
                scene.series_tol,
            )
            for key in ("g", "dh"):
                if key not in entries:
                    raise SceneValidationError(lineno, f"[data {name}] needs {key}")
            try:
                g = parse_expr(entries["g"][0], domain)
            except (ExprSyntaxError, DomainError) as exc:
                raise SceneValidationError(entries["g"][1], str(exc)) from exc
            try:
                dh = parse_expr(entries["dh"][0], domain)
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
            basepoint = (
                parse_complex(entries["basepoint"][0])
                if "basepoint" in entries
                else 0j
            )
            try:
                eval_expr(g, basepoint)
                eval_expr(dh, basepoint)
            except Exception as exc:
                raise SceneValidationError(
                    entries.get("basepoint", ("", lineno))[1]
                    if "basepoint" in entries
                    else lineno,
                    f"basepoint hits a singularity: {exc}",
                ) from exc
            scene.data[name] = WeierstrassData(
                g=g, dh=dh, basepoint=basepoint, label=name
            )
        elif kind == "cycle":
            scene.cycles[name] = _build_cycle(entries, lineno)
        elif kind == "involution":
            center = parse_complex(entries.get("center", ("0", lineno))[0])
            dom_name = entries.get("data", (None, lineno))[0]
            if dom_name is not None and dom_name not in scene.data:
                raise UnresolvedReference(
                    f"involution {name!r} references unknown data {dom_name!r}"
                )
            domain = (
                scene.data[dom_name].domain
                if dom_name is not None
                else (next(iter(scene.data.values())).domain if scene.data else Plane())
            )
            p0 = (
                parse_complex(entries["p0"][0]) if "p0" in entries else None
            )
            scene.involutions[name] = Involution(center, domain, p0=p0)
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
