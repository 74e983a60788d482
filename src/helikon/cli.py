"""Command-line surface: scene-driven subcommands with JSON reports.

Every subcommand loads a scene, runs one module operation, and emits a
deterministic JSON report {command, scene_name, settings, results,
verdict}.  Exit codes: 0 success, 2 when every computation succeeded but a
verdict check failed, 1 on errors.
"""

import argparse
import json
import math
import os
import sys

from .divisor import (
    classify_fixed_points,
    divisor_audit,
    residues,
)
from .errors import HelikonError
from .mesh import (
    SamplingSpec,
    build_mesh,
    export_mesh,
    lambda_sweep,
    probe_self_intersection,
)
from .records import replace
from .scene import (
    _parse_complex_list,
    load_scene,
    parse_complex,
    parse_positive,
)
from .solver import asymptotic_residual, solve, standard_g1h_family
from .surface import (
    _generic_samples,
    fluxes,
    involution_report,
    period_report,
    straight_route,
    symmetry_verify,
)

DEFAULT_TOL = 1e-10


def _sig12(x):
    """Round to 12 significant digits for stable report bytes."""
    if isinstance(x, float):
        if not math.isfinite(x):
            return repr(x)
        return float(f"{x:.12g}")
    if isinstance(x, complex):
        return [_sig12(x.real), _sig12(x.imag)]
    if isinstance(x, dict):
        return {k: _sig12(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_sig12(v) for v in x]
    return x


def _report_json(report):
    return json.dumps(_sig12(report), sort_keys=True, indent=2) + "\n"


def _emit(report, flags):
    text = _report_json(report)
    if flags.get("json", True):
        sys.stdout.write(text)
    out_dir = flags.get("out")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        fname = f"{report['scene_name']}_{report['command']}.json"
        with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
            fh.write(text)


def _settings(scene, section):
    return dict(scene.settings.get(section, {}))


def _pick_data(scene, opts):
    if "data" in opts:
        return scene.resolve_data(opts["data"])
    return scene.only_data()


def _pick_basis(scene, opts):
    names = None
    if "cycles" in opts:
        names = [c.strip() for c in opts["cycles"].split(",") if c.strip()]
    return scene.cycle_basis(names)


def _parsed(text, parse, name):
    """parse(text); a value that parse refuses (ValueError) raises
    HelikonError naming the setting, name."""
    try:
        return parse(text)
    except ValueError as exc:
        raise HelikonError(f"{name} = {text!r}: {exc}") from None


def _setting(opts, section, key, parse, default=None):
    """parse of the value of key in the settings opts of section, or
    default where key is unset."""
    if key not in opts:
        return default
    return _parsed(opts[key], parse, f"[{section}] {key}")


def _tol(opts, flags, section, default):
    """The --tol flag, else the section's tol, else default."""
    if flags.get("tol"):
        return flags["tol"]
    return _setting(opts, section, "tol", parse_positive, default)


def _count(text):
    n = int(text)
    if n < 1:
        raise ValueError("expected a count of at least 1")
    return n


def _floats(text):
    return [float(v) for v in text.split(",")]


def _rect(text):
    rect = _floats(text)
    if len(rect) != 4:
        raise ValueError("expected umin, umax, vmin, vmax")
    return rect


def _grid_size(text):
    size = text.lower().split("x")
    if len(size) != 2:
        raise ValueError("expected NxM")
    return [int(v) for v in size]


def _disks(text):
    vals = _parse_complex_list(text)
    if len(vals) % 2:
        raise ValueError("exclusions need center,radius pairs")
    return tuple((c, r.real) for c, r in zip(vals[::2], vals[1::2]))


def _sampling_spec(opts, flags, sources=None):
    """The SamplingSpec of the settings opts, the --resolution flag over
    their resolution.  A value that does not parse raises HelikonError
    naming its key and its section, sources[key] or else mesh."""

    def name(key):
        return f"[{(sources or {}).get(key, 'mesh')}] {key}"

    rect = _parsed(opts.get("rect", "-1,1,-1,1"), _rect, name("rect"))
    if flags.get("resolution"):
        nx, ny = _parsed(flags["resolution"], _grid_size, "--resolution")
    else:
        res = opts.get("resolution", "40x40")
        nx, ny = _parsed(res, _grid_size, name("resolution"))
    exclusions = ()
    if "exclusions" in opts:
        exclusions = _parsed(opts["exclusions"], _disks, name("exclusions"))
    try:
        return SamplingSpec(*rect, nx, ny, exclusions)
    except ValueError as exc:
        raise HelikonError(f"mesh settings: {exc}") from None


def _mesh_spec(scene, data, section, flags):
    """The sampling spec of [mesh], overridden by the command's section and
    by flags."""
    # a torus mesh needs its rectangle and the exclusion disks about the
    # punctures; the plane default (-1..1, none) runs into them
    if data.domain.lattice is not None and "mesh" not in scene.settings:
        raise HelikonError(
            f"scene {scene.name!r} has no [mesh] section; a torus mesh needs"
            " its rect and the exclusions around the punctures"
        )
    own = _settings(scene, section)
    return _sampling_spec(
        {**_settings(scene, "mesh"), **own}, flags,
        sources=dict.fromkeys(own, section),
    )


def _probe_thresholds(opts, section):
    """(delta_ext, delta_int) as a section sets them, None where unset."""
    return tuple(
        _setting(opts, section, key, float) for key in ("delta_ext", "delta_int")
    )


def cmd_periods(scene, flags):
    opts = _settings(scene, "periods")
    data = _pick_data(scene, opts)
    tol = _tol(opts, flags, "periods", DEFAULT_TOL)
    basis = _pick_basis(scene, opts)
    rep = period_report(data, basis, tol=tol)
    results = [
        {
            "cycle": e.label,
            "p_plus": e.p_plus,
            "p_minus": e.p_minus,
            "p_three": e.p_three,
            "horizontal_residual": e.r1,
            "vertical_residual": e.r2,
        }
        for e in rep.entries
    ]
    return {
        "results": results,
        "verdict": bool(rep.closes),
        "settings": {"tol": tol},
    }


def cmd_flux(scene, flags):
    opts = _settings(scene, "flux")
    data = _pick_data(scene, opts)
    tol = _tol(opts, flags, "flux", DEFAULT_TOL)
    basis = _pick_basis(scene, opts)
    results = [
        {"cycle": label, "flux": list(f)}
        for label, f in zip(basis.labels, fluxes(data, basis.cycles, tol=tol))
    ]
    return {"results": results, "verdict": True, "settings": {"tol": tol}}


def cmd_symmetry(scene, flags):
    opts = _settings(scene, "symmetry")
    data = _pick_data(scene, opts)
    tol = _tol(opts, flags, "symmetry", 1e-9)
    inv = scene.resolve_involution(opts.get("involution", "I"))
    n = _setting(opts, "symmetry", "samples", _count, 12)
    pts = _generic_samples(data.domain, n)
    samples = []
    moved = replace(data, basepoint=complex(inv.p0))
    for p in pts:
        samples.append((p, straight_route(moved, p)))
    dev = symmetry_verify(data, inv, samples)
    return {
        "results": {"max_deviation": float(dev), "samples": n},
        "verdict": bool(dev < tol),
        "settings": {"tol": tol},
    }


def cmd_involution(scene, flags):
    opts = _settings(scene, "involution-check")
    data = _pick_data(scene, opts)
    tol = _tol(opts, flags, "involution-check", 1e-8)
    inv = scene.resolve_involution(opts.get("involution", "I"))
    rep = involution_report(data, inv, tol=tol)
    return {
        "results": {
            "dh_odd": rep.dh_odd,
            "dgg_odd": rep.dgg_odd,
            "C": rep.C,
            "max_deviation": rep.max_dev,
        },
        "verdict": bool(rep.dh_odd and rep.dgg_odd),
        "settings": {"tol": tol},
    }


def cmd_residues(scene, flags):
    opts = _settings(scene, "residues")
    data = _pick_data(scene, opts)
    radius = _setting(opts, "residues", "radius", parse_positive, 0.05)
    lat = data.domain.lattice
    # a wider circle is no loop about one point of the torus
    if lat is not None and not radius < 0.5 * abs(lat.omega):
        raise HelikonError(
            f"[residues] radius = {radius:g} must be below half the shortest"
            f" period, {abs(lat.omega) / 2:g}"
        )
    points = _setting(opts, "residues", "points", _parse_complex_list, [])
    dom = data.domain
    if not points:
        points = list(dom.punctures)
    # nor is one that reaches a second puncture
    for p in points:
        for q in dom.punctures:
            d = dom.distance(p, q)
            if not dom.same_point(p, q) and not radius < d:
                raise HelikonError(
                    f"[residues] radius = {radius:g} about {p:g} reaches the"
                    f" puncture {q:g}, {d:g} away"
                )
    results = [
        {"point": p, "residue": r}
        for p, r in zip(points, residues(data.dh, points, radius))
    ]
    return {"results": results, "verdict": True, "settings": {"radius": radius}}


def cmd_audit(scene, flags):
    opts = _settings(scene, "audit")
    data = _pick_data(scene, opts)
    target = opts.get("target", "dh")
    if target not in ("dh", "g"):
        raise HelikonError(f"[audit] target = {target!r}: expected dh or g")
    dv, ok = divisor_audit(data.dh if target == "dh" else data.g)
    return {
        "results": {
            "entries": [{"point": p, "order": n} for p, n in dv.entries],
            "zero_count": dv.zero_count(),
            "pole_count": dv.pole_count(),
        },
        "verdict": bool(ok),
        "settings": {"target": target},
    }


def cmd_classify_fixed(scene, flags):
    opts = _settings(scene, "classify-fixed")
    data = _pick_data(scene, opts)
    inv = scene.resolve_involution(opts.get("involution", "I"))
    points = inv.fixed_points
    cases = classify_fixed_points(data.dh, inv, points)
    results = [{"point": p, "case": c} for p, c in zip(points, cases)]
    return {"results": results, "verdict": True, "settings": {}}


def cmd_solve(scene, flags):
    # the [solve] section sets up standard_g1h_family, the only family
    # solve knows; without it the scene's own data would be ignored
    if "solve" not in scene.settings:
        raise HelikonError(
            f"scene {scene.name!r} has no [solve] section; solve runs the"
            " standard genus-one family it configures"
        )
    opts = _settings(scene, "solve")
    if "init_E1" in opts:
        # init_E1 was a start value while E1 was an unknown; ignored, it
        # would silently solve at the default puncture
        raise HelikonError(
            f"scene {scene.name!r}: [solve] key init_E1 is no longer read;"
            " the puncture is fixed data, set it as E1"
        )
    if scene.lattice:
        tau = scene.lattice.tau
    else:
        tau = _setting(opts, "solve", "tau", parse_complex, 1j)
    shift = _setting(opts, "solve", "shift", parse_complex)
    tol = _tol(opts, flags, "solve", 1e-8)
    max_iter = _setting(opts, "solve", "max_iter", _count, 50)
    E1 = _setting(opts, "solve", "E1", parse_complex)
    pinned = {} if E1 is None else {"E1": E1}
    init = {
        "rho": _setting(opts, "solve", "init_rho", float, 0.8),
        "c": _setting(opts, "solve", "init_c", parse_complex, 0j),
    }
    fam = standard_g1h_family(tau=tau, shift=shift, **pinned)
    res = solve(fam, fam.pack(init), tol=tol, max_iter=max_iter)
    data = fam.build(res.params)
    punctures = data.domain.punctures
    regularity = asymptotic_residual(data, punctures)
    return {
        "results": {
            "parameters": {"E1": punctures[0], **fam.unpack(res.params)},
            "residual_history": [float(h) for h in res.history],
            "final_norm": float(res.final_norm),
            "iterations": res.iterations,
            "jacobian_singular_values": res.singular_values,
            "asymptotic_residual": float(regularity),
        },
        "verdict": bool(res.converged and regularity < tol),
        "settings": {"tol": tol, "max_iter": max_iter},
    }


def cmd_mesh(scene, flags):
    opts = _settings(scene, "mesh")
    data = _pick_data(scene, opts)
    spec = _mesh_spec(scene, data, "mesh", flags)
    m = build_mesh(data, spec)
    report = {
        "results": {
            "vertices": len(m.u),
            "faces": m.face_count(),
            "edges": len(m.edge_ends),
            "bounding_box_diagonal": m.bounding_box_diagonal(),
        },
        "verdict": True,
        "settings": {"resolution": f"{spec.nx}x{spec.ny}"},
    }
    if flags.get("obj") or "obj" in opts:
        out_dir = flags.get("out") or "."
        os.makedirs(out_dir, exist_ok=True)
        obj_path = os.path.join(
            out_dir, opts.get("obj", f"{scene.name}_mesh.obj")
        )
        with open(obj_path, "wb") as fh:
            fh.write(export_mesh(m))
        report["results"]["obj"] = os.path.basename(obj_path)
    return report


def cmd_probe(scene, flags):
    opts = _settings(scene, "probe")
    data = _pick_data(scene, opts)
    spec = _mesh_spec(scene, data, "probe", flags)
    m = build_mesh(data, spec)
    rep = probe_self_intersection(m, *_probe_thresholds(opts, "probe"))
    pairs = [
        {
            "a": int(a),
            "b": int(b),
            "u_a": complex(m.u[a]),
            "u_b": complex(m.u[b]),
            "extrinsic": float(de),
            "intrinsic": float(di),
        }
        for a, b, de, di in rep.pairs
    ]
    return {
        "results": {"pairs": pairs, "embedded": rep.embedded},
        "verdict": bool(rep.embedded),
        "settings": {
            "delta_ext": rep.delta_ext,
            "delta_int": rep.delta_int,
        },
    }


def cmd_sweep(scene, flags):
    opts = _settings(scene, "sweep")
    data = _pick_data(scene, opts)
    spec = _mesh_spec(scene, data, "sweep", flags)
    lambdas = flags.get("lambdas") or _setting(
        opts, "sweep", "lambdas", _floats, [0.5, 1.0, 2.0]
    )
    tol = _tol(opts, flags, "sweep", 1e-8)
    basis = _pick_basis(scene, opts) if scene.cycles else None
    d_ext, d_int = _probe_thresholds(opts, "sweep")
    res = lambda_sweep(
        data, lambdas, spec, basis=basis, delta_ext=d_ext, delta_int=d_int,
        tol=tol,
    )
    table = [
        {"lambda": lam, "embedded": emb, "max_period_residual": resid}
        for lam, emb, resid in res.table
    ]
    ok = all(row["max_period_residual"] < tol for row in table)
    return {
        "results": {
            "table": table,
            "bracket": list(res.bracket) if res.bracket else None,
        },
        "verdict": bool(ok),
        "settings": {"tol": tol, "lambdas": lambdas},
    }


COMMANDS = {
    "periods": cmd_periods,
    "flux": cmd_flux,
    "symmetry": cmd_symmetry,
    "involution": cmd_involution,
    "residues": cmd_residues,
    "audit": cmd_audit,
    "classify-fixed": cmd_classify_fixed,
    "solve": cmd_solve,
    "mesh": cmd_mesh,
    "probe": cmd_probe,
    "sweep": cmd_sweep,
}


def run(command, scene, flags):
    """Run one subcommand on a loaded scene; returns (exit_code, report)."""
    body = COMMANDS[command](scene, flags)
    report = {
        "command": command,
        "scene_name": scene.name,
        "settings": body.get("settings", {}),
        "results": body["results"],
        "verdict": body["verdict"],
    }
    code = 0 if report["verdict"] else 2
    return code, report


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="helikon",
        description="Minimal-surface laboratory: periods, symmetry, meshes.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--scene", required=True, help="scene file path")
    parser.add_argument("--out", help="directory for JSON/OBJ artifacts")
    parser.add_argument("--tol", default=None)
    parser.add_argument(
        "--lambda", dest="lambdas", default=None,
        help="comma-separated lambda grid for sweep",
    )
    parser.add_argument("--resolution", default=None, help="grid size NxM")
    parser.add_argument(
        "--json", action=argparse.BooleanOptionalAction, default=True
    )
    parser.add_argument("--obj", action="store_true", help="write OBJ output")
    args = parser.parse_args(argv)

    try:
        flags = {
            "out": args.out,
            "tol": None if args.tol is None else _parsed(
                args.tol, parse_positive, "--tol"
            ),
            "resolution": args.resolution,
            "json": args.json,
            "obj": args.obj,
            "lambdas": None if args.lambdas is None else _parsed(
                args.lambdas, _floats, "--lambda"
            ),
        }
        scene = load_scene(args.scene)
        code, report = run(args.command, scene, flags)
    except HelikonError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    _emit(report, flags)
    return code


if __name__ == "__main__":
    sys.exit(main())
