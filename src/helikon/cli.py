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
    classify_fixed_point,
    divisor_audit,
    residue,
)
from .errors import HelikonError
from .mesh import (
    SamplingSpec,
    build_mesh,
    export_mesh,
    lambda_sweep,
    probe_self_intersection,
)
from .scene import load_scene, parse_complex, _parse_complex_list
from .solver import solve, standard_g1h_family
from .surface import (
    _generic_samples,
    flux,
    involution_report,
    period_report,
    straight_route,
    symmetry_verify,
)
from .paths import polyline

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


def _sampling_spec(opts, flags):
    rect = [float(v) for v in opts.get("rect", "-1,1,-1,1").split(",")]
    res = flags.get("resolution") or opts.get("resolution", "40x40")
    nx, ny = (int(v) for v in res.lower().split("x"))
    exclusions = []
    if "exclusions" in opts:
        vals = _parse_complex_list(opts["exclusions"])
        if len(vals) % 2:
            raise HelikonError("exclusions need center,radius pairs")
        for c, r in zip(vals[::2], vals[1::2]):
            exclusions.append((c, r.real))
    return SamplingSpec(
        rect[0], rect[1], rect[2], rect[3], nx, ny, tuple(exclusions)
    )


def _mesh_spec(scene, data, opts, flags):
    """The sampling spec of [mesh], overridden by opts and flags."""
    # a torus mesh needs its rectangle and the exclusion disks about the
    # punctures; the plane default (-1..1, none) runs into them
    if data.domain.lattice is not None and "mesh" not in scene.settings:
        raise HelikonError(
            f"scene {scene.name!r} has no [mesh] section; a torus mesh needs"
            " its rect and the exclusions around the punctures"
        )
    return _sampling_spec({**_settings(scene, "mesh"), **opts}, flags)


def cmd_periods(scene, flags):
    opts = _settings(scene, "periods")
    data = _pick_data(scene, opts)
    tol = flags.get("tol") or float(opts.get("tol", DEFAULT_TOL))
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
    tol = flags.get("tol") or float(opts.get("tol", DEFAULT_TOL))
    basis = _pick_basis(scene, opts)
    results = []
    for label, cyc in basis.items():
        f = flux(data, cyc, tol=tol)
        results.append({"cycle": label, "flux": list(f)})
    return {"results": results, "verdict": True, "settings": {"tol": tol}}


def cmd_symmetry(scene, flags):
    opts = _settings(scene, "symmetry")
    data = _pick_data(scene, opts)
    tol = flags.get("tol") or float(opts.get("tol", 1e-9))
    inv = scene.resolve_involution(opts.get("involution", "I"))
    n = int(opts.get("samples", 12))
    pts = _generic_samples(data.domain, n)
    samples = []
    from dataclasses import replace

    moved = replace(data, basepoint=complex(inv.p0))
    for p in pts:
        samples.append((p, straight_route(moved, p)))
    dev = symmetry_verify(data, inv, samples, tol=tol)
    return {
        "results": {"max_deviation": float(dev), "samples": n},
        "verdict": bool(dev < tol),
        "settings": {"tol": tol},
    }


def cmd_involution(scene, flags):
    opts = _settings(scene, "involution-check")
    data = _pick_data(scene, opts)
    tol = flags.get("tol") or float(opts.get("tol", 1e-8))
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
    radius = float(opts.get("radius", 0.05))
    points = _parse_complex_list(opts.get("points", ""))
    if not points:
        points = list(data.domain.punctures)
    results = []
    for p in points:
        results.append({"point": p, "residue": residue(data.dh, p, radius)})
    return {"results": results, "verdict": True, "settings": {"radius": radius}}


def cmd_audit(scene, flags):
    opts = _settings(scene, "audit")
    data = _pick_data(scene, opts)
    target = data.dh if opts.get("target", "dh") == "dh" else data.g
    dv, ok = divisor_audit(target)
    return {
        "results": {
            "entries": [{"point": p, "order": n} for p, n in dv.entries],
            "zero_count": dv.zero_count(),
            "pole_count": dv.pole_count(),
        },
        "verdict": bool(ok),
        "settings": {"target": opts.get("target", "dh")},
    }


def cmd_classify_fixed(scene, flags):
    opts = _settings(scene, "classify-fixed")
    data = _pick_data(scene, opts)
    inv = scene.resolve_involution(opts.get("involution", "I"))
    results = []
    for p in inv.fixed_points:
        results.append(
            {"point": p, "case": classify_fixed_point(data.dh, inv, p)}
        )
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
    tau = scene.lattice.tau if scene.lattice else parse_complex(opts.get("tau", "i"))
    shift = parse_complex(opts["shift"]) if "shift" in opts else None
    tol = flags.get("tol") or float(opts.get("tol", 1e-8))
    max_iter = int(opts.get("max_iter", 50))
    fam = standard_g1h_family(tau=tau, shift=shift)
    init = {
        "E1": parse_complex(opts.get("init_E1", "0.25+0.1i")),
        "rho": float(opts.get("init_rho", 0.8)),
        "c": parse_complex(opts.get("init_c", "0")),
    }
    res = solve(fam, fam.pack(init), tol=tol, max_iter=max_iter)
    params = fam.unpack(res.params)
    return {
        "results": {
            "parameters": {k: v for k, v in params.items()},
            "residual_history": [float(h) for h in res.history],
            "final_norm": float(res.final_norm),
            "iterations": res.iterations,
        },
        "verdict": bool(res.converged),
        "settings": {"tol": tol, "max_iter": max_iter},
    }


def cmd_mesh(scene, flags):
    opts = _settings(scene, "mesh")
    data = _pick_data(scene, opts)
    spec = _mesh_spec(scene, data, opts, flags)
    m = build_mesh(data, spec)
    report = {
        "results": {
            "vertices": len(m.vertices),
            "faces": len(m.faces),
            "edges": len(m.edges),
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
    spec = _mesh_spec(scene, data, opts, flags)
    m = build_mesh(data, spec)
    d_ext = float(opts["delta_ext"]) if "delta_ext" in opts else None
    d_int = float(opts["delta_int"]) if "delta_int" in opts else None
    rep = probe_self_intersection(m, d_ext, d_int)
    pairs = [
        {
            "a": int(a),
            "b": int(b),
            "u_a": m.vertices[a][0],
            "u_b": m.vertices[b][0],
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
    spec = _mesh_spec(scene, data, opts, flags)
    lambdas = flags.get("lambdas") or [
        float(v) for v in opts.get("lambdas", "0.5,1,2").split(",")
    ]
    tol = flags.get("tol") or float(opts.get("tol", 1e-8))
    basis = _pick_basis(scene, opts) if scene.cycles else None
    d_ext = float(opts["delta_ext"]) if "delta_ext" in opts else None
    d_int = float(opts["delta_int"]) if "delta_int" in opts else None
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
    parser.add_argument("--tol", type=float, default=None)
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

    flags = {
        "out": args.out,
        "tol": args.tol,
        "resolution": args.resolution,
        "json": args.json,
        "obj": args.obj,
        "lambdas": (
            [float(v) for v in args.lambdas.split(",")] if args.lambdas else None
        ),
    }
    try:
        scene = load_scene(args.scene)
        code, report = run(args.command, scene, flags)
    except HelikonError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    _emit(report, flags)
    return code


if __name__ == "__main__":
    sys.exit(main())
