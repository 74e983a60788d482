"""The benchmark's workloads: set-up, one pass of fixed work, output checks.

Constructing a workload is its set-up (scenes loaded, lattices and families
built).  ops() lists the operations of one pass; each returns the program's
output.  fingerprint() reduces an output to bytes, so that every pass can be
compared with the first.  check() compares the first pass's outputs with
the oracles and with properties the method must have, and returns the
failures as messages.  The seed only draws the extra points and pairs the
checks look at: the timed work is the same on every seed.
"""

import hashlib
import json
import math
import os

import numpy as np

from helikon import cli, divisor, expr, mesh, scene, solver, surface
from helikon.expr import Plane, parse_expr

FLAGS = {"json": False}

# the bundled candidate: the standard family member at E1 = 0.3i, rho = 1,
# c = 0 with its auxiliary zero/pole pair shifted by 1/2 (see its scene)
CANDIDATE = {"tau": 1j, "E1": 0.3j, "shift": 0.5, "rho": 1.0, "c": 0j}
# the two torus generators the candidate's scene and standard_g1h_family use
CYCLE_BASE = -0.4871 - 0.3631j

AUDIT_TAUS = (1j, 0.3 + 0.8j, 0.1 + 0.2j)
AUDIT_FORMS = ("wp(u) du", "wpp(u) du")


def _cli(sc, command):
    def op():
        code, report = cli.run(command, sc, FLAGS)
        return code, report, cli._report_json(report)
    return op


def _report(out):
    """(exit code, report) as the JSON a user of the CLI reads."""
    return out[0], json.loads(out[2])


def _digest(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


def _cell_points(rng, tau, n, avoid, margin=0.08):
    """n seeded points of the fundamental cell at least margin from avoid."""
    out = []
    while len(out) < n:
        s, t = rng.uniform(0.02, 0.98, size=2)
        u = complex(s) + complex(t) * tau
        if all(abs(_reduce(u - a, tau)) > margin for a in avoid):
            out.append(u)
    return out


def _reduce(u, tau):
    n = round(u.imag / tau.imag)
    m = round(u.real - n * tau.real)
    return u - m - n * tau


def _close(a, b, tol):
    return abs(complex(a) - complex(b)) <= tol * (1.0 + abs(complex(b)))


class Failures(list):
    def expect(self, ok, message):
        if not ok:
            self.append(message)


class TorusSolve:
    """The candidate scene's `solve`: the period problem from its initial point."""

    def __init__(self, root):
        self.scene = scene.load_scene(
            os.path.join(root, "scenes", "periodic-candidate.scene"))
        opts = self.scene.settings["solve"]
        self.tol = float(opts["tol"])
        self.max_iter = int(opts["max_iter"])
        self.shift = scene.parse_complex(opts["shift"])
        self.family = solver.standard_g1h_family(
            tau=self.scene.lattice.tau, shift=self.shift)

    def ops(self):
        return [("solve", _cli(self.scene, "solve"))]

    def fingerprint(self, name, out):
        return out[2]

    def check(self, outputs, rng):
        import oracles

        oracles.self_check()
        fail = Failures()
        code, report = _report(outputs["solve"])
        res = report["results"]
        hist = res["residual_history"]
        fail.expect(code == 0 and report["verdict"], "solve did not converge")
        fail.expect(res["final_norm"] < self.tol,
                    f"final norm {res['final_norm']:.3g} >= {self.tol}")
        fail.expect(res["iterations"] <= self.max_iter, "too many iterations")
        fail.expect(all(b <= a for a, b in zip(hist, hist[1:])),
                    "residual history is not monotone")

        p = res["parameters"]
        params = {"E1": complex(*p["E1"]), "rho": p["rho"], "c": complex(*p["c"])}
        tau = self.scene.lattice.tau
        ref = oracles.G1HData(tau, params["E1"], self.shift, params["rho"],
                              params["c"])
        for label, span in (("A", 1.0), ("B", tau)):
            pp, pm, _ = ref.periods(CYCLE_BASE, span)
            closure = abs(oracles.horizontal_closure(pp, pm))
            fail.expect(closure < self.tol,
                        f"horizontal period on {label} does not close: {closure:.3g}")

        data = self.family.build(self.family.pack(params))
        E1 = params["E1"]
        for point, want in ((E1, -1j), (-E1, 1j)):
            got = divisor.residue(data.dh, point, 0.05)
            fail.expect(_close(got, want, 1e-10),
                        f"dh residue at {point:.6g} is {got:.6g}, not {want}")
        avoid = ref.singularities()
        for u in _cell_points(rng, tau, 6, avoid):
            fail.expect(_close(expr.eval_expr(data.g, u), ref.g(u), 1e-9),
                        f"solved g disagrees with the oracle at {u:.6g}")
            fail.expect(_close(expr.eval_expr(data.dh, u), ref.dh(u), 1e-9),
                        f"solved dh disagrees with the oracle at {u:.6g}")
        return fail


class TorusScan:
    """The candidate's diagnostic commands plus wp/wpp divisor audits."""

    COMMANDS = ("periods", "flux", "symmetry", "involution", "audit",
                "classify-fixed", "residues")

    def __init__(self, root):
        self.scene = scene.load_scene(
            os.path.join(root, "scenes", "periodic-candidate.scene"))
        self.forms = {
            (tau, text): parse_expr(text, expr.torus(tau))
            for tau in AUDIT_TAUS for text in AUDIT_FORMS
        }

    def ops(self):
        ops = [(c, _cli(self.scene, c)) for c in self.COMMANDS]
        for (tau, text), form in self.forms.items():
            ops.append((f"audit {text} tau={tau}",
                        lambda form=form: divisor.divisor_audit(form)))
        return ops

    def fingerprint(self, name, out):
        if name in self.COMMANDS:
            return out[2]
        dv, ok = out
        return _digest(dv.entries, ok)

    def check(self, outputs, rng):
        import oracles

        oracles.self_check()
        fail = Failures()
        cand = oracles.G1HData(CANDIDATE["tau"], CANDIDATE["E1"],
                               CANDIDATE["shift"], CANDIDATE["rho"],
                               CANDIDATE["c"])
        tau = CANDIDATE["tau"]
        E1 = CANDIDATE["E1"]
        periods = {label: cand.periods(CYCLE_BASE, span)
                   for label, span in (("A", 1.0), ("B", tau))}

        # periods: the verdict is False by design (the vertical periods
        # carry the screw motion); the horizontal closure must match
        code, rep = _report(outputs["periods"])
        fail.expect(code == 2 and rep["verdict"] is False,
                    "candidate periods unexpectedly close")
        for row in rep["results"]:
            pp, pm, p3 = periods[row["cycle"]]
            for key, want in (("p_plus", pp), ("p_minus", pm), ("p_three", p3)):
                fail.expect(_close(complex(*row[key]), want, 1e-9),
                            f"{key} on {row['cycle']} disagrees with the oracle")
            closure = abs(oracles.horizontal_closure(pp, pm))
            fail.expect(_close(row["horizontal_residual"], closure, 1e-9),
                        f"horizontal residual on {row['cycle']} disagrees")

        code, rep = _report(outputs["flux"])
        for row in rep["results"]:
            pp, pm, p3 = periods[row["cycle"]]
            want = ((0.5 * (pm - pp)).imag, (0.5j * (pm + pp)).imag, p3.imag)
            fail.expect(all(_close(g, w, 1e-9) for g, w in zip(row["flux"], want)),
                        f"flux on {row['cycle']} disagrees with the oracle")

        code, rep = _report(outputs["symmetry"])
        dev = rep["results"]["max_deviation"]
        fail.expect(code == 0 and dev < rep["settings"]["tol"],
                    f"symmetry deviation {dev:.3g} is not below its tol")

        code, rep = _report(outputs["involution"])
        r = rep["results"]
        fail.expect(code == 0 and r["dh_odd"] and r["dgg_odd"],
                    "dh or dg/g is not odd under the involution")
        fail.expect(_close(complex(*r["C"]), cand.g(0) ** 2, 1e-9),
                    "g(p0)^2 disagrees with the oracle")

        code, rep = _report(outputs["audit"])
        entries = [(complex(*e["point"]), e["order"])
                   for e in rep["results"]["entries"]]
        poles = [(p, n) for p, n in entries if n < 0]
        zeros = [(p, n) for p, n in entries if n > 0]
        fail.expect(code == 0 and sorted(n for _, n in poles) == [-1, -1]
                    and any(abs(_reduce(p - E1, tau)) < 1e-6 for p, _ in poles)
                    and any(abs(_reduce(p + E1, tau)) < 1e-6 for p, _ in poles),
                    "dh poles are not simple poles at +-E1")
        fail.expect(sum(n for _, n in zeros) == 2, "dh does not have two zeros")
        for z, _ in zeros:
            fail.expect(abs(cand.dh(z)) < 1e-6, f"dh zero {z:.6g} is not a zero")
        fail.expect(abs(_reduce(sum(p * n for p, n in entries), tau)) < 1e-6,
                    "dh divisor violates Abel's condition")

        code, rep = _report(outputs["classify-fixed"])
        cases = [row["case"] for row in rep["results"]]
        fail.expect(cases == [divisor.IDENTICALLY_ZERO] * 4,
                    f"odd dh must vanish symmetrized at every fixed point: {cases}")

        code, rep = _report(outputs["residues"])
        want = {E1: -1j, -E1: 1j}
        for row in rep["results"]:
            p = complex(*row["point"])
            fail.expect(_close(complex(*row["residue"]), want[p], 1e-10),
                        f"residue at {p} is not {want[p]}")

        for u in _cell_points(rng, tau, 4, cand.singularities()):
            data = self.scene.only_data()
            fail.expect(_close(expr.eval_expr(data.g, u), cand.g(u), 1e-9)
                        and _close(expr.eval_expr(data.dh, u), cand.dh(u), 1e-9),
                        f"candidate data disagrees with the oracle at {u:.6g}")

        for (tau, text), form in self.forms.items():
            dv, ok = outputs[f"audit {text} tau={tau}"]
            lat = oracles.MpLattice(tau, dps=20)
            self._check_audit(fail, text, tau, lat, dv, ok)
            for u in _cell_points(rng, tau, 2, [0]):
                want = lat.wp(u) if text.startswith("wp(") else lat.wp_prime(u)
                fail.expect(_close(expr.eval_expr(form, u), want, 1e-9),
                            f"{text} disagrees with the oracle at {u:.6g}")
        return fail

    @staticmethod
    def _check_audit(fail, text, tau, lat, dv, ok):
        where = f"{text} at tau = {tau}"
        fail.expect(ok, f"{where}: audit verdict is False")
        poles, zeros = dv.poles(), dv.zeros()
        degree = 2 if text.startswith("wp(") else 3
        fail.expect(len(poles) == 1 and poles[0][1] == degree
                    and abs(_reduce(poles[0][0], tau)) < 1e-6,
                    f"{where}: expected a pole of order {degree} at 0")
        fail.expect(sum(n for _, n in zeros) == degree,
                    f"{where}: zero count is not {degree}")
        if degree == 2:
            for z, _ in zeros:
                fail.expect(abs(lat.wp(z)) < 1e-6,
                            f"{where}: {z:.6g} is not a zero of wp")
            # Abel: the zeros sum to the double pole at 0 mod the lattice
            total = sum(z * n for z, n in zeros)
            fail.expect(abs(_reduce(total, tau)) < 1e-6,
                        f"{where}: zeros violate Abel's condition")
        else:
            halves = [0.5, tau / 2, (1 + tau) / 2]
            for z, n in zeros:
                hit = [w for w in halves if abs(_reduce(z - w, tau)) < 1e-6]
                fail.expect(n == 1 and len(hit) == 1,
                            f"{where}: {z:.6g} is not a simple zero at a half-period")
                if hit:
                    halves.remove(hit[0])
                fail.expect(abs(lat.wp_prime(z)) < 1e-6,
                            f"{where}: wp' does not vanish at {z:.6g}")


def _mesh_error(m, closed_form):
    return max(float(np.linalg.norm(pos - closed_form(u)))
               for u, pos, _ in m.vertices)


def _mesh_digest(m):
    return _digest(m.positions().tobytes(), m.faces, m.edges)


class PlaneEmbed:
    """Plane data only: meshes, probes and lambda sweeps, no elliptic kernel."""

    ENNEPER_N = 56
    SWEEP_N = 48

    def __init__(self, root):
        scenes = os.path.join(root, "scenes")
        self.helicoid = scene.load_scene(os.path.join(scenes, "helicoid.scene"))
        self.catenoid = scene.load_scene(os.path.join(scenes, "catenoid.scene"))
        self.heli_spec = cli._sampling_spec(self.helicoid.settings["mesh"], {})
        self.cat_spec = cli._sampling_spec(self.catenoid.settings["mesh"], {})
        plane = Plane()
        self.enneper = surface.WeierstrassData(
            g=parse_expr("u", plane), dh=parse_expr("u du", plane),
            basepoint=0.0, label="enneper")
        n = self.ENNEPER_N
        self.enn_spec = mesh.SamplingSpec(-2, 2, -2, 2, nx=n, ny=n)
        n = self.SWEEP_N
        self.sweep_spec = mesh.SamplingSpec(-2, 2, -2, 2, nx=n, ny=n)

    def ops(self):
        return [
            ("helicoid mesh", lambda: mesh.build_mesh(
                self.helicoid.only_data(), self.heli_spec)),
            ("helicoid probe", _cli(self.helicoid, "probe")),
            ("catenoid mesh", lambda: mesh.build_mesh(
                self.catenoid.only_data(), self.cat_spec)),
            ("catenoid sweep", _cli(self.catenoid, "sweep")),
            ("enneper probe", self._enneper_probe),
            ("enneper sweep", lambda: mesh.lambda_sweep(
                self.enneper, [0.5, 1.0], self.sweep_spec,
                basis=surface.CycleBasis([], []), delta_ext=0.05,
                delta_int=2.0, tol=1e-8)),
        ]

    def _enneper_probe(self):
        m = mesh.build_mesh(self.enneper, self.enn_spec)
        return m, mesh.probe_self_intersection(m, delta_ext=0.05, delta_int=2.0)

    def fingerprint(self, name, out):
        if name.endswith("mesh"):
            return _mesh_digest(out)
        if name == "enneper probe":
            return _digest(_mesh_digest(out[0]), out[1].pairs)
        if name == "enneper sweep":
            return _digest(out.table, out.bracket)
        return out[2]

    def check(self, outputs, rng):
        import oracles

        fail = Failures()
        for name, form in (("helicoid mesh", oracles.helicoid),
                           ("catenoid mesh", oracles.catenoid)):
            err = _mesh_error(outputs[name], form)
            fail.expect(err < 1e-8, f"{name} is {err:.3g} off the closed form")

        code, rep = _report(outputs["helicoid probe"])
        fail.expect(code == 0 and rep["results"]["embedded"]
                    and not rep["results"]["pairs"], "the helicoid is not embedded")

        code, rep = _report(outputs["catenoid sweep"])
        tol = rep["settings"]["tol"]
        table = rep["results"]["table"]
        fail.expect(code == 0 and len(table) == 3
                    and all(r["embedded"] for r in table)
                    and all(r["max_period_residual"] < tol for r in table)
                    and rep["results"]["bracket"] is None,
                    "the catenoid is not embedded at every lambda with closed periods")

        m, probe = outputs["enneper probe"]
        err = _mesh_error(m, oracles.enneper)
        fail.expect(err < 1e-8, f"enneper mesh is {err:.3g} off the closed form")
        fail.expect(not probe.embedded and probe.pairs,
                    "the Enneper probe found no self-intersection")
        if probe.pairs:
            # the first pair, as acceptance criterion 8, and a seeded other
            picks = {0, int(rng.integers(len(probe.pairs)))}
            for k in sorted(picks):
                a, b, _, _ = probe.pairs[k]
                ua, ub = m.vertices[a][0], m.vertices[b][0]
                resid, u1, u2 = oracles.confirm_enneper_pair(ua, ub)
                fail.expect(resid < 1e-6 and abs(u1 - u2) > 0.5
                            and abs(u1 - ua) < 0.1 and abs(u2 - ub) < 0.1,
                            f"probe pair {k} is not a two-point coincidence")

        sweep = outputs["enneper sweep"]
        fail.expect([emb for _, emb, _ in sweep.table] == [True, False],
                    "the Enneper sweep does not flip from embedded to not")
        fail.expect(all(resid < 1e-8 for _, _, resid in sweep.table),
                    "Enneper period residuals are not below tol")
        lo, hi = sweep.bracket or (0.0, math.inf)
        fail.expect(hi - lo < 0.01 * lo, "the Enneper bracket is not below 1%")
        return fail


WORKLOADS = {
    "torus-solve": TorusSolve,
    "torus-scan": TorusScan,
    "plane-embed": PlaneEmbed,
}
