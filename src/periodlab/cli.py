"""Command-line entry point.

Subcommands: check-volume, check-stokes, cone, subdivide, homology, periods,
glue.  Reports are canonical JSON on stdout (CSV for matrices on request);
exit code 0 on pass/success, 1 on a failing verdict, 2 on input errors.
Under --deterministic the report omits wall time and repeated runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from . import chains as ch
from . import homology as hm
from .expr import ExprDomainError, domain_site
from .glue import GlueInput, InputCompatibilityError, Triangulation, glue as glue_op
from .manifest import (
    ManifestError,
    canonical_json,
    evaluator_to_dict,
    load_manifest,
    triangulation_to_manifest,
)
from .periods import GeometricCycle, NotClosedError, period_matrix
from .quad import QuadConfig, finite_volume_check
from .stokes import NonManifoldError, check_chain, stokes_residual

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="periodlab",
        description="Period pairings, Stokes checks, and homology for singular simplices.",
    )
    parser.add_argument("--version", action="version", version=f"periodlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--tol", type=float, default=1e-6,
            help="verdict tolerance; check-volume integrates at it, check-stokes and periods "
            "at tol/100",
        )
        p.add_argument("--max-depth", type=int, default=None, help="maximum refinement depth")
        p.add_argument("--jobs", type=int, default=1, help="no effect: integration is serial")
        p.add_argument("--deterministic", action="store_true", help="byte-stable reports")
        p.add_argument("--output", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int, default=20260808, help="seed for sampled diagnostics")
        p.add_argument("--out", default=None, help="write the report/manifest to this file")

    p = sub.add_parser("check-volume", help="finite-volume verdict for a simplex")
    p.add_argument("manifest")
    p.add_argument("--simplex", required=True)
    p.add_argument("--faces", action="store_true", help="also check every face")
    common(p)

    p = sub.add_parser("check-stokes", help="Stokes residual for a chain or simplex")
    p.add_argument("manifest")
    p.add_argument("--chain")
    p.add_argument("--simplex")
    p.add_argument("--form", required=True)
    common(p)

    p = sub.add_parser("cone", help="emit the cone over a named simplex")
    p.add_argument("manifest")
    p.add_argument("--simplex", required=True)
    common(p)

    p = sub.add_parser("subdivide", help="barycentric subdivision of a chain or complex")
    p.add_argument("manifest")
    p.add_argument("--chain")
    p.add_argument("--complex", dest="complex_")
    common(p)

    p = sub.add_parser("homology", help="integer homology of a named complex")
    p.add_argument("manifest")
    p.add_argument("--complex", dest="complex_", required=True)
    common(p)

    p = sub.add_parser("periods", help="period matrix of named cycles against named forms")
    p.add_argument("manifest")
    p.add_argument("--cycles", required=True, help="comma-separated chain names")
    p.add_argument("--forms", required=True, help="comma-separated form names")
    common(p)

    p = sub.add_parser("glue", help="glue two triangulation manifests along a marked overlap")
    p.add_argument("manifest1")
    p.add_argument("manifest2")
    p.add_argument("--table", required=True, help="containment table JSON")
    p.add_argument("--t1", default=None, help="triangulation name in the first manifest")
    p.add_argument("--t2", default=None, help="triangulation name in the second manifest")
    p.add_argument("--name", default="glued")
    common(p)
    return parser


def _config(args) -> QuadConfig:
    return QuadConfig() if args.max_depth is None else QuadConfig(max_depth=args.max_depth)


def _emit(args, report: dict, body_csv: str | None = None) -> None:
    if args.output == "csv" and body_csv is not None:
        text = body_csv
    else:
        text = canonical_json(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(args, results: dict, started: float) -> dict:
    rep = {
        "schema": "periodlab/1",
        "command": args.command,
        "config": {
            "tol": args.tol,
            "max_depth": args.max_depth,
            "jobs": args.jobs,
            "deterministic": args.deterministic,
            "seed": args.seed,
        },
        "results": results,
    }
    if not args.deterministic:
        rep["wall_time_s"] = time.monotonic() - started
    return rep


def _single_triangulation(man, requested: str | None, path: str) -> Triangulation:
    if requested is not None:
        return man.resolve("triangulations", requested)
    if len(man.triangulations) != 1:
        raise ManifestError("manifest must contain exactly one triangulation", path)
    return next(iter(man.triangulations.values()))


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        with np.errstate(all="ignore"):  # an overflow shows in the report itself
            return _dispatch(args, started)
    except (ManifestError, NotClosedError, InputCompatibilityError, NonManifoldError,
            ExprDomainError, FileNotFoundError, ValueError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_INPUT


def _dispatch(args, started: float) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    cfg = _config(args)
    cmd = args.command

    if cmd == "check-volume":
        man = load_manifest(args.manifest)
        sigma = man.resolve("simplices", args.simplex)
        with domain_site(f"simplex {args.simplex!r}"):
            rep = finite_volume_check(sigma, args.tol, cfg)
            results = {"simplex": args.simplex, "volume": rep.to_dict()}
            ok = rep.verdict == "yes"
            if args.faces and sigma.dim >= 1:
                face_reports = {}
                for i in range(sigma.dim + 1):
                    with domain_site(f"face {i}"):
                        frep = finite_volume_check(sigma.face(i), args.tol, cfg)
                    face_reports[f"face_{i}"] = frep.to_dict()
                    ok = ok and frep.verdict == "yes"
                results["faces"] = face_reports
        _emit(args, _report(args, results, started))
        return EXIT_PASS if ok else EXIT_FAIL

    if cmd == "check-stokes":
        man = load_manifest(args.manifest)
        omega = man.resolve("forms", args.form)
        if (args.chain is None) == (args.simplex is None):
            raise ManifestError("check-stokes needs exactly one of --chain/--simplex")
        if args.chain is not None:
            chain = man.resolve("chains", args.chain)
            with domain_site(f"chain {args.chain!r}"):
                rep = check_chain(chain, omega, args.tol, cfg)
            results = {"chain": args.chain, "form": args.form, "stokes": rep.to_dict()}
            verdict = rep.verdict
        else:
            sigma = man.resolve("simplices", args.simplex)
            with domain_site(f"simplex {args.simplex!r}"):
                rep = stokes_residual(sigma, omega, args.tol, cfg)
            results = {"simplex": args.simplex, "form": args.form, "stokes": rep.to_dict()}
            verdict = rep.verdict
        _emit(args, _report(args, results, started))
        return EXIT_PASS if verdict == "pass" else EXIT_FAIL

    if cmd == "cone":
        man = load_manifest(args.manifest)
        sigma = man.resolve("simplices", args.simplex)
        cone = ch.Cone(sigma)
        results = {
            "schema": "periodlab/1",
            "ambient_dim": cone.ambient,
            "derived_simplices": [
                {"name": f"{args.simplex}_cone", "map": evaluator_to_dict(cone)}
            ],
        }
        _emit(args, results)
        return EXIT_PASS

    if cmd == "subdivide":
        man = load_manifest(args.manifest)
        if (args.chain is None) == (args.complex_ is None):
            raise ManifestError("subdivide needs exactly one of --chain/--complex")
        if args.chain is not None:
            chain = man.resolve("chains", args.chain)
            sd = ch.barycentric_subdivide(chain)
            derived = []
            terms = []
            for k, (sigma, n) in enumerate(sorted(sd.items(), key=lambda kv: repr(kv[0].key()))):
                name = f"{args.chain}_sd_{k}"
                derived.append({"name": name, "map": evaluator_to_dict(sigma)})
                terms.append({"simplex": name, "coeff": n})
            results = {
                "schema": "periodlab/1",
                "ambient_dim": next(iter(sd.terms)).ambient if sd.terms else 0,
                "derived_simplices": derived,
                "chains": [{"name": f"{args.chain}_sd", "degree": sd.degree, "terms": terms}],
            }
        else:
            K = man.resolve("complexes", args.complex_)
            Ksd = hm.barycentric_subdivide_complex(K)
            results = {
                "schema": "periodlab/1",
                "complexes": [
                    {
                        "name": f"{args.complex_}_sd",
                        "simplices": [list(s) for s in hm.maximal_simplices(Ksd)],
                    }
                ],
            }
        _emit(args, results)
        return EXIT_PASS

    if cmd == "homology":
        man = load_manifest(args.manifest)
        K = man.resolve("complexes", args.complex_)
        res = hm.homology(K)
        _emit(args, _report(args, {"complex": args.complex_, "homology": res.to_dict()}, started))
        return EXIT_PASS

    if cmd == "periods":
        man = load_manifest(args.manifest)
        cycles = []
        for name in args.cycles.split(","):
            cycles.append(GeometricCycle(name, man.resolve("chains", name)))
        forms = [(name, man.resolve("forms", name)) for name in args.forms.split(",")]
        pm = period_matrix(cycles, forms, args.tol / 100, cfg, jobs=args.jobs, check_seed=args.seed)
        results = {"periods": pm.to_dict()}
        csv_lines = ["cycle," + ",".join(pm.form_names)]
        for cname, row in zip(pm.cycle_names, pm.entries):
            csv_lines.append(cname + "," + ",".join(f"{e.value:.17g}" for e in row))
        _emit(args, _report(args, results, started), "\n".join(csv_lines) + "\n")
        return EXIT_PASS if pm.all_converged() else EXIT_FAIL

    if cmd == "glue":
        man1 = load_manifest(args.manifest1)
        man2 = load_manifest(args.manifest2)
        t1 = _single_triangulation(man1, args.t1, "/triangulations")
        t2 = _single_triangulation(man2, args.t2, "/triangulations")
        with open(args.table) as fh:
            table = json.load(fh)
        containment = {
            tuple(row["tau"]): tuple(row["sigma"]) for row in table.get("containment", [])
        }
        glued = glue_op(GlueInput(t1, t2, containment, mark=table.get("mark", "B")))
        glued.validate()
        _emit(args, triangulation_to_manifest(args.name, glued))
        return EXIT_PASS

    raise ManifestError(f"unknown command {cmd!r}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
