"""Command-line entry point.

Subcommands: check-volume, check-stokes, cone, subdivide, homology, periods,
glue.  Each takes only the flags it reads: ``--deterministic`` and ``--out``
everywhere; ``--tol``, ``--max-depth`` and ``--jobs`` on the quadrature
commands (check-volume, check-stokes, periods); ``--seed`` and
``--output json|csv`` on periods.  A report's ``config`` lists the
command's own flags.  Reports are canonical JSON on stdout; exit code 0 on
pass/success, 1 on a failing verdict, 2 on input errors.  Under
--deterministic the report omits wall time and repeated runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

import numpy as np

from . import __version__
from . import chains as ch
from . import homology as hm
from .expr import ExprDomainError, domain_site
from .glue import InputCompatibilityError, Triangulation, glue as glue_op
from .manifest import (
    ManifestError,
    canonical_json,
    evaluator_to_dict,
    load_glue_table,
    load_manifest,
    triangulation_to_manifest,
)
from .periods import GeometricCycle, NotClosedError, period_matrix
from .quad import QuadConfig, finite_volume_check
from .stokes import NonManifoldError, check_chain, stokes_residual

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _emit(args, out) -> None:
    """Write a report or manifest (as canonical JSON) or a text body."""
    text = out if isinstance(out, str) else canonical_json(out)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(args, results: dict, **config) -> dict:
    rep = {
        "schema": "periodlab/1",
        "command": args.command,
        "config": {**config, "deterministic": args.deterministic},
        "results": results,
    }
    if not args.deterministic:
        rep["wall_time_s"] = time.monotonic() - args.started
    return rep


def _quadrature(args) -> tuple[QuadConfig, dict]:
    """The refinement budget of a quadrature command, and its flags for the report."""
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    cfg = QuadConfig() if args.max_depth is None else QuadConfig(max_depth=args.max_depth)
    return cfg, {"tol": args.tol, "max_depth": args.max_depth, "jobs": args.jobs}


def _check_volume(args) -> int:
    cfg, config = _quadrature(args)
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
    _emit(args, _report(args, results, **config))
    return EXIT_PASS if ok else EXIT_FAIL


def _check_stokes(args) -> int:
    cfg, config = _quadrature(args)
    man = load_manifest(args.manifest)
    omega = man.resolve("forms", args.form)
    if (args.chain is None) == (args.simplex is None):
        raise ManifestError("check-stokes needs exactly one of --chain/--simplex")
    if args.chain is not None:
        chain = man.resolve("chains", args.chain)
        with domain_site(f"chain {args.chain!r}"):
            rep = check_chain(chain, omega, args.tol, cfg)
        results = {"chain": args.chain, "form": args.form, "stokes": rep.to_dict()}
    else:
        sigma = man.resolve("simplices", args.simplex)
        with domain_site(f"simplex {args.simplex!r}"):
            rep = stokes_residual(sigma, omega, args.tol, cfg)
        results = {"simplex": args.simplex, "form": args.form, "stokes": rep.to_dict()}
    _emit(args, _report(args, results, **config))
    return EXIT_PASS if rep.verdict == "pass" else EXIT_FAIL


def _periods(args) -> int:
    cfg, config = _quadrature(args)
    man = load_manifest(args.manifest)
    cycles = [GeometricCycle(name, man.resolve("chains", name)) for name in args.cycles.split(",")]
    forms = [(name, man.resolve("forms", name)) for name in args.forms.split(",")]
    pm = period_matrix(cycles, forms, args.tol / 100, cfg, jobs=args.jobs, check_seed=args.seed)
    if args.output == "csv":
        lines = ["cycle," + ",".join(pm.form_names)]
        for cname, row in zip(pm.cycle_names, pm.entries):
            lines.append(cname + "," + ",".join(f"{e.value:.17g}" for e in row))
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, _report(args, {"periods": pm.to_dict()}, **config, seed=args.seed))
    return EXIT_PASS if pm.all_converged() else EXIT_FAIL


def _homology(args) -> int:
    K = load_manifest(args.manifest).resolve("complexes", args.complex_)
    results = {"complex": args.complex_, "homology": hm.homology(K).to_dict()}
    _emit(args, _report(args, results))
    return EXIT_PASS


def _cone(args) -> int:
    sigma = load_manifest(args.manifest).resolve("simplices", args.simplex)
    cone = ch.Cone(sigma)
    _emit(args, {
        "schema": "periodlab/1",
        "ambient_dim": cone.ambient,
        "derived_simplices": [{"name": f"{args.simplex}_cone", "map": evaluator_to_dict(cone)}],
    })
    return EXIT_PASS


def _subdivide(args) -> int:
    man = load_manifest(args.manifest)
    if (args.chain is None) == (args.complex_ is None):
        raise ManifestError("subdivide needs exactly one of --chain/--complex")
    if args.chain is not None:
        sd = ch.barycentric_subdivide(man.resolve("chains", args.chain))
        derived = []
        terms = []
        for k, (sigma, n) in enumerate(sd.items()):
            name = f"{args.chain}_sd_{k}"
            derived.append({"name": name, "map": evaluator_to_dict(sigma)})
            terms.append({"simplex": name, "coeff": n})
        _emit(args, {
            "schema": "periodlab/1",
            "ambient_dim": next(iter(sd.terms)).ambient if sd.terms else man.ambient,
            "derived_simplices": derived,
            "chains": [{"name": f"{args.chain}_sd", "degree": sd.degree, "terms": terms}],
        })
    else:
        Ksd = hm.barycentric_subdivide_complex(man.resolve("complexes", args.complex_))
        _emit(args, {
            "schema": "periodlab/1",
            "complexes": [{
                "name": f"{args.complex_}_sd",
                "simplices": [list(s) for s in hm.maximal_simplices(Ksd)],
            }],
        })
    return EXIT_PASS


def _single_triangulation(man, requested: str | None) -> Triangulation:
    if requested is not None:
        return man.resolve("triangulations", requested)
    if len(man.triangulations) != 1:
        raise ManifestError("manifest must contain exactly one triangulation", "/triangulations")
    return next(iter(man.triangulations.values()))


def _glue(args) -> int:
    t1 = _single_triangulation(load_manifest(args.manifest1), args.t1)
    t2 = _single_triangulation(load_manifest(args.manifest2), args.t2)
    containment, mark = load_glue_table(args.table)
    glued = glue_op(t1, t2, containment, mark=mark)
    glued.validate()
    _emit(args, triangulation_to_manifest(args.name, glued))
    return EXIT_PASS


@functools.cache  # built on first use, once per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="periodlab",
        description="Period pairings, Stokes checks, and homology for singular simplices.",
    )
    parser.add_argument("--version", action="version", version=f"periodlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_, quadrature=False):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        if quadrature:
            p.add_argument(
                "--tol", type=float, default=1e-6,
                help="verdict tolerance; check-volume integrates at it, check-stokes and "
                "periods at tol/100",
            )
            p.add_argument("--max-depth", type=int, default=None, help="maximum refinement depth")
            p.add_argument("--jobs", type=int, default=1, help="no effect: integration is serial")
        p.add_argument("--deterministic", action="store_true", help="byte-stable reports")
        p.add_argument("--out", default=None, help="write the report/manifest to this file")
        return p

    p = command("check-volume", _check_volume, "finite-volume verdict for a simplex", True)
    p.add_argument("manifest")
    p.add_argument("--simplex", required=True)
    p.add_argument("--faces", action="store_true", help="also check every face")

    p = command("check-stokes", _check_stokes, "Stokes residual for a chain or simplex", True)
    p.add_argument("manifest")
    p.add_argument("--chain")
    p.add_argument("--simplex")
    p.add_argument("--form", required=True)

    p = command("cone", _cone, "emit the cone over a named simplex")
    p.add_argument("manifest")
    p.add_argument("--simplex", required=True)

    p = command("subdivide", _subdivide, "barycentric subdivision of a chain or complex")
    p.add_argument("manifest")
    p.add_argument("--chain")
    p.add_argument("--complex", dest="complex_")

    p = command("homology", _homology, "integer homology of a named complex")
    p.add_argument("manifest")
    p.add_argument("--complex", dest="complex_", required=True)

    p = command("periods", _periods, "period matrix of named cycles against named forms", True)
    p.add_argument("manifest")
    p.add_argument("--cycles", required=True, help="comma-separated chain names")
    p.add_argument("--forms", required=True, help="comma-separated form names")
    p.add_argument("--seed", type=int, default=20260808, help="seed for sampled diagnostics")
    p.add_argument("--output", choices=("json", "csv"), default="json")

    p = command("glue", _glue, "glue two triangulation manifests along a marked overlap")
    p.add_argument("manifest1")
    p.add_argument("manifest2")
    p.add_argument("--table", required=True, help="containment table JSON")
    p.add_argument("--t1", default=None, help="triangulation name in the first manifest")
    p.add_argument("--t2", default=None, help="triangulation name in the second manifest")
    p.add_argument("--name", default="glued")
    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    args.started = time.monotonic()
    try:
        with np.errstate(all="ignore"):  # an overflow shows in the report itself
            return args.handler(args)
    except (ManifestError, NotClosedError, InputCompatibilityError, NonManifoldError,
            ExprDomainError, OSError, ValueError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_INPUT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
