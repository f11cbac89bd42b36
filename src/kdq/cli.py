"""Command-line front end.

Subcommands::

    kdq kd          joint quasi-probability table of a state over two bases
    kdq reconstruct density operator back from a serialized joint table
    kdq audit       condition checks for a candidate representation
    kdq weak        pointer-simulation coupling sweep (CSV)
    kdq wigner      discrete phase-space table, optionally with the
                    zero-marginal violation report

Exit codes: 0 success / all checks passed, 1 some audit check failed,
2 input validation, 3 singular overlap, 4 degenerate post-selection.
Failures emit a JSON error object {code, message, context} on stderr.
The KDQ_TOL environment variable supplies a default for --tol; either must
be a finite positive number.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import io as kdq_io
from .audit import (
    check_condition1,
    check_condition2,
    check_condition3,
    check_span,
    kd_rep,
    make_condition2_violator,
    mixed_rep,
)
from .errors import (
    DegeneratePostselectionError,
    KdqError,
    SingularOverlapError,
    ValidationError,
)
from .hilbert import DensityOperator, LinearOperator, StateVector, _tol as lib_tol, make_pure_density
from .kd import Ordering, kd_inverse, kd_transform
from .pointer import PointerConfig, coupling_sweep
from .wigner import condition3_violation_report, discrete_wigner, wigner_as_rep

EXIT_OK = 0
EXIT_AUDIT_FAILED = 1
EXIT_VALIDATION = 2
EXIT_SINGULAR_OVERLAP = 3
EXIT_DEGENERATE_POSTSELECTION = 4


def _env_tol() -> float | None:
    raw = os.environ.get("KDQ_TOL")
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError as exc:
        raise ValidationError(f"KDQ_TOL is not a number: {raw!r}") from exc


def _tol(args) -> float | None:
    tol, source = (args.tol, "--tol") if args.tol is not None else (_env_tol(), "KDQ_TOL")
    return lib_tol(tol, None, source)


def _as_density(state: StateVector | DensityOperator, tol: float | None) -> DensityOperator:
    return make_pure_density(state, tol=tol) if isinstance(state, StateVector) else state


def _parse_couplings(raw: str) -> list[float]:
    raw = raw.strip()
    if not raw:
        return []
    try:
        return [float(x) for x in raw.split(",")]
    except ValueError as exc:
        raise ValidationError(f"bad couplings list {raw!r}") from exc


def _cmd_kd(args) -> int:
    tol = _tol(args)
    rho = _as_density(kdq_io.load_state(args.state, tol=tol), tol)
    basis_a = kdq_io.resolve_basis(args.basis_a, rho.dim, tol=tol)
    basis_b = kdq_io.resolve_basis(args.basis_b, rho.dim, tol=tol)
    dist = kd_transform(rho, basis_a, basis_b, Ordering(args.ordering), tol=tol, tol_imag=tol)
    if args.format == "json":
        print(json.dumps(kdq_io.kd_to_dict(dist, tol=tol)))
    else:
        sys.stdout.write(kdq_io.kd_to_csv(dist, tol=tol))
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    tol = _tol(args)
    rho = kd_inverse(kdq_io.load_kd(args.kd, tol=tol), tol=tol)
    print(json.dumps(kdq_io.state_to_dict(rho)))
    return EXIT_OK


def _build_rep(args, tol):
    spec = args.rep
    if spec == "wigner":
        if args.dim is None:
            raise ValidationError("--dim is required for the wigner representation")
        return wigner_as_rep(args.dim)
    if args.dim is None:
        raise ValidationError("--dim is required")
    basis_a = kdq_io.resolve_basis(args.basis_a, args.dim, tol=tol)
    basis_b = kdq_io.resolve_basis(args.basis_b, args.dim, tol=tol)
    if spec == "kd":
        return kd_rep(basis_a, basis_b, Ordering.AB)
    if spec == "kd-ba":
        return kd_rep(basis_a, basis_b, Ordering.BA)
    if spec.startswith("mixed:"):
        try:
            lam = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ValidationError(f"bad mixture weight in {spec!r}") from exc
        return mixed_rep(basis_a, basis_b, lam)
    if spec.startswith("violator:"):
        try:
            eps = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ValidationError(f"bad epsilon in {spec!r}") from exc
        return make_condition2_violator(basis_a, basis_b, eps)
    raise ValidationError(
        f"unknown representation spec {spec!r}: "
        "use kd, kd-ba, mixed:LAMBDA, violator:EPSILON, or wigner"
    )


def _cmd_audit(args) -> int:
    tol = _tol(args)
    check_tol = tol if tol is not None else 1e-10
    rep = _build_rep(args, tol)
    wanted = []
    if args.all or args.c1:
        wanted.append("C1")
    if args.all or args.c2:
        wanted.append("C2")
    if args.all or args.c3:
        wanted.append("C3")
    if args.all or args.span:
        wanted.append("Span")
    if not wanted:
        raise ValidationError("select at least one check: --c1 --c2 --c3 --span or --all")
    all_passed = True
    for name in wanted:
        if name == "C1":
            report = check_condition1(rep, tol=check_tol)
        elif name == "C2":
            report = check_condition2(rep, tol=check_tol)
        elif name == "C3":
            report = check_condition3(rep, samples=args.samples, seed=args.seed, tol=check_tol)
        else:
            report = check_span(rep, tol=check_tol)
        print(kdq_io.report_to_json(report))
        all_passed = all_passed and report.passed
    return EXIT_OK if all_passed else EXIT_AUDIT_FAILED


def _cmd_weak(args) -> int:
    tol = _tol(args)
    state = kdq_io.load_state(args.state, tol=tol)
    if not isinstance(state, StateVector):
        raise ValidationError("weak-measurement simulation takes a pure state file")
    basis_a = kdq_io.resolve_basis(args.basis_a, state.dim, tol=tol)
    basis_b = kdq_io.resolve_basis(args.basis_b, state.dim, tol=tol)
    if not 0 <= args.a_index < state.dim:
        raise ValidationError(f"a-index {args.a_index} out of range for dim {state.dim}")
    if not 0 <= args.b_index < state.dim:
        raise ValidationError(f"b-index {args.b_index} out of range for dim {state.dim}")
    a_proj = LinearOperator(basis_a.projector(args.a_index))
    b = basis_b.vector(args.b_index)
    cfg = PointerConfig(
        grid_points=args.grid_points,
        grid_extent=args.grid_extent * args.sigma,
        sigma=args.sigma,
    )
    couplings = [g * args.sigma for g in _parse_couplings(args.couplings)]
    points = coupling_sweep(state, a_proj, b, cfg, couplings)
    sys.stdout.write(kdq_io.sweep_to_csv(points))
    return EXIT_OK


def _cmd_wigner(args) -> int:
    tol = _tol(args)
    rho = _as_density(kdq_io.load_state(args.state, tol=tol), tol)
    table = discrete_wigner(rho, tol=tol)
    violations = condition3_violation_report(rho, tol=tol) if args.report else None
    if args.format == "json":
        print(json.dumps(kdq_io.wigner_to_dict(table, violations)))
    else:
        sys.stdout.write(kdq_io.wigner_to_csv(table))
        if violations is not None:
            sys.stdout.write("q,p,value\n")
            for q, p, w in violations:
                sys.stdout.write(f"{q},{p},{w!r}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None, help="override default tolerances")
    common.add_argument("--seed", type=int, default=0, help="seed for sampled checks")

    parser = argparse.ArgumentParser(prog="kdq", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kd", parents=[common], help="joint quasi-probability table")
    p.add_argument("--state", required=True, help="state JSON file (pure or mixed)")
    p.add_argument("--basis-a", required=True, help="named basis or @file.json")
    p.add_argument("--basis-b", required=True, help="named basis or @file.json")
    p.add_argument("--ordering", choices=["AB", "BA"], default="AB")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_kd)

    p = sub.add_parser("reconstruct", parents=[common], help="invert a joint table file")
    p.add_argument("--kd", required=True, help="joint table JSON file")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("audit", parents=[common], help="condition checks for a representation")
    p.add_argument(
        "--rep",
        required=True,
        help="kd | kd-ba | mixed:LAMBDA | violator:EPSILON | wigner",
    )
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--basis-a", default="computational")
    p.add_argument("--basis-b", default="fourier")
    p.add_argument("--c1", action="store_true")
    p.add_argument("--c2", action="store_true")
    p.add_argument("--c3", action="store_true")
    p.add_argument("--span", action="store_true")
    p.add_argument("--all", action="store_true")
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("weak", parents=[common], help="pointer coupling sweep (CSV)")
    p.add_argument("--state", required=True, help="pure state JSON file")
    p.add_argument("--a-index", type=int, required=True, help="projector index in basis A")
    p.add_argument("--basis-a", required=True)
    p.add_argument("--b-index", type=int, required=True, help="post-selection index in basis B")
    p.add_argument("--basis-b", required=True)
    p.add_argument("--couplings", required=True, help="comma list of couplings in units of sigma")
    p.add_argument("--grid-points", type=int, default=512)
    p.add_argument("--grid-extent", type=float, default=20.0, help="extent in units of sigma")
    p.add_argument("--sigma", type=float, default=1.0)
    p.set_defaults(func=_cmd_weak)

    p = sub.add_parser("wigner", parents=[common], help="discrete phase-space table")
    p.add_argument("--state", required=True, help="state JSON file (odd dimension)")
    p.add_argument("--report", action="store_true", help="append zero-marginal violations")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_wigner)

    return parser


def _emit_error(err: KdqError) -> None:
    obj = {"code": err.code, "message": str(err), "context": err.context}
    print(json.dumps(obj, default=repr), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SingularOverlapError as err:
        _emit_error(err)
        return EXIT_SINGULAR_OVERLAP
    except DegeneratePostselectionError as err:
        _emit_error(err)
        return EXIT_DEGENERATE_POSTSELECTION
    except KdqError as err:
        _emit_error(err)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
