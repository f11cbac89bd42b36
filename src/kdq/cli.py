"""Command-line front end.

Subcommands::

    kdq kd          joint quasi-probability table of a state over two bases
    kdq reconstruct density operator back from a serialized joint table
    kdq audit       condition checks for a candidate representation
    kdq weak        pointer-simulation coupling sweep (CSV)
    kdq wigner      discrete phase-space table, optionally with the
                    zero-marginal violation report

Exit codes: 0 success / all checks passed, 1 some audit check failed,
2 input validation, an allocation failure or a closed stdout, 3 singular
overlap, 4 degenerate post-selection.
Failures emit a JSON error object {code, message, context} on stderr.
All JSON is strict: a non-finite float is written as the string "NaN",
"Infinity" or "-Infinity", and numpy floating-point warnings are silenced,
a non-finite result failing its check instead.
The KDQ_TOL environment variable supplies a default for --tol; either must
be a finite positive number.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import sys
from typing import NoReturn

import numpy as np

from . import io as kdq_io
from .errors import BadSampleCountError, DegeneratePostselectionError, KdqError, SingularOverlapError, ValidationError
from .hilbert import DensityOperator, LinearOperator, StateVector, _integer, _real, _tol as lib_tol, make_pure_density
from .kd import Ordering, kd_inverse, kd_transform


def _stand_in(module: str, name: str):
    """Stands in for ``kdq.<module>.<name>``: each call imports the module and calls its current attribute.

    A command loads the audit, pointer and wigner modules only when it calls into them, after its input
    is validated, since an import up here is paid by every run of kdq. A wrapper installed at
    ``kdq.cli.<name>`` sees every call.
    """
    return lambda *args, **kwargs: getattr(importlib.import_module(f"{__package__}.{module}"), name)(*args, **kwargs)


check_condition1 = _stand_in("audit", "check_condition1")
check_condition2 = _stand_in("audit", "check_condition2")
check_condition3 = _stand_in("audit", "check_condition3")
check_span = _stand_in("audit", "check_span")
kd_rep = _stand_in("audit", "kd_rep")
make_condition2_violator = _stand_in("audit", "make_condition2_violator")
mixed_rep = _stand_in("audit", "mixed_rep")
PointerConfig = _stand_in("pointer", "PointerConfig")
coupling_sweep = _stand_in("pointer", "coupling_sweep")
condition3_violation_report = _stand_in("wigner", "condition3_violation_report")
discrete_wigner = _stand_in("wigner", "discrete_wigner")
wigner_as_rep = _stand_in("wigner", "wigner_as_rep")

EXIT_OK = 0
EXIT_AUDIT_FAILED = 1
EXIT_VALIDATION = 2
EXIT_SINGULAR_OVERLAP = 3
EXIT_DEGENERATE_POSTSELECTION = 4

# any other KdqError exits EXIT_VALIDATION
_EXIT_CODES = {
    SingularOverlapError: EXIT_SINGULAR_OVERLAP,
    DegeneratePostselectionError: EXIT_DEGENERATE_POSTSELECTION,
}


def _tol(args) -> float:
    """``--tol``, else ``KDQ_TOL``, else ``kdq.TOL``: one bound for every check the command makes."""
    if args.tol is not None:
        return lib_tol(args.tol, "--tol")
    raw = os.environ.get("KDQ_TOL")
    try:
        return lib_tol(None if raw is None else float(raw), "KDQ_TOL")
    except ValueError as exc:
        raise ValidationError(f"KDQ_TOL is not a number: {raw!r}") from exc


def _emit(obj, file=None) -> None:
    """Print ``obj`` as one line of strict JSON: every JSON write of the CLI goes through here."""
    try:
        text = json.dumps(obj, allow_nan=False, default=repr)
    except ValueError:  # a non-finite float
        text = json.dumps(kdq_io.finite_json(obj), allow_nan=False, default=repr)
    print(text, file=file)


def _report(code: str, message: str, context: dict) -> None:
    if sys.stderr is not None:  # None when started without a stderr; print(file=None) would write to stdout
        _emit({"code": code, "message": message, "context": context}, file=sys.stderr)


def _as_density(state: StateVector | DensityOperator, tol: float | None) -> DensityOperator:
    return make_pure_density(state, tol=tol) if isinstance(state, StateVector) else state


def _cmd_kd(args, tol: float | None) -> int:
    rho = _as_density(kdq_io.load_state(args.state, tol=tol), tol)
    basis_a = kdq_io.resolve_basis(args.basis_a, rho.dim, tol=tol)
    basis_b = kdq_io.resolve_basis(args.basis_b, rho.dim, tol=tol)
    dist = kd_transform(rho, basis_a, basis_b, args.ordering, tol=tol)
    if args.format == "json":
        _emit(kdq_io.kd_to_dict(dist, tol=tol))
    else:
        sys.stdout.write(kdq_io.kd_to_csv(dist, tol=tol))
    return EXIT_OK


def _cmd_reconstruct(args, tol: float | None) -> int:
    rho = kd_inverse(kdq_io.load_kd(args.kd, tol=tol), tol=tol)
    _emit(kdq_io.state_to_dict(rho))
    return EXIT_OK


# audit --rep specs over a basis pair: name -> (parameter, builder); a spec
# with a parameter is written name:VALUE, and wigner is built from --dim alone.
# Both tables look the builders and checks up among this module's globals at
# call time, so that a wrapper installed under one of those names reaches them.
_REPS = {
    "kd": (None, lambda a, b, _: kd_rep(a, b, Ordering.AB)),
    "kd-ba": (None, lambda a, b, _: kd_rep(a, b, Ordering.BA)),
    "mixed": ("mixture weight", lambda a, b, lam: mixed_rep(a, b, lam)),
    "violator": ("epsilon", lambda a, b, eps: make_condition2_violator(a, b, eps)),
}

# audit checks in report order: flag -> check(rep, tol)
_CHECKS = {
    "c1": lambda rep, tol: check_condition1(rep, tol=tol),
    "c2": lambda rep, tol: check_condition2(rep, tol=tol),
    "c3": lambda rep, tol: check_condition3(rep, tol=tol),
    "span": lambda rep, tol: check_span(rep, tol=tol),
}


def _build_rep(args, tol):
    if args.rep == "wigner":
        if args.basis_a is not None or args.basis_b is not None:
            raise ValidationError("the wigner representation has a fixed basis pair, position and momentum: "
                                  "drop --basis-a and --basis-b")
        if args.dim is None:
            raise ValidationError("--dim is required for the wigner representation")
        return wigner_as_rep(args.dim)
    if args.dim is None:
        raise ValidationError("--dim is required")
    basis_a = kdq_io.resolve_basis("computational" if args.basis_a is None else args.basis_a, args.dim, tol=tol)
    basis_b = kdq_io.resolve_basis("fourier" if args.basis_b is None else args.basis_b, args.dim, tol=tol)
    name, colon, raw = args.rep.partition(":")
    param, build = _REPS.get(name, (None, None))
    if build is None or bool(colon) != (param is not None):
        raise ValidationError(
            f"unknown representation spec {args.rep!r}: "
            "use kd, kd-ba, mixed:LAMBDA, violator:EPSILON, or wigner"
        )
    try:
        value = float(raw) if colon else None
    except ValueError as exc:
        raise ValidationError(f"bad {param} in {args.rep!r}") from exc
    return build(basis_a, basis_b, value)


def _cmd_audit(args, tol: float | None) -> int:
    rep = _build_rep(args, tol)
    wanted = [check for flag, check in _CHECKS.items() if args.all or getattr(args, flag)]
    if not wanted:
        flags = " ".join(f"--{flag}" for flag in _CHECKS)
        raise ValidationError(f"select at least one check: {flags} or --all")
    # every check runs before any report is printed, so a refused check leaves stdout empty
    reports = [check(rep, tol) for check in wanted]
    for report in reports:
        _emit(report.to_json_dict())
    return EXIT_OK if all(report.passed for report in reports) else EXIT_AUDIT_FAILED


def _cmd_weak(args, tol: float | None) -> int:
    state = kdq_io.load_state(args.state, tol=tol)
    if not isinstance(state, StateVector):
        raise ValidationError("weak-measurement simulation takes a pure state file")
    basis_a = kdq_io.resolve_basis(args.basis_a, state.dim, tol=tol)
    basis_b = kdq_io.resolve_basis(args.basis_b, state.dim, tol=tol)
    a_proj = LinearOperator(basis_a.projector(_integer(args.a_index, "a-index", 0, state.dim)))
    b = basis_b.vector(_integer(args.b_index, "b-index", 0, state.dim))
    cfg = PointerConfig(
        grid_points=args.grid_points,
        grid_extent=args.grid_extent * args.sigma,
        sigma=args.sigma,
    )
    raw = args.couplings.strip()
    entries = [g.strip() for g in raw.split(",")] if raw else []
    try:
        given = [float(g) for g in entries]
    except ValueError as exc:
        raise ValidationError(f"bad couplings list {raw!r}") from exc
    couplings = []
    for entry, g in zip(entries, given):  # in order: the first fault wins
        couplings.append(_real(g, "coupling", positive=False) * args.sigma)
        if not math.isfinite(couplings[-1]):  # a finite entry that --sigma scales past the largest float
            raise ValidationError(f"coupling {entry} times --sigma {args.sigma:g} is not a finite number",
                                  source="coupling", coupling=entry, sigma=args.sigma)
    points = coupling_sweep(state, a_proj, b, cfg, couplings)
    sys.stdout.write(kdq_io.sweep_to_csv(points))
    return EXIT_OK


def _cmd_wigner(args, tol: float | None) -> int:
    rho = _as_density(kdq_io.load_state(args.state, tol=tol), tol)
    table = discrete_wigner(rho, tol=tol)
    violations = condition3_violation_report(rho, tol=tol) if args.report else None
    if args.format == "json":
        _emit(kdq_io.wigner_to_dict(table, violations))
    else:
        sys.stdout.write(kdq_io.wigner_to_csv(table, violations))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose usage errors, its subcommands' too, end in a JSON error object (exit 2)."""

    def error(self, message: str) -> NoReturn:
        _report(ValidationError.code, f"{self.prog}: {message}", {})
        self.exit(EXIT_VALIDATION)

    def _parse_optional(self, arg_string):
        try:  # argparse takes -1e-3, -inf and -0.1,0.2 for unknown flags: a comma list of floats is a value
            [float(x) for x in arg_string.split(",")]
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None, help="override default tolerances")
    common.add_argument("--seed", type=int, default=0, help="validated (a non-negative integer); no check draws random states")

    parser = _Parser(prog="kdq", description=__doc__.strip().splitlines()[0])
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
    p.add_argument("--basis-a", help="named basis or @file.json (default computational); not for wigner")
    p.add_argument("--basis-b", help="named basis or @file.json (default fourier); not for wigner")
    for flag in [*_CHECKS, "all"]:
        p.add_argument(f"--{flag}", action="store_true")
    p.add_argument("--samples", type=int, default=100, help="validated (at least 1); C3 draws no states")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("weak", parents=[common], help="pointer coupling sweep (CSV)")
    p.add_argument("--state", required=True, help="pure state JSON file")
    p.add_argument("--a-index", type=int, required=True, help="projector index in basis A")
    p.add_argument("--basis-a", required=True)
    p.add_argument("--b-index", type=int, required=True, help="post-selection index in basis B")
    p.add_argument("--basis-b", required=True)
    p.add_argument("--couplings", required=True, help="comma list of couplings in units of sigma")
    p.add_argument("--grid-points", type=int, default=512, help="validated (a power of two >= 16); changes no output")
    p.add_argument("--grid-extent", type=float, default=20.0,
                   help="in units of sigma; validated (finite, > 8); changes no output")
    p.add_argument("--sigma", type=float, default=1.0)
    p.set_defaults(func=_cmd_weak)

    p = sub.add_parser("wigner", parents=[common], help="discrete phase-space table")
    p.add_argument("--state", required=True, help="state JSON file (odd dimension)")
    p.add_argument("--report", action="store_true", help="append zero-marginal violations")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_wigner)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = _tol(args)
        # C3's refusals, made for every command before it reads a file or builds a representation
        _integer(getattr(args, "samples", 1), "samples", 1, error=BadSampleCountError)
        _integer(args.seed, "seed")
        with np.errstate(all="ignore"):
            return args.func(args, tol)
    except KdqError as err:
        _report(err.code, str(err), err.context)
        return _EXIT_CODES.get(type(err), EXIT_VALIDATION)
    except MemoryError as err:  # numpy's _ArrayMemoryError included
        _report("out_of_memory", str(err) or "out of memory", {"command": args.command})
        return EXIT_VALIDATION


def run() -> NoReturn:
    """The ``kdq`` process: ``main()``, both streams flushed, then ``os._exit``.

    That skips ~25 ms of interpreter teardown a run. kdq writes nothing but
    stdout and stderr and registers no atexit handler; none runs here, so
    embedders call ``main``. A closed stdout ends as a ``broken_pipe`` error
    (exit 2) and is not flushed again; argparse's exits and unexpected
    exceptions leave through the normal interpreter exit.
    """
    try:
        code = main()
        if sys.stdout is not None:  # None when started without a stdout
            sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_VALIDATION
        with contextlib.suppress(OSError):
            _report("broken_pipe", "standard output is closed", {})
    with contextlib.suppress(OSError, AttributeError):
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
