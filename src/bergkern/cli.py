"""Command-line interface: kernel evaluation, norm queries, verification suites.

`verify` passes a suite function only the flags given, so the function's own
defaults are the command's, and a flag the function does not take is a usage
error. Domain parameters are checked by DomainSpec.of.

Exit codes: 0 all checks passed, 1 evaluation/verification failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from .domains import DomainSpec, PointPair, _positive
from .errors import BergkernError
from .hypergeo import TruncationPolicy
from .kernels import KERNEL_POLICY
from .norms import norm_closed, norm_quadrature
from .suites import _kernel_routes, run_identity_suite, run_kernel_suite, run_norm_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _vector(convert, kind: str):
    """An argparse type: comma-separated values, each read by convert."""
    def parse(text: str) -> tuple:
        try:
            return tuple(convert(part) for part in text.split(","))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad {kind} vector {text!r}: {exc}")
    return parse


_complex_vector = _vector(complex, "complex")
_float_vector = _vector(float, "float")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bergkern",
        description="Evaluate and verify Bergman kernels of two Reinhardt "
                    "domains and of complex ellipsoids.")
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a kernel at a point pair or nu vector")
    ev.add_argument("--domain", required=True, choices=("d1", "d2", "ellipsoid"))
    ev.add_argument("--p", type=_float_vector,
                    help="d1: scalar exponent; ellipsoid: comma-separated exponents")
    ev.add_argument("--lambda", dest="lam", type=float, help="d1 exponent lambda")
    ev.add_argument("--nu", type=_complex_vector,
                    help="Hermitian products, e.g. 0.25,0,0 or 0.1+0.2j,0,0")
    ev.add_argument("--z", type=_complex_vector, help="first point of a pair")
    ev.add_argument("--zeta", type=_complex_vector, help="second point of a pair")
    ev.add_argument("--method", choices=("closed", "series"), default="closed")
    ev.add_argument("--max-degree", type=int, default=KERNEL_POLICY.max_total_degree)
    ev.add_argument("--tail-tol", type=float, default=KERNEL_POLICY.tail_tol)

    nm = sub.add_parser("norm", help="closed-form monomial norm, optionally vs oracle")
    nm.add_argument("--domain", required=True, choices=("d1", "d2"))
    nm.add_argument("--alpha", required=True, type=_vector(int, "integer"))
    nm.add_argument("--p", type=_float_vector)
    nm.add_argument("--lambda", dest="lam", type=float)
    nm.add_argument("--oracle", action="store_true",
                    help="also run the quadrature oracle and report the difference")
    nm.add_argument("--tol", type=float, default=1e-8,
                    help="pass/fail tolerance for --oracle comparison")

    vf = sub.add_parser("verify", help="run a verification suite and write a report")
    vf.add_argument("suite", choices=("identities", "norms", "kernels"))
    vf.add_argument("--domain", choices=("d1", "d2", "ellipsoid"),
                    help="norms, kernels (default d2)")
    vf.add_argument("--p", type=_float_vector, help="norms, kernels")
    vf.add_argument("--lambda", dest="lam", type=float, help="norms, kernels")
    vf.add_argument("--trials", type=int, help="identities (default 200)")
    vf.add_argument("--points", type=int, help="kernels (default 50)")
    vf.add_argument("--seed", type=int, help="identities, kernels (default 7)")
    vf.add_argument("--margin", type=float, help="kernels (default 0.2)")
    vf.add_argument("--tol", type=float, default=None,
                    help="row tolerance (defaults: identities 1e-10, norms 1e-8, "
                         "kernels 1e-6; recurrence rows always 1e-9)")
    vf.add_argument("--tail-tol", type=float, default=None,
                    help="series stop tolerance (defaults: identities 1e-13, kernels 1e-10)")
    vf.add_argument("--max-degree", type=int,
                    help="series degree cap (defaults: identities 400, kernels 1000)")
    vf.add_argument("--max-index", type=int, default=None, help="norms")
    vf.add_argument("--format", choices=("json", "csv"), default="json")
    vf.add_argument("--out", default=None, help="report path (default: stdout)")
    return parser


def _scalar_p(args):
    if args.p is None:
        return None
    if len(args.p) != 1:
        raise ValueError("--p must be a single value for this domain")
    return args.p[0]


def _p_and_exponents(args):
    """--p as (d1's scalar p, an ellipsoid's exponents)."""
    return (None, args.p) if args.domain == "ellipsoid" else (_scalar_p(args), None)


def _cmd_eval(args) -> int:
    if args.nu is not None and (args.z is not None or args.zeta is not None):
        raise ValueError("give either --nu or the pair --z/--zeta, not both")
    if args.nu is not None:
        nu = args.nu
    elif args.z is not None and args.zeta is not None:
        nu = PointPair(args.z, args.zeta).nu
    else:
        raise ValueError("eval needs --nu or both --z and --zeta")

    policy = TruncationPolicy(max_total_degree=args.max_degree, tail_tol=args.tail_tol)
    p, exponents = _p_and_exponents(args)
    _, closed, series = _kernel_routes(args.domain, p, args.lam, exponents, policy)
    route = series if args.method == "series" else closed
    if route is None:
        raise ValueError(f"--domain {args.domain} has no closed route; use --method series")
    kv = route(nu)
    print(f"value = {kv.value!r}")
    print(f"method = {kv.method}")
    if kv.tail_estimate is not None:
        print(f"tail_estimate = {kv.tail_estimate:.6e}")
    return EXIT_OK


def _cmd_norm(args) -> int:
    _positive(args.tol, "tol")
    spec = DomainSpec.of(args.domain, _scalar_p(args), args.lam)
    # the oracle first: where both norms underflow, the oracle's error is reported
    oracle = norm_quadrature(spec, args.alpha) if args.oracle else None
    closed = norm_closed(spec, args.alpha)
    print(f"norm = {closed!r}")
    if args.oracle:
        rel = abs(closed - oracle) / abs(oracle)
        print(f"oracle = {oracle!r}")
        print(f"rel_err = {rel:.6e}")
        if rel > args.tol:
            print(f"FAIL: rel_err above {args.tol}", file=sys.stderr)
            return EXIT_FAIL
    return EXIT_OK


_SUITES = {"identities": run_identity_suite, "norms": run_norm_suite,
           "kernels": run_kernel_suite}
_NOT_SUITE_ARGS = ("command", "suite", "format", "out")


def _cmd_verify(args) -> int:
    run = _SUITES[args.suite]
    given = {dest: value for dest, value in vars(args).items()
             if value is not None and dest not in _NOT_SUITE_ARGS}
    unread = ["--lambda" if dest == "lam" else "--" + dest.replace("_", "-")
              for dest in given if dest not in inspect.signature(run).parameters]
    if unread:
        raise ValueError(f"verify {args.suite} does not read {', '.join(unread)}")
    if "p" in given:
        if args.suite == "kernels" and args.domain == "ellipsoid":
            given["exponents"] = given.pop("p")
        else:
            given["p"] = _scalar_p(args)
    report = run(**given)

    payload = report.to_json() if args.format == "json" else report.to_csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        print(payload)

    summary = report.summary()
    print(f"suite={report.suite} total={summary['total']} passed={summary['passed']} "
          f"failed={summary['failed']} max_rel_err={summary['max_rel_err']:.3e} "
          f"informational={len(report.informational)}", file=sys.stderr)
    return EXIT_OK if summary["failed"] == 0 else EXIT_FAIL


def _normalize_argv(argv) -> list[str]:
    """Join each --option with a next token that starts with a dash and a
    digit or a dot (e.g. --alpha -2,0,0 or --tol -1e-8), so argparse does
    not mistake the value for an option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok.startswith("--") and nxt is not None and nxt.startswith("-") \
                and len(nxt) > 1 and (nxt[1].isdigit() or nxt[1] == "."):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_normalize_argv(sys.argv[1:] if argv is None else list(argv)))
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "norm":
            return _cmd_norm(args)
        return _cmd_verify(args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BergkernError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
