"""Command-line front end.

Subcommands: ``certify`` (solve a problem file and emit certificates),
``check-cert`` (verify certificate files independently), ``compat`` (quiver
compatibility only), ``reduce`` (normal forms of the claims against the raw
assumptions, with traces), ``matcheck`` (exact-matrix example suites and
fixture files).

Exit codes: 0 success, 1 invalid certificate or incompatible statement,
2 budget exhausted, 3 input error: ``main`` reports any ``AlgebraError`` or
``OSError`` as one ``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .certify import load_certificate, save_certificate, verify_certificate
from .freealg import AlgebraError
from .matcheck import example1_check, example2_check, fixture_penrose_report
from .rewrite import reduce as nf_reduce
from .statements import certify_claims, load_problem, translate

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BUDGET = 2
EXIT_INPUT = 3

_FIXDIR = Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> Path:
    """Resolve a path or the name of a bundled fixture."""
    p = Path(name)
    if p.exists():
        return p
    for suffix in ("", ".prob", ".cert", ".mat"):
        candidate = _FIXDIR / (name + suffix)
        if candidate.exists():
            return candidate
    raise FileNotFoundError(f"no such file or bundled fixture: {name}")


def _apply_limit_overrides(problem, args) -> None:
    given = {name: getattr(args, name)
             for name in ("max_degree", "max_iterations", "time_budget")
             if getattr(args, name) is not None}
    problem.options.limits = replace(problem.options.limits, **given)
    if args.order:
        problem.options.ranking = [s.strip() for s in args.order.split(",")]
    if args.no_closure:
        problem.options.closure = False


def _load(args):
    path = fixture_path(args.problem)
    return path, load_problem(path)


def _cert_file(outdir: Path, stem: str, claim: str) -> Path:
    """The certificate file of ``claim`` in ``outdir``; a claim name that
    would not make a plain file name is an input error."""
    if any(c in claim for c in {"/", os.sep, "\0"}):
        raise AlgebraError(f"claim {claim!r} cannot name a certificate file")
    return outdir / f"{stem}.{claim}.cert"


def cmd_certify(args) -> int:
    path, problem = _load(args)
    _apply_limit_overrides(problem, args)
    outdir = Path(args.output) if args.output else None
    if outdir:
        if outdir.exists() and not outdir.is_dir():
            raise NotADirectoryError(f"--output {outdir} is not a directory")
        for name, _ in problem.claims:
            _cert_file(outdir, path.stem, name)
    trans = translate(problem)
    print(f"problem {path.stem}: {len(trans.algebra)} indeterminates, "
          f"{len(trans.assumptions)} assumptions, {len(trans.claims)} claims")
    if not _quiver_gate(path, trans):
        return EXIT_INVALID
    for wf in trans.workflow_reports:
        print(f"  workflow {wf.conclusion_name}: witness certified "
              f"({wf.certificate.term_count} terms), conclusion added")
    report = certify_claims(trans)
    if outdir:
        outdir.mkdir(parents=True, exist_ok=True)
    worst = EXIT_OK
    for res in report.results:
        if res.certified:
            cert = res.certificate
            used = ", ".join(sorted(cert.assumption_names[i]
                                    for i in cert.used_indices))
            print(f"  claim {res.name}: certified | {cert.term_count} terms | "
                  f"integral={cert.integral} | uses: {used}")
            if args.verbose:
                alg = cert.claim.alg
                for s in cert.summands:
                    print(f"      ({alg.render(s.left)}) . "
                          f"{cert.assumption_names[s.index]} . "
                          f"({alg.render(s.right)})")
            if outdir:
                dest = _cert_file(outdir, path.stem, res.name)
                save_certificate(cert, dest)
                print(f"    wrote {dest}")
        else:
            print(f"  claim {res.name}: budget exhausted; irreducible "
                  f"remainder: {res.remainder}")
            worst = EXIT_BUDGET
    s = report.stats
    tripped = f" ({s.tripped_limit})" if s.tripped_limit else ""
    print(f"  basis {s.basis_size}, obstructions {s.obstructions_processed}, "
          f"{s.elapsed:.2f}s, completion {s.completion_status}{tripped}")
    return worst


def cmd_check_cert(args) -> int:
    worst = EXIT_OK
    for name in args.certificate:
        cert = load_certificate(fixture_path(name))
        result = verify_certificate(cert)
        if result.valid:
            scope = " | ring-level only" if cert.ring_level_only else ""
            print(f"{name}: valid | {cert.term_count} terms | "
                  f"integral={cert.integral}{scope} | claim: {cert.claim}")
        else:
            print(f"{name}: INVALID: {result.reason}")
            worst = EXIT_INVALID
    return worst


def cmd_compat(args) -> int:
    path, problem = _load(args)
    return EXIT_OK if _quiver_gate(path, translate(problem)) else EXIT_INVALID


def _quiver_gate(path: Path, trans) -> bool:
    """Print the quiver check of ``trans``; True iff a quiver was given or
    inferred and every statement passed it."""
    if trans.quiver is None:
        print(f"{path.stem}: no quiver given and none inferable")
        return False
    check = trans.quiver_check
    q = trans.quiver
    print(f"  quiver: {len(q.vertices)} vertices, {len(q.edges)} edges; "
          f"compatibility {'passed' if check.ok else 'FAILED'}")
    for name, _poly, comp in check.failures:
        print(f"    {name}: {comp.reason}")
    for label, partner in check.adjoint_violations:
        print(f"    adjoint edges not reversed: {label} vs {partner}")
    return check.ok


def cmd_reduce(args) -> int:
    path, problem = _load(args)
    _apply_limit_overrides(problem, args)
    trans = translate(problem)
    if args.claim and args.claim not in trans.claim_names:
        raise AlgebraError(f"{path.stem} has no claim {args.claim!r}")
    alg = trans.algebra
    # a zero assumption (hermitian(a·a*) expands to 0) is no basis element
    kept = [k for k, g in enumerate(trans.assumptions) if not g.is_zero]
    basis = [trans.assumptions[k] for k in kept]
    for name, claim in zip(trans.claim_names, trans.claims):
        if args.claim and name != args.claim:
            continue
        value, steps = nf_reduce(claim, basis, trans.order)
        print(f"claim {name}: remainder {alg.render(value)}")
        for c, left, idx, right in steps:
            aname = trans.assumption_names[kept[idx]]
            print(f"    ({alg.render(alg.monomial(left, c))}) . {aname} . "
                  f"({alg.render(alg.monomial(right))})")
    return EXIT_OK


def cmd_matcheck(args) -> int:
    reports = [fixture_penrose_report(fixture_path(name))
               for name in args.fixture] if args.fixture \
        else [example1_check(), example2_check()]
    for rep in reports:
        print(f"{rep.name}: {'pass' if rep.ok else 'FAIL'}")
        for line in rep.lines():
            print(line)
    return EXIT_OK if all(rep.ok for rep in reports) else EXIT_INVALID


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opcert",
        description="Certified proofs of operator identities via "
                    "noncommutative polynomial ideal membership.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_limits(p):
        p.add_argument("--max-degree", type=int, default=None)
        p.add_argument("--max-iterations", type=int, default=None)
        p.add_argument("--time-budget", type=float, default=None)
        p.add_argument("--order", default=None,
                       help="comma-separated variable ranking")
        p.add_argument("--no-closure", action="store_true")

    p = sub.add_parser("certify", help="solve a problem file, emit certificates")
    p.add_argument("problem")
    p.add_argument("--output", default=None, help="directory for .cert files")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print every certificate summand")
    add_limits(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("check-cert", help="verify certificate files")
    p.add_argument("certificate", nargs="+")
    p.set_defaults(func=cmd_check_cert)

    p = sub.add_parser("compat", help="quiver compatibility checks only")
    p.add_argument("problem")
    p.set_defaults(func=cmd_compat)

    p = sub.add_parser("reduce", help="normal forms against the raw assumptions")
    p.add_argument("problem")
    p.add_argument("--claim", default=None, help="restrict to one claim name")
    add_limits(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("matcheck", help="exact-matrix example suites")
    p.add_argument("fixture", nargs="*",
                   help="optional .mat fixture files (default: built-in suites)")
    p.set_defaults(func=cmd_matcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 0 for --help, 2 for usage errors
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        return args.func(args)
    except (OSError, AlgebraError) as exc:  # unreadable or malformed input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
