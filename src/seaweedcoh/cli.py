"""Command-line front end: construct, inspect, verify, enumerate.

All commands emit a single JSON document on stdout; `enumerate` writes JSON
lines to a file and prints a summary document.  Rationals are serialized as
strings ("p/q" or an integer string) so no consumer loses exactness.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from contextlib import ExitStack
from functools import lru_cache

from . import chevalley, rootsystem
from .casimir import OperatorContext, rigidity_certificate
from .chevalley import DegenerateFormError
from .cochain import (adjoint_context, invariant_cohomology_dims,
                      nilradical_context)
from .gerstenhaber import cg_dims
from .seaweed import (SeaweedSpec, Seaweed, _cached_build, build_seaweed,
                      center, is_indecomposable, quotient_components,
                      render_split_dynkin, seaweed_from_algebra,
                      split_over_center)

SCHEMA_VERSION = "1"

INFORMATIONAL = "informational"
ERROR = "error"


@lru_cache(maxsize=None)
def _ambient(type_label, rank):
    """The Chevalley basis of a type, on `seaweed`'s root system of it."""
    return chevalley.construct(_cached_build(type_label, rank))


def _parse_pi(text):
    if text is None or text.strip() == "":
        return frozenset()
    try:
        return frozenset(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated indices, got {text!r}") from None


def _degree(text):
    """A --max-degree value: a nonnegative int."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"negative degree {text}")
    return int(text)


def _jobs(text):
    """An --jobs value: a positive int."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"--jobs must be at least 1, got {text}")
    return int(text)


def _vec_json(L, vec):
    return {L.labels[i]: str(c) for i, c in sorted(vec.items())}


def _spec_json(spec, fixture=None):
    out = {
        "type": spec.type_label if spec else None,
        "rank": spec.rank if spec else None,
        "pi1": sorted(spec.pi1) if spec else [],
        "pi2": sorted(spec.pi2) if spec else [],
    }
    if fixture:
        out["fixture"] = fixture
    return out


def _degree_cap(sw, max_degree):
    """Top degree of the cohomology rows: `max_degree`, by default dim s up
    to 8 and 3 above, and never past dim s."""
    if max_degree is None:
        max_degree = sw.dim if sw.dim <= 8 else 3
    return min(max_degree, sw.dim)


def build_from_args(args):
    """(seaweed, spec, fixture_name) from the common flags."""
    fixture_name = None
    if args.fixture:
        L = chevalley.load_fixture(args.fixture)
        fixture_name = str(args.fixture)
        if args.type:
            if args.rank is None:
                raise SystemExit("--type needs --rank")
            spec = SeaweedSpec.make(args.type, args.rank, args.pi1, args.pi2)
            return build_seaweed(L, spec), spec, fixture_name
        if args.pi1 or args.pi2 or args.rank is not None:
            raise SystemExit("--pi1, --pi2 and --rank need --type")
        return seaweed_from_algebra(L), None, fixture_name
    if not args.type or args.rank is None:
        raise SystemExit("need --type and --rank (or --fixture)")
    spec = SeaweedSpec.make(args.type, args.rank, args.pi1, args.pi2)
    return build_seaweed(_ambient(args.type, args.rank), spec), spec, fixture_name


def info_fragment(sw: Seaweed, spec):
    zs = center(sw)
    frag = {
        "diagram": render_split_dynkin(spec) if spec else None,
        "dims": {
            "s": sw.dim,
            "r": len(sw.reductive),
            "n": len(sw.nilradical),
            "center": len(zs),
        },
        "center_basis": [_vec_json(sw.ambient, z) for z in zs],
        "indecomposable": (is_indecomposable(spec) if spec
                           else len(zs) == 0),
    }
    if spec:
        comps = quotient_components(spec)
        frag["components"] = [
            {"type": c.type_label, "rank": c.rank,
             "pi1": sorted(c.pi1), "pi2": sorted(c.pi2)} for c in comps]
    return frag


def _report_head(sw, spec, fixture):
    """The schema version, the spec and the info fragment of a report."""
    report = {"schema_version": SCHEMA_VERSION, "spec": _spec_json(spec, fixture)}
    report.update(info_fragment(sw, spec))
    return report


def _dims_row(q, dims):
    return {"q": q, "cocycles": dims.cocycles,
            "coboundaries": dims.coboundaries, "cohomology": dims.cohomology}


def cohomology_rows(sw, max_degree):
    ctx = adjoint_context(sw)
    return [_dims_row(q, ctx.cohomology_dims(q)) for q in range(max_degree + 1)]


def _cg_reports(sw, cap):
    """Formula vs direct H^n(s, s) for n = 0..min(cap, 3), over one center
    split."""
    split = split_over_center(sw)
    return [cg_dims(sw, n, split=split) for n in range(min(cap, 3) + 1)]


def verify_report(sw, spec, max_degree=None, strict_paper=False,
                  fixture=None):
    """The full check battery for one seaweed; used by verify and enumerate."""
    discrepancies = []

    def flag(code, detail, severity=ERROR):
        discrepancies.append({"code": code, "severity": severity,
                              "detail": detail})

    report = _report_head(sw, spec, fixture)
    zdim = report["dims"]["center"]

    if spec is not None:
        indec = is_indecomposable(spec)
        if (zdim == 0) != indec:
            flag("center_decomposability_mismatch",
                 f"center dim {zdim} vs indecomposable {indec}")
        expected = spec.rank - len(spec.pi1 | spec.pi2)
        if zdim != expected:
            flag("center_dimension_formula",
                 f"center dim {zdim}, expected rank - |pi1 u pi2| = {expected}")
    indec = report["indecomposable"]

    cap = _degree_cap(sw, max_degree)
    report["cohomology"] = cohomology_rows(sw, cap)
    if indec:
        for row in report["cohomology"]:
            if row["cohomology"] != 0:
                flag("indecomposable_cohomology_nonzero",
                     f"H^{row['q']}(s,s) = {row['cohomology']}")

    # invariant cohomology of the nilradical
    inv_rows = []
    for q in range(1, len(sw.nilradical) + 1):
        dims = invariant_cohomology_dims(nilradical_context(sw), q)
        inv_rows.append(_dims_row(q, dims))
        if dims.cohomology != 0:
            flag("invariant_cohomology_nonzero",
                 f"H^{q}(n,s)^r = {dims.cohomology}")
        if not dims.coboundaries_match_full:
            flag("invariant_coboundary_mismatch",
                 f"delta-invariants != B^{q} cap invariants at q={q}")
    report["invariant_cohomology"] = inv_rows

    # rigidity certificates, where the ambient admits dual bases
    certs = []
    try:
        octx = OperatorContext(sw)
    except DegenerateFormError:
        octx = None
    if octx is not None:
        for q in range(1, len(sw.nilradical) + 1):
            cert = rigidity_certificate(octx, q)
            certs.append(cert.as_dict())
            if not cert.success:
                flag("certificate_failure",
                     f"rigidity certificate failed at q={q}: {cert.failure}")
    report["certificates"] = certs

    # formula vs direct for the decomposable case
    cg_reports = _cg_reports(sw, cap)
    cg = [rep.as_dict() for rep in cg_reports]
    for rep in cg_reports:
        if not rep.match:
            flag("cg_mismatch",
                 f"CG formula {rep.formula_total} != direct "
                 f"{rep.direct_total} at n={rep.n}")
        if not rep.h0_equals_center:
            flag("quotient_h0_not_center", f"H^0(Q,s) != Z(s) at n={rep.n}")
    report["cg"] = cg
    if zdim > 0:
        for row in cg[1:]:
            h = next((t[2] for t in row["terms"] if t[0] == 0), 0)
            if h != 0:
                flag("quotient_cohomology_nonzero",
                     f"H^{row['n']}(Q,s) = {h}, contradicting the vanishing claim "
                     f"for n >= 1 (the worked example needs H^1(Q,s) = 1)",
                     ERROR if strict_paper else INFORMATIONAL)

    report["discrepancies"] = discrepancies
    report["ok"] = not any(d["severity"] == ERROR for d in discrepancies)
    return report


def cmd_info(args):
    sw, spec, fixture = build_from_args(args)
    print(json.dumps(_report_head(sw, spec, fixture), indent=2))
    return 0


def cmd_cohomology(args):
    sw, spec, fixture = build_from_args(args)
    cap = _degree_cap(sw, args.max_degree)
    report = _report_head(sw, spec, fixture)
    report["cohomology"] = cohomology_rows(sw, cap)
    if report["dims"]["center"] > 0:
        report["cg"] = [rep.as_dict() for rep in _cg_reports(sw, cap)]
    print(json.dumps(report, indent=2))
    return 0


def cmd_verify(args):
    sw, spec, fixture = build_from_args(args)
    report = verify_report(sw, spec, max_degree=args.max_degree,
                           strict_paper=args.strict_paper, fixture=fixture)
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


def _all_specs(type_label, max_rank):
    specs = []
    for rank in range(1, max_rank + 1):
        if not rootsystem.VALID_RANKS[type_label](rank):
            continue
        nodes = list(range(1, rank + 1))
        subsets = []
        for mask in range(1 << rank):
            subsets.append(frozenset(n for i, n in enumerate(nodes)
                                     if mask >> i & 1))
        for p1 in subsets:
            for p2 in subsets:
                specs.append(SeaweedSpec(type_label, rank, p1, p2))
    return specs


def _enumerate_one(packed):
    """The verify report of one spec, or an error record if it raises."""
    type_label, rank, pi1, pi2, max_degree, strict = packed
    try:
        spec = SeaweedSpec(type_label, rank, frozenset(pi1), frozenset(pi2))
        sw = build_seaweed(_ambient(type_label, rank), spec)
        return verify_report(sw, spec, max_degree=max_degree,
                             strict_paper=strict)
    except Exception as exc:
        traceback.print_exc()
        return {"spec": {"type": type_label, "rank": rank, "pi1": list(pi1),
                         "pi2": list(pi2)},
                "error": f"{type(exc).__name__}: {exc}", "ok": False}


def cmd_enumerate(args):
    specs = _all_specs(args.type, args.max_rank)
    if not specs:
        raise SystemExit(f"no {args.type} seaweeds up to rank {args.max_rank}")
    packed = [(s.type_label, s.rank, tuple(sorted(s.pi1)),
               tuple(sorted(s.pi2)), args.max_degree, args.strict_paper)
              for s in specs]
    summary = {"schema_version": SCHEMA_VERSION, "type": args.type,
               "max_rank": args.max_rank, "total": len(packed),
               "indecomposable": 0, "decomposable": 0,
               "rigid_verified": 0, "cg_verified": 0, "failures": 0}
    with ExitStack() as stack:
        out = stack.enter_context(open(args.out, "w")) if args.out else None
        if args.jobs > 1:
            import multiprocessing
            pool = stack.enter_context(multiprocessing.Pool(args.jobs))
            records = pool.imap(_enumerate_one, packed)
        else:
            records = map(_enumerate_one, packed)
        # each record is written as soon as it (and those before it) finish
        for rec in records:
            if "error" in rec:
                print(f"error: {json.dumps(rec['spec'])}: {rec['error']}",
                      file=sys.stderr)
            elif rec["indecomposable"]:
                summary["indecomposable"] += 1
                if rec["ok"]:
                    summary["rigid_verified"] += 1
            else:
                summary["decomposable"] += 1
                if rec["ok"] and all(r["match"] for r in rec["cg"]):
                    summary["cg_verified"] += 1
            if not rec["ok"]:
                summary["failures"] += 1
            if out:
                out.write(json.dumps(rec) + "\n")
    print(json.dumps(summary, indent=2))
    return 0 if summary["failures"] == 0 else 1


def make_parser():
    parser = argparse.ArgumentParser(
        prog="seaweedcoh",
        description="Seaweed subalgebras and their adjoint cohomology, exactly.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_flags(p, with_fixture=True):
        p.add_argument("--type", choices=sorted(rootsystem.VALID_RANKS))
        p.add_argument("--rank", type=int)
        p.add_argument("--pi1", type=_parse_pi, default=frozenset())
        p.add_argument("--pi2", type=_parse_pi, default=frozenset())
        if with_fixture:
            p.add_argument("--fixture", help="structure-constant file")

    p_info = sub.add_parser("info", help="dimensions, diagram, center, components")
    add_spec_flags(p_info)
    p_info.set_defaults(func=cmd_info)

    p_coh = sub.add_parser("cohomology", help="per-degree cohomology dimensions")
    add_spec_flags(p_coh)
    p_coh.add_argument("--max-degree", type=_degree, default=None)
    p_coh.set_defaults(func=cmd_cohomology)

    p_ver = sub.add_parser("verify", help="run every check; exit 1 on discrepancy")
    add_spec_flags(p_ver)
    p_ver.add_argument("--max-degree", type=_degree, default=None)
    p_ver.add_argument("--strict-paper", action="store_true")
    p_ver.set_defaults(func=cmd_verify)

    p_enum = sub.add_parser("enumerate", help="verify all (pi1, pi2) pairs")
    p_enum.add_argument("--type", required=True,
                        choices=sorted(rootsystem.VALID_RANKS))
    p_enum.add_argument("--max-rank", type=int, required=True)
    p_enum.add_argument("--max-degree", type=_degree, default=3)
    p_enum.add_argument("--out", default=None)
    p_enum.add_argument("--strict-paper", action="store_true")
    p_enum.add_argument("--jobs", type=_jobs, default=1)
    p_enum.set_defaults(func=cmd_enumerate)
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
