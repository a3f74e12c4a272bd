"""Command-line surface: instance files in, genus reports and verdicts out.

Exit codes: 0 success, 1 verification-suite failure, 2 malformed input,
3 precondition failure, 4 internal integrality failure.  The default
q-order is 20, overridable per-invocation by --q-order and globally by
the WITTENQ_Q_ORDER environment variable (which sets the default only),
except `verify --suite vanishing`, which runs at q-order 12 unless given
--q-order.  A negative or non-integer q-order, from either source, is
malformed input; `verify` of the modular suite (alone or in `all`) below
q-order 4, too short to fit at weight 24, is a precondition failure
before any suite runs.  Run as a program, wittenq dies quietly of SIGPIPE.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import sys

from . import __version__, bundles, modforms, theta
from .errors import DimensionError, NonIntegralError
from .gci import GCIData, condition_report, dims
from .genera import mod2_witten, wc_genus, witten_genus
from .qseries import QSeries
from .search import SearchQuery, find_string, find_stringc

EXIT_OK = 0
EXIT_SUITE = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_INTEGRALITY = 4


def nonneg_int(text):
    """Parse a q-order or c_max given as text: an int >= 0 or ValueError."""
    value = int(text)
    if value < 0:
        raise ValueError(f"{text!r} is negative")
    return value


def positive_int(text):
    """Parse a search bound given as text: an int >= 1 or ValueError."""
    value = int(text)
    if value < 1:
        raise ValueError(f"{text!r} is not positive")
    return value


def default_q_order():
    """WITTENQ_Q_ORDER if set (ValueError if malformed), else 20."""
    text = os.environ.get("WITTENQ_Q_ORDER", "20")
    try:
        return nonneg_int(text)
    except ValueError:
        raise ValueError("WITTENQ_Q_ORDER must be a nonnegative integer, "
                         f"got {text!r}") from None


# "conditions" is in every `wittenq search` line; it is recomputed, not read
_INSTANCE_KEYS = {"n", "D", "C", "q_order", "conditions"}


def _load_instance(path, q_order=None):
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "n" not in doc or "D" not in doc:
        raise ValueError("instance file must be an object with 'n' and 'D'")
    unknown = sorted(set(doc) - _INSTANCE_KEYS)
    if unknown:
        raise ValueError(f"unknown instance keys {unknown}; allowed are "
                         f"{sorted(_INSTANCE_KEYS)}")
    qo = q_order if q_order is not None else doc.get("q_order",
                                                     default_q_order())
    return GCIData(doc["n"], doc["D"], doc.get("C"), q_order=qo)


def _instance_dict(g):
    out = {"n": list(g.n), "D": [list(r) for r in g.D], "q_order": g.q_order}
    if g.C is not None:
        out["C"] = list(g.C)
    return out


def _series_entries(series):
    if isinstance(series, QSeries):
        return [{"q_exp": k, "value": str(c)}
                for k, c in enumerate(series.coeffs)]
    return [{"q_exp": k, "value": str(b)} for k, b in enumerate(series.bits)]


def cmd_check(args):
    try:
        g = _load_instance(args.instance)
    except (OSError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    rep = condition_report(g)
    print(json.dumps(dataclasses.asdict(rep), indent=2))
    return EXIT_OK


def cmd_genus(args):
    if args.even_row is not None and args.kind != "phi2":
        print("error: --even-row applies to --kind phi2 only",
              file=sys.stderr)
        return EXIT_INPUT
    if args.modfit and args.kind == "phi2":
        print("error: --modfit applies to --kind W and Wc only; phi2 is a "
              "series mod 2", file=sys.stderr)
        return EXIT_INPUT
    try:
        g = _load_instance(args.instance, args.q_order)
    except (OSError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        if args.kind == "W":
            rep = witten_genus(g)
        elif args.kind == "Wc":
            rep = wc_genus(g)
        else:
            rep = mod2_witten(g, even_row=args.even_row)
    except NonIntegralError as exc:
        print(f"integrality failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRALITY
    except (DimensionError, ValueError) as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    doc = {
        "instance": _instance_dict(g),
        "kind": args.kind,
        "coeffs": _series_entries(rep.coeffs),
        "integral": rep.integral,
        "even_q_support": rep.even_q_support,
        "conditions": dataclasses.asdict(condition_report(g)),
        "modular_fit": None,
    }
    if args.modfit:
        # the complex dimension, less 1 for W_c in real dimension 4k+2
        weight = dims(g)[0] - (rep.kind == "Wc4k2")
        try:
            ft = modforms.fit(rep.coeffs, weight)
            doc["modular_fit"] = {
                "weight": ft.weight,
                "basis": [list(p) for p in ft.basis],
                "solution": [str(v) for v in ft.solution]
                            if ft.solution is not None else None,
                "ok": ft.ok,
                "failure_exponent": ft.failure_exponent,
            }
        except ValueError as exc:
            doc["modular_fit"] = {"ok": False, "error": str(exc)}
    text = json.dumps(doc, indent=2)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}",
                  file=sys.stderr)
            return EXIT_INPUT
    else:
        print(text)
    return EXIT_OK


# -- verification suites ----------------------------------------------

def suite_theta(q_order):
    results = {}
    results["jacobi_identity"] = theta.jacobi_check(max(q_order, 50))
    num = theta.numeric_transform_suite()
    results["numeric_transforms"] = num["passed"]
    return results


def suite_bundles(q_order):
    x_order = 8
    results = {}
    results["root_factor=x/Phi"] = (
        bundles.root_factor(x_order, q_order)
        == theta.x_over_phi(x_order, q_order))
    results["lfactor_4k=Psi1Psi2Psi3"] = (
        bundles.lfactor_4k(x_order, q_order)
        == theta.psi_product(x_order, q_order))
    results["lfactor_4k2=Phi/2"] = (
        tuple(c * 2 for c in bundles.lfactor_4k2(x_order, q_order))
        == theta.phi(x_order, q_order))
    results["lemma42"] = bundles.lemma42_check(q_order)
    results["lemma42_negative_control"] = not bundles.lemma42_check(
        q_order, flip_sign=True)
    return results


def vanishing_cases(query):
    """(label, instance, zero_fn) triples for every theorem-qualified instance."""
    cases = []
    for inst in find_string(query):
        g = inst.g
        if inst.report.dims[1] % 4 == 0:
            cases.append(("W", g, lambda g=g: witten_genus(g).coeffs.is_zero()))
        if inst.report.thm42_ok:
            cases.append(("phi2", g,
                          lambda g=g: mod2_witten(g).coeffs.is_zero()))
    for parity in ("dim4k", "dim4k2"):
        for inst in find_stringc(query, parity):
            g = inst.g
            # C and -C give the same genus up to overall sign (the twist is
            # even or odd in ell_c), so vanishing needs only one of the pair
            first = next((c for c in g.C if c), 0)
            if first < 0:
                continue
            cases.append(("Wc", g, lambda g=g: wc_genus(g).coeffs.is_zero()))
    return cases


def suite_vanishing(q_order, query=None):
    if query is None:
        query = SearchQuery(q_order=q_order)
    results = {}
    for label, g, fn in vanishing_cases(query):
        name = f"{label} n={list(g.n)} D={[list(r) for r in g.D]}" + (
            f" C={list(g.C)}" if g.C is not None else "")
        results[name] = fn()
    return results


_MODULAR_WEIGHTS = range(0, 26, 2)
# a fit at weight w reads dim M_w coefficients in q-tilde = q^2
_MODULAR_MIN_Q_ORDER = 2 * (max(len(modforms.weight_basis(w))
                               for w in _MODULAR_WEIGHTS) - 1)


def suite_modular(q_order):
    results = {}
    tilde = q_order // 2
    for weight in _MODULAR_WEIGHTS:
        ok = True
        for a, b in modforms.weight_basis(weight):
            mono = (modforms.eisenstein(4, tilde) ** a
                    * modforms.eisenstein(6, tilde) ** b)
            ft = modforms.fit(modforms.lift(mono, q_order), weight)
            ok = ok and ft.ok and ft.solution is not None
        results[f"roundtrip_weight_{weight}"] = ok
    e2 = modforms.lift(modforms.eisenstein(2, tilde), q_order)
    results["E2_rejected"] = not modforms.fit(e2, 2).ok
    results["theta_constant_E4"] = modforms.theta_constant_e4_check(
        max(tilde, 10))
    return results


def cmd_verify(args):
    q_order = args.q_order if args.q_order is not None else default_q_order()
    suites = {
        "theta": lambda: suite_theta(q_order),
        "bundles": lambda: suite_bundles(q_order),
        "vanishing": lambda: suite_vanishing(
            args.q_order if args.q_order is not None else 12),
        "modular": lambda: suite_modular(q_order),
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    if "modular" in names and q_order < _MODULAR_MIN_Q_ORDER:
        print(f"precondition failure: the modular suite needs q-order >= "
              f"{_MODULAR_MIN_Q_ORDER}, got {q_order}", file=sys.stderr)
        return EXIT_PRECONDITION
    failures = 0
    for name in names:
        results = suites[name]()
        npass = sum(1 for v in results.values() if v)
        nfail = len(results) - npass
        failures += nfail
        print(f"[{name}] {npass} passed, {nfail} failed")
        for key, ok in results.items():
            if not ok:
                print(f"  FAIL {key}")
    return EXIT_OK if failures == 0 else EXIT_SUITE


def cmd_search(args):
    query = SearchQuery(s_max=args.s, t_max=args.t, d_max=args.dmax,
                        c_max=args.cmax, positive=args.positive,
                        require_codim=args.codim,
                        target_real_dim=args.target_dim,
                        q_order=args.q_order if args.q_order is not None
                        else default_q_order())
    if args.parity == "string":
        results = find_string(query)
    else:
        results = find_stringc(query, args.parity)
    for inst in results:
        doc = _instance_dict(inst.g)
        doc["conditions"] = dataclasses.asdict(inst.report)
        print(json.dumps(doc))
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="wittenq",
        description="Witten-type genera of generalized complete intersections")
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", help="evaluate condition checkers")
    pc.add_argument("instance")
    pc.set_defaults(fn=cmd_check)

    pg = sub.add_parser("genus", help="compute a genus report")
    pg.add_argument("instance")
    pg.add_argument("--kind", choices=["W", "Wc", "phi2"], default="W")
    pg.add_argument("--q-order", type=nonneg_int, default=None)
    pg.add_argument("--modfit", action="store_true")
    pg.add_argument("--even-row", type=int, default=None)
    pg.add_argument("--out", default=None)
    pg.set_defaults(fn=cmd_genus)

    pv = sub.add_parser("verify", help="run property suites")
    pv.add_argument("--suite",
                    choices=["theta", "bundles", "vanishing", "modular", "all"],
                    default="all")
    pv.add_argument("--q-order", type=nonneg_int, default=None)
    pv.set_defaults(fn=cmd_verify)

    ps = sub.add_parser("search", help="enumerate instances within bounds")
    ps.add_argument("--s", type=positive_int, default=2)
    ps.add_argument("--t", type=positive_int, default=4)
    ps.add_argument("--dmax", type=positive_int, default=4)
    ps.add_argument("--cmax", type=nonneg_int, default=2)
    ps.add_argument("--parity", choices=["string", "dim4k", "dim4k2"],
                    default="string")
    ps.add_argument("--positive", action=argparse.BooleanOptionalAction,
                    default=True)
    ps.add_argument("--codim", action=argparse.BooleanOptionalAction,
                    default=True)
    ps.add_argument("--target-dim", type=int, default=None)
    ps.add_argument("--q-order", type=nonneg_int, default=None)
    ps.set_defaults(fn=cmd_search)
    return p


def run(argv=None):
    if argv is None and hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    args = build_parser().parse_args(argv)
    try:
        default_q_order()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_INPUT
    else:
        code = args.fn(args)
    return sys.exit(code) if argv is None else code
