"""Command-line surface: instance files in, genus reports and verdicts out.

Exit codes: 0 success, 1 verification-suite failure, 2 malformed input,
3 precondition failure, 4 internal integrality failure.  The q-order is
--q-order if given, else an instance file's q_order, else
DEFAULT_Q_ORDER (20), except `verify --suite vanishing`, which runs at
q-order 12 unless given --q-order.  A negative or non-integer q-order,
from either source, is malformed input; `verify` of the modular suite
(alone or in `all`) below q-order 4, too short to fit at weight 24, is a
precondition failure before any suite runs.  `search` bounds, its
--q-order too, parse as ints and SearchQuery is their one check: a
refused bound is malformed input, named by its field.
Run as a program, wittenq dies quietly of SIGPIPE.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import signal
import sys

from . import __version__, bundles, modforms, theta
from .errors import DimensionError, NonIntegralError
from .gci import DEFAULT_Q_ORDER, GCIData, condition_report
from .genera import mod2_witten, wc_genus, witten_genus
from .qseries import QSeries, _check_int
from .search import SearchQuery, find_string, find_stringc

EXIT_OK = 0
EXIT_SUITE = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_INTEGRALITY = 4


def nonneg_arg(name):
    """The argparse type of the int >= 0 `name`: text that is not one is
    refused with `_check_int`'s message for that field."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = text  # not an int: refused by type below
        try:
            _check_int(value, name)
        except (TypeError, ValueError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return parse


# "conditions" is in every `wittenq search` line; it is recomputed, not read
_INSTANCE_KEYS = {"n", "D", "C", "q_order", "conditions"}


def _load_instance(path, q_order=None):
    """The file's instance, or None after its fault is printed to stderr."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or "n" not in doc or "D" not in doc:
            raise ValueError("instance file must be an object with 'n' and "
                             "'D'")
        unknown = sorted(set(doc) - _INSTANCE_KEYS)
        if unknown:
            raise ValueError(f"unknown instance keys {unknown}; allowed are "
                             f"{sorted(_INSTANCE_KEYS)}")
        qo = q_order if q_order is not None else doc.get("q_order",
                                                         DEFAULT_Q_ORDER)
        return GCIData(doc["n"], doc["D"], doc.get("C"), q_order=qo)
    except (OSError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


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
    g = _load_instance(args.instance)
    if g is None:
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
    g = _load_instance(args.instance, args.q_order)
    if g is None:
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
        try:
            ft = modforms.fit(rep.coeffs, rep.weight)
            doc["modular_fit"] = dataclasses.asdict(ft)
            if ft.solution is not None:
                doc["modular_fit"]["solution"] = [str(v) for v in ft.solution]
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
    results["lemma42"] = bundles.lemma42_report(q_order)["passed"]
    results["lemma42_negative_control"] = not bundles.lemma42_report(
        q_order, flip_sign=True)["passed"]
    return results


def vanishing_cases(query):
    """(label, instance, genus) triples for every theorem-qualified
    instance: genus is witten_genus, mod2_witten or wc_genus, and the
    theorem says genus(instance).coeffs is zero."""
    cases = []
    for inst in find_string(query):
        g, rep = inst.g, inst.report
        if rep.dims[1] % 4 == 0:
            cases.append(("W", g, witten_genus))
        if rep.thm42_ok:
            cases.append(("phi2", g, mod2_witten))
    for parity in ("dim4k", "dim4k2"):
        for inst in find_stringc(query, parity):
            g = inst.g
            # C and -C give the same genus up to overall sign (the twist is
            # even or odd in ell_c), so vanishing needs only one of the pair
            first = next((c for c in g.C if c), 0)
            if first < 0:
                continue
            cases.append(("Wc", g, wc_genus))
    return cases


def suite_vanishing(q_order):
    results = {}
    for label, g, genus in vanishing_cases(SearchQuery(q_order=q_order)):
        name = f"{label} n={list(g.n)} D={[list(r) for r in g.D]}" + (
            f" C={list(g.C)}" if g.C is not None else "")
        results[name] = genus(g).coeffs.is_zero()
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
            ok = ok and ft.ok
        results[f"roundtrip_weight_{weight}"] = ok
    e2 = modforms.lift(modforms.eisenstein(2, tilde), q_order)
    results["E2_rejected"] = not modforms.fit(e2, 2).ok
    results["theta_constant_E4"] = modforms.theta_constant_e4_check(
        max(tilde, 10))
    return results


def cmd_verify(args):
    q_order = args.q_order if args.q_order is not None else DEFAULT_Q_ORDER
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
    try:
        query = SearchQuery(s_max=args.s, t_max=args.t, d_max=args.dmax,
                            c_max=args.cmax, positive=args.positive,
                            require_codim=args.codim,
                            target_real_dim=args.target_dim,
                            q_order=args.q_order)
    except ValueError as exc:
        args.error(str(exc))  # argparse's refusal: usage, message, exit 2
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
    pg.add_argument("--q-order", type=nonneg_arg("q_order"), default=None)
    pg.add_argument("--modfit", action="store_true")
    pg.add_argument("--even-row", type=nonneg_arg("even_row"), default=None)
    pg.add_argument("--out", default=None)
    pg.set_defaults(fn=cmd_genus)

    pv = sub.add_parser("verify", help="run property suites")
    pv.add_argument("--suite",
                    choices=["theta", "bundles", "vanishing", "modular", "all"],
                    default="all")
    pv.add_argument("--q-order", type=nonneg_arg("q_order"), default=None)
    pv.set_defaults(fn=cmd_verify)

    ps = sub.add_parser("search", help="enumerate instances within bounds")
    ps.add_argument("--s", type=int, default=2)
    ps.add_argument("--t", type=int, default=4)
    ps.add_argument("--dmax", type=int, default=4)
    ps.add_argument("--cmax", type=int, default=2)
    ps.add_argument("--parity", choices=["string", "dim4k", "dim4k2"],
                    default="string")
    ps.add_argument("--positive", action=argparse.BooleanOptionalAction,
                    default=True)
    ps.add_argument("--codim", action=argparse.BooleanOptionalAction,
                    default=True)
    ps.add_argument("--target-dim", type=int, default=None)
    ps.add_argument("--q-order", type=int, default=DEFAULT_Q_ORDER)
    ps.set_defaults(fn=cmd_search, error=ps.error)
    return p


def run(argv=None):
    if argv is None and hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    args = build_parser().parse_args(argv)
    code = args.fn(args)
    return sys.exit(code) if argv is None else code
