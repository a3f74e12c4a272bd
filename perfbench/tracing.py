"""Per-layer spans and counters, recorded from outside the wittenq package.

The tracer wraps wittenq's public functions and methods after import and
rebinds every name that refers to them: `genera` imports the `nilring`
functions by name, `search` imports the `gci` checkers by name, and
`__rmul__ = __mul__` aliases hold the original function, so patching only
the defining module would miss most calls.

Spans are folded into per-name totals as they close, because the heavy
workloads open millions of them.  A span's self time is its duration minus
the time covered by the spans it opened; one thread runs the program, so
child spans never overlap and that coverage is the sum of their durations.
The counting hooks (coefficient products, kept pairs, bit sizes) are
timed and left out of both the self times and the genera.build_s and
genera.residue_s group times.
"""
from __future__ import annotations

import functools
import itertools
import math
import sys
import time
from collections import Counter

# span name -> (module, attribute paths, group).  Missing attributes are
# skipped (the span then reports zero calls), so the tracer keeps working
# when a later version of the package moves or removes a function.
SPANS = {
    "qseries.mul": ("qseries", ["QSeries.__mul__"], None),
    "qseries.inv": ("qseries", ["QSeries.inv_unit"], None),
    "theta.phi": ("theta", ["phi"], "build"),
    "theta.psi": ("theta", ["psi"], "build"),
    "theta.psi_product": ("theta", ["psi_product"], "build"),
    "theta.x_over_phi": ("theta", ["x_over_phi"], "build"),
    "theta.uni_mul": ("theta", ["UniSeries.__mul__"], "build"),
    "theta.uni_inv": ("theta", ["UniSeries.inv_unit"], "build"),
    "bundles.root_factor": ("bundles", ["root_factor"], "build"),
    "bundles.lfactor_4k": ("bundles", ["lfactor_4k"], "build"),
    "bundles.lfactor_4k2": ("bundles", ["lfactor_4k2"], "build"),
    "bundles.lemma42": ("bundles", ["lemma42_report"], None),
    "nilring.subst_linear": ("nilring", ["subst_linear"], "residue"),
    "nilring.rank_pair_mul": ("nilring", ["rank_pair_mul"], "residue"),
    "nilring.mul_univariate": ("nilring", ["mul_univariate"], "residue"),
    "nilring.poly_mul": ("nilring", ["NilPoly.__mul__"], "residue"),
    "nilring.top_product": ("nilring", ["NilPoly.top_product"], "residue"),
    "genera.genus": ("genera", ["witten_genus", "wc_genus", "mod2_witten"],
                     "genus"),
    "gci.condition_report": ("gci", ["condition_report"], None),
    "search.find_string": ("search", ["find_string"], None),
    "search.find_stringc": ("search", ["find_stringc"], None),
    "modforms.fit": ("modforms", ["fit"], None),
    "modforms.eisenstein": ("modforms", ["eisenstein"], None),
    "cli.suite": ("cli", ["suite_theta", "suite_bundles", "suite_vanishing",
                          "suite_modular"], None),
}

# Counted calls without a span, rebound only in the calling module named
# here: the search's instance tests, not condition_report's own use.
CHECK_COUNTERS = [("search", "is_string"), ("search", "is_stringc")]


def coeff_mults(a, b):
    """Scalar products a QSeries product performs on nonzero coefficients.

    For two series: the nonzero pairs (i, j) with i + j within the order.
    For a scalar factor: one per coefficient.
    """
    if not hasattr(b, "coeffs"):
        return len(a.coeffs)
    if getattr(b, "order", None) != a.order:
        return 0
    prefix, count = [], 0
    for c in b.coeffs:
        count += bool(c)
        prefix.append(count)
    return sum(prefix[a.order - i] for i, c in enumerate(a.coeffs) if c)


def kept_pairs(caps, a_terms, b_terms):
    """Monomial pairs of a NilPoly product whose sum stays inside the caps.

    A cumulative count of b's exponents over the cap grid answers, for each
    exponent of a, how many exponents of b fit in the complement.
    """
    grid = Counter(dict.fromkeys(b_terms, 1))
    cells = list(itertools.product(*[range(c + 1) for c in caps]))
    for axis in range(len(caps)):
        for e in cells:  # lexicographic: e minus one step on axis came first
            if e[axis]:
                grid[e] += grid[e[:axis] + (e[axis] - 1,) + e[axis + 1:]]
    return sum(grid[tuple(c - x for c, x in zip(caps, e))] for e in a_terms)


def coeff_bits(series):
    """Largest numerator or denominator size, in bits, of a QSeries."""
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in series.coeffs), default=0)


class Tracer:
    """Spans and counters for one process; install() after each import."""

    def __init__(self):
        self.spans = {name: [0, 0.0] for name in SPANS}
        self.counts = Counter()
        self.covered = Counter()  # group -> outermost time inside a genus
        self.missing = set()
        self._depth = Counter()
        self._stack = []
        self._hook_s = [0.0]  # running total of time spent in counting hooks
        self._patched = []

    def take(self):
        """Return the totals recorded so far and start again from zero."""
        snap = {"spans": {n: tuple(v) for n, v in self.spans.items()},
                "counts": dict(self.counts), "covered": dict(self.covered)}
        for v in self.spans.values():
            v[0], v[1] = 0, 0.0
        self.counts.clear()
        self.covered.clear()
        return snap

    # -- patching -----------------------------------------------------

    def install(self, package):
        """Wrap the package's functions and rebind every name that holds one."""
        self.uninstall()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package.__name__
                                         or n.startswith(package.__name__ + "."))]
        for name, (mod_name, paths, group) in SPANS.items():
            module = sys.modules.get(f"{package.__name__}.{mod_name}")
            for path in paths:
                owner, attr = _resolve(module, path)
                if owner is None:
                    self.missing.add(f"{mod_name}.{path}")
                    continue
                original = vars(owner)[attr]
                wrapper = self._span(name, group, original)
                if isinstance(owner, type):
                    self._rebind([owner], original, wrapper)
                else:
                    self._rebind(modules, original, wrapper)
        for mod_name, attr in CHECK_COUNTERS:
            module = sys.modules.get(f"{package.__name__}.{mod_name}")
            if module is None or not callable(vars(module).get(attr)):
                self.missing.add(f"{mod_name}.{attr}")
                continue
            original = vars(module)[attr]
            self._rebind([module], original, self._counter(original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _rebind(self, owners, original, wrapper):
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, wrapper)
                    self._patched.append((owner, attr, original))

    # -- wrappers -----------------------------------------------------

    def _counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["search.checks"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, name, group, fn):
        stats = self.spans[name]
        stack, depth, covered = self._stack, self._depth, self.covered
        counts, clock = self.counts, time.perf_counter
        hooked = self._hook_s
        before, after = _HOOKS.get(name, (None, None))

        def hook(count, value):
            # the counting is overhead, kept out of the caller's self time
            # and out of the group time of the outermost span around it
            t0 = clock()
            count(counts, value)
            dt = clock() - t0
            hooked[0] += dt
            if stack:
                stack[-1][1] += dt

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "nilring.poly_mul" and not hasattr(args[1], "terms"):
                return fn(*args, **kwargs)  # scaling, not a ring product
            if before is not None:
                hook(before, args)
            if group:
                depth[group] += 1
            frame = [clock(), 0.0, hooked[0]]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                stats[0] += 1
                stats[1] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if group:
                    depth[group] -= 1
                    if group != "genus" and not depth[group] and depth["genus"]:
                        covered[group] += dur - (hooked[0] - frame[2])
            if after is not None:
                hook(after, result)
            return result
        return wrapper


def _resolve(module, path):
    """(owner, attribute) for 'name' or 'Class.name' if it is defined there."""
    if module is None:
        return None, None
    *cls, attr = path.split(".")
    owner = getattr(module, cls[0], None) if cls else module
    if owner is None or not callable(vars(owner).get(attr)):
        return None, None
    return owner, attr


def _count_mul(counts, args):
    counts["qseries.mul.coeff_mults"] += coeff_mults(args[0], args[1])


def _count_poly_mul(counts, args):
    a, b = args[0], args[1]
    counts["nilring.poly_mul.term_pairs"] += len(a.terms) * len(b.terms)
    counts["nilring.poly_mul.kept_pairs"] += kept_pairs(a.caps, a.terms,
                                                        b.terms)


def _count_grid(counts, args):
    counts["nilring.cap_grid"] += math.prod(n + 1 for n in args[0].n)


def _count_bits(counts, report):
    series = report.precursor if report.precursor is not None else report.coeffs
    counts["scalar.max_bits"] = max(counts["scalar.max_bits"],
                                    coeff_bits(series))


def _count_factor_bits(counts, factor):
    """Largest coefficient of a built factor (a series in x over QSeries)."""
    counts["scalar.max_bits"] = max([counts["scalar.max_bits"]]
                                    + [coeff_bits(c) for c in factor.coeffs])


def _count_found(counts, found):
    counts["search.found"] += len(found)


_HOOKS = {
    **{name: (None, _count_factor_bits) for name in [
        "theta.phi", "theta.psi", "theta.psi_product", "theta.x_over_phi",
        "bundles.root_factor", "bundles.lfactor_4k", "bundles.lfactor_4k2"]},
    "qseries.mul": (_count_mul, None),
    "nilring.poly_mul": (_count_poly_mul, None),
    "genera.genus": (_count_grid, _count_bits),
    "search.find_string": (None, _count_found),
    "search.find_stringc": (None, _count_found),
}
