"""The benchmark's workloads: fixed case sets, their set-up and output gates.

Every workload runs through wittenq's public functions only.  A case is
one genus computation or one `wittenq verify --suite` invocation; the seed
permutes the order of the cases and never changes which cases run.

The q-orders are below the ones the acceptance tests use (12 for the mass
run, 20 for the CLI default) so that one run, set-up included, fits the
benchmark's time budget with every case repeated.  The q-order changes how
the time splits over the layers, so the split is the one the traced run
(--trace 1) shows at these q-orders.  At the seed commit:

- catalog_1f: the search, in set-up; then many short q-series products,
  called from the residue and the factor build (qseries.mul, then
  theta.uni_mul and rank_pair_mul).  subst_linear is about 0.2 % of a
  pass, also at q-order 4.
- heavy_2f: the nilring residue (general NilPoly products, top_product);
  the factor build is in set-up.
- cold_build: the factor builders of theta and qseries at long x and at
  long q; the only workload that reaches bundles and modforms.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

PACKAGE = "wittenq"
CONTROLS_FILE = Path(__file__).with_name("controls.json")

CATALOG_Q = 2
HEAVY_Q = 4
COLD_Q = 8
SUITES_Q = 32


@dataclass(frozen=True)
class Case:
    kind: str             # "W" | "Wc" | "phi2" | "suite"
    n: tuple = ()         # for "suite": the suite name in `n`
    D: tuple = ()
    C: tuple | None = None
    q_order: int = 0
    control: bool = False  # nonvanishing: compared with controls.json

    @property
    def label(self):
        if self.kind == "suite":
            return f"verify --suite {self.n} --q-order {self.q_order}"
        c = f" C={list(self.C)}" if self.C is not None else ""
        return (f"{self.kind} n={list(self.n)} D={[list(r) for r in self.D]}"
                f"{c} q={self.q_order}")


@dataclass(frozen=True)
class Workload:
    name: str
    fresh: str   # empty caches for every "case", every "pass", or "none"
    warm: bool   # set-up runs every case once, filling the caches
    cases: object  # callable(package) -> list[Case]: builds the inputs
    pass_s: float  # one pass at the seed commit; fixes the passes per run
    setup_rounds: int  # set-up rounds per run; setup_s is their median
    round_size: int    # set-ups per round; a round keeps its fastest


def load_package():
    """Import wittenq afresh: new module objects, so every cache is empty."""
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    return package


def cache_counts(package):
    """(hits, misses) summed over the lru caches of wittenq.genera."""
    infos = [v.cache_info() for v in vars(package.genera).values()
             if hasattr(v, "cache_info")]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


# -- case sets ---------------------------------------------------------

def catalog_cases(package):
    """The catalog, refused if the search no longer finds the recorded set."""
    cases = enumerate_catalog(package)
    digest = catalog_digest(cases)
    expected = load_controls()["catalog_sha256"]
    if digest != expected:
        raise RuntimeError(f"catalog changed: {len(cases)} cases, sha256 "
                           f"{digest}, expected {expected}")
    return cases


def enumerate_catalog(package):
    """The one-factor cases of the acceptance mass run, found by the search.

    Enumerates with the mass run's SearchQuery, keeps the instances over
    one projective factor and assigns each genus the way
    `wittenq verify --suite vanishing` does (one of each C, -C pair).
    """
    search, gci = package.search, package.gci
    query = search.SearchQuery(q_order=CATALOG_Q)
    cases = []
    for inst in search.find_string(query):
        g = inst.g
        if g.s != 1:
            continue
        if gci.dims(g)[1] % 4 == 0:
            cases.append(Case("W", g.n, g.D, None, CATALOG_Q))
        if gci.thm42_ok(g)[0]:
            cases.append(Case("phi2", g.n, g.D, None, CATALOG_Q))
    for parity in ("dim4k", "dim4k2"):
        for inst in search.find_stringc(query, parity):
            g = inst.g
            if g.s != 1 or next((c for c in g.C if c), 0) < 0:
                continue
            cases.append(Case("Wc", g.n, g.D, g.C, CATALOG_Q))
    return cases


def catalog_digest(cases):
    text = "\n".join(sorted(c.label for c in cases))
    return hashlib.sha256(text.encode()).hexdigest()


# The two vanishing heavy cases come from the mass run's two-factor tail:
# four degree rows plus the twist give five linear-form factors and one
# general NilPoly product; three rows give four and none.
#
# A nonvanishing control must be nonzero at its q-order: W_c of (7,19)
# starts at q^6.  W of V(6,6,6,5) in CP^22 (spin, c_1 = 0, not string) is
# nonzero from q^0.

def heavy_cases(package):
    q = HEAVY_Q
    return [Case("Wc", (24, 24), ((1, 2), (2, 1), (2, 2), (2, 2)), (2, -2), q),
            Case("Wc", (17, 38), ((1, 3), (1, 3), (2, 3)), (2, -2), q),
            Case("Wc", (7, 19), ((1, 2), (2, 2)), (1, 2), 8, control=True)]


def cold_cases(package):
    q = COLD_Q
    return [Case("W", (56,), ((3,), (4,), (4,), (4,)), None, q),
            Case("phi2", (49,), ((3,), (3,), (4,), (4,)), None, q),
            Case("W", (22,), ((6,), (6,), (6,), (5,)), None, q, control=True)
            ] + [Case("suite", name, q_order=SUITES_Q)
                 for name in ("theta", "bundles", "modular")]


# Why each workload is there is said once, in BENCHMARK.json.
WORKLOADS = {w.name: w for w in [
    Workload("catalog_1f", fresh="pass", warm=False, cases=catalog_cases,
             pass_s=5.3, setup_rounds=3, round_size=1),
    Workload("heavy_2f", fresh="none", warm=True, cases=heavy_cases,
             pass_s=2.3, setup_rounds=3, round_size=1),
    Workload("cold_build", fresh="case", warm=False, cases=cold_cases,
             pass_s=4.8, setup_rounds=9, round_size=8),
]}


# -- running and checking one case ---------------------------------------

_SUITE_LINE = re.compile(r"^\[(\w+)\] (\d+) passed, (\d+) failed$", re.M)


def run_case(package, case):
    """Compute one case through the package's public entry points."""
    if case.kind == "suite":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = package.cli.run(["verify", "--suite", case.n,
                                    "--q-order", str(case.q_order)])
        return code, out.getvalue()
    g = package.GCIData(case.n, case.D, case.C, q_order=case.q_order)
    genera = package.genera
    fn = {"W": genera.witten_genus, "Wc": genera.wc_genus,
          "phi2": genera.mod2_witten}[case.kind]
    return fn(g)


def check_case(case, result, controls):
    """None if the output is right, else a one-line reason."""
    if case.kind == "suite":
        code, text = result
        lines = _SUITE_LINE.findall(text)
        if code != 0 or len(lines) != 1 or lines[0][0] != case.n \
                or int(lines[0][1]) < 1 or int(lines[0][2]) != 0:
            return f"suite exit {code}: {text.strip()!r}"
        return None
    if case.control:
        got = [str(c) for c in result.coeffs.coeffs]
        want = controls["values"].get(case.label)
        return None if got == want else f"control {got} != recorded {want}"
    if case.kind == "phi2" and not result.precursor.is_integral():
        return "phi2 precursor not integral"
    if not result.coeffs.is_zero():
        return "vanishing genus is nonzero"
    return None


def load_controls():
    with open(CONTROLS_FILE) as fh:
        return json.load(fh)
