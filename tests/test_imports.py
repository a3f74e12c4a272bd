"""No source, test, demo or tool file imports a name it never uses.

Each file is parsed with `ast`.  A name bound by an import counts as used
when the file reads it anywhere (a bare name, or the base of an attribute
chain) or lists it in the module's `__all__`; `from __future__` imports
bind nothing and are skipped.  Every name in `wittenq.__all__` must also
exist, so that `from wittenq import *` works, and a name removed from the
public API must not import.
"""

import ast
from pathlib import Path

import pytest

import wittenq
from wittenq import nilring, qseries, search, theta

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for folder in ("src", "tests", "demos", "tools")
               for path in (ROOT / folder).rglob("*.py"))


def _unused_imports(path):
    """(line, name) of every imported name the file never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_every_imported_name_is_used():
    names = {path.relative_to(ROOT).as_posix() for path in FILES}
    assert {"src/wittenq/genera.py", "tests/test_imports.py",
            "demos/theta_identities.py", "tools/bench_pairs.py"} <= names
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in FILES for line, name in _unused_imports(path)]
    assert unused == []


def test_an_unused_import_is_found(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from __future__ import annotations\n"
                    "import os.path\nimport sys\n"
                    "from math import comb as choose, gcd\n"
                    "from fractions import Fraction\n"
                    "__all__ = ['Fraction']\n"
                    "print(os.sep, gcd(4, 6))\n")
    assert _unused_imports(path) == [(3, "sys"), (4, "choose")]


def test_every_public_name_exists():
    # a name left in __all__ after its definition is gone breaks
    # `from wittenq import *`
    assert [name for name in wittenq.__all__
            if not hasattr(wittenq, name)] == []


def test_removed_names_are_not_importable():
    # subst_linear (a rank_pair_mul with the constant 1), sigma1_series
    # (theta.eisenstein_g(1, .)), psi (direction_series([(kind, 1, 1)],
    # ...)), is_spin, is_string and is_stringc (condition_report(g)'s
    # fields), lemma42_check (lemma42_report(q)["passed"]) and
    # CapsMismatchError (raised only by the removed top_product) left the
    # public API
    for name in ("subst_linear", "sigma1_series", "psi", "is_spin",
                 "is_string", "is_stringc", "lemma42_check",
                 "CapsMismatchError"):
        with pytest.raises(ImportError):
            exec(f"from wittenq import {name}", {})


def test_removed_members_are_gone():
    # jacobi_product folded into jacobi_check and power into
    # QSeries.__pow__; truncate and FoundInstance.key had no src caller;
    # the bundle route's residue needs neither mul_univariate nor
    # top_product
    assert not hasattr(theta, "jacobi_product")
    assert not hasattr(nilring, "mul_univariate")
    assert not hasattr(nilring, "top_product")
    assert not hasattr(qseries, "power")
    assert not hasattr(wittenq.QSeries, "truncate")
    assert not hasattr(search.FoundInstance, "key")
    # a record that holds a dict of lists does not hash by value
    with pytest.raises(TypeError, match="unhashable"):
        hash(wittenq.NilPoly._make((1,), 0, {(0,): [1]}, 1))
