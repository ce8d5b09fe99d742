"""The Fourier symbols with a zero-mode rule, and the quadratic product,
are formed in one place.

|xi|^beta with its zero-mode value lives in ``Grid.power`` and the
translation phase exp(-i xi . x0) in ``Grid.shift_phase``; every other
module calls them instead of writing the symbol out again.  The product
v_j v_k of the advection term is formed only in
``spectral._advection_divergence``.
"""

import ast
import pathlib
import re

import pytest

import fracns

SRC = pathlib.Path(fracns.__file__).parent


def _hits(pattern):
    rx = re.compile(pattern)
    return [
        (path.name, lineno)
        for path in sorted(SRC.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if rx.search(line)
    ]


def _grid_method_lines(name):
    tree = ast.parse((SRC / "spectral.py").read_text())
    grid = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Grid")
    method = next(n for n in grid.body if isinstance(n, ast.FunctionDef) and n.name == name)
    return range(method.lineno, method.end_lineno + 1)


@pytest.mark.parametrize(
    "pattern, home",
    [
        (r"==\s*0(\.0*)?\s*,\s*1(\.0*)?\b", "power"),  # the zero-mode guard
        (r"exp\(\s*-\s*1j\s*\*\s*\(.*xi", "shift_phase"),
    ],
    ids=["zero_mode_guard", "shift_phase"],
)
def test_symbol_formed_once_inside_grid(pattern, home):
    hits = _hits(pattern)
    assert len(hits) == 1, hits
    name, lineno = hits[0]
    assert name == "spectral.py" and lineno in _grid_method_lines(home), hits


@pytest.mark.parametrize(
    "pattern", [r"kmag\s*\*\*", r"/\s*[\w.]*\bk2\b"], ids=["kmag_power", "k2_division"]
)
def test_no_hand_built_power(pattern):
    assert _hits(pattern) == []


def test_quadratic_product_formed_once():
    # div(v (x) v) is assembled in spectral._advection_divergence alone
    hits = _hits(r"phys\[j\]\s*\*\s*phys\[k\]")
    assert [name for name, _ in hits] == ["spectral.py"], hits
    assert _hits(r"_quadratic_products") == []
