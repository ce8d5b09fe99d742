"""The Fourier symbols with a zero-mode rule, and the quadratic product,
are formed in one place.

The wavenumbers xi are held by one class, ``spectral.Lattice``, whose three
instances are the half lattice, the dealias cube and the octant; only the
cube adds a Parseval sum, its lifts and its runs of rows, and a Grid holds
real space alone.  |xi|^beta with its zero-mode value lives in
``Lattice.power`` and the translation phase exp(-i xi . x0) in
``Lattice.shift_phase``; every other module calls them instead of writing the
symbol out again.  The product
v_j v_k of the advection term is formed only in
``spectral._advection_divergence``.  Transforms are taken in ``spectral``
alone, through ``numpy.fft`` one axis at a time, and are real: rfftn/irfftn's
stages between samples and the half lattice, the pruned pair between samples
and the dealias cube, and ``_irfftn_at``, irfftn's stages pruned to a sub-box
of rows, which ``kernel_tensor`` takes.  No n-d transform is taken, and the
one-axis complex stages (fft/ifft) appear in those five helpers and nowhere
else.  The real one-axis DCT-I/DST-I stages, from the octant of a symbol even
or odd along each axis to the octant of its samples, are rffts of an
extension in ``_dct1_or_dst1`` alone, which ``octant_to_real`` alone calls.
The half-lattice pair takes a vector field's three
components in one call, never one at a time, and ``asymptotics`` lifts a
field through ``solver.lift_force`` rather than projecting it by hand.  The
2/3 rule, the CSVs and the report are not options: no parameter or field
turns them off.  Nor are the constants every run uses (the kernel's read-off
shell, the certificate floors, the blow-up factor, the box-center origin):
the parameters and fields that once held them are gone.  The order alpha is
passed as a float, with no wrapper class around it.  The driver echoes its
config through ``dataclasses.asdict``, writes ``report.json`` in one function,
and sorts run errors into exit codes in one ``except`` branch.  Every public
module-level name is read by a run or by the acceptance criteria, not by a
unit test alone, but for one named exception.  No function branches on the
lattice a field is held on, a half lattice or a dealias cube.
The Picard map, its Parseval sums, the residual, the kernel's parts and its
sphere bound, and the cube rotations of a symmetrized force call no BLAS routine.
The passes that ``spectral._by_slabs`` runs on the pool take no transform but
one-axis ``numpy.fft`` stages with ``out=``, call no public function (the
tracer's spans wrap those, on one stack) and make no array, and neither
``import fracns`` nor a run of any experiment imports scipy; the import
starts no thread.
Dealiasing is defined on the dealias cube (``Lattice.dealias_cube``) and the
minimum image in ``spectral.min_image``: neither a Grid nor another lattice
holds a dealias mask, and no other line writes the minimum image out.
"""

import ast
import builtins
import os
import pathlib
import re
import subprocess
import sys

import pytest

import fracns
from fracns import cli, spectral

SRC = pathlib.Path(fracns.__file__).parent
TESTS = pathlib.Path(__file__).parent


def _hits(pattern):
    rx = re.compile(pattern)
    return [
        (path.name, lineno)
        for path in sorted(SRC.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if rx.search(line)
    ]


def _spectral_def_lines(*path, module="spectral.py"):
    """Lines of the definition reached through ``path`` (class, then method) in
    ``module``, spectral.py unless named."""
    body = ast.parse((SRC / module).read_text()).body
    for name in path:
        defs = (n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef)))
        node = next(n for n in defs if n.name == name)
        body = node.body
    return range(node.lineno, node.end_lineno + 1)


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
    assert name == "spectral.py" and lineno in _spectral_def_lines("Lattice", home), hits


def _holds_xi(cls):
    """True when class ``cls`` defines ``xi`` in its body, or sets an attribute
    ``xi``, by assignment or ``object.__setattr__``."""
    for node in ast.walk(cls):
        stored = isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        if stored and node.attr == "xi":
            return True
        if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "__setattr__"
                and any(isinstance(a, ast.Constant) and a.value == "xi" for a in node.args)):
            return True
    return any(name == "xi" for stmt in cls.body for name in _defines(stmt))


def test_only_the_lattice_holds_xi():
    # the wavenumbers are held by one class; no other sets an xi of its own, and
    # no function sets one on an object
    holders, stores = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        holders += [(path.name, c.name) for c in ast.walk(tree)
                    if isinstance(c, ast.ClassDef) and _holds_xi(c)]
        stores += [(path.name, n.lineno) for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                   and n.attr == "xi" and isinstance(n.ctx, ast.Store)]
    assert holders == [("spectral.py", "Lattice")], holders
    lines = _spectral_def_lines("Lattice")
    assert stores and all(name == "spectral.py" and line in lines for name, line in stores), stores
    assert not hasattr(spectral.Grid(8, 1.0), "xi")


@pytest.mark.parametrize(
    "pattern", [r"kmag\s*\*\*", r"/\s*[\w.]*\bk2\b"], ids=["kmag_power", "k2_division"]
)
def test_no_hand_built_power(pattern):
    assert _hits(pattern) == []


def test_quadratic_product_formed_once():
    # div(v (x) v) is assembled in spectral._advection_divergence alone, its
    # products written as phys[j] * phys[k] or np.multiply(phys[j], phys[k], ...)
    hits = _hits(r"phys\[j\]\s*[*,]\s*phys\[k\]")
    assert [name for name, _ in hits] == ["spectral.py"], hits
    assert hits[0][1] in _spectral_def_lines("_advection_divergence"), hits
    assert _hits(r"_quadratic_products") == []


# retired parameters and fields, by the function or class that had them
RETIRED = {
    "build_kernel": ("sphere_points", "shell"),
    "HomogeneousKernel": ("sphere_points",),
    "contract_smoothing_defect": ("terms",),
    "radial_profile": ("origin", "statistic"),
    "weighted_sup_norm": ("origin",),
    "profile_term_on_grid": ("origin", "split_width"),
    "profile_decomposition": ("origin", "statistic"),
    "fit_decay_exponent": ("window",),
    "_bv_sample_directions": ("per_axis",),
    "bv_scalar_test": ("tol",),
    "nonexistence_certificate": ("deviation_floor", "bound_floor"),
    "stable_dt": ("safety",),
    "_bump_window": ("sharpness",),
    "scaling_check": ("include_bilinear", "params"),
    "SolverConfig": ("divergence_factor", "params"),
    # the contraction data is measured by contraction_metrics, for the runs that report it
    "SolverDiagnostics": ("lifted_force_lorentz_norm", "empirical_bilinear_constant",
                          "contraction_product", "two_ball_ok", "solution_lorentz_norm",
                          "residual"),
    "RunConfig": ("divergence_factor",),
    # alpha travels as a float, not wrapped in a one-field FracParams
    "apply_bilinear": ("params",),
    "lift_force": ("params",),
    "_residual_terms": ("params",),
    "residual": ("params",),
    "evolve_mild": ("params", "store_every"),
    # the Morrey norm is measured about the box center, one radius per call
    "morrey_norm": ("centers", "radii"),
}


def test_alpha_not_wrapped():
    assert not hasattr(fracns, "FracParams") and "FracParams" not in fracns.__all__
    assert _hits(r"\bFracParams\b") == []


def test_no_switch_for_the_method():
    names = []  # (file, line, owning function or class, parameter or field name)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                owner = getattr(node, "name", "<lambda>")
                names += [(path.name, a.lineno, owner, a.arg) for a in ast.walk(node.args)
                          if isinstance(a, ast.arg)]
            elif isinstance(node, ast.ClassDef):
                names += [(path.name, s.lineno, node.name, s.target.id) for s in node.body
                          if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    switches = [x for x in names if x[3] in ("dealias", "emit_csv", "emit_json")]
    retired = [x for x in names if x[3] in RETIRED.get(x[2], ())]
    assert names and switches == [] and retired == [], switches + retired


# read by unit tests alone, and kept: the documented pressure
UNREAD_KEPT = {"recover_pressure"}


def _reads(node):
    """The names a statement reads: loaded names and attribute names."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)}


def _defines(node):
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def test_every_public_name_has_a_reader():
    # a public module-level name is read by src code other than its own
    # definition (the cli.main entry point and what it calls), or by the
    # acceptance criteria; a name only a unit test reads is not kept
    statements = [node for path in sorted(SRC.glob("*.py"))
                  for node in ast.parse(path.read_text()).body]
    readers = [(node, _reads(node)) for node in statements
               if not isinstance(node, (ast.Import, ast.ImportFrom))]
    acceptance = _reads(ast.parse((TESTS / "test_acceptance.py").read_text()))
    public = [(name, node) for node in statements for name in _defines(node)
              if not name.startswith("_")]
    unread = sorted(name for name, node in public
                    if name not in acceptance | UNREAD_KEPT
                    and not any(name in names for other, names in readers if other is not node))
    assert public and unread == [], unread


def test_one_lattice_for_the_solver_stack():
    # the operators take a field held on a dealias cube, or read whichever lattice
    # it is on with one code path: no src function branches on the lattice type,
    # and the half-lattice entry points and the moves off the cube are gone
    branches = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                kinds = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node.args[1])
                         if isinstance(n, (ast.Name, ast.Attribute))}
                if kinds & {"Lattice", "Grid"}:
                    branches.append((path.name, node.lineno))
    assert branches == [], branches
    assert not hasattr(spectral, "to_spectral") and "to_spectral" not in fracns.__all__
    assert [name for name in ("restrict", "scatter") if hasattr(spectral.Lattice, name)] == []
    assert not hasattr(spectral, "_Cube")
    # only the cube, with no Nyquist plane, has a Parseval sum and the cube's moves
    g = spectral.Grid(8, 1.0)
    cube_only = ("lattice_sum", "row_runs", "lift")
    assert all(hasattr(spectral.Lattice.dealias_cube(g), name) for name in cube_only)
    for lattice in (g, spectral.Lattice.half(g), spectral.Lattice.octant(g)):
        assert [name for name in cube_only if hasattr(lattice, name)] == [], lattice


def test_dealias_mask_lives_in_the_cube():
    g = spectral.Grid(8, 1.0)
    assert [name for name in ("dealias_mask", "on_nyquist") if hasattr(g, name)] == []
    assert spectral.Lattice.dealias_cube(g).dealias_mask.any()
    others = (spectral.Lattice.half(g), spectral.Lattice.octant(g))
    assert [lattice for lattice in others if hasattr(lattice, "dealias_mask")] == []


@pytest.mark.parametrize(
    "pattern",
    [
        r"np\.minimum\(\s*(\w+)\s*,\s*[\w.]+\s*-\s*\1\b",  # np.minimum(dx, L - dx)
        r"%\s*[\w.]*\b(L|box_length)\b",  # (x + L/2) % L - L/2
        r"[<>]=?\s*-?\s*[\w.]*\b(L|box_length)\s*/\s*2\b",  # np.where(x > L / 2, x - L, x)
    ],
    ids=["minimum", "modulo", "where"],
)
def test_minimum_image_written_once(pattern):
    lines = _spectral_def_lines("min_image")
    outside = [(name, lineno) for name, lineno in _hits(pattern)
               if not (name == "spectral.py" and lineno in lines)]
    assert outside == [], outside


# the Picard map, its norms and the residual: each runs between FFT stages
BLAS_FREE = [
    ("spectral.py", ("_DealiasCube", "lattice_sum")),
    ("spectral.py", ("l2_norm",)),
    ("spectral.py", ("_leray",)),
    ("spectral.py", ("_advection_divergence",)),
    ("spectral.py", ("_cube_to_real",)),
    ("spectral.py", ("_real_to_cube",)),
    ("spectral.py", ("apply_bilinear",)),
    ("spectral.py", ("projected_advection",)),
    ("solver.py", ("solve_steady",)),
    ("solver.py", ("residual",)),
    # the kernel's sphere bound: its scan and Newton steps are einsum loops
    ("asymptotics.py", ("HomogeneousKernel", "bound_constant")),
    ("asymptotics.py", ("_sphere_maxima",)),
    ("asymptotics.py", ("_monomial_jets",)),
    ("asymptotics.py", ("_angular_values",)),
    # the kernel's parts between their transform stages, and the force's rotations
    ("spectral.py", ("kernel_tensor",)),
    ("spectral.py", ("_irfftn_at",)),
    ("forces.py", ("rotate_real_field",)),
]


@pytest.mark.parametrize("module, path", BLAS_FREE, ids=[p[-1] for _, p in BLAS_FREE])
def test_solver_stack_calls_no_blas(module, path):
    # an OpenBLAS call leaves its threads spinning against the FFT workers, and a
    # threaded reduction's bits follow the host's thread count
    lines = _spectral_def_lines(*path, module=module)
    hits = [(name, lineno) for name, lineno in
            _hits(r"\b(np|numpy)\.(vdot|dot|inner|matmul|tensordot|linalg)\b|\.dot\(|[\w)\]]\s*@")
            if name == module and lineno in lines]
    assert hits == [], hits


def test_transforms_taken_in_spectral_only():
    hits = _hits(r"\b(np|numpy)\.fft\b")
    assert hits and {name for name, _ in hits} == {"spectral.py"}, hits
    assert _hits(r"\b(scipy|sfft)\b") == []


# the one-axis stages, by the helpers that take them
STAGE_HOMES = {
    "fft": ("scalar_to_spectral", "_real_to_cube"),
    "ifft": ("scalar_to_real", "_irfftn_at", "_cube_to_real"),
    "rfft": ("scalar_to_spectral", "_real_to_cube", "_dct1_or_dst1"),
    "irfft": ("scalar_to_real", "_irfftn_at", "_cube_to_real"),
}


def test_no_full_complex_transform():
    # fftn/ifftn/fft2/ifft2 would carry both halves of a Hermitian spectrum, and
    # numpy's rfftn/irfftn take their stages in another order than pocketfft's;
    # each one-axis stage belongs to the helpers named for it, and each takes it
    assert _hits(r"\.i?r?fft[n2]\b") == []
    for stage, homes in STAGE_HOMES.items():
        hits = _hits(rf"\bnp\.fft\.{stage}\b")
        helpers = [_spectral_def_lines(name) for name in homes]
        assert {name for name, _ in hits} == {"spectral.py"}, (stage, hits)
        assert all(any(line in lines for lines in helpers) for _, line in hits), (stage, hits)
        assert all(any(line in lines for _, line in hits) for lines in helpers), (stage, hits)
    other = _hits(r"\bnp\.fft\.(?!(i?r?fft|fftfreq)\b)")
    assert other == [], other


def test_real_trigonometric_transforms_in_the_octant_helper_only():
    # DCT-I/DST-I are rffts of an extension, taken in _dct1_or_dst1, which the
    # octant helper alone calls; no dct/dst routine (or inverse, or n-d form) is called
    assert _hits(r"\bi?d[cs]tn?\(") == []
    stage = _spectral_def_lines("_dct1_or_dst1")
    calls = [hit for hit in _hits(r"\b_dct1_or_dst1\(") if hit[1] not in stage]
    lines = _spectral_def_lines("octant_to_real")
    assert calls and all(name == "spectral.py" and line in lines for name, line in calls), calls


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _operands(expr):
    """The arrays an arithmetic expression combines: its leaves under + - * / and
    unary minus (a call's arguments are not operands of the expression)."""
    if isinstance(expr, ast.BinOp):
        return _operands(expr.left) + _operands(expr.right)
    if isinstance(expr, ast.UnaryOp):
        return _operands(expr.operand)
    return [expr]


def _one_component(call, loops):
    """True when ``call`` transforms one component of a stack: an operand indexed
    by a name or an integer (``x[i]``, ``u.data[c]``), or bound by an enclosing
    loop (``for h in hats``)."""
    bound = set().union(*(_names(loop.target) for loop in loops))
    for leaf in (leaf for arg in call.args for leaf in _operands(arg)):
        if isinstance(leaf, ast.Name) and leaf.id in bound:
            return True
        if isinstance(leaf, ast.Subscript) and (
            isinstance(leaf.slice, ast.Name)
            or isinstance(leaf.slice, ast.Constant) and isinstance(leaf.slice.value, int)
        ):
            return True
    return False


def test_vector_fields_transformed_in_one_call():
    found, bad = [], []

    def visit(node, path, loops):
        if isinstance(node, ast.For):
            loops = loops + [node]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            loops = loops + node.generators
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
            "scalar_to_real", "scalar_to_spectral"
        ):
            found.append((path.name, node.lineno))
            if _one_component(node, loops):
                bad.append((path.name, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, path, loops)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, [])
    assert found and bad == [], bad


def test_asymptotics_lifts_through_lift_force():
    tree = ast.parse((SRC / "asymptotics.py").read_text())
    names = _names(tree) | {a.name for n in ast.walk(tree)
                            if isinstance(n, ast.ImportFrom) for a in n.names}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert "lift_force" in names and "leray_project" not in names


def test_one_report_writer():
    tree = ast.parse((SRC / "cli.py").read_text())
    functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    writers = [f.name for f in functions
               if any(isinstance(c, ast.Constant) and c.value == "report.json"
                      for c in ast.walk(f))]
    assert len(writers) == 1, writers
    main = next(f for f in functions if f.name == "main")
    run_tries = [t for t in ast.walk(main) if isinstance(t, ast.Try)
                 and any(isinstance(c, ast.Call) and getattr(c.func, "id", None) == "run"
                         for stmt in t.body for c in ast.walk(stmt))]
    assert [len(t.handlers) for t in run_tries] == [1]  # one except branch for run errors


def test_no_hand_written_serializer():
    # configs are echoed through dataclasses.asdict and parsed by the dataclass itself
    defs = [(path.name, node.name) for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))
            and node.name in ("RunReport", "to_dict")]
    assert defs == [], defs


def _slab_passes():
    """(file, line, pass) for each ``_by_slabs(pass_, rows)`` call in src: the
    pass a lambda or a function defined in the caller's body."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for scope in ast.parse(path.read_text()).body:
            local = {n.name: n for n in ast.walk(scope) if isinstance(n, ast.FunctionDef)}
            for call in ast.walk(scope):
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_by_slabs":
                    arg = call.args[0]
                    found.append((path.name, call.lineno, arg if isinstance(arg, ast.Lambda)
                                  else local.get(getattr(arg, "id", None))))
    return found


def test_slab_passes_take_only_stages_call_no_public_function_and_make_no_array():
    # a pass runs on a pool thread: a public function's span would land on the
    # tracer's one stack, and an array made there would grow the pool thread's own
    # malloc arena; the one transforms it takes are numpy.fft's one-axis stages,
    # written with out= into arrays the caller owns
    public = {node.name for path in SRC.glob("*.py") for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    passes = _slab_passes()
    unread = [(name, line) for name, line, body in passes if body is None]
    # the Picard step; the pruned pair's clear, scatter and gather; Leray; the
    # map's products, sum into D and check of D; a transform stage (_stage); an
    # octant stage
    assert len(passes) == 10 and unread == [], (passes, unread)
    helpers = {node.name for path in SRC.glob("*.py") for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")}
    bad = []
    for name, line, body in passes:
        for node in ast.walk(body):
            if isinstance(node, ast.Name) and node.id in ("sfft", "scipy"):
                bad.append((name, line, "scipy"))
            if isinstance(node, ast.Call):
                func, keywords = node.func, {k.arg for k in node.keywords}
                callee = getattr(func, "id", getattr(func, "attr", None))
                if callee in public:
                    bad.append((name, line, callee))
                # a numpy function writes into the caller's array
                if (isinstance(func, ast.Attribute) and getattr(func.value, "id", None)
                        == "np" and "out" not in keywords):
                    bad.append((name, line, f"np.{callee} without out="))
                # so does a numpy.fft one-axis stage, or one handed to the pass's maker
                fft = (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute)
                       and func.value.attr == "fft")
                if fft and callee not in STAGE_HOMES:
                    bad.append((name, line, f"np.fft.{callee}"))
                handed = (isinstance(func, ast.Name) and callee not in helpers
                          and not hasattr(builtins, callee))
                if (fft or handed) and "out" not in keywords:
                    bad.append((name, line, f"{callee} without out="))
            if isinstance(node, ast.BinOp):  # an array operator makes a new array
                bad.append((name, line, "binary operator"))
    assert bad == [], bad
    # the stage a pass is handed is a numpy.fft one-axis stage
    handed = [call.args[0] for path in sorted(SRC.glob("*.py"))
              for call in ast.walk(ast.parse(path.read_text()))
              if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_stage"]
    assert handed and all(ast.unparse(arg) in {f"np.fft.{s}" for s in STAGE_HOMES}
                          for arg in handed), [ast.unparse(arg) for arg in handed]


def _child_output(script):
    """Standard output of ``script`` run by a fresh interpreter that finds fracns."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                          check=True, capture_output=True, text=True, timeout=60).stdout


def test_import_leaves_out_unused_scipy():
    # every transform is numpy.fft's: importing scipy.fft (scipy.special under it)
    # cost every process about 0.2 s, so neither the import nor a run of any
    # experiment loads a scipy module
    out = _child_output(
        "import sys, tempfile\n"
        "import fracns, fracns.cli as cli\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print('import', *loaded())\n"
        "base = dict(n=16, box_length=8.0, force=dict(amplitude=0.05, r0=0.8, r1=2.8, seed=3),\n"
        "            window=[0.5, 2.0], nbins=8, kernel_n=16, kernel_box=[16, 4.0],\n"
        "            kernel_times=[0.1], evolve_T=0.02)\n"
        "for e in cli.EXPERIMENTS:\n"
        "    with tempfile.TemporaryDirectory() as d:\n"
        "        cli.run(cli.RunConfig.from_dict(dict(base, experiment=e, output_dir=d)))\n"
        "    print(e, *loaded())\n"
    )
    assert out.split() == ["import", *cli.EXPERIMENTS], out


def test_import_starts_no_thread():
    # the slab pool starts its threads on first use: importing fracns starts none,
    # in Python or (where /proc says) in the process, beyond numpy's
    out = _child_output(
        "import os, threading, numpy\n"
        "task = '/proc/self/task'\n"
        "tasks = lambda: len(os.listdir(task)) if os.path.isdir(task) else 0\n"
        "before = tasks()\n"
        "import fracns, fracns.cli\n"
        "from fracns import spectral\n"
        "print(threading.active_count(), len(spectral._POOL._threads), tasks() - before)\n"
    )
    assert out.split() == ["1", "0", "0"], out
