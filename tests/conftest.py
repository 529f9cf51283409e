"""Shared fixture complexes used across the test suite.

Builders return fresh objects so per-test mutation of memo caches cannot
leak expectations between tests.
"""

import importlib.util
from pathlib import Path

from toricface.cli import build_from_document, parse_input
from toricface.lattice import LatticeBasis, identity, mat_mul, transpose
from toricface.moncomplex import build_complex
from toricface.polyhedral import Fan, cochain, cone_build, fan_build
from toricface.record import record

# three maximal cones in R^3 with a non-extreme generator on the 2-cone
FIX_A_GENS = {
    "A1": (2, 0, 0),
    "A2": (0, 2, 0),
    "A3": (0, 0, 2),
    "A4": (1, 1, 0),
}

# two plane cones glued along the diagonal ray; the big monoid is not
# seminormal
FIX_B_GENS = {
    "x": (3, 0),
    "y": (3, 1),
    "z": (3, 3),
    "t": (0, 1),
}

# two plane cones glued along the vertical ray; seminormal but not normal
FIX_C_GENS = {
    "x": (1, 0),
    "y": (0, 2),
    "t": (1, 1),
    "z": (-2, 2),
}


def fix_a():
    g = FIX_A_GENS
    c1 = cone_build([g["A1"], g["A2"], g["A4"]])
    c2 = cone_build([g["A1"], g["A3"]])
    c3 = cone_build([g["A2"], g["A3"]])
    fan = fan_build([c1, c2, c3])
    return build_complex(fan, {
        c1.key: [g["A1"], g["A2"], g["A4"]],
        c2.key: [g["A1"], g["A3"]],
        c3.key: [g["A2"], g["A3"]],
    })


def fix_b():
    g = FIX_B_GENS
    c = cone_build([g["x"], g["y"], g["z"]])
    cp = cone_build([g["z"], g["t"]])
    fan = fan_build([c, cp])
    return build_complex(fan, {
        c.key: [g["x"], g["y"], g["z"]],
        cp.key: [g["z"], g["t"]],
    })


def fix_c():
    g = FIX_C_GENS
    c = cone_build([g["x"], g["y"], g["t"]])
    cp = cone_build([g["y"], g["z"]])
    fan = fan_build([c, cp])
    return build_complex(fan, {
        c.key: [g["x"], g["y"], g["t"]],
        cp.key: [g["y"], g["z"]],
    })


def stanley_r1():
    """Two opposite rays on the line; the ring is k[x,y]/(xy)."""
    fan = fan_build([cone_build([(1,)]), cone_build([(-1,)])])
    return build_complex(fan, stanley=True)


def octant_boundary():
    """The three quadrant cones bounding the octant; k[x,y,z]/(xyz)."""
    fan = fan_build([
        cone_build([(1, 0, 0), (0, 1, 0)]),
        cone_build([(1, 0, 0), (0, 0, 1)]),
        cone_build([(0, 1, 0), (0, 0, 1)]),
    ])
    return build_complex(fan, stanley=True)


def bench_inputs():
    """The benchmark's input module, bench/inputs.py."""
    path = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def crosspoly(d, multiples=None):
    """The benchmark's cross-polytope complex, from bench/inputs.py."""
    return build_from_document(parse_input(
        bench_inputs().crosspoly_document(d, multiples)))[0]


ALL_FIXTURES = {
    "fix_a": fix_a,
    "fix_b": fix_b,
    "fix_c": fix_c,
    "stanley_r1": stanley_r1,
    "octant_boundary": octant_boundary,
}


def full_lattice(ambient_dim):
    """Z^d as a LatticeBasis on the unit vectors."""
    return LatticeBasis(ambient_dim,
                        tuple(tuple(r) for r in identity(ambient_dim)))


@record
class CellComplex:
    """Augmented cellular chain complex of a fan.

    Cells in degree i are the (i+1)-dimensional cones; the zero cone is the
    empty cell in degree -1.  boundary[i] maps degree-i chains to degree
    (i-1)-chains (rows indexed by the lower cells): the transpose of the
    cochain map from the i-cones to the (i+1)-cones.
    """

    fan: Fan
    cells: dict     # degree -> list of cone keys
    boundary: dict  # degree -> integer matrix (rows: cells[deg-1], cols: cells[deg])


def cell_complex(fan):
    """The augmented cellular chain complex of the fan, its boundaries
    checked to compose to zero."""
    top = fan.dim
    cells = {t - 1: [c.key for c in fan.cones_of_dim(t)] for t in range(top + 1)}
    _, mats = cochain(fan.cones)
    boundary = {t: transpose(mats[t]) for t in range(top)}
    for t in range(1, top):
        assert not any(map(any, mat_mul(boundary[t - 1], boundary[t]))), \
            "boundary composition is nonzero"
    return CellComplex(fan, cells, boundary)
