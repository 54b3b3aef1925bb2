"""Geometric invariance: the quantities the paper defines from distances must
not change when the whole IFS is moved rigidly or rescaled uniformly.

Conjugating every map psi by T(x) = s Q x + t gives the IFS of T(K): the
same vertex ids, cells and harmonic structure, with every distance and the
cutoff c0 / base^m multiplied by s.  So rho, d_w and every a_m and b_m of a
harmonic function (given by its V_0 or V_1 data) are unchanged.  Lattice
fractals put many vertex pairs exactly at the cutoff, so this holds only if
float rounding decides none of those ties.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fel.characteristics import dimensions
from fel.energy import random_corpus
from fel.harmonic import solve_ndhs
from fel.ifs import Similitude, build
from fel.classes import class_coefficient_table
from fel.lipschitz import coefficient_table, default_params
from fel.presets import load_maps

from helpers import EXAMPLES, assert_matches_geometric, maps_of

LEVELS = {"gasket2": 5, "gasket3": 4, "snowflake": 3}
# The nested fractals of examples/, whose walks end at level n - 1 like the
# gaskets': the flipped gasket's maps have orthogonal parts and the
# pentagasket is not on a lattice.
WALK_LEVELS = {**LEVELS, "flipped-gasket": 5, "hexagasket": 3, "pentagasket": 4, "vicsek": 4}


def conjugate(maps, s, q, t):
    """The maps T psi T^-1 for T(x) = s q x + t."""
    out = []
    for psi in maps:
        u = q @ psi.rotation @ q.T
        v = s * q @ psi.translation + t - u @ t / psi.scale
        out.append(Similitude(scale=psi.scale, rotation=u, translation=v))
    return out


def invariants(maps, level):
    """rho, d_w, then b_m and a_m for m = 1..level-1 of three harmonic functions."""
    system = build(maps, level)
    hs = solve_ndhs(system)
    specs = random_corpus(system, 3, seed=7)[system.dim:]
    values = np.column_stack([s.sample(system, hs, level).values for s in specs])
    ms = list(range(1, level))
    tables = [coefficient_table(system, values, level, ms, default_params(system, hs, base))
              for base in ("L", 2.0)]
    return np.concatenate([[hs.rho, dimensions(system, hs).d_w],
                           *(t.ravel() for t in tables)])


@functools.cache
def reference(name):
    return invariants(maps_of(name), WALK_LEVELS[name])


@st.composite
def motions(draw, dim):
    """A rotation q of R^dim, a translation t and a scale s."""
    if dim == 2:
        theta = draw(st.floats(-math.pi, math.pi))
        q = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
    else:
        w, x, y, z = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4)
                          .filter(lambda v: math.hypot(*v) > 0.1))
        w, x, y, z = np.array([w, x, y, z]) / math.hypot(w, x, y, z)
        q = np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
                      [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
                      [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)]])
    t = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=dim, max_size=dim)))
    s = draw(st.floats(1.0 / 16.0, 16.0))
    return s, q, t


@pytest.mark.parametrize("preset", sorted(WALK_LEVELS))
@given(data=st.data())
def test_rigid_motion_and_rescaling_invariance(preset, data):
    maps = maps_of(preset)
    s, q, t = data.draw(motions(maps[0].dim))
    moved = invariants(conjugate(maps, s, q, t), WALK_LEVELS[preset])
    np.testing.assert_allclose(moved, reference(preset), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("preset", sorted(LEVELS))
@given(data=st.data())
def test_moved_build_matches_geometric_oracle(preset, data):
    # The gluing table is taken from the level-1 geometry of the moved IFS;
    # every deeper level must still equal the all-candidates merge up to
    # relabelling.  A moved point keeps the coordinates of its first level,
    # which the oracle recomputes at every level, so the points agree within
    # the merge tolerance.
    maps, _ = load_maps(preset)
    s, q, t = data.draw(motions(maps[0].dim))
    assert_matches_geometric(build(conjugate(maps, s, q, t), LEVELS[preset]), exact=False)


# Placement classes key cell pairs by their relative similitude in cell
# units, so their coefficients must not move either; the flipped gasket's
# maps have orthogonal parts and the pentagasket is not on a lattice.
CLASS_LEVELS = {"gasket2": 5, "gasket3": 4, "snowflake": 3,
                str(EXAMPLES / "flipped-gasket.json"): 5, str(EXAMPLES / "pentagasket.json"): 4}


def class_invariants(maps, level):
    """b_m and a_m for m = 1..level-1 of three harmonic functions, from
    placement classes."""
    system = build(maps, level)
    hs = solve_ndhs(system)
    specs = random_corpus(system, 3, seed=7)[system.dim:]
    ms = list(range(1, level))
    return np.concatenate([class_coefficient_table(system, hs, specs, level, ms,
                                                   default_params(system, hs, base)).ravel()
                           for base in ("L", 2.0)])


@functools.cache
def class_reference(source):
    return class_invariants(load_maps(source)[0], CLASS_LEVELS[source])


@pytest.mark.parametrize("source", sorted(CLASS_LEVELS))
@given(data=st.data())
def test_class_coefficients_are_invariant(source, data):
    maps, _ = load_maps(source)
    s, q, t = data.draw(motions(maps[0].dim))
    moved = class_invariants(conjugate(maps, s, q, t), CLASS_LEVELS[source])
    np.testing.assert_allclose(moved, class_reference(source), rtol=1e-12, atol=0.0)


@functools.cache
def scaled_invariants(source, power):
    """invariants and class_invariants of the IFS scaled by 2^power about the origin."""
    maps, _ = load_maps(source)
    dim, level = maps[0].dim, CLASS_LEVELS[source]
    scaled = conjugate(maps, 2.0**power, np.eye(dim), np.zeros(dim))
    return np.concatenate([invariants(scaled, level), class_invariants(scaled, level)])


@pytest.mark.parametrize("power", [-40, 40])
@pytest.mark.parametrize("source", sorted(CLASS_LEVELS), ids=lambda s: s.rsplit("/", 1)[-1])
def test_power_of_two_rescaling_keeps_every_bit(source, power):
    # Scaling by a power of two is exact in binary, so every tolerance that
    # follows the IFS's own size takes the same decisions.  An absolute
    # floor on the fixed-point tolerance, or an absolute test for identical
    # maps, refused these systems at 2^-40.
    assert np.array_equal(scaled_invariants(source, power), scaled_invariants(source, 0))
