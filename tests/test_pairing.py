"""Conjugate pairing and closure: properties over shuffled closed shift sets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morkit.errors import StructuralError
from morkit.irka import (
    InterpolationData,
    _truncate_closed,
    enforce_conjugate_closure,
    pair_conjugates,
)


@st.composite
def closed_sets(draw):
    """A shuffled conjugate-closed shift set with directions.

    Shifts sit on a grid 0.25 apart, far outside the pairing tolerance,
    so the only candidate partner of a complex shift is its conjugate.
    That partner may be off by a relative 1e-9, as mirrored eigenvalues
    are.
    """
    points = draw(st.lists(st.tuples(st.integers(1, 400), st.integers(0, 400)),
                           min_size=1, max_size=10, unique=True))
    noise = draw(st.sampled_from([0.0, 1e-12, 1e-9]))
    m, p = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shifts, b, c = [], [], []
    for re, im in points:
        s = complex(0.5 * re, 0.25 * im)
        bi = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        ci = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        if im == 0:
            shifts.append(s)
            b.append(bi)
            c.append(ci)
        else:
            shifts += [s, s.conjugate() * (1.0 + noise)]
            b += [bi, bi.conj()]
            c += [ci, ci.conj()]
    perm = draw(st.permutations(range(len(shifts))))
    return np.array(shifts)[perm], np.array(b)[perm], np.array(c)[perm]


@settings(max_examples=200, deadline=None)
@given(data=closed_sets(), visit=st.randoms(use_true_random=False))
def test_pairing_covers_every_index_once(data, visit):
    shifts, _, _ = data
    order = list(range(shifts.shape[0]))
    visit.shuffle(order)
    for groups in (pair_conjugates(shifts), pair_conjugates(shifts, order=order)):
        members = [k for i, j in groups for k in ((i,) if j is None else (i, j))]
        assert sorted(members) == list(range(shifts.shape[0]))
        for i, j in groups:
            if j is None:
                assert shifts[i].imag == 0.0
            else:
                assert j >= 0
                assert abs(shifts[j] - np.conj(shifts[i])) <= 1e-6 * abs(shifts[i])


@settings(max_examples=200, deadline=None)
@given(data=closed_sets())
def test_closure_is_closed_and_idempotent(data):
    shifts, b, c = data
    out = enforce_conjugate_closure(shifts, b, c)
    assert out.r == shifts.shape[0]
    assert out.is_conjugate_closed()
    again = enforce_conjugate_closure(out.shifts, out.b, out.c)
    np.testing.assert_array_equal(again.shifts, out.shifts)
    np.testing.assert_allclose(again.b, out.b, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(again.c, out.c, rtol=0.0, atol=1e-15)


def test_pairing_marks_unmatched_complex_shift():
    assert pair_conjugates([1.0 + 2.0j, 3.0, 1.0 - 2.0j, 5.0 + 1.0j]) == [
        (0, 2), (1, None), (3, -1)
    ]


def test_pairing_follows_visiting_order():
    # 1 - 2j has two candidate partners; the first one visited wins
    shifts = [1.0 - 2.0j, 1.0 + 2.0j, 1.0 + 2.0j + 1e-9]
    assert pair_conjugates(shifts, order=[0, 2, 1]) == [(0, 2), (1, -1)]


def test_truncate_closed_demotes_split_pair():
    interp = InterpolationData(
        [2.0 - 1.0j, 1.0, 3.0 + 0.5j, 2.0 + 1.0j, 3.0 - 0.5j],
        [[1.0, 1.0j], [1.0, 0.0], [0.3, 1.0], [1.0, -1.0j], [0.3, 1.0]],
        np.ones((5, 1)),
    )
    expected = {
        1: [2.0],                                       # head pair cut to its real part
        2: [2.0 - 1.0j, 2.0 + 1.0j],
        3: [1.0, 2.0 - 1.0j, 2.0 + 1.0j],
        4: [1.0, 2.0 - 1.0j, 2.0 + 1.0j, 3.0],          # last pair cut
        5: [1.0, 2.0 - 1.0j, 2.0 + 1.0j, 3.0 - 0.5j, 3.0 + 0.5j],
    }
    for k, shifts in expected.items():
        out = _truncate_closed(interp, k)
        np.testing.assert_array_equal(out.shifts, shifts)
        assert out.is_conjugate_closed()


def test_truncate_closed_rejects_unmatched_shift():
    interp = InterpolationData([1.0 + 1.0j, 2.0], np.ones((2, 1)), np.ones((2, 1)))
    with pytest.raises(StructuralError):
        _truncate_closed(interp, 1)
