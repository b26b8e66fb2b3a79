import math

import numpy as np
import pytest

from polycover import BoxDomain, Polynomial, eval_basis, make_basis
from polycover import moment_matrix, moment_vector, orthonormalize
from polycover import IllConditionedMomentsWarning, MomentFactorizationError
from polycover import box_chebyshev_moment, box_monomial_moment
from polycover.moments import (
    MomentMatrix,
    unit_interval_orthonormal_demo,
)

from oracles import quad_chebyshev_moment, quad_monomial_moment

ASYM_BOX = BoxDomain(lower=(-0.3, -1.2), upper=(1.7, 0.4))


def test_monomial_moment_closed_form_examples():
    box = BoxDomain.symmetric(1)
    assert box_monomial_moment(box, (0,)) == pytest.approx(2.0, abs=0)
    assert box_monomial_moment(box, (1,)) == 0.0
    assert box_monomial_moment(box, (2,)) == pytest.approx(2.0 / 3.0, rel=1e-15)
    # shifted interval [1, 3]: integral of x is (9 - 1) / 2 = 4
    assert box_monomial_moment(BoxDomain(lower=(1.0,), upper=(3.0,)), (1,)) == pytest.approx(4.0)


@pytest.mark.parametrize("alpha", [(0, 0), (3, 2), (5, 0), (4, 4), (7, 1)])
def test_monomial_moment_matches_quadrature_on_skew_box(alpha):
    value = box_monomial_moment(ASYM_BOX, alpha)
    oracle = quad_monomial_moment(ASYM_BOX.lower, ASYM_BOX.upper, alpha)
    assert value == pytest.approx(oracle, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("alpha", [(0, 0), (1, 0), (2, 3), (4, 2), (6, 6)])
def test_chebyshev_moment_matches_quadrature(alpha):
    value = box_chebyshev_moment(ASYM_BOX, alpha)
    oracle = quad_chebyshev_moment(ASYM_BOX.lower, ASYM_BOX.upper, alpha)
    assert value == pytest.approx(oracle, rel=1e-12, abs=1e-13)


def test_chebyshev_axis_values_on_unit_interval():
    box = BoxDomain.symmetric(1)
    # odd elements integrate to zero, even ones to 2/(1-k^2)
    assert box_chebyshev_moment(box, (1,)) == 0.0
    assert box_chebyshev_moment(box, (3,)) == 0.0
    assert box_chebyshev_moment(box, (0,)) == pytest.approx(2.0)
    assert box_chebyshev_moment(box, (2,)) == pytest.approx(-2.0 / 3.0, rel=1e-15)
    assert box_chebyshev_moment(box, (4,)) == pytest.approx(-2.0 / 15.0, rel=1e-15)


def test_even_moments_positive_odd_zero_on_symmetric_box():
    box = BoxDomain.symmetric(3, 1.25)
    for alpha in [(0, 0, 0), (2, 0, 4), (6, 2, 2), (8, 8, 0)]:
        assert box_monomial_moment(box, alpha) > 0.0
    for alpha in [(1, 0, 0), (2, 3, 0), (5, 1, 1)]:
        assert box_monomial_moment(box, alpha) == 0.0


def test_moment_vector_aligns_with_basis_order():
    basis = make_basis(2, 3, "monomial")
    mv = moment_vector(basis, ASYM_BOX)
    assert len(mv) == len(basis)
    for alpha, value in zip(basis.indices, mv.values):
        assert value == pytest.approx(box_monomial_moment(ASYM_BOX, alpha), rel=1e-14)


def test_moment_vector_dimension_mismatch():
    basis = make_basis(2, 2, "monomial")
    with pytest.raises(ValueError):
        moment_vector(basis, BoxDomain.symmetric(3))


def test_moment_matrix_matches_quadrature_1d():
    basis = make_basis(1, 5, "monomial")
    box = BoxDomain(lower=(-0.5,), upper=(1.5,))
    mm = moment_matrix(basis, box)
    for i, a in enumerate(basis.indices):
        for j, b in enumerate(basis.indices):
            oracle = quad_monomial_moment(box.lower, box.upper, (a[0] + b[0],))
            assert mm.entries[i, j] == pytest.approx(oracle, rel=1e-12, abs=1e-14)


def test_moment_matrix_matches_quadrature_2d():
    basis = make_basis(2, 3, "monomial")
    mm = moment_matrix(basis, ASYM_BOX)
    for i, a in enumerate(basis.indices):
        for j, b in enumerate(basis.indices):
            alpha = (a[0] + b[0], a[1] + b[1])
            oracle = quad_monomial_moment(ASYM_BOX.lower, ASYM_BOX.upper, alpha)
            assert mm.entries[i, j] == pytest.approx(oracle, rel=1e-12, abs=1e-14)


def test_chebyshev_moment_matrix_matches_dense_quadrature():
    box = BoxDomain(lower=(-1.0,), upper=(2.0,))
    basis = make_basis(1, 4, "chebyshev", box)
    mm = moment_matrix(basis, box)
    import scipy.integrate

    for i in range(len(basis)):
        for j in range(len(basis)):
            oracle, _ = scipy.integrate.quad(
                lambda x, i=i, j=j: eval_basis(basis, np.array([x]))[i]
                * eval_basis(basis, np.array([x]))[j],
                box.lower[0],
                box.upper[0],
                epsabs=1e-13,
                epsrel=1e-13,
            )
            assert mm.entries[i, j] == pytest.approx(oracle, rel=1e-11, abs=1e-12)


def test_moment_matrix_is_symmetric_positive_definite():
    basis = make_basis(2, 3, "monomial")
    mm = moment_matrix(basis, ASYM_BOX)
    np.testing.assert_array_equal(mm.entries, mm.entries.T)
    assert np.all(np.linalg.eigvalsh(mm.entries) > 0)


def test_ill_conditioned_monomial_matrix_warns_and_recommends():
    # the raw monomial matrix on [-1, 1] crosses condition 1e12 near degree 18
    basis = make_basis(1, 18, "monomial")
    with pytest.warns(IllConditionedMomentsWarning, match="chebyshev"):
        moment_matrix(basis, BoxDomain.symmetric(1))


def test_chebyshev_matrix_stays_quiet_at_same_degree():
    box = BoxDomain.symmetric(1)
    basis = make_basis(1, 18, "chebyshev", box)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", IllConditionedMomentsWarning)
        moment_matrix(basis, box)


def test_orthonormalize_whitens_the_moment_matrix():
    basis = make_basis(2, 2, "monomial")
    mm = moment_matrix(basis, ASYM_BOX)
    C = orthonormalize(mm).orthonormal_coeffs()
    np.testing.assert_allclose(C @ mm.entries @ C.T, np.eye(len(basis)), atol=1e-10)


def test_orthonormalize_rejects_indefinite_entries():
    basis = make_basis(1, 1, "monomial")
    box = BoxDomain.symmetric(1)
    fake = MomentMatrix(basis=basis, box=box, entries=np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(MomentFactorizationError):
        orthonormalize(fake)


def test_unit_interval_demo_normalizes_linear_element():
    rows = unit_interval_orthonormal_demo()
    assert rows[1, 0] == pytest.approx(0.0, abs=1e-15)
    assert rows[1, 1] == pytest.approx(math.sqrt(6.0) / 2.0, abs=1e-12)


def test_moments_refuse_a_multi_index_or_box_of_another_dimension():
    box = BoxDomain.symmetric(2)
    for moment in (box_monomial_moment, box_chebyshev_moment):
        with pytest.raises(ValueError, match="multi-index dimension mismatch"):
            moment(box, (1, 0, 2))
    # a chebyshev basis's elements are defined through its own box
    basis = make_basis(2, 3, "chebyshev", box)
    with pytest.raises(ValueError, match="chebyshev moments require the basis box itself"):
        moment_vector(basis, BoxDomain((-1.0, -1.0), (1.0, 2.0)))
