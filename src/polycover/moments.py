"""Closed-form integrals of basis elements over boxes, and orthonormalization.

Monomial moments over an axis-aligned box factor across axes:
integral of x^a over [l, u] is (u^(a+1) - l^(a+1)) / (a + 1).

Chebyshev moments are taken through the affine map of the box onto [-1, 1]:
integral of T_k over [-1, 1] is 0 for odd k and 2 / (1 - k^2) for even k,
times the Jacobian (u - l) / 2 per axis.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .basis import MultiIndex, PolyBasis, make_basis
from .domain import BoxDomain

CONDITION_WARN_THRESHOLD = 1e12


class IllConditionedMomentsWarning(UserWarning):
    """The moment matrix is numerically close to singular."""


class MomentFactorizationError(ValueError):
    """Cholesky factorization of a moment matrix failed."""


def _axis_monomial_moment(lower: float, upper: float, power: int) -> float:
    return (upper ** (power + 1) - lower ** (power + 1)) / (power + 1)


def _axis_chebyshev_moment(lower: float, upper: float, degree: int) -> float:
    if degree % 2 == 1:
        return 0.0
    return (upper - lower) / 2.0 * 2.0 / (1.0 - degree * degree)


def box_monomial_moment(box: BoxDomain, alpha: MultiIndex) -> float:
    """Integral of the monomial x^alpha over the box."""
    if len(alpha) != box.dimension:
        raise ValueError("multi-index dimension mismatch")
    value = 1.0
    for lo, up, a in zip(box.lower, box.upper, alpha):
        value *= _axis_monomial_moment(lo, up, a)
    return value


def box_chebyshev_moment(box: BoxDomain, alpha: MultiIndex) -> float:
    """Integral over the box of the tensor Chebyshev element for alpha."""
    if len(alpha) != box.dimension:
        raise ValueError("multi-index dimension mismatch")
    value = 1.0
    for lo, up, a in zip(box.lower, box.upper, alpha):
        value *= _axis_chebyshev_moment(lo, up, a)
    return value


@dataclass(frozen=True)
class MomentVector:
    """Integrals of the basis elements over a box, in basis order."""

    basis: PolyBasis
    box: BoxDomain
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


def _axis_moment_product(basis: PolyBasis, box: BoxDomain, degree: int, factor) -> np.ndarray:
    """The product over the axes of factor(table, exponents): table holds
    the integrals of the axis's 1-D basis elements of degree 0..degree, and
    exponents the basis's exponents along the axis.

    For a chebyshev basis, the box must equal the basis box: the basis
    elements are defined through that box's affine map and their closed-form
    integrals assume the same domain.  An integral or a product beyond the
    float range raises ValueError.
    """
    if box.dimension != basis.dimension:
        raise ValueError("box dimension does not match basis")
    if basis.kind == "chebyshev":
        if basis.box != box:
            raise ValueError("chebyshev moments require the basis box itself")
        moment = _axis_chebyshev_moment
    else:
        moment = _axis_monomial_moment
    axes = list(zip(box.lower, box.upper))
    exps = basis.exponent_array
    try:  # float ** raises OverflowError; a difference of huge powers gives inf
        tables = [np.array([moment(lo, up, j) for j in range(degree + 1)]) for lo, up in axes]
        with np.errstate(over="ignore", invalid="ignore"):  # inf, and inf * 0, fail below
            factors = (factor(table, exps[:, d]) for d, table in enumerate(tables))
            product = functools.reduce(np.multiply, factors)
        if np.isfinite(product).all():
            return product
    except OverflowError:
        pass
    text = " x ".join(f"[{lo!r}, {up!r}]" for lo, up in axes)
    raise ValueError(f"the moments up to degree {degree} overflow on the box {text}")


def moment_vector(basis: PolyBasis, box: BoxDomain) -> MomentVector:
    """Integral of every basis element over the box: per basis element, the
    product over the axes of the 1-D integrals."""
    values = _axis_moment_product(basis, box, basis.degree, lambda table, exps: table[exps])
    return MomentVector(basis=basis, box=box, values=values)


@dataclass(frozen=True)
class MomentMatrix:
    """Pairwise products of basis elements integrated over a box."""

    basis: PolyBasis
    box: BoxDomain
    entries: np.ndarray


def moment_matrix(basis: PolyBasis, box: BoxDomain, warn_threshold: float = CONDITION_WARN_THRESHOLD) -> MomentMatrix:
    """Matrix of integrals of pi_i * pi_j over the box.

    Entries are exact per-axis products.  For monomials the (i, j) entry is
    the moment of alpha_i + alpha_j.  For Chebyshev elements the product rule
    T_a T_b = (T_{a+b} + T_{|a-b|}) / 2 applies per axis.

    A condition number above ``warn_threshold`` triggers
    IllConditionedMomentsWarning.  Raw monomial moment matrices become
    ill conditioned quickly as the degree grows; the chebyshev kind stays
    well conditioned much longer.
    """

    def axis(table: np.ndarray, exps: np.ndarray) -> np.ndarray:
        a, b = exps[:, None], exps[None, :]
        if basis.kind == "chebyshev":
            return 0.5 * (table[a + b] + table[np.abs(a - b)])
        return table[a + b]

    entries = _axis_moment_product(basis, box, 2 * basis.degree, axis)

    cond = float(np.linalg.cond(entries))
    if cond > warn_threshold:
        message = (
            f"moment matrix condition number {cond:.3e} exceeds {warn_threshold:.1e}"
        )
        if basis.kind == "monomial":
            message += "; consider the chebyshev basis kind"
        warnings.warn(message, IllConditionedMomentsWarning, stacklevel=2)

    return MomentMatrix(basis=basis, box=box, entries=entries)


@dataclass(frozen=True)
class OrthonormalTransform:
    """Cholesky-based change of basis making the moment matrix the identity.

    With M = L L^T, the transformed basis is pi_tilde = L^{-1} pi, so that
    the integral of pi_tilde pi_tilde^T over the box is the identity.
    """

    basis: PolyBasis
    box: BoxDomain
    cholesky: np.ndarray

    def orthonormal_coeffs(self) -> np.ndarray:
        """Rows are the coefficients of each orthonormal element over the basis."""
        eye = np.eye(self.cholesky.shape[0])
        return scipy.linalg.solve_triangular(self.cholesky, eye, lower=True)


def orthonormalize(moments: MomentMatrix) -> OrthonormalTransform:
    """Factor the moment matrix and return the orthonormalizing transform.

    Raises MomentFactorizationError when the matrix is not numerically
    positive definite.  No regularization is applied; switch basis kind or
    lower the degree instead.
    """
    try:
        L = scipy.linalg.cholesky(moments.entries, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise MomentFactorizationError(
            "moment matrix is not positive definite to working precision; "
            "a better-conditioned basis kind may help"
        ) from exc
    return OrthonormalTransform(basis=moments.basis, box=moments.box, cholesky=L)


def unit_interval_orthonormal_demo() -> np.ndarray:
    """Orthonormal coefficient rows for degree 1 on [-1, 1] in one variable.

    The second row is (0, sqrt(6)/2): the normalized linear element.
    """
    basis = make_basis(1, 1, "monomial")
    box = BoxDomain(lower=(-1.0,), upper=(1.0,))
    return orthonormalize(moment_matrix(basis, box)).orthonormal_coeffs()
