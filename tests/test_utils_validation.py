"""Unit tests for repro.utils.validation."""

import warnings

import numpy as np
import pytest

from repro.utils.validation import (
    check_covariance,
    check_limits,
    check_positive_int,
    check_probability,
    check_square,
    check_symmetric,
    ensure_1d,
    ensure_2d,
)


class TestEnsure:
    def test_ensure_1d_from_list(self):
        out = ensure_1d([1, 2, 3])
        assert out.dtype == np.float64
        assert out.shape == (3,)

    def test_ensure_1d_rejects_matrix(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            ensure_1d(np.zeros((2, 2)))

    def test_ensure_2d_from_nested_list(self):
        out = ensure_2d([[1, 2], [3, 4]])
        assert out.shape == (2, 2)
        assert out.flags["C_CONTIGUOUS"]

    def test_ensure_2d_rejects_vector(self):
        with pytest.raises(ValueError, match="two-dimensional"):
            ensure_2d(np.zeros(3))

    def test_ensure_2d_custom_name_in_error(self):
        with pytest.raises(ValueError, match="mymatrix"):
            ensure_2d(np.zeros(3), name="mymatrix")


class TestSquareSymmetric:
    def test_check_square_accepts_square(self):
        assert check_square(np.eye(3)).shape == (3, 3)

    def test_check_square_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            check_square(np.zeros((2, 3)))

    def test_check_symmetric_accepts_symmetric(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert check_symmetric(a) is not None

    def test_check_symmetric_rejects_asymmetric(self):
        a = np.array([[1.0, 0.9], [0.1, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            check_symmetric(a)

    def test_check_symmetric_tolerates_roundoff(self):
        a = np.array([[1.0, 0.5 + 1e-12], [0.5, 1.0]])
        check_symmetric(a)

    def test_check_symmetric_exact_fast_path(self, medium_spd):
        assert np.array_equal(medium_spd, medium_spd.T)
        assert check_symmetric(medium_spd) is not None

    def test_check_symmetric_accepts_below_scaled_tolerance(self, medium_spd):
        a = medium_spd * 50.0  # tolerance scales with max |a| = 50
        a[3, 7] += 0.9 * 1e-8 * 50.0
        assert not np.array_equal(a, a.T)
        check_symmetric(a)

    def test_check_symmetric_rejects_above_scaled_tolerance(self, medium_spd):
        a = medium_spd * 50.0
        a[3, 7] += 1.1 * 1e-8 * 50.0
        with pytest.raises(ValueError, match="symmetric"):
            check_symmetric(a)

    def test_check_symmetric_rejects_nan(self):
        a = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            check_symmetric(a)


class TestCovariance:
    def test_valid_covariance(self, small_spd):
        out = check_covariance(small_spd)
        assert out.shape == small_spd.shape

    def test_rejects_negative_diagonal(self):
        a = np.eye(3)
        a[1, 1] = -1.0
        with pytest.raises(ValueError, match="diagonal"):
            check_covariance(a)

    def test_rejects_nan(self):
        a = np.eye(3)
        a[0, 1] = a[1, 0] = np.nan
        with pytest.raises(ValueError):
            check_covariance(a)

    def test_nan_offdiagonal_reported_as_nan(self):
        a = np.eye(3)
        a[0, 2] = a[2, 0] = np.nan
        with pytest.raises(ValueError, match=r"finite: entry \(0, 2\) is nan"):
            check_covariance(a)

    def test_inf_diagonal_reported_as_inf_without_warning(self):
        a = np.eye(3)
        a[1, 1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"finite: entry \(1, 1\) is inf"):
                check_covariance(a)

    def test_require_spd_rejects_indefinite(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])  # symmetric but indefinite
        with pytest.raises(ValueError, match="positive definite"):
            check_covariance(a, require_spd=True)

    def test_require_spd_accepts_spd(self, small_spd):
        check_covariance(small_spd, require_spd=True)


class TestLimits:
    def test_valid_limits(self):
        a, b = check_limits([-1, -np.inf], [1, 0])
        assert a.shape == b.shape == (2,)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="same shape"):
            check_limits([0.0], [1.0, 2.0])

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="length 3"):
            check_limits([0.0, 0.0], [1.0, 1.0], n=3)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            check_limits([np.nan], [1.0])

    def test_rejects_crossed_limits(self):
        with pytest.raises(ValueError, match="exceeds"):
            check_limits([2.0], [1.0])

    def test_infinite_limits_allowed(self):
        a, b = check_limits([-np.inf, -np.inf], [np.inf, 0.0])
        assert np.isinf(a).all()


class TestScalars:
    def test_positive_int_ok(self):
        assert check_positive_int(5) == 5

    def test_positive_int_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive_int(0)

    def test_positive_int_rejects_float(self):
        with pytest.raises(TypeError):
            check_positive_int(2.5)

    def test_positive_int_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive_int(True)

    def test_probability_bounds(self):
        assert check_probability(0.0) == 0.0
        assert check_probability(1.0) == 1.0
        with pytest.raises(ValueError):
            check_probability(1.5)
        with pytest.raises(ValueError):
            check_probability(-0.1)
