import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from kepes.reconstruction import ReconSpec, minmod, reconstruct_face, van_albada

finite = st.floats(min_value=-1e6, max_value=1e6)


class TestMinmod:
    def test_same_sign_picks_smaller(self):
        assert minmod(1.0, 2.0) == 1.0
        assert minmod(-3.0, -0.5) == -0.5

    def test_sign_disagreement_zero(self):
        assert minmod(-1.0, 2.0) == 0.0
        assert minmod(1.0, -2.0) == 0.0

    def test_zero_argument(self):
        assert minmod(0.0, 2.0) == 0.0

    @given(a=finite, b=finite)
    @settings(max_examples=300)
    def test_bounded_by_arguments(self, a, b):
        m = float(minmod(a, b))
        assert abs(m) <= max(abs(a), abs(b)) + 1e-12
        if a * b > 0:
            assert np.sign(m) == np.sign(a)


def minmod_nested_where(a, b):
    """The nested-where minmod, the reference of the bitwise property."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.where(a * b > 0.0, np.where(np.abs(a) < np.abs(b), a, b), 0.0)


# signed zeros, infinities, the smallest subnormal and magnitudes whose
# products underflow to zero, next to arbitrary floats
edge_floats = st.sampled_from([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                               1e-170, -1e-170, 1e-300, 2.0, -2.0])
any_floats = st.one_of(edge_floats, st.floats())
# pairs of any two values, and pairs of one magnitude with either sign
minmod_pairs = st.one_of(
    st.tuples(any_floats, any_floats),
    any_floats.flatmap(lambda x: st.tuples(st.just(x),
                                           st.sampled_from([x, -x]))))


class TestMinmodSingleWhere:
    @given(pairs=st.lists(minmod_pairs, min_size=1, max_size=30))
    @settings(max_examples=300)
    def test_bitwise_equal_to_nested_where(self, pairs):
        a, b = np.array(pairs, dtype=float).T
        a3, b3 = np.tile(a, (3, 1)), np.tile(b[::-1], (3, 1))
        # a 0-d pair and a stacked (3, n) block take the same path
        for x, y in ((a, b), (a[0], b[0]), (a3, b3)):
            # inf * 0 and overflowing products are part of the data
            with np.errstate(invalid="ignore", over="ignore"):
                got, want = minmod(x, y), minmod_nested_where(x, y)
            np.testing.assert_array_equal(np.asarray(got).view(np.int64),
                                          want.view(np.int64))


def minmod_masked_copy(a, b):
    """The masked-copy minmod the branch-free one replaced: the smaller
    magnitude with a's sign, then +0 copied wherever a b > 0 fails."""
    out = np.copysign(np.minimum(np.abs(a), np.abs(b)), a)
    np.copyto(out, 0.0, where=~(a * b > 0.0))
    return out


class TestMinmodBranchFree:
    def test_bitwise_equal_to_masked_copy(self):
        # random magnitudes across the exponent range with either sign,
        # signed zeros, subnormals, pairs whose product underflows to 0,
        # pairs of opposite sign, infinities of either sign and NaN
        rng = np.random.default_rng(11)
        n = 4000
        mags = 10.0 ** rng.uniform(-320, 300, n)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-170,
                            -1e-170, 1e-200, np.inf, -np.inf, np.nan, 1.0,
                            -1.0])
        a = np.where(rng.random(n) < 0.3, rng.choice(special, n),
                     np.where(rng.random(n) < 0.5, mags, -mags))
        b = np.where(rng.random(n) < 0.3, rng.choice(special, n),
                     rng.choice([-1.0, 1.0], n)
                     * 10.0 ** rng.uniform(-320, 300, n))
        # every special pair, and a pair of one magnitude per sign pattern
        a = np.concatenate([a, np.repeat(special, special.size), mags[:50],
                            -mags[:50]])
        b = np.concatenate([b, np.tile(special, special.size), -mags[:50],
                            mags[:50]])
        with np.errstate(invalid="ignore", over="ignore", under="ignore"):
            assert np.any((a * b == 0.0) & (a != 0.0) & (b != 0.0))
            got = minmod(a, b)
            want = minmod_masked_copy(a, b)
        np.testing.assert_array_equal(got.view(np.int64),
                                      want.view(np.int64))


class TestVanAlbada:
    def test_symmetric_smooth_limit(self):
        assert np.isclose(van_albada(1.0, 1.0), 1.0, rtol=1e-12)

    def test_flat_data_no_division_blowup(self):
        assert van_albada(0.0, 0.0) == 0.0

    def test_opposite_slopes_small(self):
        assert abs(van_albada(1.0, -1.0)) < 1e-9

    @given(a=st.floats(min_value=-100, max_value=100),
           b=st.floats(min_value=-100, max_value=100))
    @settings(max_examples=300)
    def test_bounded(self, a, b):
        assert abs(float(van_albada(a, b))) <= max(abs(a), abs(b)) + 1e-9


def stencil_from(rho, u=None, p=None):
    u = u if u is not None else [0.0] * 4
    p = p if p is not None else [1.0] * 4
    # the four cells' (rho, u, p) along the last axis
    return np.array([rho, u, p], dtype=float)


def face_of(st4, spec):
    """reconstruct_face's left and right state of the stencil's one face."""
    return (q[..., 0] for q in reconstruct_face(st4, spec))


class TestReconstructFace:
    def test_first_order_returns_cells(self):
        st4 = stencil_from([1.0, 2.0, 3.0, 4.0])
        left, right = face_of(st4, ReconSpec(order=1))
        assert left[0] == 2.0 and right[0] == 3.0

    def test_uniform_stencil(self):
        st4 = stencil_from([2.0] * 4)
        left, right = face_of(st4, ReconSpec(order=2))
        assert left[0] == 2.0 and right[0] == 2.0

    def test_linear_data_minmod(self):
        st4 = stencil_from([1.0, 2.0, 3.0, 4.0])
        left, right = face_of(st4, ReconSpec(order=2, limiter="minmod"))
        assert np.isclose(left[0], 2.5, rtol=1e-15)
        assert np.isclose(right[0], 2.5, rtol=1e-15)

    def test_local_extremum_falls_back_to_first_order(self):
        st4 = stencil_from([1.0, 2.0, 1.0, 2.0])
        left, right = face_of(st4, ReconSpec(order=2, limiter="minmod"))
        assert left[0] == 2.0 and right[0] == 1.0

    def test_no_new_extrema_minmod(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            rho = 10 ** rng.uniform(-1, 1, 4)
            st4 = stencil_from(rho)
            left, right = face_of(st4, ReconSpec(2, "minmod"))
            assert rho.min() - 1e-13 <= float(left[0]) <= rho.max() + 1e-13
            assert rho.min() - 1e-13 <= float(right[0]) <= rho.max() + 1e-13

    def test_second_order_accuracy_on_smooth_data(self):
        errs = []
        hs = np.logspace(-1.5, -3, 5)
        f = lambda x: 1.0 + 0.3 * np.sin(x)
        for h in hs:
            x = np.array([-1.5, -0.5, 0.5, 1.5]) * h
            st4 = stencil_from(f(x))
            left, _ = face_of(st4, ReconSpec(2, "minmod"))
            errs.append(abs(float(left[0]) - f(0.0)))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope >= 2.0 - 0.1

    def test_positivity_fallback(self):
        # steep pressure drop extrapolates p < 0 with unlimited slopes;
        # the affected side reverts to its cell value
        p = [100.0, 10.0, 0.01, 0.005]
        st4 = stencil_from([1.0] * 4, p=p)
        left, right = face_of(st4, ReconSpec(2, "none"))
        assert float(left[2]) == 10.0
        assert float(right[2]) > 0.0

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            ReconSpec(order=3)
        with pytest.raises(ValueError):
            ReconSpec(order=2, limiter="superbee")
