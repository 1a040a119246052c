import numpy as np
import pytest

from kslab.dyadic import block_range, dyadic_block, low_freq, reconstruct
from kslab.fields import ScalarField, _irfft, _rfft, gradient, magnitude, make_grid
from kslab.norms import cutoff_phi, uloc_norm

from conftest import generalized_young_check


@pytest.fixture
def noise(grid1d, rng):
    return ScalarField(grid1d, rng.standard_normal(grid1d.shape))


class TestBlocks:
    def test_single_mode_lands_in_matching_block(self, grid1d):
        # Mode with |xi| close to 2^j passes block j (possibly j +- 1) and is
        # annihilated by blocks two or more scales away.
        L = grid1d.box_len
        x = grid1d.mesh()[0]
        j = 2
        mode_index = round(2.0**j * L / (2 * np.pi))
        f = ScalarField(grid1d, np.cos(2 * np.pi * mode_index * x / L))
        amp_near = max(
            dyadic_block(f, jj).max_abs() for jj in (j - 1, j, j + 1)
        )
        assert amp_near > 0.5
        for jj in (j - 3, j + 3):
            assert dyadic_block(f, jj).max_abs() <= 1e-12

    def test_constant_killed_by_blocks(self, grid1d):
        one = ScalarField(grid1d, np.ones(grid1d.shape))
        for j in block_range(grid1d):
            assert dyadic_block(one, j).max_abs() <= 1e-14

    def test_constant_passes_lowpass(self, grid1d):
        one = ScalarField(grid1d, np.ones(grid1d.shape))
        assert np.max(np.abs(low_freq(one, 0).values - 1.0)) <= 1e-12

    def test_high_mode_blocked_by_lowpass(self, grid1d):
        x = grid1d.mesh()[0]
        L = grid1d.box_len
        f = ScalarField(grid1d, np.cos(2 * np.pi * 60 * x / L))  # |xi| ~ 9.4
        assert low_freq(f, 0).max_abs() <= 1e-12

    # Unchecked, a nan scale gives an all-zero low-pass, and 1.5 filters at 2^1.5.
    @pytest.mark.parametrize("j", [1.5, 2.0, np.nan, True, None])
    def test_scale_must_be_an_integer(self, noise, j):
        for cut in (dyadic_block, low_freq):
            with pytest.raises(ValueError, match="j must be an integer"):
                cut(noise, j)

    def test_out_of_range_block_is_zero(self, grid1d, noise):
        assert dyadic_block(noise, block_range(grid1d).stop + 2).max_abs() <= 1e-12

    def test_telescoping(self, grid1d, noise):
        for j in (-1, 0, 1, 2):
            lhs = low_freq(noise, j + 1)
            rhs = low_freq(noise, j) + dyadic_block(noise, j)
            assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-10

    def test_partition_of_unity(self, grid1d, rng):
        for _ in range(3):
            f = ScalarField(grid1d, rng.standard_normal(grid1d.shape))
            rec = reconstruct(f)
            assert np.max(np.abs(rec.values - f.values)) <= 1e-10

    def test_partition_multipliers_sum_to_one(self, grid1d):
        from kslab.dyadic import _k_radial, block_profile, lowpass_profile

        blocks = block_range(grid1d)
        k = _k_radial(grid1d)
        total = lowpass_profile(k / 2.0**blocks.start)
        for j in blocks:
            total = total + block_profile(k / 2.0**j)
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    def test_block_near_orthogonality(self, grid1d, noise):
        blocks = block_range(grid1d)
        for j in blocks:
            for jp in blocks:
                if abs(j - jp) >= 2:
                    out = dyadic_block(dyadic_block(noise, jp), j)
                    assert out.max_abs() <= 1e-12

    def test_bernstein_scaling(self, grid1d, noise):
        consts = []
        for j in range(0, min(block_range(grid1d).stop, 5)):
            bj = dyadic_block(noise, j)
            if bj.max_abs() > 1e-12:
                consts.append(
                    magnitude(gradient(bj)).max_abs() / bj.max_abs() / 2.0**j
                )
        assert max(consts) / min(consts) <= 4.0


class TestGeneralizedYoung:
    def test_rejects_negative_scale(self, noise):
        with pytest.raises(ValueError):
            generalized_young_check(noise, 1, -1)

    def test_zero_field(self, grid1d):
        zero = ScalarField(grid1d, np.zeros(grid1d.shape))
        assert generalized_young_check(zero, 1, 0) == 0.0

    def test_constant_field_block_part_vanishes(self, grid1d):
        one = ScalarField(grid1d, np.ones(grid1d.shape))
        for j in (1, 2, 3):
            ratio = generalized_young_check(one, 1.0, j)
            assert 0 < ratio <= 1.0

    def test_localized_bump_sweep_uniformly_bounded(self):
        grid = make_grid(1, 512, 40.0)
        x = grid.mesh()[0]
        bump = ScalarField(grid, np.exp(-(x**2) / 0.02))
        ratios = [generalized_young_check(bump, 1.0, j) for j in range(0, 5)]
        assert max(ratios) <= 2.0
        assert min(ratios) > 0

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_fitted_constant_uniform_over_scales(self, p, rng):
        # The extremizing family: a grid delta (flat spectrum), band-passed
        # noise per scale, per-scale bumps, and plain noise.  One fitted
        # constant covers all scales with spread at most 2x.
        grid = make_grid(1, 512, 40.0)
        x = grid.mesh()[0]
        noise = ScalarField(grid, rng.standard_normal(grid.shape))
        spike_vals = np.zeros(grid.shape)
        spike_vals[grid.n_axis // 2] = 1.0
        fields = [noise, ScalarField(grid, spike_vals)]
        for jw in range(0, 5):
            fields.append(ScalarField(grid, np.exp(-(x**2) / (2 * 4.0**-jw))))
            bp = dyadic_block(noise, jw)
            if bp.max_abs() > 1e-12:
                fields.append(bp)
        c_j = [
            max(generalized_young_check(f, p, j) for f in fields) for j in range(0, 5)
        ]
        assert max(c_j) / min(c_j) <= 2.0

    def test_convolution_bound(self, rng):
        # The sup norm of (smooth compactly supported kernel) * f is bounded
        # by the uniformly local L^1 norm of f, uniformly over fields.
        grid = make_grid(1, 512, 40.0)
        kernel = cutoff_phi(grid, (0.0,), 1.0)
        ratios = []
        for _ in range(5):
            f = ScalarField(grid, rng.standard_normal(grid.shape))
            conv = _irfft(_rfft(kernel.values) * _rfft(f.values), grid) * grid.spacing
            denom = uloc_norm(f, 1.0, 1.0)
            ratios.append(float(np.max(np.abs(conv))) / denom)
        assert max(ratios) <= 10.0
        assert max(ratios) / min(ratios) <= 3.0


class TestBlockRange:
    def test_block_range_covers_grid(self, grid1d):
        blocks = block_range(grid1d)
        k_min = 2 * np.pi / grid1d.box_len
        k_max = np.pi * grid1d.n_axis / grid1d.box_len
        assert 2.0**blocks.start <= k_min
        assert 1.5 * 2.0**blocks[-1] >= k_max
