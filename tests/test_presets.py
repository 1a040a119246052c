import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kslab import presets
from kslab.config import ConfigError, ExperimentConfig
from kslab.fields import integrate, make_grid
from kslab.norms import cutoff_psi
from kslab.presets import PRESET_NAMES, build_initial


def _closure_formulas(name, amplitude, width, grid, seed):
    """(n0, c0) of each preset, evaluated on the full coordinate mesh."""
    mesh = grid.mesh()

    def radius_sq(coords):
        return sum(x * x for x in coords)

    if name == "gaussian_bump":
        n0 = amplitude * np.exp(-radius_sq(mesh) / (2.0 * width**2))
        c0 = 0.5 * amplitude * np.exp(-radius_sq(mesh) / (2.0 * width**2))
    elif name == "two_bumps":
        offset = grid.box_len / 8.0
        shifted_a = (mesh[0] - offset,) + mesh[1:]
        shifted_b = (mesh[0] + offset,) + mesh[1:]
        n0 = amplitude * (
            np.exp(-radius_sq(shifted_a) / (2.0 * width**2))
            + np.exp(-radius_sq(shifted_b) / (2.0 * width**2))
        )
        c0 = 0.5 * amplitude * np.exp(-radius_sq(mesh) / (2.0 * width**2))
    elif name == "constant":
        n0 = np.full_like(mesh[0], amplitude)
        c0 = np.full_like(mesh[0], 0.5 * amplitude)
    else:
        rng = np.random.default_rng(seed)
        amps_n = rng.standard_normal((4,) * grid.d + (2,))
        amps_c = rng.standard_normal((4,) * grid.d + (2,))

        def mix(amps):
            total = np.zeros_like(mesh[0])
            for idx in np.ndindex(*([4] * grid.d)):
                phase = sum(2.0 * np.pi * (m + 1) * x / grid.box_len for m, x in zip(idx, mesh))
                total += amps[idx + (0,)] * np.cos(phase) + amps[idx + (1,)] * np.sin(phase)
            total -= total.min()
            peak = total.max()
            return amplitude * total / peak if peak > 0 else total

        n0, c0 = mix(amps_n), 0.5 * mix(amps_c)
    return n0, c0


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_all_presets_produce_valid_states(self, name):
        grid = make_grid(2, 64, 40.0)
        state = build_initial(grid, name, 1.0, 2.5, M=8.0, seed=3)
        assert state.t == 0.0
        assert state.is_finite()
        assert np.min(state.n.values) >= 0.0
        # two_bumps superposes a pair, so the universal cap is 2x amplitude
        assert state.n.max_abs() <= 2.0
        outside = grid.radius() >= 16.0
        assert np.all(state.n.values[outside] == 0.0)

    def test_constant_preset_plateau(self, grid1d):
        state = build_initial(grid1d, "constant", 0.7, 2.5, M=8.0)
        inside = grid1d.radius() <= 8.0
        assert np.all(state.n.values[inside] == 0.7)
        assert np.all(state.c.values[inside] == 0.35)

    def test_two_bumps_carries_more_mass_than_one(self, grid1d):
        one = build_initial(grid1d, "gaussian_bump", 1.0, 1.5, M=9.0)
        two = build_initial(grid1d, "two_bumps", 1.0, 1.5, M=9.0)
        assert integrate(two.n) > 1.5 * integrate(one.n)

    def test_random_smooth_is_seeded(self, grid1d):
        a = build_initial(grid1d, "random_smooth", 1.0, 2.5, M=8.0, seed=11)
        b = build_initial(grid1d, "random_smooth", 1.0, 2.5, M=8.0, seed=11)
        c = build_initial(grid1d, "random_smooth", 1.0, 2.5, M=8.0, seed=12)
        assert np.array_equal(a.n.values, b.n.values)
        assert not np.array_equal(a.n.values, c.n.values)

    def test_unknown_preset_rejected(self, grid1d):
        with pytest.raises(ValueError):
            build_initial(grid1d, "vortex", 1.0, 2.5, M=8.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "preset,amplitude,width,seed,match",
        [
            ("gaussian_bump", math.nan, 2.5, 0, "amplitude must be finite"),
            ("gaussian_bump", math.inf, 2.5, 0, "amplitude must be finite"),
            ("gaussian_bump", 1.0, math.nan, 0, "width must be positive and finite"),
            ("gaussian_bump", 1.0, math.inf, 0, "width must be positive and finite"),
            ("gaussian_bump", 1.0, 0.0, 0, "width must be positive and finite"),
            ("gaussian_bump", 1.0, -2.5, 0, "width must be positive and finite"),
            ("random_smooth", 1.0, 2.5, 1.5, "seed must be an integer"),
            ("random_smooth", 1.0, 2.5, True, "seed must be an integer"),
            ("gaussian_bump", -1.0, 2.5, 0, "amplitude must be nonnegative"),
            ("random_smooth", 1.0, 2.5, -1, "seed must be nonnegative"),
            ("gaussian_bump", 1.0, 2.5, None, "seed must be an integer"),
        ],
    )
    def test_bad_data_rejected_before_sampling(self, preset, amplitude, width, seed, match):
        # Sampled, nan gives a non-finite state and inf or a zero width only a
        # RuntimeWarning, which this test turns into an error; numpy refuses
        # a seed of 1.5 with a TypeError, -1 with its own message, and takes
        # True as seed 1; a negative amplitude would be caught only once
        # sampled, as a negative density.
        grid = make_grid(1, 64, 40.0)
        with pytest.raises(ValueError, match=match):
            build_initial(grid, preset, amplitude, width, M=9.0, seed=seed)

    @pytest.mark.parametrize("box_len", [40.0, 16.0 * np.pi])
    @pytest.mark.parametrize("d, n_axis", [(1, 256), (2, 64), (3, 16)])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_bitwise_equal_to_the_formulas_on_the_full_mesh(self, name, d, n_axis, box_len):
        # random_smooth contracts per-axis factors instead of evaluating cos
        # and sin of each mode on the full mesh, which rounds differently:
        # it must stay within 1e-13 of the full-mesh formula's sup (it reads
        # 9e-16 here).  Every other preset is the formula byte for byte.
        grid = make_grid(d, n_axis, box_len)
        M = box_len / 9.0
        state = build_initial(grid, name, 1.7, 1.3, M, seed=5)
        n0, c0 = _closure_formulas(name, 1.7, 1.3, grid, seed=5)
        psi = cutoff_psi(grid, M).values
        for got, want in ((state.n.values, psi * n0), (state.c.values, psi * c0)):
            if name == "random_smooth":
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            else:
                assert np.array_equal(got, want)

    def test_build_peaks_at_six_full_arrays(self):
        # The result is two arrays; the coordinates and radius stay on open
        # meshes, so only the fields, psi and its ramp take full arrays.
        grid = make_grid(3, 32, 20.0)
        tracemalloc.start()
        try:
            build_initial(grid, "gaussian_bump", 1.0, 1.25, 4.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * grid.npoints


class TestInitialDataRules:
    # Each rule of validate_initial broken once, through the library and
    # through the config's init.* keys.
    BROKEN = [
        ({"preset": "vortex"}, f"preset must be one of {PRESET_NAMES}"),
        ({"amplitude": -1.0}, "amplitude must be nonnegative"),
        ({"width": 0.0}, "width must be positive and finite"),
        ({"M": -1.0}, "M must be positive"),
        ({"M": 10.0}, "M too large: need 2M < box_len/2"),
        ({"seed": -1}, "seed must be nonnegative"),
    ]

    @pytest.mark.parametrize("change,message", BROKEN)
    def test_config_gives_the_library_message_after_init(self, change, message):
        data = {"preset": "random_smooth", "amplitude": 1.0, "width": 2.5, "M": 8.0, "seed": 0}
        base = ExperimentConfig(d=1, n_axis=64, box_len=40.0, **data)
        with pytest.raises(ValueError) as built:
            build_initial(base.grid(), **{**data, **change})
        assert str(built.value) == message
        with pytest.raises(ConfigError) as validated:
            replace(base, **change)
        assert str(validated.value) == f"init.{message}"

    def test_rules_are_written_only_in_presets(self):
        src = Path(presets.__file__).parent
        for path in sorted(src.glob("*.py")):
            text = path.read_text()
            for needle in ("preset must be", "amplitude must be", "width must be", "seed must be"):
                assert (needle in text) == (path.name == "presets.py"), (path.name, needle)
