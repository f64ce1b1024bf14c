"""The array float formatter against its oracle, one repr call per cell.

These tests hold on every numpy that pyproject.toml accepts; the CI
workflow also runs them on the oldest, whose scalar promotion rules
predate NEP 50.
"""

from __future__ import annotations

import numpy as np
import pytest

from visage._floats import lines


def repr_lines(block) -> list[str]:
    return [",".join(map(repr, row)) for row in block.tolist()]


def assert_as_repr(block):
    block = np.asarray(block, dtype=float)
    got, want = lines(block), repr_lines(block)
    if got != want:
        assert len(got) == len(want)
        row, (line, expected) = next((i, p) for i, p in enumerate(zip(got, want)) if p[0] != p[1])
        pytest.fail(f"row {row}: {line[:300]!r} != {expected[:300]!r}")


def signed(values) -> np.ndarray:
    """The values and their negatives, as one column."""
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])[:, None]


class TestOracle:
    def test_random_bit_patterns(self):
        """2M random 64-bit patterns. An eighth are uniform over every
        pattern, NaN payloads, inf and subnormals among them; most of
        those take repr's own path. The rest draw the exponent field
        from 2^-15 to 2^54, the band around the values that repr writes
        positionally, where the kernel writes the digits. Then a block
        of NaN, inf and subnormals for sure."""
        rng = np.random.default_rng(2018)
        bits = rng.integers(0, 2**64, size=(31_250, 64), dtype=np.uint64)
        exponents = rng.integers(1023 - 15, 1023 + 55, size=bits[3_906:].shape, dtype=np.uint64)
        bits[3_906:] = (bits[3_906:] & np.uint64(0x800F_FFFF_FFFF_FFFF)) | (exponents << np.uint64(52))
        assert_as_repr(bits.view(np.float64))
        mantissas = rng.integers(0, 2**52, size=(200, 64), dtype=np.uint64)
        special = np.concatenate([mantissas, mantissas | np.uint64(0x7FF << 52)])
        special[:, 0] = np.uint64(0x7FF << 52)  # inf among the NaNs
        special[::2] |= np.uint64(1 << 63)
        assert_as_repr(special.view(np.float64))

    def test_every_power_of_two(self):
        assert_as_repr(signed([2.0**e for e in range(-1074, 1024)]))

    def test_every_power_of_ten_and_its_neighbours(self):
        tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
        neighbours = [np.nextafter(tens, 0.0), tens, np.nextafter(tens, np.inf)]
        assert_as_repr(signed(np.concatenate(neighbours)))

    def test_integers_around_two_to_the_53(self):
        offsets = range(-2000, 2001)
        values = [float(2**53 + i) for i in offsets] + [float(2**54 + 2 * i) for i in offsets]
        assert_as_repr(signed(values))

    @pytest.mark.parametrize("edge", [1e-4, 1e16])
    def test_both_sides_of_each_notation_switch(self, edge):
        """repr writes -4 < decpt <= 16 positionally and the rest with an
        exponent; the formatter takes the two sides differently."""
        below = [edge]
        above = [edge]
        for _ in range(50):
            below.append(np.nextafter(below[-1], 0.0))
            above.append(np.nextafter(above[-1], np.inf))
        rng = np.random.default_rng(16)
        near = edge * 10.0 ** rng.uniform(-1.5, 1.5, 20_000)
        assert_as_repr(signed(below + above + near.tolist()))

    def test_scaled_normals_and_rounded_values(self):
        """The shapes of numbers a cohort holds: draws at every scale,
        and values with few digits and trailing zeros."""
        rng = np.random.default_rng(7)
        scales = 10.0 ** rng.integers(-8, 20, size=(2_000, 16))
        draws = rng.standard_normal((2_000, 16)) * scales
        assert_as_repr(draws)
        assert_as_repr(np.round(draws, 2))
        assert_as_repr(rng.integers(-10**6, 10**6, size=(500, 8)) / 4.0)

    @pytest.mark.parametrize(
        "shape", [(0, 0), (0, 3), (3, 0), (1, 1), (7, 5), (300, 64), (2, 10_000), (20_000, 1)]
    )
    def test_block_shapes(self, shape):
        """Empty blocks, one cell, and blocks that span several chunks of
        the kernel, by rows or within one row."""
        values = np.random.default_rng(sum(shape)).standard_normal(shape)
        assert_as_repr(values)

    def test_signed_zeros(self):
        assert lines(np.array([[0.0]])) == ["0.0"]
        assert lines(np.array([[-0.0]])) == ["-0.0"]
        assert_as_repr([[0.0, -0.0, 1.0], [-0.0, 0.0, -1.0]])

    def test_input_forms(self):
        """A float32, strided or transposed block is written as its
        float64 values."""
        rng = np.random.default_rng(3)
        values = rng.standard_normal((40, 30))
        assert_as_repr(values[::3, ::2])
        assert_as_repr(values.T)
        assert lines(values.astype(np.float32)) == repr_lines(values.astype(np.float32).astype(float))
        assert lines([[1.5, 2]]) == ["1.5,2.0"]
