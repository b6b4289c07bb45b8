"""The row statistics of the layer norm and of RevIN do not depend on how
many rows share the call.

The streamed eval forward normalizes a chunk of rows at a time, and the taped
forward all rows at once; `test_streamed_pass_equals_the_taped_forward` asks
their forecasts to be equal byte for byte.  That holds only while a row's
mean and variance come out the same whichever rows are reduced with it and
wherever they sit in memory.  These tests pin that property on the reduction
itself, so a swap to one that depends on the row count fails here first.
"""

import numpy as np
import pytest

from mixcast import mixer, slstm

ROWS = 2048
REQUIREMENT = ("a row's statistics must not depend on the rows reduced with it: the "
               "streamed eval forward normalizes chunks of rows and must equal the taped "
               "forward over all of them (test_streamed_pass_equals_the_taped_forward)")


def moments(x):
    """(mean, variance, centred rows) of x as slstm.row_moments makes them."""
    mean, var = (np.empty((x.shape[0], 1), x.dtype) for _ in range(2))
    centred = np.empty_like(x)
    slstm.row_moments(x, centred, mean, var)
    return mean, var, centred


def same_bits(a, b):
    """Whether a and b hold the same bits, read as unsigned integers."""
    kind = f"u{a.itemsize}"
    return a.shape == b.shape and bool((a.view(kind) == b.view(kind)).all())


def shifted_copy(a):
    """a copied to a buffer that starts one element later than an aligned one."""
    flat = np.empty(a.size + 1, a.dtype)[1:]
    copy = flat.reshape(a.shape)
    copy[:] = a
    return copy


def row_ranges():
    """One range [lo, hi) of every length from 1 to ROWS, at spread offsets."""
    for count in range(1, ROWS + 1):
        lo = (count * 7919) % (ROWS - count + 1)
        yield lo, lo + count


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [7, 21, 64, 96])
def test_row_moments_of_any_row_range_equal_the_whole_matrix(dtype, width):
    x = np.random.default_rng(width).normal(3.0, 2.0, size=(ROWS, width)).astype(dtype)
    whole = moments(x)
    for lo, hi in row_ranges():
        for rows in (x[lo:hi], shifted_copy(x[lo:hi])):
            for name, got, want in zip(("mean", "variance", "centred rows"), moments(rows),
                                       whole):
                assert same_bits(got, want[lo:hi]), (
                    f"{dtype.__name__} width {width}: {name} of rows [{lo}, {hi}) differ "
                    f"from the whole matrix's; {REQUIREMENT}")


def test_layer_norm_and_revin_take_these_moments():
    # A block's normed rows (gain 1, shift 0) and RevIN's returned
    # statistics are made from row_moments.
    x = np.random.default_rng(1).normal(size=(24, 8)).astype(np.float32)
    mean, var, centred = moments(x)
    cfg = slstm.BlockConfig(d_hidden=8, num_heads=2)
    w = slstm.init_block_weights(cfg, np.random.default_rng(2))
    stream = slstm.Stream(cfg, [w], 3, 24, 24, slstm.Scratch(), np.float32)
    slstm._stack_tokens(stream, mixer.Tensor(x, dtype=np.float32))
    inv_std = np.float32(1.0) / np.sqrt(var + np.float32(slstm.LN_EPS))
    assert stream.blocks[0].ring.tobytes() == (centred * inv_std).tobytes()

    ones, zeros = np.ones((24, 1), np.float32), np.zeros((24, 1), np.float32)
    revin = mixer.RevInParams(mixer.Tensor(ones, dtype=np.float32),
                              mixer.Tensor(zeros, dtype=np.float32))
    _, (got_mean, got_std) = mixer.revin_normalize(revin, x)
    std = np.sqrt(var + np.float32(mixer.REVIN_EPS))
    assert got_mean.tobytes() == mean.tobytes() and got_std.tobytes() == std.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [7, 96])
def test_revin_statistics_of_any_row_range_equal_the_whole_matrix(dtype, width):
    x = np.random.default_rng(width).normal(3.0, 2.0, size=(ROWS, width)).astype(dtype)

    def stats(rows):
        ones = np.ones((rows.shape[0], 1), dtype)
        revin = mixer.RevInParams(mixer.Tensor(ones, dtype=dtype),
                                  mixer.Tensor(0 * ones, dtype=dtype))
        return mixer.revin_normalize(revin, rows)[1]

    whole = stats(x)
    for lo, hi in list(row_ranges())[::61]:
        for name, got, want in zip(("mean", "deviation"), stats(x[lo:hi]), whole):
            assert same_bits(got, want[lo:hi]), (
                f"{dtype.__name__} width {width}: RevIN {name} of rows [{lo}, {hi}) "
                f"differs from the whole matrix's; {REQUIREMENT}")
