"""Every case of the golden record (``tests/golden.py``) still gives the
recorded outputs: float64 values within 1e-12 of each array's largest
magnitude, float32 bytes where the environment matches the record's, and
everywhere float32 values within 1e-4 of the float64 record's."""

import json

import numpy as np
import pytest

import golden


@pytest.fixture(scope="module")
def computed():
    return golden.compute()


@pytest.fixture(scope="module")
def record():
    return json.loads(golden.RECORD.read_text())


def test_the_record_is_small():
    size = golden.RECORD.stat().st_size + golden.VALUES.stat().st_size
    assert size < 1_000_000


def test_float64_values_match(computed):
    got = computed[1]
    with np.load(golden.VALUES) as stored:
        assert sorted(got) == sorted(stored.files)
        for name in stored.files:
            want = stored[name]
            assert got[name].shape == want.shape, name
            bound = golden.RTOL * np.abs(want).max()
            np.testing.assert_allclose(got[name], want, rtol=0, atol=bound, err_msg=name)


def test_arithmetic_free_files_match(computed, record):
    assert computed[2] == record["exact"]


def test_float32_values_near_float64_record(computed):
    near = computed[3]
    with np.load(golden.VALUES) as stored:
        assert sorted(near) == sorted(name for name in stored.files
                                      if not name.startswith("predict/"))
        for name, got in near.items():
            want = stored[name]
            assert got.shape == want.shape, name
            bound = golden.F32_RTOL * np.abs(want).max()
            np.testing.assert_allclose(got, want, rtol=0, atol=bound, err_msg=name)


def test_float32_bytes_match(computed, record):
    here = golden.fingerprint()
    if here != record["fingerprint"]:
        pytest.skip(f"float32 digests were made in {record['fingerprint']}, this is {here}")
    got = computed[0]
    assert sorted(got) == sorted(record["float32"])
    moved = [name for name in got if got[name] != record["float32"][name]]
    assert not moved, f"float32 outputs moved in {record['fingerprint']}: {moved}"
