"""The block-wise raw-dataset writer against the row-wise one it replaced
(``rowwise_synth``): the same files, byte for byte, and the same truth."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pandmort.synthetic as sy
import rowwise_synth as ref

COUNTRY = st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=3, max_size=3)


def tree_bytes(root):
    files = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            files[name] = fh.read()
    return files


# An odd country count reaches the last country without a deviation.
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       countries=st.lists(COUNTRY, min_size=1, max_size=4, unique=True))
def test_block_writer_matches_rowwise(seed, countries):
    with tempfile.TemporaryDirectory() as new, tempfile.TemporaryDirectory() as old:
        got = sy.write_synthetic_dataset(new, seed=seed, countries=tuple(countries))
        want = ref.write_synthetic_dataset(old, seed=seed, countries=tuple(countries))
        assert tree_bytes(new) == tree_bytes(old)
    for g, w in zip(got, want):
        np.testing.assert_equal(g, w)


def test_every_raw_file_goes_through_write_table(tmp_path, monkeypatch):
    """``write_table`` writes each of the seven raw files once: the HMD
    deaths, exposures and population of each country, and the STMF file."""
    written = []
    real = sy.write_table
    monkeypatch.setattr(sy, "write_table",
                        lambda path, *a: written.append(os.path.basename(path)) or real(path, *a))
    sy.write_synthetic_dataset(str(tmp_path), seed=5)
    assert len(written) == 7
    assert sorted(written) == sorted(os.listdir(tmp_path))
