"""Golden digest of the ``run-all`` output directory.

The digest pins every output file byte for byte, so a rewrite of the file
I/O or of a numerical kernel must keep the outputs identical.  Changing the
digest needs a stated reason: an intended change of an output format or of a
model result.
"""

import hashlib
import os

import numpy as np
import pytest

import pandmort.cli as cli

# Outputs may legitimately differ in the last bits under other NumPy builds,
# so the digest is only binding for the version it was taken with.  The
# pipeline imports no SciPy, so SciPy's version does not enter the outputs.
GOLDEN_VERSIONS = {"numpy": "2.4.6"}
GOLDEN_SHA256 = "008826774c0f84ae8246125d43fa0ad14db48567894d7917b1d3bbefa3e6d266"

CONFIG = """\
[data]
dir = data

[run]
countries = AAA,BBB
years = 1970:2019
ages = 0:90
covid_ages = 40:90
seasonal_years = 2010:2019
hist_years = 2015:2019
method = 2
knots = 12
eta = 0.5
horizon = 30
seed = 1234
"""


def tree_digest(root):
    """SHA-256 over the sorted (file name, file bytes) pairs of a directory."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0")
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def test_run_all_golden_digest(tmp_path, monkeypatch):
    found = {"numpy": np.__version__}
    if found != GOLDEN_VERSIONS:
        pytest.skip(f"golden digest taken with {GOLDEN_VERSIONS}, running {found}")
    # A relative data directory keeps the config text, and so its hash
    # stamped into every output, independent of where the test runs.
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synth", "--out", "data", "--seed", "1234"]) == 0
    (tmp_path / "run.ini").write_text(CONFIG)
    assert cli.main(["run-all", "--config", "run.ini", "--out", "out"]) == 0
    assert tree_digest("out") == GOLDEN_SHA256
