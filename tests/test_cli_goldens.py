"""Byte-identity guard for the campaign subcommands' stdout.

Each digest is the sha256 of what ``repro.cli`` prints for one small,
seed-deterministic campaign grid.  The four campaigns write one shared
ledger, and ``runs slo --policy <campaign>`` is pinned over it, so a
change to the sweep-cell record format or the SLO verdict shows here as
well as a change to the tables.  The X6 figure (prediction from past
runs vs. models) is pinned the same way.  Regenerate a digest only for
an intended change of output, and say so in the change log.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from repro.cli import main

CAMPAIGNS = {
    "chaos": ["chaos", "--scenario", "slow-ebs", "--seeds", "1"],
    "spot": ["spot", "--regime", "calm", "--bids", "0.06",
             "--slacks", "1.0", "--seeds", "1", "--slo"],
    "dag": ["dag", "--backend", "local", "--shape", "linear",
            "--seeds", "1", "--slo"],
    "matrix": ["matrix", "--stack", "spot", "--shape", "linear",
               "--regime", "choppy", "--seeds", "1", "--slo"],
}

STDOUT_SHA256 = {
    "chaos": "9f88a6df56843ec59ace8ea26d0e0df250de8c9e5af46029c4f7f35126db6db1",
    "spot": "b4287071287708be88bb41fedf336aeaed80f9c806bd8a02a0604c6b6588661b",
    "dag": "8a321ffd841408080f1e42e8ca72d13a6998adff52eaf683c71b69ba13ef2aea",
    "matrix": "abbe74fcea275da3afb688dacc735f29c24c7f10a8536b52db9445fa11a16ba9",
}

FIGURE_SHA256 = {
    "X6": "cec06f00c1df861caf544e8b86c1725ff7df31eafe64b0cf188d79db07c1f4c4",
}

RUNS_SLO_SHA256 = {
    "chaos": "5224283143f97bfba057b91dba8e948d949a88ec03f2bc7c6141be10e4febb6a",
    "spot": "be74627677d4af934af8416392db94e8c5ed6eff7f68af9f2d09268abd297193",
    "dag": "15cf542b791b25e214ea68b61da34e53ef54111ba0f2ba5dee6d17f64cec37f4",
    "matrix": "9bbde03e3474e74054ab43bb03e35d7429a26a37af745cd39aacee968620bc07",
}


def _run(argv: list[str]) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def campaign_runs(tmp_path_factory):
    """Run the four campaigns, in order, into one fresh ledger."""
    runs_dir = str(tmp_path_factory.mktemp("ledger"))
    out = {name: _run(argv + ["--runs-dir", runs_dir])
           for name, argv in CAMPAIGNS.items()}
    return runs_dir, out


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_stdout(campaign_runs, name):
    _, out = campaign_runs
    assert _sha(out[name]) == STDOUT_SHA256[name], out[name]


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_runs_slo_over_campaign_ledger(campaign_runs, name):
    runs_dir, _ = campaign_runs
    out = _run(["runs", "slo", "--policy", name, "--runs-dir", runs_dir])
    assert _sha(out) == RUNS_SLO_SHA256[name], out


def test_chaos_pool_matches_inline():
    """Two worker processes print what the inline sweep prints."""
    out = _run(CAMPAIGNS["chaos"] + ["--processes", "2", "--no-ledger"])
    assert _sha(out) == STDOUT_SHA256["chaos"], out


@pytest.mark.parametrize("fig", sorted(FIGURE_SHA256))
def test_figure_stdout(fig):
    out = _run(["figures", "--ids", fig, "--no-ledger"])
    assert _sha(out) == FIGURE_SHA256[fig], out
