"""Byte-identity guard for the figure and campaign subcommands' stdout.

Figures are pinned by docs/FIGURES.md: one ``figures --all`` session
runs once, its stdout is split per figure, and each figure must equal
its block in that file, so a failure names the figure and its first
differing line.  Rerun ``scripts/generate_figures_md.py`` only for an
intended change of figure output.

Each campaign digest is the sha256 of what ``repro.cli`` prints for one
small, seed-deterministic campaign grid.  The four campaigns write one
shared ledger, and ``runs slo --policy <campaign>`` is pinned over it,
so a change to the sweep-cell record format or the SLO verdict shows
here as well as a change to the tables.  Regenerate a digest only for
an intended change of output, and say so in the change log.
"""

import hashlib
import io
from contextlib import redirect_stdout
from itertools import zip_longest
from pathlib import Path

import pytest

from repro.cli import FIGURES, main

FIGURES_MD = Path(__file__).resolve().parent.parent / "docs" / "FIGURES.md"

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


def _doc_blocks() -> dict[str, str]:
    """Figure id → what the CLI prints for it, per docs/FIGURES.md.

    A figure's section is headed ``## <id> · <caption>`` and holds one
    fenced ``text`` block; the CLI prints that block and a blank line.
    """
    blocks: dict[str, str] = {}
    lines = iter(FIGURES_MD.read_text(encoding="utf-8").split("\n"))
    fid = None
    for line in lines:
        if line.startswith("## "):
            fid = line[3:].split(" ", 1)[0]
        elif line == "```text":
            body = []
            for line in lines:
                if line == "```":
                    break
                body.append(line)
            blocks[fid] = "\n".join(body) + "\n\n"
    return blocks


def _per_figure(ids: list[str], out: str) -> dict[str, str]:
    """Split ``figures`` stdout at each ``== <title> ==`` heading."""
    lines = out.split("\n")
    starts = [i for i, line in enumerate(lines) if line.startswith("== ")]
    assert len(starts) == len(ids), out
    bounds = starts[1:] + [len(lines) - 1]
    return {fid: "\n".join(lines[a:b]) + "\n"
            for fid, a, b in zip(ids, starts, bounds)}


def _check_against_docs(fid: str, printed: str) -> None:
    """Fail with the figure id and its first line that differs from the docs."""
    pairs = zip_longest(printed.split("\n"), _doc_blocks()[fid].split("\n"),
                        fillvalue="<end>")
    for n, (got, doc) in enumerate(pairs, 1):
        if got != doc:
            pytest.fail(f"{fid} differs from docs/FIGURES.md at block line "
                        f"{n}:\n  docs: {doc!r}\n  cli:  {got!r}",
                        pytrace=False)


@pytest.fixture(scope="session")
def figure_session_stdout():
    """``figures --all --no-ledger`` stdout, run once."""
    return _run(["figures", "--all", "--no-ledger"])


def test_docs_list_every_figure_in_order():
    assert list(_doc_blocks()) == list(FIGURES)


@pytest.mark.parametrize("fig", list(FIGURES))
def test_figure_stdout(figure_session_stdout, fig):
    """Every figure of the session prints its docs/FIGURES.md block."""
    _check_against_docs(
        fig, _per_figure(list(FIGURES), figure_session_stdout)[fig])


@pytest.mark.parametrize("fig", ["F5", "F8"])
def test_figure_alone_matches_docs(fig):
    """A figure that shares its corpus in the session prints the same alone."""
    _check_against_docs(fig, _run(["figures", "--ids", fig, "--no-ledger"]))


def test_figures_with_ledger_print_the_same(figure_session_stdout, tmp_path):
    """Recording every figure to the ledger leaves the stdout unchanged."""
    out = _run(["figures", "--all", "--runs-dir", str(tmp_path)])
    assert list(tmp_path.glob("*.jsonl")), "no ledger was written"
    assert out == figure_session_stdout


def test_figure_session_shares_data_per_module_run(monkeypatch):
    """Figures of one module share memoised data, and that data is freed
    before the next module's figures run."""
    import sys
    import types
    import weakref

    from repro.cli import figure_session
    from repro.vfs.memo import shared

    class Corpus:
        pass

    built, refs = [], []

    def figure(module):
        def run():
            corpus = shared("corpus",
                            lambda: built.append(module) or Corpus())
            refs.append(weakref.ref(corpus))
            return None, {}
        return run

    for module in ("_figs_a", "_figs_b"):
        stub = types.ModuleType(module)
        stub.one, stub.two = figure(module), figure(module)
        monkeypatch.setitem(sys.modules, module, stub)
    monkeypatch.setattr("repro.cli.FIGURES", {
        "A1": "_figs_a:one", "A2": "_figs_a:two",
        "B1": "_figs_b:one", "B2": "_figs_b:two"})

    session = figure_session(["A1", "A2", "B1", "B2"])
    assert [next(session)[0], next(session)[0]] == ["A1", "A2"]
    assert refs[0]() is refs[1]() is not None
    assert next(session)[0] == "B1"
    assert refs[0]() is None, "module A's data outlived its figures"
    assert [fid for fid, _, _ in session] == ["B2"]
    assert built == ["_figs_a", "_figs_b"]
    assert refs[2]() is None and refs[3]() is None
