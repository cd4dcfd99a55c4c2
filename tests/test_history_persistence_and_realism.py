"""History persistence round-trips and text/tagger realism checks."""

import pytest

from repro.apps import PosTaggerApplication
from repro.corpus import text_400k_like
from repro.obs.ledger import RunLedger, RunRecord
from repro.perfmodel import HistoricalPredictor


class TestHistoryPersistence:
    """Past runs persist as ``kind="history"`` records in a run ledger
    file, the store ``examples/fleet_learning.py`` plans day two from."""

    def test_save_load_roundtrip(self, tmp_path):
        ledger = RunLedger(tmp_path, filename="history.jsonl")
        ledger.append(RunRecord(kind="history", label="grep",
                                config={"instance_id": "i-1", "n_units": 3},
                                extra={"volume": 1000, "seconds": 0.1 + 0.2}))
        ledger.append(RunRecord(kind="history", label="postag",
                                extra={"volume": 2000, "seconds": 9.0}))
        loaded = RunLedger(tmp_path, filename="history.jsonl")
        assert len(loaded) == 2
        grep, = loaded.records(kind="history", label="grep")
        assert grep.config["instance_id"] == "i-1"
        # float seconds come back bit-exact, so a plan sized from the
        # loaded history equals one sized from the in-memory runs
        assert grep.extra["seconds"] == 0.1 + 0.2
        assert loaded.records(label="postag")[0].extra["seconds"] == 9.0

    def test_invalid_record_rejected_on_load(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for volume in (-5, 2000):
            ledger.append(RunRecord(kind="history", label="grep",
                                    extra={"volume": volume, "seconds": 1.0}))
        past = RunLedger(tmp_path).records(kind="history", label="grep")
        with pytest.raises(ValueError):
            HistoricalPredictor.from_runs([r.extra["volume"] for r in past],
                                          [r.extra["seconds"] for r in past])


class TestTagDistributionRealism:
    """The tagger's output on generated news text should look like English:
    nouns dominate the open class, determiners and prepositions are
    frequent, and every token receives a tag."""

    @pytest.fixture(scope="class")
    def tag_counts(self):
        units = list(text_400k_like(scale=5e-4))[:60]
        result = PosTaggerApplication().run_native(units)
        return result.outputs["tag_counts"], result.work

    def test_nouns_most_common_open_class(self, tag_counts):
        counts, _ = tag_counts
        open_class = {t: counts.get(t, 0) for t in ("NN", "NNS", "VB", "VBD", "JJ", "RB")}
        assert max(open_class, key=open_class.get) in ("NN", "NNS")

    def test_determiners_frequent(self, tag_counts):
        counts, work = tag_counts
        dt_rate = counts.get("DT", 0) / work.tokens
        # English: ~8-12% determiners; generated text is determiner-heavy
        assert 0.05 < dt_rate < 0.30

    def test_prepositions_present(self, tag_counts):
        counts, work = tag_counts
        assert counts.get("IN", 0) / work.tokens > 0.03

    def test_every_token_tagged(self, tag_counts):
        counts, work = tag_counts
        assert sum(counts.values()) == work.tokens

    def test_punct_matches_sentence_count_roughly(self, tag_counts):
        counts, work = tag_counts
        # at least one terminal punctuation token per sentence
        assert counts.get("PUNCT", 0) >= work.sentences * 0.8
