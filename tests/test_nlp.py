"""NLP user-modeling tests: n-grams, collocations, alignment (§5.4, §6)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.nlp.alignment import query_by_example, similarity, smith_waterman
from repro.nlp.collocations import (
    bigram_statistics,
    log_likelihood_ratio,
    pmi,
    top_collocations,
)
from repro.nlp.ngram import NGramModel, perplexity_by_order


class TestNGramModel:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            NGramModel(0)
        with pytest.raises(ValueError):
            NGramModel(2, smoothing="kneser_ney_9000")
        with pytest.raises(ValueError):
            NGramModel(2, interpolation_lambda=1.0)
        with pytest.raises(ValueError):
            NGramModel(2, add_k=0)

    def test_unfitted_model_rejects_queries(self):
        with pytest.raises(RuntimeError):
            NGramModel(2).probability("a", [])

    def test_probabilities_sum_to_one_add_k(self):
        model = NGramModel(2, smoothing="add_k").fit([["a", "b", "a"]])
        vocab = ["a", "b", "</s>", "<unk>"]
        total = sum(model.probability(w, ["a"]) for w in vocab)
        assert total == pytest.approx(1.0)

    def test_probabilities_sum_to_one_interpolated(self):
        model = NGramModel(2, smoothing="interpolated").fit(
            [["a", "b", "a", "c"]])
        vocab = ["a", "b", "c", "</s>", "<unk>"]
        total = sum(model.probability(w, ["a"]) for w in vocab)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_deterministic_sequence_learned(self):
        """A strictly alternating sequence is near-perfectly predicted by
        a bigram model but not by a unigram model."""
        train = [["a", "b"] * 20 for __ in range(10)]
        unigram = NGramModel(1).fit(train)
        bigram = NGramModel(2).fit(train)
        test = [["a", "b"] * 20]
        assert bigram.perplexity(test) < unigram.perplexity(test)

    def test_unseen_symbol_maps_to_unk(self):
        model = NGramModel(2).fit([["a", "b"]])
        p = model.probability("never_seen", ["a"])
        assert p > 0

    def test_cross_entropy_positive(self):
        model = NGramModel(2).fit([["a", "b", "a"]])
        assert model.cross_entropy([["a", "b"]]) > 0

    def test_cross_entropy_no_symbols(self):
        model = NGramModel(1).fit([["a"]])
        with pytest.raises(ValueError):
            model.cross_entropy([])

    def test_perplexity_is_two_to_entropy(self):
        model = NGramModel(2).fit([["a", "b", "a", "b"]])
        test = [["a", "b", "a"]]
        assert model.perplexity(test) == pytest.approx(
            2 ** model.cross_entropy(test))

    def test_vocab_size_counts_specials(self):
        model = NGramModel(1).fit([["a", "b"]])
        assert model.vocab_size == 4  # a, b, </s>, <unk>


class TestPerplexityByOrder:
    def test_temporal_signal_curve(self, dictionary, sequence_records):
        """§5.4: behaviour is 'strongly influenced by immediately preceding
        actions' -- the bigram model must beat the unigram decisively."""
        sequences = [r.event_names(dictionary) for r in sequence_records
                     if r.num_events >= 2]
        train, test = sequences[::2], sequences[1::2]
        curve = dict(perplexity_by_order(train, test, max_n=3))
        assert curve[2] < curve[1] / 2          # big drop at n=2
        assert curve[3] < curve[1]              # higher orders stay better
                                                # than no context

    def test_returns_requested_orders(self):
        train = [["a", "b"] * 5] * 4
        curve = perplexity_by_order(train, train, max_n=4)
        assert [n for n, __ in curve] == [1, 2, 3, 4]


class TestCollocations:
    def test_bigram_statistics(self):
        bigrams, unigrams, positions = bigram_statistics([["a", "b", "a"]])
        assert bigrams[("a", "b")] == 1
        assert bigrams[("b", "a")] == 1
        assert unigrams["a"] == 2
        assert positions == 2

    def test_planted_collocation_tops_pmi(self):
        """'hot dog' pattern: x is almost always followed by y, both rare."""
        import random

        rng = random.Random(0)
        sequences = []
        for __ in range(200):
            seq = [rng.choice("abcdef") for __ in range(20)]
            seq[7:7] = ["hot", "dog"]
            sequences.append(seq)
        ranked = pmi(sequences, min_count=5)
        assert (ranked[0].first, ranked[0].second) == ("hot", "dog")

    def test_planted_collocation_tops_llr(self):
        import random

        rng = random.Random(1)
        sequences = []
        for __ in range(200):
            seq = [rng.choice("abcdef") for __ in range(20)]
            seq[3:3] = ["hot", "dog"]
            sequences.append(seq)
        ranked = log_likelihood_ratio(sequences, min_count=5)
        assert (ranked[0].first, ranked[0].second) == ("hot", "dog")

    def test_min_count_threshold(self):
        sequences = [["x", "y"]]  # single occurrence
        assert pmi(sequences, min_count=2) == []

    def test_llr_scores_nonnegative(self):
        sequences = [list("ababab"), list("bcbcbc")]
        for collocation in log_likelihood_ratio(sequences, min_count=1):
            assert collocation.score >= -1e-9

    def test_empty_input(self):
        assert pmi([]) == []
        assert log_likelihood_ratio([]) == []

    def test_top_collocations_dispatch(self):
        sequences = [["a", "b"] * 10]
        assert top_collocations(sequences, method="pmi", min_count=1)
        assert top_collocations(sequences, method="llr", min_count=1)
        with pytest.raises(ValueError):
            top_collocations(sequences, method="word2vec")

    def test_search_collocation_on_workload(self, dictionary,
                                            sequence_records):
        """The generator plants query -> results-impression; LLR must
        surface it among the top pairs."""
        sequences = [r.event_names(dictionary) for r in sequence_records]
        ranked = log_likelihood_ratio(sequences, min_count=5)[:15]
        assert any(c.first.endswith(":query")
                   and c.second.endswith(":result:impression")
                   for c in ranked)


class TestAlignment:
    def test_identical_sequences_score_maximal(self):
        result = smith_waterman("abcd", "abcd")
        assert result.score == 8.0  # 4 matches * 2.0
        assert (result.a_start, result.a_end) == (0, 4)

    def test_local_alignment_finds_shared_substring(self):
        result = smith_waterman("xxabcyy", "zzabczz")
        assert result.score == 6.0
        assert result.a_start == 2 and result.a_end == 5

    def test_empty_sequences(self):
        assert smith_waterman("", "abc").score == 0.0
        assert similarity("", "abc") == 0.0

    def test_no_common_symbols(self):
        assert smith_waterman("aaa", "bbb").score == 0.0

    def test_similarity_normalized(self):
        assert similarity("abc", "abc") == pytest.approx(1.0)
        assert 0 <= similarity("abcdef", "abcxyz") <= 1.0

    def test_gap_tolerance(self):
        with_gap = smith_waterman("abcd", "abxcd")
        assert with_gap.score > smith_waterman("abcd", "wxyz").score

    def test_query_by_example(self, sequence_records):
        probe = max(sequence_records, key=lambda r: r.num_events)
        hits = query_by_example(probe, sequence_records, top_n=5)
        assert len(hits) == 5
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)
        assert all(h.record.user_id != probe.user_id for h in hits)

    def test_query_by_example_include_same_user(self, sequence_records):
        probe = sequence_records[0]
        hits = query_by_example(probe, sequence_records, top_n=3,
                                exclude_same_user=False)
        # the probe itself is the best match
        assert hits[0].record.session_id == probe.session_id

    @given(st.text(alphabet="abcd", max_size=12),
           st.text(alphabet="abcd", max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_alignment_symmetric_score(self, a, b):
        assert smith_waterman(a, b).score == smith_waterman(b, a).score
