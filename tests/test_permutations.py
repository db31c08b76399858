"""Word codec, Fisher-Yates replay/sampling, and the recursive S_n generator:
the classical references in ``oracles`` that the circuit tests compare with."""

from collections import Counter
from itertools import permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from oracles import (
    draw_sequences,
    lemma1_extend,
    replay_reversed_fisher_yates,
    sample_fisher_yates,
    word_of_permutation,
)

UNIFORMITY_ALPHA = 1e-3


def uniform_pvalue(counts: Counter, bins: int, shots: int) -> float:
    expected = shots / bins
    stat = sum((counts.get(b, 0) - expected) ** 2 / expected for b in counts)
    stat += (bins - len(counts)) * expected
    return float(chi2.sf(stat, bins - 1))


def test_word_of_identity():
    assert word_of_permutation([0, 1, 2]) == (0, 1, 2)


def test_word_of_transposition_is_self_inverse():
    assert word_of_permutation([1, 0, 2]) == (1, 0, 2)


def test_word_of_three_cycle():
    # sigma: 0->1, 1->2, 2->0; invert by table lookup: sigma^-1 = (2, 0, 1)
    sigma = [1, 2, 0]
    inverse = [0] * 3
    for k, v in enumerate(sigma):
        inverse[v] = k
    assert tuple(inverse) == (2, 0, 1)
    assert word_of_permutation(sigma) == (2, 0, 1)


def test_word_of_non_bijection_rejected():
    with pytest.raises(ValueError):
        word_of_permutation([0, 0, 2])


def test_replay_trace_n3():
    assert replay_reversed_fisher_yates(3, (1, 0)) == (2, 1, 0)


def test_replay_n2():
    assert replay_reversed_fisher_yates(2, (0,)) == (1, 0)


def test_replay_all_self_exchanges():
    assert replay_reversed_fisher_yates(4, (1, 2, 3)) == (0, 1, 2, 3)


def test_replay_draw_out_of_range():
    with pytest.raises(ValueError):
        replay_reversed_fisher_yates(3, (2, 0))


@given(st.integers(2, 6), st.data())
@settings(max_examples=50, deadline=None)
def test_replay_is_deterministic_and_valid(n, data):
    draws = tuple(data.draw(st.integers(0, i)) for i in range(1, n))
    first = replay_reversed_fisher_yates(n, draws)
    assert first == replay_reversed_fisher_yates(n, draws)
    assert sorted(first) == list(range(n))


def test_replay_hits_each_word_exactly_once():
    # counting argument: the n-1 draws biject onto S_n for n <= 5
    for n in range(2, 6):
        words = [replay_reversed_fisher_yates(n, d) for d in draw_sequences(n)]
        assert len(words) == factorial(n)
        assert sorted(set(words)) == list(permutations(range(n)))


def test_sample_n1():
    rng = np.random.default_rng(3)
    assert sample_fisher_yates(1, rng) == (0,)


def test_sample_reversed_uniform_n4():
    rng = np.random.default_rng(42)
    counts = Counter(sample_fisher_yates(4, rng, "reversed") for _ in range(100000))
    assert len(counts) == 24
    assert uniform_pvalue(counts, 24, 100000) > UNIFORMITY_ALPHA


def test_sample_forward_and_reversed_both_uniform_n3():
    for direction, seed in (("forward", 7), ("reversed", 8)):
        rng = np.random.default_rng(seed)
        counts = Counter(sample_fisher_yates(3, rng, direction) for _ in range(100000))
        assert uniform_pvalue(counts, 6, 100000) > UNIFORMITY_ALPHA


def test_lemma1_base_step():
    assert sorted(lemma1_extend([(0,)])) == [(0, 1), (1, 0)]


def test_lemma1_s3_to_s4_distinct():
    s3 = list(permutations(range(3)))
    out = lemma1_extend(s3)
    assert len(out) == 24
    assert len(set(out)) == 24


def test_lemma1_iterates_to_s6():
    words = [(0,)]
    for _ in range(5):
        words = lemma1_extend(words)
    assert len(words) == 720
    assert sorted(set(words)) == list(permutations(range(6)))


def test_lemma1_matches_composition_oracle():
    # independent oracle: build tau o sigma~ as a function table, invert it,
    # and compare with the word-swap implementation; also check the two
    # inverse identities (new word maps j -> i and i -> old word[j])
    i = 4
    s4 = list(permutations(range(i)))
    out = lemma1_extend(s4)
    pos = 0
    for w in s4:
        sigma = [0] * i
        for k, v in enumerate(w):  # w[k] = sigma^-1(k)
            sigma[v] = k
        sigma_ext = sigma + [i]
        for j in range(i + 1):
            tau = list(range(i + 1))
            tau[j], tau[i] = tau[i], tau[j]
            composed = [tau[sigma_ext[k]] for k in range(i + 1)]
            assert out[pos] == word_of_permutation(composed)
            assert out[pos][j] == i
            # second identity applies to proper exchanges; j = i leaves i fixed
            assert out[pos][i] == (w[j] if j < i else i)
            pos += 1


def test_lemma1_rejects_partial_input():
    with pytest.raises(ValueError):
        lemma1_extend([(0, 1, 2)])


def test_lemma1_matches_replay_exhaustively():
    # folding the lemma step along a draw sequence equals the replay
    for n in range(2, 6):
        for draws in draw_sequences(n):
            word = (0,)
            for i, j in enumerate(draws, start=1):
                extended = list(word) + [i]
                extended[j], extended[i] = extended[i], extended[j]
                word = tuple(extended)
            assert word == replay_reversed_fisher_yates(n, draws)


def test_lemma1_rejects_duplicates():
    with pytest.raises(ValueError):
        lemma1_extend([(0, 1), (0, 1)])
