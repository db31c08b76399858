"""Classical permutation machinery.

Permutations of {0, .., n-1} are stored as *words*: the array w with
w[k] = sigma^-1(k) (inverted one-line notation).  This is exactly the array
content produced by running a Fisher-Yates shuffle on the identity array,
which is what the quantum shuffles hold in their permutation register.
"""

from __future__ import annotations

import itertools
from math import factorial

MAX_ENUMERATION_N = 8  # factorial guard for exhaustive enumeration


def is_word(word) -> bool:
    word = tuple(word)
    return sorted(word) == list(range(len(word)))


def replay_reversed_fisher_yates(n: int, draws) -> tuple[int, ...]:
    """Run the ascending-index shuffle on the identity array with fixed draws.

    draws = (j_1, .., j_{n-1}) with 0 <= j_i <= i; step i exchanges a[j_i]
    and a[i].  Returns the final array, i.e. the word of the sampled
    permutation.  Pure: equal draws give equal words.
    """
    draws = tuple(draws)
    if len(draws) != n - 1:
        raise ValueError(f"need {n - 1} draws for n={n}, got {len(draws)}")
    a = list(range(n))
    for i in range(1, n):
        j = draws[i - 1]
        if not 0 <= j <= i:
            raise ValueError(f"draw {j} out of range 0..{i} at step {i}")
        a[j], a[i] = a[i], a[j]
    return tuple(a)


def sample_fisher_yates(n: int, rng, direction: str = "reversed") -> tuple[int, ...]:
    """Uniformly random word via the Fisher-Yates shuffle.

    direction="forward" walks i = n-1 .. 1 (Durstenfeld), "reversed" walks
    i = 1 .. n-1; both draw j uniformly from 0..i and exchange a[j], a[i].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a = list(range(n))
    steps = range(n - 1, 0, -1) if direction == "forward" else range(1, n)
    if direction not in ("forward", "reversed"):
        raise ValueError(f"unknown direction {direction!r}")
    for i in steps:
        j = int(rng.integers(0, i + 1))
        a[j], a[i] = a[i], a[j]
    return tuple(a)


def lemma1_extend(words) -> list[tuple[int, ...]]:
    """One recursion step of the symmetric-group bijection.

    Input must be exactly the i! words of S_i.  For every word and every
    exchange index 0 <= j <= i, extend the word by w[i] = i and swap entries
    j and i; the (i+1)! outputs enumerate S_{i+1} without duplicates.
    (Swapping entries of the word is left-composition with the transposition
    (j i): the new word maps j -> i and i -> old w[j].)
    """
    words = [tuple(w) for w in words]
    if not words:
        raise ValueError("empty input")
    i = len(words[0])
    if len(set(words)) != len(words):
        raise ValueError("duplicate input words")
    if len(words) != factorial(i) or not all(is_word(w) and len(w) == i for w in words):
        raise ValueError(f"input is not all of S_{i}")
    out = []
    for w in words:
        for j in range(i + 1):
            nw = list(w) + [i]
            nw[j], nw[i] = nw[i], nw[j]
            out.append(tuple(nw))
    return out


def enumerate_sn(n: int) -> list[tuple[int, ...]]:
    """All n! words of S_n in lexicographic order (n <= 8)."""
    if n > MAX_ENUMERATION_N:
        raise ValueError(f"n={n} too large for exhaustive enumeration (max {MAX_ENUMERATION_N})")
    if n < 1:
        raise ValueError("n must be >= 1")
    return [tuple(p) for p in itertools.permutations(range(n))]
