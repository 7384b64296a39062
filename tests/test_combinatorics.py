"""Tests for weight vectors, circular labels, and configuration keys."""

import math
import struct
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymod import (
    Label,
    NonPositive,
    NotAPermutation,
    OutOfRange,
    PairSumTooLarge,
    PolymodError,
    RejectionBudgetExceeded,
    SumMismatch,
    as_word,
    enumerate_labels,
    equal_weight,
    face_config,
    triple_config,
    validate_weight,
    vertex_config,
)
from polymod import combinatorics, verify
from polymod.combinatorics import sample_weight_rng

import sampler_oracle as oracle
from weights import sample_weight

TWO_PI = 2.0 * math.pi


def dihedral_class(word):
    """Every rotation of the word and of its reversal."""
    return {w[r:] + w[:r] for w in (tuple(word), tuple(reversed(word))) for r in range(len(word))}


def brute_canonical(word):
    """Independent oracle: minimum over the dihedral orbit, 1 rotated to front."""
    return min(w for w in dihedral_class(word) if w[0] == 1)


def enumerated_in_class(word):
    """The words of ``enumerate_labels`` that lie in the class of ``word``."""
    orbit = dihedral_class(word)
    return [lab.word for lab in enumerate_labels(len(word)) if lab.word in orbit]


def perm_strategy(n):
    return st.permutations(list(range(1, n + 1)))


# ===========================================================================
# weight vectors
# ===========================================================================

class TestValidateWeight:
    def test_equal_weight_valid(self):
        for n in (4, 5, 6, 7):
            theta = equal_weight(n)
            assert theta.n == n
            assert math.fsum(theta) == pytest.approx(TWO_PI, abs=1e-15)

    def test_rescales_to_exact_sum(self):
        """A sum within tolerance is rescaled so fsum is exactly 2*pi-ish."""
        raw = [TWO_PI / 5 + 3e-14] + [TWO_PI / 5 - 0.75e-14] * 4
        theta = validate_weight(raw)
        assert abs(math.fsum(theta) - TWO_PI) < 1e-15

    def test_sum_mismatch(self):
        with pytest.raises(SumMismatch):
            validate_weight([1.0, 1.0, 1.0, 1.0, 1.0])

    def test_non_positive(self):
        with pytest.raises(NonPositive):
            validate_weight([0.0, 2.0, 2.0, TWO_PI - 4.0, 1e-16])
        with pytest.raises(NonPositive):
            validate_weight([-0.1, 2.0, 2.0, 2.0, TWO_PI - 5.9])

    def test_pair_sum_too_large(self):
        # two angles of 1.6 sum to 3.2 >= pi
        rest = (TWO_PI - 3.2) / 3
        with pytest.raises(PairSumTooLarge) as info:
            validate_weight([1.6, 1.6, rest, rest, rest])
        assert info.value.pair == (1, 2)

    def test_too_few_angles(self):
        with pytest.raises(OutOfRange):
            validate_weight([2.0, 2.0, TWO_PI - 4.0])

    def test_nan_rejected(self):
        with pytest.raises(NonPositive):
            validate_weight([math.nan, 2.0, 2.0, 2.0, TWO_PI - 6.0 - math.nan])


    def test_a_sum_that_overflows_is_a_sum_mismatch(self):
        """fsum raised OverflowError here, which escaped as a traceback."""
        with pytest.raises(SumMismatch, match=r"sum\(theta\) = inf differs"):
            validate_weight([1e308, 1e308, 1.0, 1.0, 1.0])


def validated(values):
    """validate_weight's angles as bits, or its error class and message."""
    try:
        return tuple(struct.pack("<d", t) for t in validate_weight(values).theta)
    except PolymodError as exc:
        return type(exc).__name__, str(exc)


def stacked_rows(n):
    """Rows of n angles: near 2*pi with a pair near pi, or with a planted
    zero, negative, NaN, infinite, huge or drifting angle."""
    base = st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n).map(
        lambda w: [TWO_PI * x / math.fsum(w) for x in w]
    )
    near_pi = st.tuples(st.integers(-6, 6), st.floats(0.05, 1.0)).map(
        lambda t: [math.pi / 2 + t[0] * 2.0**-52, math.pi / 2]
        + [(math.pi - 2.0**-52 * t[0]) / (n - 2)] * (n - 2)
    )
    bad = st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 1e308, 5e-324])

    @st.composite
    def row(draw):
        values = draw(st.one_of(base, near_pi))
        if draw(st.booleans()):
            values[draw(st.integers(0, n - 1))] = draw(bad)
        if draw(st.booleans()):
            values[0] *= 1.0 + draw(st.sampled_from([1e-16, 1e-13, 1e-12, 1e-3]))
        return values

    return row()


class TestValidateWeights:
    @given(data=st.data(), n=st.sampled_from([4, 5, 6, 7]))
    @settings(max_examples=300, deadline=None)
    def test_each_row_is_validate_weight(self, data, n):
        """Every row gets validate_weight's angles bit for bit, or its error
        class and message, whatever its neighbours hold."""
        rows = data.draw(st.lists(stacked_rows(n), min_size=1, max_size=12))
        theta, errors = combinatorics.validate_weights(np.array(rows))
        for values, got, error in zip(rows, theta.tolist(), errors):
            want = validated(values)
            if error is None:
                assert tuple(struct.pack("<d", t) for t in got) == want
            else:
                assert (type(error).__name__, str(error)) == want

    def test_pair_order_and_an_empty_stack(self):
        rest = (TWO_PI - 3.2) / 3
        _, errors = combinatorics.validate_weights(np.array([[rest, 1.6, rest, 1.6, rest]]))
        assert errors[0].pair == (2, 4)
        theta, errors = combinatorics.validate_weights(np.zeros((0, 5)))
        assert theta.shape == (0, 5) and errors == []


class TestValidateWeightBoundary:
    @given(
        st.integers(4, 7),
        st.integers(-6, 6),
        st.integers(-300, 300),
        st.lists(st.floats(0.05, 1.0), min_size=5, max_size=5),
    )
    @settings(max_examples=400)
    def test_accepted_vectors_keep_pair_sums_below_pi(self, n, ulps, drift, rest):
        """Raw angles whose first pair sits a few ulps from pi and whose sum
        drifts from 2*pi by up to 3e-13: whatever is accepted after the
        exact-sum rescaling has every pair sum strictly below pi."""
        pair = math.pi + ulps * 2.0**-51
        head = [pair / 2.0, pair - pair / 2.0]
        weights = rest[: n - 2]
        left = TWO_PI - pair + drift * 1e-15
        raw = head + [left * w / math.fsum(weights) for w in weights]
        try:
            theta = validate_weight(raw)
        except (PairSumTooLarge, SumMismatch, NonPositive):
            return
        for a, b in combinations(theta.theta, 2):
            assert a + b < math.pi


class TestSampling:
    def test_deterministic(self):
        """Same (n, seed) gives the identical vector."""
        assert sample_weight(5, 123).theta == sample_weight(5, 123).theta
        assert sample_weight(6, 7).theta == sample_weight(6, 7).theta

    def test_samples_are_valid(self):
        """Every sample passes validation: positive, exact sum, pair sums < pi."""
        for n in (5, 6):
            for seed in range(50):
                theta = sample_weight(n, seed)
                assert min(theta) > 0.0
                assert abs(math.fsum(theta) - TWO_PI) < 1e-12
                worst = max(a + b for a, b in combinations(theta.theta, 2))
                assert worst < math.pi


def draw(sampler, n, seed, trial):
    """A sampler's vector (or failure) for one (seed, trial) stream, and the
    permutation drawn after it, which shows where the sampler left the stream."""
    rng = np.random.default_rng([seed, trial])
    try:
        result = sampler(n, rng).theta
    except RejectionBudgetExceeded as exc:
        result = (type(exc).__name__, str(exc))
    return result, rng.permutation(n).tolist()


class TestBlockSampler:
    """``sample_weight_rng``, one attempt at a time, against the scalar
    oracle.  The class keeps the name it had when the sampler drew its
    attempts in blocks, so its test ids stay."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 12])
    def test_matches_the_scalar_sampler(self, monkeypatch, n):
        """2,000 (seed, trial) streams per n: the same theta bits, and the
        same permutation drawn next.  No n = 4 draw is ever accepted (a pair
        sum below pi forces its complement above pi), so n = 4 runs on a
        lowered budget of 38 attempts."""
        if n == 4:
            monkeypatch.setattr(combinatorics, "REJECTION_BUDGET", 38)
        for seed in range(4):
            for trial in range(500):
                want = draw(oracle.sample_weight_rng, n, seed, trial)
                assert draw(sample_weight_rng, n, seed, trial) == want, (seed, trial)

    @pytest.mark.parametrize("budget", [1, 5, 64, 69])
    def test_a_spent_budget_fails_like_the_scalar_sampler(self, monkeypatch, budget):
        """A lowered budget runs out after the same attempts with the same
        message."""
        monkeypatch.setattr(combinatorics, "REJECTION_BUDGET", budget)
        for n in (4, 5):
            for trial in range(40):
                want = draw(oracle.sample_weight_rng, n, 9, trial)
                assert draw(sample_weight_rng, n, 9, trial) == want
        # no n = 4 draw is accepted, so every n = 4 stream spends the budget
        message = f"no valid weight vector for n=4 in {budget} attempts"
        assert draw(sample_weight_rng, 4, 9, 0)[0] == ("RejectionBudgetExceeded", message)


def outcome(n, seed, trials, draw=verify._draw):
    """The (N, n) angles and words of a chunk, or its failure."""
    try:
        theta, words = draw(n, seed, trials)
    except RejectionBudgetExceeded as exc:
        return type(exc).__name__, str(exc)
    return theta.tolist(), words


def scalar(n, seed, trials):
    return outcome(n, seed, trials, oracle.stream_chunk)


class TestChunkSampler:
    """``verify``'s trials: a chunk's weight vectors and label words from
    the counter-based Philox stream, against the scalar loop over numpy's
    own ``Philox``, one attempt at a time."""

    @pytest.mark.parametrize("n", [5, 6])
    def test_a_chunk_matches_the_scalar_sampler(self, n):
        """Chunks of 64 trials: the same theta bits and the same words,
        though many trials need more rounds than the first."""
        longest = 0
        for seed in (0, 3, 11, 7919, 2**128 - 1):
            for start in (0, 64, 128):
                drawn = [oracle.stream_trial(n, seed, trial) for trial in range(start, start + 64)]
                theta, words = verify._draw(n, seed, range(start, start + 64))
                assert theta.tolist() == [list(t.theta) for t, _, _ in drawn]
                assert words == [w for _, w, _ in drawn]
                longest = max(longest, *(attempts for _, _, attempts in drawn))
        assert longest > 3 * verify._ATTEMPTS

    @pytest.mark.parametrize("blocks", [{5: 1, 6: 1}, {5: 7, 6: 7}, {5: 1000, 6: 1000}])
    def test_the_block_size_changes_no_bit(self, monkeypatch, blocks):
        """One attempt in the first round, seven, or far more than any
        trial needs: the vectors and words stay the scalar ones, as they
        are at the default (above)."""
        for n in (5, 6):
            monkeypatch.setattr(verify, "_ATTEMPTS", blocks[n])
            assert outcome(n, 5, range(40)) == scalar(n, 5, range(40))

    @pytest.mark.parametrize("budget", [1, 30, 64, 150])
    def test_a_spent_budget_inside_a_chunk_fails_like_the_scalar_sampler(self, monkeypatch, budget):
        """A lowered budget runs out for some trials of a chunk, not always the
        first: the chunk raises the scalar sampler's error, the first in
        trial order, with its text."""
        monkeypatch.setattr(combinatorics, "REJECTION_BUDGET", budget)
        spent = ("RejectionBudgetExceeded", f"no valid weight vector for n=5 in {budget} attempts")
        failing = 0
        for seed in range(6):
            want = scalar(5, seed, range(64))
            assert outcome(5, seed, range(64)) == want
            failing += want == spent
        assert failing >= 1

    def test_an_empty_chunk_and_too_few_marks(self):
        theta, words = verify._draw(5, 0, range(0))
        assert theta.shape == (0, 5) and words == []
        with pytest.raises(OutOfRange, match="need n >= 4, got 3"):
            verify._draw(3, 0, range(2))


#: Counters whose decrement, as numpy's ``Philox`` takes them, borrows
#: across words, or whose words are all 2**64 - 1.
CARRIES = [(0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (2**64 - 1,) * 4, (2**64 - 1, 5, 0, 0)]


class TestCounterStream:
    def test_philox_is_numpys_philox(self):
        """Bit for bit, on 200 random (key, counter) pairs, and on the carry
        counters, in one call per key, under four keys."""
        rng = np.random.default_rng(2011)
        words = rng.integers(0, 2**64, (200, 6), dtype=np.uint64, endpoint=False)
        seeds = [int(a) | int(b) << 64 for a, b in words[:, 4:].tolist()]
        for seed in (0, 2**64 - 1, 2**64, 2**128 - 1):
            got = verify._philox(seed, *np.array(CARRIES, dtype=np.uint64).T)
            for i, counter in enumerate(CARRIES):
                assert [int(lane[i]) for lane in got] == oracle.philox_block(seed, counter)
        for i, seed in enumerate(seeds):
            got = verify._philox(seed, *words[i : i + 1, :4].T)
            assert [int(lane[0]) for lane in got] == oracle.philox_block(seed, words[i, :4].tolist())

    def test_broadcast_counters_give_each_block(self):
        """The sampler's counters broadcast (trial, attempt, slot): each word
        is that of its own counter."""
        got = verify._words(7, [0, 5, 2**40], [0, 1, 9], 0, 6)
        for i, trial in enumerate([0, 5, 2**40]):
            for j, attempt in enumerate([0, 1, 9]):
                assert [int(w[i, j]) for w in got] == oracle.stream_words(7, trial, attempt, 0, 6)

    @pytest.mark.parametrize("n", [5, 6])
    def test_the_first_angle_of_an_attempt_is_beta(self, n):
        """10**5 attempts, before the acceptance test: the first angle over
        2*pi of a flat Dirichlet draw is Beta(1, n - 1), with CDF
        1 - (1 - x)**(n - 1).  Chi-square over 50 bins of equal
        probability, at significance 0.001: 85.35 is the 0.999 quantile of
        chi-square with 49 degrees of freedom."""
        first = verify._attempts(n, 12, range(1000), range(100))[0] / (2.0 * math.pi)
        cdf = 1.0 - (1.0 - first) ** (n - 1)
        observed = np.bincount((cdf * 50).astype(int).ravel(), minlength=50)
        expected = first.size / 50
        assert len(observed) == 50
        assert ((observed - expected) ** 2 / expected).sum() < 85.35


# ===========================================================================
# labels
# ===========================================================================

class TestCanonicalLabel:
    """``enumerate_labels`` holds one label per circular class: 1 in front,
    then the smaller of the word and its reversal rotated the same way."""

    def test_frozen_example(self):
        assert enumerated_in_class((2, 1, 4, 3, 5)) == [(1, 2, 5, 3, 4)]

    def test_identity_is_canonical(self):
        assert enumerated_in_class((1, 2, 3, 4, 5)) == [(1, 2, 3, 4, 5)]

    @given(perm_strategy(5))
    def test_matches_brute_force(self, word):
        assert enumerated_in_class(word) == [brute_canonical(word)]

    def test_rejects_non_permutation(self):
        with pytest.raises(NotAPermutation):
            as_word((1, 1, 3, 4, 5))
        with pytest.raises(NotAPermutation):
            as_word((0, 1, 2, 3, 4))


class TestEnumerateLabels:
    @pytest.mark.parametrize("n,count", [(4, 3), (5, 12), (6, 60), (7, 360)])
    def test_counts(self, n, count):
        """(n-1)!/2 circular classes up to rotation and reversal."""
        labels = enumerate_labels(n)
        assert len(labels) == count
        assert len(set(labels)) == count

    def test_all_canonical_and_sorted(self):
        labels = enumerate_labels(6)
        assert labels == sorted(labels)
        for lab in labels:
            assert brute_canonical(lab.word) == lab.word

    def test_every_permutation_is_covered(self):
        """The labels are exactly the canonical words of the permutations of 1..5."""
        enumerated = {lab.word for lab in enumerate_labels(5)}
        assert enumerated == {brute_canonical(word) for word in permutations(range(1, 6))}

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            enumerate_labels(3)
        with pytest.raises(OutOfRange):
            enumerate_labels(9)


# ===========================================================================
# degenerate configurations
# ===========================================================================

class TestFaceConfig:
    def test_render(self):
        assert face_config((1, 2, 3, 4, 5), 2).render() == "1(23)45"

    def test_wraparound_face(self):
        """Face n collapses (i_n, i_1)."""
        cfg = face_config((1, 2, 3, 4, 5), 5)
        assert cfg.render() == "(15)234"

    @given(perm_strategy(5), st.integers(1, 5), st.integers(0, 4), st.booleans())
    def test_representative_independent(self, word, k, rot, rev):
        """The key of a face only depends on the collided pair's cyclic context."""
        word = tuple(word)
        cfg = face_config(word, k)
        # the same geometric face in a rotated word is face k - rot
        moved = word[rot:] + word[:rot]
        k2 = (k - 1 - rot) % 5 + 1
        assert face_config(moved, k2) == cfg

    def test_codim1_config_counts(self):
        """Every codim-1 key appears exactly twice; 30 keys for n=5, 180 for n=6."""
        for n, expected in ((5, 30), (6, 180)):
            buckets = {}
            for lab in enumerate_labels(n):
                for k in range(1, n + 1):
                    buckets.setdefault(face_config(lab, k), []).append((lab, k))
            assert len(buckets) == expected
            assert all(len(v) == 2 for v in buckets.values())


class TestVertexAndTripleConfig:
    def test_vertex_requires_disjoint_pairs(self):
        with pytest.raises(OutOfRange):
            vertex_config((1, 2, 3, 4, 5), 1, 2)

    def test_vertex_config_count(self):
        """15 distinct two-pair keys for n=5, each hit by 4 (cell, vertex) slots."""
        buckets = {}
        for lab in enumerate_labels(5):
            for k in range(1, 6):
                m = (k + 1) % 5 + 1  # k+2 cyclically, 1-based
                buckets.setdefault(vertex_config(lab, k, m), []).append((lab, k))
        assert len(buckets) == 15
        assert sorted({len(v) for v in buckets.values()}) == [4]

    def test_triple_render(self):
        cfg = triple_config((1, 2, 3, 4, 5, 6), 1)
        assert cfg.render() == "(123)456"

    def test_triple_config_count(self):
        """n=6: 20 mark-triples times 3 arrangements of the rest = 60 keys."""
        keys = set()
        for lab in enumerate_labels(6):
            for k in range(1, 7):
                keys.add(triple_config(lab, k))
        assert len(keys) == 60

    @given(perm_strategy(6), st.integers(1, 6))
    @settings(max_examples=40)
    def test_triple_reversal_invariance(self, word, k):
        """Reversing the word hits the same key at the mirrored position."""
        word = tuple(word)
        cfg = triple_config(word, k)
        rev = tuple(reversed(word))
        # 0-based positions {k-1, k, k+1} land at {4-k, 5-k, 6-k} mod 6
        k_rev = (4 - k) % 6 + 1
        assert triple_config(rev, k_rev) == cfg


class TestLabelType:
    def test_str(self):
        assert str(Label((1, 3, 2, 4, 5))) == "13245"

    def test_ordering_matches_words(self):
        assert Label((1, 2, 3, 4, 5)) < Label((1, 2, 4, 3, 5))
