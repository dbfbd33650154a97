"""Generalized Kronecker delta: determinant oracle, contraction counting,
the flattened term table and the cached flat offsets, one term per orbit
of the slot symmetries, that the heavy tensor sums gather and scatter
through."""

import itertools
import math

import numpy as np
import pytest

from reillylab import kronecker
from reillylab.errors import ShapeError
from reillylab.kronecker import (contraction_factor, gen_kronecker,
                                 index_sum_terms, perm_sign, term_offsets)

from orbit_terms import orbit_terms


def test_perm_sign_basics():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((1, 2, 0)) == 1
    assert perm_sign((3, 2, 1, 0)) == 1
    assert perm_sign(()) == 1


def test_perm_sign_matches_inversion_count():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = rng.integers(1, 8)
        perm = tuple(rng.permutation(m))
        inv = sum(1 for i in range(m) for j in range(i + 1, m)
                  if perm[i] > perm[j])
        assert perm_sign(perm) == (-1) ** inv


def test_delta_identity_and_swap():
    assert gen_kronecker((0, 1), (0, 1)) == 1
    assert gen_kronecker((0, 1), (1, 0)) == -1
    assert gen_kronecker((2, 4, 1), (4, 1, 2)) == 1
    assert gen_kronecker((0,), (0,)) == 1
    assert gen_kronecker((0,), (3,)) == 0


def test_delta_vanishes_on_repeats_and_mismatch():
    assert gen_kronecker((0, 0), (0, 1)) == 0
    assert gen_kronecker((0, 1), (2, 2)) == 0
    assert gen_kronecker((0, 1), (0, 2)) == 0
    with pytest.raises(ShapeError):
        gen_kronecker((0, 1), (0,))


@pytest.mark.parametrize("n,l", [(3, 2), (4, 2), (4, 3), (5, 3), (5, 4)])
def test_delta_equals_determinant_of_deltas(n, l):
    """delta^I_J must equal det[delta_{i_a j_b}], checked exhaustively:
    the (N, l, l) matrices of every (upper, lower) pair in one batch."""
    tuples = list(itertools.product(range(n), repeat=l))
    index = np.array(tuples)
    mats = index[:, None, :, None] == index[None, :, None, :]
    dets = np.rint(np.linalg.det(mats.reshape(-1, l, l).astype(float)))
    deltas = np.array([gen_kronecker(upper, lower)
                       for upper in tuples for lower in tuples])
    wrong = np.flatnonzero(deltas != dets)
    assert wrong.size == 0, [(tuples[k // len(tuples)], tuples[k % len(tuples)])
                             for k in wrong[:5]]


@pytest.mark.parametrize("n,l", [(3, 1), (4, 2), (5, 2), (5, 3)])
def test_single_contraction_reduces_rank(n, l):
    """sum_t delta^{I t}_{J t} = (n - l) delta^I_J."""
    for upper in itertools.product(range(n), repeat=l):
        for lower in itertools.product(range(n), repeat=l):
            total = sum(gen_kronecker(upper + (t,), lower + (t,))
                        for t in range(n))
            assert total == (n - l) * gen_kronecker(upper, lower)


def test_contraction_factor_counts_full_traces():
    # full contraction of the rank-l delta over n indices is n!/(n-l)!
    for n in (3, 4, 5):
        for l in (1, 2, 3):
            total = sum(gen_kronecker(idx, idx)
                        for idx in itertools.product(range(n), repeat=l))
            assert total == contraction_factor(n, l, 0)
            assert contraction_factor(n, l, 0) == (
                math.factorial(n) // math.factorial(n - l))
            assert contraction_factor(n, l, l) == 1


@pytest.mark.parametrize("n,l", [(3, 2), (4, 2), (4, 3), (5, 3)])
def test_term_table_reproduces_brute_force_sum(n, l):
    """The flattened (upper, lower, sign) table must reproduce the full
    delta-weighted sum for arbitrary slot tensors."""
    rng = np.random.default_rng(42)
    M = [rng.standard_normal((n, n)) for _ in range(l)]
    brute = 0.0
    for upper in itertools.product(range(n), repeat=l):
        for lower in itertools.product(range(n), repeat=l):
            d = gen_kronecker(upper, lower)
            if d:
                term = d
                for s in range(l):
                    term *= M[s][upper[s], lower[s]]
                brute += term
    up, lo, sg = index_sum_terms(n, l)
    fast = 0.0
    for t in range(len(sg)):
        term = sg[t]
        for s in range(l):
            term = term * M[s][up[t, s], lo[t, s]]
        fast += term
    assert fast == pytest.approx(brute, rel=1e-12, abs=1e-12)


def test_term_table_size_and_degenerate_rank():
    up, lo, sg = index_sum_terms(4, 2)
    # C(4,2) index subsets, permuted independently on both levels
    assert len(sg) == 6 * 2 * 2
    assert set(np.unique(sg)) <= {-1, 1}
    up, lo, sg = index_sum_terms(3, 4)  # rank exceeds dimension
    assert len(sg) == 0


def offset_groups(l):
    """Every single column of [upper | lower], the (upper a, lower a)
    pairs, the four-column curvature and gram groups and the whole upper
    and lower halves."""
    groups = [(c,) for c in range(2 * l)]
    groups += [(a, l + a) for a in range(l)]
    for s in range(l // 2):
        groups.append((2 * s, 2 * s + 1, l + 2 * s, l + 2 * s + 1))
        groups.append((2 * s, l + 2 * s, 2 * s + 1, l + 2 * s + 1))
    groups += [tuple(range(l)), tuple(range(l, 2 * l))]
    return groups


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_term_offsets_ravel_the_term_table(n):
    for l in range(1, n + 1):
        up, lo, sg = index_sum_terms(n, l)
        table = np.concatenate([up, lo], axis=1)
        assert np.array_equal(term_offsets(n, l)[0], sg), (n, l)
        for group in offset_groups(l):
            # built without caching, so the test does not fill the cache
            got = kronecker._group_offsets.__wrapped__(n, l, group)
            want = np.ravel_multi_index(tuple(table[:, list(group)].T),
                                        (n,) * len(group))
            assert got.dtype == np.intp
            assert np.array_equal(got, want), (n, l, group)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("split", [False, True])
def test_orbit_offsets_ravel_the_orbit_representatives(n, split):
    """Signs and offsets of the reduced sums are the rows of the unreduced
    table that represent their orbits, in its order, each sign weighted
    by the orbit size; the representatives number T / (orbit size)."""
    for l in range(2, n + 1):
        for pairs in range(1, l // 2 + 1):
            up, lo, sg = orbit_terms(n, l, pairs, split)
            table = np.concatenate([up, lo], axis=1)
            size = 2 ** (pairs * (2 if split else 1)) * math.factorial(pairs)
            assert len(sg) * size == math.comb(n, l) * math.factorial(l) ** 2
            signs = kronecker._term_signs.__wrapped__(n, l, pairs, split)
            assert np.array_equal(signs, sg), (n, l, pairs)
            for group in offset_groups(l):
                got = kronecker._group_offsets.__wrapped__(n, l, group,
                                                           pairs, split)
                want = np.ravel_multi_index(tuple(table[:, list(group)].T),
                                            (n,) * len(group))
                assert np.array_equal(got, want), (n, l, pairs, group)


def test_orbit_pairs_must_fit_the_slots():
    with pytest.raises(ShapeError):
        term_offsets(5, 3, pairs=2)
    with pytest.raises(ShapeError):
        term_offsets(5, 3, pairs=-1)


def test_term_offsets_are_cached_and_read_only():
    sg, off = term_offsets(5, 3, (0, 3))
    again_sg, again_off = term_offsets(5, 3, (0, 3))
    assert again_sg is sg and again_off is off
    assert not sg.flags.writeable and not off.flags.writeable
    with pytest.raises(ValueError):
        off[0] = 0


def test_term_offsets_empty_beyond_dimension(monkeypatch):
    sg, off, quad = term_offsets(3, 4, (0, 4), (0, 1, 4, 5))
    assert sg.shape == off.shape == quad.shape == (0,)
    assert sg.dtype == np.float64 and off.dtype == np.intp
    # the guard runs before any permutation table is built
    monkeypatch.setattr(kronecker, "_perm_table", None)
    assert kronecker._term_signs.__wrapped__(6, 7).shape == (0,)
    assert kronecker._group_offsets.__wrapped__(6, 7, (0, 7)).shape == (0,)


def test_index_sum_terms_is_not_cached():
    assert not hasattr(index_sum_terms, "cache_info")
    first, second = index_sum_terms(4, 2), index_sum_terms(4, 2)
    assert first[0] is not second[0]
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
