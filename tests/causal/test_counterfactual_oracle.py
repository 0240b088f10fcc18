"""The cache-blocked counterfactual search against the dense per-drug scan.

``dense_scan_links`` below is the straightforward implementation of
Eq. 7-8 that ``build_counterfactual_links`` replaced: for every drug it
builds the full (patients x patients) candidate matrix and reduces it
with ``argmin``.  It is kept verbatim as the oracle; the blocked search
must reproduce all five outputs bitwise.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causal import build_counterfactual_links, pairwise_distances, suggest_gammas
from repro.causal import counterfactual as cf

_INF = np.inf
FIELDS = ("treatment_cf", "outcome_cf", "matched", "neighbor_patient", "neighbor_drug")


# ----------------------------------------------------------------------
# Oracle: the dense per-drug scan
# ----------------------------------------------------------------------
def dense_pairwise_distances(a, b=None):
    """Dense Euclidean distance matrix between row sets."""
    a = np.asarray(a, dtype=np.float64)
    b = a if b is None else np.asarray(b, dtype=np.float64)
    sq = (
        (a * a).sum(axis=1)[:, None]
        - 2.0 * (a @ b.T)
        + (b * b).sum(axis=1)[None, :]
    )
    return np.sqrt(np.maximum(sq, 0.0))


def dense_scan_links(patient_features, drug_features, treatment, outcomes, gamma_p, gamma_d):
    """Eq. 7-8 by one dense (m, m) argmin per drug and treatment value."""
    treatment = np.asarray(treatment, dtype=np.int64)
    outcomes = np.asarray(outcomes, dtype=np.int64)
    m, n = treatment.shape

    dist_p = dense_pairwise_distances(patient_features)
    dist_d = dense_pairwise_distances(drug_features)

    # Distances at/above the thresholds are disqualified.
    dist_p_masked = np.where(dist_p < gamma_p, dist_p, _INF)
    dist_d_masked = np.where(dist_d < gamma_d, dist_d, _INF)

    treatment_cf = treatment.copy()
    outcome_cf = outcomes.copy()
    matched = np.zeros((m, n), dtype=bool)
    neighbor_patient = np.full((m, n), -1, dtype=np.int64)
    neighbor_drug = np.full((m, n), -1, dtype=np.int64)

    for v in range(n):
        drug_dist = dist_d_masked[v]  # (n,)
        # f[t][j] = min over drugs u with T[j, u] = t of dist_d[v, u]
        best_u = np.empty((2, m), dtype=np.int64)
        best_dist = np.empty((2, m))
        for t in (0, 1):
            candidate = np.where(treatment == t, drug_dist[None, :], _INF)  # (m, n)
            best_u[t] = candidate.argmin(axis=1)
            best_dist[t] = candidate[np.arange(m), best_u[t]]

        for t_iv in (0, 1):
            rows = np.nonzero(treatment[:, v] == t_iv)[0]
            if len(rows) == 0:
                continue
            opposite = 1 - t_iv
            # total[i, j] = dist_p[i, j] + f_opposite[j]
            total = dist_p_masked[rows] + best_dist[opposite][None, :]
            j_star = total.argmin(axis=1)
            value = total[np.arange(len(rows)), j_star]
            ok = np.isfinite(value)
            good_rows = rows[ok]
            j_good = j_star[ok]
            u_good = best_u[opposite][j_good]
            matched[good_rows, v] = True
            neighbor_patient[good_rows, v] = j_good
            neighbor_drug[good_rows, v] = u_good
            treatment_cf[good_rows, v] = opposite
            outcome_cf[good_rows, v] = outcomes[j_good, u_good]

    return treatment_cf, outcome_cf, matched, neighbor_patient, neighbor_drug


def dense_suggest_gammas(patient_features, drug_features, quantile=0.25):
    """The quantile thresholds over ``triu_indices`` of the dense distances."""
    dist_p = dense_pairwise_distances(patient_features)
    dist_d = dense_pairwise_distances(drug_features)
    off_p = dist_p[np.triu_indices_from(dist_p, k=1)]
    off_d = dist_d[np.triu_indices_from(dist_d, k=1)]
    return float(np.quantile(off_p, quantile)), float(np.quantile(off_d, quantile))


def assert_same_as_oracle(x, z, treatment, outcomes, gamma_p, gamma_d, block_rows=None):
    m = treatment.shape[0]
    expected = dense_scan_links(x, z, treatment, outcomes, gamma_p, gamma_d)
    block_bytes = cf._BLOCK_BYTES if block_rows is None else 8 * m * block_rows
    with mock.patch.object(cf, "_BLOCK_BYTES", block_bytes):
        links = build_counterfactual_links(x, z, treatment, outcomes, gamma_p, gamma_d)
    for name, want in zip(FIELDS, expected):
        got = getattr(links, name)
        assert got.dtype == want.dtype, name
        assert got.flags.c_contiguous, name
        assert np.array_equal(got, want), name
    return links


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
# Few distinct coordinates: duplicated patient rows and tied totals.
_COORD = st.sampled_from([0.0, 0.5, 1.0, 2.0, -1.5])


@st.composite
def problems(draw):
    m = draw(st.integers(1, 23))
    n = draw(st.integers(1, 7))
    d1 = draw(st.integers(1, 3))
    x = np.array(draw(st.lists(_COORD, min_size=m * d1, max_size=m * d1))).reshape(m, d1)
    duplicates = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)), max_size=4))
    for src, dst in duplicates:
        x[dst] = x[src]
    if draw(st.booleans()):
        # One-hot drugs: every off-diagonal distance equals sqrt(2), which
        # is the suggested gamma_d, so only u = v can ever qualify.
        z = np.eye(n)
    else:
        d2 = draw(st.integers(1, 3))
        z = np.array(draw(st.lists(_COORD, min_size=n * d2, max_size=n * d2))).reshape(n, d2)
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    treatment = rng.integers(0, 2, size=(m, n))
    for v in range(n):
        column = draw(st.sampled_from(["random", "zeros", "ones"]))
        if column != "random":
            treatment[:, v] = 0 if column == "zeros" else 1
    outcomes = rng.integers(0, 2, size=(m, n))
    gammas = draw(st.sampled_from(["suggested", "tiny", "huge"]))
    if gammas == "suggested" and m > 1 and n > 1:
        gamma_p, gamma_d = dense_suggest_gammas(x, z, draw(st.sampled_from([0.1, 0.25, 0.6])))
        gamma_p, gamma_d = max(gamma_p, 1e-9), max(gamma_d, 1e-9)
    elif gammas == "huge":
        gamma_p, gamma_d = 1e6, 1e6
    else:
        gamma_p, gamma_d = 1e-9, 1e-9
    block_rows = draw(st.sampled_from([1, 2, 3, 5, 8, 64]))
    return x, z, treatment, outcomes, gamma_p, gamma_d, block_rows


class TestBlockedSearchMatchesDenseScan:
    @settings(max_examples=200, deadline=None)
    @given(problems())
    def test_bitwise_equal_to_dense_scan(self, problem):
        assert_same_as_oracle(*problem)

    @pytest.mark.parametrize("m,block_rows", [(5, 32), (37, 8), (40, 8), (41, 7), (1, 1)])
    def test_block_edges(self, m, block_rows):
        # m below one block, m a multiple of it, and ragged last blocks.
        rng = np.random.default_rng(m)
        x = rng.normal(size=(m, 3))
        z = rng.normal(size=(6, 2))
        treatment = rng.integers(0, 2, size=(m, 6))
        outcomes = rng.integers(0, 2, size=(m, 6))
        assert_same_as_oracle(x, z, treatment, outcomes, 1.5, 1.5, block_rows)

    def test_duplicated_patients_tie_to_first_index(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        z = np.array([[0.0], [0.0]])
        treatment = np.array([[1, 1], [0, 0], [0, 0], [0, 0]])
        outcomes = np.array([[1, 0], [0, 1], [1, 1], [0, 0]])
        links = assert_same_as_oracle(x, z, treatment, outcomes, 10.0, 1.0, 1)
        # Patient 0's donors 1-3 tie; the first index wins, as does drug 0.
        assert links.neighbor_patient[0].tolist() == [1, 1]
        assert links.neighbor_drug[0].tolist() == [0, 0]

    def test_one_hot_drugs_match_only_the_same_drug(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 4))
        z = np.eye(9)
        treatment = rng.integers(0, 2, size=(30, 9))
        outcomes = rng.integers(0, 2, size=(30, 9))
        gamma_p, gamma_d = suggest_gammas(x, z)
        assert gamma_d == np.sqrt(2.0)
        links = assert_same_as_oracle(x, z, treatment, outcomes, gamma_p, gamma_d, 4)
        drugs = np.broadcast_to(np.arange(9), links.matched.shape)
        assert links.matched.any()
        assert np.array_equal(links.neighbor_drug[links.matched], drugs[links.matched])

    def test_tiny_gammas_match_nothing(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(17, 3))
        z = rng.normal(size=(5, 3))
        treatment = rng.integers(0, 2, size=(17, 5))
        outcomes = rng.integers(0, 2, size=(17, 5))
        links = assert_same_as_oracle(x, z, treatment, outcomes, 1e-12, 1e-12, 3)
        assert links.match_rate == 0.0
        assert np.array_equal(links.treatment_cf, treatment)

    @pytest.mark.parametrize("value", [0, 1])
    def test_constant_treatment_matches_nothing(self, value):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(11, 2))
        z = rng.normal(size=(4, 2))
        treatment = np.full((11, 4), value)
        outcomes = rng.integers(0, 2, size=(11, 4))
        links = assert_same_as_oracle(x, z, treatment, outcomes, 1e6, 1e6, 2)
        assert not links.matched.any()


class TestDistances:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 5), st.integers(0, 2**16))
    def test_pairwise_distances_bitwise_equal_to_dense(self, rows, dim, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(rows, dim)) * rng.choice([1e-3, 1.0, 1e3])
        b = rng.normal(size=(rows + 1, dim))
        for got, want in (
            (pairwise_distances(a), dense_pairwise_distances(a)),
            (pairwise_distances(a, b), dense_pairwise_distances(a, b)),
        ):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_suggest_gammas_equal_to_triu_quantiles(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(40, 5))
        z = rng.normal(size=(12, 3))
        for q in (0.1, 0.25, 0.9):
            assert suggest_gammas(x, z, q) == dense_suggest_gammas(x, z, q)

    def test_shared_block_computes_each_matrix_once(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(25, 3))
        z = rng.normal(size=(6, 2))
        treatment = rng.integers(0, 2, size=(25, 6))
        outcomes = rng.integers(0, 2, size=(25, 6))
        expected = dense_scan_links(x, z, treatment, outcomes, *dense_suggest_gammas(x, z))
        with mock.patch.object(cf, "pairwise_distances", wraps=cf.pairwise_distances) as spy:
            with cf._shared_distances():
                gammas = suggest_gammas(x, z)
                links = build_counterfactual_links(x, z, treatment, outcomes, *gammas)
            assert spy.call_count == 2
            suggest_gammas(x, z)  # outside the block nothing is kept
            assert spy.call_count == 4
        for name, want in zip(FIELDS, expected):
            assert np.array_equal(getattr(links, name), want), name

    def test_shared_matrices_are_read_only(self):
        x = np.arange(12.0).reshape(4, 3)
        with cf._shared_distances():
            dist = cf._distances(x)
            assert cf._distances(x) is dist
            with pytest.raises(ValueError):
                dist[0, 0] = 1.0
        assert cf._distances(x) is not dist


def test_non_binary_treatment_rejected():
    x, z = np.zeros((2, 1)), np.zeros((1, 1))
    with pytest.raises(ValueError, match="binary"):
        build_counterfactual_links(x, z, np.array([[2], [0]]), np.zeros((2, 1)), 1.0, 1.0)
