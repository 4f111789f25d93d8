import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uconvex import sequences
from uconvex.cli import _json_text
from uconvex.errors import (CapacityError, CertificateError,
                            DimensionMismatchError, InsufficientClusterError,
                            PreconditionError)
from uconvex.modulus import lp_delta
from uconvex.sequences import (baseline_extract, certify, ramsey_extract,
                               riesz_seed, separation, shifted_basis_seed,
                               theorem1_extract, theorem3_construct,
                               unit_basis_seed, vectors_to_csv)
from uconvex.search import EvalBudget, maximize_min_distance
from uconvex.spaces import (SpaceSpec, batch_norm, normalize, pair_norms,
                            unit_batch)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT5 = math.sqrt(5.0)


# ----------------------------- separation and seeds -----------------------------

def test_separation_basis_is_two_pow_inv_p():
    for p in (1.5, 2.0, 3.0):
        space = SpaceSpec(p=p, d=4)
        assert separation(space, unit_basis_seed(space, 4)) == pytest.approx(
            2.0 ** (1.0 / p), abs=1e-12)


def test_separation_duplicate_and_antipodal():
    space = SpaceSpec(p=2, d=2)
    e = unit_basis_seed(space, 2)
    assert separation(space, [e[0], e[1], e[0]]) == 0.0
    assert separation(space, [e[0], -e[0]]) == pytest.approx(2.0, abs=1e-12)


def test_separation_needs_two():
    space = SpaceSpec(p=2, d=2)
    with pytest.raises(PreconditionError):
        separation(space, [np.ones(2)])


def test_unit_basis_seed():
    space = SpaceSpec(p=2, d=3)
    seed = unit_basis_seed(space, 3)
    assert separation(space, seed) == pytest.approx(SQRT2, abs=1e-12)
    assert len(unit_basis_seed(space, 1)) == 1
    with pytest.raises(CapacityError):
        unit_basis_seed(space, 4)


def test_unit_basis_seed_is_first_standard_basis_vectors():
    space = SpaceSpec(p=1.5, d=7)
    for n in (1, 4, 7):
        seed = unit_basis_seed(space, n)
        assert len(seed) == n
        for i, v in enumerate(seed):
            expected = np.zeros(7)
            expected[i] = 1.0
            assert v.shape == (7,)
            assert np.array_equal(v, expected)


def test_shifted_basis_seed_unit_and_one_separated():
    for p in (1.3, 2.0, 4.0):
        space = SpaceSpec(p=p, d=6)
        seed = shifted_basis_seed(space, 5)
        for v in seed:
            assert abs(np.sum(np.abs(v) ** p) ** (1 / p) - 1.0) <= 1e-12
        dists = [np.sum(np.abs(a - b) ** p) ** (1 / p)
                 for i, a in enumerate(seed) for b in seed[i + 1:]]
        assert all(abs(dv - 1.0) <= 1e-12 for dv in dists)
    with pytest.raises(CapacityError):
        shifted_basis_seed(SpaceSpec(p=2, d=4), 4)
    assert len(shifted_basis_seed(SpaceSpec(p=2, d=4), 1)) == 1


def test_certify_vacuous_for_singleton():
    space = SpaceSpec(p=2, d=2)
    cert = certify(space, unit_basis_seed(space, 1), threshold=1.5)
    assert cert.passed and math.isinf(cert.min_pairwise)


def test_riesz_seed_l2_8():
    space = SpaceSpec(p=2, d=8)
    vectors = riesz_seed(space, 8, budget=20_000, rng_seed=5)
    cert = certify(space, vectors, 1.0)
    assert len(vectors) == 8
    assert cert.passed and cert.threshold == 1.0
    assert cert.min_pairwise >= 1.0


def test_riesz_seed_dimension_one():
    space = SpaceSpec(p=2, d=1)
    vectors = riesz_seed(space, 2, budget=200, rng_seed=1)
    cert = certify(space, vectors, 1.0)
    assert sorted(float(v[0]) for v in vectors) == [-1.0, 1.0]
    assert cert.min_pairwise == pytest.approx(2.0, abs=1e-12)
    # a third unit vector cannot exist; output is short, not an error
    vectors = riesz_seed(space, 3, budget=200, rng_seed=1)
    assert len(vectors) == 2


def test_riesz_seed_single_vector():
    space = SpaceSpec(p=2, d=3)
    vectors = riesz_seed(space, 1, budget=10, rng_seed=0)
    cert = certify(space, vectors, 1.0)
    assert len(vectors) == 1 and cert.passed


# ----------------------------- baseline extraction -----------------------------

def test_baseline_basis_l2_50():
    space = SpaceSpec(p=2, d=50)
    seq = unit_basis_seed(space, 50)
    res = baseline_extract(space, seq, seq[0], tau=0.01)
    assert res.selected == tuple(range(1, 50))
    assert res.pair_min == pytest.approx(SQRT3, abs=1e-12)
    assert res.pair_min >= 0.99


def test_baseline_constant_sequence():
    space = SpaceSpec(p=2, d=4)
    v = normalize(space, np.array([1.0, 2.0, 0.0, -1.0]))
    x = unit_basis_seed(space, 1)[0]
    res = baseline_extract(space, [v.copy() for _ in range(6)], x, tau=0.05)
    assert len(res.selected) == 6
    assert res.pair_min == pytest.approx(1.0, abs=1e-12)


def test_baseline_spread_values_error():
    # functional values 0, 0.3, 0.6, 0.9 with tau = 0.01: singleton windows
    space = SpaceSpec(p=2, d=2)
    seq = [np.array([t, math.sqrt(1 - t * t)]) for t in (0.0, 0.3, 0.6, 0.9)]
    x = unit_basis_seed(space, 1)[0]
    with pytest.raises(InsufficientClusterError) as err:
        baseline_extract(space, seq, x, tau=0.01)
    assert err.value.best_count == 1
    assert err.value.value_range == pytest.approx(0.9, abs=1e-12)
    assert err.value.min_n == err.value.window_count + 1


# ----------------------------- theorem-1 extraction -----------------------------

def test_theorem1_basis_l2_200():
    space = SpaceSpec(p=2, d=200)
    seq = unit_basis_seed(space, 200)
    res = theorem1_extract(space, seq, seq[0], eps=SQRT2)
    assert res.selected == tuple(range(1, 200))
    assert res.pair_min == pytest.approx(SQRT3, abs=1e-9)
    assert res.guaranteed == pytest.approx(1.1180828963118032, abs=1e-12)
    assert res.pair_min >= res.guaranteed
    lo, hi = res.window
    assert hi - lo < res.delta_eps


def test_theorem1_two_antipodal_vectors():
    # seq = {v, -v} is 2-separated; x orthogonal to v has functional values
    # 0 on both, so the cluster is everything and the pair value is
    # ||x - 2v|| = sqrt(5)
    space = SpaceSpec(p=2, d=2)
    v = unit_basis_seed(space, 2)[1]
    x = unit_basis_seed(space, 1)[0]
    res = theorem1_extract(space, [v, -v], x, eps=2.0)
    assert res.selected == (0, 1)
    assert res.pair_min == pytest.approx(SQRT5, abs=1e-12)
    assert res.pair_min >= 1.0 + lp_delta(2.0, 4.0 / 3.0) - 1e-9


def test_theorem1_rejects_underseparated():
    space = SpaceSpec(p=2, d=8)
    seq = unit_basis_seed(space, 8)
    with pytest.raises(PreconditionError):
        theorem1_extract(space, seq, seq[0], eps=1.9)


def test_theorem1_rejects_non_unit_x():
    space = SpaceSpec(p=2, d=8)
    seq = unit_basis_seed(space, 8)
    with pytest.raises(PreconditionError):
        theorem1_extract(space, seq, seq[0] * 1.1, eps=SQRT2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_sequences_are_rejected(bad):
    space = SpaceSpec(p=2, d=4)
    seq = np.eye(4)
    seq[2] = bad
    e0 = np.eye(4)[0]
    with pytest.raises(PreconditionError, match="non-finite"):
        sequences._finite_rows(space, seq.tolist())
    with pytest.raises(PreconditionError, match="non-finite"):
        theorem1_extract(space, seq, e0, eps=1.0)
    with pytest.raises(PreconditionError, match="non-finite"):
        separation(space, seq)
    with pytest.raises(PreconditionError, match="non-finite"):
        certify(space, seq, threshold=1.0)
    with pytest.raises(PreconditionError, match="non-finite"):
        baseline_extract(space, seq, e0, tau=0.1)
    with pytest.raises(PreconditionError, match="non-finite"):
        theorem3_construct(space, list(seq), max_len=2)


def test_theorem1_rejects_non_finite_x():
    space = SpaceSpec(p=2, d=4)
    with pytest.raises(PreconditionError):
        theorem1_extract(space, np.eye(4), np.full(4, math.nan), eps=1.0)


def test_theorem1_eps_none_uses_measured_separation():
    space = SpaceSpec(p=3, d=40)
    rng = np.random.default_rng(4)
    seq = [normalize(space, v) for v in rng.standard_normal((40, 40))]
    x = normalize(space, rng.standard_normal(40))
    eps = separation(space, seq)
    measured = theorem1_extract(space, seq, x, eps=None)
    given = theorem1_extract(space, seq, x, eps=eps)
    assert _json_text(measured) == _json_text(given)


def test_theorem1_eps_none_rejects_zero_separation():
    space = SpaceSpec(p=2, d=3)
    e0 = unit_basis_seed(space, 1)[0]
    with pytest.raises(PreconditionError, match="two equal vectors"):
        theorem1_extract(space, [e0, e0.copy()], e0, eps=None)


def test_theorem1_window_check_rejects_wide_cluster(monkeypatch):
    space = SpaceSpec(p=2, d=8)
    seq = unit_basis_seed(space, 8)
    # a "cluster" of every index spans the functional values 0 and 1,
    # far wider than the window width delta / 2; the pair (0, j) gives
    # x - (e_0 - e_j) = e_j of norm 1, which the pair-value certificate
    # rejects
    monkeypatch.setattr(sequences, "_largest_cluster",
                        lambda values, width: (tuple(range(8)), (0.0, width)))
    with pytest.raises(CertificateError, match="pair value 1 violates"):
        theorem1_extract(space, seq, seq[0], eps=SQRT2)


def test_theorem1_insufficient_cluster_diagnostics():
    # spread functional values: no window of width delta/2 holds 2
    space = SpaceSpec(p=2, d=3)
    seq = [np.array([t, math.sqrt(1 - t * t), 0.0])
           for t in (0.0, 0.5, 0.95)]
    x = unit_basis_seed(space, 1)[0]
    eps = separation(space, seq)
    with pytest.raises(InsufficientClusterError) as err:
        theorem1_extract(space, seq, x, eps=eps)
    assert err.value.window_count >= 2
    assert err.value.min_n > 3


def test_theorem1_window_members_inside_window():
    space = SpaceSpec(p=2, d=40)
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    seq = [q[:, i] for i in range(40)]
    x = normalize(space, rng.standard_normal(40))
    res = theorem1_extract(space, seq, x, eps=SQRT2 * (1 - 1e-12))
    f = res.functional
    lo, hi = res.window
    for i in res.selected:
        assert lo - 1e-12 <= float(seq[i] @ f) <= hi + 1e-12


# ----------------------------- ramsey extraction -----------------------------

def test_ramsey_monochromatic_high_returns_everything():
    n = 9
    m = np.full((n, n), SQRT2)
    np.fill_diagonal(m, 0.0)
    idx, branch = ramsey_extract(m, split=1.0285954792089682)
    assert idx == list(range(n))
    assert branch == "high"


def test_ramsey_monochromatic_low_returns_everything():
    n = 7
    m = np.ones((n, n))
    np.fill_diagonal(m, 0.0)
    idx, branch = ramsey_extract(m, split=1.0285954792089682)
    assert idx == list(range(n))
    assert branch == "low"


def test_ramsey_split_boundary_goes_low():
    m = np.array([[0.0, 1.5], [1.5, 0.0]])
    _, branch = ramsey_extract(m, split=1.5)
    assert branch == "low"


def test_ramsey_preconditions():
    with pytest.raises(PreconditionError):
        ramsey_extract(np.zeros((1, 1)), split=1.0)
    with pytest.raises(PreconditionError):
        ramsey_extract(np.array([[0.0, 1.0], [2.0, 0.0]]), split=1.0)
    with pytest.raises(PreconditionError):
        ramsey_extract(np.array([[1.0, 1.0], [1.0, 0.0]]), split=2.0)


def _ramsey_pivots_by_comprehension(values, split):
    """The pivot loop of ``ramsey_extract`` written with Python lists."""
    remaining = list(range(len(values)))
    colored, last = [], None
    while remaining:
        pivot, rest = remaining[0], remaining[1:]
        if not rest:
            last = pivot
            break
        low = [i for i in rest if values[pivot, i] <= split]
        high = [i for i in rest if values[pivot, i] > split]
        if len(low) >= len(high):
            colored.append((pivot, "low"))
            remaining = low
        else:
            colored.append((pivot, "high"))
            remaining = high
    n_low = sum(1 for _, c in colored if c == "low")
    branch = "low" if n_low >= len(colored) - n_low else "high"
    selected = [i for i, c in colored if c == branch]
    if last is not None:
        selected.append(last)
    return sorted(selected), branch


@pytest.mark.parametrize("seed", range(12))
def test_ramsey_matches_list_comprehension_pivots(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 70))
    m = np.triu(rng.choice([0.9, 1.0, 1.1], size=(n, n)), 1)
    m = m + m.T
    idx, branch = ramsey_extract(m, split=1.0)
    assert (idx, branch) == _ramsey_pivots_by_comprehension(m, 1.0)
    assert all(type(i) is int for i in idx)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_ramsey_random_two_valued(seed):
    rng = np.random.default_rng(seed)
    n = 64
    m = np.where(rng.random((n, n)) < 0.5, 0.0, 2.0)
    m = np.triu(m, 1)
    m = m + m.T
    idx, branch = ramsey_extract(m, split=1.0)
    floor = math.ceil(math.log2(n)) // 2
    assert len(idx) >= max(floor, 1)
    sub = m[np.ix_(idx, idx)].copy()
    np.fill_diagonal(sub, 0.0 if branch == "low" else 2.0)
    assert np.all(sub <= 1.0) if branch == "low" else np.all(sub > 1.0)


# ----------------------------- pair enumeration -----------------------------

def pair_enumeration(n: int) -> tuple[int, int]:
    """Diagonal-sweep bijection onto ordered off-diagonal pairs.

    The oracle of ``sequences._open_pairs``.  Order: (0,1),(1,0),(0,2),
    (2,0),(1,2),(2,1),(0,3),...  Position ``n`` lands in block ``s`` (all
    pairs whose larger index is ``s``), which starts at position
    ``s*(s-1)``.
    """
    if n < 0:
        raise ValueError(f"enumeration position must be >= 0, got {n}")
    s = (1 + math.isqrt(1 + 4 * n)) // 2
    while s * (s - 1) > n:
        s -= 1
    while s * (s + 1) <= n:
        s += 1
    r = n - s * (s - 1)
    t = r // 2
    return (t, s) if r % 2 == 0 else (s, t)


def test_pair_enumeration_prefix():
    expect = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1), (0, 3)]
    assert [pair_enumeration(i) for i in range(7)] == expect


@pytest.mark.parametrize("n", [2, 3, 7, 20, 50])
def test_pair_enumeration_covers_all_pairs(n):
    # first n(n-1) positions biject onto the off-diagonal pairs below n
    seen = [pair_enumeration(i) for i in range(n * (n - 1))]
    assert len(set(seen)) == len(seen)
    assert set(seen) == {(a, b) for a in range(n) for b in range(n) if a != b}


@pytest.mark.parametrize("k", [2, 3, 9, 30])
def test_open_pairs_follow_the_enumeration(k):
    # consume both indices of every third candidate, as an acceptance would
    def walk(candidates):
        consumed, seen = set(), []
        for pos, (a, b) in candidates(consumed):
            seen.append((pos, (a, b)))
            if len(seen) % 3 == 1:
                consumed.update((a, b))
        return seen

    def brute(consumed):
        for pos in range(k * (k - 1)):
            a, b = pair_enumeration(pos)
            if a not in consumed and b not in consumed:
                yield pos, (a, b)

    assert walk(lambda c: sequences._open_pairs(k, c)) == walk(brute)


def test_pair_enumeration_rejects_negative():
    with pytest.raises(ValueError):
        pair_enumeration(-1)


# ----------------------------- theorem-3 construction -----------------------------

def test_theorem3_basis_seed_short_circuits_high():
    space = SpaceSpec(p=2, d=16)
    trace = theorem3_construct(space, unit_basis_seed(space, 16), max_len=16)
    assert trace.branch == "high"
    assert trace.status == "completed"
    assert trace.steps == ()
    assert len(trace.output) == 16
    assert trace.final_certificate.passed
    assert trace.final_certificate.min_pairwise == pytest.approx(SQRT2,
                                                                 abs=1e-12)


def test_theorem3_shifted_seed_runs_greedy_low_branch():
    space = SpaceSpec(p=2, d=64)
    seed = shifted_basis_seed(space, 63)
    trace = theorem3_construct(space, seed, max_len=64)
    assert trace.branch == "low"
    assert trace.status == "exhausted"
    assert len(trace.output) == 31  # floor(63 / 2) disjoint pairs
    cert = trace.final_certificate
    assert cert.passed
    assert cert.min_pairwise == pytest.approx(SQRT2, abs=1e-9)
    assert cert.threshold == pytest.approx(1.0285954792089682, abs=1e-12)
    accepted = [s for s in trace.steps if s.accepted]
    assert len(accepted) == 31
    assert all(abs(s.y_norm - 1.0) <= 1e-9 for s in accepted)
    used = [i for s in accepted for i in s.pair]
    assert len(used) == len(set(used))  # disjoint index pairs


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_theorem3_low_branch_measures_every_prior_output(p):
    space = SpaceSpec(p=p, d=24)
    base = np.asarray(shifted_basis_seed(space, 23))
    seed = base + 1e-3 * np.random.default_rng(1).standard_normal(base.shape)
    seed = seed / separation(space, seed) * (1.0 + 1e-12)
    trace = theorem3_construct(space, list(seed), max_len=100)
    assert trace.branch == "low" and len(trace.output) > 2
    split = 1.0 + 0.5 * trace.delta1
    extracted, _ = ramsey_extract(pair_norms(space, seed), split)
    xi = seed[extracted]
    prior = []
    for step in trace.steps:
        y = xi[step.pair[0]] - xi[step.pair[1]]
        if prior:
            expected = batch_norm(space, np.asarray(prior) - y).min()
            assert step.min_dist_to_prior == pytest.approx(expected,
                                                           rel=1e-14)
        else:
            assert step.min_dist_to_prior is None
        if step.accepted:
            prior.append(trace.output[len(prior)])
    assert len(prior) == len(trace.output)


def test_theorem3_max_len_one():
    space = SpaceSpec(p=2, d=8)
    trace = theorem3_construct(space, shifted_basis_seed(space, 7), max_len=1)
    assert trace.status == "completed"
    assert len(trace.output) == 1
    assert trace.final_certificate.passed  # vacuous


def test_theorem3_final_certificate_rejects_close_low_branch_outputs(
        monkeypatch):
    # accept every candidate and let the enumeration reuse index 0: the
    # outputs (e_1 - e_2)/sqrt2 and (e_1 - e_3)/sqrt2 lie at distance 1,
    # below 1 + delta1/2, and only the final certificate stands in the way
    space = SpaceSpec(p=2, d=5)
    monkeypatch.setattr(sequences, "_open_pairs",
                        lambda k, consumed: iter([(0, (0, 1)), (2, (0, 2))]))
    monkeypatch.setattr(sequences, "batch_norm",
                        lambda space, rows: np.full(len(rows), np.inf))
    with pytest.raises(CertificateError, match="final certificate failed"):
        theorem3_construct(space, shifted_basis_seed(space, 4), max_len=2)


def test_theorem3_final_certificate_is_checked_in_the_high_branch(
        monkeypatch):
    space = SpaceSpec(p=2, d=16)
    failing = sequences.SeparationCertificate(
        indices=(), min_pairwise=0.0, threshold=1.0, passed=False)
    monkeypatch.setattr(sequences, "certify", lambda *args, **kw: failing)
    with pytest.raises(CertificateError, match="final certificate failed"):
        theorem3_construct(space, unit_basis_seed(space, 16), max_len=16)


def test_theorem3_rejects_underseparated_seed():
    space = SpaceSpec(p=2, d=4)
    seed = [normalize(space, np.ones(4) + 0.01 * v)
            for v in unit_basis_seed(space, 4)]
    with pytest.raises(PreconditionError):
        theorem3_construct(space, seed, max_len=4)


def test_theorem3_trace_step_records():
    space = SpaceSpec(p=2, d=10)
    trace = theorem3_construct(space, shifted_basis_seed(space, 9), max_len=2)
    first = trace.steps[0]
    assert first.candidate_index == 0
    assert first.pair == (0, 1)
    assert first.min_dist_to_prior is None
    assert first.accepted


def test_vectors_csv_roundtrip(tmp_path):
    space = SpaceSpec(p=2, d=3)
    vecs = unit_basis_seed(space, 3)
    path = tmp_path / "vecs.csv"
    vectors_to_csv(path, vecs)
    rows = [[float(t) for t in line.split(",")]
            for line in path.read_text().splitlines()]
    assert np.array_equal(np.asarray(rows), np.asarray(vecs))


# ----------------------------- vector families as (n, d) arrays -----------------------------

def _same_rows(a, rows):
    """``a`` is an (n, d) float64 array holding exactly the given rows."""
    want = np.asarray(rows, dtype=float).reshape(len(rows), -1)
    return (isinstance(a, np.ndarray) and a.dtype == np.float64
            and a.shape == want.shape
            and np.array_equal(a.view(np.int64), want.view(np.int64)))


def _old_shifted_rows(space, n):
    """The shifted-basis seed as the per-row loop used to build it."""
    scale = 2.0 ** (1.0 / space.p)
    out = []
    for k in range(1, n + 1):
        v = np.zeros(space.d)
        v[0] = 1.0 / scale
        v[k] = 1.0 / scale
        out.append(v)
    return out


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 7.0])
def test_fixed_seeds_are_float_arrays_of_the_old_rows(p):
    space = SpaceSpec(p=p, d=9)
    for n in (1, 6, 9):
        assert _same_rows(unit_basis_seed(space, n), list(np.eye(n, 9)))
    for n in (1, 5, 8):
        assert _same_rows(shifted_basis_seed(space, n),
                          _old_shifted_rows(space, n))


def test_riesz_seed_is_a_float_array_of_the_old_rows():
    space, n, budget, seed = SpaceSpec(p=3, d=5), 5, 3000, 7
    vectors = riesz_seed(space, n, budget, seed)
    cert = certify(space, vectors, 1.0)
    # the list-of-rows loop the seed used to run, on the same draws
    rng = np.random.default_rng(seed)
    rows = [unit_batch(space, rng, 1)[0]]
    for _ in range(n - 1):
        cand, min_dist = maximize_min_distance(
            space, np.asarray(rows), rng, EvalBudget(max(1, budget // (n - 1))))
        if min_dist < 1.0:
            break
        rows.append(cand)
    assert _same_rows(vectors, rows)
    assert cert.indices == tuple(range(len(rows)))


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_theorem3_outputs_are_float_arrays_of_the_old_rows(p):
    space = SpaceSpec(p=p, d=12)
    split = 1.0 + 0.5 * lp_delta(p, 2.0 / 3.0)
    basis = unit_basis_seed(space, 12)
    high = theorem3_construct(space, basis, max_len=5)
    extracted, _ = ramsey_extract(pair_norms(space, basis), split)
    assert high.branch == "high"
    assert _same_rows(high.output, [basis[i] for i in extracted][:5])

    seed = shifted_basis_seed(space, 11)
    low = theorem3_construct(space, seed, max_len=12)
    extracted, _ = ramsey_extract(pair_norms(space, seed), split)
    xi = [seed[i] for i in extracted]
    rows = [(xi[s.pair[0]] - xi[s.pair[1]]) / s.y_norm
            for s in low.steps if s.accepted]
    assert low.branch == "low" and len(rows) >= 2
    assert _same_rows(low.output, rows)
    assert json.loads(_json_text(low))["output"] == [[float(c) for c in v]
                                                    for v in rows]


@pytest.mark.parametrize("seq", [
    np.ones((3, 5)),                        # wrong width
    [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0]],  # ragged
    [np.ones(4), np.ones(3)],               # ragged rows of arrays
    np.ones(4),                             # one flat vector
    np.ones((2, 4, 1)),                     # rows that are not vectors
], ids=["width", "ragged", "ragged-arrays", "flat", "3d"])
def test_finite_rows_rejects_shapes_with_dimension_mismatch(seq):
    space = SpaceSpec(p=2, d=4)
    with pytest.raises(DimensionMismatchError):
        sequences._finite_rows(space, seq)
    with pytest.raises(DimensionMismatchError):
        separation(space, seq)


def test_finite_rows_takes_integer_rows_and_keeps_the_empty_error():
    space = SpaceSpec(p=2, d=3)
    rows = sequences._finite_rows(space, [[1, 0, 0], [0, 2, 0]])
    assert _same_rows(rows, [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    empty = sequences._finite_rows(space, [])
    assert empty.shape == (0, 3) and empty.dtype == np.float64
    with pytest.raises(PreconditionError,
                       match="separation needs at least 2 vectors"):
        separation(space, [])
    # no window holds 2 of 0 values, as of 1 value (was a numpy ValueError)
    with pytest.raises(InsufficientClusterError):
        baseline_extract(space, [], np.eye(3)[0], tau=0.1)
    with pytest.raises(PreconditionError,
                       match="separation needs at least 2 vectors"):
        theorem3_construct(space, [], max_len=2)


@pytest.mark.parametrize("tau", [math.inf, math.nan, 0.0, -1.0])
def test_baseline_rejects_tau_outside_zero_to_inf(tau):
    space = SpaceSpec(p=2, d=3)
    seq = unit_basis_seed(space, 1)[[0] * 4]
    with pytest.raises(ValueError, match=r"tau must lie in \(0, inf\)"):
        baseline_extract(space, seq, seq[0], tau)
