import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_instance
from oracles import (
    calib_residual, calibration_has_solution_q2, calibration_margin, fd_jacobian, grid_minimizer, paper_residual,
    score_mle,
)

from nwacal import (
    EstimatingEquation,
    FitStatus,
    SolverControls,
    Stack,
    Variant,
    jacobian,
    residual,
    solve,
    solve_block,
)
from nwacal.estimators import FITTED_VARIANTS
from nwacal.solvers import (
    _cholesky_solve, _has_certificate, _matvec, _outer_rows, _row_terms, _rows_dot, _slots, _terms,
)


def _logit(p):
    return math.log(p / (1 - p))


def test_score_single_unit_hand_value():
    got = score_mle([0.0], x=[[1.0]], pi=[0.5], r=[1])
    assert got == pytest.approx([0.5], abs=1e-15)


def test_score_survey_weights_proportional_under_equal_pi():
    x, pi, r, _ = random_instance(0)
    pi = np.full_like(pi, 0.3)
    lam = np.array([0.2, -0.1])
    plain = score_mle(lam, x, pi, r)
    weighted = score_mle(lam, x, pi, r, survey_weighted=True)
    assert np.allclose(weighted, plain / 0.3, rtol=1e-12)


def test_calib_residual_self_consistent():
    x, pi, r, _ = random_instance(1)
    mask = r == 1
    lam_star = np.array([0.3, 0.1])
    inv_f = 1.0 + np.exp(-(x[mask] @ lam_star))
    target = (inv_f / pi[mask]) @ x[mask]
    assert np.allclose(calib_residual(lam_star, x[mask], pi[mask], target), 0.0, atol=1e-10)


def test_calib_intercept_only_scalar_solution():
    # SRSWOR, intercept only: residual vanishes exactly at logit(n_r / n).
    n, n_r = 20, 13
    x = np.ones((n, 1))
    pi = np.full(n, 0.1)
    r = np.array([1] * n_r + [0] * (n - n_r))
    eq = EstimatingEquation.cal_sample(x, pi, r)
    lam_star = np.array([_logit(n_r / n)])
    assert np.allclose(residual(lam_star, eq), 0.0, atol=1e-9)
    fit = solve(eq)
    assert fit.converged
    assert fit.lambda_hat[0] == pytest.approx(lam_star[0], abs=1e-8)


def test_full_response_target_unreachable():
    # Calibrating on the full-sample HT total with everyone responding: the
    # residual stays strictly positive in the intercept coordinate for any
    # finite coefficients (motivates divergence detection).
    x, pi, _, _ = random_instance(2)
    r = np.ones(x.shape[0], dtype=np.int64)
    eq = EstimatingEquation.cal_sample(x, pi, r)
    for lam in ([0.0, 0.0], [3.0, 1.0], [10.0, -2.0]):
        assert residual(np.array(lam), eq)[0] > 0.0
    assert solve(eq).status is FitStatus.DIVERGED


def _target_from(lam_star, x, pi, r):
    # The population totals that lam_star solves exactly, built the way
    # acceptance criterion 2 builds its calibration targets.
    mask = r == 1
    inv_f = 1.0 + np.exp(-(x[mask] @ lam_star))
    return (inv_f / pi[mask]) @ x[mask]


def test_calibration_margin_feasible_target():
    x, pi, r, _ = random_instance(11)
    lam_star = np.array([0.3, 0.1])
    eq = EstimatingEquation.cal_population(x, pi, r, _target_from(lam_star, x, pi, r))
    margin, _ = calibration_margin(eq)
    # The margin is the largest min_i w_i over representations
    # c = sum w_i x_i / pi_i, and w_i = exp(-x_i.lam_star) is one of them.
    w_star = np.exp(-(x[r == 1] @ lam_star))
    assert margin >= w_star.min() * (1.0 - 1e-9)


def test_calibration_margin_certifies_target_outside_cone():
    x, pi, r, _ = random_instance(12)
    mask = r == 1
    # c = target - sum x_i/pi_i has a negative intercept total, which no
    # positive combination of the respondents' (1, x1) rows reaches.
    target = (x[mask] / pi[mask][:, None]).sum(axis=0) - np.array([5.0, 0.0])
    eq = EstimatingEquation.cal_population(x, pi, r, target)
    margin, v = calibration_margin(eq)
    assert margin < 0.0
    c = target - (x[mask] / pi[mask][:, None]).sum(axis=0)
    assert np.all(x[mask] @ v >= -1e-9 * np.linalg.norm(v) * np.linalg.norm(x[mask], axis=1))
    assert c @ v < 0.0
    assert solve(eq).status is FitStatus.DIVERGED


def test_existence_verdict_decides_near_ties_exactly():
    # Targets within a few ulps of the edge of the respondents' cone, where a
    # float margin is no better than its rounding: the q = 2 verdict must be
    # the one decided wholly in rational arithmetic.
    rng = np.random.default_rng(31)
    B, n = 400, 12
    x1, pi = rng.normal(4.0, 1.0, (B, n)), rng.uniform(0.2, 0.9, (B, n))
    r = rng.random((B, n)) < 0.7
    r[:, :2] = True
    target, want = np.empty((B, 2)), np.empty(B, dtype=bool)
    for b in range(B):
        rows = np.flatnonzero(r[b])
        a0 = sum(1 / Fraction(pi[b, i]) for i in rows)
        a1 = sum(Fraction(x1[b, i]) / Fraction(pi[b, i]) for i in rows)
        lo, hi = Fraction(x1[b, rows].min()), Fraction(x1[b, rows].max())
        c0 = Fraction(rng.uniform(1.0, 20.0))
        target[b] = float(a0 + c0), float(a1 + c0 * (hi if b % 2 else lo))
        for _ in range(int(rng.integers(0, 4))):
            target[b, 1] = np.nextafter(target[b, 1], np.inf if rng.random() < 0.5 else -np.inf)
        e0, e1 = Fraction(target[b, 0]) - a0, Fraction(target[b, 1]) - a1
        want[b] = e0 > 0 and e0 * lo < e1 < e0 * hi
    got = calibration_has_solution_q2(x1, pi, r, np.ones((B, n), dtype=bool), target)
    assert got.tolist() == want.tolist()
    assert 0 < want.sum() < B


@pytest.mark.parametrize("lam_star", [(-52.0, 13.0), (60.0, -14.0)])
def test_calibration_solution_beyond_fifty_converges(lam_star):
    # A solution with |lam| > 50 is still a solution: no bound on the
    # coefficients may turn it into a failure.
    lam_star = np.array(lam_star)
    x, pi, r, _ = random_instance(4, n=40)
    eq = EstimatingEquation.cal_population(x, pi, r, _target_from(lam_star, x, pi, r))
    fit = solve(eq)
    assert fit.converged
    assert np.allclose(fit.lambda_hat, lam_star, rtol=1e-6)


def test_full_response_population_calibration_solved():
    # With every sampled unit responding the population-level equation can
    # still have a solution (the target is not the sample's own HT total).
    x, pi, _, _ = random_instance(13)
    r = np.ones(x.shape[0], dtype=np.int64)
    lam_star = np.array([0.5, 0.2])
    fit = solve(EstimatingEquation.cal_population(x, pi, r, _target_from(lam_star, x, pi, r)))
    assert fit.converged
    assert np.allclose(fit.lambda_hat, lam_star, atol=1e-8)


def _cone_edge(seed, n=30):
    # c = target - sum_{S_r} x_i/pi_i is t x_j for the respondent j of
    # largest x1: c lies on an extreme ray of the cone of respondent rows,
    # so no strictly positive combination of them reaches it and the
    # equation has no solution. Integer x1 and pi = 1/2 keep the target
    # exactly on the ray.
    rng = np.random.default_rng(seed)
    x1 = rng.integers(-5, 6, n).astype(float)
    x = np.column_stack([np.ones(n), x1])
    pi = np.full(n, 0.5)
    r = (rng.random(n) < 0.6).astype(np.int64)
    order = np.argsort(x1)
    r[order[0]], r[order[-1]], r[order[n // 2]] = 1, 1, 0
    mask = r == 1
    j = np.flatnonzero(mask)[np.argmax(x1[mask])]
    t = float(rng.integers(1, 20))
    target = (x[mask] / pi[mask][:, None]).sum(axis=0) + t * x[j]
    return EstimatingEquation.cal_population(x, pi, r, target)


def test_cone_edge_calibration_targets_not_converged():
    # A small residual alone is reached far out along the edge; convergence
    # also needs the existence proof, which no point of these equations has.
    converged = sum(solve(_cone_edge(seed)).converged for seed in range(200))
    print(f"cone-edge calibration targets reported converged: {converged} of 200")
    assert converged <= 10


def _separated(quasi: bool, n: int = 20, seed: int = 0):
    # Respondents have x1 >= 0 and nonrespondents x1 <= 0, so v = (0, 1)
    # has a_i.v >= 0 on every signed row and the likelihood has no maximiser
    # (Albert & Anderson 1984). The quasi-complete instance puts two
    # respondents and a nonrespondent at x1 = 0 exactly.
    rng = np.random.default_rng(seed)
    x1 = rng.normal(0.0, 1.0, n)
    r = (x1 > 0.0).astype(np.int64)
    if quasi:
        x1[:3] = 0.0
        r[:3] = (1, 0, 1)
    return np.column_stack([np.ones(n), x1]), rng.uniform(0.2, 0.9, n), r


@pytest.mark.parametrize("survey_weighted", [False, True])
@pytest.mark.parametrize("quasi", [False, True])
def test_separated_mle_diverges_with_certificate(quasi, survey_weighted):
    x, pi, r = _separated(quasi)
    fit = solve(EstimatingEquation.mle(x, pi, r, survey_weighted))
    assert fit.status is FitStatus.DIVERGED
    # The certificate stops the fit once its residual is within tol.
    assert fit.iterations < SolverControls().max_iter
    signed = np.where(r[:, None] == 1, x, -x)
    assert _has_certificate(signed, np.zeros(2), [np.array([0.0, 1.0])])
    # Overlapping data has no certificate along any axis.
    x_o, _, r_o, _ = random_instance(3)
    signed = np.where(r_o[:, None] == 1, x_o, -x_o)
    assert not _has_certificate(signed, np.zeros(2), list(np.vstack([np.eye(2), -np.eye(2)])))


@pytest.mark.parametrize("survey_weighted", [False, True])
def test_mle_solution_beyond_fifty_converges(survey_weighted):
    # Scaling x1 by 0.01 scales the solution's slope by 100: the rescaled
    # equation has a solution with |lam| > 50 and the same fitted
    # probabilities, and no bound on the coefficients may lose it.
    x, pi, r, _ = random_instance(3, n=40)
    fit = solve(EstimatingEquation.mle(x, pi, r, survey_weighted))
    fit_small = solve(EstimatingEquation.mle(x * [1.0, 0.01], pi, r, survey_weighted))
    assert fit.converged and fit_small.converged
    assert abs(fit_small.lambda_hat[1]) > 50.0
    assert np.allclose(fit_small.lambda_hat, fit.lambda_hat * [1.0, 100.0], rtol=1e-6)


def test_solve_block_matches_solve_on_mixed_mle_stack():
    # Separated, |lam| > 50 and ordinary equations of two sample sizes in
    # one padded stack: solve_block gives every equation the status solve
    # gives it alone, in the same iterations, at the same lambda.
    equations = []
    for survey_weighted in (False, True):
        for quasi in (False, True):
            equations.append(EstimatingEquation.mle(*_separated(quasi), survey_weighted))
        for seed in range(4):
            x, pi, r, _ = random_instance(seed, n=40)
            equations.append(EstimatingEquation.mle(x, pi, r, survey_weighted))
            equations.append(EstimatingEquation.mle(x * [1.0, 0.01], pi, r, survey_weighted))
    block = solve_block(*_padded(equations))
    fits = [solve(eq) for eq in equations]
    assert block.status.tolist() == [fit.status for fit in fits]
    converged = block.status == FitStatus.CONVERGED
    assert not converged.all() and np.any(np.abs(block.lambda_hat[converged, 1]) > 50.0)
    assert block.iterations.tolist() == [fit.iterations for fit in fits]
    for b, fit in enumerate(fits):
        assert np.allclose(block.lambda_hat[b], fit.lambda_hat, rtol=1e-10, atol=0.0), b


def test_stack_of_one_matches_padded_stack_of_64():
    # Sixteen Poisson/rho=0.6 study replicates, all four kinds, of different
    # sample sizes in one padded stack of 64: each equation gets the status,
    # iterations and lambda that it gets as a stack of one.
    from nwacal.cli import RunConfig, study_scenarios
    from nwacal.estimators import estimating_equation
    from nwacal.montecarlo import TAG_RESPONSE, TAG_SAMPLING, mix_seed
    from nwacal import draw_response, draw_sample

    _, _, sc = study_scenarios(RunConfig(reps=16))[3]
    pop = sc.population
    equations = []
    for i in range(16):
        s = draw_sample(sc.design, mix_seed(sc.master_seed, i, TAG_SAMPLING))
        resp = draw_response(s, pop.true_p[s.indices], mix_seed(sc.master_seed, i, TAG_RESPONSE))
        for variant in FITTED_VARIANTS:
            equations.append(
                estimating_equation(variant, pop.aux[s.indices], s.pi_s, resp.r, pop.aux.sum(axis=0))
            )
    block = solve_block(*_padded(equations))
    assert len({len(eq.r) for eq in equations}) > 1
    assert {FitStatus.CONVERGED, FitStatus.DIVERGED} <= set(block.status)
    for b, eq in enumerate(equations):
        fit = solve(eq)
        assert (block.status[b], block.iterations[b]) == (fit.status, fit.iterations), b
        assert np.allclose(block.lambda_hat[b], fit.lambda_hat, rtol=1e-10, atol=0.0), b


def test_permuted_samples_and_equations_give_the_same_fits():
    # Each equation reads its rows through rep alone: permuting the rows of
    # the sample and respondent stacks (rep following them) and the order of
    # the equations gives every equation the same status, iterations and
    # lambda, bit for bit.
    from nwacal.cli import RunConfig, study_scenarios
    from nwacal.estimators import estimating_equation
    from nwacal.montecarlo import TAG_RESPONSE, TAG_SAMPLING, mix_seed
    from nwacal import draw_response, draw_sample

    _, _, sc = study_scenarios(RunConfig(reps=12))[3]
    pop = sc.population
    equations = []
    for i in range(12):
        s = draw_sample(sc.design, mix_seed(sc.master_seed, i, TAG_SAMPLING))
        resp = draw_response(s, pop.true_p[s.indices], mix_seed(sc.master_seed, i, TAG_RESPONSE))
        for variant in FITTED_VARIANTS:
            equations.append(
                estimating_equation(variant, pop.aux[s.indices], s.pi_s, resp.r, pop.aux.sum(axis=0))
            )
    kinds, rep, stack, target = _padded(equations)
    assert len(stack.x) == 12
    block = solve_block(kinds, rep, stack, target)
    rng = np.random.default_rng(5)
    rows, order = rng.permutation(12), rng.permutation(len(equations))
    moved = np.argsort(rows)[rep][order]
    permuted = solve_block(np.array(kinds, dtype=object)[order], moved, _rows(stack, rows), target[order])
    assert {FitStatus.CONVERGED, FitStatus.DIVERGED} <= set(block.status)
    assert permuted.status.tolist() == block.status[order].tolist()
    assert np.array_equal(permuted.iterations, block.iterations[order])
    assert np.array_equal(permuted.lambda_hat, block.lambda_hat[order])


@pytest.mark.parametrize("q", [2, 3])
def test_cholesky_solve_matches_lapack(q):
    # The unrolled Cholesky solve against LAPACK: the same directions on
    # positive definite matrices, NaN exactly where np.linalg.cholesky
    # fails (indefinite, singular or NaN matrices).
    rng = np.random.default_rng(q)
    a = rng.normal(size=(300, q, q))
    hess = a @ a.transpose(0, 2, 1) + 1e-3 * np.eye(q)
    hess[:60] -= 2.0 * np.eye(q)
    hess[60] = 1.0
    hess[61, 0, 0] = np.nan
    res = rng.normal(size=(300, q))
    got = _cholesky_solve(hess, res)
    for b in range(300):
        try:
            np.linalg.cholesky(hess[b])
            positive_definite = np.isfinite(hess[b]).all()
        except np.linalg.LinAlgError:
            positive_definite = False
        if not positive_definite:
            assert np.isnan(got[b]).all(), b
            continue
        want = np.linalg.solve(hess[b], res[b])
        tol = 1e-13 * np.linalg.cond(hess[b]) * np.abs(want).max()
        assert np.all(np.abs(got[b] - want) <= tol), b


def _padded(equations):
    """solve_block's arguments for a list of equations: a Stack with one row
    per distinct sample (x, pi, r), padded to the longest, and the row of
    each equation."""
    samples, rep = [], []
    for eq in equations:
        data = (eq.x, eq.pi, eq.r)
        same = [k for k, s in enumerate(samples) if all(np.array_equal(a, b) for a, b in zip(s, data))]
        rep.append(same[0] if same else len(samples))
        if not same:
            samples.append(data)
    R, q = len(samples), equations[0].x.shape[1]
    n, m = max(len(r) for _, _, r in samples), max(int(r.sum()) for _, _, r in samples)
    x, pi = np.zeros((R, n, q)), np.ones((R, n))
    r, valid = np.zeros((R, n), dtype=np.int64), np.zeros((R, n), dtype=bool)
    x_r, pi_r, valid_r = np.zeros((R, m, q)), np.ones((R, m)), np.zeros((R, m), dtype=bool)
    for k, (x_k, pi_k, r_k) in enumerate(samples):
        resp = r_k == 1
        x[k, :len(r_k)], pi[k, :len(r_k)], r[k, :len(r_k)], valid[k, :len(r_k)] = x_k, pi_k, r_k, True
        x_r[k, :resp.sum()], pi_r[k, :resp.sum()], valid_r[k, :resp.sum()] = x_k[resp], pi_k[resp], True
    kinds = [eq.kind for eq in equations]
    return kinds, np.array(rep), _stack(x, pi, r, valid, x_r, pi_r, valid_r), np.array([eq.target for eq in equations])


def _stack(x, pi, r, valid, x_r, pi_r, valid_r):
    """The Stack of padded sample and respondent rows, with no y or p. The
    respondent rows may be left empty where no calibration equation reads them."""
    return Stack(valid.sum(axis=1), (r == 1).sum(axis=1), x, pi, None, None, r, valid, x_r, pi_r, None, None, valid_r)


def _rows(stack, rows):
    """The stack's samples ``rows``, in that order."""
    return Stack(*(None if a is None else a[rows] for a in stack))


def test_equations_sharing_a_sample_change_no_bit():
    # Samples carrying one, two and three equations of a family, both MLE
    # kinds in one slot, absent slots and rep out of order: solve_block
    # lays each family out on a grid of slots over the samples, and each
    # equation must get exactly the lambda, status, iterations, residual
    # norm and trace rows that it gets on a sample row of its own.
    sep, quasi = _separated(quasi=False), _separated(quasi=True)
    mid, wide = random_instance(3, n=20)[:3], random_instance(4, n=37)[:3]
    small = random_instance(5, n=11)[:3]
    edge = _cone_edge(0)
    cone = (edge.x, edge.pi, edge.r)
    inner = (edge.x[edge.r == 1] / edge.pi[edge.r == 1, None]).sum(axis=0)
    mle, cal_s = EstimatingEquation.mle, EstimatingEquation.cal_sample

    def cal_u(sample, target):
        return EstimatingEquation.cal_population(*sample, target)

    equations = [
        mle(*sep), mle(*quasi, survey_weighted=True), mle(*quasi),
        mle(*mid), mle(*mid, survey_weighted=True), mle(*mid),
        mle(*wide, survey_weighted=True), mle(*small),
        cal_s(*mid), cal_u(mid, _target_from(np.array([0.3, 0.1]), *mid)),
        cal_u(cone, edge.target), cal_u(cone, edge.target + 1e-4 * inner), cal_s(*cone),
        cal_s(*wide), cal_u(small, _target_from(np.array([-0.2, 0.2]), *small)),
    ]
    equations = [equations[k] for k in np.random.default_rng(7).permutation(len(equations))]
    kinds, rep, stack, target = _padded(equations)
    assert list(rep) != sorted(rep)
    mle_eq = np.flatnonzero([k in (Variant.MLE_K1, Variant.MLE_KINVPI) for k in kinds])
    grid = _slots(rep[mle_eq], len(stack.x))
    assert grid.shape[0] == 3 and (grid < 0).any()
    assert any(len({kinds[mle_eq[j]] for j in row[row >= 0]}) == 2 for row in grid)
    controls = SolverControls(trace=True)
    shared = solve_block(kinds, rep, stack, target, controls)
    own = solve_block(kinds, np.arange(len(rep)), _rows(stack, rep), target, controls)
    assert {FitStatus.CONVERGED, FitStatus.DIVERGED} == set(shared.status)
    assert len(set(shared.iterations.tolist())) > 4
    assert shared.status.tolist() == own.status.tolist()
    for got, want in zip(shared[:4], own[:4]):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert shared.trace == own.trace


def _mixed_equations():
    """Four MLE and six calibration equations, each stopping at its own
    iteration: separated, ordinary and cone-edge fits."""
    x, pi, r = _separated(quasi=True)
    x_o, pi_o, r_o, _ = random_instance(3, n=20)
    edge = _cone_edge(0)
    x_c, pi_c, r_c = edge.x, edge.pi, edge.r
    inner = (x_c[r_c == 1] / pi_c[r_c == 1, None]).sum(axis=0)
    return [
        EstimatingEquation.mle(*_separated(quasi=False)),
        EstimatingEquation.mle(x, pi, r, survey_weighted=True),
        EstimatingEquation.mle(x_o, pi_o, r_o),
        EstimatingEquation.mle(x_o, pi_o, r_o, survey_weighted=True),
        edge,
        *(EstimatingEquation.cal_population(x_c, pi_c, r_c, edge.target + eps * inner)
          for eps in (1e-2, 1e-4, 1e-6)),
        EstimatingEquation.cal_sample(x_c, pi_c, r_c),
        EstimatingEquation.cal_population(x_c, pi_c, r_c, _target_from(np.array([0.3, 0.1]), x_c, pi_c, r_c)),
    ]


def test_trace_rows_in_a_mixed_stack():
    # Equations that stop at different iterations share a stack, and one that
    # has stopped may stay in it, frozen, while others run on. Each must get
    # the trace rows, iterations and status of its stack of one, and no rows
    # after it stopped. The calibration equations share one sample, whose
    # respondent rows are the longest and need no padding, so their rows
    # match exactly; the MLE stack differs from stacks of one by rounding in
    # the sums (about 1e-14 on residual norms of about 10).
    equations = _mixed_equations()
    controls = SolverControls(trace=True)
    block = solve_block(*_padded(equations), controls)
    assert len(set(block.iterations.tolist())) == len(equations)
    assert {FitStatus.CONVERGED, FitStatus.DIVERGED} == set(block.status)
    for b, eq in enumerate(equations):
        fit = solve(eq, controls)
        assert (block.status[b], block.iterations[b]) == (fit.status, fit.iterations), b
        assert [row[0] for row in block.trace[b]] == list(range(1, fit.iterations + 1)), b
        got, want = np.array(block.trace[b]), np.array(fit.trace)
        if eq.kind in (Variant.CAL_U, Variant.CAL_S):
            assert np.array_equal(got, want), b
        else:
            assert np.allclose(got, want, rtol=1e-9, atol=1e-12), b


@pytest.mark.parametrize("stack", ["mle", "calibration", "mixed"])
def test_solve_block_writes_nothing_into_its_inputs(stack):
    # The Newton loop computes in its own workspace: every argument of
    # solve_block keeps its bytes. The mixed stack's calibration equations
    # stop at six different iterations, so that stack is cut mid-run.
    if stack == "mixed":
        equations = _mixed_equations()
    else:
        equations = []
        for seed in range(6):
            x, pi, r, _ = random_instance(seed, n=30 + 5 * seed)
            equations += (
                [EstimatingEquation.mle(x, pi, r), EstimatingEquation.mle(x, pi, r, survey_weighted=True)]
                if stack == "mle"
                else [EstimatingEquation.cal_sample(x, pi, r),
                      EstimatingEquation.cal_population(x, pi, r, _target_from(np.array([0.3, 0.1]), x, pi, r))]
            )
    kinds, rep, st, target = _padded(equations)
    arrays = [rep, *(a for a in st if a is not None), target]
    before = [a.copy() for a in arrays]
    block = solve_block(kinds, rep, st, target)
    if stack == "mixed":
        it = block.iterations[4:]
        assert 2 * np.count_nonzero(it < it.max()) >= len(it)
    assert kinds == [eq.kind for eq in equations]
    for a, b in zip(arrays, before):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_solve_block_memory_peak():
    # The tracemalloc peak of solve_block on a 40 x 2000 x 2 MLE stack, in
    # units U of one (B, n) float array, B n 8 bytes. Held through the
    # Newton loop: 1/pi of the samples (one row per equation: 1 U), the
    # gathered x (q = 2: 2 U), the weights (1 U), r as bool (U/8), the
    # products x_i x_i' (q^2: 4 U) and the three workspace buffers (3 U),
    # 11.125 U in all. A pass adds ~r (U/8) and, while backtracking, one
    # gather of w or g over the pending equations (at most 1 U): 12.25 U,
    # and the bound leaves U/4 for the small arrays. A loop that allocates
    # its per-row terms anew on every pass peaks at 19.2 U here.
    import tracemalloc

    B, n, q = 40, 2000, 2
    rng = np.random.default_rng(0)
    x = np.concatenate([np.ones((B, n, 1)), rng.normal(4.0, 1.0, (B, n, q - 1))], axis=2)
    pi = rng.uniform(0.2, 0.9, (B, n))
    r = (rng.random((B, n)) < 1.0 / (1.0 + np.exp(-(x @ [0.1, 0.4])))).astype(np.int64)
    no_rows = np.zeros((B, 0, q)), np.ones((B, 0)), np.zeros((B, 0), dtype=bool)
    stack = _stack(x, pi, r, np.ones((B, n), dtype=bool), *no_rows)
    args = [Variant.MLE_K1, Variant.MLE_KINVPI] * (B // 2), np.arange(B), stack, np.zeros((B, q))
    solve_block(*args)
    tracemalloc.start()
    try:
        fit = solve_block(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (fit.status == FitStatus.CONVERGED).all()
    assert peak <= 12.5 * B * n * 8, peak / (B * n * 8)


def test_solve_block_memory_peak_on_shared_samples():
    # The tracemalloc peak of solve_block on 40 MLE equations, both kinds on
    # each of 20 samples of n = 2000 (q = 2), in units U of one (B, n) float
    # array for the B = 40 equations, B n 8 bytes. The rows x come in once
    # per sample. Held through the Newton loop: 1/pi of the samples (U/2),
    # the weights of each equation (1 U), r as bool per sample (U/16), the
    # products x_i x_i' per sample (q^2 / 2 = 2 U) and the three workspace
    # buffers (3 U), 6.5625 U in all. A pass adds ~r (U/16) and, while
    # backtracking, one gather of w or g over the pending equations (at
    # most 1 U): 7.625 U, and the bound leaves U/4 for the small arrays. The
    # cut to the one sample still running after four iterations copies its
    # rows, products and weights (3.5 U / 20). A stack that gathers x and
    # forms x_i x_i' once per equation peaks at 11.0 U here.
    import tracemalloc

    B, R, n, q = 40, 20, 2000, 2
    rng = np.random.default_rng(0)
    x = np.concatenate([np.ones((R, n, 1)), rng.normal(4.0, 1.0, (R, n, q - 1))], axis=2)
    pi = rng.uniform(0.2, 0.9, (R, n))
    r = (rng.random((R, n)) < 1.0 / (1.0 + np.exp(-(x @ [0.1, 0.4])))).astype(np.int64)
    no_rows = np.zeros((R, 0, q)), np.ones((R, 0)), np.zeros((R, 0), dtype=bool)
    stack = _stack(x, pi, r, np.ones((R, n), dtype=bool), *no_rows)
    args = [Variant.MLE_K1, Variant.MLE_KINVPI] * R, np.repeat(np.arange(R), 2), stack, np.zeros((B, q))
    solve_block(*args)
    tracemalloc.start()
    try:
        fit = solve_block(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (fit.status == FitStatus.CONVERGED).all()
    assert set(fit.iterations.tolist()) == {4, 5}
    assert peak <= 7.875 * B * n * 8, peak / (B * n * 8)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_outer_rows_matches_einsum(q):
    # Each entry is one IEEE product, as einsum's is, overflow and underflow
    # included. (For q >= 3 einsum adds its products to +0, so a product
    # that underflows to -0 reads +0 there: the test compares values.)
    rng = np.random.default_rng(q)
    x = rng.normal(size=(3, 50, q)) * 10.0 ** rng.integers(-200, 200, size=(3, 50, q))
    x[0, :4], x[1, :4] = 0.0, -0.0
    with np.errstate(over="ignore", under="ignore"):
        want = np.einsum("...i,...j->...ij", x, x).reshape(3, 50, q * q)
        got = _outer_rows(x)
    assert np.isinf(want).any() and (want == 0.0).any()
    assert got.shape == want.shape and np.array_equal(got, want)


def test_converged_fit_takes_the_final_newton_step():
    # The proof of existence comes with a Newton step delta; the fit returns
    # lam + delta, whose residual is far inside the tolerance that lam met.
    stepped = 0
    for seed in range(6):
        x, pi, r, _ = random_instance(seed, n=40)
        for eq in (
            EstimatingEquation.mle(x, pi, r),
            EstimatingEquation.mle(x, pi, r, survey_weighted=True),
            EstimatingEquation.cal_sample(x, pi, r),
            EstimatingEquation.cal_population(x, pi, r, _target_from(np.array([0.3, 0.1]), x, pi, r)),
        ):
            fit = solve(eq)
            assert fit.converged
            scale = max(1.0, float(np.abs(eq.target).max()))
            after = float(np.abs(residual(fit.lambda_hat, eq)).max())
            assert after <= max(1e-3 * fit.residual_norm, 1e-12 * scale), (seed, eq.kind)
            stepped += fit.residual_norm > 1e-12 * scale
    assert stepped


@pytest.mark.parametrize("kind", FITTED_VARIANTS)
def test_overflowing_x_warns_nothing(kind):
    # x_i x_i' overflows float64 at x = +-1e300: the solver and its
    # residual and Jacobian form the products under the loop's
    # floating-point rules, so the fit reports singular_jacobian and the
    # Jacobian holds -inf, with no numpy warning.
    x = np.column_stack([np.ones(6), [1e300, -1e300, 2e299, -3e299, 5e299, 1e300]])
    pi, r = np.full(6, 0.5), np.array([1, 0, 1, 0, 1, 0])
    eq = EstimatingEquation(kind, x, pi, r, [10.0, 1e300] if kind is Variant.CAL_U else [0.0, 0.0])
    if kind is Variant.CAL_S:
        eq = EstimatingEquation.cal_sample(x, pi, r)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = solve(eq)
        jac = jacobian(np.zeros(2), eq)
        res = residual(np.zeros(2), eq)
    assert fit.status is FitStatus.SINGULAR_JACOBIAN and fit.iterations == 0
    assert jac[1, 1] == -np.inf and np.isfinite(res).all()


def test_calibration_targets_at_the_float64_limit_warn_nothing():
    # sum_i x_i/pi_i overflows at x1 = +-1e308, pi = 0.5: the sample-level
    # target is infinite and refused, and the population-level equation's
    # c = target - sum_i x_i/pi_i over the respondents is infinite, so it is
    # refused before Newton starts (not reported as a singular Jacobian).
    x = np.column_stack([np.ones(4), [1e308, -1e308, 1e308, -1e308]])
    pi, r = np.full(4, 0.5), np.array([1, 0, 1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="auxiliaries and target must be finite"):
            EstimatingEquation.cal_sample(x, pi, r)
        with pytest.raises(ValueError, match="over the respondents overflows float64"):
            EstimatingEquation.cal_population(x, pi, r, [8.0, 0.0])
        # A finite sum (-1.8e308) still overflows c against a target of 1e308.
        x[:, 1] = [-0.6e308, 1e308, -0.3e308, 1.0]
        with pytest.raises(ValueError, match="over the respondents overflows float64"):
            EstimatingEquation.cal_population(x, pi, r, [8.0, 1e308])


def test_jacobian_single_unit_hand_value():
    eq = EstimatingEquation.mle(x=[[1.0]], pi=[0.5], r=[1])
    got = jacobian(np.array([0.0]), eq)
    assert got[0, 0] == pytest.approx(-0.25, abs=1e-15)


@pytest.mark.parametrize("seed", range(6))
def test_jacobian_matches_finite_differences(seed):
    x, pi, r, _ = random_instance(seed, n=15)
    pop_totals = x.sum(axis=0) * 1.3
    equations = [
        EstimatingEquation.mle(x, pi, r),
        EstimatingEquation.mle(x, pi, r, survey_weighted=True),
        EstimatingEquation.cal_sample(x, pi, r),
        EstimatingEquation.cal_population(x, pi, r, pop_totals),
    ]
    rng = np.random.default_rng(seed)
    lam = rng.normal(0, 0.5, size=2)
    for eq in equations:
        analytic = jacobian(lam, eq)
        numeric = fd_jacobian(lam, eq)
        assert np.allclose(analytic, numeric, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("seed", range(4))
def test_residual_matches_the_paper_equations_on_padded_stacks(seed):
    # The residual Newton uses, sum_i u_i x_i - c from the terms solve_block
    # builds on padded sample and respondent stacks, equals the paper's MLE
    # score and calibration residual on each equation's own rows, for all
    # four kinds; residual(lam, eq), the stack of one, equals both.
    rng = np.random.default_rng(seed)
    R, q = 5, 3
    sizes = rng.integers(4, 12, R)
    valid = np.arange(sizes.max()) < sizes[:, None]
    x = np.where(valid[..., None], np.dstack([np.ones(valid.shape), rng.normal(0.0, 1.0, (*valid.shape, q - 1))]), 0.0)
    pi = np.where(valid, rng.uniform(0.2, 0.9, valid.shape), 1.0)
    r = (valid & (rng.random(valid.shape) < 0.6)).astype(np.int64)
    valid_r = np.arange(r.sum(axis=1).max()) < r.sum(axis=1)[:, None]
    x_r, pi_r = np.zeros((*valid_r.shape, q)), np.ones(valid_r.shape)
    x_r[valid_r], pi_r[valid_r] = x[r == 1], pi[r == 1]
    kinds = np.repeat(np.array(FITTED_VARIANTS, dtype=object), R)
    rep = np.tile(np.arange(R), len(FITTED_VARIANTS))
    target = np.zeros((len(kinds), q))
    target[kinds == Variant.CAL_U] = rng.uniform(50.0, 100.0, (R, q))
    target[kinds == Variant.CAL_S] = (x / pi[..., None]).sum(axis=1)
    lam = rng.normal(0.0, 0.5, (len(kinds), q))
    inv_pi = np.where(valid, 1.0 / pi, 0.0)
    for softplus in (False, True):
        sel = np.flatnonzero([(k in (Variant.MLE_K1, Variant.MLE_KINVPI)) == softplus for k in kinds])
        grid = _slots(rep[sel], R)
        assert grid.shape == (2, R) and (grid >= 0).all()
        slot = sel[grid.ravel()]
        survey = kinds[slot] == Variant.MLE_KINVPI
        xs, w, rs, c = _terms(softplus, survey, _stack(x, pi, r, valid, x_r, pi_r, valid_r), inv_pi, target[slot])
        eta = _matvec(xs, lam[slot].reshape(2, R, q))
        u, _, _ = _row_terms(eta, w, rs, softplus, np.empty_like(eta), np.empty_like(eta))
        got = _rows_dot(u, xs).reshape(-1, q) - c
        for j, b in enumerate(slot):
            k = rep[b]
            eq = EstimatingEquation(kinds[b], x[k, valid[k]], pi[k, valid[k]], r[k, valid[k]], target[b])
            want = paper_residual(lam[b], eq)
            bound = float((np.abs(eq.x).sum(axis=1) / eq.pi).sum() * np.exp(np.abs(eq.x @ lam[b])).max())
            atol = 1e-13 * (bound + np.abs(eq.target).sum())
            np.testing.assert_allclose(got[j], want, rtol=0.0, atol=atol, err_msg=str(kinds[b]))
            np.testing.assert_allclose(residual(lam[b], eq), want, rtol=0.0, atol=atol, err_msg=str(kinds[b]))


def test_calibration_jacobian_negative_definite():
    x, pi, r, _ = random_instance(3)
    eq = EstimatingEquation.cal_sample(x, pi, r)
    jac = jacobian(np.array([0.1, 0.2]), eq)
    assert np.allclose(jac, jac.T)
    assert np.all(np.linalg.eigvalsh(jac) < 0.0)


@pytest.mark.parametrize("kind", FITTED_VARIANTS)
def test_solve_matches_grid_oracle(kind):
    # Tiny instance: Newton solution against brute-force grid refinement, on
    # the equation of the variant's classmethod, whose kind is that variant.
    rng = np.random.default_rng(17)
    x1 = rng.normal(0.0, 1.0, 8)
    x = np.column_stack([np.ones(8), x1])
    pi = rng.uniform(0.3, 0.9, 8)
    r = np.array([1, 1, 0, 1, 1, 0, 1, 1])
    lam_star = np.array([0.4, -0.3])
    mask = r == 1
    if kind is Variant.CAL_U:
        inv_f = 1.0 + np.exp(-(x[mask] @ lam_star))
        eq = EstimatingEquation.cal_population(x, pi, r, (inv_f / pi[mask]) @ x[mask])
    elif kind is Variant.CAL_S:
        eq = EstimatingEquation.cal_sample(x, pi, r)
    else:
        eq = EstimatingEquation.mle(x, pi, r, survey_weighted=kind is Variant.MLE_KINVPI)
    assert eq.kind is kind
    fit = solve(eq)
    assert fit.converged
    oracle = grid_minimizer(eq)
    assert np.all(np.abs(fit.lambda_hat - oracle) <= 1e-4)


def test_converged_calibration_identities(study_population, study_srs):
    from nwacal import draw_response, draw_sample

    pop = study_population
    s = draw_sample(study_srs, 12)
    resp = draw_response(s, pop.true_p[s.indices], 13)
    x_s = pop.aux[s.indices]
    totals = pop.aux.sum(axis=0)
    eq_u = EstimatingEquation.cal_population(x_s, s.pi_s, resp.r, totals)
    fit_u = solve(eq_u)
    assert fit_u.converged
    mask = resp.resp_mask
    achieved = ((1.0 / (s.pi_s[mask] * fit_u.p_hat[mask]))[:, None] * x_s[mask]).sum(axis=0)
    scale = max(1.0, np.max(np.abs(totals)))
    assert np.max(np.abs(achieved - totals)) <= 1e-8 * scale

    eq_s = EstimatingEquation.cal_sample(x_s, s.pi_s, resp.r)
    fit_s = solve(eq_s)
    assert fit_s.converged
    ht = (x_s / s.pi_s[:, None]).sum(axis=0)
    achieved = ((1.0 / (s.pi_s[mask] * fit_s.p_hat[mask]))[:, None] * x_s[mask]).sum(axis=0)
    assert np.max(np.abs(achieved - ht)) <= 1e-8 * max(1.0, np.max(np.abs(ht)))


def test_converged_mle_score_within_tolerance(study_population, study_srs):
    from nwacal import draw_response, draw_sample

    pop = study_population
    s = draw_sample(study_srs, 21)
    resp = draw_response(s, pop.true_p[s.indices], 22)
    eq = EstimatingEquation.mle(pop.aux[s.indices], s.pi_s, resp.r)
    fit = solve(eq)
    assert fit.converged
    assert np.max(np.abs(residual(fit.lambda_hat, eq))) <= 1e-8


def test_full_response_mle_diverges():
    x, pi, _, _ = random_instance(5)
    r = np.ones(x.shape[0], dtype=np.int64)
    fit = solve(EstimatingEquation.mle(x, pi, r))
    assert fit.status is FitStatus.DIVERGED


def test_empty_respondents_diverges():
    x, pi, _, _ = random_instance(6)
    r = np.zeros(x.shape[0], dtype=np.int64)
    fit = solve(EstimatingEquation.cal_sample(x, pi, r))
    assert fit.status is FitStatus.DIVERGED


def test_fitted_probabilities_in_open_interval():
    for seed in range(8):
        x, pi, r, _ = random_instance(seed)
        fit = solve(EstimatingEquation.mle(x, pi, r))
        assert np.all(fit.p_hat > 0.0)
        assert np.all(fit.p_hat < 1.0)


def test_srs_k_modes_same_solution(study_population, study_srs):
    from nwacal import draw_response, draw_sample

    pop = study_population
    s = draw_sample(study_srs, 30)
    resp = draw_response(s, pop.true_p[s.indices], 31)
    x_s = pop.aux[s.indices]
    fit1 = solve(EstimatingEquation.mle(x_s, s.pi_s, resp.r))
    fit2 = solve(EstimatingEquation.mle(x_s, s.pi_s, resp.r, survey_weighted=True))
    assert fit1.converged and fit2.converged
    assert np.allclose(fit1.lambda_hat, fit2.lambda_hat, atol=1e-10)


@pytest.mark.parametrize("a,b", [(2.0, -1.0), (0.5, 3.0)])
def test_affine_reparameterization_invariance(a, b):
    x, pi, r, _ = random_instance(9, n=30)
    fit = solve(EstimatingEquation.mle(x, pi, r))
    x2 = x.copy()
    x2[:, 1] = a * x[:, 1] + b
    fit2 = solve(EstimatingEquation.mle(x2, pi, r))
    assert fit.converged and fit2.converged
    assert np.allclose(fit.p_hat, fit2.p_hat, atol=1e-8)
    assert not np.allclose(fit.lambda_hat, fit2.lambda_hat)


@pytest.mark.parametrize("bad", ["x", "pi", "target"])
def test_equation_rejects_non_finite_data(bad):
    # A NaN target would leave the calibration line search without a stopping point.
    x, pi, r, _ = random_instance(3)
    target = (x / pi[:, None]).sum(axis=0)
    {"x": x[0], "pi": pi, "target": target}[bad][-1] = np.nan
    with pytest.raises(ValueError):
        EstimatingEquation.cal_population(x, pi, r, target)


def test_controls_validation():
    for tol in (0.0, -1e-8, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol"):
            SolverControls(tol=tol)
    with pytest.raises(ValueError):
        SolverControls(max_iter=0)


def test_trace_records_every_iteration():
    x, pi, r, _ = random_instance(10)
    fit = solve(EstimatingEquation.mle(x, pi, r), SolverControls(trace=True))
    assert fit.converged
    assert fit.iterations > 0
    assert len(fit.trace) == fit.iterations
    iters, res_norms, steps = zip(*fit.trace)
    assert list(iters) == list(range(1, fit.iterations + 1))
    assert all(s > 0 for s in steps)
    assert res_norms[-1] == fit.residual_norm


def test_singular_jacobian_detected():
    # Collinear auxiliaries make the score Jacobian rank deficient at every
    # lambda, the intercept-only start included, so no Newton step is taken.
    pi = np.full(10, 0.5)
    x1 = np.arange(10.0)
    constant = np.column_stack([np.ones(10), np.full(10, 2.0)])
    instances = [
        (constant, [1, 0] * 5),
        (constant, [1, 1, 1, 0, 0, 1, 0, 1, 1, 1]),
        (np.column_stack([np.ones(10), x1, 1.0 + x1]), [1, 1, 1, 0, 0, 1, 0, 1, 1, 1]),
    ]
    for x, r in instances:
        fit = solve(EstimatingEquation.mle(x, pi, np.array(r)))
        assert fit.status is FitStatus.SINGULAR_JACOBIAN
        assert fit.iterations == 0
