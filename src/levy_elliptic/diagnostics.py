"""Monte Carlo and deterministic verification of the solver's guarantees.

Every check produces a ``TestReport`` that is reproducible bit-for-bit from
its name, seed and parameters.  Divergence can never be proven by a finite
computation, so trajectory-based checks classify into three honest
outcomes: convergent (relative increment over the last cutoff doubling
below 0.01), divergent (log-log slope of the trajectory at least 0.05), or
inconclusive in between.  Inconclusive reports are flagged, not failed.

Replicate-level parallelism derives one seed per replicate from the master
seed, and reductions run in a fixed order after collection, so results do
not depend on the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import _rng
from .domain import EigenSystem, HyperBox, eigen_matrix, enumerate_eigen, gauss_nodes
from .functions import SpectralFunction, abs_power_integral, fourier_vector, integral
from .integrability import existence_verdict, rr_integrability
from .measures import (
    LevyTriplet,
    band_variance,
    characteristic_exponent,
    jump_exponent_quadrature,
    sample_jump_sizes,
    tail_mass,
    truncated_variance,
)
from .noise import pair_eigen, pair_with_function, sample_noise
from .solver import (
    RegimeRefusalError,
    eval_field_grid,
    green_convolve,
    solve_mild,
)

# Atoms per chunk of a Monte Carlo batch (whole replicates): about 8 MiB a column.
BATCH_ATOMS = 1 << 20

CONVERGED_BAND = 0.01
DIVERGENT_BAND = 0.05


@dataclass
class TestReport:
    """One verification outcome: statistic against a threshold.

    ``passed`` means statistic <= threshold, unless the check is a
    divergence check, in which case it means statistic >= threshold; the
    direction is recorded in ``details["direction"]``.
    """

    name: str
    statistic: float
    threshold: float
    passed: bool
    replicates: int
    seed: int | None
    details: dict = field(default_factory=dict)
    inconclusive: bool = False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "pass": self.passed,
            "inconclusive": self.inconclusive,
            "replicates": self.replicates,
            "seed": self.seed,
            "details": self.details,
        }


def run_replicates(fn, n: int, workers: int = 1) -> list:
    """Apply fn to replicate ids 0..n-1, optionally across threads.

    Results come back in replicate order regardless of scheduling, which is
    what keeps multi-worker runs byte-identical to serial ones.
    """
    if workers <= 1:
        return [fn(i) for i in range(n)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n)))


def _pairing_batch(
    box: HyperBox,
    triplet: LevyTriplet,
    f,
    system: EigenSystem,
    eps: float,
    policy: str,
    m: int,
    seed: int,
) -> np.ndarray:
    """m i.i.d. samples of the noise paired with f, vectorized across replicates.

    Law-equivalent to calling ``pair_with_function`` on m fresh realizations:
    the Gaussian and gaussianized-small-jump parts act through the truncated
    expansion of f, so their contribution is a centered normal whose variance
    is (sigma^2 + small_variance) * sum_k <f, e_k>^2, and the jump part is the
    direct atom sum.  Draw order is fixed, so one seed fixes the whole batch.
    """
    rng = _rng.stream(seed, _rng.BATCH_STREAM)
    measure = triplet.measure
    x = _jump_sums(box, measure, f, m, rng, eps)
    if triplet.b != 0.0:
        x += triplet.b * integral(f, box)
    small_var = truncated_variance(measure, eps) if policy == "gaussianize" else 0.0
    coeffs = fourier_vector(system, f)
    gauss_var = (triplet.sigma**2 + small_var) * float(np.dot(coeffs, coeffs))
    if gauss_var > 0.0:
        x += math.sqrt(gauss_var) * rng.standard_normal(m)
    return x


def _jump_sums(
    box: HyperBox, measure, f, m: int, rng, lo: float, hi: float = math.inf
) -> np.ndarray:
    """m replicate sums of f(y) z over the atoms of nu on {lo < |z| <= hi}.

    The Poisson counts of all replicates come first; then consecutive chunks
    of whole replicates, about BATCH_ATOMS atoms each, draw their sizes and
    uniform locations from ``rng``, so memory is bounded by the chunk.
    """
    lam = box.volume * (tail_mass(measure, lo) - tail_mass(measure, hi))
    if not lam <= BATCH_ATOMS:
        raise ValueError(
            f"eps={lo:g} gives {lam:.3g} expected atoms in each of the M={m} replicates; "
            f"a chunk of whole replicates holds about BATCH_ATOMS={BATCH_ATOMS} atoms, "
            "so raise eps"
        )
    out = np.zeros(m)
    if lam == 0.0:
        return out
    counts = rng.poisson(lam, m)
    ends = np.cumsum(counts)
    start = 0
    while start < m:
        first = int(ends[start] - counts[start])
        stop = max(start + 1, int(np.searchsorted(ends, first + BATCH_ATOMS, side="right")))
        n = int(ends[stop - 1]) - first
        if n:
            sizes = sample_jump_sizes(measure, lo, rng, size=n, hi=hi)
            locations = box.lower + rng.random((n, box.dim)) * box.lengths
            owner = np.repeat(np.arange(stop - start), counts[start:stop])
            out[start:stop] = np.bincount(
                owner, weights=f.evaluate(locations) * sizes, minlength=stop - start
            )
        start = stop
    return out


def empirical_cf_test(
    triplet: LevyTriplet,
    f,
    u_grid,
    m: int,
    seed: int,
    *,
    box: HyperBox,
    system: EigenSystem,
    eps: float = 0.01,
    policy: str = "gaussianize",
    psi_quadrature: bool = False,
) -> TestReport:
    """Empirical characteristic function of <noise, f> against its law.

    Target: exp(int_D Psi(u f(x)) dx) with the exponent in closed form or,
    when ``psi_quadrature`` is set, through the adaptive-quadrature route.
    Statistic: max_u |empirical CF - target|; threshold 4/sqrt(m), the
    conservative envelope for bounded complex averages.
    """
    if m < 1000:
        raise ValueError("m below 1000 has no statistical power; refused")
    report = rr_integrability(f, triplet, box)
    if not report.verdict:
        raise ValueError("integrand is not noise-integrable; CF test undefined")

    u_grid = [float(u) for u in u_grid]
    x = _pairing_batch(box, triplet, f, system, eps, policy, m, seed)

    def psi(u_vals):
        if not psi_quadrature:
            return characteristic_exponent(triplet, u_vals)
        # The quadrature route keeps one adaptive integral per node.
        jump = np.vectorize(partial(jump_exponent_quadrature, triplet.measure))(u_vals)
        return -0.5 * triplet.sigma**2 * u_vals**2 + jump + 1j * (triplet.b * u_vals)

    pts, w = gauss_nodes(box, 64 if box.dim <= 2 else 16)
    fvals = f.evaluate(pts)
    stats, detail_rows = [], []
    for u in u_grid:
        # x-quadrature of Psi(u f(x)), one vectorized call over the nodes.
        if _is_const(fvals):
            exponent = complex(psi(u * float(fvals[0]))) * box.volume
        else:
            vals = psi(u * fvals)
            exponent = complex(np.dot(w, vals.real), np.dot(w, vals.imag))
        target = np.exp(exponent)
        empirical = complex(np.mean(np.exp(1j * u * x)))
        err = abs(empirical - target)
        stats.append(err)
        detail_rows.append(
            {
                "u": u,
                "target": [target.real, target.imag],
                "empirical": [empirical.real, empirical.imag],
                "abs_error": err,
            }
        )
    statistic = float(max(stats))
    threshold = 4.0 / math.sqrt(m)
    return TestReport(
        name="empirical_cf",
        statistic=statistic,
        threshold=threshold,
        passed=statistic <= threshold,
        replicates=m,
        seed=seed,
        details={"direction": "le", "grid": detail_rows, "psi_quadrature": psi_quadrature},
    )


def _is_const(values: np.ndarray) -> bool:
    return bool(np.all(values == values[0]))


def isometry_test(
    measure,
    eps: float,
    f,
    m: int,
    seed: int,
    *,
    box: HyperBox,
    band_high: float = 1.0,
) -> TestReport:
    """Variance identity for the compensated jump integral on a band.

    On {eps < |z| <= band_high} the integral of f z against the compensated
    jump measure has variance int f^2 dy * int_band z^2 nu(dz) exactly; for
    symmetric measures the compensator vanishes, so the raw atom sum is the
    simulable equivalent.  Statistic: |empirical/exact - 1|, threshold 0.05
    sized for m = 1e5.
    """
    if m < 1000:
        raise ValueError("m below 1000 has no statistical power; refused")
    f_square = abs_power_integral(f, box, 2.0)
    if not math.isfinite(f_square):
        raise ValueError("integrand is not square-integrable; isometry test undefined")
    exact = f_square * band_variance(measure, eps, band_high)
    if exact == 0.0:
        return TestReport(
            name="isometry_band",
            statistic=0.0,
            threshold=0.05,
            passed=True,
            replicates=0,
            seed=seed,
            details={"direction": "le", "skipped": "zero exact variance on the band"},
            inconclusive=True,
        )
    rng = _rng.stream(seed, _rng.BATCH_STREAM)
    y = _jump_sums(box, measure, f, m, rng, eps, band_high)
    empirical = float(np.var(y))
    statistic = abs(empirical / exact - 1.0)
    return TestReport(
        name="isometry_band",
        statistic=statistic,
        threshold=0.05,
        passed=statistic <= 0.05,
        replicates=m,
        seed=seed,
        details={
            "direction": "le",
            "exact_variance": exact,
            "empirical_variance": empirical,
            "band": [eps, band_high],
        },
    )


def weak_identity_test(
    realization,
    phi,
    gamma: float,
    system: EigenSystem,
    override: bool = False,
    label: str = "weak_identity",
) -> TestReport:
    """Duality identity between the solved field and the smoothed pairing.

    Compares the quadrature of (field * phi) over the box with the noise
    paired against the kernel-smoothed test function.  The identity is
    exact in the spectral representation, so the statistic isolates the
    numerical-integration error; threshold 1e-6 scaled by field magnitude.
    """
    u = solve_mild(realization, gamma, system, override=override)
    pts, w = gauss_nodes(system.box, max(64, 2 * int(system.indices.max()) + 48))
    uvals = u.evaluate(pts)
    lhs = float(np.dot(w, uvals * phi.evaluate(pts)))
    rhs = pair_with_function(realization, green_convolve(system, gamma, phi), system)
    scale = max(1.0, float(np.max(np.abs(uvals))))
    statistic = abs(lhs - rhs)
    threshold = 1e-6 * scale
    return TestReport(
        name=label,
        statistic=statistic,
        threshold=threshold,
        passed=statistic <= threshold,
        replicates=1,
        seed=realization.master_seed,
        details={
            "direction": "le",
            "lhs": lhs,
            "rhs": rhs,
            "scale": scale,
            "gamma": gamma,
        },
    )


def _increment_stats(s_prev: float, s_last: float, k_prev: int, k_last: int):
    if s_last <= 0.0:
        return 0.0, 0.0
    rel_inc = (s_last - s_prev) / s_last
    slope = math.log(s_last / s_prev) / math.log(k_last / k_prev) if s_prev > 0.0 else math.inf
    return rel_inc, slope


def _classify(rel_inc: float, slope: float) -> str:
    if rel_inc < CONVERGED_BAND:
        return "convergent"
    if slope >= DIVERGENT_BAND:
        return "divergent"
    return "inconclusive"


def sobolev_sweep(
    d: int,
    gamma: float,
    measure,
    r_list,
    k_list,
    replicates: int,
    seed: int,
    *,
    box: HyperBox | None = None,
    eps: float = 1.0,
    policy: str = "gaussianize",
    workers: int = 1,
    surrogate: bool = False,
    override: bool = False,
) -> list[TestReport]:
    """Norm-trajectory classification against the regularity ceiling.

    For each order r, builds per-replicate trajectories K -> partial
    squared norm and summarizes them by medians: the pointwise-median
    trajectory is reported for plotting, and the classification bands are
    applied to the median of the per-replicate last-doubling statistics
    (relative increment and log-log slope), which concentrates much better
    than a ratio of pointwise medians under heavy-tailed coefficients.
    The prediction under test: convergent iff r < 2 gamma - d/2.

    ``surrogate`` replaces the noise coefficients by the deterministic
    decay lambda_k^(-gamma), which turns the sweep into an exact check of
    the analytic boundary.
    """
    box = box or HyperBox.unit(d)
    if box.dim != d:
        raise ValueError("box dimension disagrees with d")
    k_list = [int(k) for k in k_list]
    if sorted(k_list) != k_list or len(k_list) < 2:
        raise ValueError("k_list must be ascending with at least two entries")
    if k_list[-1] != 2 * k_list[-2]:
        raise ValueError("the last two cutoffs must be a doubling (bands assume it)")
    triplet = LevyTriplet(0.0, 0.0, measure)
    verdict = existence_verdict(d, gamma, triplet)
    if not verdict.exists and not override:
        raise RegimeRefusalError(
            f"no mild solution for d={d}, gamma={gamma}; pass override=True"
        )

    system = enumerate_eigen(box, count=k_list[-1])
    lams = system.lams
    bases = {r: lams ** (float(r) - 2.0 * gamma) for r in r_list}
    checkpoints = np.asarray(k_list) - 1

    if surrogate:
        replicates = 1

        def one(_rep: int) -> dict:
            return {r: np.cumsum(bases[r])[checkpoints] for r in r_list}

    else:

        def one(rep: int) -> dict:
            rep_seed = _rng.replicate_seed(seed, rep)
            realization = sample_noise(box, triplet, eps=eps, policy=policy, master_seed=rep_seed)
            c2 = pair_eigen(realization, system) ** 2
            return {r: np.cumsum(bases[r] * c2)[checkpoints] for r in r_list}

    rows = run_replicates(one, replicates, workers)
    threshold_r = 2.0 * gamma - d / 2.0
    reports = []
    for r in r_list:
        stacked = np.stack([row[r] for row in rows])
        trajectory = np.median(stacked, axis=0)
        per_rep = [
            _increment_stats(float(s[-2]), float(s[-1]), k_list[-2], k_list[-1])
            for s in stacked
        ]
        rel_inc = float(np.median([p[0] for p in per_rep]))
        slope = float(np.median([p[1] for p in per_rep]))
        classification = _classify(rel_inc, slope)
        predicted = "convergent" if float(r) < threshold_r else "divergent"
        if predicted == "convergent":
            statistic, threshold, direction = rel_inc, CONVERGED_BAND, "lt"
        else:
            statistic, threshold, direction = slope, DIVERGENT_BAND, "ge"
        reports.append(
            TestReport(
                name=f"sobolev[d={d},gamma={gamma},r={r}]",
                statistic=float(statistic),
                threshold=threshold,
                passed=classification == predicted,
                replicates=replicates,
                seed=seed,
                details={
                    "direction": direction,
                    "classification": classification,
                    "predicted": predicted,
                    "r": float(r),
                    "r_threshold": threshold_r,
                    "rel_increment": rel_inc,
                    "loglog_slope": slope,
                    "surrogate": surrogate,
                    "trajectory": [[int(k), float(s)] for k, s in zip(k_list, trajectory)],
                },
                inconclusive=classification == "inconclusive",
            )
        )
    return reports


def continuity_probe(
    d: int,
    gamma: float,
    measure,
    grid_levels,
    replicates: int,
    seed: int,
    *,
    box: HyperBox | None = None,
    eps: float = 0.01,
    policy: str = "gaussianize",
    workers: int = 1,
    override: bool = False,
) -> TestReport:
    """Grid-increment probe of the continuity dichotomy.

    For each dyadic level l the field is truncated to the modes the grid
    can resolve and evaluated on the (2^l + 1)-point tensor grid.  A
    replicate supports continuity when the maximum adjacent increment
    decreases across the two finest levels, and supports blowup when the
    grid sup-norm increases across each of the last two refinements.  The
    probe reports the fraction of replicates supporting the predicted side
    (continuous iff gamma > d/2) against the 0.8 consistency threshold.
    """
    box = box or HyperBox.unit(d)
    if box.dim != d:
        raise ValueError("box dimension disagrees with d")
    levels = sorted(int(l) for l in grid_levels)
    if len(levels) < 3:
        raise ValueError("need at least three grid levels")
    triplet = LevyTriplet(0.0, 0.0, measure)
    verdict = existence_verdict(d, gamma, triplet)
    if not verdict.exists and not override:
        raise RegimeRefusalError(
            f"no mild solution for d={d}, gamma={gamma}; pass override=True"
        )

    l_min = float(np.min(box.lengths))
    lam_caps = [(math.pi * 2**l / l_min) ** 2 for l in levels]
    system = enumerate_eigen(box, lambda_max=lam_caps[-1])
    prefix_sizes = [int(np.searchsorted(system.lams, cap, side="right")) for cap in lam_caps]
    axes_per_level = [
        [np.linspace(a, b, 2**l + 1) for a, b in box.intervals] for l in levels
    ]

    def one(rep: int) -> tuple[bool, bool, np.ndarray, np.ndarray]:
        rep_seed = _rng.replicate_seed(seed, rep)
        realization = sample_noise(box, triplet, eps=eps, policy=policy, master_seed=rep_seed)
        coeffs = pair_eigen(realization, system) / system.lams**gamma
        incs, sups = [], []
        for n_modes, axes in zip(prefix_sizes, axes_per_level):
            fld = SpectralFunction(system.prefix(n_modes), coeffs[:n_modes])
            values = eval_field_grid(fld, axes)
            max_inc = 0.0
            for axis in range(d):
                max_inc = max(max_inc, float(np.max(np.abs(np.diff(values, axis=axis)))))
            incs.append(max_inc)
            sups.append(float(np.max(np.abs(values))))
        # A dead-flat field (zero noise) counts as continuous, not as a tie.
        inc_dec = incs[-1] < incs[-2] or incs[-1] == 0.0
        sup_inc = sups[-1] > sups[-2] > sups[-3]
        return inc_dec, sup_inc, np.asarray(incs), np.asarray(sups)

    rows = run_replicates(one, replicates, workers)
    frac_inc = float(np.mean([row[0] for row in rows]))
    frac_sup = float(np.mean([row[1] for row in rows]))
    med_incs = np.median(np.stack([row[2] for row in rows]), axis=0)
    med_sups = np.median(np.stack([row[3] for row in rows]), axis=0)

    if frac_inc >= 0.8:
        classification = "continuous-consistent"
    elif frac_sup >= 0.8:
        classification = "blowup-consistent"
    else:
        classification = "inconclusive"
    predicted = "continuous-consistent" if gamma > d / 2.0 else "blowup-consistent"
    statistic = frac_inc if predicted == "continuous-consistent" else frac_sup
    return TestReport(
        name=f"continuity[d={d},gamma={gamma}]",
        statistic=statistic,
        threshold=0.8,
        passed=classification == predicted,
        replicates=replicates,
        seed=seed,
        details={
            "direction": "ge",
            "classification": classification,
            "predicted": predicted,
            "fraction_increment_decreasing": frac_inc,
            "fraction_sup_increasing": frac_sup,
            "levels": levels,
            "median_max_increment": [float(v) for v in med_incs],
            "median_sup_norm": [float(v) for v in med_sups],
        },
        inconclusive=classification == "inconclusive",
    )


def spectral_bound_check(box: HyperBox, t_list, x_sample) -> TestReport:
    """Pointwise counting-sum growth check.

    V(t, x) = sum_{lambda_k <= t} e_k(x)^2 should grow like t^(d/2); the
    check fits the log-log slope of V(t, x) / t^(d/2) per sample point and
    passes when every fitted slope stays within +/- 0.1 (no trend).
    """
    t_list = [float(t) for t in t_list]
    if sorted(t_list) != t_list or len(t_list) < 2:
        raise ValueError("t_list must be increasing with at least two entries")
    pts = np.atleast_2d(np.asarray(x_sample, dtype=float))
    d = box.dim
    system = enumerate_eigen(box, lambda_max=t_list[-1])
    esq = eigen_matrix(system, pts) ** 2
    cum = np.cumsum(esq, axis=0)
    v = np.zeros((len(t_list), len(pts)))
    for i, t in enumerate(t_list):
        n_t = int(np.searchsorted(system.lams, t, side="right"))
        if n_t > 0:
            v[i] = cum[n_t - 1]
    ratios = v / np.array(t_list)[:, None] ** (d / 2.0)

    slopes = []
    for j in range(len(pts)):
        mask = v[:, j] > 0.0
        if np.count_nonzero(mask) < 2:
            slopes.append(math.inf)
            continue
        slope = np.polyfit(np.log(np.asarray(t_list)[mask]), np.log(ratios[mask, j]), 1)[0]
        slopes.append(float(slope))
    statistic = float(np.max(np.abs(slopes)))
    return TestReport(
        name="spectral_bound",
        statistic=statistic,
        threshold=0.1,
        passed=statistic <= 0.1,
        replicates=len(pts),
        seed=None,
        details={
            "direction": "le",
            "slopes": slopes,
            "max_ratio": float(np.max(ratios)),
            "t_list": t_list,
            "ratios": [[float(r) for r in row] for row in ratios],
        },
    )
