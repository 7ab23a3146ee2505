"""Monte Carlo and deterministic verification of the solver's guarantees.

Every check produces a ``TestReport`` that is reproducible bit-for-bit from
its name, seed and parameters.  Divergence can never be proven by a finite
computation, so trajectory-based checks classify into three honest
outcomes: convergent, divergent, or inconclusive when the replicates do
not settle it (for the Sobolev sweep, a 95 % interval of the median
growth exponent that holds 0).  Inconclusive reports are flagged, not
failed.

Replicate-level parallelism derives one seed per replicate from the master
seed, and reductions run in a fixed order after collection, so results do
not depend on the worker count.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from . import _rng
from .domain import (
    CHUNK_CELLS,
    EigenSystem,
    HyperBox,
    block_cells,
    check_grid,
    eigen_matrix,
    enumerate_eigen,
    gauss_rule,
    listing_blocks,
    resolving_gauss_rule,
    resolving_nodes,
    tensor_points,
)
from .functions import Constant, Indicator, SpectralFunction, integral
from .integrability import rr_integrability
from .measures import band_variance, characteristic_exponent
from .noise import NoiseLaw, jump_sums, pair_eigen_blocks, pair_with_function, pairing_batch, replicate_noise
from .solver import eval_field_grid, green_convolve, refuse_outside_regime, solve_mild

@dataclass
class TestReport:
    """One verification outcome: statistic against a threshold.

    A threshold check passes when statistic <= threshold.  A classifying
    check (``sobolev_sweep``, ``continuity_probe``) passes when its
    ``details["classification"]`` equals ``details["predicted"]``; its
    statistic is the one of the predicted side, read against the threshold
    in ``details["direction"]``, so it meets the threshold in every pass but
    can meet it in a failure too (a predicted blowup whose increments also
    fall is classified continuous).
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
    # Imported here: concurrent.futures also imports logging, 5-10 ms at
    # every start of the CLI, and only a threaded run needs it.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n)))


def check_m(m: int) -> None:
    """A Monte Carlo batch of m replicates needs m >= 1000."""
    if m < 1000:
        raise ValueError(f"m below 1000 has no statistical power, got {m}")


def _cf_exponents(triplet, f, box: HyperBox, u_grid) -> list[complex]:
    """int_D Psi(u f(x)) dx at each u: in closed form for a constant or an
    indicator, else in one walk over a tensor Gauss rule that refuses an f
    not finite at one of its nodes.  A chunk of at most ``CHUNK_CELLS``
    values holds its nodes' points, f there and one u's Psi; each chunk
    adds w . Re Psi and w . Im Psi for each u, so a rule of one chunk
    reads the whole rule's dot products bit for bit."""
    if isinstance(f, Constant | Indicator):
        # f is one value on a set and 0 off it, where Psi(0) = 0: the set's measure times Psi(u value).
        value, measure = (float(f.value), box.volume) if isinstance(f, Constant) else (1.0, integral(f, box))
        return [complex(characteristic_exponent(triplet, u * value)) * measure for u in u_grid]
    spectral = isinstance(f, SpectralFunction) and f.system.box == box
    axes, w = gauss_rule(box, resolving_nodes(f.system) if spectral else 64 if box.dim <= 2 else 16)
    shape = [len(a) for a in axes]
    step = CHUNK_CELLS // (box.dim + 4)  # a node's coordinates, f, u f and Psi's two parts
    sums, non_finite = None, 0
    for lo in range(0, w.size, step):
        hi = min(lo + step, w.size)
        points = np.stack([a[i] for a, i in zip(axes, np.unravel_index(np.arange(lo, hi), shape))], axis=-1)
        with np.errstate(over="ignore", invalid="ignore"):
            fvals = f.evaluate(points)
        non_finite += int(np.count_nonzero(~np.isfinite(fvals)))
        if non_finite:
            continue  # the rule is refused below; count the rest of its nodes
        part = np.empty((len(u_grid), 2))
        for row, u in zip(part, u_grid):
            vals = characteristic_exponent(triplet, u * fvals)
            row[:] = np.dot(w[lo:hi], vals.real), np.dot(w[lo:hi], vals.imag)
        sums = part if sums is None else sums + part
    if non_finite:
        raise ValueError(
            f"integrand is not finite at {non_finite} of the {w.size} Gauss nodes of the CF test; CF test undefined"
        )
    return [complex(re, im) for re, im in sums]


def empirical_cf_test(law: NoiseLaw, f, u_grid, m: int, seed: int) -> TestReport:
    """Empirical characteristic function of <noise, f> against its law.

    Target: exp(int_D Psi(u f(x)) dx), computed for every u before any
    draw: in closed form for a constant or an indicator, else by a tensor
    Gauss rule at whose nodes f must be finite: for an eigen-expansion on
    D the rule that resolves its own highest mode (``resolving_nodes`` an
    axis), for other kinds 64 nodes an axis, 16 at d >= 3.  ``gauss_rule``
    refuses a rule of more than ``domain.MAX_GRID_VALUES`` nodes before it
    is built, and the rule is walked in chunks of at most
    ``domain.CHUNK_CELLS`` values, so the check's memory does not grow with
    it.  Samples: ``noise.pairing_batch``, which reads the Gaussian part's
    variance from int f^2 in closed form, so no eigen listing enters the
    check.  Statistic: max_u |empirical CF - target|; threshold 4/sqrt(m),
    the conservative envelope for bounded complex averages.
    """
    check_m(m)
    box, triplet = law.box, law.triplet
    report = rr_integrability(f, triplet, box)
    if not report.verdict:
        raise ValueError("integrand is not noise-integrable; CF test undefined")

    u_grid = [float(u) for u in u_grid]
    exponents = _cf_exponents(triplet, f, box, u_grid)
    x = pairing_batch(law, f, m, seed)
    stats, detail_rows = [], []
    for u, exponent in zip(u_grid, exponents):
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
        details={"direction": "le", "grid": detail_rows},
    )


def isometry_test(law: NoiseLaw, f, m: int, seed: int, *, band_high: float = 1.0) -> TestReport:
    """Variance identity for the compensated jump integral on a band.

    On {eps < |z| <= band_high} the integral of f z against the compensated
    jump measure has variance int f^2 dy * int_band z^2 nu(dz) exactly; for
    symmetric measures the compensator vanishes, so the raw atom sum is the
    simulable equivalent.  Statistic: |empirical/exact - 1|, threshold 0.05
    sized for m = 1e5.
    """
    check_m(m)
    box, eps = law.box, law.eps
    f_square = integral(f, box, 2)
    if not math.isfinite(f_square):
        raise ValueError("integrand is not square-integrable; isometry test undefined")
    exact = f_square * band_variance(law.triplet.measure, eps, band_high)
    if exact == 0.0:
        statistic, replicates, details = 0.0, 0, {"skipped": "zero exact variance on the band"}
    else:
        empirical = float(np.var(jump_sums(law, f, m, _rng.stream(seed, _rng.BATCH_STREAM), band_high)))
        statistic, replicates = abs(empirical / exact - 1.0), m
        details = {"exact_variance": exact, "empirical_variance": empirical, "band": [eps, band_high]}
    return TestReport(
        name="isometry_band",
        statistic=statistic,
        threshold=0.05,
        passed=statistic <= 0.05,
        replicates=replicates,
        seed=seed,
        details={"direction": "le", **details},
        inconclusive=exact == 0.0,
    )


def check_weak_phi(phi) -> None:
    """Refuse an indicator phi: the weak test's Gauss rule cannot resolve its jump at the faces."""
    if isinstance(phi, Indicator):
        raise ValueError("phi must be continuous on the box, not an indicator")


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
    phi must be continuous on the box: the resolving Gauss rule cannot
    resolve a jump, such as an indicator's at its faces.  The rule is built
    before the solve, so a rule over ``gauss_rule``'s caps is refused before
    any mode is paired, and ahead of the regime gate when both refuse.
    """
    check_weak_phi(phi)
    axes, w = resolving_gauss_rule(system)
    u = solve_mild(realization, gamma, system, override=override)
    uvals = eval_field_grid(u, axes).ravel()
    lhs = float(np.dot(w, uvals * phi.evaluate(tensor_points(axes))))
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


def _increment_stats(s_prev: float, s_last: float):
    """Relative increment and log2 slope of a trajectory over its last doubling."""
    if s_last <= 0.0:
        return 0.0, 0.0
    rel_inc = (s_last - s_prev) / s_last
    slope = math.log2(s_last / s_prev) if s_prev > 0.0 else math.inf
    return rel_inc, slope


def median_rank(n: int) -> int:
    """The rank j of the distribution-free interval [X_(j), X_(n+1-j)] of the
    median of n samples at 95 % coverage: the largest j whose coverage
    1 - 2 P(Bin(n, 1/2) < j) is at least 0.95, else 1 ([min, max], up to 8
    samples).  It is 6 at n = 20."""
    # Rank j + 1 covers at least 95 % iff 2 P(Bin(n, 1/2) <= j) <= 0.05: 40 tail <= 2^n in integers.
    j, tail = 1, 1 + n
    while 2 * j < n and 40 * tail <= 2**n:
        j += 1
        tail += math.comb(n, j)
    return j


def doubling_slopes(norms: np.ndarray, k_list) -> np.ndarray:
    """Least-squares slope of log(increment over each doubling) against log K,
    along the last axis of the partial sums ``norms`` at the cutoffs ``k_list``.
    A trajectory that never grows (all increments 0) reads -inf."""
    x = np.log(np.asarray(k_list[:-1], dtype=float))
    x -= x.mean()
    increments = np.diff(norms, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = np.log(increments) @ (x / (x @ x))
    slopes[np.all(increments == 0.0, axis=-1)] = -math.inf
    return slopes


def check_k_list(k_list) -> list[int]:
    """The sweep's cutoffs as integers: at least 3, the first at least 1, each
    twice the one before, since the slope of the increments over doublings is
    fit on equal ratios of K."""
    k_list = [int(k) for k in k_list]
    if len(k_list) < 3:
        raise ValueError("need at least 3 cutoffs")
    if k_list[0] < 1:
        raise ValueError(f"cutoffs must be at least 1, got {k_list[0]}")
    if any(b != 2 * a for a, b in zip(k_list, k_list[1:])):
        raise ValueError("each cutoff must be twice the one before")
    return k_list


def check_random_part(law: NoiseLaw) -> None:
    """A sweep's law must draw something random: a Gaussian part or jumps above eps."""
    if law.gaussian_variance == 0.0 and law.triplet.measure.tail_mass(law.eps) == 0.0:
        raise ValueError(f"the law has nothing random: no Gaussian part and no jumps above eps={law.eps}")


def check_replicates(replicates: int) -> None:
    """A sweep needs at least one replicate."""
    if replicates < 1:
        raise ValueError(f"need at least one replicate, got {replicates}")


def check_r_list(r_list) -> None:
    """The sweep's Sobolev orders, in any order, must be distinct."""
    if len(set(r_list)) != len(r_list):
        raise ValueError("orders must be distinct")


def sobolev_sweep(
    law: NoiseLaw,
    gamma: float,
    r_list,
    k_list,
    replicates: int,
    seed: int,
    *,
    workers: int = 1,
    surrogate: bool = False,
    override: bool = False,
) -> list[TestReport]:
    """Norm-trajectory classification against the regularity ceiling.

    For each order r, builds per-replicate trajectories K -> partial
    squared norm at the cutoffs of ``k_list``, each twice the one before
    (``check_k_list``).  The increment over a doubling K -> 2K scales like
    K^s with s = (2/d)(r - r_max), so each replicate fits s as the slope of
    log(increment) against log K (``doubling_slopes``).  The statistic is
    the median s against the threshold 0, and its distribution-free
    order-statistic interval at 95 % coverage (``median_rank``: [min, max]
    up to 8 replicates, the 6th to 15th of 20) decides: convergent when it
    lies below 0, divergent when it lies above 0, inconclusive otherwise.
    The details hold that interval, r_max_hat = r - (d/2) s, the
    pointwise-median trajectory for plotting, and the medians of the
    last doubling's relative increment and log2 slope.  The prediction
    under test: convergent iff r < r_max = 2 gamma - d/2, read from the
    existence verdict.

    A replicate walks the listing one block of ``domain.listing_blocks``
    (about BLOCK_MODES modes) at a time, and each worker holds one block's
    arrays, made at its first replicate and reused by every later one: the
    coefficients and one term of ``noise.pair_eigen_blocks``, the
    eigenvalues (``EigenSystem.block``) and the weights lambda_k^(r - 2
    gamma), one row an order.  Besides them a replicate holds its atoms'
    factors: the offset factors of a sorted listing at d = 1 whose atoms fit
    one chunk of points, else the dense grid of modes that its atoms sum
    into, about K values.  At d = 1 the listing is held as K alone
    (``domain.enumerate_eigen``), so with atoms that fit one chunk nothing
    the sweep holds grows with K but those factors, about sqrt(K) values an
    atom; at d >= 2 the listing is two K-sized arrays.  Each block is
    squared in place and adds one product with its weights into the sum of
    every segment between cutoffs that it overlaps, so a segment's sum is
    added block by block.

    ``surrogate`` replaces the noise coefficients by the deterministic
    decay lambda_k^(-gamma), which turns the sweep into an exact check of
    the analytic boundary.  Those are the coefficients of unit white noise
    in the mean, so it reads the ceiling of the law with a unit Gaussian
    part, which is white noise's, even where the law has no random part.
    """
    d = law.box.dim
    k_list = check_k_list(k_list)
    check_r_list(r_list)
    check_replicates(replicates)
    if not surrogate:
        check_random_part(law)
    triplet = replace(law.triplet, sigma=1.0) if surrogate else law.triplet
    threshold_r = refuse_outside_regime(d, gamma, triplet, override).r_max

    system = enumerate_eigen(law.box, count=k_list[-1])
    exponents = [float(r) - 2.0 * gamma for r in r_list]
    cuts = [0, *k_list]
    segments = list(zip(cuts, cuts[1:]))
    blocks = listing_blocks(system)  # builds the kernel layout here, once, for every worker to share
    local = threading.local()

    def work() -> np.ndarray:
        # A worker's block arrays, made at its first replicate and reused by every later one: the
        # two rows of ``pair_eigen_blocks``, the block's eigenvalues, and its weights, a row an order.
        if not hasattr(local, "work"):
            local.work = np.empty((3 + len(exponents), block_cells(system)))
        return local.work

    def partial_norms(coefficients, buffers: np.ndarray) -> np.ndarray:
        # Row r: sum_{k < K} lambda_k^(r - 2 gamma) c_k^2 at each K of k_list,
        # summed per segment between cutoffs, then a cumsum over the segments.
        sums = np.zeros((len(segments), len(r_list)))
        lams, weights = buffers[0], buffers[1:]
        for part, c in coefficients:
            np.square(c, out=c)
            system.block(part).eigenvalues(lams[: len(c)])
            for i, exponent in enumerate(exponents):
                np.power(lams[: len(c)], exponent, out=weights[i, : len(c)])
            for sums_of, (lo, hi) in zip(sums, segments):
                lo, hi = max(lo, part.start) - part.start, min(hi, part.stop) - part.start
                if lo < hi:
                    sums_of += weights[:, lo:hi] @ c[lo:hi]
            del c  # hold no block while the next one is made
        return np.cumsum(sums, axis=0).T

    if surrogate:
        replicates = 1

        def one(_rep: int) -> np.ndarray:
            return partial_norms(((part, np.ones(part.stop - part.start)) for part in blocks), work()[2:])

    else:

        def one(rep: int) -> np.ndarray:
            buffers = work()
            return partial_norms(pair_eigen_blocks(replicate_noise(law, seed, rep), system, buffers[:2]), buffers[2:])

    norms = np.stack(run_replicates(one, replicates, workers))  # (replicates x orders x cutoffs)
    trajectories = np.median(norms, axis=0)
    slopes = np.sort(doubling_slopes(norms, k_list), axis=0)  # (replicates x orders), each column sorted
    rank = median_rank(replicates)
    reports = []
    for i, r in enumerate(r_list):
        s, lo, hi = float(np.median(slopes[:, i])), float(slopes[rank - 1, i]), float(slopes[-rank, i])
        classification = "convergent" if hi < 0.0 else "divergent" if lo > 0.0 else "inconclusive"
        predicted = "convergent" if float(r) < threshold_r else "divergent"
        last = [_increment_stats(float(n[-2]), float(n[-1])) for n in norms[:, i]]
        reports.append(
            TestReport(
                name=f"sobolev[d={d},gamma={gamma},r={r}]",
                statistic=s,
                threshold=0.0,
                passed=classification == predicted,
                replicates=replicates,
                seed=seed,
                details={
                    "direction": "lt" if predicted == "convergent" else "gt",
                    "classification": classification,
                    "predicted": predicted,
                    "r": float(r),
                    "eps": float(law.eps),
                    "r_threshold": threshold_r,
                    "interval": [lo, hi],
                    "r_max_hat": float(r) - 0.5 * d * s,
                    "rel_increment": float(np.median([p[0] for p in last])),
                    "loglog_slope": float(np.median([p[1] for p in last])),
                    "surrogate": surrogate,
                    "trajectory": [[int(k), float(t)] for k, t in zip(k_list, trajectories[i])],
                },
                inconclusive=classification == "inconclusive",
            )
        )
    return reports


def check_grid_levels(grid_levels, dim: int | None = None) -> list[int]:
    """The probe's dyadic levels as sorted integers: at least 3, distinct, each
    at least 1 (level 0 is a grid of boundary points only), and, given the
    dimension, the finest grid within ``check_grid``'s cap."""
    levels = sorted(int(l) for l in grid_levels)
    if len(levels) < 3:
        raise ValueError("need at least 3 grid levels")
    if levels[0] < 1:
        raise ValueError(f"levels must be >= 1, got {levels[0]}")
    if len(set(levels)) != len(levels):
        raise ValueError("levels must be distinct")
    if dim is not None:
        check_grid([2 ** min(levels[-1], 32) + 1] * dim)  # a level past 32 is over the cap anyway
    return levels


def continuity_probe(
    law: NoiseLaw,
    gamma: float,
    grid_levels,
    replicates: int,
    seed: int,
    *,
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
    (the existence verdict's continuity flag) against the 0.8 consistency
    threshold.
    """
    box = law.box
    d = box.dim
    levels = check_grid_levels(grid_levels, d)
    check_replicates(replicates)
    check_random_part(law)
    continuous = refuse_outside_regime(d, gamma, law.triplet, override).continuous

    l_min = float(np.min(box.lengths))
    lam_caps = [(math.pi * 2**l / l_min) ** 2 for l in levels]
    system = enumerate_eigen(box, lambda_max=lam_caps[-1])
    # One system a level, so every replicate shares its kernel layout.
    prefixes = [system.prefix(int(np.searchsorted(system.lams, cap, side="right"))) for cap in lam_caps]
    axes_per_level = [
        [np.linspace(a, b, 2**l + 1) for a, b in box.intervals] for l in levels
    ]

    def one(rep: int) -> np.ndarray:
        # The replicate's two ladders, one value a level: the max adjacent increment and the sup.
        coeffs = solve_mild(replicate_noise(law, seed, rep), gamma, system, override=override).coeffs
        ladders = np.empty((2, len(levels)))
        for level, prefix, axes in zip(ladders.T, prefixes, axes_per_level):
            values = eval_field_grid(SpectralFunction(prefix, coeffs[: len(prefix)]), axes)
            max_inc = max(float(np.max(np.abs(np.diff(values, axis=axis)))) for axis in range(d))
            level[:] = max_inc, np.max(np.abs(values))
        return ladders

    # (replicates x levels) each.
    incs, sups = np.stack(run_replicates(one, replicates, workers), axis=1)
    # A dead-flat field (zero noise) counts as continuous, not as a tie.
    frac_inc = float(np.mean((incs[:, -1] < incs[:, -2]) | (incs[:, -1] == 0.0)))
    frac_sup = float(np.mean((sups[:, -1] > sups[:, -2]) & (sups[:, -2] > sups[:, -3])))
    med_incs, med_sups = np.median(incs, axis=0), np.median(sups, axis=0)

    if frac_inc >= 0.8:
        classification = "continuous-consistent"
    elif frac_sup >= 0.8:
        classification = "blowup-consistent"
    else:
        classification = "inconclusive"
    predicted = "continuous-consistent" if continuous else "blowup-consistent"
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


def check_t_list(t_list) -> list[float]:
    """The check's counting levels as floats: at least 2, positive, strictly increasing."""
    t_list = [float(t) for t in t_list]
    if len(t_list) < 2:
        raise ValueError("need at least 2 levels")
    if not t_list[0] > 0.0:
        raise ValueError("levels must be positive")
    if not all(a < b for a, b in zip(t_list, t_list[1:])):
        raise ValueError("levels must be strictly increasing")
    return t_list


def spectral_bound_check(box: HyperBox, t_list, x_sample) -> TestReport:
    """Pointwise counting-sum growth check.

    V(t, x) = sum_{lambda_k <= t} e_k(x)^2 should grow like t^(d/2); the
    check fits the log-log slope of V(t, x) / t^(d/2) per sample point and
    passes when every fitted slope stays within +/- 0.1 (no trend).
    """
    t_list = check_t_list(t_list)
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
