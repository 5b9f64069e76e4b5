"""Monte Carlo probes of the two uniform large-deviation statements and of
the uniform convergence of shifted noisy paths to their skeletons.

The asymptotic liminf/limsup bounds become finite-epsilon *trend verdicts*:
each cell of the (epsilon, datum, target) grid records the event probability
p-hat with a Wilson interval and the margin pairing eps*ln(p-hat) with the
matching rate quantity; a probe passes when the worst margin over the data
set clears an explicit slack at the smallest epsilon and has trended the
right way along the sweep. Slack and the epsilon ladder persist with every
report.

Probabilities below Monte Carlo resolution (no hits at the given sample
size) are censored: margins then use the Wilson upper bound, and a censored
cell whose interval is compatible with both verdicts makes the report
*indeterminate* rather than failed.

Ball events around a reference path use the full product path norm; set
events for the open/closed probes use the "l2rms" distance (time-RMS L2) of
``skeleton.distance_weights``, the smooth norm ``constrained_rate_minimum``
works in, so measured frequencies and rate constants refer to one geometry.

Every probe runs the same campaign: one ``stochastic.batch_distances`` batch
per (epsilon, cell), a cell being a datum, an optional shift control and its
reference paths; a cell reads only distances and blown paths, so no per-path
norms or summaries are formed. Cell c at epsilon index e draws streams from
(e * n_cells + c) * n_paths on, so no two cells share a path. Blown paths
are counted on the report; a cell where every path blew up raises
``EstimationError``. The fw and dz probes run through ``_probe``: it runs
the campaign, sums the blown paths and passes the per-epsilon cells to the
trend verdict, and each probe supplies only its tally of one epsilon's
distances into records and cell margins. The fw probe and
``estimate_ball_probability`` (d < delta, d >= delta) and the convergence
sweep (not d <= eta) read only indicators at one radius, so they decide each
combined-distance (path, reference) event early through the ``event_radius``
of ``batch_distances``: a decided pair's true distance exceeds the radius by
more than 1e-12 relative, and every other pair keeps its exact distance. The
dz probe (per-set radii) keeps full distances. Uniformity rows are derived
from the fw-lower cells with no extra simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence

import numpy as np

from .grids import DomainError, Field, GridMismatchError
from .grids import EPS_LADDER, NON_NEGATIVE, NON_NEGATIVE_OR_INF, POSITIVE, Range
from .grids import at_least, check_ranges, check_value
from .models import ModelSpec
from .rate import BALL_RADIUS, RateResult, g0_map, level_set_controls, sample_level_set
from .skeleton import Control, TimeGrid, solve_skeleton
from .stochastic import EstimationError, SdeConfig, batch_distances, wilson_interval


class DependencyError(RuntimeError):
    """A required upstream computation (rate value, level set) is missing."""


# how far a worst margin may move the wrong way along the epsilon sweep
# before the trend verdict fails
_TREND_TOL = 0.05


@dataclass(frozen=True)
class LdpExperimentPlan:
    """Shared layout of one Monte Carlo large-deviation campaign.

    ``initial_data`` is a finite sample of the data family the uniform
    statements quantify over. ``delta`` is the path-norm event radius,
    ``s_levels`` the action levels of the level-set probe.
    """

    model: ModelSpec
    initial_data: tuple
    eps_list: tuple
    delta: float
    timegrid: TimeGrid
    s_levels: tuple = ()
    n_paths: int = 400
    slack: float = 0.5
    linf_guard: float = 1.0e6

    RANGES: ClassVar[dict] = {
        "eps_list": EPS_LADDER,
        "delta": POSITIVE,
        "s_levels": Range(
            lambda v: isinstance(v, (list, tuple)) and all(NON_NEGATIVE.ok(s) for s in v),
            "list of floats >= 0",
        ),
        "n_paths": at_least(100),
        "slack": POSITIVE,
        "linf_guard": POSITIVE,
    }

    def __post_init__(self) -> None:
        check_ranges(self)
        object.__setattr__(self, "initial_data", tuple(self.initial_data))
        object.__setattr__(self, "eps_list", tuple(float(e) for e in self.eps_list))
        object.__setattr__(self, "s_levels", tuple(float(s) for s in self.s_levels))
        if not self.initial_data:
            raise DomainError("plan needs at least one initial datum")
        for u0 in self.initial_data:
            if u0.grid != self.model.grid:
                raise GridMismatchError("initial datum grid does not match the model")


@dataclass
class LdpReport:
    """Cell records plus aggregate trend verdicts of one probe run."""

    probe: str
    eps_list: list
    slack: float
    records: list
    lower_margins: list  # worst (min) lower margin per epsilon, [] if unused
    upper_margins: list  # worst (max) upper margin per epsilon, [] if unused
    verdict: str  # "pass" | "fail" | "indeterminate"
    indeterminate_cells: int
    notes: str = ""
    blow_up_count: int = 0  # paths that breached linf_guard, over all cells

    @property
    def passed(self) -> bool:
        return self.verdict != "fail"


def _simulate_cell(model, cfg, n_paths, base_seed, stream_offset, cell, which,
                   event_radius=math.inf):
    """One Monte Carlo cell: (n_paths, n_refs) ``which`` distances and blown-path count.

    ``cell`` is a (datum, shift control or None, references) triple.
    Blown-up paths carry infinite distance; a cell where every path blew up
    has no event frequency to report. A caller that reads only the
    indicators d < r and d >= r passes r as ``event_radius``.
    """
    u0, shift, references = cell
    dists, blown = batch_distances(
        model, u0, cfg, n_paths, base_seed, stream_offset=stream_offset, shift=shift,
        references=references, which=which, event_radius=event_radius,
    )
    if blown == n_paths:
        raise EstimationError(
            f"every path blew up at eps={cfg.epsilon} (streams from {stream_offset})"
        )
    return dists, blown


def _campaign(model, timegrid, eps_list, n_paths, linf_guard, cells, base_seed, which,
              event_radius=math.inf):
    """The epsilon x cell loop shared by every probe.

    ``cells`` lists (datum, shift control or None, references) triples.
    Yields (eps, one distance matrix per cell, blown paths at eps). Cell c
    at epsilon index e draws streams from (e * n_cells + c) * n_paths on, so
    no two cells share a path.
    """
    for e_idx, eps in enumerate(eps_list):
        cfg = SdeConfig(epsilon=eps, timegrid=timegrid, linf_guard=linf_guard)
        results = [
            _simulate_cell(
                model, cfg, n_paths, base_seed, (e_idx * len(cells) + c) * n_paths, cell,
                which, event_radius=event_radius,
            )
            for c, cell in enumerate(cells)
        ]
        yield eps, [dmat for dmat, _ in results], sum(blown for _, blown in results)


def estimate_ball_probability(
    model: ModelSpec,
    u0: Field,
    phi: np.ndarray,
    delta: float,
    epsilon: float,
    n_paths: int,
    base_seed: int,
    timegrid: TimeGrid,
    which: str = "combined",
    side: str = "inside",
    stream_offset: int = 0,
    linf_guard: float = 1.0e6,
):
    """Fraction of simulated paths within (or beyond) delta of a reference.

    Returns (p_hat, (ci_lo, ci_hi)) with a Wilson interval; deterministic
    given ``base_seed``/``stream_offset``. ``side="inside"`` counts
    dist < delta, ``side="outside"`` counts dist >= delta; on one seed the
    two fractions add to exactly 1 (shared paths, complementary events).
    Blown-up paths carry infinite distance, hence never lie inside a ball
    and count as hits on ``side="outside"``.
    """
    check_value("delta", delta, NON_NEGATIVE_OR_INF)
    if side not in ("inside", "outside"):
        raise DomainError(f"side must be 'inside' or 'outside', got {side!r}")
    phi = np.asarray(phi, dtype=float)
    cfg = SdeConfig(epsilon=epsilon, timegrid=timegrid, linf_guard=linf_guard)
    dmat, _ = _simulate_cell(
        model, cfg, n_paths, base_seed, stream_offset, (u0, None, [phi]), which,
        event_radius=delta,
    )
    d = dmat[:, 0]
    hits = int(np.sum(d < delta)) if side == "inside" else int(np.sum(d >= delta))
    return hits / n_paths, wilson_interval(hits, n_paths)


def _event_stats(hits: int, n_paths: int, eps: float) -> dict:
    """p-hat, its Wilson interval and eps*ln(p-hat) for one cell's hit count.

    With no hits the log term is censored at the Wilson upper bound.
    """
    p_hat = hits / n_paths
    lo, hi = wilson_interval(hits, n_paths)
    censored = hits == 0
    return {
        "p_hat": p_hat, "ci_lo": lo, "ci_hi": hi,
        "eps_ln_p": eps * math.log(hi if censored else p_hat), "censored": censored,
    }


def _trend_verdict(
    lower_cells_by_eps: list,
    upper_cells_by_eps: list,
    slack: float,
    upper_trend: bool = True,
):
    """Aggregate per-epsilon cell margins into (worst curves, verdict, n_straddling).

    Lower cells must end >= -slack trending upward (margins climb toward the
    rate comparison from below). Upper cells must end <= slack; when
    ``upper_trend`` is set the worst upper margin must also be non-increasing
    along the sweep (the level-set escape probe starts near s and decays),
    while a threshold-only policy suits probes whose healthy margin rises
    toward zero from below.

    Censored lower margins are optimistic (Wilson upper bound), so a
    lower-probe failure is conclusive however it was estimated, while a pass
    leaning on one is only indeterminate. Censored upper margins are
    conservative: passes through them stand, but when the failing cell is the
    censored one the point estimate may still satisfy the bound, so the run is
    unresolved rather than refuted.
    """
    lower_curve = [min(m for m, _ in cells) for cells in lower_cells_by_eps if cells]
    upper_curve = [max(m for m, _ in cells) for cells in upper_cells_by_eps if cells]
    straddling = 0
    if lower_curve:
        straddling += sum(1 for m, cens in lower_cells_by_eps[-1] if cens and m >= -slack)
    if upper_curve:
        straddling += sum(1 for m, cens in upper_cells_by_eps[-1] if cens and m > slack)

    if lower_curve and (
        lower_curve[-1] < -slack or lower_curve[-1] < lower_curve[0] - _TREND_TOL
    ):
        return lower_curve, upper_curve, "fail", straddling
    upper_bad = upper_curve and upper_curve[-1] > slack
    if upper_trend and upper_curve:
        upper_bad = upper_bad or upper_curve[-1] > upper_curve[0] + _TREND_TOL
    if upper_bad:
        worst_m = max(m for m, _ in upper_cells_by_eps[-1])
        worst_censored = any(
            cens for m, cens in upper_cells_by_eps[-1] if m == worst_m
        )
        verdict = "indeterminate" if worst_censored else "fail"
        return lower_curve, upper_curve, verdict, straddling
    verdict = "indeterminate" if straddling else "pass"
    return lower_curve, upper_curve, verdict, straddling


def _probe(probe, plan, cells, base_seed, which, event_radius, tally, notes, upper_trend=True):
    """Run one probe's campaign and aggregate it into an ``LdpReport``.

    ``tally(eps, dmats)`` turns the distance matrices of one epsilon into
    (records, lower cells, upper cells), a cell being a (margin, censored)
    pair; ``_trend_verdict`` judges the cells and the blown paths of every
    epsilon are summed into the report.
    """
    records, lower_by_eps, upper_by_eps = [], [], []
    blow_up_count = 0
    for eps, dmats, blown in _campaign(
        plan.model, plan.timegrid, plan.eps_list, plan.n_paths, plan.linf_guard, cells,
        base_seed, which, event_radius=event_radius,
    ):
        blow_up_count += blown
        recs, lower, upper = tally(eps, dmats)
        records.extend(recs)
        lower_by_eps.append(lower)
        upper_by_eps.append(upper)
    lower_curve, upper_curve, verdict, straddling = _trend_verdict(
        lower_by_eps, upper_by_eps, plan.slack, upper_trend
    )
    return LdpReport(
        probe=probe, eps_list=list(plan.eps_list), slack=plan.slack, records=records,
        lower_margins=lower_curve, upper_margins=upper_curve, verdict=verdict,
        indeterminate_cells=straddling, notes=notes, blow_up_count=blow_up_count,
    )


def _check_rate_grid(rates, n_data: int, n_targets: int, label: str):
    if rates is None:
        raise DependencyError(f"missing rate results for the {label} probe")
    rates = [list(row) for row in rates]
    if len(rates) != n_data or any(len(row) != n_targets for row in rates):
        raise DependencyError(
            f"{label} rate grid must be {n_data} data x {n_targets} targets"
        )
    for row in rates:
        for r in row:
            if not isinstance(r, RateResult):
                raise DependencyError(f"{label} rate entries must be RateResult instances")
    return rates


def fw_bounds_experiment(
    plan: LdpExperimentPlan,
    controls: Sequence[Control],
    rates: Sequence[Sequence[RateResult]],
    base_seed: int = 0,
    n_level_samples: int = 24,
    level_seed: int = 1,
) -> LdpReport:
    """Finite-epsilon probe of the path-ball lower and level-set upper bounds.

    Lower probe: each control v becomes, per datum, the target path
    G0(u0, v); the margin eps*ln p(dist < delta) + I pairs the measured ball
    frequency with the supplied rate value for that (datum, control) pair.
    Upper probe: per action level s, the distance to a sampled level set (the
    pairing-shared draw across data) yields eps*ln p(dist >= delta) + s.
    The sampled set under-covers the true one, so the measured distance — and
    hence the margin — is biased conservatively upward (noted in the report).

    ``rates`` is indexed [datum][control] and must come from a rate
    computation (the converged minimize_rate result). Its value is an upper
    bound on the rate, and the lower margin eps*ln p + I rises with I, so a
    value above the infimum loosens the lower-probe verdict: against exact
    ball oracles on linear-additive the solver's values sit 0.5-14% high
    (ROADMAP, the rate-solver item).
    """
    controls = list(controls)
    if not controls:
        raise DependencyError("fw probe needs at least one target control")
    rates = _check_rate_grid(rates, len(plan.initial_data), len(controls), "fw lower")
    for row in rates:
        for r in row:
            if not (r.converged and np.isfinite(r.value)):
                raise DependencyError("fw lower probe needs finite converged rate values")
    model = plan.model
    tg = plan.timegrid

    # shared spadework: per datum the target paths G0(u0, v), then per level
    # the sampled level set, paired across data through one control draw
    level_controls = [
        level_set_controls(model, s, n_level_samples, tg, seed=level_seed + k)
        for k, s in enumerate(plan.s_levels)
    ]
    cells = []
    for u0 in plan.initial_data:
        refs = [g0_map(model, u0, v, tg) for v in controls]
        for s, members in zip(plan.s_levels, level_controls):
            refs.extend(sample_level_set(model, u0, s, 0, tg, controls=members).trajectories)
        cells.append((u0, None, refs))
    # level k's members occupy columns bounds[k]:bounds[k + 1]
    bounds = np.cumsum([len(controls)] + [len(m) for m in level_controls])

    def tally(eps, dmats):
        records, lower, upper = [], [], []
        for d_idx, dmat in enumerate(dmats):
            for j in range(len(controls)):
                stats = _event_stats(int(np.sum(dmat[:, j] < plan.delta)), plan.n_paths, eps)
                rate = rates[d_idx][j].value
                margin = stats["eps_ln_p"] + rate
                lower.append((margin, stats["censored"]))
                records.append({
                    "probe": "fw-lower", "eps": eps, "datum": d_idx, "target": f"path-{j}",
                    **stats, "rate": rate, "margin": margin,
                })
            for k, s in enumerate(plan.s_levels):
                set_dist = dmat[:, bounds[k]:bounds[k + 1]].min(axis=1)
                stats = _event_stats(int(np.sum(set_dist >= plan.delta)), plan.n_paths, eps)
                margin = stats["eps_ln_p"] + s
                upper.append((margin, stats["censored"]))
                records.append({
                    "probe": "fw-upper", "eps": eps, "datum": d_idx, "target": f"level-{s:g}",
                    **stats, "rate": s, "margin": margin,
                })
        return records, lower, upper

    return _probe(
        "fw", plan, cells, base_seed, "combined", plan.delta, tally,
        "level-set distances use the finite sampled set (an over-estimate of "
        "the true distance), so upper-probe margins are conservatively inflated",
    )


@dataclass(frozen=True)
class PathSetSpec:
    """A ball (open) or complement-of-ball (closed) event set in path space.

    The geometry is the time-averaged L2 distance to ``reference`` — the norm
    ``constrained_rate_minimum`` works in, so rate constants and event
    frequencies refer to the same sets. ``radius=inf`` makes the open ball the
    whole space.
    """

    name: str
    reference: np.ndarray
    radius: float
    kind: str  # "open-ball" | "closed-complement"

    def __post_init__(self) -> None:
        if self.kind not in ("open-ball", "closed-complement"):
            raise DomainError(f"unknown set kind {self.kind!r}")
        side = "inside" if self.kind == "open-ball" else "outside"
        check_value("radius", self.radius, BALL_RADIUS[side])


def dz_bounds_experiment(
    plan: LdpExperimentPlan,
    sets: Sequence[PathSetSpec],
    set_rates: Sequence[Sequence[RateResult]],
    base_seed: int = 0,
) -> LdpReport:
    """Finite-epsilon probe of the open-set lower / closed-set upper bounds.

    ``set_rates`` is indexed [set][datum] with the constrained rate minimum of
    each set from each datum (value may be +inf when the constrained solve
    found the set unreachable). Per set and epsilon the margin pairs the worst
    event frequency over the data sample with the worst rate constant:
    min-over-data eps*ln p + max-over-data I for open sets (the uniform lower
    bound), max-over-data eps*ln p + min-over-data I for closed ones.
    """
    sets = list(sets)
    if not sets:
        raise DependencyError("dz probe needs at least one event set")
    rates = _check_rate_grid(set_rates, len(sets), len(plan.initial_data), "dz")
    shape = (plan.timegrid.n_steps + 1, *plan.model.grid.shape)
    refs = [np.asarray(spec.reference, dtype=float) for spec in sets]
    for spec, ref in zip(sets, refs):
        if ref.shape != shape:
            raise GridMismatchError(f"set {spec.name!r} reference shape mismatch")

    def tally(eps, dmats):
        records, lower, upper = [], [], []
        for k, spec in enumerate(sets):
            is_open = spec.kind == "open-ball"
            rows = []
            for d_idx, dmat in enumerate(dmats):
                d = dmat[:, k]
                hits = int(np.sum(d < spec.radius if is_open else d >= spec.radius))
                rows.append({
                    "probe": "dz-open" if is_open else "dz-closed",
                    "eps": eps, "datum": d_idx, "target": spec.name,
                    **_event_stats(hits, plan.n_paths, eps), "rate": rates[k][d_idx].value,
                })
            terms = [r["eps_ln_p"] for r in rows]
            rate_vals = [r["rate"] for r in rows]
            censored_any = any(r["censored"] for r in rows)
            if is_open:
                margin = min(terms) + max(rate_vals)
                lower.append((margin, censored_any))
            else:
                margin = max(terms) + min(rate_vals)
                upper.append((margin, censored_any))
            records.extend({**r, "margin": margin} for r in rows)
        return records, lower, upper

    cells = [(u0, None, refs) for u0 in plan.initial_data]
    return _probe(
        "dz", plan, cells, base_seed, "l2rms", math.inf, tally,
        "set events and rate constants share the time-averaged L2 geometry", upper_trend=False,
    )


@dataclass
class UniformityReport:
    """Spread of per-datum margins across the initial-data sample."""

    eps_list: list
    spreads: list  # max - min of per-datum margins at each epsilon
    margins: list  # per epsilon: list of per-datum margins
    warning: Optional[str]
    passed: bool

    def as_rows(self):
        for eps, spread, ms in zip(self.eps_list, self.spreads, self.margins):
            yield {"eps": eps, "spread": spread, "margins": list(ms)}


def uniformity_sweep(report: LdpReport) -> UniformityReport:
    """Spread of the lower-probe margins across initial data, per epsilon.

    The uniform statements assert one epsilon threshold serving the whole
    data family; its desk-scale shadow is that the spread (max - min of
    per-datum margins) stays bounded as epsilon shrinks. Each per-datum
    margin is the min over controls of the fw report's fw-lower cells, so
    the sweep simulates nothing. Pass: the final spread does not exceed the
    initial spread by more than the report's slack. A singleton data set
    makes the sweep vacuous (warning, trivially passed).
    """
    cells = {}
    for rec in report.records:
        if rec["probe"] == "fw-lower":
            cells.setdefault((rec["eps"], rec["datum"]), []).append(rec["margin"])
    if not cells:
        raise DependencyError("uniformity sweep needs the fw-lower cells of an fw report")
    n_data = len({datum for _, datum in cells})
    margins_by_eps = [
        [min(cells[eps, d]) for d in range(n_data)] for eps in report.eps_list
    ]
    spreads = [max(ms) - min(ms) for ms in margins_by_eps]
    warning = None
    if n_data == 1:
        warning = "degenerate: a single initial datum makes uniformity vacuous"
    passed = spreads[-1] <= spreads[0] + report.slack
    return UniformityReport(
        eps_list=list(report.eps_list),
        spreads=spreads,
        margins=margins_by_eps,
        warning=warning,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# convergence of shifted paths to the skeleton (uniformly over data/controls)


@dataclass
class ConvergenceRow:
    epsilon: float
    p_hat: float
    ci_lo: float
    ci_hi: float
    worst_cell: tuple
    exceed_count: int
    n_paths: int


@dataclass
class ConvergenceTable:
    rows: list
    eta: float
    passed: bool
    blow_up_count: int = 0  # paths that breached linf_guard, over all cells

    def as_rows(self):
        for r in self.rows:
            yield {
                "epsilon": r.epsilon,
                "p_hat": r.p_hat,
                "ci_lo": r.ci_lo,
                "ci_hi": r.ci_hi,
                "worst_u0": r.worst_cell[0],
                "worst_control": r.worst_cell[1],
                "exceed_count": r.exceed_count,
                "n_paths": r.n_paths,
            }


def uniform_convergence_experiment(
    model: ModelSpec,
    u0_set: Sequence[Field],
    v_set: Sequence[Control],
    eps_list: Sequence[float],
    eta: float,
    n_paths: int,
    base_seed: int,
) -> ConvergenceTable:
    """Estimate p(eps) = max over (u0, v) cells of P(||u^eps_v - u_v|| > eta).

    The distance is the combined path norm to the cell's skeleton solution;
    the cells are the (u0, v) pairs in row-major order, each simulated with
    the shift v. Pass verdict: p_hat non-increasing along the (decreasing)
    eps_list within CI slack, and the smallest-eps estimate CI-separated
    below the largest-eps one.
    """
    if not u0_set or not v_set:
        raise DomainError("u0_set and v_set must be non-empty")
    eps_arr = [float(e) for e in eps_list]
    check_value("eps_list", eps_arr, EPS_LADDER)
    check_value("eta", eta, POSITIVE)

    cells = [(u0, v, [solve_skeleton(model, u0, v).trajectory]) for u0 in u0_set for v in v_set]
    rows = []
    blow_up_count = 0
    for eps, dmats, blown in _campaign(
        model, v_set[0].timegrid, eps_arr, n_paths, SdeConfig.linf_guard, cells, base_seed,
        "combined", event_radius=eta,
    ):
        blow_up_count += blown
        exceed = [int(np.sum(~(dmat[:, 0] <= eta))) for dmat in dmats]
        worst = int(np.argmax(exceed))  # the first cell with the most exceedances
        lo, hi = wilson_interval(exceed[worst], n_paths)
        rows.append(
            ConvergenceRow(
                epsilon=eps, p_hat=exceed[worst] / n_paths, ci_lo=lo, ci_hi=hi,
                worst_cell=divmod(worst, len(v_set)), exceed_count=exceed[worst],
                n_paths=n_paths,
            )
        )

    trend_ok = all(
        rows[k + 1].ci_lo <= rows[k].ci_hi + 1e-12 for k in range(len(rows) - 1)
    )
    separated = rows[-1].ci_hi < rows[0].ci_lo
    return ConvergenceTable(
        rows=rows, eta=eta, passed=trend_ok and separated, blow_up_count=blow_up_count
    )
