"""Quadrature engines: closed forms, oracles, error-estimate honesty."""

import math
import re

import numpy as np
import pytest

import flatzeta.quad as quad
from flatzeta.errors import DomainError, NonConvergence
from flatzeta.quad import (
    _BLOCK_CELLS,
    EndpointSpec,
    _tanh_sinh,
    integrate_1d,
)

# Closed-form battery reused by several checks: (f, lo, hi, spec, exact)
CLOSED_FORMS = [
    (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, EndpointSpec(exponent_lo=-0.5), 2.0),
    (lambda x: np.ones_like(x), 0.0, 1.0, None, 1.0),
    (lambda x: np.sin(x), 0.0, math.pi, None, 2.0),
    (lambda x: np.log(x), 0.0, 1.0, None, -1.0),
    (lambda x: x**-0.75, 0.0, 1.0, EndpointSpec(exponent_lo=-0.75), 4.0),
    (lambda x: x**-0.25, 0.0, 1.0, EndpointSpec(exponent_lo=-0.25), 4.0 / 3.0),
    (lambda x: np.exp(x), -1.0, 2.0, None, math.exp(2.0) - math.exp(-1.0)),
]


def test_integrate_1d_closed_forms():
    for f, lo, hi, spec, exact in CLOSED_FORMS:
        r = integrate_1d(f, lo, hi, spec)
        assert r.value == pytest.approx(exact, rel=1e-12)
        assert r.abs_error_estimate >= 0.0
        assert r.evaluations > 0


def test_integrate_1d_mixed_singularity_vs_midpoint_oracle():
    # f = x^(-1/4) (1 - e^(-1/(2x))) on (0,1); the oracle substitutes x = t^4
    # and applies a 1e6-panel midpoint rule, which removes the singularity.
    def f(x):
        return x**-0.25 * (-np.expm1(-1.0 / (2.0 * x)))

    N = 1_000_000
    t = (np.arange(N) + 0.5) / N
    oracle = float(np.sum(4.0 * t**3 * f(t**4))) / N
    frozen = 0.9658853793239357
    assert oracle == pytest.approx(frozen, abs=5e-12)
    r = integrate_1d(f, 0.0, 1.0, EndpointSpec(exponent_lo=-0.25))
    assert r.value == pytest.approx(oracle, abs=1e-6)
    assert r.value == pytest.approx(frozen, rel=1e-11)


def test_integrate_1d_rejections(monkeypatch):
    with pytest.raises(DomainError):
        integrate_1d(lambda x: x, 1.0, 0.0)
    with pytest.raises(DomainError):
        EndpointSpec(exponent_lo=-1.0)
    for bad in (math.nan, np.array([0.0, math.nan])):     # NaN would give error nan
        with pytest.raises(DomainError):
            integrate_1d(lambda x: x, 0.0, 1.0, EndpointSpec(exponent_lo=bad))
    for tol in (math.nan, 0.0, -1e-10):     # NaN would report error 0.0
        with pytest.raises(DomainError):
            integrate_1d(lambda x: x, 0.0, 1.0, tol=tol)
    monkeypatch.setattr(quad, "MAX_LEVELS", 5)
    with pytest.raises(NonConvergence), np.errstate(over="ignore", invalid="ignore"):
        # wildly oscillatory at 0: the engine must not return silently
        integrate_1d(lambda x: np.sin(1e6 / x) / x, 0.0, 1.0, tol=1e-13)


def test_monotone_refinement():
    # halving tol never worsens the true error on the closed-form battery
    for f, lo, hi, spec, exact in CLOSED_FORMS:
        errs = []
        for tol in (1e-4, 1e-8, 1e-12):
            r = integrate_1d(f, lo, hi, spec, tol=tol)
            errs.append(abs(r.value - exact))
        assert errs[2] <= errs[0] * (1.0 + 1e-12) + 1e-15


def test_error_estimate_honesty():
    # true error <= 10x estimate in at least 95% of the battery runs
    good = 0
    total = 0
    for f, lo, hi, spec, exact in CLOSED_FORMS:
        for tol in (1e-6, 1e-9, 1e-12):
            r = integrate_1d(f, lo, hi, spec, tol=tol)
            total += 1
            if abs(r.value - exact) <= 10.0 * r.abs_error_estimate + 1e-15:
                good += 1
    assert good / total >= 0.95


EPS = np.finfo(float).eps

# Four integrands sharing the x^(-1/2) endpoint at 0; on (0, h) the first
# and third integrate to 2 sqrt(h) and 2 sqrt(h) (log(h)^2 - 4 log(h) + 8).
SPEC = EndpointSpec(exponent_lo=-0.5)


def _integrands(x):
    r = x**-0.5
    return np.stack([r, r * np.exp(x), r * np.log(x) ** 2, r * np.cos(3.0 * x)], axis=-1)


def _vector(xs, cols):
    """The (n, m) values of the components cols on the column xs."""
    return _integrands(xs[:, 0])[:, cols]


def _smooth(x):
    """Four integrands smooth up to both ends of (0, 2)."""
    return np.stack([np.exp(x), np.cos(3.0 * x) + 2.0, 1.0 / (1.0 + x * x), np.sqrt(1.0 + x)],
                    axis=-1)


def _alone(f, lo, hi, tol, spec=None):
    """A call on f(xs) -> (n,) as its only component: (value, error,
    evaluations) as floats and an int."""
    (v,), (e,), ev = _tanh_sinh(lambda xs, cols: f(xs[:, 0])[:, None], lo, hi, tol, spec, k=1)
    return float(v), float(e), ev


def test_tanh_sinh_vector_matches_k1_calls():
    # each component retires where a call on it alone stops, and its sums
    # run apart from the others', so it returns that call's value and error
    # bit for bit; only the components still refining are evaluated and
    # counted
    for hi in (1.0, 2.0, 3.0):
        lh = math.log(hi)
        for tol in (1e-6, 1e-10, 1e-13):
            values, errors, evals = _tanh_sinh(_vector, 0.0, hi, tol, SPEC, k=4)
            assert values.shape == errors.shape == (4,)
            total = 0
            for c in range(4):
                v, e, ev = _alone(lambda x: _integrands(x)[:, c], 0.0, hi, tol, SPEC)
                assert (values[c], errors[c]) == (v, e)
                total += ev
            assert evals == total
            if tol == 1e-13:
                exact = [2.0 * math.sqrt(hi), 2.0 * math.sqrt(hi) * (lh**2 - 4.0 * lh + 8.0)]
                assert values[[0, 2]] == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("betas", [(-0.5, -0.25, 0.0), (0.0, -0.5, -0.98)])
def test_tanh_sinh_per_component_exponents(betas):
    # x^beta_c with its own declared exponent per component: each component
    # gets its lone call's endpoint remainder and error bar; at -0.98 the
    # mass below the deepest node is 1e-4 of the value, and only the
    # remainder with that component's own exponent covers it
    betas = np.array(betas)

    def f(xs, cols):
        return xs ** betas[cols]

    values, errors, evals = _tanh_sinh(f, 0.0, 1.0, 1e-10, EndpointSpec(exponent_lo=betas), k=3)
    total = 0
    for c, beta in enumerate(betas):
        v, e, ev = _alone(lambda x: x ** beta, 0.0, 1.0, 1e-10,
                          EndpointSpec(exponent_lo=float(beta)))
        assert (values[c], errors[c]) == (v, e)
        assert abs(v - 1.0 / (1.0 + beta)) <= e
        total += ev
    assert evals == total
    with pytest.raises(DomainError):
        EndpointSpec(exponent_lo=np.array([-0.5, -1.0]))


def test_tanh_sinh_interval_without_nodes():
    # too narrow to hold a node: every level is empty, and each component
    # gets (0, 0) with no evaluation
    hi = math.nextafter(1.0, 2.0)
    r = integrate_1d(lambda x: np.ones_like(x), 1.0, hi)
    assert (r.value, r.abs_error_estimate, r.evaluations) == (0.0, 0.0, 0)
    values, errors, evals = _tanh_sinh(lambda xs, cols: np.ones((xs.shape[0], cols.size)),
                                       1.0, hi, 1e-10, k=2)
    assert values.tolist() == [0.0, 0.0] and errors.tolist() == [0.0, 0.0] and evals == 0


@pytest.mark.parametrize("ends", [EndpointSpec(), None], ids=["declared", "regular"])
def test_tanh_sinh_no_components(ends):
    # k = 0: empty values and errors, no evaluation and no integrand call
    def f(xs, cols):
        raise AssertionError("the integrand was called")

    values, errors, evals = _tanh_sinh(f, 0.0, 1.0, 1e-10, ends, k=0)
    assert values.shape == errors.shape == (0,) and evals == 0


def test_tanh_sinh_vector_wide_levels_in_blocks():
    # 1024 components: f gets blocks of at most _BLOCK_CELLS values, and
    # every component still returns its lone call's result bit for bit
    for hi in (1.0, 2.0, 3.0):
        for tol in (1e-6, 1e-10, 1e-13):
            cells = []

            def f(xs, cols):
                cells.append(xs.shape[0] * len(cols))
                return _vector(xs, cols % 4)

            values, errors, evals = _tanh_sinh(f, 0.0, hi, tol, SPEC, k=1024)
            assert max(cells) > _BLOCK_CELLS // 2 and max(cells) <= _BLOCK_CELLS
            total = 0
            for c in range(4):
                v, e, ev = _alone(lambda x: _integrands(x)[:, c], 0.0, hi, tol, SPEC)
                assert values[c::4].tolist() == [v] * 256
                assert errors[c::4].tolist() == [e] * 256
                total += 256 * ev
            assert evals == total


# six integrands on (0, 1) with the declared exponents BETAS_6; 0 and 2
# overflow to inf below an offset of 1e-200, where those nodes are dropped,
# and 1 oscillates, refining to level 7 at tol 1e-12
BETAS_6 = np.array([-0.5, 0.0, -0.75, -0.5, 0.0, -0.75])


def _six(x):
    with np.errstate(divide="ignore"):
        return np.stack([np.where(x < 1e-200, np.inf, x**-0.5), np.sin(200.0 * x) + 2.0,
                         np.where(x < 1e-200, np.inf, x**-0.75 * (1.0 + x)),
                         x**-0.5 * np.cos(3.0 * x), np.log(x) ** 2, x**-0.75], axis=-1)


def test_tanh_sinh_wide_call_with_exponents_and_dropped_nodes_matches_lone_calls():
    # 1200 components in blocks, each with its own declared exponent, some
    # dropping overflowing nodes next to lo: each one's value and error, and
    # the evaluations, equal those of its lone call bit for bit.  Levels 0-4,
    # 5, 6 and 7 are each split into blocks
    blocks = {}      # nodes of each refinement step -> its blocks of components

    def f(xs, cols):
        blocks.setdefault((xs.shape[0], float(xs[0, 0])), []).append(cols.size)
        return _six(xs[:, 0])[:, cols % 6]

    k = 1200
    values, errors, evals = _tanh_sinh(f, 0.0, 1.0, 1e-12,
                                       EndpointSpec(exponent_lo=BETAS_6[np.arange(k) % 6]), k=k)
    assert len(blocks) >= 3 and all(len(sizes) > 1 for sizes in blocks.values())
    total = 0
    for c, beta in enumerate(BETAS_6):
        v, e, ev = _alone(lambda x: _six(x)[:, c], 0.0, 1.0, 1e-12,
                          EndpointSpec(exponent_lo=float(beta)))
        assert values[c::6].tolist() == [v] * (k // 6)
        assert errors[c::6].tolist() == [e] * (k // 6)
        total += k // 6 * ev
    assert evals == total
    assert values[0] == pytest.approx(2.0, rel=1e-9)


def test_tanh_sinh_vector_evaluates_active_components_only():
    seen = []

    def f(xs, cols):
        seen.append(cols.copy())
        return np.stack([np.ones(xs.shape[0]), np.sin(40.0 * xs[:, 0]) + 2.0], axis=1)[:, cols]

    values, _, evals = _tanh_sinh(f, 0.0, 1.0, 1e-12, k=2)
    assert values[0] == pytest.approx(1.0, rel=1e-14)
    assert values[1] == pytest.approx(2.0 + (1.0 - math.cos(40.0)) / 40.0, rel=1e-11)
    # the constant retires first, after which f sees the other component only
    assert seen[0].tolist() == [0, 1] and seen[-1].tolist() == [1]
    _, _, ev0 = _alone(lambda x: np.ones_like(x), 0.0, 1.0, 1e-12)
    _, _, ev1 = _alone(lambda x: np.sin(40.0 * x) + 2.0, 0.0, 1.0, 1e-12)
    assert evals == ev0 + ev1


def test_tanh_sinh_vector_cap_names_the_stuck_component(monkeypatch):
    monkeypatch.setattr(quad, "MAX_LEVELS", 5)

    def f(xs, cols):
        with np.errstate(over="ignore", invalid="ignore"):
            wild = np.sin(1e6 / xs[:, 0]) / xs[:, 0]
        return np.stack([wild, np.exp(xs[:, 0])], axis=1)[:, cols]

    with pytest.raises(NonConvergence, match="component 0"):
        _tanh_sinh(f, 0.0, 1.0, 1e-13, k=2)
    # the smooth component alone converges within the same cap
    value, _, _ = _tanh_sinh(lambda xs, cols: np.exp(xs), 0.0, 1.0, 1e-13, k=1)
    assert value[0] == pytest.approx(math.e - 1.0, rel=1e-13)


def test_tanh_sinh_vector_nonfinite():
    def away(xs, cols):   # NaN in one component at the midpoint, far from 0
        x = xs[:, 0]
        return np.stack([x**-0.5, np.where(np.abs(x - 0.5) < 0.1, np.nan, x)], axis=1)[:, cols]

    with pytest.raises(NonConvergence, match="component 1"):
        _tanh_sinh(away, 0.0, 1.0, 1e-10, SPEC, k=2)

    def at_endpoint(xs, cols):   # overflow at the declared singular endpoint is dropped
        x = xs[:, 0]
        return np.stack([np.where(x < 1e-200, np.inf, x**-0.5), np.ones_like(x)], axis=1)[:, cols]

    values, errors, _ = _tanh_sinh(at_endpoint, 0.0, 1.0, 1e-10, SPEC, k=2)
    assert values == pytest.approx([2.0, 1.0], rel=1e-9)
    assert np.all(errors >= 0.0)

    def regular(xs, cols):   # both ends regular, a NaN in component 2 mid-interval
        x = xs[:, 0]
        return np.stack([np.exp(x), np.cos(x), np.where(np.abs(x - 0.5) < 0.1, np.nan, x)],
                        axis=1)[:, cols]

    with pytest.raises(NonConvergence, match="component 2"):
        _tanh_sinh(regular, 0.0, 1.0, 1e-10, None, k=3)


def _grouped(xs, cols):
    """Group g = cols // 4 holds the four _integrands times 2 + sin(12^g x),
    so that the groups need different levels."""
    x = xs[:, 0]
    return _integrands(x)[:, cols % 4] * (2.0 + np.sin(12.0 ** (cols // 4) * x[:, None]))


def test_tanh_sinh_groups_match_calls_on_each_group_alone():
    # k = 12 in groups of 4: each group stops at one level, where the four
    # components meet the rules together, and f only ever sees whole groups;
    # every group returns what a call on it alone returns, bit for bit
    seen = []      # (nodes of the level, cols) of every call of f

    def f(xs, cols):
        seen.append((xs.shape[0], cols.copy()))
        return _grouped(xs, cols)

    values, errors, evals = _tanh_sinh(f, 0.0, 1.0, 1e-12, SPEC, k=12, group=4)
    total = 0
    for g in range(3):
        v, e, ev = _tanh_sinh(lambda xs, cols: _grouped(xs, cols + 4 * g), 0.0, 1.0, 1e-12,
                              SPEC, k=4, group=4)
        assert values[4 * g:4 * g + 4].tolist() == v.tolist()
        assert errors[4 * g:4 * g + 4].tolist() == e.tolist()
        total += ev
    assert evals == total
    for _, cols in seen:
        assert np.all(np.bincount(cols // 4)[np.unique(cols // 4)] == 4)
    # each level has its own node count: the widest level a component saw
    deepest = [max(n for n, cols in seen if c in cols) for c in range(12)]
    stops = [set(deepest[4 * g:4 * g + 4]) for g in range(3)]
    assert all(len(stop) == 1 for stop in stops)
    assert len(set.union(*stops)) == 3       # the three groups stop at three levels
    assert np.all(errors >= 0.0)


def test_tanh_sinh_per_component_tol():
    # a (k,) tol gives each component its own stopping rule: it returns its
    # lone call's value and error at its tol bit for bit, and so does each
    # group of a grouped call at the tol of its members; only the components
    # still refining are evaluated and counted
    tols = np.array([1e-6, 1e-13, 1e-9, 1e-4])
    values, errors, evals = _tanh_sinh(_vector, 0.0, 2.0, tols, SPEC, k=4)
    total = 0
    for c in range(4):
        v, e, ev = _alone(lambda x: _integrands(x)[:, c], 0.0, 2.0, float(tols[c]), SPEC)
        assert (values[c], errors[c]) == (v, e)
        total += ev
    assert evals == total
    group_tols = np.array([1e-12, 1e-6, 1e-9])
    values, errors, evals = _tanh_sinh(_grouped, 0.0, 1.0, np.repeat(group_tols, 4), SPEC,
                                       k=12, group=4)
    total = 0
    for g in range(3):
        v, e, ev = _tanh_sinh(lambda xs, cols: _grouped(xs, cols + 4 * g), 0.0, 1.0,
                              float(group_tols[g]), SPEC, k=4, group=4)
        assert values[4 * g:4 * g + 4].tolist() == v.tolist()
        assert errors[4 * g:4 * g + 4].tolist() == e.tolist()
        total += ev
    assert evals == total


def test_tanh_sinh_tol_rejections_and_cap_message(monkeypatch):
    # every tol entry must be finite and > 0, checked before f is called;
    # at the cap the message names the stuck component's own tol
    def never(xs, cols):
        raise AssertionError("f called")

    for bad in (math.nan, math.inf, 0.0, -1e-10, np.array([1e-10, math.nan]),
                np.array([1e-10, math.inf]), np.array([0.0, 1e-10])):
        with pytest.raises(DomainError):
            _tanh_sinh(never, 0.0, 1.0, bad, SPEC, k=2)
    monkeypatch.setattr(quad, "MAX_LEVELS", 5)

    def f(xs, cols):
        with np.errstate(over="ignore", invalid="ignore"):
            wild = np.sin(1e6 / xs[:, 0]) / xs[:, 0]
        return np.stack([np.exp(xs[:, 0]), wild], axis=1)[:, cols]

    with pytest.raises(NonConvergence, match=re.escape("tol=2.5e-13 within 5 levels (component 1")):
        _tanh_sinh(f, 0.0, 1.0, np.array([1e-6, 2.5e-13]), k=2)


def test_tanh_sinh_regular_ends_sample_lo_no_deeper_than_hi():
    # endpoints None declares both ends regular: lo gets only the offsets
    # that hi keeps (below about eps a node rounds onto hi), and the value
    # is the declared-EndpointSpec() call's to rounding; a declared
    # exponent, 0 included, keeps sampling lo down to _OFF_MIN
    hi_min = min(float(off[1.0 - off < 1.0].min())
                 for off, _ in map(quad._level_nodes, range(quad.MAX_LEVELS + 1)))

    def smooth(seen):
        def f(xs, cols):
            seen.append(float(xs.min()))
            x = xs[:, 0]
            return np.stack([np.exp(x), np.cos(3.0 * x) + 2.0], axis=1)[:, cols]
        return f

    seen_regular, seen_declared = [], []
    regular, _, _ = _tanh_sinh(smooth(seen_regular), 0.0, 1.0, 1e-13, None, k=2)
    declared, _, _ = _tanh_sinh(smooth(seen_declared), 0.0, 1.0, 1e-13,
                                EndpointSpec(exponent_lo=0.0), k=2)
    assert min(seen_regular) >= hi_min
    assert min(seen_declared) < 1e-250
    assert np.all(np.abs(regular - declared) <= 4.0 * EPS * np.abs(declared))
    assert regular == pytest.approx([math.e - 1.0, 2.0 + math.sin(3.0) / 3.0], rel=1e-13)


# values and errors of the components 0-3, and the evaluations, of the calls
# of test_tanh_sinh_first_call_spans_levels_0_to_4; values and errors frozen
# from the loop that made one integrand call per level.  The evaluations
# count the nodes of levels 0-4 for every component: at k = 1, declared,
# the component retires at level 3 (74 evaluations with one call per level)
FIRST_CALL_FROZEN = {
    ("declared", 1): ([2.82842712474619], [4.440892098500626e-15], 148),
    ("declared", 1024): ([2.82842712474619, 6.6876855256219745, 16.144278186953443,
                          0.6415070371175711],
                         [4.440892098500626e-15, 9.338180927977696e-147, 1.1368683772161603e-12,
                          2.220446049250313e-16], 151552),
    ("regular", 1): ([6.389056098930649], [0.0], 101),
    ("regular", 1024): ([6.389056098930649, 3.906861500600357, 1.1071487177940902,
                         2.7974349484710874],
                        [0.0, 8.881784197001252e-16, 1.9317880628477724e-14,
                         4.440892098500626e-16], 103424),
}


@pytest.mark.parametrize("k", [1, 1024])
@pytest.mark.parametrize("ends", ["declared", "regular"])
def test_tanh_sinh_first_call_spans_levels_0_to_4(ends, k):
    # few components retire before level 4, so the first integrand call per
    # block gets the nodes of levels 0 to 4 in level order, and each later
    # call one level; at k = 1024 every level is split into blocks of
    # components.  Values and errors stay those of one call per level, bit
    # for bit, and the evaluations count every node evaluated
    fn, spec = (_integrands, SPEC) if ends == "declared" else (_smooth, None)
    calls = []

    def f(xs, cols):
        calls.append((xs[:, 0], cols))
        return fn(xs[:, 0])[:, cols % 4]

    values, errors, evals = _tanh_sinh(f, 0.0, 2.0, 1e-13, spec, k=k)
    rounds = []      # [nodes, blocks of components] of each refinement step
    for xs, cols in calls:
        if rounds and np.array_equal(xs, rounds[-1][0]):
            rounds[-1][1].append(cols)
        else:
            rounds.append([xs, [cols]])
    levels = [quad._nodes(lv, 0.0, 2.0, spec is None)[0] for lv in range(quad.MAX_LEVELS + 1)]
    # every component retires by level 4: the first call per block is all
    # (test_tanh_sinh_wide_call_with_exponents_and_dropped_nodes_matches_lone_calls
    # has later calls in blocks)
    assert len(rounds) == 1
    active = set(range(k))
    for (xs, blocks), want in zip(rounds, [np.concatenate(levels[:5])] + levels[5:]):
        assert xs.tolist() == want.tolist()
        comps = np.concatenate(blocks).tolist()     # each step's refining components
        assert comps == sorted(comps) and set(comps) <= active
        active = set(comps)
    assert np.concatenate(rounds[0][1]).tolist() == list(range(k))
    assert all(xs.size * cols.size <= _BLOCK_CELLS for xs, cols in calls)
    assert (len(rounds[0][1]) > 1) == (k > 1)
    assert evals == sum(xs.size * cols.size for xs, cols in calls)
    value, error, ev = FIRST_CALL_FROZEN[ends, k]
    assert evals == ev
    for c in range(len(value)):
        assert values[c::4].tolist() == [value[c]] * values[c::4].size
        assert errors[c::4].tolist() == [error[c]] * errors[c::4].size


def test_tanh_sinh_nonfinite_at_a_level_1_node_names_its_component():
    # a NaN at a level-1 node, away from the declared singular end, arrives
    # in the first call with levels 0 and 2-4 and still fails, naming the
    # component and the node
    node = float(quad._nodes(1, 0.0, 1.0, False)[0][0])

    def f(xs, cols):
        x = xs[:, 0]
        return np.stack([x**-0.5, np.where(x == node, np.nan, x)], axis=1)[:, cols]

    with pytest.raises(NonConvergence, match=re.escape(f"x={node!r} (component 1)")):
        _tanh_sinh(f, 0.0, 1.0, 1e-10, SPEC, k=2)


def _by_span(monkeypatch, fn, lo, hi, tol, spec=None, *, k, group=1):
    """_tanh_sinh(fn, ...) with the first call per block spanning levels 0-2
    and levels 0-4, which must agree: returns the (values, errors) lists or
    the NonConvergence message, and each component's retirement level (the
    span-2 steps it takes part in, plus 1).  Each run's evaluations equal
    the summed cells of its integrand calls."""
    out = []
    for span in (2, 4):
        monkeypatch.setattr(quad, "_FIRST_SPAN", span)
        cells, steps = [], {}

        def f(xs, cols):
            cells.append(xs.shape[0] * cols.size)
            steps.setdefault((xs.shape[0], float(xs[0, 0])), []).append(cols)
            return fn(xs[:, 0], cols)

        try:
            values, errors, evals = _tanh_sinh(f, lo, hi, tol, spec, k=k, group=group)
        except NonConvergence as exc:
            out.append(str(exc))
        else:
            assert evals == sum(cells)
            out.append((values.tolist(), errors.tolist()))
        if span == 2:
            level = np.ones(k, dtype=int)
            for blocks in steps.values():
                level[np.concatenate(blocks)] += 1
    assert out[0] == out[1]
    return out[0], level


# eight integrands on (0, 1), their tols and declared exponents: at either
# kind of end they retire at levels 2, 3, 4, 5, 6, 7 and past 7
def _eight(x, cols):
    return np.stack([np.exp(x), np.exp(x), np.exp(x), np.sin(40.0 * x) + 2.0,
                     np.sin(100.0 * x) + 2.0, np.sin(200.0 * x) + 2.0, x**-0.5,
                     np.sin(1000.0 * x) + 2.0], axis=-1)[:, cols % 8]


TOLS_8 = np.array([1e-2, 1e-8, 1e-12, 1e-8, 1e-8, 1e-10, 1e-10, 1e-10])
BETAS_8 = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.5, 0.0])


@pytest.mark.parametrize("group", [1, 2])
@pytest.mark.parametrize("ends", ["declared", "regular"])
def test_tanh_sinh_first_span_does_not_change_results(monkeypatch, ends, group):
    # the first call per block evaluates levels 0-4 but retires and tracks
    # each component level by level: 800 components in blocks, on a tol
    # each, give what a first call of levels 0-2 gives, bit for bit
    k = 800
    spec = EndpointSpec(exponent_lo=BETAS_8[np.arange(k) % 8]) if ends == "declared" else None
    (values, _), level = _by_span(monkeypatch, _eight, 0.0, 1.0, TOLS_8[np.arange(k) % 8], spec,
                                  k=k, group=group)
    if group == 1:
        assert set(level[:8]) >= {2, 3, 4, 5, 6, 7} and level[:8].max() > 7
    assert values[5] == pytest.approx(2.0 + (1.0 - math.cos(200.0)) / 200.0, rel=1e-10)


def test_tanh_sinh_first_span_capped_and_failing(monkeypatch):
    # at a cap of 5 levels a component accepted with its 3x error bar, and
    # one that fails, naming itself, beside components that retire early
    monkeypatch.setattr(quad, "MAX_LEVELS", 5)

    def f(x, cols):
        with np.errstate(over="ignore", invalid="ignore"):
            wild = np.sin(1e6 / x) / x
        return np.stack([np.exp(x), np.exp(x), np.sin(100.0 * x) + 2.0, wild], axis=-1)[:, cols]

    tols = np.array([1e-2, 1e-8, 1e-8, 1e-6])
    (_, errors), level = _by_span(monkeypatch, f, 0.0, 1.0, tols[:3], k=3)
    assert level.tolist() == [2, 3, 5] and errors[2] > 1e-8 * 2.0
    message, _ = _by_span(monkeypatch, f, 0.0, 1.0, tols, k=4)
    assert "within 5 levels (component 3" in message


def test_tanh_sinh_first_span_keeps_the_retirement_level_deepest_node(monkeypatch):
    # x^-0.99 overflows below 1e-250 and retires at level 2 at tol 0.5: its
    # endpoint remainder comes from the deepest finite node of levels 0-2,
    # not from level 3's deeper one, which the first call also evaluates
    def f(x, cols):
        with np.errstate(divide="ignore"):
            return np.where(x < 1e-250, np.inf, x**-0.99)[:, None]

    (_, errors), level = _by_span(monkeypatch, f, 0.0, 1.0, 0.5, EndpointSpec(-0.99), k=1)
    assert level.tolist() == [2]
    assert errors[0] == pytest.approx(0.9468, abs=1e-4)


def test_tanh_sinh_first_span_nan_at_a_level_3_node(monkeypatch):
    # a NaN at an interior level-3 node fails only a component that reaches
    # level 3: the one that retires at level 2 never sees it
    xs = quad._nodes(3, 0.0, 1.0, True)[0]
    node = float(xs[np.argmin(np.abs(xs - 0.3))])

    def f(nan_in):
        def fn(x, cols):
            ys = np.stack([np.exp(x), np.sin(40.0 * x) + 2.0], axis=-1)
            ys[x == node, nan_in] = np.nan
            return ys[:, cols]
        return fn

    tols = np.array([1e-2, 1e-8])
    (values, _), level = _by_span(monkeypatch, f(0), 0.0, 1.0, tols, k=2)
    assert level.tolist() == [2, 5] and np.isfinite(values).all()
    message, _ = _by_span(monkeypatch, f(1), 0.0, 1.0, tols, k=2)
    assert message == f"integrand non-finite near x={node!r} (component 1)"


@pytest.mark.parametrize("block_cells", [_BLOCK_CELLS, 64])
def test_tanh_sinh_failure_named_does_not_depend_on_the_block_size(monkeypatch, block_cells):
    # NaNs at a level-2 node of component 0 and at a level-0 node of
    # component 1: the first failed level is named, then its first row and
    # component, whether the two components share a block or not
    node_2 = float(quad._nodes(2, 0.0, 1.0, True)[0][5])
    node_0 = float(quad._nodes(0, 0.0, 1.0, True)[0][3])
    monkeypatch.setattr(quad, "_BLOCK_CELLS", block_cells)

    def f(xs, cols):
        x = xs[:, 0]
        ys = np.stack([np.where(x == node_2, np.nan, np.exp(x)),
                       np.where(x == node_0, np.nan, np.exp(x))], axis=1)
        return ys[:, cols]

    with pytest.raises(NonConvergence) as exc:
        _tanh_sinh(f, 0.0, 1.0, 1e-10, k=2)
    assert str(exc.value) == f"integrand non-finite near x={node_0!r} (component 1)"
