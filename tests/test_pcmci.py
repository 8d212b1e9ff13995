import json

import numpy as np
import pytest

from causalcast import Frequency, pcmci, run_pcmci_plus
from causalcast.errors import InputError, ParseError
from causalcast.pcmci import (
    CausalGraph,
    CausalLink,
    LaggedCrossProducts,
    contemporaneous_phase,
    mci_test,
    pc1_condition_selection,
)
from causalcast.stats import _column

from conftest import conditions, lstsq_partial_correlation, make_dataset, noise_dataset


def ar1(seed, T=3000, phi=0.8):
    rng = np.random.default_rng(seed)
    x = np.zeros(T + 50)
    for t in range(1, T + 50):
        x[t] = phi * x[t - 1] + rng.standard_normal()
    return x[50:]


def lagged_pair(seed, T=3000, lag=2, coef=0.5):
    """x drives y at the given lag; both have mild memory."""
    rng = np.random.default_rng(seed)
    x = np.zeros(T + 50)
    y = np.zeros(T + 50)
    for t in range(lag, T + 50):
        x[t] = 0.4 * x[t - 1] + rng.standard_normal()
        y[t] = 0.4 * y[t - 1] + coef * x[t - lag] + rng.standard_normal()
    return make_dataset(
        np.column_stack([x[50:], y[50:]]), names=["x", "y"], frequency=Frequency.DAILY
    )


def var_panel(seed, T=1500):
    """Four autocorrelated series: 0 -> 1 and 1 -> 2 at lag 1, 3 -> 0 at
    lag 2, and 2 -> 3 within the same step."""
    rng = np.random.default_rng(seed)
    v = np.zeros((T, 4))
    for t in range(2, T):
        v[t] = 0.5 * v[t - 1] + rng.standard_normal(4)
        v[t, 0] += 0.4 * v[t - 2, 3]
        v[t, 1] += 0.6 * v[t - 1, 0]
        v[t, 2] += 0.5 * v[t - 1, 1]
        v[t, 3] += 0.5 * v[t, 2]
    return v


def degenerate_panel():
    """var_panel(22) with v3 shifted by 1e6, plus v4 constant and v5 an
    exact copy of v1."""
    base = var_panel(22)
    base[:, 3] += 1e6
    return np.column_stack([base, np.full(len(base), 0.3), base[:, 1]])


def count_ci_tests(monkeypatch):
    """Wrap LaggedCrossProducts.test (one test a candidate x); returns the
    conditioning width of every test it sees."""
    widths = []
    test = LaggedCrossProducts.test

    def counted(self, xs, y, conds, start=None):
        widths.extend([len(set(conds))] * len(xs))
        return test(self, xs, y, conds, start)

    monkeypatch.setattr(LaggedCrossProducts, "test", counted)
    return widths


def one_test(cross, x, y, conds, start=None):
    """Statistic and p-value of the one CI test of x against y."""
    (stat,), (p,) = cross.test([x], y, conds, start)
    return float(stat), float(p)


def panel(ds, max_lag):
    """The cross-products every phase reads."""
    return LaggedCrossProducts(ds.values, max_lag)


class TestPc1:
    def test_autoregressive_memory_retained(self):
        ds = make_dataset(ar1(0), names=["x"], frequency=Frequency.DAILY)
        parents = pc1_condition_selection(panel(ds, 3), 0)
        assert (0, 1) in parents

    def test_white_noise_keeps_nothing(self):
        ds = make_dataset(
            np.random.default_rng(1).standard_normal(2000),
            names=["x"],
            frequency=Frequency.DAILY,
        )
        parents = pc1_condition_selection(panel(ds, 5), 0, pc_alpha=0.01)
        assert parents == []

    def test_chain_prunes_indirect_parent(self):
        # x -> y -> z: conditioning on y at lag 1 screens x off from z
        rng = np.random.default_rng(2)
        T = 4000
        x = np.zeros(T)
        y = np.zeros(T)
        z = np.zeros(T)
        for t in range(1, T):
            x[t] = 0.5 * x[t - 1] + rng.standard_normal()
            y[t] = 0.6 * x[t - 1] + rng.standard_normal()
            z[t] = 0.6 * y[t - 1] + rng.standard_normal()
        ds = make_dataset(
            np.column_stack([x, y, z]), names=["x", "y", "z"], frequency=Frequency.DAILY
        )
        parents = pc1_condition_selection(panel(ds, 3), 2, pc_alpha=0.01)
        assert (1, 1) in parents
        assert 0 not in {i for i, _ in parents}

    def test_candidates_ranked_by_strength(self):
        # in the last round x at lag 2 reads |r| 0.4729 and y at lag 1
        # reads 0.4015, so x comes first though y has the lower index
        parents = pc1_condition_selection(panel(lagged_pair(3), 4), 1)
        assert parents == [(0, 2), (1, 1)]


class TestMci:
    def test_true_link_significant(self):
        ds = lagged_pair(4, lag=2, coef=0.5)
        cross = panel(ds, 4)
        px = pc1_condition_selection(cross, 0)
        py = pc1_condition_selection(cross, 1)
        stat, p = mci_test(cross, (0, 2, 1), py, px)
        assert p < 0.01
        assert stat > 0.2

    def test_empty_conditions_match_plain_correlation(self):
        ds = noise_dataset(5, T=800, N=2, frequency=Frequency.DAILY)
        max_lag, lag = 4, 2
        res = mci_test(panel(ds, max_lag), (0, lag, 1), [], [])
        t0 = max_lag + lag
        x = ds.values[t0 - lag : -lag, 0]
        y = ds.values[t0:, 1]
        assert res == pytest.approx(lstsq_partial_correlation(x, y), abs=1e-12)

    def test_confounder_explained_away(self):
        # z drives both x and y; conditioning on z kills the x-y lag link
        rng = np.random.default_rng(6)
        T = 4000
        z = np.zeros(T)
        x = np.zeros(T)
        y = np.zeros(T)
        for t in range(2, T):
            z[t] = 0.5 * z[t - 1] + rng.standard_normal()
            x[t] = 0.7 * z[t - 1] + rng.standard_normal()
            y[t] = 0.7 * z[t - 2] + rng.standard_normal()
        ds = make_dataset(
            np.column_stack([x, y, z]), names=["x", "y", "z"], frequency=Frequency.DAILY
        )
        graph = run_pcmci_plus(ds, max_lag=3, pc_alpha=0.01)
        pairs = {(l.source, l.target, l.lag) for l in graph.links}
        assert ("x", "y", 1) not in pairs
        assert ("z", "y", 2) in pairs


class TestContemporaneous:
    def test_instantaneous_dependence_found(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(3000)
        y = x + 0.5 * rng.standard_normal(3000)
        ds = make_dataset(
            np.column_stack([x, y]), names=["x", "y"], frequency=Frequency.DAILY
        )
        links = contemporaneous_phase(panel(ds, 3), ds.variable_names, [[], []], pc_alpha=0.01)
        assert len(links) == 1
        assert links[0].lag == 0
        assert not links[0].oriented

    def test_shared_lagged_parent_leaves_no_link(self):
        # x and y both driven by z at lag 1: given parents, x _||_ y at lag 0
        rng = np.random.default_rng(8)
        T = 4000
        z = rng.standard_normal(T)
        x = np.zeros(T)
        y = np.zeros(T)
        x[1:] = 0.8 * z[:-1] + 0.5 * rng.standard_normal(T - 1)
        y[1:] = 0.8 * z[:-1] + 0.5 * rng.standard_normal(T - 1)
        ds = make_dataset(
            np.column_stack([x, y, z]), names=["x", "y", "z"], frequency=Frequency.DAILY
        )
        graph = run_pcmci_plus(ds, max_lag=2, pc_alpha=0.01)
        assert not [
            l for l in graph.links if l.lag == 0 and {l.source, l.target} == {"x", "y"}
        ]


class TestRun:
    def test_single_variable_white_noise_empty(self):
        ds = make_dataset(
            np.random.default_rng(9).standard_normal(1500),
            names=["x"],
            frequency=Frequency.DAILY,
        )
        graph = run_pcmci_plus(ds, max_lag=5, pc_alpha=0.01)
        assert graph.links == ()

    def test_planted_graph_recovered(self):
        rng = np.random.default_rng(10)
        T = 4000
        v = np.zeros((T, 5))
        v[:2] = rng.standard_normal((2, 5))
        for t in range(2, T):
            eps = rng.standard_normal(5)
            v[t] = 0.2 * v[t - 1] + eps
            v[t, 0] += 0.5 * v[t - 1, 1]
            v[t, 2] += 0.5 * v[t - 2, 3]
            v[t, 4] += 0.4 * v[t - 1, 0]
        ds = make_dataset(v, frequency=Frequency.DAILY)
        graph = run_pcmci_plus(ds, max_lag=3, pc_alpha=0.001)
        found = {(l.source, l.target, l.lag) for l in graph.links if l.source != l.target}
        assert {("v1", "v0", 1), ("v3", "v2", 2), ("v0", "v4", 1)} <= found

    def test_truncation_due_to_max_samples(self):
        # only the most recent max_samples rows should be consulted
        rng = np.random.default_rng(11)
        early = rng.standard_normal((1000, 2))
        late = np.zeros((1000, 2))
        late[:, 0] = rng.standard_normal(1000)
        late[1:, 1] = 0.9 * late[:-1, 0]
        late[0, 1] = 0.0
        late[:, 1] += 0.1 * rng.standard_normal(1000)
        ds = make_dataset(np.vstack([early, late]), frequency=Frequency.DAILY)
        graph = run_pcmci_plus(ds, max_lag=2, pc_alpha=0.001, max_samples=1000)
        assert ("v0", "v1", 1) in {(l.source, l.target, l.lag) for l in graph.links}

    def test_zero_max_samples_keeps_every_step(self):
        ds = lagged_pair(13, T=400)
        whole = run_pcmci_plus(ds, max_lag=2, max_samples=400)
        assert run_pcmci_plus(ds, max_lag=2, max_samples=0) == whole
        with pytest.raises(InputError, match="max_samples must be >= 0"):
            run_pcmci_plus(ds, max_lag=2, max_samples=-1)

    @pytest.mark.parametrize("alpha", [1.5, 0.0])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        # the same rule, and message, as MVGC's Benjamini-Hochberg level
        with pytest.raises(InputError, match=r"alpha must lie in \(0, 1\)"):
            run_pcmci_plus(lagged_pair(13, T=200), max_lag=2, pc_alpha=alpha)

    def test_deterministic(self):
        ds = lagged_pair(12, T=1200)
        a = run_pcmci_plus(ds, max_lag=3, pc_alpha=0.05)
        b = run_pcmci_plus(ds, max_lag=3, pc_alpha=0.05)
        assert a.to_dict() == b.to_dict()

    def test_phases_called_through_the_module(self, monkeypatch):
        # the benchmark's tracer times each phase by wrapping its module
        # attribute, so run_pcmci_plus must look every phase up there
        calls = {"pc1": [], "mci": [], "contemp": []}

        def counting(key, original):
            def wrapper(cross, *args, **kwargs):
                result = original(cross, *args, **kwargs)
                calls[key].append((cross, args[0], result))
                return result
            monkeypatch.setattr(pcmci, original.__name__, wrapper)

        counting("pc1", pc1_condition_selection)
        counting("mci", mci_test)
        counting("contemp", contemporaneous_phase)
        ds = make_dataset(var_panel(31, T=600), frequency=Frequency.DAILY)
        graph = run_pcmci_plus(ds, max_lag=3)

        assert [target for _, target, _ in calls["pc1"]] == list(range(ds.n_variables))
        survivors = [
            (i, lag, target) for _, target, found in calls["pc1"] for i, lag in found
        ]
        assert survivors and [link for _, link, _ in calls["mci"]] == survivors
        assert len(calls["contemp"]) == 1
        crosses = {id(cross) for phase in calls.values() for cross, _, _ in phase}
        assert len(crosses) == 1
        monkeypatch.undo()
        assert run_pcmci_plus(ds, max_lag=3) == graph

    def test_null_false_positive_rate(self):
        # possible links per 3-var run at max_lag 3: 3*3*3 lagged + 3 pairs
        alpha = 0.05
        per_run = 3 * 3 * 3 + 3
        runs = 40
        total = 0
        for seed in range(runs):
            ds = noise_dataset(2000 + seed, T=400, N=3, frequency=Frequency.DAILY)
            total += len(run_pcmci_plus(ds, max_lag=3, pc_alpha=alpha).links)
        rate = total / (runs * per_run)
        sigma = np.sqrt(alpha * (1 - alpha) / (runs * per_run))
        assert rate <= alpha + 2 * sigma


class TestCrossProducts:
    def test_matches_stacked_partial_correlation(self):
        values, max_lag = var_panel(20), 4
        cross = LaggedCrossProducts(values, max_lag)
        nodes = [(i, lag) for i in range(4) for lag in range(max_lag + 1)]
        rng = np.random.default_rng(21)
        for _ in range(60):
            picked = rng.choice(len(nodes), int(rng.integers(2, 14)), replace=False)
            *conds, x, y = [nodes[p] for p in picked]
            conds += conds[:1]  # a repeated node is one conditioning column
            got = one_test(cross, x, y, conds)
            want = lstsq_partial_correlation(
                _column(values, max_lag, x),
                _column(values, max_lag, y),
                conditions(values, max_lag, conds),
                dof=len(values) - max_lag - len(set(conds)) - 2,
            )
            assert got == pytest.approx(want, rel=1e-9, abs=0.0)
        assert cross.tests == 60

    def test_degenerate_columns_match_the_stacked_path(self):
        # v5 copies v1 and v4 is constant: the reference dof counts the
        # distinct non-constant columns, a rank the panel fixes by design
        values = degenerate_panel()
        extras = ([], [(0, 1)], [(2, 2), (3, 1)])
        cases = [
            case
            for lag in (1, 2, 3)
            for j in (0, 2, 3)
            for extra in extras
            for case in (((5, lag), (j, 0), [(1, lag)] + extra),
                         ((1, lag), (j, 0), extra + [(5, lag)]))
        ]
        cases += [
            ((4, 1), (0, 0), []),
            ((0, 1), (2, 0), [(4, 1)]),
            ((3, 1), (2, 0), [(0, 1), (3, 2)]),
            ((1, 1), (3, 0), [(4, 2), (3, 1)]),
        ]
        n = len(values) - 3
        got, want = [], []
        for x, y, conds in cases:
            got.append(one_test(LaggedCrossProducts(values, 3), x, y, conds))
            rank = len({(1, l) if i == 5 else (i, l) for i, l in conds if i != 4})
            want.append(lstsq_partial_correlation(
                _column(values, 3, x),
                _column(values, 3, y),
                conditions(values, 3, conds),
                dof=n - rank - 2,
            ))

        assert sum(w == (0.0, 1.0) for w in want) == 55
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-9, abs=0.0)
        graph = run_pcmci_plus(make_dataset(values, frequency=Frequency.DAILY), max_lag=3)
        assert "v4" not in {name for l in graph.links for name in (l.source, l.target)}

    def test_graph_counts_every_ci_test(self, monkeypatch):
        # counted one per candidate x of every test call: 167 tests, at
        # most 5 conditioning columns on this panel
        ds = make_dataset(var_panel(30), frequency=Frequency.DAILY)
        widths = count_ci_tests(monkeypatch)
        graph = run_pcmci_plus(ds, max_lag=3)
        assert (graph.ci_tests, graph.max_cond_dim) == (167, 5)
        assert (len(widths), max(widths)) == (167, 5)
        doc = graph.to_dict()
        assert (doc["ci_tests"], doc["max_cond_dim"]) == (167, 5)
        assert CausalGraph.from_dict(doc) == graph

    def test_batched_round_matches_per_test(self):
        values, max_lag = var_panel(23), 4
        nodes = [(i, lag) for i in range(4) for lag in range(1, max_lag + 1)]
        rng = np.random.default_rng(24)
        rounds = []
        for q in range(9):
            picked = [nodes[p] for p in rng.permutation(len(nodes))]
            rounds.append((values, picked[q:], (int(rng.integers(4)), 0), picked[:q]))
        # a copied and a constant condition are dropped from the round's dof
        rounds.append((degenerate_panel(), [(0, 1), (2, 1), (3, 2)], (0, 0),
                       [(1, 1), (5, 1), (4, 2)]))
        # y = x + z with x independent of z: given z, y's residual is x's
        x, z = rng.standard_normal((2, 500))
        rounds.append((np.column_stack([x, z, x + z]), [(0, 0)], (2, 0), [(1, 0)]))
        for panel_values, xs, y, conds in rounds:
            cross = LaggedCrossProducts(panel_values, max_lag)
            stat, p = cross.test(xs, y, conds)
            assert (cross.tests, cross.max_cond_dim) == (len(xs), len(conds))
            for x, s, pv in zip(xs, stat, p):
                want = one_test(cross, x, y, conds)
                assert (s, pv) == pytest.approx(want, rel=1e-9, abs=0.0)
        # the batched round itself reads the exact dependence
        assert abs(stat[0]) == pytest.approx(1.0, rel=1e-12, abs=0.0)
        assert p[0] == 0.0

    def test_batched_round_falls_back_per_candidate(self):
        # given (1, 1), candidate (5, 1), a copy of it, and every node of
        # the constant v4 trip the pivot guard: their batched verdicts are
        # those of one-candidate calls, which report independence
        values = degenerate_panel()
        nodes = [(i, lag) for i in range(6) for lag in (1, 2, 3)]
        xs = [node for node in nodes if node != (1, 1)]
        stat, p = LaggedCrossProducts(values, 3).test(xs, (0, 0), [(1, 1)])
        for x, s, pv in zip(xs, stat, p):
            want = one_test(LaggedCrossProducts(values, 3), x, (0, 0), [(1, 1)])
            assert (s, pv) == pytest.approx(want, rel=1e-9, abs=0.0)
        degenerate = [x for x, s, pv in zip(xs, stat, p) if (s, pv) == (0.0, 1.0)]
        assert degenerate == [(4, 1), (4, 2), (4, 3), (5, 1)]

    @pytest.mark.parametrize("lag", [0, 1, 3])
    def test_mci_blocks_match_stacked_columns(self, lag):
        values, max_lag = var_panel(25), 3
        start = max_lag + lag
        nodes = [(i, l) for i in range(4) for l in range(start + 1)]
        cross = LaggedCrossProducts(values, max_lag)
        rng = np.random.default_rng(26)
        for _ in range(30):
            picked = rng.choice(len(nodes), int(rng.integers(2, 12)), replace=False)
            *conds, x, y = [nodes[p] for p in picked]
            got = one_test(cross, x, y, conds + conds[:1], start)
            want = lstsq_partial_correlation(
                _column(values, start, x),
                _column(values, start, y),
                conditions(values, start, conds),
                dof=len(values) - start - len(conds) - 2,
            )
            assert got == pytest.approx(want, rel=1e-9, abs=0.0)
        assert cross.tests == 30

    def test_node_past_start_rejected(self):
        # a node lagged past the first row would read another variable's
        # rows, or none at all
        values = np.random.default_rng(28).standard_normal((300, 3))
        cross = LaggedCrossProducts(values, 2)
        with pytest.raises(InputError, match=r"node \(0, 4\)"):
            cross.test([(0, 4)], (1, 0), [], start=3)
        with pytest.raises(InputError, match=r"node \(1, 3\)"):
            cross.test([(0, 1)], (2, 0), [(1, 3)])
        with pytest.raises(InputError, match=r"node \(0, -1\)"):
            cross.test([(0, -1)], (1, 0), [])
        # a parent list from a run at a larger max_lag
        with pytest.raises(InputError, match=r"node \(0, 5\)"):
            mci_test(cross, (1, 1, 2), [(0, 5)], [])
        assert cross.tests == 0

    def test_out_of_range_node_rejected(self):
        # a variable outside 0..N-1 or a negative lag would alias another
        # node's row of the shared matrix, or index past the panel
        values = np.random.default_rng(0).standard_normal((300, 3))
        cross = LaggedCrossProducts(values, 2)
        calls = [
            (lambda: cross.test([(3, 0)], (1, 0), []), r"node \(3, 0\)"),
            (lambda: cross.test([(3, 0)], (1, 0), [], start=4), r"node \(3, 0\)"),
            (lambda: cross.test([(0, 1)], (1, 0), [(-1, 0)]), r"node \(-1, 0\)"),
            (lambda: cross.test([(2, 1), (0, -1)], (1, 0), []), r"node \(0, -1\)"),
            (lambda: cross.test([(0, 1)], (1, 0), [(3, 1)]), r"node \(3, 1\)"),
            (lambda: cross.fit([(0, 1), (5, 1)], (1, 0)), r"node \(5, 1\)"),
            (lambda: cross.fit([(0, 1)], (1, 3)), r"node \(1, 3\)"),
        ]
        for call, node in calls:
            with pytest.raises(InputError, match=node):
                call()
        assert cross.tests == 0


class TestGraphContainer:
    def _link(self, **kw):
        base = dict(
            source="a", target="b", lag=1, statistic=0.5, p_value=0.001, oriented=True
        )
        base.update(kw)
        return CausalLink(**base)

    def test_round_trip(self):
        graph = CausalGraph(
            variables=("a", "b"),
            max_lag=3,
            links=(self._link(), self._link(lag=0, oriented=False)),
            alpha=0.05,
        )
        back = CausalGraph.from_dict(json.loads(json.dumps(graph.to_dict())))
        assert back == graph

    @pytest.mark.parametrize("key, value", [
        ("max_lag", 2.5),
        ("max_lag", True),
        ("ci_tests", True),
        ("max_cond_dim", 1.0),
        ("alpha", "0.05"),
        ("lag", 1.7),
        ("lag", True),
        ("stat", "0.5"),
        ("p", "0.001"),
        ("oriented", "false"),
        ("oriented", 1),
    ])
    def test_mistyped_field_rejected(self, key, value):
        doc = CausalGraph(
            variables=("a", "b"), max_lag=3, links=(self._link(),), alpha=0.05, ci_tests=4,
        ).to_dict()
        (doc if key in doc else doc["links"][0])[key] = value
        with pytest.raises(ParseError, match=rf"pcmci\+ graph: {key} must be an? "):
            CausalGraph.from_dict(doc)

    def test_parents_include_unoriented_adjacency(self):
        graph = CausalGraph(
            variables=("a", "b"),
            max_lag=2,
            links=(self._link(lag=0, oriented=False),),
            alpha=0.05,
        )
        assert graph.drivers("a") == ("a", "b")
        assert graph.drivers("b") == ("a", "b")
        # an oriented link drives its target only
        graph = CausalGraph(variables=("a", "b"), max_lag=2, links=(self._link(),), alpha=0.05)
        assert (graph.drivers("a"), graph.drivers("b")) == (("a",), ("a", "b"))

    def test_insignificant_link_rejected(self):
        with pytest.raises(InputError, match=r"link a->b \(lag 1\) has p = 0.2 > alpha = 0.05"):
            CausalGraph(
                variables=("a", "b"),
                max_lag=2,
                links=(self._link(p_value=0.2),),
                alpha=0.05,
            )

    @pytest.mark.parametrize("lag", [1.7, 1.0, True, "1"])
    def test_non_integer_lag_rejected(self, lag):
        with pytest.raises(InputError, match="lag must be an integer"):
            self._link(lag=lag)

    def test_numpy_lag_becomes_int(self):
        link = self._link(lag=np.int64(2))
        assert type(link.lag) is int and json.dumps(link.to_dict())

    def test_lagged_links_must_be_oriented(self):
        with pytest.raises(InputError, match="lagged links are always oriented by time order"):
            self._link(oriented=False)

    def test_contemporaneous_self_link_rejected(self):
        with pytest.raises(InputError, match="no self-links at lag 0"):
            self._link(source="a", target="a", lag=0, oriented=False)

    def test_dot_output(self):
        graph = CausalGraph(
            variables=("a", "b"),
            max_lag=3,
            links=(self._link(), self._link(lag=0, oriented=False)),
            alpha=0.05,
        )
        dot = graph.to_dot()
        assert dot.startswith("digraph")
        assert '"a" -> "b"' in dot
        assert 'label="lag 1"' in dot
        assert "dir=none" in dot
