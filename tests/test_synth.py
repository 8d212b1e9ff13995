import datetime as dt

import numpy as np
import pytest
from scipy import stats as scipy_stats

from causalcast import Frequency, PlantedGraph, generate_var, random_planted_graph
from causalcast.errors import CausalcastError, InputError, ParseError


class TestPlantedGraph:
    def test_validations(self):
        with pytest.raises(InputError, match="planted lag must be >= 1, got 0"):
            PlantedGraph(("a", "b"), (("a", "b", 0, 0.5),))
        with pytest.raises(InputError, match=r"coefficients must be real numbers with \|c\| <= 0.9, got 0.95"):
            PlantedGraph(("a", "b"), (("a", "b", 1, 0.95),))
        with pytest.raises(InputError, match="link a->z references unknown variable"):
            PlantedGraph(("a",), (("a", "z", 1, 0.5),))
        with pytest.raises(InputError, match="noise_std entries must be positive"):
            PlantedGraph(("a",), (), noise_std=(0.0,))

    @pytest.mark.parametrize("lag, coef, match", [
        (2.9, 0.3, "planted lag must be an integer, got 2.9"),
        (True, 0.3, "planted lag must be an integer, got True"),
        ("2", 0.3, "planted lag must be an integer, got '2'"),
        (2, "0.3", "coefficients must be real numbers with .* got '0.3'"),
        (2, True, "coefficients must be real numbers with .* got True"),
        (2, float("nan"), "coefficients must be real numbers with .* got nan"),
    ], ids=["lag-float", "lag-bool", "lag-str", "coef-str", "coef-bool", "coef-nan"])
    def test_mistyped_link_rejected_not_coerced(self, lag, coef, match):
        with pytest.raises(InputError, match=match):
            PlantedGraph(("a", "b"), (("a", "b", lag, coef),))

    def test_numpy_scalars_become_python_numbers(self):
        graph = PlantedGraph(("a", "b"), (("a", "b", np.int64(2), np.float64(0.3)),))
        assert graph.links == (("a", "b", 2, 0.3),)
        assert [type(x) for x in graph.links[0][2:]] == [int, float]

    def test_round_trip(self, tmp_path):
        graph = PlantedGraph(
            ("a", "b", "c"),
            (("a", "b", 2, 0.5), ("c", "c", 1, 0.4)),
            noise_std=(1.0, 0.5, 2.0),
        )
        path = tmp_path / "g.json"
        graph.save(path)
        back = PlantedGraph.load(path)
        assert back.variables == graph.variables
        assert back.links == graph.links
        assert back.noise_std == graph.noise_std

    @pytest.mark.parametrize("key, value", [
        ("lag", 2.9),
        ("lag", True),
        ("lag", "2"),
        ("coefficient", "0.3"),
        ("coefficient", True),
        ("noise_std", [1.0, True]),
    ])
    def test_mistyped_field_rejected(self, key, value):
        doc = PlantedGraph(("a", "b"), (("a", "b", 2, 0.3),)).to_dict()
        (doc if key in doc else doc["links"][0])[key] = value
        with pytest.raises(ParseError, match=f"planted graph: {key} must be a"):
            PlantedGraph.from_dict(doc)

    def test_parent_queries(self):
        graph = PlantedGraph(
            ("a", "b", "c"), (("a", "c", 1, 0.5), ("b", "c", 3, 0.4))
        )
        assert graph.parent_variables_of("c") == {"a", "b"}


class TestGenerate:
    def test_no_links_gives_white_noise(self):
        graph = PlantedGraph(("x", "y"), (), noise_std=(1.0, 2.5))
        ds = generate_var(graph, 10000, seed=0)
        assert abs(ds.values[:, 0].std() - 1.0) < 0.05
        assert abs(ds.values[:, 1].std() / 2.5 - 1.0) < 0.05
        # no serial correlation to speak of
        x = ds.values[:, 0]
        assert abs(np.corrcoef(x[:-1], x[1:])[0, 1]) < 0.05

    def test_lagged_cross_correlation_closed_form(self):
        # y_t = 0.5 x_{t-2} + e_t with unit noises:
        # corr(x_{t-2}, y_t) = 0.5 / sqrt(1.25)
        graph = PlantedGraph(("x", "y"), (("x", "y", 2, 0.5),))
        ds = generate_var(graph, 10000, seed=1)
        x, y = ds.values[:, 0], ds.values[:, 1]
        r = np.corrcoef(x[:-2], y[2:])[0, 1]
        assert r == pytest.approx(0.5 / np.sqrt(1.25), abs=0.03)
        # and no correlation at the wrong lag
        assert abs(np.corrcoef(x[:-1], y[1:])[0, 1]) < 0.03

    def test_deterministic(self):
        graph = random_planted_graph(4, 5, seed=2)
        a = generate_var(graph, 500, seed=3)
        b = generate_var(graph, 500, seed=3)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.timestamps == b.timestamps

    def test_different_seeds_differ(self):
        graph = random_planted_graph(4, 5, seed=2)
        a = generate_var(graph, 500, seed=3)
        b = generate_var(graph, 500, seed=4)
        assert not np.array_equal(a.values, b.values)

    def test_metadata(self):
        graph = random_planted_graph(3, 2, seed=5)
        ds = generate_var(graph, 240, seed=6, frequency="monthly", target="v1")
        assert ds.frequency is Frequency.MONTHLY
        assert ds.target_name == "v1"
        assert ds.n_timesteps == 240
        assert ds.timestamps[0].day == 1
        daily = generate_var(graph, 240, seed=6, frequency="daily")
        assert (daily.timestamps[1] - daily.timestamps[0]).days == 1

    def test_no_drift(self):
        graph = random_planted_graph(5, 8, seed=7)
        ds = generate_var(graph, 20000, seed=8)
        half = 10000
        for j in range(5):
            col = ds.values[:, j]
            scale = col.std()
            assert abs(col[:half].mean()) < 0.1 * scale
            assert abs(col[half:].mean()) < 0.1 * scale

    def test_unstable_graph_rejected(self):
        graph = PlantedGraph(("x",), (("x", "x", 1, 0.9),))
        # rho = 0.9 is fine; stacking two strong self-loops is not
        assert graph.spectral_radius() < 1.0
        bad = PlantedGraph(("x",), (("x", "x", 1, 0.9), ("x", "x", 2, 0.5)))
        assert bad.spectral_radius() >= 1.0
        with pytest.raises(InputError, match="companion spectral radius .* >= 1"):
            generate_var(bad, 500, seed=0)

    def test_unknown_frequency_names_the_choices(self):
        graph = random_planted_graph(3, 2, seed=9)
        with pytest.raises(
            InputError,
            match=r"frequency must be one of \['daily', 'monthly'\], got 'weekly'",
        ):
            generate_var(graph, 200, seed=0, frequency="weekly")

    @pytest.mark.parametrize("frequency, start, T", [
        ("monthly", dt.date(9999, 12, 1), 100),
        ("daily", dt.date(9999, 12, 1), 100),
    ])
    def test_timestamps_past_the_last_date_rejected(self, frequency, start, T):
        graph = random_planted_graph(3, 2, seed=9)
        with pytest.raises(InputError, match=f"{T} {frequency} steps from 9999-12-01 run past 9999-12-31"):
            generate_var(graph, T, seed=0, frequency=frequency, start=start)

    def test_too_short_rejected(self):
        graph = random_planted_graph(3, 2, seed=9)
        with pytest.raises(InputError, match="T must be >= 100, got 50"):
            generate_var(graph, 50, seed=0)


class TestRandomGraph:
    def test_requested_shape(self):
        graph = random_planted_graph(6, 8, seed=0, max_lag=4)
        assert len(graph.variables) == 6
        assert len(graph.links) == 8
        assert all(1 <= lag <= 4 for _, _, lag, _ in graph.links)
        assert all(0.3 <= abs(c) <= 0.6 for _, _, _, c in graph.links)

    def test_no_self_links_or_duplicates(self):
        for seed in range(20):
            graph = random_planted_graph(5, 6, seed=seed)
            pairs = [(s, t, lag) for s, t, lag, _ in graph.links]
            assert len(set(pairs)) == len(pairs)
            assert all(s != t for s, t, _ in pairs)

    def test_zero_links(self):
        graph = random_planted_graph(4, 0, seed=1)
        assert graph.links == ()
        ds = generate_var(graph, 200, seed=2)
        assert ds.n_variables == 4

    def test_always_stationary(self):
        for seed in range(50):
            graph = random_planted_graph(5, 10, seed=seed)
            assert graph.spectral_radius() < 1.0

    def test_lag_distribution_uniform(self):
        # chi-squared goodness of fit over planted lags across many seeds
        max_lag = 4
        counts = np.zeros(max_lag)
        for seed in range(100):
            graph = random_planted_graph(6, 8, seed=seed, max_lag=max_lag)
            for _, _, lag, _ in graph.links:
                counts[lag - 1] += 1
        _, p = scipy_stats.chisquare(counts)
        assert p > 0.001

    def test_too_many_links_rejected(self):
        # 2 variables at max_lag 2 admit only 4 distinct triples
        with pytest.raises(InputError, match=r"10 links exceed the 4 distinct \(source, target, lag\) triples"):
            random_planted_graph(2, 10, seed=3, max_lag=2)

    def test_cap_counts_triples_not_pairs(self):
        graph = random_planted_graph(2, 3, seed=0, max_lag=2)
        assert len({(s, t, lag) for s, t, lag, _ in graph.links}) == 3
        with pytest.raises(InputError, match="5 links exceed the 4 distinct"):
            random_planted_graph(2, 5, seed=0, max_lag=2)

    @pytest.mark.parametrize("n_vars, n_links, max_lag, message", [
        (0, 0, 2, "n_vars must be >= 1, got 0"),
        (3, -1, 2, "n_links must be >= 0, got -1"),
        (3, 2, 0, "max_lag must be >= 1, got 0"),
    ])
    def test_out_of_domain_request_rejected(self, n_vars, n_links, max_lag, message):
        with pytest.raises(InputError, match=message):
            random_planted_graph(n_vars, n_links, seed=3, max_lag=max_lag)

    def test_unstable_search_gives_up(self):
        with pytest.raises(CausalcastError, match="no stationary graph with 6 links found in 1 tries"):
            random_planted_graph(
                3, 6, seed=0, max_lag=3, coef_range=(0.9, 0.9), max_tries=1
            )

    def test_determinism(self):
        assert random_planted_graph(5, 6, seed=11).links == random_planted_graph(
            5, 6, seed=11
        ).links
