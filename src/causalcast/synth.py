"""Ground-truth data generation: linear stochastic VAR processes with
planted causal graphs.

The planted graph, not the discovery engines, is the oracle in every
recovery test: a graph is sampled (or specified), a stationary VAR is
simulated from it, and discovered links are scored against the plant.
"""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Frequency, TimeSeriesDataset, as_frequency
from .errors import CausalcastError, InputError, at_least, is_real, json_object, parse_errors, typed

BURN_IN = 200

# defaults of random_planted_graph and generate_var, and so of `causalcast synth`
DEFAULT_GRAPH_MAX_LAG = 5
DEFAULT_FREQUENCY = Frequency.MONTHLY
DEFAULT_START = dt.date(1979, 1, 1)


@dataclass(frozen=True)
class PlantedGraph:
    """Planted lagged links (source, target, lag >= 1, coefficient)."""

    variables: tuple[str, ...]
    links: tuple[tuple[str, str, int, float], ...]
    noise_std: tuple[float, ...] = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "links", tuple(self.links))
        if self.noise_std is None:
            object.__setattr__(self, "noise_std", (1.0,) * len(self.variables))
        else:
            object.__setattr__(self, "noise_std", tuple(float(s) for s in self.noise_std))
        if len(self.noise_std) != len(self.variables):
            raise InputError("noise_std length must match variables")
        if any(s <= 0 for s in self.noise_std):
            raise InputError("noise_std entries must be positive")
        names = set(self.variables)
        for s, t, lag, coef in self.links:
            if s not in names or t not in names:
                raise InputError(f"link {s}->{t} references unknown variable")
            at_least("planted lag", lag, 1)
            if not is_real(coef) or not abs(coef) <= 0.9:
                raise InputError(f"coefficients must be real numbers with |c| <= 0.9, got {coef!r}")
        # numpy scalars become Python numbers, so that to_dict is plain JSON
        object.__setattr__(
            self, "links", tuple((s, t, int(l), float(c)) for s, t, l, c in self.links)
        )

    @property
    def max_lag(self) -> int:
        return max((lag for _, _, lag, _ in self.links), default=1)

    def coefficient_tensor(self) -> np.ndarray:
        """Dense (max_lag, N, N) array; entry [l-1, i, j] is the weight of
        variable i at lag l feeding variable j."""
        n = len(self.variables)
        idx = {v: k for k, v in enumerate(self.variables)}
        A = np.zeros((self.max_lag, n, n))
        for s, t, lag, coef in self.links:
            A[lag - 1, idx[s], idx[t]] += coef
        return A

    def spectral_radius(self) -> float:
        A = self.coefficient_tensor()
        L, n, _ = A.shape
        companion = np.zeros((n * L, n * L))
        for l in range(L):
            companion[:n, l * n : (l + 1) * n] = A[l].T
        if L > 1:
            companion[n:, : n * (L - 1)] = np.eye(n * (L - 1))
        return float(np.max(np.abs(np.linalg.eigvals(companion))))

    def is_stationary(self) -> bool:
        return self.spectral_radius() < 1.0

    def parent_variables_of(self, variable: str) -> set[str]:
        return {s for s, t, _, _ in self.links if t == variable}

    def to_dict(self) -> dict:
        return {
            "variables": list(self.variables),
            "max_lag": self.max_lag,
            "links": [
                {"source": s, "target": t, "lag": lag, "coefficient": coef}
                for s, t, lag, coef in self.links
            ],
            "noise_std": list(self.noise_std),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PlantedGraph":
        with parse_errors("planted graph"):
            return cls(
                variables=tuple(d["variables"]),
                links=tuple(
                    (l["source"], l["target"], typed(l["lag"], "lag", int),
                     typed(l["coefficient"], "coefficient", float))
                    for l in d["links"]
                ),
                noise_std=(
                    tuple(typed(s, "noise_std", float) for s in d["noise_std"])
                    if d.get("noise_std") else None
                ),
            )

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "PlantedGraph":
        with json_object(path) as doc:
            return cls.from_dict(doc)


def generate_var(
    graph: PlantedGraph,
    T: int,
    seed: int,
    frequency: Frequency | str = DEFAULT_FREQUENCY,
    start: dt.date = DEFAULT_START,
    target: str | None = None,
) -> TimeSeriesDataset:
    """Simulate T steps of the planted VAR after a 200-step burn-in.

    X_t[j] = sum over links (i -> j, lag l) of coef * X_{t-l}[i] + noise.
    Deterministic for a fixed seed.
    """
    if not graph.is_stationary():
        raise InputError(
            f"companion spectral radius {graph.spectral_radius():.4f} >= 1"
        )
    at_least("T", T, 100)
    frequency = as_frequency(frequency)
    try:
        timestamps = frequency.dates(start, T)
    except ValueError:
        raise InputError(
            f"{T} {frequency.value} steps from {start.isoformat()} run past {dt.date.max.isoformat()}"
        ) from None
    target = target if target is not None else graph.variables[-1]

    rng = np.random.default_rng(seed)
    n = len(graph.variables)
    A = graph.coefficient_tensor()
    L = A.shape[0]
    total = T + BURN_IN
    noise = rng.standard_normal((total, n)) * np.asarray(graph.noise_std)
    x = np.zeros((total, n))
    for t in range(total):
        acc = noise[t].copy()
        for l in range(1, min(L, t) + 1):
            acc += A[l - 1].T @ x[t - l]
        x[t] = acc

    return TimeSeriesDataset(
        variable_names=graph.variables,
        timestamps=timestamps,
        values=x[BURN_IN:],
        frequency=frequency,
        target_name=target,
    )


def random_planted_graph(
    n_vars: int,
    n_links: int,
    seed: int,
    max_lag: int = DEFAULT_GRAPH_MAX_LAG,
    coef_range: tuple[float, float] = (0.3, 0.6),
    max_tries: int = 1000,
) -> PlantedGraph:
    """Sample a stationary graph with distinct (source, target, lag) triples.

    Coefficients are uniform over +-[coef_range]; unstable draws are
    rejected and resampled up to ``max_tries`` times.
    """
    for name, value, least in (("n_vars", n_vars, 1), ("n_links", n_links, 0), ("max_lag", max_lag, 1)):
        at_least(name, value, least)
    if n_links > n_vars * (n_vars - 1) * max_lag:
        raise InputError(
            f"{n_links} links exceed the {n_vars * (n_vars - 1) * max_lag} distinct "
            f"(source, target, lag) triples available"
        )
    variables = tuple(f"v{i}" for i in range(n_vars))
    rng = np.random.default_rng(seed)
    triples_pool = [
        (i, j, lag)
        for i in range(n_vars)
        for j in range(n_vars)
        if i != j
        for lag in range(1, max_lag + 1)
    ]
    for _ in range(max_tries):
        chosen = rng.choice(len(triples_pool), size=n_links, replace=False)
        links = []
        for k in chosen:
            i, j, lag = triples_pool[k]
            coef = rng.uniform(*coef_range) * rng.choice([-1.0, 1.0])
            links.append((variables[i], variables[j], lag, coef))
        graph = PlantedGraph(variables=variables, links=tuple(links))
        if graph.is_stationary():
            return graph
    raise CausalcastError(
        f"no stationary graph with {n_links} links found in {max_tries} tries"
    )
