"""PCMCI+ causal discovery over lagged and contemporaneous links.

Three phases compose into :func:`run_pcmci_plus`:

1. Per-variable lagged condition selection (:func:`pc1_condition_selection`)
   iteratively prunes the candidate set {(variable, lag) : lag in
   1..max_lag}, at each round conditioning every survivor on the q
   strongest other survivors.
2. Momentary conditional independence (:func:`mci_test`) re-tests every
   surviving lagged candidate conditioned on both endpoints' discovered
   parent sets, the source's set shifted back by the link lag.
3. A contemporaneous phase prunes same-timestep adjacencies conditioned
   on both endpoints' lagged parents plus growing subsets of other
   contemporaneous neighbors, then orients what the unshielded-collider
   rule and Meek rule 1 can fix; the rest stays unoriented.

All ordering is deterministic: candidate ties break by (variable index,
lag), so a fixed dataset, max_lag, and alpha reproduce the graph exactly.
The phases pass the core's nodes (variable index, lag); variable names
attach only where a :class:`CausalLink` is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import TimeSeriesDataset
from .errors import InputError, at_least, parse_errors, typed
from .stats import (
    DEFAULT_ALPHA,
    DEFAULT_MAX_LAG,
    LaggedCrossProducts,
    Node,
    check_alpha,
    digraph_dot,
)

# Daily-scale runs keep at most this many most recent timesteps unless
# the caller overrides (0 keeps every step): on long daily panels the cap
# bounds the rows that discovery reads.
DEFAULT_MAX_SAMPLES = 8000


@dataclass(frozen=True)
class CausalLink:
    source: str
    target: str
    lag: int
    statistic: float
    p_value: float
    oriented: bool = True

    def __post_init__(self):
        at_least("lag", self.lag, 0)
        object.__setattr__(self, "lag", int(self.lag))
        if self.lag >= 1 and not self.oriented:
            raise InputError("lagged links are always oriented by time order")
        if self.lag == 0 and self.source == self.target:
            raise InputError("no self-links at lag 0")

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "target": self.target,
            "lag": self.lag,
            "stat": self.statistic,
            "p": self.p_value,
            "oriented": self.oriented,
        }


@dataclass(frozen=True)
class CausalGraph:
    variables: tuple[str, ...]
    max_lag: int
    links: tuple[CausalLink, ...]
    alpha: float
    # work done: CI tests over all three phases, and the most distinct
    # conditioning columns any one of them used
    ci_tests: int = 0
    max_cond_dim: int = 0

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "links", tuple(self.links))
        seen = set()
        for link in self.links:
            if link.p_value > self.alpha:
                raise InputError(
                    f"link {link.source}->{link.target} (lag {link.lag}) has "
                    f"p = {link.p_value} > alpha = {self.alpha}"
                )
            key = (link.source, link.target, link.lag)
            if key in seen:
                raise InputError(f"duplicate link {key}")
            seen.add(key)

    def drivers(self, target: str) -> tuple[str, ...]:
        """``target`` plus the other end of every link into it (any lag;
        an unoriented lag-0 link counts both ways), in variable order."""
        chosen = {target}
        for link in self.links:
            if link.target == target:
                chosen.add(link.source)
            elif not link.oriented and link.source == target:
                chosen.add(link.target)
        return tuple(v for v in self.variables if v in chosen)

    def to_dict(self) -> dict:
        return {
            "method": "pcmci+",
            "variables": list(self.variables),
            "max_lag": self.max_lag,
            "alpha": self.alpha,
            "ci_tests": self.ci_tests,
            "max_cond_dim": self.max_cond_dim,
            "links": [l.to_dict() for l in self.links],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CausalGraph":
        with parse_errors("pcmci+ graph"):
            return cls(
                variables=tuple(d["variables"]),
                max_lag=typed(d["max_lag"], "max_lag", int),
                links=tuple(
                    CausalLink(
                        source=l["source"],
                        target=l["target"],
                        lag=typed(l["lag"], "lag", int),
                        statistic=typed(l["stat"], "stat", float),
                        p_value=typed(l["p"], "p", float),
                        oriented=typed(l.get("oriented", True), "oriented", bool),
                    )
                    for l in d["links"]
                ),
                alpha=typed(d["alpha"], "alpha", float),
                **{key: typed(d[key], key, int)
                   for key in ("ci_tests", "max_cond_dim") if key in d},
            )

    def to_dot(self) -> str:
        """Graphviz digraph with lag-labeled edges; unoriented lag-0
        links are rendered without an arrowhead."""
        return digraph_dot(self.variables, (
            (link.source, link.target,
             f'label="lag {link.lag}"' + ("" if link.oriented else ", dir=none"))
            for link in self.links
        ))


# ---------------------------------------------------------------------------
# phase 1: lagged condition selection
# ---------------------------------------------------------------------------

def pc1_condition_selection(
    cross: LaggedCrossProducts,
    target: int,
    pc_alpha: float = DEFAULT_ALPHA,
) -> list[Node]:
    """Iteratively prune the lagged parent candidates of variable ``target``.

    Round q tests each surviving candidate (i, lag) against the target at
    time t, conditioned on the q strongest *other* survivors (ranked by
    absolute statistic from the previous round, ties by variable index
    then lag).  Survivors with p > pc_alpha after a full sweep are
    removed; rounds stop once q exceeds the number of remaining other
    candidates.  Returns survivors sorted by |statistic| descending.
    ``cross`` is the lagged panel :func:`run_pcmci_plus` builds once for
    all three phases.
    """
    n_vars = cross.values.shape[1]
    survivors = [(i, lag) for i in range(n_vars) for lag in range(1, cross.max_lag + 1)]
    stat: dict[Node, float] = {}
    pval: dict[Node, float] = {}

    q = 0
    while q <= len(survivors) - 1:
        order = _rank(survivors, stat)
        # each candidate is conditioned on the first q ranked survivors
        # other than itself: one shared set for all but the first q
        head = order[:q]
        rest = [c for c in survivors if c not in head]
        calls = [(rest, head)] + [([c], [o for o in order[: q + 1] if o != c]) for c in head]
        for xs, conds in calls:
            for cand, s, p in zip(xs, *cross.test(xs, (target, 0), conds)):
                stat[cand], pval[cand] = float(s), float(p)
        survivors = [c for c in survivors if pval[c] <= pc_alpha]
        q += 1

    return _rank(survivors, stat)


def _rank(candidates: list[Node], stat: dict[Node, float]) -> list[Node]:
    return sorted(candidates, key=lambda c: (-abs(stat.get(c, np.inf)), c[0], c[1]))


# ---------------------------------------------------------------------------
# phase 2: momentary conditional independence
# ---------------------------------------------------------------------------

def mci_test(
    cross: LaggedCrossProducts,
    link: tuple[int, int, int],
    parents_of_target: list[Node],
    parents_of_source: list[Node],
) -> tuple[float, float]:
    """MCI test of (source i at t - lag) vs (target j at t), ``link`` = (i, lag, j).

    Conditions on the target's parents minus the tested link, plus the
    source's parents shifted back by the link lag; samples align over
    t = max_lag + lag .. T-1 so every conditioning node is observable.
    """
    i, lag, j = link
    if lag < 0 or lag > cross.max_lag:
        raise InputError(f"link lag {lag} outside 0..{cross.max_lag}")
    conds = [node for node in parents_of_target if node != (i, lag)] + [
        (k, k_lag + lag) for k, k_lag in parents_of_source
    ]
    (stat,), (p,) = cross.test([(i, lag)], (j, 0), conds, start=cross.max_lag + lag)
    return float(stat), float(p)


# ---------------------------------------------------------------------------
# phase 3: contemporaneous skeleton and orientation
# ---------------------------------------------------------------------------

def contemporaneous_phase(
    cross: LaggedCrossProducts,
    names: tuple[str, ...],
    parents: list[list[Node]],
    pc_alpha: float = DEFAULT_ALPHA,
) -> list[CausalLink]:
    """Discover and (partially) orient same-timestep links.

    Every pair starts adjacent.  Round q tests each surviving pair
    conditioned on both endpoints' full lagged parent sets (``parents[i]``
    for variable i) plus the q strongest other contemporaneous neighbors;
    pairs with p > pc_alpha drop out, remembering that neighbor subset as
    their separating set.  Surviving links are oriented by unshielded
    colliders and Meek rule 1 where possible; ``names`` labels them.
    """
    N = len(names)
    if N < 2:
        return []

    adjacent: set[tuple[int, int]] = {(i, j) for i in range(N) for j in range(i + 1, N)}
    p_max: dict[tuple[int, int], float] = {}
    last_stat: dict[tuple[int, int], float] = {}
    sepset: dict[tuple[int, int], frozenset[int]] = {}

    q = 0
    while True:
        pairs = sorted(adjacent)
        neighbors = {i: set() for i in range(N)}
        for a, b in pairs:
            neighbors[a].add(b)
            neighbors[b].add(a)
        tested_any = False
        removals = []
        for a, b in pairs:
            others = sorted(
                (neighbors[a] | neighbors[b]) - {a, b},
                key=lambda k: (-abs(last_stat.get(_pair(k, a), 0.0))
                               - abs(last_stat.get(_pair(k, b), 0.0)), k),
            )
            if q > len(others):
                continue
            tested_any = True
            subset = others[:q]
            (stat,), (p,) = cross.test(
                [(a, 0)], (b, 0), parents[a] + parents[b] + [(k, 0) for k in subset]
            )
            last_stat[(a, b)] = float(stat)
            p_max[(a, b)] = max(p_max.get((a, b), 0.0), float(p))
            if p > pc_alpha:
                removals.append((a, b))
                sepset[(a, b)] = frozenset(subset)
        for pair in removals:
            adjacent.discard(pair)
        if not tested_any:
            break
        q += 1

    orientation = _orient(sorted(adjacent), sepset, N)
    links = []
    for a, b in sorted(adjacent):
        direction = orientation.get((a, b))
        src, dst = (a, b) if direction is None or direction == (a, b) else (b, a)
        links.append(
            CausalLink(
                source=names[src],
                target=names[dst],
                lag=0,
                statistic=last_stat[(a, b)],
                p_value=p_max[(a, b)],
                oriented=direction is not None,
            )
        )
    return links


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _orient(
    pairs: list[tuple[int, int]],
    sepset: dict[tuple[int, int], frozenset[int]],
    n_vars: int,
) -> dict[tuple[int, int], tuple[int, int] | None]:
    """Unshielded-collider rule then Meek rule 1; conflicts stay unoriented.

    Returns {undirected pair: (source, target)} with None for pairs no
    rule could fix.
    """
    adjacent = set(pairs)
    oriented: dict[tuple[int, int], tuple[int, int]] = {}
    conflicted: set[tuple[int, int]] = set()

    def propose(src: int, dst: int) -> None:
        key = _pair(src, dst)
        if key in conflicted:
            return
        if key in oriented and oriented[key] != (src, dst):
            del oriented[key]
            conflicted.add(key)
            return
        oriented[key] = (src, dst)

    # unshielded colliders a -> k <- b for non-adjacent {a, b}
    for k in range(n_vars):
        partners = sorted(
            x for x in range(n_vars) if x != k and _pair(x, k) in adjacent
        )
        for ai in range(len(partners)):
            for bi in range(ai + 1, len(partners)):
                a, b = partners[ai], partners[bi]
                if _pair(a, b) in adjacent:
                    continue
                if k not in sepset.get(_pair(a, b), frozenset()):
                    propose(a, k)
                    propose(b, k)

    # Meek rule 1: a -> k and k - b with a, b non-adjacent gives k -> b
    changed = True
    while changed:
        changed = False
        for key in sorted(adjacent):
            if key in oriented or key in conflicted:
                continue
            for k, b in (key, (key[1], key[0])):
                if any(
                    a not in (k, b)
                    and oriented.get(_pair(a, k)) == (a, k)
                    and _pair(a, b) not in adjacent
                    for a in range(n_vars)
                ):
                    # key was free, so propose orients or conflicts it
                    propose(k, b)
                    changed = True
                    break

    return {key: oriented.get(key) for key in adjacent}


# ---------------------------------------------------------------------------
# full composition
# ---------------------------------------------------------------------------

def run_pcmci_plus(
    dataset: TimeSeriesDataset,
    max_lag: int = DEFAULT_MAX_LAG,
    pc_alpha: float = DEFAULT_ALPHA,
    max_samples: int = DEFAULT_MAX_SAMPLES,
) -> CausalGraph:
    """PC1 per variable, MCI over surviving lagged candidates, then the
    contemporaneous phase; keeps links with p <= pc_alpha.  Runs on the
    ``max_samples`` most recent steps only (0 keeps every step)."""
    check_alpha(pc_alpha)
    at_least("max_samples", max_samples, 0)
    names = dataset.variable_names
    values = dataset.values[-max_samples:] if max_samples else dataset.values
    cross = LaggedCrossProducts(values, max_lag)
    parents = [pc1_condition_selection(cross, j, pc_alpha) for j in range(len(names))]

    links: list[CausalLink] = []
    for j, target in enumerate(names):
        for i, lag in parents[j]:
            stat, p = mci_test(cross, (i, lag, j), parents[j], parents[i])
            if p <= pc_alpha:
                links.append(CausalLink(
                    source=names[i], target=target, lag=lag, statistic=stat, p_value=p
                ))

    links.extend(contemporaneous_phase(cross, names, parents, pc_alpha))
    return CausalGraph(
        variables=names,
        max_lag=max_lag,
        links=tuple(links),
        alpha=pc_alpha,
        ci_tests=cross.tests,
        max_cond_dim=cross.max_cond_dim,
    )
