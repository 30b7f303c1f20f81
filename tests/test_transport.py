import copy
import itertools
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from rtmclab.config import load_config
from rtmclab.driver import sample_path
from rtmclab.errors import (
    AdmissibilityError,
    ConfigError,
    ConvergenceError,
    InvariantViolation,
)
from rtmclab.potentials import constant_potential, log_matrix_potential, table_potential
from rtmclab.shifts import FiberStructure, admissible_words, canonical_prefixes, word_index
from rtmclab.transfer import (
    AtomicMeasure,
    CylinderFunction,
    RpfTriple,
    dual_apply,
    invariant_measures,
    normalize_potential,
    random_lipschitz,
    rpf_solve,
    transfer_power,
)
from rtmclab import shifts, transfer, transport
from rtmclab.transport import (
    Metric,
    build_coupling,
    certify_event,
    contraction_constants,
    k_factor,
    lipschitz_dual,
    return_sequences,
    verify_decay,
    verify_main_lemma,
    wasserstein,
)

from conftest import (
    canonical_walk,
    dense_plan,
    full_shift,
    golden_mean_shift,
    metric_dist,
    stationary_system,
    two_state_iid,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def full2():
    system = stationary_system()
    path = sample_path(system, seed=1, max_radius=2 ** 16)
    return full_shift(system, 2), path


@pytest.fixture(scope="module")
def full2_cert(full2):
    """Normalized 2-letter chain with certificate, event and sequences."""
    fibers, path = full2
    phi = log_matrix_potential(fibers, [np.array([[0.3, 0.6], [0.7, 0.4]])], r=0.2)
    triple = rpf_solve(phi, fibers, path, depth=5, horizon=80, window=(-160, 160))
    tilde = normalize_potential(phi, triple)
    cert = contraction_constants(tilde, fibers, path, beta=0.5, window=(-140, 140))
    cert = certify_event(cert, B=1.0, C=min(cert.C[q] for q in cert.C))
    cert = return_sequences(cert, count=12, mode="markov")
    return fibers, path, phi, triple, tilde, cert


# ---------------------------------------------------------------------------
# oracles


def spanning_tree_transport_oracle(mu_w, nu_w, cost):
    """Exact LP oracle: enumerate basic feasible solutions over spanning trees.

    Every vertex of the transportation polytope is the unique flow on a
    spanning tree of the bipartite supply/demand graph; minimize over all
    feasible ones.
    """
    n, m = len(mu_w), len(nu_w)
    edges = [(i, j) for i in range(n) for j in range(m)]
    best = math.inf
    for tree in itertools.combinations(edges, n + m - 1):
        adj = {("s", i): [] for i in range(n)}
        adj.update({("t", j): [] for j in range(m)})
        for i, j in tree:
            adj[("s", i)].append(("t", j))
            adj[("t", j)].append(("s", i))
        # connectivity check
        seen = {("s", 0)}
        stack = [("s", 0)]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) != n + m:
            continue
        # solve the unique flow on the tree by peeling leaves
        flows = {}
        supply = {("s", i): mu_w[i] for i in range(n)}
        supply.update({("t", j): -nu_w[j] for j in range(m)})
        rem = {k: list(v) for k, v in adj.items()}
        order = [k for k in rem if len(rem[k]) == 1]
        alive = set(rem)
        ok = True
        while order:
            leaf = order.pop()
            if leaf not in alive or not rem[leaf]:
                continue
            other = rem[leaf][0]
            amount = supply[leaf] if leaf[0] == "s" else -supply[leaf]
            edge = (leaf[1], other[1]) if leaf[0] == "s" else (other[1], leaf[1])
            flows[edge] = flows.get(edge, 0.0) + amount
            supply[other] += supply[leaf]
            supply[leaf] = 0.0
            alive.discard(leaf)
            rem[other].remove(leaf)
            rem[leaf] = []
            if len(rem[other]) == 1:
                order.append(other)
        if any(f < -1e-12 for f in flows.values()):
            ok = False
        if not ok:
            continue
        val = sum(f * cost[e] for e, f in flows.items())
        best = min(best, val)
    return best


def dense_cost(metric, a, b):
    """metric_dist between every prefix row of a and every prefix row of b: the level
    at the first index where the two rows differ, compared letter by letter."""
    eq = a[:, None, :] == b[None, :, :]
    first = np.where(eq.all(axis=-1), a.shape[1], eq.argmin(axis=-1))
    return metric.levels(a.shape[1])[first]


def lp_transport_oracle(mu, nu, metric):
    """The transportation program solved by HiGHS on a cost matrix of metric_dist calls
    on the canonical walks of the atoms, all read to the longest atom.

    Returns the optimal value and the cost matrix, rows and columns in sorted
    word order as in wasserstein's plan.
    """
    sw, tw = sorted(mu.weights), sorted(nu.weights)
    swt = np.array([mu.weights[w] for w in sw])
    twt = np.array([nu.weights[w] for w in tw])
    depth = max(len(w) for w in sw + tw)
    sp = [canonical_walk(mu.fibers, mu.path, mu.anchor, w, depth) for w in sw]
    tp = [canonical_walk(nu.fibers, nu.path, nu.anchor, w, depth) for w in tw]
    n, m = len(sw), len(tw)
    cost = np.array([[metric_dist(metric, x, y) for y in tp] for x in sp]).reshape(n, m)
    rows, cols = [], []
    for i in range(n):
        for j in range(m):
            rows += [i, n + j]
            cols += [i * m + j] * 2
    a_eq = sparse.csc_matrix((np.ones(len(rows)), (rows, cols)), shape=(n + m, n * m))
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([swt, twt]),
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.success, res.message
    return float(res.fun), cost


def linprog_highs(cost, lo, hi, half, bounds):
    """transport._highs through public linprog: the same rows, as a sparse A_ub, and the
    same options; a failed solve raises ConvergenceError with linprog's message."""
    pair = len(lo)
    a_ub = sparse.csc_matrix(
        (np.tile([1.0, -1.0, -1.0, 1.0], pair),
         (np.repeat(np.arange(2 * pair), 2), np.stack([lo, hi, lo, hi], axis=1).ravel())),
        shape=(2 * pair, len(cost)),
    )
    res = linprog(cost, A_ub=a_ub, b_ub=np.repeat(half, 2), bounds=bounds, method="highs",
                  options=transport._LP_OPTIONS)
    if not res.success:
        raise ConvergenceError(f"dual LP failed: {res.message}")
    return res.fun, res.x


def pairwise_kr_oracle(mu, nu, metric):
    """The Kantorovich-Rubinstein program with one row pair per pair of keys:
    f_i - f_j <= d_ij and f_j - f_i <= d_ij over the union of supports, solved by
    HiGHS, the witness extended by the minimal 1-Lipschitz extension."""
    if mu.anchor != nu.anchor:
        raise AdmissibilityError("measures on different fibers")
    depth = max(mu.depth, nu.depth)
    net: dict = {}
    for measure, sign in ((mu, 1.0), (nu, -1.0)):
        words = list(measure.weights)
        for w, key in zip(words, map(tuple, point_prefix_oracle(measure, words, depth).tolist())):
            net[key] = net.get(key, 0.0) + sign * measure.weights[w]
    keys = sorted(net)
    k = len(keys)
    if k > transport.LP_CAP:
        raise ConfigError(f"atom count {k} beyond the LP cap {transport.LP_CAP}")
    key_rows = np.array(keys, dtype=np.int64).reshape(k, depth)
    cost = dense_cost(metric, key_rows, key_rows)
    c_obj = -np.array([net[key] for key in keys])
    # rows x_i - x_j <= d_ij and x_j - x_i <= d_ij, interleaved pair by pair
    iu, ju = np.triu_indices(k, 1)
    pos = np.stack([iu, ju], axis=1).ravel()
    neg = np.stack([ju, iu], axis=1).ravel()
    row = len(pos)
    bounds = [(0.0, 0.0)] + [(None, None)] * (k - 1)  # pin one value, the rest free
    if row:
        a_ub = sparse.csc_matrix(
            (np.tile([1.0, -1.0], row),
             (np.repeat(np.arange(row), 2), np.stack([pos, neg], axis=1).ravel())),
            shape=(row, k),
        )
        res = linprog(c_obj, A_ub=a_ub, b_ub=np.repeat(cost[iu, ju], 2), bounds=bounds,
                      method="highs", options=transport._LP_OPTIONS)
    else:
        res = linprog(c_obj, bounds=bounds, method="highs", options=transport._LP_OPTIONS)
    if not res.success:
        raise ConvergenceError(f"dual LP failed: {res.message}")
    value = -float(res.fun)
    fibers, path, anchor = mu.fibers, mu.path, mu.anchor
    words = admissible_words(fibers, path, anchor, depth)
    word_rows = np.array(words, dtype=np.int64).reshape(len(words), depth)
    # minimal 1-Lipschitz extension; on the atoms themselves it is the LP value
    extension = (res.x[None, :] + dense_cost(metric, word_rows, key_rows)).min(axis=1)
    f_on_atoms = dict(zip(keys, res.x))
    values = {
        w: float(f_on_atoms[w]) if w in f_on_atoms else float(ext)
        for w, ext in zip(words, extension)
    }
    witness = CylinderFunction(fibers, path, anchor, depth, values)
    return value, witness


def star_kr_oracle(mu, nu, metric):
    """The Kantorovich-Rubinstein program in star form: one free centre per length-L
    cylinder (L < D) holding two or more keys, and the rows |f_x - c| <= g(L)/2 for
    every key x of it, 2 rows per (key, enclosing cylinder); solved by HiGHS.
    Returns the value and the row count."""
    if mu.anchor != nu.anchor:
        raise AdmissibilityError("measures on different fibers")
    fibers, path, anchor = mu.fibers, mu.path, mu.anchor
    depth = max(mu.depth, nu.depth)
    points = canonical_prefixes(fibers, path, anchor, [*mu.weights, *nu.weights], depth)
    k = len(set(points))
    index = word_index(fibers, path, anchor, depth)
    words = index.words
    leaf = np.array([index.rows[x] for x in points], dtype=np.intp)
    signed = np.array([*mu.weights.values(), *(-w for w in nu.weights.values())])
    keyed = np.bincount(leaf, minlength=len(words)) > 0
    net = np.bincount(leaf, weights=signed, minlength=len(words))[keyed]
    _, lcp = transport._tree(np.array(words, dtype=np.int64).reshape(len(words), depth))
    cyl = np.cumsum([lcp < length for length in range(depth + 1)], axis=1) - 1
    g = metric.levels(depth)
    member, centre, half = [], [], []
    n_centres = 0
    for length in range(depth):
        ids = cyl[length][keyed]
        shared = np.bincount(ids) >= 2
        inside = np.flatnonzero(shared[ids])
        member.append(inside)
        centre.append(k + n_centres + (np.cumsum(shared) - 1)[ids[inside]])
        half.append(np.full(len(inside), g[length] / 2.0))
        n_centres += int(shared.sum())
    member, centre, half = (np.concatenate(a) for a in (member, centre, half))
    c_obj = np.concatenate([-net, np.zeros(n_centres)])
    pair = len(member)
    bounds = [(0.0, 0.0)] + [(None, None)] * (k - 1 + n_centres)
    if pair:
        a_ub = sparse.csc_matrix(
            (np.tile([1.0, -1.0, -1.0, 1.0], pair),
             (np.repeat(np.arange(2 * pair), 2),
              np.stack([member, centre, member, centre], axis=1).ravel())),
            shape=(2 * pair, k + n_centres),
        )
        res = linprog(c_obj, A_ub=a_ub, b_ub=np.repeat(half, 2), bounds=bounds,
                      method="highs", options=transport._LP_OPTIONS)
    else:
        res = linprog(c_obj, bounds=bounds, method="highs", options=transport._LP_OPTIONS)
    if not res.success:
        raise ConvergenceError(f"dual LP failed: {res.message}")
    return -float(res.fun), 2 * pair


def greedy_plan_oracle(order, lcp, depth, weights, n, m):
    """The greedy ultrametric plan as a dense n x m array, level by level: at each
    length from `depth` down to 0, the unmatched mass of sibling cylinders is
    merged in lexicographic order and matched greedily in order."""
    plan = np.zeros((n, m))

    def match(src, tgt):
        i = j = 0
        while i < len(src) and j < len(tgt):
            a, ma = src[i]
            b, mb = tgt[j]
            plan[a, b] += min(ma, mb)
            if ma < mb:
                tgt[j] = (b, mb - ma)
                i += 1
            elif mb < ma:
                src[i] = (a, ma - mb)
                j += 1
            else:
                i += 1
                j += 1
        return src[i:], tgt[j:]

    starts = list(range(len(order)))
    groups = [([(a, weights[a])], []) if a < n else ([], [(a - n, weights[a])])
              for a in order.tolist()]
    for length in range(depth, -1, -1):
        merged, merged_starts = [], []
        for p, (src, tgt) in zip(starts, groups):
            if merged and lcp[p] >= length:
                merged[-1][0].extend(src)
                merged[-1][1].extend(tgt)
            else:
                merged.append((src, tgt))
                merged_starts.append(p)
        groups = [match(src, tgt) for src, tgt in merged]
        starts = merged_starts
    return plan


def dict_wasserstein_oracle(mu, nu, metric):
    """wasserstein's former dict path: the sorted `weights` keys, read through their
    canonical walks to the longest key, the closed form and its duals on that tree, and
    the level-by-level plan.  Returns (value, source keys, target keys, dense plan,
    source duals, target duals, dual gap)."""
    sw, tw = sorted(mu.weights), sorted(nu.weights)
    swt = np.array([mu.weights[w] for w in sw])
    twt = np.array([nu.weights[w] for w in tw])
    depth = max(len(w) for w in sw + tw)
    src, tgt = point_prefix_oracle(mu, sw, depth), point_prefix_oracle(nu, tw, depth)
    n, m = len(sw), len(tw)
    signed = np.concatenate([swt, -twt])
    order, lcp = transport._tree(np.vstack([src, tgt]))
    g = metric.levels(depth)
    value = 0.0
    f = np.zeros(n + m)
    for k in range(depth):
        step = float(g[k] - g[k + 1]) / 2.0
        if step == 0.0:
            continue
        cyl = np.cumsum(lcp < k + 1) - 1
        excess = np.bincount(cyl, weights=signed[order])
        value += step * float(np.abs(excess).sum())
        f[order] += step * np.sign(excess)[cyl]
    plan = greedy_plan_oracle(order, lcp, depth, swt.tolist() + twt.tolist(), n, m)
    u, v = f[:n], -f[n:]
    return value, sw, tw, plan, u, v, abs(value - float(u @ swt + v @ twt))


def dict_kr_oracle(mu, nu, metric):
    """lipschitz_dual's former dict path: the `weights` keys of both measures read
    through their canonical walks to D = max(mu.depth, nu.depth) and keyed by their
    rows in the depth-D word index, then the program along the cylinder tree's edges
    and the minimal extension of its witness.  Returns the value and the witness."""
    fibers, path, anchor = mu.fibers, mu.path, mu.anchor
    depth = max(mu.depth, nu.depth)
    points = [tuple(x) for m in (mu, nu)
              for x in point_prefix_oracle(m, list(m.weights), depth).tolist()]
    index = word_index(fibers, path, anchor, depth)
    words = index.words
    leaf = np.array([index.rows[x] for x in points], dtype=np.intp)
    signed = np.array([*mu.weights.values(), *(-w for w in nu.weights.values())])
    keyed = np.bincount(leaf, minlength=len(words)) > 0
    k = int(np.count_nonzero(keyed))
    net = np.bincount(leaf, weights=signed, minlength=len(words))[keyed]
    _, lcp = transport._tree(index.array)
    cyl = np.cumsum([lcp < length for length in range(depth + 1)], axis=1) - 1
    g = metric.levels(depth)
    deepest = np.zeros(k, dtype=np.intp)
    centre = np.zeros(k, dtype=np.intp)
    lo, hi, half = [], [], []
    n_centres = 0
    for length in range(depth):
        ids = cyl[length][keyed]
        shared = np.bincount(ids) >= 2
        inside = shared[ids]
        if not inside.any():
            break
        here = np.where(inside, k + n_centres + (np.cumsum(shared) - 1)[ids], -1)
        if length:
            first = np.flatnonzero(inside & (np.diff(here, prepend=-1) != 0))
            lo.append(here[first])
            hi.append(above[first])
            half.append(np.full(len(first), (g[length - 1] - g[length]) / 2.0))
        deepest[inside], centre[inside] = length, here[inside]
        n_centres += int(shared.sum())
        above = here
    if n_centres:
        lo.insert(0, np.arange(k))
        hi.insert(0, centre)
        half.insert(0, g[deepest] / 2.0)
    pair = sum(map(len, lo))
    c_obj = np.concatenate([-net, np.zeros(n_centres)])
    bounds = np.full((k + n_centres, 2), [-np.inf, np.inf])
    bounds[0] = 0.0
    if pair:
        lo, hi = np.concatenate(lo), np.concatenate(hi)
        a_ub = sparse.csc_matrix(
            (np.tile([1.0, -1.0, -1.0, 1.0], pair),
             (np.repeat(np.arange(2 * pair), 2),
              np.stack([lo, hi, lo, hi], axis=1).ravel())),
            shape=(2 * pair, k + n_centres),
        )
        res = linprog(c_obj, A_ub=a_ub, b_ub=np.repeat(np.concatenate(half), 2),
                      bounds=bounds, method="highs", options=transport._LP_OPTIONS)
    else:
        res = linprog(c_obj, bounds=bounds, method="highs", options=transport._LP_OPTIONS)
    assert res.success, res.message
    f_keys = res.x[:k]
    extension = np.full(len(words), np.inf)
    for length, ids in enumerate(cyl):
        least = np.full(ids[-1] + 1, np.inf)
        np.minimum.at(least, ids[keyed], f_keys)
        extension = np.minimum(extension, g[length] + least[ids])
    extension[keyed] = f_keys
    return -float(res.fun), dict(zip(words, extension.tolist()))


def make_measure(fibers, path, anchor, depth, weights):
    words = admissible_words(fibers, path, anchor, depth)
    assert len(words) == len(weights)
    return AtomicMeasure(fibers, path, anchor, depth,
                         {w: float(x) for w, x in zip(words, weights)})


class TestWasserstein:
    def test_identical_measures(self, full2):
        fibers, path = full2
        mu = AtomicMeasure.uniform(fibers, path, 0, 2)
        value, plan = wasserstein(mu, mu, Metric("raw", 0.5))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_two_diracs(self, full2):
        fibers, path = full2
        x = AtomicMeasure.dirac(fibers, path, 0, (1, 1))
        y = AtomicMeasure.dirac(fibers, path, 0, (1, 2))
        value, plan = wasserstein(x, y, Metric("raw", 0.5))
        assert value == pytest.approx(0.5, abs=1e-12)
        assert dense_plan(plan).shape == (1, 1)
        value2, _ = wasserstein(x, y, Metric("adjusted", 0.5, alpha=4.0))
        assert value2 == pytest.approx(1.0, abs=1e-12)

    def test_matches_spanning_tree_oracle(self, full2):
        fibers, path = full2
        rng = np.random.default_rng(3)
        metric = Metric("raw", 0.5)
        for _ in range(6):
            raw = rng.random(4) + 0.05
            mu = make_measure(fibers, path, 0, 2, raw / raw.sum())
            raw2 = rng.random(4) + 0.05
            nu = make_measure(fibers, path, 0, 2, raw2 / raw2.sum())
            value, plan = wasserstein(mu, nu, metric)
            words, weights = zip(*sorted(mu.weights.items()))
            words2, weights2 = zip(*sorted(nu.weights.items()))
            pts = [canonical_walk(fibers, path, 0, w, 2) for w in words]
            pts2 = [canonical_walk(fibers, path, 0, w, 2) for w in words2]
            cost = {(i, j): metric_dist(metric, x, y)
                    for i, x in enumerate(pts) for j, y in enumerate(pts2)}
            oracle = spanning_tree_transport_oracle(list(weights), list(weights2), cost)
            assert value == pytest.approx(oracle, abs=1e-10)

    def test_mass_mismatch_rejected(self, full2):
        fibers, path = full2
        mu = AtomicMeasure.uniform(fibers, path, 0, 1)
        for weights in ({(1,): 0.7, (2,): 0.2}, {(1,): 0.2, (2,): 0.7}):
            bad = AtomicMeasure(fibers, path, 0, 1, weights, probability=False)
            for program in (wasserstein, lipschitz_dual):
                with pytest.raises(ConfigError, match="unequal total masses"):
                    program(mu, bad, Metric("raw", 0.5))
                with pytest.raises(ConfigError, match="unequal total masses"):
                    program(bad, mu, Metric("raw", 0.5))


def point_prefix_oracle(measure, words, depth):
    """The per-atom prefixes: one canonical walk per word, read to `depth` letters."""
    out = np.empty((len(words), depth), dtype=np.int64)
    for i, w in enumerate(words):
        out[i] = canonical_walk(measure.fibers, measure.path, measure.anchor, w, depth)
    return out


def _prefix_instances():
    """(fibers, path): one- and two-state drivers, forced and free tails."""
    one = stationary_system()
    two = two_state_iid(seed=6)
    pattern3 = FiberStructure.build(
        two,
        alphabets={"a": [1, 2, 3], "b": [1, 2, 3]},
        matrices={"a": [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
                  "b": [[0, 0, 1], [1, 1, 1], [0, 1, 0]]},
    )
    uneven = FiberStructure.build(
        two,
        alphabets={"a": [1, 2, 3], "b": [2, 3]},
        matrices={"a": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
                  "b": [[1, 1, 0], [0, 1, 1]]},
    )
    return {
        "golden": (golden_mean_shift(one), sample_path(one, seed=4)),
        "full3_two_state": (full_shift(two, 3), sample_path(two, seed=6)),
        "pattern3": (pattern3, sample_path(two, seed=6)),
        "uneven": (uneven, sample_path(two, seed=7)),
    }


@pytest.mark.parametrize("name", ["golden", "full3_two_state", "pattern3", "uneven"])
class TestPrefixParity:
    """AtomicMeasure.prefixes against the per-atom point oracle: the same rows, exactly."""

    def test_mixed_length_atoms(self, name):
        fibers, path = _prefix_instances()[name]
        rng = np.random.default_rng(14)
        for anchor in (-23, -2, 0, 11):
            # every word of one or two letters, a sample of the longer ones
            pick = [w for n in (1, 2) for w in admissible_words(fibers, path, anchor, n)]
            for n in (3, 4, 5):
                words = admissible_words(fibers, path, anchor, n)
                pick += [words[i] for i in sorted(rng.choice(len(words), size=6))]
            pick = list(dict.fromkeys(pick))
            rng.shuffle(pick)
            raw = rng.random(len(pick)) + 0.05
            mu = AtomicMeasure(fibers, path, anchor, 5,
                               {w: float(x) for w, x in zip(pick, raw / raw.sum())})
            assert {len(w) for w in pick} == {1, 2, 3, 4, 5}
            # the atoms are the keys' depth-5 points, each point once, in key order
            points = list(map(tuple, point_prefix_oracle(mu, pick, 5).tolist()))
            atom = {p: i for i, p in enumerate(map(tuple, mu.atoms.tolist()))}
            assert list(atom) == list(dict.fromkeys(points))
            for depth in (1, 3, 5, 8):  # longer, shorter and as long as the atoms
                got = mu.prefixes(depth)[[atom[p] for p in points]]
                want = point_prefix_oracle(mu, pick, depth)
                assert got.dtype == want.dtype and got.shape == (len(pick), depth)
                assert np.array_equal(got, want), (anchor, depth)

    def test_inadmissible_word_rejected(self, name):
        fibers, path = _prefix_instances()[name]
        mu = AtomicMeasure.uniform(fibers, path, -5, 2)
        bad = [admissible_words(fibers, path, -5, 2)[0], (1, 9)]
        match = r"word \(1, 9\) not admissible at fiber -5"
        with pytest.raises(AdmissibilityError, match=match):
            AtomicMeasure(fibers, path, -5, 4, dict.fromkeys(bad, 0.5))
        with pytest.raises(AdmissibilityError, match=match):
            point_prefix_oracle(mu, bad, 4)


class TestMetric:
    @pytest.mark.parametrize("r", [0.0, 1.0, 1.5, -0.2])
    def test_r_outside_unit_interval_rejected(self, r):
        with pytest.raises(ConfigError):
            Metric("raw", r)
        with pytest.raises(ConfigError):
            Metric("adjusted", r, alpha=2.0)

    def test_levels_match_dist(self, full2):
        # metric_dist is the tests' first-disagreement oracle for levels
        fibers, path = full2
        for k, y_word in enumerate([(2,), (1, 1), (1, 2, 2)]):
            x, y = canonical_prefixes(fibers, path, 0, [(1, 2, 1), y_word], 3)
            for metric in (Metric("raw", 0.3), Metric("adjusted", 0.3, alpha=4.0)):
                assert metric.levels(3)[k] == metric_dist(metric, x, y)
                assert metric.levels(3)[3] == metric_dist(metric, x, x) == 0.0
        with pytest.raises(ConfigError, match="prefixes of lengths 3 and 1"):
            metric_dist(Metric("raw", 0.3), (1, 2, 1), (2,))


def _parity_pairs():
    """pytest params (mu, nu, metric) over the instances the closed form must handle."""
    rng = np.random.default_rng(11)
    system = stationary_system()
    path = sample_path(system, seed=4)
    shifts = {"full3": full_shift(system, 3), "golden": golden_mean_shift(system)}
    metrics = (Metric("raw", 0.4), Metric("adjusted", 0.4, alpha=3.0))
    out = []
    for metric in metrics:
        for depth in range(1, 6):
            mu, nu = (AtomicMeasure.random(shifts["full3"], path, 0, depth, rng) for _ in "ab")
            out.append(pytest.param(mu, nu, metric, id=f"full3-d{depth}-{metric.kind}"))
        for depth in range(1, 5):
            mu, nu = (AtomicMeasure.random(shifts["golden"], path, 3, depth, rng) for _ in "ab")
            out.append(pytest.param(mu, nu, metric, id=f"golden-d{depth}-{metric.kind}"))
        for name, fibers in shifts.items():
            deep = AtomicMeasure.random(fibers, path, 0, 3, rng)
            dirac = AtomicMeasure.dirac(fibers, path, 0, (2,))
            out.append(pytest.param(dirac, deep, metric, id=f"{name}-dirac-d3-{metric.kind}"))
            # one support mixing word lengths; on the golden mean (2,) and
            # (2, 1) are the same point through the canonical tail
            mixed = {(1,): 0.25, (2,): 0.25, (2, 1): 0.2, (1, 2, 1): 0.3}
            mixed = AtomicMeasure(fibers, path, 0, 3, mixed)
            out.append(pytest.param(mixed, deep, metric, id=f"{name}-mixed-{metric.kind}"))
    return out


class TestClosedFormParity:
    def check_certificate(self, mu, nu, metric):
        value, plan = wasserstein(mu, nu, metric)
        lp_value, cost = lp_transport_oracle(mu, nu, metric)
        assert abs(value - lp_value) <= 1e-9
        swt = np.array([mu.weights[w] for w in plan.source_labels])
        twt = np.array([nu.weights[w] for w in plan.target_labels])
        dense = dense_plan(plan)
        assert np.abs(dense.sum(axis=1) - swt).max() <= 1e-12
        assert np.abs(dense.sum(axis=0) - twt).max() <= 1e-12
        assert dense.min() >= 0.0
        assert float((dense * cost).sum()) == pytest.approx(value, abs=1e-12)
        slack = cost - plan.dual_source[:, None] - plan.dual_target[None, :]
        assert slack.min() >= -1e-12
        assert np.abs(slack[dense > 1e-12]).max(initial=0.0) <= 1e-12

    @pytest.mark.parametrize("mu,nu,metric", _parity_pairs())
    def test_matches_lp_oracle(self, mu, nu, metric):
        self.check_certificate(mu, nu, metric)

    def test_normalized_dual_apply_outputs(self, full2_cert):
        fibers, path, phi, triple, tilde, cert = full2_cert
        rng = np.random.default_rng(8)
        for k in (-3, 0, 5):
            block = cert.block[k]
            top = [AtomicMeasure.random(fibers, path, k + block, 3, rng) for _ in range(2)]
            mu, nu = (dual_apply(tilde, x, block).normalize() for x in top)
            self.check_certificate(mu, nu, cert.metric_at(k))

    def test_rerun_identical(self, full2):
        fibers, path = full2
        rng = np.random.default_rng(2)
        mu = AtomicMeasure.random(fibers, path, 0, 4, rng)
        nu = AtomicMeasure.random(fibers, path, 0, 4, rng)
        metric = Metric("adjusted", 0.5, alpha=2.0)
        (v1, p1), (v2, p2) = wasserstein(mu, nu, metric), wasserstein(mu, nu, metric)
        assert v1 == v2
        assert dense_plan(p1).tobytes() == dense_plan(p2).tobytes()


def _array_pairs():
    """(fibers, path, phi, pairs): library-built pairs of one atom depth, in array form."""
    rng = np.random.default_rng(19)
    two = two_state_iid(seed=6)
    wide = FiberStructure.build(  # letters past 64, nine-letter atoms
        two, alphabets={"a": [3, 70, 200], "b": [3, 70, 200]},
        matrices={"a": [[1, 1, 1], [1, 0, 1], [1, 1, 0]], "b": [[0, 1, 1], [1, 1, 1], [1, 1, 1]]})
    out = {}
    for name, fibers in (("full3", full_shift(two, 3)), ("golden", golden_mean_shift(two)),
                         ("wide", wide)):
        path = sample_path(two, seed=6)
        phi = log_matrix_potential(
            fibers, [m * rng.uniform(0.2, 1.5, m.shape) for m in fibers.matrices])
        pairs = []
        for depth in (1, 3, 4):
            pairs.append([AtomicMeasure.random(fibers, path, 2, depth, rng) for _ in "ab"])
        # pull-backs: 9 atoms pulled 3 letters, two Diracs pulled to nine-letter atoms
        tops = [AtomicMeasure.random(fibers, path, 5, 2, rng) for _ in "ab"]
        pulled = [dual_apply(phi, x, 3).normalize() for x in tops]
        pairs.append(pulled)
        pairs.append([pulled[0].coarsen(3), AtomicMeasure.random(fibers, path, 2, 3, rng)])
        words = admissible_words(fibers, path, 8, 3)
        pairs.append([dual_apply(phi, AtomicMeasure.dirac(fibers, path, 8, w), 6).normalize()
                      for w in (words[0], words[-1])])
        out[name] = (fibers, path, pairs)
    return out


@pytest.mark.parametrize("name", ["full3", "golden", "wide"])
class TestArrayTransport:
    """wasserstein and lipschitz_dual on (atoms, values) arrays against their former dict
    paths, kept as oracles, and no re-admission."""

    def test_matches_dict_path(self, name):
        fibers, path, pairs = _array_pairs()[name]
        for mu, nu in pairs:
            assert mu.atoms.shape[1] == nu.atoms.shape[1]
            for metric in (Metric("raw", 0.4), Metric("adjusted", 0.4, alpha=2.5)):
                value, plan = wasserstein(mu, nu, metric)
                want_value, sw, tw, dense, u, v, gap = dict_wasserstein_oracle(mu, nu, metric)
                assert value.hex() == want_value.hex()
                assert plan.source_labels == sw
                assert plan.target_labels == tw
                assert all(type(w) is tuple for w in plan.source_labels + plan.target_labels)
                for a, b in ((dense_plan(plan), dense), (plan.dual_source, u),
                             (plan.dual_target, v)):
                    assert a.tobytes() == b.tobytes()
                assert plan.dual_gap == gap

    def test_no_word_is_admitted(self, name, monkeypatch):
        fibers, path, pairs = _array_pairs()[name]

        def forbidden(*args):
            raise AssertionError("an atom was re-admitted")

        monkeypatch.setattr(transport, "canonical_prefixes", forbidden)
        monkeypatch.setattr(FiberStructure, "admits_word", forbidden)
        for mu, nu in pairs:
            wasserstein(mu, nu, Metric("raw", 0.4))

    def test_dual_reads_the_arrays(self, name, monkeypatch):
        """lipschitz_dual keys an equal-depth library-built pair by index rows: the same
        program as its former dict path, float for float, and no word is re-admitted."""
        fibers, path, pairs = _array_pairs()[name]
        metric = Metric("adjusted", 0.4, alpha=2.5)
        want = [dict_kr_oracle(mu, nu, metric) for mu, nu in pairs]

        def forbidden(*args):
            raise AssertionError("an atom was re-admitted")

        monkeypatch.setattr(transport, "canonical_prefixes", forbidden)
        monkeypatch.setattr(FiberStructure, "admits_word", forbidden)
        for (mu, nu), (want_value, want_witness) in zip(pairs, want):
            value, witness = lipschitz_dual(mu, nu, metric)
            assert value.hex() == want_value.hex()
            assert witness.values == want_witness


class TestTreeCertificate:
    """wasserstein, lipschitz_dual and build_coupling read distances only off the
    cylinder tree, and the certificate rejects a plan that is not optimal."""

    def test_no_pairwise_distance_array(self, monkeypatch, full2_cert):
        cfg = load_config(CONFIGS / "random_3letter.json")
        path = cfg.sample(17)
        rng = np.random.default_rng(5)
        mu, nu = (AtomicMeasure.random(cfg.fibers, path, 0, 5, rng) for _ in "ab")
        assert len(mu.weights.keys() | nu.weights.keys()) == 243
        real, shapes = transport._common_prefix, []

        def spy(a, b):
            shapes.append((a.shape, b.shape))
            return real(a, b)

        monkeypatch.setattr(transport, "_common_prefix", spy)
        metric = Metric("raw", cfg.potential.r)
        wasserstein(mu, nu, metric)
        lipschitz_dual(mu, nu, metric)
        fibers, path, phi, triple, tilde, cert = full2_cert
        build_coupling((1,), (2,), tilde, cert, fiber=0)
        assert len(shapes) >= 4
        for a, b in shapes:
            assert len(a) == 2 and a == b, (a, b)
            assert a[0] <= 2 * 243

    def test_product_plan_rejected(self, monkeypatch, full2):
        fibers, path = full2
        rng = np.random.default_rng(3)
        mu, nu = (AtomicMeasure.random(fibers, path, 0, 3, rng) for _ in "ab")

        def product(order, lcp, depth, weights, n):
            # the independent coupling, as its support: every (source, target) cell
            plan = np.outer(weights[:n], weights[n:])
            rows, cols = np.indices(plan.shape)
            return rows.ravel(), cols.ravel(), plan.ravel()

        monkeypatch.setattr(transport, "_ultrametric_plan", product)
        with pytest.raises(InvariantViolation):
            wasserstein(mu, nu, Metric("raw", 0.5))


class TestSupportPlan:
    """The plan is held as its support: its dense view is, bit for bit, the level-by-level
    greedy plan, and it has at most n + m - 1 entries."""

    @staticmethod
    def check(mu, nu, metric, monkeypatch):
        real, calls = transport._ultrametric_plan, []

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(transport, "_ultrametric_plan", spy)
        _, plan = wasserstein(mu, nu, metric)
        (order, lcp, depth, weights, n), = calls
        m = len(plan.target_labels)
        want = greedy_plan_oracle(order, lcp, depth, list(weights), n, m)
        assert dense_plan(plan).tobytes() == want.tobytes()
        assert len(plan.mass) <= n + m - 1
        assert len(set(zip(plan.rows.tolist(), plan.cols.tolist()))) == len(plan.mass)

    @pytest.mark.parametrize("mu,nu,metric", _parity_pairs())
    def test_matches_greedy_oracle(self, mu, nu, metric, monkeypatch):
        self.check(mu, nu, metric, monkeypatch)

    @pytest.mark.parametrize("name", ["full3", "golden", "wide"])
    def test_array_pairs_match_greedy_oracle(self, name, monkeypatch):
        for mu, nu in _array_pairs()[name][2]:
            for metric in (Metric("raw", 0.4), Metric("adjusted", 0.4, alpha=2.5)):
                self.check(mu, nu, metric, monkeypatch)

    def test_mixed_depth_dict_pair(self, monkeypatch):
        # dict atoms of lengths 1-5 against a three-letter measure, one point twice
        for name, (fibers, path) in _prefix_instances().items():
            rng = np.random.default_rng(31)
            pick = [w for n in (1, 2) for w in admissible_words(fibers, path, 0, n)]
            for n in (3, 5):
                words = admissible_words(fibers, path, 0, n)
                pick += [words[i] for i in sorted(rng.choice(len(words), size=5))]
            pick += canonical_prefixes(fibers, path, 0, [pick[0]], 4)
            pick = list(dict.fromkeys(pick))
            raw = rng.random(len(pick)) + 0.05
            mu = AtomicMeasure(fibers, path, 0, 5,
                               {w: float(x) for w, x in zip(pick, raw / raw.sum())})
            nu = AtomicMeasure.random(fibers, path, 0, 3, rng)
            for metric in (Metric("raw", 0.4), Metric("adjusted", 0.4, alpha=3.0)):
                self.check(mu, nu, metric, monkeypatch)
                self.check(nu, mu, metric, monkeypatch)

    def test_coupling_support(self, full2_cert):
        fibers, path, phi, triple, tilde, cert = full2_cert
        plan = build_coupling((1,), (2,), tilde, cert, fiber=0)
        assert (plan.mass > 0).all()
        dense = dense_plan(plan)
        assert np.array_equal(np.flatnonzero(dense), plan.rows * dense.shape[1] + plan.cols)


class TestDuality:
    def test_identical_zero(self, full2):
        fibers, path = full2
        mu = AtomicMeasure.uniform(fibers, path, 0, 2)
        value, witness = lipschitz_dual(mu, mu, Metric("raw", 0.5))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_two_diracs_kantorovich_rubinstein(self, full2):
        fibers, path = full2
        x = AtomicMeasure.dirac(fibers, path, 0, (1, 1))
        y = AtomicMeasure.dirac(fibers, path, 0, (2, 2))
        metric = Metric("raw", 0.5)
        value, witness = lipschitz_dual(x, y, metric)
        assert value == pytest.approx(1.0, abs=1e-10)
        assert witness.lipschitz(metric) <= 1.0 + 1e-9

    def test_strong_duality_random_pairs(self, full2):
        fibers, path = full2
        rng = np.random.default_rng(9)
        for trial in range(20):
            depth = int(rng.integers(1, 4))
            metric = Metric("adjusted", 0.5, alpha=float(rng.uniform(1.0, 3.0)))
            words = admissible_words(fibers, path, 0, depth)
            raw = rng.random(len(words)) + 0.01
            mu = make_measure(fibers, path, 0, depth, raw / raw.sum())
            raw2 = rng.random(len(words)) + 0.01
            nu = make_measure(fibers, path, 0, depth, raw2 / raw2.sum())
            primal, _ = wasserstein(mu, nu, metric)
            dual, witness = lipschitz_dual(mu, nu, metric)
            assert primal - dual <= 1e-8
            assert abs(primal - dual) <= 1e-8
            # the witness certifies its own value
            attained = mu.integrate(witness) - nu.integrate(witness)
            assert attained == pytest.approx(dual, abs=1e-9)

    def test_metric_sandwich(self, full2):
        fibers, path = full2
        rng = np.random.default_rng(4)
        alpha = 2.5
        words = admissible_words(fibers, path, 0, 3)
        raw = rng.random(len(words)) + 0.01
        mu = make_measure(fibers, path, 0, 3, raw / raw.sum())
        raw2 = rng.random(len(words)) + 0.01
        nu = make_measure(fibers, path, 0, 3, raw2 / raw2.sum())
        w_raw, _ = wasserstein(mu, nu, Metric("raw", 0.5))
        w_adj, _ = wasserstein(mu, nu, Metric("adjusted", 0.5, alpha=alpha))
        assert w_raw - 1e-12 <= w_adj <= alpha * w_raw + 1e-12


class TestContractionConstants:
    def test_full_shift_section31_values(self, full2_cert):
        fibers, path, phi, triple, tilde, cert = full2_cert
        # kappa = 0 potentials: B = 1, alpha = 2, and r < 1/2 makes the settling step minimal
        for k in range(-20, 20):
            assert cert.B[k] == 1.0
            assert cert.alpha[k] == 2.0
            assert cert.n_step[k] == 1
            assert cert.m_step[k] == 1  # full shift passes in one step
            assert cert.o_letter[k] == 1
        # C is the worst marked-row entry of the normalized matrix
        tab = tilde.fiber_tables[0]
        expected = min(math.exp(v) for w, v in tab.items() if w[0] == 1)
        assert cert.C[0] == pytest.approx(expected, rel=1e-12)

    def test_envelope_rate_formula(self, full2_cert):
        fibers, path, phi, triple, tilde, cert = full2_cert
        c_thr = cert.C_threshold
        assert cert.t == 1.0 - c_thr / 2.0
        assert cert.c == 2.0
        assert cert.t_observed <= cert.t + 1e-12

    def test_t_monotone_in_C(self, full2_cert):
        fibers, path, phi, triple, tilde, cert = full2_cert
        import copy

        c1 = certify_event(copy.copy(cert), B=1.0, C=cert.C_threshold * 0.5)
        assert c1.t >= cert.t

    def test_block_lengths(self, full2_cert):
        _, _, _, _, _, cert = full2_cert
        for k in range(-20, 20):
            assert cert.block[k] == cert.n_step[k] + cert.m_step[k + cert.n_step[k]] == 2

    def test_golden_mean_passage_words(self):
        system = stationary_system()
        path = sample_path(system, seed=3, max_radius=2 ** 16)
        fibers = golden_mean_shift(system)
        phi = log_matrix_potential(fibers, [np.array([[0.5, 0.5], [1.0, 0.0]])], r=0.2)
        triple = rpf_solve(phi, fibers, path, depth=5, horizon=80, window=(-40, 40))
        tilde = normalize_potential(phi, triple)
        cert = contraction_constants(tilde, fibers, path, beta=0.5, window=(-20, 20))
        # mediator set {1}: the one-step passage from letter 1 covers both letters
        assert cert.m_step[0] == 1
        assert cert.u_words[0] == {1: (1,), 2: (1,)}


class Event:
    """A big-preimage event given by a predicate on fibers."""

    def __init__(self, holds):
        self.holds = holds

    def evaluate(self, path, j):
        return self.holds(j)


class TestNextReturn:
    """The one return scan: the least step n >= floor whose target origin + sign * n
    satisfies the predicate, as long as the target lies in the window."""

    def scan(self, origin, sign, floor, holds, window=(-10, 10)):
        return transport._next_return(origin, sign, floor, window, holds, "left")

    def test_forward_and_backward(self):
        multiple = lambda j: j % 3 == 0  # noqa: E731
        assert self.scan(0, 1, 1, multiple) == 3
        assert self.scan(0, -1, 1, multiple) == 3
        assert self.scan(4, 1, 1, multiple) == 2  # target 6
        assert self.scan(4, -1, 1, multiple) == 1  # target 3

    def test_floor(self):
        multiple = lambda j: j % 3 == 0  # noqa: E731
        assert self.scan(0, 1, 4, multiple) == 6
        assert self.scan(0, 1, 3, multiple) == 3  # the floor itself may return
        assert self.scan(0, -1, 2, lambda j: j in (-1, -5)) == 5

    def test_window_edge(self):
        assert self.scan(0, 1, 1, lambda j: j == 10) == 10
        assert self.scan(0, -1, 1, lambda j: j == -10) == 10
        for sign in (1, -1):
            with pytest.raises(ConvergenceError, match="^left$"):
                self.scan(0, sign, 1, lambda j: abs(j) == 11)
        with pytest.raises(ConvergenceError, match="^left$"):  # the floor's target too
            self.scan(9, 1, 2, lambda j: j == 11)

    def test_big_preimage_edges_and_messages(self):
        # n = 2 is read before the window is checked
        always = Event(lambda j: True)
        assert transport.big_preimage_sequences(always, None, 3, (-1, 1)) == \
            ([2, 4, 6], [2, 4, 6])
        two = Event(lambda j: j in (3, -6))
        with pytest.raises(ConvergenceError, match="^no backward big-preimage return in "
                                                   "the window$"):
            transport.big_preimage_sequences(two, None, 1, (-5, 5))
        assert transport.big_preimage_sequences(two, None, 1, (-6, 5)) == ([3], [6])
        with pytest.raises(ConvergenceError, match="^no forward big-preimage return in "
                                                   "the window$"):
            transport.big_preimage_sequences(Event(lambda j: j < 0), None, 1, (-5, 5))

    def test_markov_messages(self, full2_cert):
        cert = full2_cert[-1]
        settled = transport._markov_n(cert, 0)
        assert cert.event_member[settled]
        assert settled >= max(1, transport.settle_exponent(2.0 * cert.alpha[0], cert.r))
        narrow = copy.copy(cert)
        narrow.hi = settled - 1
        with pytest.raises(ConvergenceError, match="^no certified-event return above "
                                                   "fiber 0 in the window$"):
            transport._markov_n(narrow, 0)
        narrow = copy.copy(cert)
        narrow.lo = -3
        with pytest.raises(ConvergenceError, match="^backward sequence leaves the window$"):
            return_sequences(narrow, count=1, mode="markov")


class TestReturnSequences:
    def test_full_shift_matrix_mode_2n(self, full2_cert):
        fibers, path, phi, triple, tilde, cert = full2_cert
        import copy

        c2 = return_sequences(copy.copy(cert), count=10, mode="matrix")
        assert c2.l_seq == tuple(2 * n for n in range(1, 11))
        assert c2.k_seq == tuple(2 * n for n in range(1, 11))

    def test_markov_mode_gaps(self, full2_cert):
        _, _, _, _, _, cert = full2_cert
        ls = cert.l_seq
        assert all(b > a for a, b in zip(ls, ls[1:]))
        for a, b in zip(ls, ls[1:]):
            # each step contains a passage and a settling stretch
            assert b - a >= 2

    def test_event_frequency_markov_gap(self):
        # event of frequency ~ 1/4: mean sequence gap ~ per-block length x 4
        system = two_state_iid(p=0.25, seed=21)
        path = sample_path(system, seed=21, max_radius=2 ** 16)
        fibers = full_shift(system, 2)
        mats = [np.array([[0.3, 0.6], [0.7, 0.4]]), np.array([[0.5, 0.25], [0.5, 0.75]])]
        phi = log_matrix_potential(fibers, mats, r=0.2)
        triple = rpf_solve(phi, fibers, path, depth=5, horizon=80, window=(-900, 900))
        tilde = normalize_potential(phi, triple)
        cert = contraction_constants(tilde, fibers, path, beta=0.5, window=(-850, 850))
        # certify only fibers at driver state a (frequency 1/4)
        c_thr = min(c for q, c in cert.C.items() if path.state(q) == 0)
        b_state = {q: path.state(q) for q in cert.C}
        # threshold selects exactly state-a fibers
        c_other = max(c for q, c in cert.C.items() if path.state(q) == 1)
        if c_other >= c_thr:
            pytest.skip("instance does not separate the event by threshold")
        cert = certify_event(cert, B=1.0, C=c_thr)
        cert = return_sequences(cert, count=40, mode="markov")
        gaps = np.diff((0,) + cert.l_seq)
        # geometric prediction: passage (m = 1) plus the first certified return
        # at or past the strengthened bound; the event has frequency 1/4
        freq = sum(cert.event_member.values()) / len(cert.event_member)
        bound = math.floor(-math.log(2 * 2.0) / math.log(0.2)) + 1
        expected = 1 + (bound - 1) + 1 / freq
        assert abs(gaps.mean() - expected) / expected < 0.20


class TestCoupling:
    def test_identical_points_diagonal(self, full2_cert):
        fibers, path, phi, triple, tilde, cert = full2_cert
        plan = build_coupling((1,), (1,), tilde, cert, fiber=0)
        # all mass on matching branch pairs, cost within the settled radius
        n, q = cert.n_step[0], 0 + cert.n_step[0]
        assert plan.cost <= cert.r ** n * cert.alpha[0] + 1e-12

    def test_diagonal_mass_and_cost(self, full2_cert):
        fibers, path, phi, triple, tilde, cert = full2_cert
        plan = build_coupling((1,), (2,), tilde, cert, fiber=0)
        q = cert.n_step[0]
        lower = cert.C[0 + q] / cert.B[0 + q]
        # recompute the diagonal mass from the plan: pairs within the settled radius
        metric = cert.metric_at(0)
        diag = cost = 0.0
        dense = dense_plan(plan)
        for i, v in enumerate(plan.source_labels):
            for j, w in enumerate(plan.target_labels):
                if dense[i, j] > 0 and v[: q + 1] == w[: q + 1]:
                    diag += dense[i, j]
                if dense[i, j] > 0:  # the cost, pair by pair on the atoms' prefixes
                    cost += dense[i, j] * metric_dist(metric, v + (1,), w + (2,))
        assert diag >= lower - 1e-12
        assert cost == plan.cost
        assert plan.cost <= cert.s_fiber[0] + 1e-12

    def test_coupling_cost_bounds_lp(self, full2_cert):
        fibers, path, phi, triple, tilde, cert = full2_cert
        plan = build_coupling((1,), (2,), tilde, cert, fiber=0)
        block = cert.block[0]
        mu = dual_apply(tilde, AtomicMeasure.dirac(fibers, path, 2, (1,)), block).normalize()
        nu = dual_apply(tilde, AtomicMeasure.dirac(fibers, path, 2, (2,)), block).normalize()
        lp_value, _ = wasserstein(mu, nu, cert.metric_at(0))
        assert plan.cost >= lp_value - 1e-12

    def test_exhaustive_branch_enumeration(self, full2_cert):
        # uniform full shift: four branches per block, all weights hand-computable
        fibers, path = full2_cert[0], full2_cert[1]
        phi_u = constant_potential(fibers, -math.log(2), r=0.2)
        triple = rpf_solve(phi_u, fibers, path, depth=4, horizon=60, window=(-30, 30))
        tilde = normalize_potential(phi_u, triple)
        cert = contraction_constants(tilde, fibers, path, beta=0.5, window=(-10, 10))
        cert = certify_event(cert, B=1.0, C=0.5)
        plan = build_coupling((1,), (2,), tilde, cert, fiber=0)
        dense = dense_plan(plan)
        assert dense.sum() == pytest.approx(1.0, abs=1e-12)
        # hand enumeration of the four branches (weight 1/4 each): the mediator
        # construction rides mass 1/2 on equal-branch pairs (v1, 1); the product
        # remainder adds 2 x 1/8 more on equal branches, 1/8 on each crossing
        same = sum(
            dense[i, j]
            for i, v in enumerate(plan.source_labels)
            for j, w in enumerate(plan.target_labels)
            if v == w
        )
        assert same == pytest.approx(0.75, abs=1e-12)
        # cost: equal branches differ first at position 2 (d = min(1, 2 r^2) = 0.08),
        # crossing branches differ at position 0 (capped at 1)
        assert plan.cost == pytest.approx(0.75 * 0.08 + 0.25 * 1.0, abs=1e-12)
        s_hand = 1.0 - (1.0 - 0.2 * 2.0) * 0.5
        assert cert.s_fiber[0] == pytest.approx(s_hand, abs=1e-12)
        assert plan.cost <= s_hand + 1e-12


class TestMainLemma:
    def test_full_shift_instance(self, full2_cert):
        fibers, path, phi, triple, tilde, cert = full2_cert
        report = verify_main_lemma(tilde, fibers, path, cert, trials=30, seed=5,
                                   test_fibers=list(range(-10, 10)))
        assert report.max_ratio["i"] <= 1.0 + 1e-12
        assert report.max_ratio["iii"] <= 1.0 + 1e-12
        assert report.max_ratio["ii"] <= 1e-12  # signed slack vs t
        assert report.max_ratio["iv"] <= 1e-12
        # the certified-event blocks contract at least as fast as 1 - C/2
        for part, fiber, observed, size, allowed in report.rows:
            if part == "iv":
                assert observed / size <= cert.t + 1e-12

    def test_block_continues_from_the_settled_function(self, full2_cert, monkeypatch):
        # part (ii) steps on from part (i)'s L^n f: block operator steps per trial, not
        # n + block, and the rows are bit for bit those of L^block f from scratch
        fibers, path, phi, triple, tilde, cert = full2_cert
        applied, drawn = [], []
        apply, draw = transfer.transfer_apply, transport.random_lipschitz
        monkeypatch.setattr(transfer, "transfer_apply",
                            lambda *a: applied.append(1) or apply(*a))
        monkeypatch.setattr(transport, "random_lipschitz",
                            lambda *a, **k: drawn.append((a[2], draw(*a, **k))) or drawn[-1][1])
        report = verify_main_lemma(tilde, fibers, path, cert, trials=6, seed=3,
                                   test_fibers=list(range(-6, 6)))
        monkeypatch.undo()
        assert report.skipped == 0 and len(drawn) == 6
        assert len(applied) == sum(cert.block[k] for k, _ in drawn)
        rows = {part: [r for r in report.rows if r[0] == part] for part in ("i", "ii")}
        for (k, f), row_i, row_ii in zip(drawn, rows["i"], rows["ii"]):
            n, block = cert.n_step[k], cert.block[k]
            d_n = transfer_power(tilde, f, n).lipschitz(cert.metric_at(k + n))
            d_b = transfer_power(tilde, f, block).lipschitz(cert.metric_at(k + block))
            assert row_i[2] == d_n and row_ii[2] == d_b and row_i[1] == row_ii[1] == k

    def test_constant_function_skipped(self, full2_cert):
        fibers, path, phi, triple, tilde, cert = full2_cert
        f = CylinderFunction.constant(fibers, path, 0, 3.0, 2)
        assert f.lipschitz(Metric("adjusted", 0.2, cert.alpha[0])) == 0.0


class TestVerifyDecay:
    def test_envelopes_and_fit(self, full2_cert):
        fibers, path, phi, triple, tilde, cert = full2_cert
        nu = invariant_measures(triple)
        report = verify_decay(tilde, fibers, path, cert, nu, horizon=40, seed=2)
        assert report.forward_rows
        assert report.backward_rows
        for i, l_i, gap, bound in report.forward_rows:
            assert gap <= bound + 1e-12
        for i, k_i, gap, bound in report.backward_rows:
            assert gap <= bound + 1e-12
        gaps = [g for _, g in report.curve]
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert report.empirical_s is None or report.empirical_s < 1.0

    def test_constant_function_zero_gap(self, full2_cert):
        fibers, path, phi, triple, tilde, cert = full2_cert
        nu = invariant_measures(triple)
        f = CylinderFunction.constant(fibers, path, 0, 2.5, 1)
        report = verify_decay(tilde, fibers, path, cert, nu, f=f, horizon=12)
        assert all(g <= 1e-12 for _, g in report.curve)


class TestKFactor:
    def test_formula(self, full2):
        fibers, path = full2
        mat = np.array([[0.6, 0.3], [0.4, 0.7]]) * 1.3
        phi = log_matrix_potential(fibers, [mat], r=0.49)
        triple = rpf_solve(phi, fibers, path, depth=4, horizon=80, window=(0, 4))
        b = {0: 1.0}
        h = triple.h[0]
        expected = 2.0 / h.inf() * max(h.sup() / h.inf() - 1.0, 0.0, 1.0)
        assert k_factor(triple, b, 0) == pytest.approx(expected, rel=1e-12)


@pytest.fixture(scope="module")
def distorted_instance():
    """Random driver with a depth-3 potential: distortion products well above 1."""
    from rtmclab.potentials import Potential, fitted_kappa

    system = two_state_iid(p=0.5, seed=23)
    path = sample_path(system, seed=23, max_radius=2 ** 16)
    fibers = full_shift(system, 2)
    rng = np.random.default_rng(5)
    words = admissible_words(fibers, path, 0, 3)
    tabs = tuple({w: float(rng.normal(scale=0.3)) for w in words} for _ in range(2))
    phi = Potential(depth=3, r=0.3, index=2, tables=tabs, kappa=(0.0, 0.0))
    kappas = tuple(
        max(fitted_kappa(phi, fibers, path, i)
            for i in range(-40, 40) if path.state(i) == s)
        for s in range(2)
    )
    phi = Potential(depth=3, r=0.3, index=2, tables=tabs, kappa=kappas)
    triple = rpf_solve(phi, fibers, path, depth=6, horizon=100, window=(-120, 120))
    tilde = normalize_potential(phi, triple)
    cert = contraction_constants(tilde, fibers, path, beta=0.5, window=(-90, 90))
    cert = certify_event(cert, B=max(cert.B.values()),
                         C=min(cert.C[q] for q in cert.C))
    cert = return_sequences(cert, count=8, mode="markov")
    return fibers, path, triple, tilde, cert


class TestDistortedRandomInstance:
    def test_distortion_above_one_and_longer_settling(self, distorted_instance):
        fibers, path, triple, tilde, cert = distorted_instance
        assert min(cert.B.values()) > 2.0
        assert min(cert.n_step.values()) >= 2  # alpha > 2 forces extra settling
        assert 0.0 < cert.t_observed <= cert.t < 1.0

    def test_lemma_holds_under_distortion(self, distorted_instance):
        fibers, path, triple, tilde, cert = distorted_instance
        report = verify_main_lemma(tilde, fibers, path, cert, trials=25, seed=2, depth=2)
        assert report.max_ratio["i"] <= 1.0 + 1e-12
        assert report.max_ratio["iii"] <= 1.0 + 1e-12
        assert report.max_ratio["ii"] <= 1e-12
        assert report.max_ratio["iv"] <= 1e-12

    def test_decay_envelopes_hold_under_distortion(self, distorted_instance):
        fibers, path, triple, tilde, cert = distorted_instance
        nu = invariant_measures(triple)
        report = verify_decay(tilde, fibers, path, cert, nu, horizon=30, seed=1)
        assert len(report.forward_rows) >= 6
        assert len(report.backward_rows) >= 6
        assert report.empirical_s is not None and report.empirical_s < cert.t


class TestAtomDedup:
    def test_different_depth_words_same_point(self, full2):
        # (1,) and (1,1,1) share the canonical representative on the full shift
        fibers, path = full2
        a = AtomicMeasure.dirac(fibers, path, 0, (1,))
        b = AtomicMeasure.dirac(fibers, path, 0, (1, 1, 1))
        metric = Metric("raw", 0.5)
        value, _ = wasserstein(a, b, metric)
        dual, _ = lipschitz_dual(a, b, metric)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert dual == pytest.approx(0.0, abs=1e-12)


class TestOverLongAtoms:
    """A key longer than the measure depth used to be read at full length by wasserstein
    and cut to the depth by lipschitz_dual and coarsen, breaking the duality."""

    def test_rejected_with_word_and_depth(self):
        cfg = load_config(CONFIGS / "full_shift_iid.json")
        path = cfg.sample(0)
        with pytest.raises(AdmissibilityError,
                           match=r"word \(1, 2, 2\) longer than the measure depth 1 at fiber 0"):
            AtomicMeasure(cfg.fibers, path, 0, 1, {(1, 2, 2): 0.5, (2,): 0.5})

    def test_duality_at_the_declared_depth(self):
        cfg = load_config(CONFIGS / "full_shift_iid.json")
        path = cfg.sample(0)
        mu, nu = (AtomicMeasure(cfg.fibers, path, 0, 3, {word: 0.5, (2,): 0.5})
                  for word in ((1, 2, 2), (1, 1, 1)))
        metric = Metric("raw", 0.5)
        value, _ = wasserstein(mu, nu, metric)
        dual, _ = lipschitz_dual(mu, nu, metric)
        assert value == pytest.approx(0.25, abs=1e-12)  # half the mass moves g(1) = 1/2
        assert abs(value - dual) <= 1e-10
        assert mu.coarsen(1).atoms.tolist() == [[1], [2]]


class TestNoReadmission:
    """Once a measure is built, no kernel re-admits a word."""

    def test_kernels_admit_no_word(self, monkeypatch):
        """mass, normalize, integrate, marginal, coarsen, cylinder_mass, dual_apply,
        invariant_measures, wasserstein and lipschitz_dual on Dirac, mixed-length, JSON
        and library-built measures, at equal and unequal depths, with functions and
        potentials deeper and shallower than the atoms."""
        cfg = load_config(CONFIGS / "random_3letter.json")
        fibers, phi, path = cfg.fibers, cfg.potential, cfg.sample(cfg.seeds[0])
        triple = rpf_solve(phi, fibers, path, depth=cfg.depths["working"],
                           horizon=cfg.horizons["solve"], window=(0, 6))
        back = RpfTriple.from_json(triple.to_json(), fibers, path)
        rng = np.random.default_rng(3)
        words = admissible_words(fibers, path, 2, 3)
        measures = {
            "dirac": AtomicMeasure.dirac(fibers, path, 2, words[0][:1]),
            "mixed": AtomicMeasure(fibers, path, 2, 3, {words[0]: 0.5, words[-1][:1]: 0.5}),
            "json": back.mu[2],
            "sweep": triple.mu[2],
            "random": AtomicMeasure.random(fibers, path, 2, 2, rng),
            "pulled": dual_apply(phi, AtomicMeasure.random(fibers, path, 5, 2, rng),
                                 3).normalize(),
        }
        assert sorted({mu.depth for mu in measures.values()}) == [1, 2, 3, 4, 5]
        functions = [random_lipschitz(fibers, path, 2, k, rng, Metric("raw", phi.r))
                     for k in (1, 3, 6)]
        tables = [{w: float(rng.normal(scale=0.4))
                   for w in itertools.product(fibers.universe, repeat=4)}
                  for _ in fibers.alphabets]
        potentials = (phi, table_potential(tables, depth=4, r=0.5))  # localities 1 and 3
        metric = Metric("adjusted", phi.r, alpha=2.0)

        def forbidden(*args):
            raise AssertionError("a word was re-admitted")

        for module in (shifts, transfer, transport):
            monkeypatch.setattr(module, "canonical_prefixes", forbidden)
        monkeypatch.setattr(FiberStructure, "admits_word", forbidden)
        for mu in measures.values():
            mu.normalize().mass()
            for f in functions:
                mu.integrate(f)
            for depth in range(1, mu.depth + 1):
                mu.coarsen(depth)
                for f in (None, *functions):
                    mu.marginal(depth, f)
            for word in map(tuple, mu.prefixes(mu.depth + 2).tolist()):
                for k in range(mu.depth + 3):
                    mu.cylinder_mass(word[:k])
            for psi in potentials:
                dual_apply(psi, mu, 2)
            for other in measures.values():
                wasserstein(mu, other, metric)
                lipschitz_dual(mu, other, metric)
        invariant_measures(triple)
        invariant_measures(back)


def _ladder_pairs():
    """pytest params (mu, nu, metric) on random_3letter at fiber 0: random pairs of 27,
    81 and 243 atoms, a Dirac against 81 atoms, and a pair in dict form."""
    cfg = load_config(CONFIGS / "random_3letter.json")
    path = cfg.sample(17)
    rng = np.random.default_rng(23)
    metrics = (Metric("raw", cfg.potential.r), Metric("adjusted", cfg.potential.r, alpha=2.0))
    out = []
    for metric in metrics:
        for depth in (3, 4, 5):
            mu, nu = (AtomicMeasure.random(cfg.fibers, path, 0, depth, rng) for _ in "ab")
            out.append(pytest.param(mu, nu, metric, id=f"r3-d{depth}-{metric.kind}"))
        dirac = AtomicMeasure.dirac(cfg.fibers, path, 0, (2, 3))
        wide = AtomicMeasure.random(cfg.fibers, path, 0, 4, rng)
        out.append(pytest.param(dirac, wide, metric, id=f"r3-dirac-d4-{metric.kind}"))
        mu, nu = (AtomicMeasure(cfg.fibers, path, 0, 3, dict(
            AtomicMeasure.random(cfg.fibers, path, 0, 3, rng).weights)) for _ in "ab")
        out.append(pytest.param(mu, nu, metric, id=f"r3-dict-d3-{metric.kind}"))
    return out


def _kr_instances():
    """pytest params (mu, nu, metric) on the four prefix instances: supports mixing
    word lengths 1-5, each holding a two-letter word and its four-letter canonical
    continuation, which are one point."""
    rng = np.random.default_rng(21)
    metrics = (Metric("raw", 0.4), Metric("adjusted", 0.4, alpha=3.0))
    out = []
    for name, (fibers, path) in _prefix_instances().items():
        for anchor in (-23, 0, 11):
            pick = [w for n in (1, 2) for w in admissible_words(fibers, path, anchor, n)]
            for n in (3, 4, 5):
                words = admissible_words(fibers, path, anchor, n)
                pick += [words[i] for i in sorted(rng.choice(len(words), size=4))]
            pick += canonical_prefixes(fibers, path, anchor, [pick[-1][:2]], 4)
            pick = list(dict.fromkeys(pick))
            half = [pick[i] for i in sorted(rng.choice(len(pick), size=len(pick) // 2,
                                                       replace=False))]
            mu, nu = (AtomicMeasure(fibers, path, anchor, 5,
                                    {w: float(x) for w, x in zip(support, raw / raw.sum())})
                      for support, raw in ((pick, rng.random(len(pick)) + 0.05),
                                           (half, rng.random(len(half)) + 0.05)))
            for metric in metrics:
                out.append(pytest.param(mu, nu, metric, id=f"{name}-{anchor}-{metric.kind}"))
    return out


class TestCylinderProgram:
    """lipschitz_dual against pairwise_kr_oracle: the same value, and a witness that is
    1-Lipschitz on every admissible word and attains it."""

    @pytest.mark.parametrize("mu,nu,metric", _parity_pairs() + _kr_instances())
    def test_matches_pairwise_oracle(self, mu, nu, metric):
        value, witness = lipschitz_dual(mu, nu, metric)
        oracle, _ = pairwise_kr_oracle(mu, nu, metric)
        assert abs(value - oracle) <= 1e-10
        depth = witness.depth
        words = admissible_words(mu.fibers, mu.path, mu.anchor, depth)
        rows = np.array(words, dtype=np.int64).reshape(len(words), depth)
        f = np.array([witness.values[w] for w in words])
        cost = dense_cost(metric, rows, rows)
        assert (np.abs(f[:, None] - f[None, :]) - cost).max() <= 1e-9
        attained = mu.integrate(witness) - nu.integrate(witness)
        assert attained == pytest.approx(value, abs=1e-9)

    @pytest.mark.parametrize("mu,nu,metric", _parity_pairs() + _kr_instances())
    def test_witness_is_dense_minimal_extension(self, mu, nu, metric):
        """The witness equals, float for float, the dense minimal 1-Lipschitz extension
        of its own values on the keys."""
        _, witness = lipschitz_dual(mu, nu, metric)
        depth = witness.depth
        keys = sorted({tuple(x) for m in (mu, nu) for x in point_prefix_oracle(
            m, list(m.weights), depth).tolist()})
        words = admissible_words(mu.fibers, mu.path, mu.anchor, depth)
        f_keys = np.array([witness.values[x] for x in keys])
        rows = np.array(words, dtype=np.int64).reshape(len(words), depth)
        extension = (f_keys[None, :] + dense_cost(metric, rows, np.array(keys))).min(axis=1)
        want = {w: witness.values[w] if w in keys else float(e)
                for w, e in zip(words, extension)}
        assert witness.values == want

    @pytest.mark.parametrize("mu,nu,metric", _parity_pairs() + _kr_instances() + _ladder_pairs())
    def test_matches_star_oracle(self, mu, nu, metric):
        """The program along the tree's edges has the value of the program with one row
        pair per (key, enclosing cylinder), and of the pairwise one where it is small."""
        value, witness = lipschitz_dual(mu, nu, metric)
        star, _ = star_kr_oracle(mu, nu, metric)
        assert abs(value - star) <= 1e-10
        if len(mu.weights) + len(nu.weights) <= 2 * 81:
            oracle, _ = pairwise_kr_oracle(mu, nu, metric)
            assert abs(value - oracle) <= 1e-10
        attained = mu.integrate(witness) - nu.integrate(witness)
        assert attained == pytest.approx(value, abs=1e-9)

    @pytest.mark.parametrize("mu,nu,metric", _parity_pairs() + _kr_instances() + _ladder_pairs())
    def test_matches_linprog(self, mu, nu, metric, monkeypatch):
        """The direct HiGHS call gives, float for float, the value and witness that
        public linprog (method highs, at _LP_OPTIONS) gives on the same program."""
        value, witness = lipschitz_dual(mu, nu, metric)
        monkeypatch.setattr(transport, "_highs", linprog_highs)
        want_value, want_witness = lipschitz_dual(mu, nu, metric)
        assert value.hex() == want_value.hex()
        assert witness.values == want_witness.values

    def test_failed_solve_names_the_status(self):
        """|x0 - x1| <= -1 is infeasible: the HiGHS model status is in the message."""
        with pytest.raises(ConvergenceError, match="^dual LP failed: Infeasible$"):
            transport._highs(np.array([1.0, 0.0]), np.array([0]), np.array([1]),
                             np.array([-1.0]), np.array([[0.0, 0.0], [-np.inf, np.inf]]))

    @pytest.mark.parametrize("depth, want", [(3, 78), (4, 240), (5, 726)])
    def test_rows_two_per_tree_edge(self, depth, want, monkeypatch):
        """2(k + c - 1) rows: one pair per key and one per centre below the root."""
        cfg = load_config(CONFIGS / "random_3letter.json")
        path = cfg.sample(17)
        rng = np.random.default_rng(5)
        mu, nu = (AtomicMeasure.random(cfg.fibers, path, 0, depth, rng) for _ in "ab")
        keys = sorted(mu.weights.keys() | nu.weights.keys())
        k = len(keys)
        assert k == 3 ** depth
        # centres: the cylinders of length L < D that hold two or more keys
        prefixes = [Counter(w[:length] for w in keys) for length in range(depth)]
        c = sum(count >= 2 for counts in prefixes for count in counts.values())
        real, rows = transport._highs, []

        def spy(cost, lo, hi, half, bounds):
            rows.append(2 * len(lo))
            return real(cost, lo, hi, half, bounds)

        monkeypatch.setattr(transport, "_highs", spy)
        metric = Metric("raw", cfg.potential.r)
        value, _ = lipschitz_dual(mu, nu, metric)
        assert rows == [2 * (k + c - 1)] == [want]
        # every key lies in a shared cylinder at each length < D: 2kD rows in star form
        assert want <= star_kr_oracle(mu, nu, metric)[1] == 2 * k * depth
        assert value == pytest.approx(wasserstein(mu, nu, metric)[0], abs=1e-8)

    def test_lp_cap_checked_first(self, monkeypatch):
        cfg = load_config(CONFIGS / "random_3letter.json")
        path = cfg.sample(17)
        rng = np.random.default_rng(5)
        mu, nu = (AtomicMeasure.random(cfg.fibers, path, 0, 3, rng) for _ in "ab")
        assert len(mu.weights) == len(nu.weights) == 27

        def refuse(*args, **kwargs):
            raise AssertionError("ran before the LP cap was checked")

        monkeypatch.setattr(transport, "LP_CAP", 10)
        for name in ("admissible_words", "word_index", "_highs"):
            monkeypatch.setattr(transport, name, refuse, raising=False)
        with pytest.raises(ConfigError, match="atom count 27 beyond the LP cap 10"):
            lipschitz_dual(mu, nu, Metric("raw", cfg.potential.r))

    def test_rows_at_most_2kD(self, monkeypatch):
        cfg = load_config(CONFIGS / "random_3letter.json")
        path = cfg.sample(17)
        rng = np.random.default_rng(5)
        depth = 5
        mu, nu = (AtomicMeasure.random(cfg.fibers, path, 0, depth, rng) for _ in "ab")
        k = len(mu.weights.keys() | nu.weights.keys())
        assert k == 243
        real, rows = transport._highs, []

        def spy(cost, lo, hi, half, bounds):
            rows.append(2 * len(lo))
            return real(cost, lo, hi, half, bounds)

        monkeypatch.setattr(transport, "_highs", spy)
        metric = Metric("raw", cfg.potential.r)
        value, _ = lipschitz_dual(mu, nu, metric)
        assert len(rows) == 1 and rows[0] <= 2 * k * depth
        assert value == pytest.approx(wasserstein(mu, nu, metric)[0], abs=1e-8)


class TestDualityProperty:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 3),
           alpha=st.floats(1.0, 5.0))
    def test_gap_below_tolerance(self, seed, depth, alpha):
        system = stationary_system()
        path = sample_path(system, seed=0)
        fibers = full_shift(system, 2)
        rng = np.random.default_rng(seed)
        words = admissible_words(fibers, path, 0, depth)
        raw = rng.random(len(words)) + 1e-3
        mu = make_measure(fibers, path, 0, depth, raw / raw.sum())
        raw2 = rng.random(len(words)) + 1e-3
        nu = make_measure(fibers, path, 0, depth, raw2 / raw2.sum())
        metric = Metric("adjusted", 0.5, alpha=alpha)
        primal, _ = wasserstein(mu, nu, metric)
        dual, _ = lipschitz_dual(mu, nu, metric)
        assert abs(primal - dual) <= 1e-8
        assert primal >= -1e-12
