"""Optimal transport on fibered shifts and the contraction machinery.

The shift metric d_r and its capped rescaling depend only on the first index
of disagreement, so both are ultrametrics: two points first differing at index
L lie at distance g(L), g non-increasing, read off the canonical prefixes of
points at one fiber (`Metric.levels`).  A measure's atoms are those
prefixes at its own depth; a pair of unequal depths continues the shorter
atoms by their canonical tails (`AtomicMeasure.prefixes`).  Every distance
here is read off that cylinder tree, never from a pairwise cost matrix.  A
function is 1-Lipschitz on a support exactly when its values on each
length-L cylinder span at most g(L).  So the closed-form Wasserstein
distance, with its greedy optimal plan (held as its support, at most
n + m - 1 entries) and explicit dual, is certified by that per-cylinder span
check on the dual plus complementary slackness on the plan's support only.
The Kantorovich-Rubinstein side is an independent linear program (HiGHS) with
one free centre per cylinder, written along the edges of the cylinder tree:
2(k + c - 1) rows for k points and c centres, not one per pair of points.  It
goes to the HiGHS bindings that scipy ships in one direct call, because
scipy's `linprog` wrapper around them cost more than the solve; their
extension module is loaded alone, since importing the `scipy.optimize`
package around it costs some 40 MiB more.

On top sit the coupling constants: per-fiber distortion products B and scales
alpha = B/beta, metric-settling exponents n, big-preimage passage lengths m
with their mediator word families, worst-case passage weights C, the
contraction factors t = max(beta, 1 - (1 - r^n alpha) C'/B'), the certified
event (B_omega <= B, C_omega >= C) with its envelope rate 1 - C/2B, and the
forward/backward return-time sequences along which the dual operator
contracts.  The explicit near-diagonal coupling of two head words at a block
end is built literally and its cost checked against both the optimal
transport cost and the certified factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .driver import DriverPath, EventSpec
from .errors import (
    AdmissibilityError,
    ConfigError,
    ConvergenceError,
    InvariantViolation,
)
from .fitting import fit_rate
from .potentials import Potential, distortion_constant, word_birkhoff
from .shifts import FiberStructure, Metric, admissible_words, canonical_prefixes, word_index
from .transfer import (
    AtomicMeasure,
    CylinderFunction,
    RpfTriple,
    dual_apply,
    random_lipschitz,
    transfer_apply,
    transfer_power,
)

LP_CAP = 4096
_PASSAGE_SCAN = 64  # steps searched for a big-preimage passage
_RATE_SLACK = 0.05  # allowed excess of the forward fitted log-rate over log t
_CERT_TOL = 1e-9  # transport certificate: dual feasibility, support, plan cost
_MARGINAL_TOL = 1e-10  # a plan's row and column sums against its two measures
# the Kantorovich-Rubinstein program is degenerate (its bounds are a few half
# levels g(L)/2, each shared by many rows), so HiGHS runs at tighter
# feasibility tolerances than its defaults
_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


@dataclass(eq=False)
class TransportPlan:
    """A feasible transport held as its support, with its cost and dual certificate:
    mass[e] moves from source rows[e] to target cols[e]."""

    source_labels: list
    target_labels: list
    rows: np.ndarray
    cols: np.ndarray
    mass: np.ndarray
    cost: float
    dual_source: np.ndarray | None = None
    dual_target: np.ndarray | None = None
    dual_gap: float | None = None

    def check_marginals(self, mu_w: np.ndarray, nu_w: np.ndarray) -> None:
        out = np.bincount(self.rows, weights=self.mass, minlength=len(mu_w))
        if np.max(np.abs(out - mu_w)) > _MARGINAL_TOL:
            raise InvariantViolation("transport plan row sums differ from the source weights")
        into = np.bincount(self.cols, weights=self.mass, minlength=len(nu_w))
        if np.max(np.abs(into - nu_w)) > _MARGINAL_TOL:
            raise InvariantViolation("transport plan column sums differ from the target weights")
        if self.mass.min(initial=0.0) < -_MARGINAL_TOL:
            raise InvariantViolation("negative transport mass")


def _common_prefix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Length of the longest common prefix of prefix rows a[i] and b[i], row by row."""
    eq = a == b
    return np.where(eq.all(axis=-1), eq.shape[-1], eq.argmin(axis=-1))


def _tree(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cylinder tree of prefix rows: their stable lexicographic order, and lcp[p],
    the common prefix length of sorted rows p-1 and p (-1 at p = 0)."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    return order, np.concatenate([[-1], _common_prefix(ranked[:-1], ranked[1:])])


def _match(src: list, tgt: list, support: tuple) -> tuple[list, list]:
    """Couple two queues of (atom, mass) greedily in order, appending each coupled
    (source, target, mass) to the lists of `support`; return the unmatched rests."""
    rows, cols, mass = support
    i = j = 0
    while i < len(src) and j < len(tgt):
        a, ma = src[i]
        b, mb = tgt[j]
        rows.append(a)
        cols.append(b)
        mass.append(min(ma, mb))
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


def _ultrametric_plan(order: np.ndarray, lcp: np.ndarray, depth: int,
                      weights: list, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Optimal plan for an ultrametric as its support (rows, cols, mass): match inside
    each cylinder, bottom-up.

    Atoms 0..n-1 are sources and the rest targets; `order` sorts their
    depth-`depth` prefixes lexicographically and lcp[p] is the common prefix
    length of sorted atoms p-1 and p (-1 at p = 0).  One pass keeps a stack of
    open cylinders, each with the unmatched mass of its closed children in
    lexicographic order; where lcp drops, each longer cylinder is matched and
    hands what is left, all on one side, to the enclosing one.  Each coupling
    uses up a source or a target: at most n + m - 1 entries.
    """
    support = ([], [], [])
    stack = []  # [length, sources, targets] per open cylinder, shortest first

    def close(level: int) -> None:
        while stack and stack[-1][0] > level:
            _, src, tgt = stack.pop()
            if src and tgt:
                src, tgt = _match(src, tgt, support)
            if stack and stack[-1][0] >= level:
                stack[-1][1].extend(src)
                stack[-1][2].extend(tgt)
            elif level >= 0:
                stack.append([level, src, tgt])

    for a, level in zip(order.tolist(), lcp.tolist()):
        close(level)
        src, tgt = ([(a, weights[a])], []) if a < n else ([], [(a - n, weights[a])])
        if level == depth:  # the same point as the previous atom
            stack[-1][1].extend(src)
            stack[-1][2].extend(tgt)
        else:
            stack.append([depth, src, tgt])
    close(-1)
    rows, cols, mass = support
    return (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
            np.array(mass, dtype=float))


def wasserstein(
    mu: AtomicMeasure,
    nu: AtomicMeasure,
    metric: Metric,
) -> tuple[float, TransportPlan]:
    """Exact W1 between two atomic measures, by the closed form on the cylinder tree.

    d_r and min(1, alpha d_r) depend only on the first index of disagreement,
    so both are ultrametrics.  With g(k) the distance of points first
    differing at index k and D = max(mu.depth, nu.depth),

        W1 = sum_{k<D} (g(k) - g(k+1))/2 * sum_{|C| = k+1} |mu(C) - nu(C)|.

    The plan matches greedily inside each cylinder, bottom-up; the duals are
    u_i = f(x_i), v_j = -f(y_j) with f the sum of the signed half level steps
    sign(mu(C) - nu(C)) (g(k) - g(k+1))/2 along each root-to-atom path.
    Optimality is certified against them: f spans at most g(L) on every
    length-L cylinder of the union support (dual feasibility for all pairs),
    complementary slackness holds on the plan's support, the primal-dual gap is
    below 1e-7, and the plan cost, read on its support, is the closed-form value.

    The atoms of both measures, read to D letters (`AtomicMeasure.prefixes`:
    the atoms themselves at equal depths), are ordered by a lexicographic
    sort, the order of the sorted words, without re-admitting a word; the
    plan's labels are the atoms at their own depths in that order.
    """
    if mu.anchor != nu.anchor:
        raise AdmissibilityError("measures on different fibers")
    if abs(mu.mass() - nu.mass()) > 1e-10:
        raise ConfigError(f"unequal total masses {mu.mass()} vs {nu.mass()}")
    depth = max(mu.depth, nu.depth)
    src, tgt = mu.prefixes(depth), nu.prefixes(depth)
    so, to = np.lexsort(src.T[::-1]), np.lexsort(tgt.T[::-1])
    src, tgt = src[so], tgt[to]
    swt, twt = mu.values[so], nu.values[to]
    sw = list(map(tuple, src[:, :mu.depth].tolist()))
    tw = list(map(tuple, tgt[:, :nu.depth].tolist()))
    n, m = len(sw), len(tw)
    signed = np.concatenate([swt, -twt])
    order, lcp = _tree(np.vstack([src, tgt]))
    g = metric.levels(depth)
    value = 0.0
    f = np.zeros(n + m)
    for k in range(depth):
        step = float(g[k] - g[k + 1]) / 2.0
        if step == 0.0:
            continue
        # cylinders of length k+1, numbered along the sorted atoms
        cyl = np.cumsum(lcp < k + 1) - 1
        excess = np.bincount(cyl, weights=signed[order])
        value += step * float(np.abs(excess).sum())
        f[order] += step * np.sign(excess)[cyl]
    rows, cols, mass = _ultrametric_plan(order, lcp, depth, swt.tolist() + twt.tolist(), n)

    # f spans at most g(L) on every length-L cylinder of the union support, so
    # u_i + v_j = f(x_i) - f(y_j) <= g(L) = c_ij for every pair first differing at L
    ranked = f[order]
    for length in range(depth + 1):
        starts = np.flatnonzero(lcp < length)
        span = np.maximum.reduceat(ranked, starts) - np.minimum.reduceat(ranked, starts)
        if span.max() > g[length] + _CERT_TOL:
            raise InvariantViolation("dual infeasibility in the transport certificate")
    u, v = f[:n], -f[n:]
    cost = g[_common_prefix(src[rows], tgt[cols])]
    slack = cost - u[rows] - v[cols]
    support_gap = float(np.abs(slack[mass > _CERT_TOL]).max(initial=0.0))
    dual_value = float(u @ swt + v @ twt)
    gap = abs(value - dual_value)
    if max(gap, support_gap) > 1e-7:
        raise InvariantViolation("complementary slackness fails on the computed plan")
    if abs(float(mass @ cost) - value) > _CERT_TOL:
        raise InvariantViolation("transport plan cost differs from the closed-form value")
    out = TransportPlan(
        source_labels=sw, target_labels=tw, rows=rows, cols=cols, mass=mass, cost=value,
        dual_source=u, dual_target=v, dual_gap=gap,
    )
    out.check_marginals(swt, twt)
    return value, out


def _highs(cost: np.ndarray, lo: np.ndarray, hi: np.ndarray, half: np.ndarray,
           bounds: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimize cost @ x over bounds[:, 0] <= x <= bounds[:, 1] subject to
    |x[lo[e]] - x[hi[e]]| <= half[e] for each edge e, by one call into the HiGHS
    bindings that scipy ships, at `_LP_OPTIONS` with output off.  Returns the
    optimal value and x; any model status but optimal is a ConvergenceError.

    Edge e gives rows 2e (x[lo] - x[hi] <= half) and 2e + 1 (x[hi] - x[lo] <=
    half), each holding exactly +1 and -1, so the matrix is passed row-wise.

    The bindings are scipy's extension module `scipy.optimize._highspy._core`,
    loaded here on the first call (a run of the experiments never loads it)
    from scipy's package directory by itself: importing it by name would run
    `scipy/optimize/__init__.py`, which loads some 320 scipy modules (about
    43 MiB and 0.5 s) this call never reads, against about 3 MiB and 5 ms for
    the extension alone.  It is registered in `sys.modules` under its full
    name, so a later `import scipy.optimize` reuses it, and one already there
    is used as it is.
    """
    import sys

    name = "scipy.optimize._highspy._core"
    highs = sys.modules.get(name)
    if highs is None:
        import importlib.machinery
        import importlib.util
        import os

        scipy = importlib.util.find_spec("scipy")  # locates scipy without running it
        if scipy is None:
            raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
        where = os.path.join(scipy.submodule_search_locations[0], "optimize", "_highspy")
        spec = importlib.machinery.PathFinder.find_spec(name, [where])
        if spec is None:
            raise ModuleNotFoundError(f"no HiGHS extension module '_core' in {where}",
                                      name=name)
        highs = importlib.util.module_from_spec(spec)
        sys.modules[name] = highs
        spec.loader.exec_module(highs)

    rows = 2 * len(lo)
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = len(cost)
    lp.num_row_ = lp.a_matrix_.num_row_ = rows
    lp.col_cost_ = cost
    lp.col_lower_ = np.ascontiguousarray(bounds[:, 0])
    lp.col_upper_ = np.ascontiguousarray(bounds[:, 1])
    lp.row_lower_ = np.full(rows, -np.inf)
    lp.row_upper_ = np.repeat(half, 2)
    lp.a_matrix_.format_ = highs.MatrixFormat.kRowwise
    lp.a_matrix_.start_ = np.arange(0, 2 * rows + 1, 2)
    lp.a_matrix_.index_ = np.stack([lo, hi, lo, hi], axis=1).ravel()
    lp.a_matrix_.value_ = np.tile([1.0, -1.0, -1.0, 1.0], len(lo))
    options = highs.HighsOptions()
    options.output_flag = False
    for name, value in _LP_OPTIONS.items():
        setattr(options, name, value)
    solver = highs._Highs()
    solver.passOptions(options)
    solver.passModel(lp)
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise ConvergenceError(f"dual LP failed: {solver.modelStatusToString(status)}")
    return solver.getInfo().objective_function_value, np.array(solver.getSolution().col_value)


def lipschitz_dual(
    mu: AtomicMeasure,
    nu: AtomicMeasure,
    metric: Metric,
) -> tuple[float, CylinderFunction]:
    """Kantorovich-Rubinstein program: maximize int f dmu - int f dnu over 1-Lipschitz f.

    Solved as an independent LP (HiGHS) over the values of f on the union of
    supports, read as depth-D prefixes (D = max(mu.depth, nu.depth);
    `AtomicMeasure.prefixes`), which are admissible depth-D words; it
    reads only the tree of those words and `metric.levels`, nothing of the
    closed form.  Two keys first differing at index L lie at distance g(L), g
    non-increasing, so f is 1-Lipschitz on the keys exactly when, on every
    length-L cylinder holding two or more keys, its values span at most g(L).
    The program has one free centre c_C per such cylinder C (L < D) and a row
    pair per edge of their tree (Evans & Matsen, 2012): |f_x - c_C| <= g(L_C)/2
    for each key x and its deepest such C, and |c_C - c_P| <= (g(L_P) - g(L_C))/2
    for each such C and its parent P: 2(k + c - 1) rows for k keys and c
    centres.  It is exact: the half-widths telescope, so f spans at most g(L)
    on every such cylinder; and a 1-Lipschitz f meets every row with centres
    chosen top-down in both their cylinder's interval [max f - g/2, min f + g/2]
    and the parent's slack.  The witness, the first k entries of the solution,
    is extended to every word by the minimal 1-Lipschitz extension on the same
    tree.  The keys are word-index rows, read without re-admitting a word.
    The program goes to HiGHS's bindings directly (`_highs`): scipy's
    `linprog` wrapper, which cleans and converts the inputs again and
    reads per-column marginals this certificate never uses, cost more
    than the solve itself.
    """
    if mu.anchor != nu.anchor:
        raise AdmissibilityError("measures on different fibers")
    if abs(mu.mass() - nu.mass()) > 1e-10:
        raise ConfigError(f"unequal total masses {mu.mass()} vs {nu.mass()}")
    fibers, path, anchor = mu.fibers, mu.path, mu.anchor
    depth = max(mu.depth, nu.depth)
    count = len(mu.values) + len(nu.values)
    if count > LP_CAP:  # the two measures may share points: count them past the cap
        count = len(np.unique(np.vstack([mu.prefixes(depth), nu.prefixes(depth)]), axis=0))
    if count > LP_CAP:
        raise ConfigError(f"atom count {count} beyond the LP cap {LP_CAP}")
    # every key is an admissible depth-D word: the program lives on the word tree
    index = word_index(fibers, path, anchor, depth)
    words = index.words
    leaf = np.concatenate([m._rows_in(index, depth) for m in (mu, nu)])
    signed = np.concatenate([mu.values, -nu.values])
    keyed = np.bincount(leaf, minlength=len(words)) > 0
    k = int(np.count_nonzero(keyed))
    net = np.bincount(leaf, weights=signed, minlength=len(words))[keyed]
    _, lcp = _tree(index.array)  # the index words are sorted
    # cylinder ids of the words at each length 0..D, numbered along the sorted words
    cyl = np.cumsum([lcp < length for length in range(depth + 1)], axis=1) - 1
    g = metric.levels(depth)
    # rows |lo - hi| <= half: each key to its deepest centre, each centre to its parent
    deepest = np.zeros(k, dtype=np.intp)  # length of each key's deepest centre
    centre = np.zeros(k, dtype=np.intp)  # that centre's variable
    # a single key has no centre and no row
    lo, hi, half = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
    n_centres = 0
    for length in range(depth):
        ids = cyl[length][keyed]
        shared = np.bincount(ids) >= 2
        inside = shared[ids]
        if not inside.any():  # no deeper cylinder holds two keys either
            break
        here = np.where(inside, k + n_centres + (np.cumsum(shared) - 1)[ids], -1)
        if length:
            # the first key of each centre, read one length up, gives its parent
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
    c_obj = np.concatenate([-net, np.zeros(n_centres)])
    bounds = np.full((k + n_centres, 2), [-np.inf, np.inf])
    bounds[0] = 0.0  # pin one value, the rest free
    fun, x = _highs(c_obj, np.concatenate(lo), np.concatenate(hi), np.concatenate(half),
                    bounds)
    value = -fun
    f_keys = x[:k]
    # the least g(L) + min f over w's length-L cylinder is min_x f(x) + g(lcp(w, x)),
    # float for float, since g is non-increasing and float addition is monotone
    extension = np.full(len(words), np.inf)
    for length, ids in enumerate(cyl):
        least = np.full(ids[-1] + 1, np.inf)
        np.minimum.at(least, ids[keyed], f_keys)
        extension = np.minimum(extension, g[length] + least[ids])
    extension[keyed] = f_keys  # on the atoms themselves it is the LP value
    values = dict(zip(words, extension.tolist()))
    witness = CylinderFunction._trusted(fibers, path, anchor, depth, values)
    return value, witness


# ---------------------------------------------------------------------------
# contraction constants


@dataclass(eq=False)
class ContractionCertificate:
    """Everything the coupling argument needs, per fiber and globally."""

    fibers: FiberStructure
    path: DriverPath
    phi: Potential  # normalized potential
    beta: float
    r: float
    lo: int
    hi: int
    B: dict = field(default_factory=dict)  # fiber -> distortion value
    alpha: dict = field(default_factory=dict)
    n_step: dict = field(default_factory=dict)  # settling exponent (minimal admissible)
    m_step: dict = field(default_factory=dict)  # passage length at a passage-start fiber
    u_words: dict = field(default_factory=dict)  # fiber -> {first letter -> passage word}
    o_letter: dict = field(default_factory=dict)
    C: dict = field(default_factory=dict)  # fiber -> worst passage weight
    s_fiber: dict = field(default_factory=dict)
    t_fiber: dict = field(default_factory=dict)
    block: dict = field(default_factory=dict)  # fiber -> n + m (lemma block length)
    # certified-event data
    B_threshold: float | None = None
    C_threshold: float | None = None
    event_member: dict = field(default_factory=dict)
    t: float | None = None  # envelope rate 1 - C/(2B)
    t_observed: float | None = None
    c: float | None = None  # 2B
    l_seq: tuple = ()
    k_seq: tuple = ()
    sequence_mode: str = ""
    passage_failures: dict = field(default_factory=dict)

    def metric_at(self, fiber: int) -> Metric:
        return Metric("adjusted", self.r, self.alpha[fiber])

    def require_event(self) -> None:
        if self.t is None:
            raise ConfigError("certificate has no certified event; call certify_event first")


def k_factor(triple: RpfTriple, B: dict, fiber: int) -> float:
    """Lipschitz transfer factor 2 ||1/h|| max(||h|| ||1/h|| - 1, B - 1, 1)."""
    h = triple.h[fiber]
    inv_sup = 1.0 / h.inf()
    return 2.0 * inv_sup * max(h.sup() * inv_sup - 1.0, B[fiber] - 1.0, 1.0)


def settle_exponent(scale: float, r: float) -> int:
    """Least integer n with r^n * scale < 1."""
    return int(math.floor(-math.log(scale) / math.log(r))) + 1


def _next_return(origin: int, sign: int, floor: int, window: tuple[int, int],
                 holds: Callable[[int], bool], message: str) -> int:
    """The least step n >= floor whose target fiber origin + sign * n satisfies `holds`;
    ConvergenceError(message) once the target leaves the window."""
    lo, hi = window
    n = floor
    while lo <= origin + sign * n <= hi:
        if holds(origin + sign * n):
            return n
        n += 1
    raise ConvergenceError(message)


def big_preimage_sequences(event: EventSpec, path: DriverPath, count: int,
                           window: tuple[int, int]) -> tuple[list, list]:
    """Forward and backward big-preimage return sequences (2, 4, 6, ... on a full shift).

    Each step reads the event two fibers on before it checks the window.
    """
    def holds(j: int) -> bool:
        return event.evaluate(path, j)

    seqs = ([], [])
    for seq, sign, direction in zip(seqs, (1, -1), ("forward", "backward")):
        cur = 0
        for _ in range(count):
            j = sign * cur
            cur += 2 if holds(j + 2 * sign) else _next_return(
                j, sign, 3, window, holds, f"no {direction} big-preimage return in the window")
            seq.append(cur)
    return seqs


def _passage(
    fibers: FiberStructure,
    path: DriverPath,
    phi: Potential,
    q: int,
    o: int,
) -> tuple[int, dict, float]:
    """Passage data at fiber q: length m, mediator word family, worst weight C.

    m is the least n >= 1 with the big-preimage event at fiber q+n such that
    every letter of fiber q+n has an admissible predecessor chain
    o -> ... -> j in the mediator set; words are chosen lexicographically
    minimal; C is the exact minimum of e^(S_m) over the family and the
    depth-(p-1) representatives.
    """
    bip = fibers.bip
    if bip is None:
        raise ConfigError("no b.i.p. structure declared")
    mediators = bip.letters
    if o not in fibers.alphabet(path, q):
        raise AdmissibilityError(f"marked letter {o} not in the fiber-{q} alphabet")
    reach_by_level, succ = [{o}], []  # succ[t]: successors from fiber q+t to q+t+1
    s, m = path.state(q), None
    for n in range(1, _PASSAGE_SCAN + 1):
        s_next = path.state(q + n)
        succ.append(fibers._succ[s][s_next])
        reach_by_level.append({b for a in reach_by_level[-1] for b in succ[-1][a]})
        if bip.omega_bp.holds(s_next):
            final = reach_by_level[n - 1] & mediators
            pred = fibers._pred[s][s_next]
            if all(not final.isdisjoint(prev) for prev in pred.values()):
                m = n
                break
        s = s_next
    if m is None:
        raise ConvergenceError(
            f"no big-preimage passage from fiber {q} within {_PASSAGE_SCAN} steps"
        )
    words = {}
    for x0, prev in pred.items():
        # allowed[t]: the letters at fiber q+t that reach x0 through the family
        allowed = [final.intersection(prev)]
        for t in range(m - 2, -1, -1):
            allowed.insert(0, {a for a in reach_by_level[t]
                               if not allowed[0].isdisjoint(succ[t][a])})
        word = [o]
        for t in range(1, m):
            word.append(min(allowed[t].intersection(succ[t - 1][word[-1]])))
        words[x0] = tuple(word)
    c_min = math.inf
    tail_depth = max(phi.depth - 1, 1)
    for z in admissible_words(fibers, path, q + m, tail_depth):
        u = words[z[0]]
        c_min = min(c_min, math.exp(word_birkhoff(phi, path, q, u + z, m)))
    return m, words, c_min


def contraction_constants(
    phi: Potential,
    fibers: FiberStructure,
    path: DriverPath,
    beta: float,
    window: tuple[int, int],
) -> ContractionCertificate:
    """All per-fiber coupling constants for a normalized potential on a window.

    The marked letter of each fiber is the least letter of its alphabet.  A
    window on which no fiber has a big-preimage passage is a ConvergenceError.
    """
    if not 0 < beta < 1:
        raise ConfigError("beta must lie in (0, 1)")
    lo, hi = window
    r = phi.r
    cert = ContractionCertificate(fibers=fibers, path=path, phi=phi, beta=beta,
                                  r=r, lo=lo, hi=hi)
    for k in range(lo, hi + 1):
        cert.B[k] = distortion_constant(phi, path, k).value
        cert.alpha[k] = cert.B[k] / beta
        cert.n_step[k] = settle_exponent(cert.alpha[k], r)
        cert.o_letter[k] = min(fibers.alphabet(path, k))
    for q in range(lo, hi + 1):
        try:
            m, words, c_min = _passage(fibers, path, phi, q, cert.o_letter[q])
        except (ConvergenceError, AdmissibilityError) as exc:
            cert.passage_failures[q] = str(exc)
            continue
        cert.m_step[q] = m
        cert.u_words[q] = words
        cert.C[q] = c_min
    if not cert.C:
        raise ConvergenceError(f"no fiber of the window [{lo}, {hi}] has a big-preimage passage")
    for k in range(lo, hi + 1):
        q = k + cert.n_step[k]
        if q in cert.m_step and q in cert.B:
            s = 1.0 - (1.0 - r ** cert.n_step[k] * cert.alpha[k]) * cert.C[q] / cert.B[q]
            cert.s_fiber[k] = s
            cert.t_fiber[k] = max(beta, s)
            cert.block[k] = cert.n_step[k] + cert.m_step[q]
            if not 0.0 < cert.t_fiber[k] < 1.0:
                raise InvariantViolation(f"contraction factor at fiber {k} outside (0,1)")
    return cert


def certify_event(cert: ContractionCertificate, B: float, C: float) -> ContractionCertificate:
    """Mark the event (B_omega <= B, C_omega >= C) and set the envelope rate 1 - C/(2B)."""
    if C <= 0 or B < 1:
        raise ConfigError("need C > 0 and B >= 1")
    member = {}
    for k in cert.C:
        member[k] = cert.B[k] <= B + 1e-12 and cert.C[k] >= C - 1e-12
    if not any(member.values()):
        raise ConvergenceError("the certified event is empty on this window")
    cert.B_threshold, cert.C_threshold = B, C
    cert.event_member = member
    cert.t = 1.0 - C / (2.0 * B)
    cert.c = 2.0 * B
    return cert


def _markov_n(cert: ContractionCertificate, k: int) -> int:
    """First certified-event return past the strengthened settling bound; a scan from a
    fiber k past the certificate window is a ConvergenceError."""
    if not cert.lo <= k <= cert.hi:
        raise ConvergenceError(f"certified-event return scan from fiber {k}, "
                               f"past the window [{cert.lo}, {cert.hi}]")
    return _next_return(k, 1, max(1, settle_exponent(2.0 * cert.alpha[k], cert.r)),
                        (k, cert.hi), lambda j: cert.event_member.get(j, False),
                        f"no certified-event return above fiber {k} in the window")


def return_sequences(
    cert: ContractionCertificate,
    count: int,
    mode: str = "markov",
) -> ContractionCertificate:
    """Forward and backward certified return sequences.

    markov mode follows the general construction (settle to the certified event
    past the strengthened bound, then pass); matrix mode takes the simplified
    construction of big_preimage_sequences.
    """
    cert.require_event()
    t_obs = cert.beta
    if mode == "markov":
        # the seed l_0 = first certified return carries no completed block; the
        # enumerated points l_1, l_2, ... each add one settle-then-pass block
        ls = []
        l_prev = _markov_n(cert, 0)
        for _ in range(count):
            start = l_prev + cert.m_step[l_prev]  # passage first, then settle
            n = _markov_n(cert, start)
            l_new = start + n
            q = l_new  # next passage start lies in the certified event
            s_block = 1.0 - (1.0 - cert.r ** n * cert.alpha[start]) * cert.C[q] / cert.B[q]
            t_obs = max(t_obs, s_block)
            ls.append(l_new)
            l_prev = l_new
        # backward: pass-end points of certified passage starts
        pass_end = {}
        for j in range(cert.lo, cert.hi + 1):
            if cert.event_member.get(j, False) and j in cert.m_step:
                pass_end.setdefault(j + cert.m_step[j], []).append(j)

        def tilde_m(j: int) -> int:
            cands = [j - q for q in pass_end.get(j, [])]
            if not cands:
                raise ConvergenceError(f"fiber {j} is not a passage end")
            return min(cands)

        def tilde_n(j: int) -> int:
            def settled(t: int) -> bool:  # a passage end far enough below j to settle
                return t in pass_end and \
                    j - t >= max(1, settle_exponent(2.0 * cert.alpha[t], cert.r))

            return _next_return(j, -1, 1, (cert.lo, j), settled,
                                "backward sequence leaves the window")

        def k_increment(k_prev: int) -> int:
            nn = tilde_n(-k_prev)
            k_star = k_prev + nn
            mm = tilde_m(-k_star)
            k_new = k_star + mm
            q = -k_new  # passage start in the certified event
            s_block = 1.0 - (1.0 - cert.r ** nn * cert.alpha[-k_star]) * cert.C[q] / cert.B[q]
            return k_new, s_block

        ks = []
        k_prev, _ = k_increment(0)  # seed k_0: bare pass + top settle, no block yet
        for _ in range(count):
            k_new, s_block = k_increment(k_prev)
            t_obs = max(t_obs, s_block)
            ks.append(k_new)
            k_prev = k_new
    elif mode == "matrix":
        ls, ks = big_preimage_sequences(cert.fibers.bip.omega_bp, cert.path, count,
                                        (cert.lo, cert.hi))
        t_obs = max((cert.t_fiber[k] for k in cert.t_fiber), default=cert.beta)
    else:
        raise ConfigError(f"unknown sequence mode {mode!r}")
    if any(b <= a for a, b in zip(ls, ls[1:])) or any(b <= a for a, b in zip(ks, ks[1:])):
        raise InvariantViolation("return sequences must be strictly increasing")
    if cert.t is not None and t_obs > cert.t + 1e-12:
        raise InvariantViolation(
            f"observed block factor {t_obs} above the envelope rate {cert.t}"
        )
    cert.t_observed = t_obs
    cert.l_seq, cert.k_seq = tuple(ls), tuple(ks)
    cert.sequence_mode = mode
    return cert


# ---------------------------------------------------------------------------
# the explicit coupling


def build_coupling(
    x: tuple[int, ...],
    y: tuple[int, ...],
    phi: Potential,
    cert: ContractionCertificate,
    fiber: int,
) -> TransportPlan:
    """The near-diagonal coupling of the pulled-back Dirac pair over one block.

    x and y are head words at the block-end fiber `fiber` + n + m; each is
    read to its canonical prefix there, at least p - 1 letters long.

    Branches split as (settling word, passage word); mass
    inf e^(S over settling + mediator passage) rides the diagonal pairs that
    share the settling word and enter the marked letter; the remainder couples
    independently.  Guarantees: diagonal mass >= C/B at the passage fiber, cost
    under the block-bottom metric <= s, and exact marginals.
    """
    k = fiber
    if k not in cert.block:
        raise ConfigError(f"no complete block at fiber {k}")
    n = cert.n_step[k]
    q = k + n
    m = cert.m_step[q]
    l = n + m
    fibers, path = cert.fibers, cert.path
    o = cert.o_letter[q]
    u_map = cert.u_words[q]
    tail_depth = max(phi.depth - 1, 1)
    heads = canonical_prefixes(fibers, path, k + l, [x, y], max(tail_depth, len(x), len(y)))

    def branches(head: tuple[int, ...]) -> tuple[list, np.ndarray, np.ndarray]:
        prev = fibers.predecessors(path, k + l, head[0])
        vs = [v for v in admissible_words(fibers, path, k, l) if v[-1] in prev]
        weights = np.array([
            math.exp(word_birkhoff(phi, path, k, (v + head)[: l + phi.depth - 1], l))
            for v in vs
        ])
        atoms = np.array([v + head for v in vs], dtype=np.int64).reshape(len(vs), l + len(head))
        return vs, weights, atoms

    xv, xw, xatoms = branches(heads[0])
    yv, yw, yatoms = branches(heads[1])
    xi = {v: i for i, v in enumerate(xv)}
    yi = {v: i for i, v in enumerate(yv)}

    prev = fibers.predecessors(path, q, o)
    settle = [v1 for v1 in admissible_words(fibers, path, k, n) if v1[-1] in prev]
    q_diag = {}
    for v1 in settle:
        worst = math.inf
        for z in admissible_words(fibers, path, q + m, tail_depth):
            u = u_map[z[0]]
            worst = min(worst, math.exp(word_birkhoff(phi, path, k, v1 + u + z, l)))
        q_diag[v1] = worst

    plan = np.zeros((len(xv), len(yv)))
    x_res, y_res = xw.copy(), yw.copy()
    diag_mass = 0.0
    for v1, qv in q_diag.items():
        bx = v1 + u_map[x[0]]
        by = v1 + u_map[y[0]]
        i, j = xi[bx], yi[by]
        plan[i, j] += qv
        x_res[i] -= qv
        y_res[j] -= qv
        diag_mass += qv
    if x_res.min() < -1e-12 or y_res.min() < -1e-12:
        raise InvariantViolation("diagonal coupling mass exceeds a branch weight")
    rest = 1.0 - diag_mass
    if rest > 1e-14:
        plan += np.outer(np.clip(x_res, 0, None), np.clip(y_res, 0, None)) / rest

    i, j = np.nonzero(plan > 0)  # the support in row-major order
    dist = cert.metric_at(k).levels(xatoms.shape[1])[_common_prefix(xatoms[i], yatoms[j])]
    mass = plan[i, j]
    cost = 0.0
    for w, d in zip(mass, dist):
        cost += w * d
    out = TransportPlan(source_labels=xv, target_labels=yv, rows=i, cols=j, mass=mass,
                        cost=cost)
    out.check_marginals(xw, yw)
    if diag_mass < cert.C[q] / cert.B[q] - 1e-12:
        raise InvariantViolation("diagonal mass below the certified C/B bound")
    if k in cert.s_fiber and cost > cert.s_fiber[k] + 1e-12:
        raise InvariantViolation(
            f"coupling cost {cost} above the certified factor {cert.s_fiber[k]}"
        )
    return out


# ---------------------------------------------------------------------------
# lemma and decay verification


@dataclass
class LemmaReport:
    rows: list  # (part, fiber, observed, input size, allowed ratio)
    max_ratio: dict  # parts i/iii: worst ratio; parts ii/iv: worst signed slack vs t
    trials: int
    skipped: int


def verify_main_lemma(
    phi: Potential,
    fibers: FiberStructure,
    path: DriverPath,
    cert: ContractionCertificate,
    trials: int = 100,
    seed: int = 0,
    depth: int = 3,
    test_fibers: list | None = None,
) -> LemmaReport:
    """Empirical certification of the four contraction statements.

    (i) Lipschitz non-expansion over the settling steps, (ii) contraction by t
    over a full block, (iii) Wasserstein non-expansion, (iv) Wasserstein
    contraction by t.  Any violation raises immediately.
    """
    usable = test_fibers or sorted(
        k for k in cert.block
        if cert.lo <= k and k + cert.block[k] <= cert.hi
    )
    if not usable:
        raise ConfigError("no fibers with a complete block inside the window")
    rng = np.random.default_rng(seed)
    rows = []  # (part, fiber, observed, input size, allowed ratio)
    worst = {"i": 0.0, "ii": 0.0, "iii": 0.0, "iv": 0.0}
    skipped = 0
    for _ in range(trials):
        k = usable[rng.integers(len(usable))]
        n = cert.n_step[k]
        block = cert.block[k]
        t_k = cert.t_fiber[k]
        # (i)/(ii): Lipschitz decay through the operator
        f = random_lipschitz(fibers, path, k, depth, rng, cert.metric_at(k))
        d0 = f.lipschitz(cert.metric_at(k))
        if d0 == 0.0:
            skipped += 1
            continue
        f_n = transfer_power(phi, f, n)
        d_n = f_n.lipschitz(cert.metric_at(k + n))
        rows.append(("i", k, d_n, d0, 1.0))
        worst["i"] = max(worst["i"], d_n / d0)
        d_b = transfer_power(phi, f_n, block - n).lipschitz(cert.metric_at(k + block))
        rows.append(("ii", k, d_b, d0, t_k))
        worst["ii"] = max(worst["ii"], d_b / d0 - t_k)  # signed slack, <= 0 when obeyed
        # (iii)/(iv): Wasserstein decay through the dual
        mu_n = AtomicMeasure.random(fibers, path, k + n, depth, rng)
        nu_n = AtomicMeasure.random(fibers, path, k + n, depth, rng)
        w_top, _ = wasserstein(mu_n, nu_n, cert.metric_at(k + n))
        if w_top > 0:
            w_bot, _ = wasserstein(
                dual_apply(phi, mu_n, n).normalize(),
                dual_apply(phi, nu_n, n).normalize(),
                cert.metric_at(k),
            )
            rows.append(("iii", k, w_bot, w_top, 1.0))
            worst["iii"] = max(worst["iii"], w_bot / w_top)
        mu_b = AtomicMeasure.random(fibers, path, k + block, depth, rng)
        nu_b = AtomicMeasure.random(fibers, path, k + block, depth, rng)
        w_top_b, _ = wasserstein(mu_b, nu_b, cert.metric_at(k + block))
        if w_top_b > 0:
            w_bot_b, _ = wasserstein(
                dual_apply(phi, mu_b, block).normalize(),
                dual_apply(phi, nu_b, block).normalize(),
                cert.metric_at(k),
            )
            rows.append(("iv", k, w_bot_b, w_top_b, t_k))
            worst["iv"] = max(worst["iv"], w_bot_b / w_top_b - t_k)
    tol = 1e-12
    for part, fiber, observed, size, allowed in rows:
        if observed > allowed * size + tol:
            raise InvariantViolation(
                f"lemma part ({part}) at fiber {fiber}: {observed} above {allowed} x {size}"
            )
    return LemmaReport(rows=rows, max_ratio=worst, trials=trials, skipped=skipped)


@dataclass
class DecayReport:
    curve: list  # (n, gap) for all n
    forward_rows: list  # (i, l_i, gap, bound)
    backward_rows: list  # (i, k_i, gap, bound)
    fit_all: dict | None
    fit_forward: dict | None
    rate_flag: bool  # forward fitted rate <= t + slack
    empirical_s: float | None


def verify_decay(
    phi: Potential,
    fibers: FiberStructure,
    path: DriverPath,
    cert: ContractionCertificate,
    nu: dict,
    f: CylinderFunction | None = None,
    horizon: int = 60,
    seed: int = 0,
) -> DecayReport:
    """Sup-norm decay of the normalized iterates against the certified envelopes.

    `nu` is the invariant measure family of the normalized operator (per fiber).
    Checks gap(l_i) <= 2c t^i D(f) forward and the 4 B t^i analogue backward,
    reports exponential fits along the subsequence and over all n.
    """
    cert.require_event()
    if horizon < 6:
        raise ConfigError("horizon too short to fit a rate (>= 6 points required)")
    rng = np.random.default_rng(seed)
    raw = Metric("raw", phi.r)
    if f is None:
        f = random_lipschitz(fibers, path, 0, max(phi.depth - 1, 1), rng, raw)
    mean0 = nu[0].integrate(f)
    d0 = f.lipschitz(raw)
    curve = []
    g = f
    sup_prev = math.inf
    for n in range(1, horizon + 1):
        g = transfer_apply(phi, g)
        gap = g.shift_scale(1.0, -mean0).sup_norm()
        if gap > sup_prev + 1e-12:
            raise InvariantViolation(f"sup-norm gap increased at step {n}")
        sup_prev = gap
        curve.append((n, gap))
    gaps = dict(curve)
    forward_rows = []
    for i, l_i in enumerate(cert.l_seq, start=1):
        if l_i > horizon:
            break
        bound = 2.0 * cert.c * cert.t ** i * d0
        forward_rows.append((i, l_i, gaps[l_i], bound))
        if gaps[l_i] > bound + 1e-12:
            raise InvariantViolation(
                f"forward decay envelope fails at l_{i} = {l_i}: {gaps[l_i]} > {bound}"
            )
    backward_rows = []
    b0 = cert.B[0]
    for i, k_i in enumerate(cert.k_seq, start=1):
        if -k_i < cert.lo or -k_i not in nu:
            break
        fb = random_lipschitz(fibers, path, -k_i, max(phi.depth - 1, 1), rng, raw)
        d_b = fb.lipschitz(raw)
        mean_b = nu[-k_i].integrate(fb)
        g_b = transfer_power(phi, fb, k_i)
        gap_b = g_b.shift_scale(1.0, -mean_b).sup_norm()
        bound = 4.0 * b0 * cert.t ** i * d_b
        backward_rows.append((i, k_i, gap_b, bound))
        if gap_b > bound + 1e-12:
            raise InvariantViolation(
                f"backward decay envelope fails at k_{i} = {k_i}: {gap_b} > {bound}"
            )
    fit_all = fit_rate([n for n, _ in curve], [g for _, g in curve])
    fit_forward = fit_rate([i for i, _, _, _ in forward_rows], [g for _, _, g, _ in forward_rows])
    empirical_s = None if fit_all is None else fit_all["rate"]
    rate_flag = fit_forward is None or (
        math.log(fit_forward["rate"]) <= math.log(cert.t) + _RATE_SLACK)
    return DecayReport(curve=curve, forward_rows=forward_rows,
                       backward_rows=backward_rows, fit_all=fit_all,
                       fit_forward=fit_forward, rate_flag=rate_flag,
                       empirical_s=empirical_s)
