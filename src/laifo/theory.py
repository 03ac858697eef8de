"""Exact occupancy computations on tabular POMDPs and executable checks
of the suboptimality bounds.

The pair (hidden state, observation window) is Markov, so normalized
discounted occupancies come from one dense linear solve over the
reachable pairs; every divergence, posterior, and bound side is then an
exact finite sum. `pair_step` is the only search: it finds the
reachable pairs and returns their `PairStep`, flat arrays of policy-free
edges. Every exact solver takes that step and never searches again: the
joint chain, rho(z,a,z') and P(z'|z,a) are weighted sums over its
edges, and a policy is a (Z, A) array over its window alphabet. A caller
searches an instance once, sizes its policies from `step.windows`, and
hands the step to `occupancies` or `verify`; the resulting
`OccupancyTables` carry their policy and that step, so every derived
quantity (latent kernel, action posterior, value, correction term) reads
tables alone and never repeats the search or the solve.
Monte-Carlo rollouts serve as an independent oracle: they take the
latent scheme and sample from T, U and their own window-shift table, not
from the edge arrays, so a fault in the edges cannot hide in both.
`verify_instances` checks a claim on instances generated at its
`CLAIM_INSTANCES` sizes, as `laifo verify-theory` does.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np

from .envs import make_tabular

BLANK = -1
MAX_STATES = 32
MAX_ACTIONS = 8
MAX_WINDOW = 2

TWO_LN_2 = 2.0 * np.log(2.0)

# per claim: (make_tabular structure, |S| range, |A| range, window length k)
CLAIM_INSTANCES = {
    "theorem1": ("mdp", (3, 16), (2, 4), 1),
    "theorem2": ("mdp", (3, 16), (2, 4), 1),
    "corollary1": ("injective-deterministic", (4, 16), (2, 4), 1),
    "theorem3": ("mdp", (3, 6), (2, 3), 2),
    "lemma1": ("mdp", (3, 12), (2, 4), 1),
    "lemma2": ("mdp", (3, 12), (2, 4), 1),
    "lemma4": ("mdp", (3, 12), (2, 4), 1),
}
CLAIMS = tuple(CLAIM_INSTANCES)


@dataclass(frozen=True)
class LatentScheme:
    """Latent = the last k observations, front-padded with a blank."""

    k: int

    def __post_init__(self):
        if not 1 <= self.k <= MAX_WINDOW:
            raise ValueError(f"window length must be in [1, {MAX_WINDOW}]")

    def initial(self, x0):
        return (BLANK,) * (self.k - 1) + (x0,)

    def shift(self, window, x_new):
        return window[1:] + (x_new,) if self.k > 1 else (x_new,)


def _check_sizes(pomdp):
    if pomdp.n_states > MAX_STATES or pomdp.n_obs > MAX_STATES:
        raise ValueError(f"|S| and |X| are capped at {MAX_STATES} for dense solves")
    if pomdp.n_actions > MAX_ACTIONS:
        raise ValueError(f"|A| is capped at {MAX_ACTIONS}")


# The reachable (state, window) pairs, the hidden state and window index of
# each pair, the initial pair distribution, and the policy-free step as flat
# arrays: edge k leads from pair src[k] under action act[k] to pair dst[k]
# with prob[k] = T(s'|s,a) U(x'|s').
PairStep = namedtuple("PairStep", "pairs windows pair_index window_index "
                                  "state window init src act dst prob")


def pair_step(pomdp, scheme):
    """The `PairStep` of an instance: a breadth-first search over (state,
    window) pairs from the initial ones, exploring every action (a
    policy-independent superset). Windows are sorted; pairs are in
    visiting order, the initial ones first."""
    _check_sizes(pomdp)
    t, u = pomdp.transition, pomdp.observation
    t_supp = [[np.nonzero(t[s, a])[0] for a in range(pomdp.n_actions)]
              for s in range(pomdp.n_states)]
    u_supp = [np.nonzero(u[s])[0] for s in range(pomdp.n_states)]
    pairs = []
    pair_index = {}

    def visit(pair):
        if pair not in pair_index:
            pair_index[pair] = len(pairs)
            pairs.append(pair)
        return pair_index[pair]

    init = []  # distinct (s0, x0) give distinct pairs: these are pairs 0, 1, ...
    for s0 in np.nonzero(pomdp.rho0)[0]:
        for x0 in u_supp[s0]:
            visit((int(s0), scheme.initial(int(x0))))
            init.append(pomdp.rho0[s0] * u[s0, x0])
    edges = []
    for i, (s, w) in enumerate(pairs):  # pairs grows while walked: the queue
        edges += [(i, a, visit((int(s2), scheme.shift(w, int(x2)))),
                   t[s, a, s2] * u[s2, x2])
                  for a in range(pomdp.n_actions)
                  for s2 in t_supp[s][a] for x2 in u_supp[s2]]
    windows = sorted({w for _, w in pairs})
    window_index = {w: i for i, w in enumerate(windows)}
    state, window = np.array([(s, window_index[w]) for s, w in pairs]).T
    src, act, dst, prob = (np.array(col) for col in zip(*edges))
    return PairStep(pairs, windows, pair_index, window_index, state, window,
                    np.pad(init, (0, len(pairs) - len(init))), src, act, dst, prob)


def joint_chain(pomdp, step, policy):
    """The (N, N) transition matrix over `step.pairs` under a policy given
    as rows over `step.windows`; the initial distribution is `step.init`."""
    policy = np.asarray(policy, dtype=float)
    if policy.shape != (len(step.windows), pomdp.n_actions):
        raise ValueError(
            f"policy must be ({len(step.windows)}, {pomdp.n_actions}), got {policy.shape}")
    if np.any(policy < 0) or np.any(np.abs(policy.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("policy rows must be distributions over actions")
    n = len(step.pairs)
    p = np.zeros((n, n))
    np.add.at(p, (step.src, step.dst),
              policy[step.window[step.src], step.act] * step.prob)
    return p


@dataclass
class OccupancyTables:
    """Normalized discounted visitation tables for one policy, with the
    policy (Z, A) and the `PairStep` they were solved on."""

    gamma: float
    policy: np.ndarray     # (Z, A)
    d_joint: np.ndarray    # (S, Z) occupancy over (state, window)
    d_z: np.ndarray        # (Z,)
    rho_za: np.ndarray     # (Z, A)
    rho_zz: np.ndarray     # (Z, Z)
    rho_zaz: np.ndarray    # (Z, A, Z)
    d_s: np.ndarray        # (S,)
    rho_sa: np.ndarray     # (S, A)
    rho_ss: np.ndarray     # (S, S)
    p_s_given_z: np.ndarray  # (S, Z), zero columns where d_z == 0
    reach: PairStep = field(repr=False)

    def check_consistency(self, atol=1e-9):
        for name, table in (("d_z", self.d_z), ("rho_za", self.rho_za),
                            ("rho_zz", self.rho_zz), ("rho_zaz", self.rho_zaz),
                            ("d_s", self.d_s), ("rho_sa", self.rho_sa),
                            ("rho_ss", self.rho_ss), ("d_joint", self.d_joint)):
            if np.any(table < -1e-12):
                raise AssertionError(f"{name} has negative mass")
            if abs(table.sum() - 1.0) > atol:
                raise AssertionError(f"{name} sums to {table.sum()}")
        if np.max(np.abs(self.rho_za.sum(axis=1) - self.d_z)) > 1e-12:
            raise AssertionError("sum_a rho(z,a) != d(z)")
        if np.max(np.abs(self.rho_zaz.sum(axis=(1, 2)) - self.d_z)) > 1e-12:
            raise AssertionError("sum_{a,z'} rho(z,a,z') != d(z)")


def occupancies(pomdp, step, policy, gamma=None):
    """Exact tables of `policy` (Z, A) on the `PairStep` `step`, from the
    linear solve d = (1-g) init + g P^T d."""
    gamma = pomdp.gamma if gamma is None else gamma
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must be in [0, 1)")
    transition = joint_chain(pomdp, step, policy)
    n = len(step.pairs)
    a_mat = np.eye(n) - gamma * transition.T
    d = np.linalg.solve(a_mat, (1.0 - gamma) * step.init)

    n_s, n_a = pomdp.n_states, pomdp.n_actions
    n_z = len(step.windows)
    policy = np.asarray(policy, dtype=float)
    d_joint = np.zeros((n_s, n_z))
    d_joint[step.state, step.window] = d
    d_z = d_joint.sum(axis=0)
    rho_za = d_z[:, None] * policy
    # rho(z, a, z') = sum over steps (s,z) -a-> (s',z') of d(s,z) pi(a|z) T(s'|s,a) U(x'|s')
    z, z2 = step.window[step.src], step.window[step.dst]
    rho_zaz = np.zeros((n_z, n_a, n_z))
    np.add.at(rho_zaz, (z, step.act, z2),
              policy[z, step.act] * (d[step.src] * step.prob))
    rho_zz = rho_zaz.sum(axis=1)

    d_s = d_joint.sum(axis=1)
    rho_sa = d_joint @ policy
    rho_ss = np.einsum("sa,sat->st", rho_sa, pomdp.transition)
    with np.errstate(invalid="ignore", divide="ignore"):
        p_s_given_z = np.where(d_z > 0, d_joint / d_z, 0.0)
    return OccupancyTables(gamma, policy, d_joint, d_z, rho_za, rho_zz, rho_zaz,
                           d_s, rho_sa, rho_ss, p_s_given_z, step)


def latent_kernel(tables):
    """P(z'|z,a) built from the tables' filtering posterior P(s|z) and the
    pair step they were solved on; the tables' policy is not read.

    Returns (kernel (Z, A, Z), reachable (Z,) mask); rows for windows the
    tables' policy never visits are zero and flagged unreachable.
    """
    reach = tables.reach
    z, z2 = reach.window[reach.src], reach.window[reach.dst]
    kernel = np.zeros(tables.rho_zaz.shape)
    np.add.at(kernel, (z, reach.act, z2),
              tables.p_s_given_z[reach.state[reach.src], z] * reach.prob)
    return kernel, tables.d_z > 0


def action_posterior(tables):
    """P_pi(a | z, z') for reachable latent transitions, from the tables'
    `latent_kernel` weighted by the tables' policy.

    Returns (posterior (Z, Z, A), valid (Z, Z) mask); entries outside the
    mask are zero and excluded from any expectation.
    """
    kernel, _ = latent_kernel(tables)
    weighted = kernel * tables.policy[:, :, None]   # (Z, A, Z')
    denom = weighted.sum(axis=1)                    # (Z, Z')
    valid = denom > 0
    post = np.zeros((denom.shape[0], denom.shape[1], kernel.shape[1]))
    zi, zj = np.nonzero(valid)
    post[zi, zj, :] = weighted[zi, :, zj] / denom[zi, zj][:, None]
    return post, valid


def f_divergence(kind, p, q):
    """Finite-alphabet divergences: tv in [0,1], js in [0, 2 ln 2]
    (sum of two KLs against the midpoint, no 1/2 prefactor), kl with the
    0 log 0 = 0 convention (+inf when q vanishes where p does not)."""
    p = np.asarray(p, dtype=float).reshape(-1)
    q = np.asarray(q, dtype=float).reshape(-1)
    if p.shape != q.shape:
        raise ValueError(f"support sizes differ: {p.shape} vs {q.shape}")
    for name, v in (("P", p), ("Q", q)):
        if np.any(v < -1e-12):
            raise ValueError(f"{name} has negative entries")
        if abs(v.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} sums to {v.sum()}, not 1")
    if kind == "tv":
        return 0.5 * np.abs(p - q).sum()
    if kind == "kl":
        return _kl(p, q)
    if kind == "js":
        m = 0.5 * (p + q)
        # equal inputs can round to about -1e-17, whose square root is NaN
        return max(_kl(p, m) + _kl(q, m), 0.0)
    raise ValueError(f"unknown divergence kind {kind!r}")


def _kl(p, q):
    mask = p > 0
    if np.any(q[mask] == 0):
        return np.inf
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def policy_value(pomdp, tables, reward_mode="sa"):
    """J(pi) = E_rho[R] / (1 - gamma) under the matching occupancy."""
    if reward_mode not in ("sa", "ss"):
        raise ValueError(f"reward mode must be 'sa' or 'ss', got {reward_mode!r}")
    if reward_mode == "sa":
        mean_r = float(np.sum(tables.rho_sa * pomdp.reward_sa))
    else:
        mean_r = float(np.sum(tables.rho_ss * pomdp.reward_ss))
    return mean_r / (1.0 - tables.gamma)


def c_term(pomdp, tables_theta, tables_expert):
    """Posterior-disagreement correction:
    (2 R_max / (1-gamma)) E_{rho_theta(z,z')}[ TV(P_theta(a|z,z'), P_E(a|z,z')) ],
    with R_max over the (s, a) reward and gamma of the agent's tables.
    Pairs with positive agent mass but undefined expert posterior are
    excluded (and would be flagged by verify as assumption violations)."""
    return (2.0 * pomdp.r_max("sa") / (1.0 - tables_theta.gamma)
            * _expected_posterior_tv(tables_theta, tables_expert))


def _expected_posterior_tv(tables_theta, tables_expert):
    """E_{rho_theta(z,z')}[ TV(P_theta(a|z,z'), P_E(a|z,z')) ] over the pairs
    where both posteriors are defined."""
    post_t, valid_t = action_posterior(tables_theta)
    post_e, valid_e = action_posterior(tables_expert)
    tv = 0.5 * np.abs(post_t - post_e).sum(axis=2)
    return float(np.sum(np.where(valid_t & valid_e, tables_theta.rho_zz, 0.0) * tv))


@dataclass
class BoundReport:
    """One executable bound check. slack = rhs - lhs, reported even when
    negative; the violation measure is the policy-dependence of the
    filtering posterior (0 exactly in the assumption-satisfying regime)."""

    claim: str
    lhs: float
    rhs: float
    slack: float
    r_max: float = 0.0
    tv_term: float = 0.0
    c_value: float = 0.0
    assumption_violation: float = 0.0
    extras: dict = field(default_factory=dict)

    def to_dict(self):
        """The fields in order, then the extras; a non-finite float is
        written "inf" or "-inf"."""
        def clean(v):
            if isinstance(v, float) and not np.isfinite(v):
                return "inf" if v > 0 else "-inf"
            return v
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "extras"}
        out.update(self.extras)
        return {k: clean(v) for k, v in out.items()}


def _posterior_dependence(tables_a, tables_b):
    shared = (tables_a.d_z > 0) & (tables_b.d_z > 0)
    if not shared.any():
        return 0.0
    diff = np.abs(tables_a.p_s_given_z[:, shared] - tables_b.p_s_given_z[:, shared])
    return float(0.5 * diff.sum(axis=0).max())


def verify(claim, pomdp, step, policy_theta, policy_expert):
    """Evaluate one theorem/corollary/lemma on an instance, exactly: both
    policies, (Z, A) arrays over `step.windows`, are solved on the
    `PairStep` `step`, which `pair_step` searched once."""
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; choose from {CLAIMS}")
    tab_t = occupancies(pomdp, step, policy_theta)
    tab_e = occupancies(pomdp, step, policy_expert)
    gamma = tab_t.gamma
    violation = _posterior_dependence(tab_t, tab_e)
    tv_zz = f_divergence("tv", tab_t.rho_zz, tab_e.rho_zz)

    if claim in ("theorem1", "corollary1", "theorem2"):
        mode = "ss" if claim == "theorem2" else "sa"
        r_max = pomdp.r_max(mode)
        lhs = abs(policy_value(pomdp, tab_e, mode) - policy_value(pomdp, tab_t, mode))
        tv_term = 2.0 * r_max / (1.0 - gamma) * tv_zz
        c = 0.0 if claim == "theorem2" else c_term(pomdp, tab_t, tab_e)
        rhs = tv_term + (c if claim == "theorem1" else 0.0)
        return BoundReport(claim, lhs, rhs, rhs - lhs, r_max, tv_term, c, violation)

    if claim == "theorem3":
        extras = {}
        slack = np.inf
        for kind in ("tv", "js", "kl"):
            lo = f_divergence(kind, tab_t.rho_sa, tab_e.rho_sa)
            hi = f_divergence(kind, tab_t.rho_za, tab_e.rho_za)
            extras[f"{kind}_state"] = lo
            extras[f"{kind}_latent"] = hi
            if np.isfinite(hi):  # rhs infinite: holds trivially
                slack = min(slack, hi - lo)
        return BoundReport(claim, extras["tv_state"], extras["tv_latent"], float(slack),
                           0.0, tv_zz, 0.0, violation, extras)

    if claim == "lemma1":
        extras = {}
        gap = 0.0
        for kind in ("tv", "js", "kl"):
            joint = f_divergence(kind, tab_t.rho_zaz, tab_e.rho_zaz)
            marg = f_divergence(kind, tab_t.rho_za, tab_e.rho_za)
            extras[f"{kind}_joint"] = joint
            extras[f"{kind}_marginal"] = marg
            if np.isinf(joint) and np.isinf(marg):
                continue  # both diverge: equal in the extended sense
            gap = max(gap, abs(joint - marg))
        extras["max_equality_gap"] = gap
        return BoundReport(claim, extras["tv_joint"], extras["tv_marginal"], -gap, 0.0,
                           tv_zz, 0.0, violation, extras)

    if claim == "lemma2":
        lhs = f_divergence("tv", tab_t.rho_za, tab_e.rho_za)
        expect = _expected_posterior_tv(tab_t, tab_e)
        rhs = expect + tv_zz
        return BoundReport(claim, lhs, rhs, rhs - lhs, 0.0, tv_zz, expect, violation)

    # lemma4 on the instance's latent-transition occupancies
    rhs = float(np.sqrt(f_divergence("js", tab_t.rho_zz, tab_e.rho_zz)))
    return BoundReport(claim, tv_zz, rhs, rhs - tv_zz, 0.0, tv_zz, 0.0, violation)


def random_policy(n_windows, n_actions, rng, concentration=1.0):
    return rng.dirichlet(np.full(n_actions, concentration), size=n_windows)


def verify_instances(claim, n_instances, seed):
    """BoundReports of generated instances of a claim, two random policies each."""
    rng = np.random.default_rng(seed)
    reports = []
    structure, s_range, a_range, k = CLAIM_INSTANCES[claim]
    scheme = LatentScheme(k)
    for _ in range(n_instances):
        n_s = int(rng.integers(s_range[0], s_range[1] + 1))
        n_a = int(rng.integers(a_range[0], min(a_range[1], n_s) + 1))
        pomdp = make_tabular(structure, n_s, n_a,
                             seed=int(rng.integers(2**31)), gamma=0.9)
        step = pair_step(pomdp, scheme)
        policy_theta = random_policy(len(step.windows), n_a, rng)
        policy_expert = random_policy(len(step.windows), n_a, rng)
        reports.append(verify(claim, pomdp, step, policy_theta, policy_expert))
    return reports


# ---------------------------------------------------------------------------
# Monte-Carlo oracle
# ---------------------------------------------------------------------------

def _row_sample(rng, cum_rows, rows):
    u = rng.random(len(rows))
    return (cum_rows[rows] < u[:, None]).sum(axis=1)


class _Rollouts:
    """Cumulative tables for sampling (state, window) trajectories of a
    policy on a POMDP under a latent scheme."""

    def __init__(self, pomdp, scheme, policy):
        step = pair_step(pomdp, scheme)
        self.windows, self.window_index = step.windows, step.window_index
        self.shift_to = np.array([[self.window_index.get(scheme.shift(w, x), -1)
                                   for x in range(pomdp.n_obs)] for w in self.windows])
        self.scheme = scheme
        self.cum_rho0 = np.cumsum(pomdp.rho0)[None, :]
        self.cum_u = np.cumsum(pomdp.observation, axis=1)
        self.cum_t = np.cumsum(pomdp.transition, axis=2)
        self.cum_pi = np.cumsum(np.asarray(policy, dtype=float), axis=1)

    def start(self, rng, n):
        """n initial states and their initial windows."""
        s = (self.cum_rho0 < rng.random(n)[:, None]).sum(axis=1)
        x = _row_sample(rng, self.cum_u, s)
        return s, np.array([self.window_index[self.scheme.initial(int(xi))] for xi in x])

    def step(self, rng, s, w):
        """One step from states s in windows w: (actions, next states, next
        windows)."""
        a = _row_sample(rng, self.cum_pi, w)
        s2 = (self.cum_t[s, a] < rng.random(len(s))[:, None]).sum(axis=1)
        x2 = _row_sample(rng, self.cum_u, s2)
        return a, s2, self.shift_to[w, x2]


def mc_latent_occupancy(pomdp, scheme, policy, rng, n_samples=100_000, gamma=None):
    """i.i.d. samples of z at a geometric stopping time; the empirical
    distribution estimates d_pi(z)."""
    gamma = pomdp.gamma if gamma is None else gamma
    roll = _Rollouts(pomdp, scheme, policy)
    times = rng.geometric(1.0 - gamma, size=n_samples) - 1
    s, w = roll.start(rng, n_samples)
    out = np.empty(n_samples, dtype=np.int64)
    alive = times > 0
    out[~alive] = w[~alive]
    t = 0
    while alive.any():
        t += 1
        idx = np.nonzero(alive)[0]
        _, s2, w2 = roll.step(rng, s[idx], w[idx])
        s[idx] = s2
        w[idx] = w2
        finished = times[idx] == t
        out[idx[finished]] = w2[finished]
        alive[idx[finished]] = False
    freq = np.bincount(out, minlength=len(roll.windows)).astype(float)
    return freq / n_samples, roll.windows


def mc_policy_value(pomdp, scheme, policy, reward_mode, rng, n_episodes=2000,
                    gamma=None, tail=1e-10):
    """Truncated-rollout estimate of J(pi); returns (mean, standard error)."""
    gamma = pomdp.gamma if gamma is None else gamma
    horizon = int(np.ceil(np.log(tail) / np.log(gamma)))
    roll = _Rollouts(pomdp, scheme, policy)
    s, w = roll.start(rng, n_episodes)
    returns = np.zeros(n_episodes)
    disc = 1.0
    for _ in range(horizon):
        a, s2, w = roll.step(rng, s, w)
        if reward_mode == "sa":
            returns += disc * pomdp.reward_sa[s, a]
        else:
            returns += disc * pomdp.reward_ss[s, s2]
        s = s2
        disc *= gamma
    return float(returns.mean()), float(returns.std(ddof=1) / np.sqrt(n_episodes))
