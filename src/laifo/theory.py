"""Exact occupancy computations on tabular POMDPs and executable checks
of the suboptimality bounds.

The pair (hidden state, observation window) is Markov, so normalized
discounted occupancies come from one dense linear solve over the
reachable pairs; every divergence, posterior, and bound side is then an
exact finite sum. Monte-Carlo rollouts serve as an independent oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

BLANK = -1
MAX_STATES = 32
MAX_ACTIONS = 8
MAX_WINDOW = 2

TWO_LN_2 = 2.0 * np.log(2.0)

CLAIMS = ("theorem1", "theorem2", "corollary1", "theorem3",
          "lemma1", "lemma2", "lemma4")


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


@dataclass
class JointChain:
    """Markov chain over reachable (state, window) pairs for one policy."""

    pairs: list            # [(s, window)]
    windows: list          # window alphabet (reachable under any action)
    pair_index: dict
    window_index: dict
    transition: np.ndarray  # (N, N) row-stochastic
    init: np.ndarray        # (N,)


def _check_sizes(pomdp, scheme):
    if pomdp.n_states > MAX_STATES or pomdp.n_obs > MAX_STATES:
        raise ValueError(f"|S| and |X| are capped at {MAX_STATES} for dense solves")
    if pomdp.n_actions > MAX_ACTIONS:
        raise ValueError(f"|A| is capped at {MAX_ACTIONS}")


def enumerate_reachable(pomdp, scheme):
    """Reachable (state, window) pairs and the induced window alphabet,
    exploring every action (a policy-independent superset)."""
    _check_sizes(pomdp, scheme)
    t_supp = [[np.nonzero(pomdp.transition[s, a])[0]
               for a in range(pomdp.n_actions)] for s in range(pomdp.n_states)]
    u_supp = [np.nonzero(pomdp.observation[s])[0] for s in range(pomdp.n_states)]
    pairs = []
    pair_index = {}
    queue = deque()

    def visit(pair):
        if pair not in pair_index:
            pair_index[pair] = len(pairs)
            pairs.append(pair)
            queue.append(pair)

    for s0 in np.nonzero(pomdp.rho0)[0]:
        for x0 in u_supp[s0]:
            visit((int(s0), scheme.initial(int(x0))))
    while queue:
        s, w = queue.popleft()
        for a in range(pomdp.n_actions):
            for s2 in t_supp[s][a]:
                for x2 in u_supp[s2]:
                    visit((int(s2), scheme.shift(w, int(x2))))
    windows = sorted({w for _, w in pairs})
    window_index = {w: i for i, w in enumerate(windows)}
    return pairs, windows, pair_index, window_index


def joint_chain(pomdp, scheme, policy):
    """Transition matrix over (state, window) pairs under a policy given
    as rows over the window alphabet (see `enumerate_reachable`)."""
    pairs, windows, pair_index, window_index = enumerate_reachable(pomdp, scheme)
    policy = np.asarray(policy, dtype=float)
    if policy.shape != (len(windows), pomdp.n_actions):
        raise ValueError(
            f"policy must be ({len(windows)}, {pomdp.n_actions}), got {policy.shape}")
    if np.any(policy < 0) or np.any(np.abs(policy.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("policy rows must be distributions over actions")
    n = len(pairs)
    p = np.zeros((n, n))
    for i, (s, w) in enumerate(pairs):
        pi = policy[window_index[w]]
        for a in range(pomdp.n_actions):
            if pi[a] == 0.0:
                continue
            for s2 in np.nonzero(pomdp.transition[s, a])[0]:
                t_prob = pomdp.transition[s, a, s2]
                for x2 in np.nonzero(pomdp.observation[s2])[0]:
                    j = pair_index[(int(s2), scheme.shift(w, int(x2)))]
                    p[i, j] += pi[a] * t_prob * pomdp.observation[s2, x2]
    init = np.zeros(n)
    for s0 in np.nonzero(pomdp.rho0)[0]:
        for x0 in np.nonzero(pomdp.observation[s0])[0]:
            i = pair_index[(int(s0), scheme.initial(int(x0)))]
            init[i] += pomdp.rho0[s0] * pomdp.observation[s0, x0]
    return JointChain(pairs, windows, pair_index, window_index, p, init)


@dataclass
class OccupancyTables:
    """Normalized discounted visitation tables for one policy."""

    windows: list
    window_index: dict
    gamma: float
    d_joint: np.ndarray    # (S, Z) occupancy over (state, window)
    d_z: np.ndarray        # (Z,)
    rho_za: np.ndarray     # (Z, A)
    rho_zz: np.ndarray     # (Z, Z)
    rho_zaz: np.ndarray    # (Z, A, Z)
    d_s: np.ndarray        # (S,)
    rho_sa: np.ndarray     # (S, A)
    rho_ss: np.ndarray     # (S, S)
    p_s_given_z: np.ndarray  # (S, Z), zero columns where d_z == 0

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


def _window_shift_table(pomdp, scheme, windows, window_index):
    table = np.full((len(windows), pomdp.n_obs), -1, dtype=np.int64)
    for i, w in enumerate(windows):
        for x in range(pomdp.n_obs):
            table[i, x] = window_index.get(scheme.shift(w, x), -1)
    return table


def occupancies(pomdp, scheme, policy, gamma=None):
    """Exact tables from the linear solve d = (1-g) init + g P^T d."""
    gamma = pomdp.gamma if gamma is None else gamma
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must be in [0, 1)")
    chain = joint_chain(pomdp, scheme, policy)
    n = len(chain.pairs)
    a_mat = np.eye(n) - gamma * chain.transition.T
    d = np.linalg.solve(a_mat, (1.0 - gamma) * chain.init)

    n_s, n_a = pomdp.n_states, pomdp.n_actions
    n_z = len(chain.windows)
    policy = np.asarray(policy, dtype=float)
    d_joint = np.zeros((n_s, n_z))
    for val, (s, w) in zip(d, chain.pairs):
        d_joint[s, chain.window_index[w]] += val
    d_z = d_joint.sum(axis=0)
    rho_za = d_z[:, None] * policy
    shift_to = _window_shift_table(pomdp, scheme, chain.windows, chain.window_index)

    # rho(z, a, z') = sum_s d(s,z) pi(a|z) sum_{s'} T(s'|s,a) sum_{x'} U(x'|s') [z'=shift]
    rho_zaz = np.zeros((n_z, n_a, n_z))
    for zi in range(n_z):
        col = d_joint[:, zi]
        if col.sum() == 0.0:
            continue
        for a in range(n_a):
            mass = policy[zi, a]
            if mass == 0.0:
                continue
            obs_weight = (col @ pomdp.transition[:, a, :]) @ pomdp.observation
            for x in np.nonzero(obs_weight)[0]:
                zj = shift_to[zi, x]
                assert zj >= 0, "positive-mass shift must be enumerated"
                rho_zaz[zi, a, zj] += mass * obs_weight[x]
    rho_zz = rho_zaz.sum(axis=1)

    d_s = d_joint.sum(axis=1)
    rho_sa = d_joint @ policy
    rho_ss = np.einsum("sa,sat->st", rho_sa, pomdp.transition)
    with np.errstate(invalid="ignore", divide="ignore"):
        p_s_given_z = np.where(d_z > 0, d_joint / d_z, 0.0)
    return OccupancyTables(chain.windows, chain.window_index, gamma, d_joint,
                           d_z, rho_za, rho_zz, rho_zaz, d_s, rho_sa, rho_ss,
                           p_s_given_z)


def latent_kernel(pomdp, scheme, ref_tables):
    """P(z'|z,a) built from a reference filtering posterior P(s|z).

    Returns (kernel (Z, A, Z), reachable (Z,) mask); rows for windows the
    reference policy never visits are zero and flagged unreachable.
    """
    windows = ref_tables.windows
    n_z, n_a = len(windows), pomdp.n_actions
    shift_to = _window_shift_table(pomdp, scheme, windows, ref_tables.window_index)
    kernel = np.zeros((n_z, n_a, n_z))
    reachable = ref_tables.d_z > 0
    for zi in np.nonzero(reachable)[0]:
        p_s = ref_tables.p_s_given_z[:, zi]
        for a in range(n_a):
            obs_weight = (p_s @ pomdp.transition[:, a, :]) @ pomdp.observation
            for x in np.nonzero(obs_weight)[0]:
                zj = shift_to[zi, x]
                assert zj >= 0
                kernel[zi, a, zj] += obs_weight[x]
    return kernel, reachable


def action_posterior(pomdp, scheme, policy, tables=None):
    """P_pi(a | z, z') for reachable latent transitions.

    Returns (posterior (Z, Z, A), valid (Z, Z) mask); entries outside the
    mask are zero and excluded from any expectation.
    """
    if tables is None:
        tables = occupancies(pomdp, scheme, policy)
    kernel, _ = latent_kernel(pomdp, scheme, tables)
    policy = np.asarray(policy, dtype=float)
    weighted = kernel * policy[:, :, None]          # (Z, A, Z')
    denom = weighted.sum(axis=1)                    # (Z, Z')
    valid = denom > 0
    post = np.zeros((denom.shape[0], denom.shape[1], pomdp.n_actions))
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
        return _kl(p, m) + _kl(q, m)
    raise ValueError(f"unknown divergence kind {kind!r}")


def _kl(p, q):
    mask = p > 0
    if np.any(q[mask] == 0):
        return np.inf
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def policy_value(pomdp, scheme, policy, reward_mode="sa", tables=None):
    """J(pi) = E_rho[R] / (1 - gamma) under the matching occupancy."""
    if reward_mode not in ("sa", "ss"):
        raise ValueError(f"reward mode must be 'sa' or 'ss', got {reward_mode!r}")
    if tables is None:
        tables = occupancies(pomdp, scheme, policy)
    if reward_mode == "sa":
        mean_r = float(np.sum(tables.rho_sa * pomdp.reward_sa))
    else:
        mean_r = float(np.sum(tables.rho_ss * pomdp.reward_ss))
    return mean_r / (1.0 - tables.gamma)


def c_term(pomdp, scheme, policy_theta, policy_expert, r_max=None, gamma=None,
           tables_theta=None, tables_expert=None):
    """Posterior-disagreement correction:
    (2 R_max / (1-gamma)) E_{rho_theta(z,z')}[ TV(P_theta(a|z,z'), P_E(a|z,z')) ].
    Pairs with positive agent mass but undefined expert posterior are
    excluded (and would be flagged by verify as assumption violations)."""
    if tables_theta is None:
        tables_theta = occupancies(pomdp, scheme, policy_theta)
    if tables_expert is None:
        tables_expert = occupancies(pomdp, scheme, policy_expert)
    if r_max is None:
        r_max = pomdp.r_max("sa")
    gamma = tables_theta.gamma if gamma is None else gamma
    return (2.0 * r_max / (1.0 - gamma)) * _expected_posterior_tv(
        pomdp, scheme, policy_theta, policy_expert, tables_theta, tables_expert)


def _expected_posterior_tv(pomdp, scheme, policy_theta, policy_expert,
                           tables_theta, tables_expert):
    """E_{rho_theta(z,z')}[ TV(P_theta(a|z,z'), P_E(a|z,z')) ] over the pairs
    where both posteriors are defined."""
    post_t, valid_t = action_posterior(pomdp, scheme, policy_theta, tables_theta)
    post_e, valid_e = action_posterior(pomdp, scheme, policy_expert, tables_expert)
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
        def clean(v):
            if isinstance(v, float) and not np.isfinite(v):
                return "inf" if v > 0 else "-inf"
            return v
        out = {
            "claim": self.claim,
            "lhs": clean(self.lhs),
            "rhs": clean(self.rhs),
            "slack": clean(self.slack),
            "r_max": self.r_max,
            "tv_term": self.tv_term,
            "c_value": self.c_value,
            "assumption_violation": self.assumption_violation,
        }
        out.update({k: clean(v) for k, v in self.extras.items()})
        return out


def _posterior_dependence(tables_a, tables_b):
    shared = (tables_a.d_z > 0) & (tables_b.d_z > 0)
    if not shared.any():
        return 0.0
    diff = np.abs(tables_a.p_s_given_z[:, shared] - tables_b.p_s_given_z[:, shared])
    return float(0.5 * diff.sum(axis=0).max())


def verify(claim, pomdp, scheme, policy_theta, policy_expert):
    """Evaluate one theorem/corollary/lemma on an instance, exactly."""
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; choose from {CLAIMS}")
    tab_t = occupancies(pomdp, scheme, policy_theta)
    tab_e = occupancies(pomdp, scheme, policy_expert)
    gamma = tab_t.gamma
    violation = _posterior_dependence(tab_t, tab_e)
    tv_zz = f_divergence("tv", tab_t.rho_zz.reshape(-1), tab_e.rho_zz.reshape(-1))

    if claim in ("theorem1", "corollary1"):
        r_max = pomdp.r_max("sa")
        lhs = abs(policy_value(pomdp, scheme, policy_expert, "sa", tab_e)
                  - policy_value(pomdp, scheme, policy_theta, "sa", tab_t))
        tv_term = 2.0 * r_max / (1.0 - gamma) * tv_zz
        c = c_term(pomdp, scheme, policy_theta, policy_expert, r_max, gamma,
                   tab_t, tab_e)
        rhs = tv_term + (c if claim == "theorem1" else 0.0)
        return BoundReport(claim, lhs, rhs, rhs - lhs, r_max, tv_term, c, violation)

    if claim == "theorem2":
        r_max = pomdp.r_max("ss")
        lhs = abs(policy_value(pomdp, scheme, policy_expert, "ss", tab_e)
                  - policy_value(pomdp, scheme, policy_theta, "ss", tab_t))
        tv_term = 2.0 * r_max / (1.0 - gamma) * tv_zz
        return BoundReport(claim, lhs, tv_term, tv_term - lhs, r_max, tv_term,
                           0.0, violation)

    if claim == "theorem3":
        extras = {}
        slack = np.inf
        for kind in ("tv", "js", "kl"):
            lo = f_divergence(kind, tab_t.rho_sa.reshape(-1), tab_e.rho_sa.reshape(-1))
            hi = f_divergence(kind, tab_t.rho_za.reshape(-1), tab_e.rho_za.reshape(-1))
            extras[f"{kind}_state"] = lo
            extras[f"{kind}_latent"] = hi
            if np.isfinite(hi):
                slack = min(slack, hi - lo)
            elif np.isfinite(lo):
                pass  # rhs infinite: holds trivially
        lhs = extras["tv_state"]
        rhs = extras["tv_latent"]
        return BoundReport(claim, lhs, rhs, float(slack), 0.0, tv_zz, 0.0,
                           violation, extras)

    if claim == "lemma1":
        extras = {}
        gap = 0.0
        for kind in ("tv", "js", "kl"):
            joint = f_divergence(kind, tab_t.rho_zaz.reshape(-1),
                                 tab_e.rho_zaz.reshape(-1))
            marg = f_divergence(kind, tab_t.rho_za.reshape(-1),
                                tab_e.rho_za.reshape(-1))
            extras[f"{kind}_joint"] = joint
            extras[f"{kind}_marginal"] = marg
            if np.isinf(joint) and np.isinf(marg):
                continue  # both diverge: equal in the extended sense
            gap = max(gap, abs(joint - marg))
        extras["max_equality_gap"] = gap
        lhs = extras["tv_joint"]
        rhs = extras["tv_marginal"]
        return BoundReport(claim, lhs, rhs, -gap, 0.0, tv_zz, 0.0, violation, extras)

    if claim == "lemma2":
        lhs = f_divergence("tv", tab_t.rho_za.reshape(-1), tab_e.rho_za.reshape(-1))
        expect = _expected_posterior_tv(pomdp, scheme, policy_theta, policy_expert,
                                        tab_t, tab_e)
        rhs = expect + tv_zz
        return BoundReport(claim, lhs, rhs, rhs - lhs, 0.0, tv_zz, expect, violation)

    # lemma4 on the instance's latent-transition occupancies
    lhs = tv_zz
    rhs = float(np.sqrt(f_divergence("js", tab_t.rho_zz.reshape(-1),
                                     tab_e.rho_zz.reshape(-1))))
    return BoundReport(claim, lhs, rhs, rhs - lhs, 0.0, tv_zz, 0.0, violation)


def random_policy(n_windows, n_actions, rng, concentration=1.0):
    return rng.dirichlet(np.full(n_actions, concentration), size=n_windows)


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
        _, self.windows, _, self.window_index = enumerate_reachable(pomdp, scheme)
        self.shift_to = _window_shift_table(pomdp, scheme, self.windows,
                                            self.window_index)
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
