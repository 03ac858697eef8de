import json

import numpy as np
import pytest

from laifo import theory
from laifo.envs import make_tabular
from laifo.theory import (BLANK, CLAIMS, LatentScheme, action_posterior, c_term,
                          f_divergence, joint_chain, latent_kernel,
                          mc_latent_occupancy, mc_policy_value, occupancies,
                          pair_step, policy_value, random_policy, verify)


def _mdp(n_s=5, n_a=3, seed=0, gamma=0.9):
    return make_tabular("mdp", n_s, n_a, seed=seed, gamma=gamma)


def _policy_for(pomdp, step, seed, concentration=1.0):
    rng = np.random.default_rng(seed)
    return random_policy(len(step.windows), pomdp.n_actions, rng, concentration)


def _verify(claim, pomdp, scheme, seed_theta, seed_expert):
    """`verify` on one search of the instance, the policies drawn from two seeds."""
    step = pair_step(pomdp, scheme)
    return verify(claim, pomdp, step, _policy_for(pomdp, step, seed_theta),
                  _policy_for(pomdp, step, seed_expert))


def test_joint_chain_reduces_to_mdp_when_k1_identity():
    m = _mdp()
    step = pair_step(m, LatentScheme(1))
    pol = _policy_for(m, step, 1)
    transition = joint_chain(m, step, pol)
    pairs, pair_index, init = step.pairs, step.pair_index, step.init
    # with U = identity and k = 1, pairs are (s, (s,)) and the chain is the MDP
    assert all(w == (s,) for s, w in pairs)
    # windows are sorted, so window index == state index
    mdp_chain = np.einsum("sa,sat->st", pol, m.transition)
    for s in range(m.n_states):
        for t in range(m.n_states):
            i = pair_index[(s, (s,))]
            j = pair_index[(t, (t,))]
            assert transition[i, j] == pytest.approx(mdp_chain[s, t], abs=1e-14)
    for s in range(m.n_states):
        assert init[pair_index[(s, (s,))]] == pytest.approx(m.rho0[s])


def test_joint_chain_rows_stochastic():
    m = make_tabular("random", 6, 3, n_obs=4, seed=2, gamma=0.9)
    step = pair_step(m, LatentScheme(2))
    transition = joint_chain(m, step, _policy_for(m, step, 3))
    assert np.all(np.abs(transition.sum(axis=1) - 1.0) <= 1e-12)
    assert abs(step.init.sum() - 1.0) <= 1e-12


def test_occupancy_tables_consistent_and_myopic_limit():
    m = make_tabular("random", 5, 2, n_obs=4, seed=4, gamma=0.9)
    scheme = LatentScheme(1)
    step = pair_step(m, scheme)
    pol = _policy_for(m, step, 5)
    tab = occupancies(m, step, pol)
    tab.check_consistency()
    assert np.max(np.abs(tab.rho_za.sum(axis=1) - tab.d_z)) <= 1e-12

    tab0 = occupancies(m, step, pol, gamma=1e-12)
    init_wins = np.zeros(len(step.windows))
    for s in range(m.n_states):
        for x in range(m.n_obs):
            if m.observation[s, x] > 0:
                init_wins[step.window_index[scheme.initial(x)]] += \
                    m.rho0[s] * m.observation[s, x]
    assert np.max(np.abs(tab0.d_z - init_wins)) <= 1e-9


def test_rho_zz_matches_bruteforce_definition():
    # rho(z,z') must equal d(z) * sum_a P(z'|z,a) pi(a|z) with P(z'|z,a)
    # expanded by exhaustive summation over s, s', x'
    m = make_tabular("random", 4, 2, n_obs=3, seed=6, gamma=0.85)
    scheme = LatentScheme(2)
    step = pair_step(m, scheme)
    pol = _policy_for(m, step, 7)
    tab = occupancies(m, step, pol)
    n_z = len(step.windows)
    brute = np.zeros((n_z, n_z))
    for zi, w in enumerate(step.windows):
        if tab.d_z[zi] == 0:
            continue
        for a in range(m.n_actions):
            for s in range(m.n_states):
                p_s = tab.p_s_given_z[s, zi]
                if p_s == 0:
                    continue
                for s2 in range(m.n_states):
                    t_p = m.transition[s, a, s2]
                    if t_p == 0:
                        continue
                    for x2 in range(m.n_obs):
                        u_p = m.observation[s2, x2]
                        if u_p == 0:
                            continue
                        zj = step.window_index[scheme.shift(w, x2)]
                        brute[zi, zj] += tab.d_z[zi] * pol[zi, a] * p_s * t_p * u_p
    assert np.max(np.abs(brute - tab.rho_zz)) < 1e-12


def test_rho_zaz_factors_through_latent_kernel():
    # rho(z,a,z') = d(z) pi(a|z) P(z'|z,a) with P built from the policy's own
    # filtering posterior
    m = make_tabular("random", 5, 3, n_obs=3, seed=41, gamma=0.9)
    step = pair_step(m, LatentScheme(2))
    pol = _policy_for(m, step, 42)
    tab = occupancies(m, step, pol)
    kernel, reachable = latent_kernel(tab)
    assert reachable.all()  # dense T and U visit every window
    factored = tab.d_z[:, None, None] * pol[:, :, None] * kernel
    assert np.max(np.abs(tab.rho_zaz - factored)) < 1e-12


def test_latent_kernel_identity_reduction_and_rows():
    m = _mdp(6, 3, seed=8)
    step = pair_step(m, LatentScheme(1))
    tab = occupancies(m, step, _policy_for(m, step, 9))
    kernel, reachable = latent_kernel(tab)
    for zi, w in enumerate(step.windows):
        s = w[0]
        assert np.allclose(kernel[zi], m.transition[s][:, [wj[0] for wj in step.windows]])
    assert np.all(np.abs(kernel[reachable].sum(axis=2) - 1.0) <= 1e-9)


def test_latent_kernel_injective_support():
    m = make_tabular("injective-deterministic", 6, 3, seed=10)
    step = pair_step(m, LatentScheme(1))
    tab = occupancies(m, step, _policy_for(m, step, 11))
    kernel, reachable = latent_kernel(tab)
    for zi in np.nonzero(reachable)[0]:
        supports = [tuple(np.nonzero(kernel[zi, a])[0]) for a in range(m.n_actions)]
        assert len(set(supports)) == m.n_actions


def test_action_posterior_properties():
    scheme = LatentScheme(1)

    def posterior(m, seed):
        step = pair_step(m, scheme)
        return action_posterior(occupancies(m, step, _policy_for(m, step, seed)))

    post, valid = posterior(_mdp(5, 1, seed=12), 13)
    assert np.allclose(post[valid], 1.0)  # single action

    post, valid = posterior(_mdp(5, 3, seed=14), 15)
    assert np.all(np.abs(post[valid].sum(axis=-1) - 1.0) <= 1e-12)

    post, valid = posterior(make_tabular("injective-deterministic", 6, 3, seed=16), 17)
    # deterministic injective kernel: the posterior is a point mass on the
    # unique generating action
    zi, zj = np.nonzero(valid)
    for i, j in zip(zi, zj):
        assert np.isclose(post[i, j].max(), 1.0)


def test_f_divergence_values():
    p = np.array([0.3, 0.7])
    q = np.array([0.7, 0.3])
    assert f_divergence("tv", p, p) == 0.0
    assert f_divergence("js", p, p) == 0.0
    assert f_divergence("tv", p, q) == pytest.approx(0.4)
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    assert f_divergence("js", a, b) == pytest.approx(2 * np.log(2))
    assert f_divergence("kl", a, b) == np.inf
    with pytest.raises(ValueError, match="sums"):
        f_divergence("tv", np.array([0.5, 0.4]), q)
    with pytest.raises(ValueError, match="support"):
        f_divergence("tv", np.array([1.0]), q)


def test_policy_value_constant_reward_geometric_series():
    m = _mdp(4, 2, seed=18, gamma=0.9)
    m.reward_sa[...] = 0.5
    step = pair_step(m, LatentScheme(1))
    pol = _policy_for(m, step, 19)
    tab = occupancies(m, step, pol)
    j = policy_value(m, tab, "sa")
    assert j == pytest.approx(0.5 / (1 - 0.9), rel=1e-12)
    again = occupancies(m, step, pol)
    assert policy_value(m, tab, "sa") == policy_value(m, again, "sa")


def test_policy_value_matches_monte_carlo():
    m = make_tabular("random", 5, 2, n_obs=4, seed=20, gamma=0.9)
    scheme = LatentScheme(1)
    step = pair_step(m, scheme)
    pol = _policy_for(m, step, 21)
    tab = occupancies(m, step, pol)
    for mode, seed in (("sa", 22), ("ss", 122)):
        est, se = mc_policy_value(m, scheme, pol, mode, np.random.default_rng(seed),
                                  n_episodes=4000)
        assert abs(est - policy_value(m, tab, mode)) <= 3 * se


def test_occupancy_matches_monte_carlo():
    m = make_tabular("random", 5, 2, n_obs=4, seed=23, gamma=0.9)
    scheme = LatentScheme(1)
    step = pair_step(m, scheme)
    pol = _policy_for(m, step, 24)
    tab = occupancies(m, step, pol)
    freq, windows = mc_latent_occupancy(m, scheme, pol,
                                        np.random.default_rng(25), n_samples=200_000)
    # scalar functional of the occupancy, compared within 3 standard errors
    rng = np.random.default_rng(26)
    f = rng.uniform(0, 1, len(windows))
    est = float(freq @ f)
    se = float(np.sqrt(np.sum(freq * (f - est) ** 2) / 200_000))
    assert abs(est - float(tab.d_z @ f)) <= 3 * se


def test_c_term_zero_for_identical_policies_and_injective():
    scheme = LatentScheme(1)
    m = _mdp(6, 3, seed=27)
    step = pair_step(m, scheme)
    tab = occupancies(m, step, _policy_for(m, step, 28))
    assert c_term(m, tab, tab) <= 1e-14

    m = make_tabular("injective-deterministic", 8, 3, seed=29)
    step = pair_step(m, scheme)
    c = c_term(m, occupancies(m, step, _policy_for(m, step, 30)),
               occupancies(m, step, _policy_for(m, step, 31)))
    assert c <= 1e-10
    assert c >= 0.0


def test_theorem2_bound_on_random_mdp_instances():
    scheme = LatentScheme(1)
    for i in range(20):
        rng = np.random.default_rng(100 + i)
        m = make_tabular("mdp", int(rng.integers(3, 9)), int(rng.integers(2, 5)),
                         seed=200 + i, gamma=0.9)
        rep = _verify("theorem2", m, scheme, 300 + i, 400 + i)
        assert rep.slack >= -1e-8
        assert rep.assumption_violation <= 1e-12


def test_theorem1_bound_with_c_term():
    scheme = LatentScheme(1)
    for i in range(20):
        m = make_tabular("mdp", 6, 3, seed=500 + i, gamma=0.85)
        rep = _verify("theorem1", m, scheme, 600 + i, 700 + i)
        assert rep.slack >= -1e-8
        assert rep.c_value >= 0.0


def test_theorem2_equal_policies_zero_both_sides():
    scheme = LatentScheme(1)
    m = _mdp(5, 2, seed=32)
    rep = _verify("theorem2", m, scheme, 33, 33)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)


def test_lemma1_equality_on_mdp_models():
    scheme = LatentScheme(1)
    for i in range(10):
        m = make_tabular("mdp", 5, 3, seed=800 + i, gamma=0.9)
        rep = _verify("lemma1", m, scheme, 900 + i, 1000 + i)
        assert rep.extras["max_equality_gap"] <= 1e-10


def test_lemma2_triangle_inequality():
    scheme = LatentScheme(1)
    for i in range(10):
        m = make_tabular("mdp", 6, 3, seed=1100 + i, gamma=0.9)
        rep = _verify("lemma2", m, scheme, 1200 + i, 1300 + i)
        assert rep.slack >= -1e-10


def test_lemma4_tv_bounded_by_sqrt_js_random_pairs():
    rng = np.random.default_rng(34)
    for _ in range(1000):
        n = int(rng.integers(2, 17))
        p = rng.dirichlet(np.full(n, rng.uniform(0.2, 3.0)))
        q = rng.dirichlet(np.full(n, rng.uniform(0.2, 3.0)))
        tv = f_divergence("tv", p, q)
        js = f_divergence("js", p, q)
        assert tv <= np.sqrt(js) + 1e-12


def test_lemma4_finite_when_latent_occupancies_agree():
    # with one action every policy is the same, so the two rho_zz agree and
    # their JS divergence is zero up to rounding
    scheme = LatentScheme(1)
    for n in range(2, 7):
        for seed in range(6):
            m = make_tabular("random", n, 1, seed=seed)
            rep = _verify("lemma4", m, scheme, seed, seed + 100)
            assert np.isfinite(rep.rhs) and rep.slack >= -1e-8


def test_theorem3_monotone_on_lifted_windows():
    scheme = LatentScheme(2)
    for i in range(10):
        m = make_tabular("mdp", 5, 2, seed=1400 + i, gamma=0.85)
        rep = _verify("theorem3", m, scheme, 1500 + i, 1600 + i)
        assert rep.slack >= -1e-10


def test_theorem3_equality_when_z_equals_s():
    scheme = LatentScheme(1)
    m = _mdp(5, 3, seed=35)
    rep = _verify("theorem3", m, scheme, 36, 37)
    assert rep.lhs == pytest.approx(rep.rhs, abs=1e-12)


def test_corollary1_c_vanishes():
    scheme = LatentScheme(1)
    for i in range(10):
        m = make_tabular("injective-deterministic", 8, 3, seed=1700 + i, gamma=0.9)
        rep = _verify("corollary1", m, scheme, 1800 + i, 1900 + i)
        assert rep.c_value <= 1e-8
        assert rep.slack >= -1e-8


@pytest.mark.parametrize("claim", CLAIMS)
def test_verify_searches_the_pair_step_once(monkeypatch, claim):
    # the caller's pair_step is the only search: verify solves on its step
    m = make_tabular("random", 4, 2, n_obs=3, seed=44)
    scheme = LatentScheme(2)
    search, calls = theory.pair_step, []

    def counted(pomdp, scheme):
        calls.append(scheme)
        return search(pomdp, scheme)

    monkeypatch.setattr(theory, "pair_step", counted)
    step = theory.pair_step(m, scheme)
    verify(claim, m, step, _policy_for(m, step, 45), _policy_for(m, step, 46))
    assert calls == [scheme]


def test_verify_bound_terms_match_the_table_functions():
    m = make_tabular("random", 5, 3, n_obs=3, seed=47, gamma=0.9)
    step = pair_step(m, LatentScheme(2))
    pol_t, pol_e = _policy_for(m, step, 48), _policy_for(m, step, 49)
    tab_t, tab_e = occupancies(m, step, pol_t), occupancies(m, step, pol_e)
    rep = verify("theorem1", m, step, pol_t, pol_e)
    assert rep.lhs == abs(policy_value(m, tab_e) - policy_value(m, tab_t))
    assert rep.c_value == c_term(m, tab_t, tab_e)
    assert rep.c_value > 0.0


def test_report_to_dict_lists_fields_then_extras_and_names_infinities():
    rep = theory.BoundReport("theorem3", 0.5, np.inf, -np.inf,
                             extras={"kl_latent": np.inf, "tv_latent": 0.25})
    out = rep.to_dict()
    assert list(out.items()) == [
        ("claim", "theorem3"), ("lhs", 0.5), ("rhs", "inf"), ("slack", "-inf"),
        ("r_max", 0.0), ("tv_term", 0.0), ("c_value", 0.0),
        ("assumption_violation", 0.0), ("kl_latent", "inf"), ("tv_latent", 0.25)]


def test_report_of_a_diverging_kl_is_strict_json():
    # the expert never takes the actions a random agent does: KL is +inf
    m = _mdp(5, 3, seed=50)
    step = pair_step(m, LatentScheme(1))
    expert = np.eye(m.n_actions)[np.arange(len(step.windows)) % m.n_actions]
    out = verify("theorem3", m, step, _policy_for(m, step, 51), expert).to_dict()
    assert out["kl_state"] == out["kl_latent"] == "inf"
    assert np.isfinite(out["slack"])
    json.dumps(out, allow_nan=False)


def test_verify_rejects_unknown_claim():
    m = _mdp()
    with pytest.raises(ValueError, match="unknown claim"):
        _verify("lemma3", m, LatentScheme(1), 38, 38)


def test_window_reachability_with_partial_observability():
    m = make_tabular("random", 4, 2, n_obs=3, seed=39)
    step = pair_step(m, LatentScheme(2))
    assert all(len(w) == 2 for w in step.windows)
    assert any(w[0] == BLANK for w in step.windows)  # initial padded windows
    tab = occupancies(m, step, _policy_for(m, step, 40))
    tab.check_consistency()
