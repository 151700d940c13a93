"""Independent brute-force equilibrium oracle for finite contracting games.

Deliberately naive: nested loops over every pure messaging strategy and
every pure continuation assignment, with posterior beliefs rebuilt from
the joint distribution by hand and the agent/principal optimality
inequalities written out directly. Shares only the payoff evaluators
with the engine; the search logic and the consistency conditions are
re-derived here so the two implementations can be compared as
independent paths.
"""

from __future__ import annotations

import itertools

from contract_forge.env_core import OPT_OUT, payoff_u, payoff_v


def _profiles(contracts):
    return list(itertools.product(*[range(len(c.messages)) for c in contracts]))


def _action_key(env, contracts, prof, ys):
    return tuple(
        (contracts[j].messages[prof[j]].action, ys[j]) for j in range(env.n)
    )


def _feasible_sets(env, contracts, prof):
    return [
        env.principals[j].feasible[contracts[j].messages[prof[j]].action]
        for j in range(env.n)
    ]


def oracle_allocations(env, contracts, tol=1e-9):
    """Set of allocation keys over all pure continuation equilibria.

    Off-path beliefs use the prior-policy convention: the prior over
    types and, in private mode, each type's participation-conditional
    behavior toward the other principals (first messages when a type
    never participates).
    """
    T = len(env.types.finite)
    t_values = [t.value for t in env.types.finite]
    t_labels = [t.label for t in env.types.finite]
    mu = [t.weight for t in env.types.finite]
    profiles = _profiles(contracts)
    outcomes = list(profiles) + ([OPT_OUT] if env.optout else [])
    U = [env.outside_option(v) for v in t_values]

    found = set()
    for q in itertools.product(outcomes, repeat=T):
        if env.observability == "public":
            results = _public_equilibria(
                env, contracts, q, profiles, mu, t_values, U, tol
            )
        else:
            results = _private_equilibria(
                env, contracts, q, profiles, mu, t_values, U, tol
            )
        for gamma in results:
            key = []
            for t in range(T):
                if q[t] == OPT_OUT:
                    key.append((t_labels[t], ((OPT_OUT, 1.0),)))
                else:
                    ak = _action_key(env, contracts, q[t], gamma[q[t]])
                    key.append((t_labels[t], ((tuple(map(tuple, ak)), 1.0),)))
            found.add(tuple(key))
    return found


def _public_beliefs(env, q, profiles, mu, T):
    prior_total = sum(mu)
    prior = [m / prior_total for m in mu]
    beliefs = {}
    for prof in profiles:
        mass = [mu[t] if q[t] == prof else 0.0 for t in range(T)]
        total = sum(mass)
        beliefs[prof] = [m / total for m in mass] if total > 0 else prior
    return beliefs


def _public_equilibria(env, contracts, q, profiles, mu, t_values, U, tol):
    T = len(t_values)
    beliefs = _public_beliefs(env, q, profiles, mu, T)

    slots = []
    pools = []
    for prof in profiles:
        feas = _feasible_sets(env, contracts, prof)
        for j in range(env.n):
            slots.append((prof, j))
            pools.append(feas[j])

    out = []
    for flat in itertools.product(*pools):
        gamma = {}
        for (prof, j), y in zip(slots, flat):
            gamma.setdefault(prof, [None] * env.n)[j] = y
        gamma = {prof: tuple(ys) for prof, ys in gamma.items()}

        ok = True
        # principals: posterior optimality after every message profile
        for prof in profiles:
            feas = _feasible_sets(env, contracts, prof)
            p = beliefs[prof]
            for j in range(env.n):
                lhs = sum(
                    p[t] * payoff_v(env, j, _action_key(env, contracts, prof, gamma[prof]), t_values[t])
                    for t in range(T)
                )
                for y_dev in feas[j]:
                    alt = gamma[prof][:j] + (y_dev,) + gamma[prof][j + 1 :]
                    rhs = sum(
                        p[t] * payoff_v(env, j, _action_key(env, contracts, prof, alt), t_values[t])
                        for t in range(T)
                    )
                    if rhs > lhs + tol:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            continue

        # agent: optimal messages with interim participation
        for t in range(T):
            eq_pay = (
                U[t]
                if q[t] == OPT_OUT
                else payoff_u(env, _action_key(env, contracts, q[t], gamma[q[t]]), t_values[t])
            )
            best = U[t] if env.optout else float("-inf")
            for prof in profiles:
                best = max(
                    best,
                    payoff_u(env, _action_key(env, contracts, prof, gamma[prof]), t_values[t]),
                )
            if eq_pay < best - tol:
                ok = False
                break
        if ok:
            out.append(gamma)
    return out


def _private_beliefs_for(env, contracts, q, profiles, mu, T, j):
    """Belief of principal j over (type, rest profile) per own message."""
    others = [k for k in range(env.n) if k != j]
    onpath: dict[int, dict] = {}
    mass: dict[int, float] = {}
    for t in range(T):
        if q[t] == OPT_OUT:
            continue
        mj = q[t][j]
        rest = tuple(q[t][k] for k in others)
        onpath.setdefault(mj, {})
        onpath[mj][(t, rest)] = onpath[mj].get((t, rest), 0.0) + mu[t]
        mass[mj] = mass.get(mj, 0.0) + mu[t]
    beliefs = {
        mj: {k: w / mass[mj] for k, w in acc.items()} for mj, acc in onpath.items()
    }
    prior_total = sum(mu)
    default_rest = tuple(0 for _ in others)
    for mj in range(len(contracts[j].messages)):
        if mj in beliefs:
            continue
        fill = {}
        for t in range(T):
            rest = (
                tuple(q[t][k] for k in others) if q[t] != OPT_OUT else default_rest
            )
            fill[(t, rest)] = fill.get((t, rest), 0.0) + mu[t] / prior_total
        beliefs[mj] = fill
    return beliefs


def _private_equilibria(env, contracts, q, profiles, mu, t_values, U, tol):
    T = len(t_values)
    beliefs = [
        _private_beliefs_for(env, contracts, q, profiles, mu, T, j)
        for j in range(env.n)
    ]

    slots = []
    pools = []
    for j in range(env.n):
        for i, msg in enumerate(contracts[j].messages):
            slots.append((j, i))
            pools.append(env.principals[j].feasible[msg.action])

    out = []
    for flat in itertools.product(*pools):
        cont: dict[int, dict[int, str]] = {}
        for (j, i), y in zip(slots, flat):
            cont.setdefault(j, {})[i] = y
        gamma = {
            prof: tuple(cont[j][prof[j]] for j in range(env.n)) for prof in profiles
        }

        ok = True
        for j in range(env.n):
            others = [k for k in range(env.n) if k != j]
            for i, msg in enumerate(contracts[j].messages):
                p = beliefs[j][i]

                def value(y_j):
                    total = 0.0
                    for (t, rest), w in p.items():
                        prof = list(rest)
                        prof.insert(j, i)
                        prof = tuple(prof)
                        ys = tuple(
                            y_j if k == j else cont[k][prof[k]] for k in range(env.n)
                        )
                        total += w * payoff_v(
                            env, j, _action_key(env, contracts, prof, ys), t_values[t]
                        )
                    return total

                lhs = value(cont[j][i])
                for y_dev in env.principals[j].feasible[msg.action]:
                    if value(y_dev) > lhs + tol:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            continue

        for t in range(T):
            eq_pay = (
                U[t]
                if q[t] == OPT_OUT
                else payoff_u(env, _action_key(env, contracts, q[t], gamma[q[t]]), t_values[t])
            )
            best = U[t] if env.optout else float("-inf")
            for prof in profiles:
                best = max(
                    best,
                    payoff_u(env, _action_key(env, contracts, prof, gamma[prof]), t_values[t]),
                )
            if eq_pay < best - tol:
                ok = False
                break
        if ok:
            out.append(gamma)
    return out


def engine_allocation_keys(found) -> set:
    """Allocation keys of engine results in the oracle's key format."""
    keys = set()
    for fe in found:
        key = []
        for t_label in sorted(fe.allocation.entries):
            dist = []
            for outcome, p in fe.allocation.entries[t_label]:
                if outcome == OPT_OUT:
                    dist.append((OPT_OUT, round(p, 12)))
                else:
                    dist.append((tuple(map(tuple, outcome)), round(p, 12)))
            key.append((t_label, tuple(sorted(dist, key=repr))))
        keys.add(tuple(key))
    return keys


def random_instance(rng):
    """Random small environment plus installed contracts.

    Sizes respect the comparison budget: up to three types, up to two
    principals, at most four feasible pairs per principal, at most two
    messages per installed contract (three in the single-principal case).
    """
    from contract_forge.contracts import submenu
    from contract_forge.env_core import (
        ActionValue,
        Environment,
        PayoffModel,
        PrincipalSpec,
        TypeSpace,
    )

    n = int(rng.integers(1, 3))
    T = int(rng.integers(2, 4)) if n == 1 else int(rng.integers(2, 4))
    types = TypeSpace.uniform_finite([float(i + 1) for i in range(T)])

    principals = []
    for j in range(n):
        nx = int(rng.integers(1, 3))
        max_f = 3 if n == 1 else 2
        sizes = []
        total = 0
        for i in range(nx):
            remaining = 4 - total - (nx - i - 1)
            hi = min(max_f, remaining)
            s = int(rng.integers(1, hi + 1))
            sizes.append(s)
            total += s
        while total < 2:
            sizes[0] += 1
            total += 1
        ny = max(sizes)
        xs = tuple(ActionValue(f"x{j}{i}") for i in range(nx))
        ys = tuple(ActionValue(f"y{j}{i}") for i in range(ny))
        feasible = {}
        for i, s in enumerate(sizes):
            picks = sorted(rng.choice(ny, size=s, replace=False).tolist())
            feasible[f"x{j}{i}"] = tuple(f"y{j}{k}" for k in picks)
        principals.append(
            PrincipalSpec(contractible=xs, noncontractible=ys, feasible=feasible)
        )

    observability = "private" if (n == 2 and rng.random() < 0.4) else "public"
    probe = Environment(
        types=types,
        principals=tuple(principals),
        payoffs=PayoffModel.from_table({}, n_principals=n),
        observability=observability,
        optout=bool(rng.random() < 0.8),
    )
    from contract_forge.env_core import _profile_sweep

    entries = {}
    for t in types.finite:
        for prof in _profile_sweep(principals):
            u = float(rng.integers(-2, 3))
            vs = tuple(float(rng.integers(-2, 3)) for _ in range(n))
            entries[(t.label, prof)] = (u, vs)
    env = Environment(
        types=types,
        principals=tuple(principals),
        payoffs=PayoffModel.from_table(entries, n_principals=n),
        observability=observability,
        optout=probe.optout,
    )

    max_msgs = 3 if n == 1 else 2
    contracts = []
    for j in range(n):
        pairs = list(env.principals[j].feasible_pairs())
        k = int(rng.integers(1, min(max_msgs, len(pairs)) + 1))
        picks = sorted(rng.choice(len(pairs), size=k, replace=False).tolist())
        contracts.append(submenu(env, j, [pairs[i] for i in picks]))
    return env, tuple(contracts)
