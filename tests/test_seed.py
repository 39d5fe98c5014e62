"""Seed validation, mutation, acyclicity, principal and double builds."""

import json
import pickle
import random
import time
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from qca import seed as seed_module
from qca.crystal import rank2_principal_seed
from qca.ebasis import EBasis
from qca.kronecker import a11_seed
from qca.seed import (
    QuantumSeed,
    bullet_exponents,
    compatible_orders,
    double_seed,
    exchange_vector,
    integer_rank,
    is_acyclic,
    load_seed,
    mutate,
    parse_seed,
    principal_seed,
    read_seed,
    require_valid,
    seed_to_dict,
    seed_weight_order,
    sink_or_source,
    validate,
)
from qca.torus import SkewForm, basis_vector, quasi_commutes
from qca.verify import random_principal_seed


def vec_dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b, strict=True))


def test_a11_seed_valid():
    rep = validate(a11_seed())
    assert rep.valid
    assert rep.acyclic
    assert rep.compatible_orders == [(0, 1)]
    assert rep.order_compatible


def test_skew_violation_reported():
    seed = QuantumSeed(
        m=2,
        n=2,
        btilde=((0, -2), (2, 0)),
        lam=((0, -1), (2, 0)),
        d=(2, 2),
        order=(0, 1),
    )
    rep = validate(seed)
    assert not rep.valid
    assert (0, 1) in rep.skew_violations


def test_compat_violation_reported():
    seed = QuantumSeed(
        m=2,
        n=2,
        btilde=((0, -2), (2, 0)),
        lam=((0, -2), (2, 0)),
        d=(2, 2),
        order=(0, 1),
    )
    rep = validate(seed)
    assert not rep.valid
    assert rep.compat_violations


def test_principal_seed_rank2():
    b, c = 3, 2
    s = principal_seed(((0, -b), (c, 0)), (c, b))
    assert s.m == 4 and s.n == 2
    assert s.btilde == ((0, -b), (c, 0), (1, 0), (0, 1))
    assert s.lam == (
        (0, 0, -c, 0),
        (0, 0, 0, -b),
        (c, 0, 0, b * c),
        (0, b, -b * c, 0),
    )
    assert validate(s).valid


def test_principal_seed_zero_matrix():
    n = 3
    s = principal_seed(tuple((0,) * n for _ in range(n)), (1,) * n)
    eye = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    assert s.lam == tuple(
        tuple(0 for _ in range(n)) + tuple(-r for r in row) for row in eye
    ) + tuple(tuple(r for r in row) + (0,) * n for row in eye)
    assert validate(s).valid
    assert is_acyclic(s)
    assert len(compatible_orders(s)) == 6


def test_principal_commutation_rule():
    # Generator i pairs with generator k <= n only through the symmetrizer.
    rng = random.Random(0)
    s = random_principal_seed(rng, 3)
    form = s.form()
    n = s.n
    for k in range(n):
        xk = form.generator(k)
        for i in range(n, 2 * n):
            xi = form.generator(i)
            t = s.d[i - n] if i == k + n else s.lam[i][k]
            assert quasi_commutes(xi, xk, t)
        for j in range(n):
            assert quasi_commutes(form.generator(j), xk, 0)


def test_principal_rejects_non_symmetrizable():
    with pytest.raises(ValueError):
        principal_seed(((0, -1), (2, 0)), (1, 1))


def test_mutation_a11():
    s = a11_seed()
    mutated = mutate(s, 0)
    assert mutated.btilde == ((0, 2), (-2, 0))
    assert validate(mutated).valid


def test_mutation_involution():
    rng = random.Random(1)
    for _ in range(10):
        s = random_principal_seed(rng, rng.choice([2, 3]))
        k = rng.randrange(s.n)
        back = mutate(mutate(s, k), k)
        assert back.btilde == s.btilde
        assert back.lam == s.lam
        assert validate(mutate(s, k)).valid


def test_mutation_at_either_end_of_a_compatible_order():
    # Mutation moves the order-last index to the front and the order-first
    # one to the back; either way the order stays compatible and a second
    # mutation at the same index restores the seed, order included.
    rng = random.Random(19)
    moved = 0
    for n in (1, 2, 3, 4):
        for _ in range(4):
            base = random_principal_seed(rng, n)
            for order in compatible_orders(base):
                s = base.replace(order=order)
                for k in {order[0], order[-1]}:
                    mutated = mutate(s, k)
                    assert validate(mutated).order_compatible, (s, k)
                    assert mutate(mutated, k) == s
                    moved += mutated.order != order
    assert moved > 0


def test_mutation_moves_a_source_away_from_its_ends_to_the_back():
    # Index 1 is a source in the middle of the order (0, 1, 2); keeping the
    # order there would leave it incompatible.
    s = principal_seed(((0, 0, -1), (0, 0, -1), (1, 1, 0)), (1, 1, 1))
    assert mutate(s, 0).order == (1, 2, 0)
    assert mutate(s, 1).order == (0, 2, 1)
    assert validate(mutate(s, 1)).order_compatible
    assert mutate(s, 2).order == (2, 0, 1)


def test_mutation_keeps_an_isolated_index_in_place():
    s = principal_seed(((0, 0, 0),) * 3, (1, 1, 1))
    for k in range(3):
        assert mutate(s, k).order == (0, 1, 2)


def test_sink_or_source_mutation_keeps_every_compatible_order_compatible():
    rng = random.Random(19)
    mutations = 0
    for n in (1, 2, 3, 4):
        for _ in range(8):
            base = random_principal_seed(rng, n)
            kinds = [sink_or_source(base, k, extended=False) for k in range(n)]
            for order in compatible_orders(base):
                s = base.replace(order=order)
                for k in range(n):
                    if kinds[k] != "neither":
                        mutations += 1
                        assert validate(mutate(s, k)).order_compatible, (s, k)
    assert mutations == 196


def test_mutation_rank2_principal_matches_closed_form():
    b, c = 2, 3
    s = principal_seed(((0, -b), (c, 0)), (c, b))
    s2 = mutate(s, 1)
    assert s2.btilde == ((0, b), (-c, 0), (1, 0), (c, -1))
    assert s2.lam == (
        (0, 0, -c, 0),
        (0, 0, -b * c, b),
        (c, b * c, 0, b * c),
        (0, -b, -b * c, 0),
    )


def test_mutation_range_checked():
    with pytest.raises(ValueError):
        mutate(a11_seed(), 2)


@pytest.mark.parametrize("k", [-1, 2])
def test_exchange_index_range_checked(k):
    for fn in (exchange_vector, sink_or_source):
        with pytest.raises(ValueError, match="^index out of exchange range$"):
            fn(a11_seed(), k)


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(lam=((0, -1),)), "skew form matrix must be m x m"),
        (dict(lam=((0, -1), (1,))), "skew form matrix must be m x m"),
        (dict(d=(1,)), "need n positive symmetrizers"),
        (dict(d=(1, 0)), "need n positive symmetrizers"),
        (dict(order=(0, 0)), "order must be a permutation of the exchange indices"),
    ],
)
def test_quantum_seed_shape_errors(change, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        a11_seed().replace(**change)


def test_acyclicity_cases():
    s = a11_seed()
    assert is_acyclic(s)
    assert compatible_orders(s) == [(0, 1)]
    # Directed 3-cycle is rejected.
    B = ((0, -1, 1), (1, 0, -1), (-1, 1, 0))
    cyc = principal_seed(B, (1, 1, 1))
    assert not is_acyclic(cyc)
    assert compatible_orders(cyc) == []


def test_sink_source():
    s = a11_seed()
    assert sink_or_source(s, 1, extended=False) == "sink"
    assert sink_or_source(s, 0, extended=False) == "source"
    # After one mutation at the sink the seed stays acyclic.
    assert is_acyclic(mutate(s, 1))
    # Isolated vertices report source.
    z = principal_seed(((0, 0), (0, 0)), (1, 1))
    assert sink_or_source(z, 0, extended=False) == "source"
    assert sink_or_source(z, 0, extended=True) == "source"
    # Frozen rows can demote a sink in the extended graph.
    p = principal_seed(((0, -1), (1, 0)), (1, 1))
    assert sink_or_source(p, 1, extended=False) == "sink"
    assert sink_or_source(p, 1, extended=True) == "neither"
    # Path 1 -> 2 -> 3: the middle vertex is neither.
    path = principal_seed(((0, -1, 0), (1, 0, -1), (0, 1, 0)), (1, 1, 1))
    assert sink_or_source(path, 1, extended=False) == "neither"


def test_double_seed():
    s = a11_seed()
    d = double_seed(s)
    assert d.m == 4 and d.n == 2
    assert d.btilde == ((0, -2), (2, 0), (0, 0), (0, 0))
    assert d.lam == (
        (0, -1, 0, 0),
        (1, 0, 0, 0),
        (0, 0, 0, 1),
        (0, 0, -1, 0),
    )
    assert validate(d).valid


def test_double_embedding_multiplicative():
    rng = random.Random(2)
    s = random_principal_seed(rng, 2)
    form = s.form()
    dform = double_seed(s).form()
    pad = (0,) * s.m
    for _ in range(30):
        e = tuple(rng.randint(-3, 3) for _ in range(s.m))
        f = tuple(rng.randint(-3, 3) for _ in range(s.m))
        prod = form.monomial(e) * form.monomial(f)
        [(g, c)] = prod.terms.items()
        assert dform.monomial(e + pad) * dform.monomial(f + pad) == dform.monomial(
            g + pad, c
        )


def test_bullet_generators():
    s = a11_seed()
    exps = bullet_exponents(s)
    dform = double_seed(s).form()
    gens = [dform.monomial(e) for e in exps]
    n = s.n
    # First n generators commute with each other.
    for i in range(n):
        for j in range(n):
            assert quasi_commutes(gens[i], gens[j], 0)
    # The frozen block pairs via the symmetrized exchange matrix.
    for i in range(n):
        for j in range(n):
            assert (
                dform.skew(exps[n + i], exps[n + j]) == s.d[j] * s.btilde[j][i]
            )
    assert integer_rank(exps) == 2 * n


def test_form_built_once_per_seed():
    s = a11_seed()
    assert s.form() is s.form()
    assert EBasis(s).form is s.form()
    # The form is not a field: equality, hashing, replace and the JSON dict
    # see only the seed data.
    t = a11_seed()
    assert t == s and hash(t) == hash(s) and t.form() is not s.form()
    assert s.replace().form() is not s.form() and s.replace() == s
    assert set(seed_to_dict(s)) == {"m", "n", "B", "Lambda", "d", "order"}


def test_seed_fields_are_fixed_values():
    s = a11_seed()
    for name in ("m", "order", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, 1)
        with pytest.raises(AttributeError):
            delattr(s, name)
    assert s == a11_seed() and hash(s) == hash(a11_seed())
    assert s != s.replace(order=(1, 0)) and s != seed_to_dict(s)
    assert repr(s) == (
        "QuantumSeed(m=2, n=2, btilde=((0, -2), (2, 0)), lam=((0, -1), (1, 0)), "
        "d=(2, 2), order=(0, 1))"
    )


def test_replace_checks_as_the_constructor_does():
    s = a11_seed()
    fields = dict(m=s.m, n=s.n, btilde=s.btilde, lam=s.lam, d=s.d, order=(1, 1))
    with pytest.raises(ValueError) as built:
        QuantumSeed(**fields)
    with pytest.raises(ValueError) as replaced:
        s.replace(order=(1, 1))
    assert str(replaced.value) == str(built.value)
    with pytest.raises(TypeError):
        s.replace(rank=2)


def test_seed_pickles_with_its_built_form():
    # A --jobs worker receives the seed pickled, and should not rebuild the form.
    s = a11_seed()
    assert pickle.loads(pickle.dumps(s)) == s
    s.form()
    t = pickle.loads(pickle.dumps(s))
    assert t == s and "_form" in t.__dict__ and t.form().rows == s.form().rows


def test_seed_json_roundtrip(tmp_path):
    s = a11_seed()
    data = seed_to_dict(s)
    assert data["order"] == [1, 2]
    assert require_valid(parse_seed(json.loads(json.dumps(data)))).seed == s
    with pytest.raises(ValueError):
        bad = dict(data)
        bad["Lambda"] = [[0, 1], [1, 0]]
        require_valid(parse_seed(bad))


def test_read_seed_reads_without_validating(tmp_path):
    data = seed_to_dict(a11_seed())
    data["Lambda"] = [[0, 1], [1, 0]]
    path = tmp_path / "nonskew.json"
    path.write_text(json.dumps(data))
    seed = read_seed(path)
    assert seed.lam == ((0, 1), (1, 0)) and not validate(seed).valid
    with pytest.raises(ValueError, match="^seed fails validation: "):
        load_seed(path)
    data["d"] = [1.0, 1]
    path.write_text(json.dumps(data))
    for reader in (read_seed, load_seed):
        with pytest.raises(ValueError, match="^malformed seed data: expected an integer, got 1.0$"):
            reader(path)


def test_seed_is_validated_once_per_object(monkeypatch):
    calls = []
    monkeypatch.setattr(seed_module, "validate", lambda s: calls.append(s) or validate(s))
    s = a11_seed().replace()
    first = require_valid(s)
    second = require_valid(s)
    EBasis(s)
    assert calls == [s]
    assert second.to_dict() == first.to_dict() and second.skew_violations is not first.skew_violations
    # The kept lists are not fields: equality, hashing and copies ignore them.
    copy = s.replace()
    assert copy == s and hash(copy) == hash(s)
    require_valid(copy)
    assert len(calls) == 2
    # An invalid seed raises on every call, from one validation.
    bad = s.replace(lam=((0, 1), (1, 0)))
    for _ in range(2):
        with pytest.raises(ValueError, match="skew-symmetry violated at"):
            require_valid(bad)
    assert len(calls) == 3


def test_ebasis_on_edgeless_seed_lists_no_orders():
    # The zero 10 x 10 exchange matrix has 10! compatible orders; building a
    # basis must not list them.
    s = principal_seed(tuple((0,) * 10 for _ in range(10)), (1,) * 10)
    t0 = time.perf_counter()
    EBasis(s)
    assert time.perf_counter() - t0 < 1.0


def test_invalid_edgeless_seed_error_names_violations_only():
    # The 8 x 8 zero block has 8! compatible orders; the errors list only the
    # 8 compatibility violations of the zero Lambda.
    m, n = 16, 8
    data = dict(
        m=m,
        n=n,
        B=[[0] * n for _ in range(n)] + [[int(i == j) for j in range(n)] for i in range(n)],
        Lambda=[[0] * m for _ in range(m)],
        d=[1] * n,
    )
    t0 = time.perf_counter()
    with pytest.raises(ValueError) as seed_err:
        require_valid(parse_seed(data))
    with pytest.raises(ValueError) as basis_err:
        EBasis(parse_seed(data))
    assert time.perf_counter() - t0 < 1.0
    for exc in (seed_err, basis_err):
        message = str(exc.value)
        assert len(message) < 1000
        assert message.count("compatibility violated") == n
        assert "compatible orders" not in message


@settings(max_examples=40, deadline=None)
@given(st.randoms(), st.integers(1, 4))
def test_weight_order_pairs_to_symmetrizers_on_random_principal_seeds(rng, n):
    s = random_principal_seed(rng, n)
    w = seed_weight_order(s).weights
    assert [vec_dot(w, s.column(k)) for k in range(n)] == list(s.d)


def test_weight_order_pinned():
    assert seed_weight_order(a11_seed()).weights == (-1, 1)
    assert seed_weight_order(rank2_principal_seed(3, 2)).weights == (0, 0, 2, 3)
    wild = principal_seed(((0, -2, -2), (2, 0, -2), (2, 2, 0)), (1, 1, 1))
    assert seed_weight_order(wild).weights == (0, 0, 0, 1, 1, 1)


def test_integer_rank():
    assert integer_rank([]) == 0
    assert integer_rank([(0, 0, 0), (0, 0, 0)]) == 0
    assert integer_rank([(1, 2, 0), (0, 3, -1), (2, 0, 5)]) == 3
    assert integer_rank([(2, 4, -6), (0, 0, 0), (-1, -2, 3), (0, 1, 1), (2, 5, -5)]) == 2
    assert integer_rank([(0, 0), (3, 0), (0, 0), (0, -2)]) == 2


def _per_pair_report(seed):
    """Every report field by its per-pair formula, on a fresh form: the
    oracle for the one-pass ``validate`` and the lazily computed fields."""
    m, n, b, lam = seed.m, seed.n, seed.btilde, seed.lam
    skew = [(i, j) for i in range(m) for j in range(m) if lam[i][j] != -lam[j][i]]
    compat = []
    if not skew:
        form = SkewForm(lam)
        for j in range(n):
            for i in range(m):
                want = seed.d[j] if i == j else 0
                if form.skew(seed.column(j), basis_vector(m, i)) != want:
                    compat.append((i, j))

    def bad_pairs(order):
        pos = {k: p for p, k in enumerate(order)}
        return [(i, j) for i in range(n) for j in range(n) if pos[i] < pos[j] and b[i][j] > 0]

    def kind(k, rows):
        if not any(b[k][j] > 0 for j in range(n)):
            return "source"
        return "neither" if any(b[i][k] > 0 for i in range(rows)) else "sink"

    # Acyclic exactly when no diagonal entry is a positive loop and some
    # linear order has no violating pair.
    acyclic = all(b[k][k] <= 0 for k in range(n)) and any(
        not bad_pairs(order) for order in permutations(range(n))
    )
    return (
        skew,
        compat,
        bad_pairs(seed.order),
        acyclic,
        [kind(k, n) for k in range(n)],
        [kind(k, m) for k in range(n)],
    )


@settings(max_examples=150, deadline=None)
@given(
    st.randoms(),
    st.integers(1, 4),
    st.sampled_from(["none", "Lambda pair", "Lambda entry", "Btilde entry"]),
)
def test_validate_matches_the_per_pair_oracle(rng, n, perturbation):
    s = random_principal_seed(rng, n)
    lam = [list(row) for row in s.lam]
    b = [list(row) for row in s.btilde]
    i, j, t = rng.randrange(s.m), rng.randrange(s.m), rng.choice((-2, -1, 1, 2))
    if perturbation == "Lambda pair":  # stays skew-symmetric
        lam[i][j] += t
        lam[j][i] -= t
    elif perturbation == "Lambda entry":  # breaks skew-symmetry
        lam[i][j] += t
    elif perturbation == "Btilde entry":
        b[i][j % n] += t
    seed = s.replace(
        btilde=tuple(map(tuple, b)),
        lam=tuple(map(tuple, lam)),
        order=tuple(rng.sample(range(n), n)),
    )
    rep = validate(seed)
    assert (
        rep.skew_violations,
        rep.compat_violations,
        rep.order_violations,
        rep.acyclic,
        rep.sink_source_exchange,
        rep.sink_source_extended,
    ) == _per_pair_report(seed)
