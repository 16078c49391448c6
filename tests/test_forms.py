import random
from fractions import Fraction
from math import lcm

import pytest

from lieposet import linalg
from lieposet.algebras import build_custom, build_g, build_gA, footnote_algebra, sl2
from lieposet.forms import (
    INDEX_TRIALS,
    FormError,
    NotFrobeniusError,
    OneForm,
    ad_weights,
    dphi_matrix,
    functional_on_basis,
    index,
    index_failure_bound,
    is_binary_spectrum,
    is_binary_weights,
    is_contact_form,
    is_contact_form_volume,
    is_small,
    kernel,
    phi_on_basis,
    principal_element,
    principal_or_kernel,
    spectrum,
    udo_partition,
    _dphi_rows,
)
from lieposet.linalg import ShapeError, char_poly
from lieposet.posets import Poset
from lieposet.sweep import enumerate_posets
from oracles import ad_matrix, in_kernel, is_skew_symmetric, unit

CHAIN2 = Poset.chain(2)
CHAIN3 = Poset.chain(3)
CHAIN4 = Poset.chain(4)
FORK5 = Poset.from_covers(5, [(1, 2), (2, 3), (3, 4), (3, 5)])
# six-element block: 1 < {2,3} < 4 < {5,6}
SIX_A = Poset.from_covers(6, [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (4, 6)])

PHI_CHAIN4 = OneForm.from_support(CHAIN4, [(1, 1), (1, 4), (2, 3), (2, 4)])
PHI_FORK5 = OneForm.from_support(FORK5, [(1, 1), (1, 4), (1, 5), (2, 3), (2, 5)])
PHI_SIX_A = OneForm.from_support(SIX_A, [(1, 5), (1, 6), (2, 4), (2, 5), (3, 6)])


def assert_proportional(coords, expected):
    expected = {k: Fraction(v) for k, v in expected.items() if v}
    keys = set(coords) | set(expected)
    ratio = None
    for k in keys:
        a, b = coords.get(k, Fraction(0)), expected.get(k, Fraction(0))
        if (a == 0) != (b == 0):
            raise AssertionError(f"support mismatch at {k}: {coords} vs {expected}")
        if a:
            r = a / b
            if ratio is None:
                ratio = r
            elif r != ratio:
                raise AssertionError(f"not proportional: {coords} vs {expected}")
    assert ratio is not None and ratio != 0


def test_form_validates_support():
    with pytest.raises(FormError):
        OneForm.from_support(CHAIN2, [(2, 1)])
    with pytest.raises(FormError):
        OneForm.from_support(CHAIN2, [(1, 3)])
    f = OneForm.from_support(CHAIN2, [(1, 1), (1, 2)])
    assert f.diagonal_support == {(1, 1)} and f.strict_support == {(1, 2)}


def test_form_json_roundtrip():
    f = OneForm.from_support(CHAIN4, [(1, 1), (1, 4)], {(1, 4): Fraction(3, 2)})
    data = f.to_json()
    assert OneForm.from_json(CHAIN4, data) == f
    bare = OneForm.from_support(CHAIN4, [(2, 3)])
    assert OneForm.from_json(CHAIN4, bare.to_json()) == bare


def test_dphi_zero_for_abelian():
    alg = build_custom(3, {})
    m = dphi_matrix(alg, functional_on_basis(alg, [1, 2, 3]))
    assert m.is_zero()


def test_dphi_chain2_entry():
    gA = build_gA(CHAIN2)
    phi = OneForm.from_support(CHAIN2, [(1, 2)])
    m = dphi_matrix(gA, phi)
    # basis (E11-E22, E12): [E11-E22, E12] = 2 E12, so dφ = -2
    assert m.rows[0][1] == -2 and m.rows[1][0] == 2
    assert is_skew_symmetric(m)


def test_dphi_skew_randomized():
    rng = random.Random(0)
    for poset in (CHAIN4, FORK5, SIX_A):
        for alg in (build_g(poset), build_gA(poset)):
            pairs = sorted(poset.relations)
            support = [pq for pq in pairs if rng.random() < 0.6] or pairs[:1]
            phi = OneForm.from_support(poset, support)
            assert is_skew_symmetric(dphi_matrix(alg, phi))


def test_golden_kernel_chain4():
    gA = build_gA(CHAIN4)
    rep = kernel(gA, PHI_CHAIN4)
    assert rep.dimension == 1
    assert_proportional(
        rep.generator_coords(),
        {(1, 1): 1, (2, 2): -1, (3, 3): -1, (4, 4): 1, (1, 2): 2},
    )


def test_golden_kernel_fork5():
    gA = build_gA(FORK5)
    rep = kernel(gA, PHI_FORK5)
    assert rep.dimension == 1
    assert_proportional(
        rep.generator_coords(),
        {(1, 1): 1, (2, 2): 1, (3, 3): -4, (4, 4): 1, (5, 5): 1, (3, 4): -5, (3, 5): 5},
    )


def test_six_a_frobenius_kernel_trivial():
    gA = build_gA(SIX_A)
    assert kernel(gA, PHI_SIX_A).dimension == 0


def test_kernel_split_full_vs_trace_zero():
    # dim ker in g = dim ker_A + 1, and the identity element lies in ker
    rng = random.Random(1)
    for poset, phi in ((CHAIN4, PHI_CHAIN4), (FORK5, PHI_FORK5), (SIX_A, PHI_SIX_A)):
        g = build_g(poset)
        gA = build_gA(poset)
        full = kernel(g, phi)
        intrinsic = kernel(gA, phi)
        assert full.dimension == intrinsic.dimension + 1
        assert in_kernel(g, phi, g.identity_element())
    for _ in range(5):
        pairs = sorted(SIX_A.relations)
        support = [pq for pq in pairs if rng.random() < 0.5] or pairs[:2]
        phi = OneForm.from_support(SIX_A, support)
        g = build_g(SIX_A)
        gA = build_gA(SIX_A)
        assert kernel(g, phi).dimension == kernel(gA, phi).dimension + 1


def test_index_abelian():
    for d in (1, 2, 5):
        assert index(build_custom(d, {})) == d


def test_index_footnote_algebra():
    assert index(footnote_algebra()) == 1


def test_index_six_a_frobenius():
    assert index(build_gA(SIX_A)) == 0


def test_index_zero_dim_algebra():
    gA = build_gA(Poset.from_covers(1, []))
    assert gA.dim == 0
    assert index(gA) == 0


def test_index_monotone_in_trials():
    gA = build_gA(CHAIN4)
    values = [index(gA, trials=t, seed=11) for t in (1, 2, 5)]
    assert values[0] >= values[1] >= values[2]


def test_index_rejects_fewer_than_one_trial():
    # with no trial run the old loop returned dim: 5 for the 3-chain, whose index is 1
    gA = build_gA(CHAIN3)
    for trials in (0, -1):
        with pytest.raises(ValueError):
            index(gA, trials=trials)
    assert index(gA, trials=1) == 1


@pytest.mark.parametrize("n", range(2, 41))
def test_index_chain_formula(n):
    # the GF(p)-uniform draws at the default trials, up to dim 819
    gA = build_gA(Poset.chain(n))
    assert [index(gA, seed=seed) for seed in range(3)] == [(n - 1) // 2] * 3


def test_index_failure_bound_is_exact():
    p = linalg._MODP
    assert INDEX_TRIALS == 2
    assert index_failure_bound(build_gA(CHAIN3)) == Fraction(4, p * p)  # dim 5
    assert index_failure_bound(build_gA(Poset.chain(40)), trials=1) == Fraction(409, p)  # dim 819
    # index samples nothing on an abelian algebra, so its value is exact there
    for algebra in (build_custom(4, {}), build_gA(Poset.from_covers(3, []))):
        assert index_failure_bound(algebra) == 0


def _reference_phi(algebra, form):
    """φ on the basis through each basis vector's matrix coordinates."""
    return [
        form.evaluate_coords(algebra.to_matrix_coords(unit(algebra.dim, j)))
        for j in range(algebra.dim)
    ]


def _random_form(poset, rng, denominators=(1,)):
    pairs = sorted(poset.relations) + [(p, p) for p in poset.elements]
    return OneForm(
        poset,
        {pq: Fraction(rng.randint(-(1 << 20), 1 << 20), rng.choice(denominators)) for pq in pairs},
    )


def _oracle_posets():
    return enumerate_posets(5, connected_only=False) + [Poset.chain(n) for n in range(2, 13)]


def test_phi_on_basis_closed_form_matches_matrix_coordinates():
    rng = random.Random(5)
    for poset in _oracle_posets():
        form = _random_form(poset, rng, denominators=(1, 2, 3, 7))
        for alg in (build_g(poset), build_gA(poset)):
            assert phi_on_basis(alg, form) == _reference_phi(alg, form)


def test_dphi_rows_modp_corank_matches_exact_rank():
    # the mod-p corank of the integer assembler's rows against exact
    # Bareiss rank on the Fraction dφ matrix built from reference φ values
    rng = random.Random(7)
    for poset in _oracle_posets():
        form = _random_form(poset, rng)
        for alg in (build_g(poset), build_gA(poset)):
            n = alg.dim
            rows = _dphi_rows(alg, phi_on_basis(alg, form))[0]
            exact = n - linalg.rank(dphi_matrix(alg, _reference_phi(alg, form)))
            assert n - linalg.rank_mod_p(rows, n) == exact, (poset.covers, alg.kind)


def test_dphi_rows_are_the_integer_entries_on_poset_algebras():
    # a poset algebra's table compiles with scale t = 1, so the rows are
    # the nonzero entries of dφ for φ cleared of its denominators, as ints
    rng = random.Random(8)
    for poset in _oracle_posets():
        form = _random_form(poset, rng, denominators=(1, 2, 3))
        for alg in (build_g(poset), build_gA(poset)):
            lam, phi = linalg.clear_denominators(phi_on_basis(alg, form))
            rows, lam_out, phi_out = _dphi_rows(alg, phi_on_basis(alg, form))
            m = dphi_matrix(alg, phi)
            expected = [{j: int(v) for j, v in enumerate(r) if v} for r in m.rows]
            assert alg.dphi_terms[0] == 1 and (lam_out, phi_out) == (lam, phi)
            assert rows == expected and all(type(v) is int for r in rows for v in r.values())


# sl2 in the basis b1 = h/2 + e, b2 = e + f/3, b3 = f - h: every bracket has three terms
SL2_RATIONAL = {
    (1, 2): {1: -2, 2: 3, 3: Fraction(-4, 3)},
    (1, 3): {1: -4, 2: 6, 3: -3},
    (2, 3): {1: -2, 2: 4, 3: -2},
}


def _assert_scaled_dphi(alg, values):
    """_dphi_rows gives λ·dφ and λ·φ(b) for one λ > 0, with no stored zero."""
    rows, lam, phi = _dphi_rows(alg, values)
    assert lam > 0 and phi == [lam * v for v in values]
    assert all(type(v) is int and v for r in rows for v in r.values())
    m = dphi_matrix(alg, values)
    assert rows == [{j: lam * v for j, v in enumerate(r) if v} for r in m.rows]
    return rows


def test_dphi_rows_sum_multi_term_rational_brackets():
    alg = build_custom(3, SL2_RATIONAL)
    assert alg.dphi_terms[0] == 3 and len(alg.dphi_terms[1]) == 9
    # φ(b) = (1, 1, 3/4) kills [b1, b2]: its three terms cancel, the others stay
    rows = _assert_scaled_dphi(alg, functional_on_basis(alg, [1, 1, Fraction(3, 4)]))
    assert [sorted(r) for r in rows] == [[2], [2], [0, 1]]
    rng = random.Random(4)
    for _ in range(20):
        nums = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(3)]
        draw = [Fraction(a, rng.randint(1, 4)) for a in nums]
        _assert_scaled_dphi(alg, functional_on_basis(alg, draw))


def test_dphi_rows_scaling_keeps_exact_answers():
    # rational coefficients: kernel, principal element and volume test must
    # match the Fraction dφ matrix through the RatMatrix entry points
    rng = random.Random(9)
    for poset in (CHAIN3, CHAIN4, FORK5, SIX_A):
        form = _random_form(poset, rng, denominators=(2, 3, 5))
        gA = build_gA(poset)
        m = dphi_matrix(gA, _reference_phi(gA, form))
        assert kernel(gA, form).vectors == linalg.kernel_basis(m)
        if gA.dim % 2 == 0:
            x_hat = principal_element(gA, form)
            assert list(x_hat.vec) == linalg.solve(m, phi_on_basis(gA, form))
        else:
            values = phi_on_basis(gA, form)
            bordered = [[0] + values] + [[-v] + row for v, row in zip(values, m.rows)]
            assert is_contact_form_volume(gA, form) == (
                linalg.determinant(linalg.RatMatrix(bordered)) != 0
            )
    # rational structure constants scale the assembled entries as well
    alg = build_custom(3, {(1, 2): {2: Fraction(1, 2)}, (1, 3): {3: Fraction(1, 3)}})
    values = functional_on_basis(alg, [1, Fraction(2, 3), 5])
    assert kernel(alg, values).vectors == linalg.kernel_basis(dphi_matrix(alg, values))
    assert index(alg) == 1


def test_contact_chain4():
    gA = build_gA(CHAIN4)
    res = is_contact_form(gA, PHI_CHAIN4)
    assert res.is_contact
    # Reeb vector: B / |φ(B)| with φ(B) = k11 for the golden generator
    coords = res.reeb.matrix_coords
    assert_proportional(
        coords, {(1, 1): 1, (2, 2): -1, (3, 3): -1, (4, 4): 1, (1, 2): 2}
    )
    assert PHI_CHAIN4.evaluate(res.reeb) in (Fraction(1), Fraction(-1))


def test_contact_footnote_fails():
    alg = footnote_algebra()
    # generic one-forms have a kernel generator killed by φ
    for vals in ([1, 2, 3], [5, 1, 7], [2, 9, 4]):
        res = is_contact_form(alg, functional_on_basis(alg, vals))
        assert not res.is_contact


def test_contact_even_dimension_false():
    gA = build_gA(SIX_A)
    assert not is_contact_form(gA, PHI_SIX_A).is_contact
    with pytest.raises(ShapeError):
        is_contact_form_volume(gA, PHI_SIX_A)


def test_contact_volume_chain3():
    gA = build_gA(CHAIN3)
    phi = OneForm.from_support(CHAIN3, [(1, 1), (1, 3), (2, 3)])
    assert is_contact_form_volume(gA, phi)
    assert is_contact_form(gA, phi).is_contact
    assert not is_contact_form_volume(gA, OneForm(CHAIN3, {}))


def test_contact_volume_pendant_low_7():
    # chain 1..6 plus 2 below 7; explicit contact form
    covers = [(i, i + 1) for i in range(1, 6)] + [(2, 7)]
    poset = Poset.from_covers(7, covers)
    phi = OneForm.from_support(
        poset, [(1, 1), (1, 6), (2, 5), (3, 4), (1, 7), (2, 7), (3, 6)]
    )
    gA = build_gA(poset)
    assert gA.dim == 23
    assert is_contact_form_volume(gA, phi)
    assert is_contact_form(gA, phi).is_contact


def test_contact_oracles_agree_on_random_small_pairs():
    rng = random.Random(2)
    agree = 0
    checked = 0
    while checked < 40:
        n = rng.randint(2, 5)
        covers = [
            (p, q)
            for p in range(1, n + 1)
            for q in range(p + 1, n + 1)
            if rng.random() < 0.4
        ]
        poset = Poset.from_covers(n, covers)
        gA = build_gA(poset)
        if gA.dim % 2 == 0 or gA.dim == 0:
            continue
        pairs = sorted(poset.relations)
        support = [pq for pq in pairs if rng.random() < 0.6]
        if rng.random() < 0.7:
            support.append((1, 1))
        phi = OneForm.from_support(poset, support) if support else OneForm(poset, {})
        lhs = is_contact_form(gA, phi).is_contact
        rhs = is_contact_form_volume(gA, phi)
        assert lhs == rhs
        agree += lhs == rhs
        checked += 1
    assert agree == checked


def test_contact_volume_modp_certificate_matches_exact_rank():
    # the GF(p) shortcut must give the exact bordered-rank verdict; the
    # zero form and sparse 0/1 forms are often not contact, so the exact
    # fallback runs as well
    rng = random.Random(11)
    verdicts = set()
    for poset in enumerate_posets(5):
        for alg in (build_g(poset), build_gA(poset)):
            n = alg.dim
            if n % 2 == 0:
                continue
            pairs = sorted(poset.relations) + [(p, p) for p in poset.elements]
            sparse = OneForm.from_support(poset, [pq for pq in pairs if rng.random() < 0.5])
            for form in (OneForm(poset, {}), sparse, _random_form(poset, rng)):
                rows, _, phi = _dphi_rows(alg, phi_on_basis(alg, form))
                bordered = [{j + 1: x for j, x in enumerate(phi) if x}] + [
                    ({0: -p} if p else {}) | {j + 1: v for j, v in row.items()}
                    for p, row in zip(phi, rows)
                ]
                exact = linalg.int_rank(bordered, n + 1) == n + 1
                assert is_contact_form_volume(alg, form) == exact, (poset.covers, alg.kind)
                verdicts.add(exact)
    assert verdicts == {True, False}


def test_every_rank_mod_p_input_is_square_and_skew(monkeypatch):
    # rank_mod_p reads only the upper triangle, so each of its callers must
    # hand it a square skew-symmetric matrix
    from lieposet.toral.blocks import derive_small_frobenius_form, search_contact_form

    real = linalg.rank_mod_p
    calls = []

    def checked(rows, ncols, p=linalg._MODP):
        assert len(rows) == ncols
        sparse = [r if isinstance(r, dict) else dict(enumerate(r)) for r in rows]
        for i, row in enumerate(sparse):
            for j, x in row.items():
                assert x == -sparse[j].get(i, 0), (i, j)
        calls.append(ncols)
        return real(rows, ncols, p)

    monkeypatch.setattr(linalg, "rank_mod_p", checked)
    rng = random.Random(13)
    counts = dict.fromkeys(("index", "volume", "frobenius", "search"), 0)
    for poset in enumerate_posets(5):
        form = _random_form(poset, rng)
        runs = [("frobenius", lambda: derive_small_frobenius_form(poset))]
        runs.append(("search", lambda: search_contact_form(poset)))
        for alg in (build_g(poset), build_gA(poset)):
            runs.append(("index", lambda alg=alg: index(alg)))
            if alg.dim % 2:
                runs.append(("volume", lambda alg=alg: is_contact_form_volume(alg, form)))
        for name, run in runs:
            before = len(calls)
            run()
            counts[name] += len(calls) - before
    assert all(counts.values()), counts


def test_principal_element_chain2():
    gA = build_gA(CHAIN2)
    phi = OneForm.from_support(CHAIN2, [(1, 2)])
    x_hat = principal_element(gA, phi)
    assert x_hat.matrix_coords == {(1, 1): Fraction(1, 2), (2, 2): Fraction(-1, 2)}
    assert char_poly(ad_matrix(gA, x_hat)) == [1, -1, 0]  # λ² - λ
    assert is_binary_spectrum(gA, phi)


def test_principal_element_not_frobenius():
    gA = build_gA(CHAIN4)
    with pytest.raises(NotFrobeniusError):
        principal_element(gA, PHI_CHAIN4)  # contact, kernel dim 1


def test_principal_element_defining_property():
    gA = build_gA(SIX_A)
    x_hat = principal_element(gA, PHI_SIX_A)
    for j in range(gA.dim):
        b = gA.basis_element(j)
        assert PHI_SIX_A.evaluate(x_hat.bracket(b)) == PHI_SIX_A.evaluate(b)


def test_binary_spectrum_six_a():
    assert is_binary_spectrum(build_gA(SIX_A), PHI_SIX_A)


def test_binary_spectrum_odd_dimension_false():
    gA = build_gA(CHAIN2)
    # dim 2 is even; use a custom odd-dim Frobenius-free criterion instead:
    g_odd = build_gA(CHAIN3)
    phi = OneForm.from_support(CHAIN3, [(1, 3), (2, 3)])
    assert not is_binary_spectrum(g_odd, phi)


def test_spectrum_invariance_across_frobenius_forms():
    gA = build_gA(SIX_A)
    # second Frobenius form on the same algebra, found by small search
    from itertools import combinations

    pairs = sorted(SIX_A.relations)
    reference = spectrum(gA, PHI_SIX_A)
    alternates = 0
    for support in combinations(pairs, SIX_A.n - 1):
        if set(support) == PHI_SIX_A.strict_support:
            continue
        phi = OneForm.from_support(SIX_A, support)
        if not is_small(SIX_A, phi):
            continue
        if kernel(gA, phi).dimension != 0:
            continue
        assert spectrum(gA, phi) == reference
        alternates += 1
        if alternates >= 3:
            break
    assert alternates >= 1


def _poly_from_roots(roots):
    """Descending coefficients of the product of (λ - r)."""
    coeffs = [Fraction(1)]
    for r in roots:
        nxt = coeffs + [Fraction(0)]
        for k, c in enumerate(coeffs):
            nxt[k + 1] -= r * c
        coeffs = nxt
    return coeffs


def test_ad_weights_match_faddeev_for_non_diagonal_elements():
    rng = random.Random(17)
    checked = 0
    for poset in enumerate_posets(5, connected_only=False):
        for alg in (build_g(poset), build_gA(poset)):
            strict = [i for i, lab in enumerate(alg.labels) if lab[0] == "e"]
            for _ in range(2):
                vec = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(alg.dim)]
                if strict:
                    vec[rng.choice(strict)] = Fraction(rng.randint(1, 6), rng.randint(1, 4))
                x = alg.element(vec)
                expected = char_poly(ad_matrix(alg, x))
                assert _poly_from_roots(ad_weights(alg, x)) == expected, (poset.covers, alg.kind)
                checked += 1
    assert checked == 2 * 2 * 87


def test_spectrum_matches_faddeev_on_searched_frobenius_forms():
    from lieposet.toral.blocks import derive_small_frobenius_form

    forms = 0
    for poset in enumerate_posets(6):
        form = derive_small_frobenius_form(poset)
        if form is None:
            continue
        gA = build_gA(poset)
        reference = char_poly(ad_matrix(gA, principal_element(gA, form)))
        half = gA.dim // 2
        binary = reference == _poly_from_roots([0] * half + [1] * half)
        assert spectrum(gA, form) == reference, poset.covers
        assert is_binary_spectrum(gA, form) == binary, poset.covers
        forms += 1
    assert forms == 71


def test_spectrum_of_custom_algebra_is_shape_error():
    alg = build_custom(2, {(1, 2): {2: 1}})  # [e1, e2] = e2, Frobenius for e2*
    assert principal_element(alg, [0, 1]).vec == (1, 0)
    with pytest.raises(ShapeError):
        is_binary_spectrum(alg, [0, 1])
    with pytest.raises(ShapeError):
        spectrum(alg, [0, 1])


def _over(x, d):
    return [Fraction(v, d) for v in x]


def test_principal_or_kernel_routes_each_form():
    alg = build_custom(2, {(1, 2): {2: 1}})  # [e1, e2] = e2
    p = linalg._MODP
    # φ(e2) = p: det dφ = p² vanishes mod p, but dφ is nonsingular over Q
    assert linalg.rank_mod_p(_dphi_rows(alg, [0, p])[0], 2) == 0
    # x̂ comes back as integers X over the pivot D
    x_hat, report = principal_or_kernel(alg, [0, p])
    assert _over(*x_hat) == [1, 0] and report is None
    assert principal_element(alg, [0, p]).vec == (1, 0)
    x_hat, report = principal_or_kernel(alg, [0, 1])
    assert _over(*x_hat) == [1, 0] and report is None
    x_hat, report = principal_or_kernel(alg, [1, 0])  # dφ = 0
    assert x_hat is None and report.dimension == 2
    x_hat, report = principal_or_kernel(build_gA(CHAIN4), PHI_CHAIN4)  # odd dim
    assert x_hat is None and report.dimension == 1


def _contact_reference(alg, values):
    """``is_contact_form``'s verdict through the Fraction layer: ``dphi_matrix``,
    ``kernel_basis`` and a Fraction pairing; (reason, Reeb vector, kernel)."""
    basis = [[Fraction(x) for x in v] for v in linalg.kernel_basis(dphi_matrix(alg, values))]
    if len(basis) != 1:
        return f"kernel dimension {len(basis)} != 1", None, basis
    pairing = sum(c * v for c, v in zip(basis[0], values))
    if pairing == 0:
        return "form vanishes on the kernel generator", None, basis
    return "contact", tuple(c / abs(pairing) for c in basis[0]), basis


def _assert_contact_matches_reference(alg, form_or_values):
    values = form_or_values
    if isinstance(form_or_values, OneForm):
        values = phi_on_basis(alg, form_or_values)
    reason, reeb, basis = _contact_reference(alg, values)
    res = is_contact_form(alg, form_or_values)
    assert (res.is_contact, res.reason) == (reeb is not None, reason)
    assert (None if res.reeb is None else res.reeb.vec) == reeb
    assert res.kernel.vectors == basis
    # the integer path builds exact Fractions only, never a float zero
    assert all(type(x) is Fraction for v in res.kernel.vectors for x in v)
    return res


def test_contact_integer_pairing_matches_fraction_reference_on_catalog():
    from lieposet.toral.blocks import catalog_blocks

    checked = 0
    for blk in catalog_blocks():
        if blk.kind == "contact":
            assert _assert_contact_matches_reference(build_gA(blk.poset), blk.form), blk.id
            checked += 1
    assert checked == 44


def test_contact_integer_pairing_matches_fraction_reference_on_random_forms():
    # seeded integral forms, sparse and dense, so that every verdict occurs
    rng = random.Random(19)
    verdicts = {}
    for poset in enumerate_posets(6):
        gA = build_gA(poset)
        if gA.dim % 2 == 0:
            continue
        pairs = sorted(poset.relations) + [(p, p) for p in poset.elements]
        for density in (0.5, 0.9):
            coeffs = {pq: rng.choice((-2, -1, 1, 2, 3)) for pq in pairs if rng.random() < density}
            reason = _assert_contact_matches_reference(gA, OneForm(poset, coeffs)).reason
            reason = "kernel dimension > 1" if reason.startswith("kernel") else reason
            verdicts[reason] = verdicts.get(reason, 0) + 1
    assert verdicts == {
        "contact": 60,
        "form vanishes on the kernel generator": 50,
        "kernel dimension > 1": 172,
    }


def test_reeb_vector_sign_with_a_negative_pivot():
    # Reeb = X·λ·sign(D) / |S|: on sl2 these forms have a negative last pivot D
    alg = sl2()
    for values, d in (([1, 0, 0], -1), ([2, 1, 1], -4), ([-1, 1, 1], -2)):
        assert linalg.int_null_space(_dphi_rows(alg, values)[0], 3)[1] == d
        assert _assert_contact_matches_reference(alg, values).is_contact
    assert is_contact_form(alg, [1, 0, 0]).reeb.vec == (1, 0, 0)


def _shifted_diagonal_form(poset, rng, shift):
    """Diagonal coefficients in shift + Z and integral strict ones, of both signs:
    φ is integral on g_A's basis, while the form's denominators are shift's."""
    coeffs = {(p, p): shift + rng.randint(-3, 3) for p in poset.elements}
    coeffs.update({pq: rng.randint(-3, 3) for pq in poset.relations})
    return OneForm(poset, coeffs)


def test_rational_form_carries_its_lambda_to_rows_and_reeb():
    # λ is the lcm of the form's denominators, not of φ(b)'s: with φ_11 =
    # φ_22 = 1/2 and φ_33 = -1/2, φ(h_1) = 0 and φ(b) is integral, yet λ = 2
    half = Fraction(1, 2)
    coeffs = {(1, 1): half, (2, 2): half, (3, 3): -half, (1, 3): -2, (2, 3): 3}
    cases = [(CHAIN3, OneForm(CHAIN3, coeffs))]
    rng = random.Random(29)
    for poset in enumerate_posets(5):
        for shift in (half, Fraction(-2, 3)):
            cases.append((poset, _shifted_diagonal_form(poset, rng, shift)))
    reasons = {}
    for poset, form in cases:
        gA = build_gA(poset)
        values = phi_on_basis(gA, form)
        assert linalg.clear_denominators(values)[0] == 1
        rows, lam, phi = _dphi_rows(gA, form)
        assert lam == lcm(*(c.denominator for c in form.coeffs.values())) > 1
        assert phi == [lam * v for v in values]
        m = dphi_matrix(gA, form)
        assert rows == [{j: lam * v for j, v in enumerate(r) if v} for r in m.rows]
        if gA.dim % 2 == 0:
            continue
        res = _assert_contact_matches_reference(gA, form)
        reasons[res.reason] = reasons.get(res.reason, 0) + 1
        if res.is_contact:
            # the Reeb vector is X·λ·sign(D) / |S| for the kernel X / D and
            # S = Σ X_i·φ̃_i, so φ(R) = sign(D)·sign(S) rather than the 1 a
            # Reeb vector should give; a fix of that sign must flip this check
            x, d = res.kernel.generators[0], res.kernel.scale
            pairing = sum(xi * p for xi, p in zip(x, phi))
            sign = (1 if d > 0 else -1) * (1 if pairing > 0 else -1)
            assert form.evaluate(res.reeb) == sign and in_kernel(gA, form, res.reeb)
    assert reasons == {
        "contact": 24,
        "form vanishes on the kernel generator": 15,
        "kernel dimension 3 != 1": 9,
        "kernel dimension 5 != 1": 3,
    }


def test_binary_weights_in_integers_match_ad_weights():
    # the integer rule against the Fraction ad_weights, on x̂ = X / D of every
    # small Frobenius form at n <= 6 and of a seeded random form on each poset
    from lieposet.toral.blocks import derive_small_frobenius_form

    rng = random.Random(23)
    found = {True: 0, False: 0}
    for poset in enumerate_posets(6):
        small = derive_small_frobenius_form(poset)
        if small is None:
            continue
        gA = build_gA(poset)
        pairs = sorted(poset.relations) + [(p, p) for p in poset.elements]
        for form in (small, OneForm(poset, {pq: rng.randint(-2, 2) for pq in pairs})):
            x_hat, report = principal_or_kernel(gA, form)
            if report is not None:
                continue
            x, d = x_hat
            # x̂ itself, then two elements that are not x̂: 2·x̂ and a random one
            drawn = [rng.randint(-2, 2) * d for _ in x]
            for vec in (x, [2 * v for v in x], drawn):
                w = ad_weights(gA, gA.element([Fraction(v, d) for v in vec]))
                binary = w.count(0) == w.count(1) == gA.dim // 2
                assert is_binary_weights(gA, vec, d) == binary, poset.covers
                assert is_binary_weights(gA, [-v for v in vec], -d) == binary
                found[binary] += 1
    assert found == {True: 101, False: 202}  # 71 small forms, 30 random Frobenius ones
    with pytest.raises(ShapeError):
        is_binary_weights(build_g(CHAIN2), [0, 1, 0], 1)


def test_form_graph_contact_chain3():
    phi = OneForm.from_support(CHAIN3, [(1, 1), (1, 3), (2, 3)])
    stripped = phi.without_diagonal()
    assert is_small(CHAIN3, stripped)
    u, d, o = udo_partition(CHAIN3, stripped)
    assert u == {3} and d == {1, 2} and o == frozenset()


def test_form_graph_fork5():
    stripped = PHI_FORK5.without_diagonal()
    assert is_small(FORK5, stripped)
    u, d, o = udo_partition(FORK5, stripped)
    assert u == {3, 4, 5} and d == {1, 2} and o == frozenset()


def test_empty_support_not_small():
    assert not is_small(CHAIN2, OneForm(CHAIN2, {}))
    assert is_small(Poset.from_covers(1, []), OneForm(Poset.from_covers(1, []), {}))


def test_form_graph_interior_detected():
    phi = OneForm.from_support(CHAIN3, [(1, 2), (2, 3)])
    assert udo_partition(CHAIN3, phi)[2] == {2}
